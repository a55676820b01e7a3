import json
import math

import numpy as np
import pytest

from qscnewton.cli import main


def write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture
def quad_config(tmp_path):
    return write_config(
        tmp_path / "quad.json",
        {
            "schema_version": 1,
            "problem": {"kind": "quadratic", "n": 5, "seed": 0},
            "solver": {"name": "primal", "sigma": 0.0, "grad_tol": 1e-10},
        },
    )


class TestSolveCommand:
    def test_quadratic_exits_zero_with_one_iteration_trace(self, quad_config, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", quad_config, "--out", str(out)]) == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(trace) == 3  # header + step row + terminal row
        report = json.loads((out / "report.json").read_text())
        assert report["iterations"] == 1

    def test_malformed_config_exits_three(self, tmp_path):
        bad = write_config(tmp_path / "bad.json", {"schema_version": 1})
        assert main(["solve", "--config", bad, "--out", str(tmp_path / "o")]) == 3

    def test_unparseable_config_exits_three(self, tmp_path):
        path = tmp_path / "nojson.json"
        path.write_text("{")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_missing_config_exits_three(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "solver",
        [
            {"name": "dual", "sigma": 123, "adaptive": True, "max_iters": 1},
            {"name": "primal", "max_outer": 1, "qsc_constant": 99},
        ],
        ids=["dual-with-primal-keys", "primal-with-dual-keys"],
    )
    def test_key_the_solver_does_not_take_exits_three(self, tmp_path, solver):
        config = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "problem": {"kind": "logistic", "n": 4, "m": 20, "seed": 3},
                "solver": solver,
            },
        )
        assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            {
                "composite": {"kind": "box", "lower": -0.3, "upper": 0.3},
                "solver": {"name": "pure_newton_local"},
            },
            {"solver": {"name": "primal"}, "verify": {"dual_guarantee": True}},
        ],
        ids=["pure-newton-local-on-a-box", "verify-flag-without-a-check"],
    )
    def test_config_the_solver_cannot_run_exits_three(self, tmp_path, capsys, extra):
        config = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "problem": {"kind": "logistic", "n": 6, "m": 30, "seed": 4}, **extra},
        )
        assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["softmax", "logistic", "exponential"])
    def test_gram_family_with_fewer_rows_than_columns_exits_three(self, tmp_path, capsys, kind):
        # its Gram metric is singular; roundoff used to let it factor, and
        # the dual then ended in singular_system at its first step
        config = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "problem": {"kind": kind, "n": 6, "m": 3, "seed": 1}, "solver": {"name": "dual"}},
        )
        assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "m=3, n=6" in err and "Traceback" not in err

    def test_solver_failure_exits_two(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "problem": {"kind": "logistic", "n": 8, "m": 40, "seed": 7},
                "solver": {"name": "primal", "sigma": 1.0, "grad_tol": 1e-14, "max_iters": 2},
            },
        )
        assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_strict_parameter_error_exits_two_without_output(self, tmp_path, capsys):
        # R = 0.5 is below 2^(3/2)/M for M = 1: the strict run refuses to start
        config = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "problem": {"kind": "logistic", "n": 4, "m": 20, "seed": 3},
                "solver": {"name": "accelerated", "distance_bound": 0.5},
            },
        )
        out = tmp_path / "o"
        assert main(["solve", "--config", config, "--out", str(out), "--strict"]) == 2
        assert "solver failure" in capsys.readouterr().err
        assert not out.exists()

    def test_accelerated_auto_reference_end_to_end(self, tmp_path):
        config = write_config(
            tmp_path / "acc.json",
            {
                "schema_version": 1,
                "problem": {"kind": "logistic", "n": 8, "m": 40, "seed": 7},
                "solver": {"name": "accelerated", "rel_accuracy": 1e-5},
            },
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["reference"] is not None
        assert report["final_gap"] <= 1e-5 * 1.0  # relative target on a O(1) gap


class TestUsageErrors:
    """A command line argparse rejects exits 3 (config error), not argparse's 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--out", "{out}"],
            ["solve", "--config", "{config}", "--out", "{out}", "--seed", "x"],
            ["solve", "--config", "{config}", "--out", "{out}", "--bogus"],
            ["frobnicate", "--config", "{config}"],
            [],
            ["solve", "--config", "{config}", "--out", "{out}", "--jobs", "2"],
            ["verify", "--config", "{config}", "--out", "{out}", "--strict"],
            ["reference", "--config", "{config}", "--out", "{out}", "--jobs", "2"],
        ],
        ids=[
            "no-config",
            "non-integer-seed",
            "unknown-option",
            "unknown-command",
            "no-command",
            "solve-jobs",
            "verify-strict",
            "reference-jobs",
        ],
    )
    def test_exits_three_without_output(self, tmp_path, quad_config, capsys, argv):
        out = tmp_path / "u"
        with pytest.raises(SystemExit) as exited:
            main([arg.format(out=out, config=quad_config) for arg in argv])
        assert exited.value.code == 3
        assert not out.exists()
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exited:
            main(["solve", "--help"])
        assert exited.value.code == 0


_LOGISTIC = {"kind": "logistic", "n": 4, "m": 20, "seed": 3}


class TestNonFiniteAndNonIntegerNumbers:
    """json.load parses NaN and Infinity, and an integral float is not an
    integer: each is a config error before any output."""

    @pytest.mark.parametrize(
        "command, config",
        [
            ("solve", {"problem": _LOGISTIC, "solver": {"name": "primal", "grad_tol": math.inf}}),
            ("solve", {"problem": _LOGISTIC, "solver": {"name": "dual", "qsc_constant": math.nan}}),
            ("solve", {"problem": _LOGISTIC, "solver": {"name": "primal", "max_iters": 2.0}}),
            ("verify", {"problem": _LOGISTIC, "instance_checks": {"samples": 10, "pairs": 2.0}}),
            ("solve", {"problem": {**_LOGISTIC, "seed": 3.0}, "solver": {"name": "primal"}}),
            ("solve", {"problem": {**_LOGISTIC, "n": 4.0}, "solver": {"name": "primal"}}),
            ("reference", {"problem": {**_LOGISTIC, "n": 4.0}}),
        ],
        ids=["grad-tol-infinity", "qsc-constant-nan", "max-iters-2.0", "pairs-2.0", "seed-3.0", "n-4.0", "reference-n-4.0"],
    )
    def test_exits_three_without_output(self, tmp_path, capsys, command, config):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1, **config}))  # writes Infinity and NaN
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err


class TestMalformedStartAndBounds:
    """An x0 that is not "zeros" or an array of finite numbers, and a box
    bound array holding a non-number, are config errors before any output."""

    @pytest.mark.parametrize(
        "extra",
        [
            {"x0": "ones"},
            {"x0": ["a", "b", "c", "d"]},
            {"x0": [math.nan, 0.0, 0.0, 0.0]},
            {"composite": {"kind": "box", "lower": [-1, "a", -1, -1], "upper": 1}},
        ],
        ids=["x0-ones", "x0-strings", "x0-nan", "bound-string"],
    )
    def test_exits_three_without_output(self, tmp_path, capsys, extra):
        config = {"schema_version": 1, "problem": _LOGISTIC, "solver": {"name": "primal"}, **extra}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))  # writes NaN
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    def test_one_sided_bound_array_still_runs(self, tmp_path):
        box = {"kind": "box", "lower": [-math.inf, -1, -1, -1], "upper": 1}
        config = {"schema_version": 1, "problem": _LOGISTIC, "solver": {"name": "primal"}, "composite": box}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))  # writes -Infinity
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def _unbuildable_config(tmp_path, case):
    """A schema-valid config whose instance cannot be built."""
    if case == "non-numeric-csv-cell":
        data = tmp_path / "rows.csv"
        data.write_text("1.0,2.0,0.5\n1.0,abc,0.5\n")
        return {"schema_version": 1, "problem": {"kind": "logistic", "data_path": str(data)}}
    box = {
        "lower-above-upper": {"lower": 0.5, "upper": -0.5},
        "nan-bound": {"lower": float("nan"), "upper": 0.5},
        "short-lower-bound": {"lower": [-1, -1]},
        "short-bounds": {"lower": [-1, -1], "upper": [1, 1]},
    }[case]
    problem = {"kind": "logistic", "n": 4, "m": 20, "seed": 3}
    return {"schema_version": 1, "problem": problem, "composite": {"kind": "box", **box}}


class TestUnbuildableInstance:
    """Bounds or data the instance cannot be built from exit 3 before any output."""

    @pytest.mark.parametrize(
        "command, case",
        [
            (command, case)
            for case in ("lower-above-upper", "nan-bound", "short-lower-bound", "short-bounds", "non-numeric-csv-cell")
            for command in ("solve", "reference", "verify")
        ],
    )
    def test_exits_three_without_output(self, tmp_path, capsys, command, case):
        config = _unbuildable_config(tmp_path, case)
        config["solver"] = {"name": "primal"}
        if command == "verify":
            config["instance_checks"] = {"samples": 10, "pairs": 2}
        path = write_config(tmp_path / "c.json", config)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_zoo_instance_passes(self, tmp_path):
        config = write_config(
            tmp_path / "v.json",
            {
                "schema_version": 1,
                "problem": {"kind": "matrix_balancing", "n": 5, "seed": 13},
                "instance_checks": {"samples": 300, "pairs": 60},
            },
        )
        assert main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert report["all_passed"]

    def test_forced_small_constant_exits_two_naming_qsc(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "v.json",
            {
                "schema_version": 1,
                "problem": {"kind": "logistic", "n": 2, "m": 4, "seed": 3, "qsc_override": 0.5},
                "instance_checks": {"samples": 800, "pairs": 40},
            },
        )
        assert main(["verify", "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "qsc" in err
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert "qsc" in report["failing"]


class TestReferenceCommand:
    def test_reference_cached_between_runs(self, tmp_path):
        config = write_config(
            tmp_path / "r.json",
            {
                "schema_version": 1,
                "problem": {"kind": "quadratic", "n": 5, "seed": 0},
            },
        )
        out = tmp_path / "o"
        assert main(["reference", "--config", config, "--out", str(out)]) == 0
        first = json.loads((out / "reference.json").read_text())
        assert main(["reference", "--config", config, "--out", str(out)]) == 0
        second = json.loads((out / "reference.json").read_text())
        assert not first["from_cache"]
        assert second["from_cache"]
        assert first["f_star"] == second["f_star"]


class TestBenchmarkCommand:
    def _suite(self, tmp_path):
        return write_config(
            tmp_path / "suite.json",
            {
                "schema_version": 1,
                "problems": [
                    {"kind": "quadratic", "n": 5, "seed": 0},
                    {"kind": "logistic", "n": 6, "m": 30, "seed": 2},
                ],
                "solvers": [
                    {"name": "primal", "sigma": 1.0, "grad_tol": 1e-9},
                    {"name": "dual", "qsc_constant": 1.0, "grad_tol": 1e-7},
                    {"name": "accelerated", "rel_accuracy": 1e-5},
                ],
            },
        )

    def test_grid_produces_reports_and_tables(self, tmp_path):
        suite = self._suite(tmp_path)
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", suite, "--out", str(out)]) == 0
        table = (out / "table.csv").read_text().splitlines()
        assert len(table) == 1 + 6  # header + 2 problems x 3 solvers
        assert (out / "table.txt").exists()
        for pi in range(2):
            for si in range(3):
                assert (out / f"cell_{pi}_{si}" / "report.json").exists()

    def test_deterministic_tables(self, tmp_path):
        suite = self._suite(tmp_path)
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert main(["benchmark", "--config", suite, "--out", str(out1)]) == 0
        assert main(["benchmark", "--config", suite, "--out", str(out2)]) == 0
        assert (out1 / "table.csv").read_text() == (out2 / "table.csv").read_text()

    def test_parallel_cells_match_sequential(self, tmp_path):
        suite = self._suite(tmp_path)
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["benchmark", "--config", suite, "--out", str(seq)]) == 0
        assert main(["benchmark", "--config", suite, "--out", str(par), "--jobs", "2"]) == 0
        assert (seq / "table.csv").read_text() == (par / "table.csv").read_text()

    def test_seed_override_changes_instance(self, tmp_path):
        suite = self._suite(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["benchmark", "--config", suite, "--out", str(out1), "--seed", "99"]) == 0
        assert main(["benchmark", "--config", suite, "--out", str(out2)]) == 0
        assert (out1 / "table.csv").read_text() != (out2 / "table.csv").read_text()

    def test_malformed_suite_with_seed_exits_three(self, tmp_path, capsys):
        # the suite is validated before the seed is written into its problems
        suite = {"schema_version": 1, "problems": [1], "solvers": [{"name": "primal"}]}
        bad = write_config(tmp_path / "s.json", suite)
        assert main(["benchmark", "--config", bad, "--out", str(tmp_path / "o"), "--seed", "5"]) == 3
        assert not (tmp_path / "o").exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_malformed_suite_exits_three(self, tmp_path):
        bad = write_config(tmp_path / "s.json", {"schema_version": 1, "problems": []})
        assert main(["benchmark", "--config", bad, "--out", str(tmp_path / "o")]) == 3
