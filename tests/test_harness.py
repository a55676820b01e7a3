import dataclasses
import json
import math

import jsonschema
import numpy as np
import pytest

from qscnewton import harness
from qscnewton import (
    AccelConfig,
    CompositeTerm,
    CountingOracle,
    DualConfig,
    InsufficientDataError,
    Metric,
    ParameterError,
    PrimalConfig,
    ReferenceNotConvergedError,
    RunConfigError,
    check_function_bounds,
    check_gradient_bound,
    check_hessian_stability,
    check_primal_trace,
    compute_reference,
    fit_linear_rate,
    generate_synthetic,
    observed_diameter,
    run_instance_checks,
    solve_primal,
)
from qscnewton.cli import main
from qscnewton.harness import (
    build_problem,
    load_config,
    reference_cache_key,
    run_solve,
    sample_pairs,
    validate_config,
)
from qscnewton.primal import read_primal_trace
from qscnewton.problems import KINDS

ZERO = CompositeTerm.zero()


class TestComputeReference:
    def test_quadratic_reference_is_linear_solve(self):
        o = generate_synthetic("quadratic", n=6, seed=0)
        ref = compute_reference(o, ZERO, np.zeros(6))
        expected = np.linalg.solve(o.hessian(np.zeros(6)), -o.gradient(np.zeros(6)))
        assert np.linalg.norm(ref.x - expected) <= 1e-8

    def test_matrix_balancing_converges_in_gradient(self):
        # the minimizer is shift-ambiguous but the gradient must vanish
        o = generate_synthetic("matrix_balancing", n=6, seed=2)
        ref = compute_reference(o, ZERO, np.zeros(6), grad_tol=1e-10)
        assert ref.grad_norm <= 1e-10
        assert np.isfinite(ref.f_value)

    def test_cache_round_trip_is_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSC_CACHE_DIR", str(tmp_path))
        o = generate_synthetic("quadratic", n=5, seed=1)
        key = "a" * 64
        first = compute_reference(o, ZERO, np.zeros(5), cache_key=key)
        second = compute_reference(o, ZERO, np.zeros(5), cache_key=key)
        assert not first.from_cache
        assert second.from_cache
        np.testing.assert_array_equal(first.x, second.x)
        assert first.f_value == second.f_value

    def test_cache_key_content_addressed(self):
        base = {"kind": "logistic", "n": 5, "m": 20, "seed": 1}
        k1 = reference_cache_key(base, None, None, 1e-12, 10_000)
        k2 = reference_cache_key({**base, "seed": 2}, None, None, 1e-12, 10_000)
        k3 = reference_cache_key(base, None, None, 1e-10, 10_000)
        assert len({k1, k2, k3}) == 3

    def test_config_cache_key_is_pinned(self, tmp_path):
        # the defaults of a config without a reference section feed the key,
        # and a cached reference is only found again if its key is unchanged
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 4, "m": 20, "seed": 3},
            "composite": {"kind": "box", "lower": -1.0, "upper": 1.0},
            "x0": "zeros",
        }
        key = harness.run_reference(config, tmp_path)["cache_key"]
        assert key == "7d5617a4205a62ae512cac99bcf4d43e74776a85c3a015d9bc839d84444d9d2e"

    def test_not_converged_raises(self):
        o = generate_synthetic("logistic", n=8, m=40, seed=3)
        with pytest.raises(ReferenceNotConvergedError):
            compute_reference(o, ZERO, np.zeros(8), grad_tol=1e-15, max_iters=2)


class TestFitLinearRate:
    def test_exact_geometric_sequence(self):
        gaps = 2.0 ** -np.arange(20)
        fit = fit_linear_rate(gaps, 0.0)
        assert fit.slope == pytest.approx(-math.log(2.0), rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.implied_factor == pytest.approx(1.0 / math.log(2.0))

    def test_burst_detection_trims_window(self):
        gaps = list(2.0 ** -np.arange(15)) + [1e-12, 1e-24]
        fit = fit_linear_rate(np.array(gaps), 0.0)
        assert fit.window == 15  # the burst tail (ratio < 0.1) drops out
        assert fit.slope == pytest.approx(-math.log(2.0))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_linear_rate(np.array([1.0, 0.5, 0.25]), 0.0)

    def test_primal_logistic_rate_within_guaranteed_factor(self, logistic_ref, logistic_reference):
        res = solve_primal(
            logistic_ref, ZERO, np.zeros(20), PrimalConfig(sigma=1.0, grad_tol=1e-12)
        )
        fit = fit_linear_rate(res.f_values, logistic_reference.f_value)
        diameter = observed_diameter(
            [r.x for r in res.trace], logistic_ref.metric, extra=logistic_reference.x
        )
        assert fit.implied_factor <= 8.0 * logistic_ref.qsc_constant * diameter


class TestObservedDiameter:
    def test_two_points(self):
        d = observed_diameter([np.zeros(2), np.array([3.0, 4.0])], Metric.identity(2))
        assert d == pytest.approx(5.0)

    def test_extra_point_extends(self):
        d = observed_diameter(
            [np.zeros(2)], Metric.identity(2), extra=np.array([0.0, 7.0])
        )
        assert d == pytest.approx(7.0)

    def test_metric_weighting(self):
        d = observed_diameter([np.zeros(1), np.ones(1)], Metric(np.array([[9.0]])))
        assert d == pytest.approx(3.0)


class TestCheckPrimalTrace:
    def test_full_run_passes(self, logistic_ref):
        res = solve_primal(
            logistic_ref, ZERO, np.zeros(20), PrimalConfig(sigma=1.0, grad_tol=1e-10)
        )
        report = check_primal_trace(res.trace)
        assert report.passed
        assert report.steps == res.iterations
        assert report.monotone

    def test_pure_newton_steps_are_left_to_local_quadratic(self, tmp_path):
        # beta = 0 steps carry none of the per-step guarantees, so per_step
        # checks none of them; the local quadratic contraction is their check
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 5, "m": 40, "seed": 1},
            "solver": {"name": "pure_newton_local"},
            "verify": {"local_quadratic": True},
        }
        report = run_solve(config, tmp_path)
        verification = report["verification"]
        assert report["status"] == "grad_tol_reached" and report["iterations"] == 5
        assert verification["per_step"] == {
            "passed": True,
            "steps": 0,
            "monotone": True,
            "progress_violations": 0,
            "step_bound_violations": 0,
            "worst_progress_slack": "inf",
            "worst_step_slack": "inf",
        }
        assert verification["local_quadratic"]["passed"]
        assert verification["local_quadratic"]["checked_pairs"] > 0

    def test_rate_envelope_advisory(self, logistic_ref, logistic_reference):
        from qscnewton import check_primal_rate_envelope

        res = solve_primal(
            logistic_ref, ZERO, np.zeros(20), PrimalConfig(sigma=1.0, grad_tol=1e-10)
        )
        diameter = observed_diameter(
            [r.x for r in res.trace], logistic_ref.metric, extra=logistic_reference.x
        )
        report = check_primal_rate_envelope(
            res.trace,
            logistic_reference.f_value,
            res.trace[0].grad_norm,
            logistic_ref.qsc_constant,
            diameter,
        )
        assert report.advisory
        assert report.holds  # the observed run stays under the two-term envelope


class TestInstanceChecks:
    def test_quadratic_all_pass(self):
        o = generate_synthetic("quadratic", n=5, seed=4)
        results = run_instance_checks(o, samples=200, pairs=40)
        assert all(res["passed"] for res in results.values())
        assert set(results) == {
            "gradient_fd",
            "hessian_fd",
            "qsc",
            "hessian_stability",
            "gradient_bound",
            "function_bounds",
        }

    @pytest.mark.parametrize(
        "sampling", [{"samples": 0}, {"pairs": 0}, {"x_scale": 0.0}, {"pair_radius": -1.0}]
    )
    def test_sampling_outside_its_bound_is_a_value_error(self, sampling):
        # the schema's bounds, which a run config meets, hold for library calls too
        with pytest.raises(ValueError, match="outside its bound"):
            run_instance_checks(generate_synthetic("quadratic", n=3, seed=0), **sampling)

    def test_matrix_scaling_close_pair_accepts_declared_constant(self):
        # a sampled pair at distance 6e-6 once failed Hessian stability on
        # the roundoff curvature of the Hessian's kernel direction
        o = generate_synthetic("matrix_scaling", n=20, seed=512383483)
        results = run_instance_checks(o, seed=512383483, samples=1000, pairs=200)
        assert all(res["passed"] for res in results.values()), results

    @pytest.mark.parametrize("kind", ["softmax", "logistic", "matrix_scaling", "matrix_balancing"])
    def test_pair_checks_same_with_supplied_evaluations(self, kind):
        o = generate_synthetic(kind, n=5, m=30, seed=6)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x, y = sample_pairs(o, rng, radius=2.0)
            hx, gx, fx = o.hessian(x), o.gradient(x), o.value(x)
            hy, gy, fy = o.hessian(y), o.gradient(y), o.value(y)
            assert check_hessian_stability(o, x, y, hx=hx, hy=hy) == check_hessian_stability(o, x, y)
            assert check_gradient_bound(o, x, y, hx=hx, gx=gx, gy=gy) == check_gradient_bound(o, x, y)
            assert check_function_bounds(o, x, y, hx=hx, gx=gx, fx=fx, fy=fy) == check_function_bounds(o, x, y)

    def test_each_pair_point_is_evaluated_once(self):
        # the FD and qsc parts are the same for any number of pairs, so two
        # more pairs cost exactly their four points' evaluations
        calls = []
        for pairs in (1, 3):
            counting = CountingOracle(generate_synthetic("logistic", n=4, m=20, seed=2))
            run_instance_checks(counting, samples=50, pairs=pairs)
            calls.append(counting.calls)
        extra = {key: calls[1][key] - calls[0][key] for key in calls[0]}
        assert extra == {"value": 4, "gradient": 4, "hessian": 4, "hessian_vector": 0, "third_order": 0}

    def test_forced_small_constant_fails_qsc_only(self):
        o = generate_synthetic("logistic", n=2, m=4, seed=3)
        results = run_instance_checks(o, samples=500, pairs=40)
        assert all(res["passed"] for res in results.values())
        forced = build_problem({"kind": "logistic", "n": 2, "m": 4, "seed": 3, "qsc_override": 0.5})
        results = run_instance_checks(forced, samples=500, pairs=40)
        assert not results["qsc"]["passed"]


class TestConfigValidation:
    def test_minimal_config_valid(self):
        validate_config({"schema_version": 1, "problem": {"kind": "quadratic"}})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(RunConfigError):
            validate_config(
                {"schema_version": 1, "problem": {"kind": "quadratic"}, "unknown": 1}
            )

    def test_unknown_problem_key_rejected(self):
        with pytest.raises(RunConfigError):
            validate_config(
                {"schema_version": 1, "problem": {"kind": "quadratic", "rows": 5}}
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(RunConfigError):
            validate_config({"schema_version": 1, "problem": {"kind": "cubic"}})

    @pytest.mark.parametrize("schema", ["CONFIG_SCHEMA", "BENCHMARK_SCHEMA"])
    def test_schema_is_valid_under_its_metaschema(self, schema):
        # the validators are built once without this check, so it lives here
        schema = getattr(harness, schema)
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize(
        "schema, instance",
        [
            ("CONFIG_SCHEMA", {"schema_version": 2, "problem": {"kind": "cubic"}}),
            ("CONFIG_SCHEMA", {"problem": {"kind": "quadratic", "n": 0}}),
            (
                "CONFIG_SCHEMA",
                {"schema_version": 1, "problem": {"kind": "logistic"}, "solver": {"name": "primal", "sigma": -1}},
            ),
            ("BENCHMARK_SCHEMA", {"schema_version": 1, "problems": [], "solvers": [{"name": "x"}]}),
            ("BENCHMARK_SCHEMA", {"schema_version": 1, "problems": [{"kind": "quadratic"}]}),
        ],
    )
    def test_error_message_is_the_one_jsonschema_validate_raises(self, tmp_path, schema, instance):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(instance, getattr(harness, schema))
        with pytest.raises(RunConfigError) as raised:
            if schema == "CONFIG_SCHEMA":
                validate_config(instance)
            else:
                harness.run_benchmark(instance, tmp_path / "out")
        assert str(raised.value).endswith(f": {expected.value.message}")

    @pytest.mark.parametrize(
        "json_type, value, valid",
        [
            ("integer", 2, True),
            ("integer", 10**400, True),
            ("integer", 2.0, False),
            ("integer", True, False),
            ("number", 2, True),
            ("number", -2.5, True),
            ("number", 10**400, True),
            ("number", np.float64(0.5), True),
            ("number", math.nan, False),
            ("number", math.inf, False),
            ("number", -math.inf, False),
            ("number", False, False),
            ("number", "1", False),
        ],
    )
    def test_integers_are_ints_and_numbers_are_finite(self, json_type, value, valid):
        # the one validator class both schemas use
        assert harness._Validator({"type": json_type}).is_valid(value) is valid

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(RunConfigError):
            load_config(tmp_path / "nope.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(RunConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "name, bound",
        [("lower", [True, True, True, True]), ("lower", [-1, None, -1, -1]), ("upper", [1, 1, False, 1])],
        ids=["lower-bools", "lower-null", "upper-bool"],
    )
    def test_a_box_bound_entry_that_is_not_a_number_is_named(self, tmp_path, name, bound):
        # numpy reads true as 1.0 and null as NaN, which the box then
        # reported as "lower <= upper"
        box = {"kind": "box", "lower": -1, "upper": 1, name: bound}
        config = {"schema_version": 1, "problem": {"kind": "logistic", "n": 4, "m": 20, "seed": 3}}
        config.update(composite=box, solver={"name": "primal"})
        with pytest.raises(RunConfigError, match=f"box bound '{name}' holds a non-number"):
            run_solve(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()


# every run-config solver key with its JSON type and bound, as documented;
# the schema and the config dataclasses must each enforce exactly these
_SOLVER_KEYS = {
    "sigma": {"type": "number", "minimum": 0},
    "adaptive": {"type": "boolean"},
    "sigma0": {"type": "number", "exclusiveMinimum": 0},
    "grad_tol": {"type": "number", "exclusiveMinimum": 0},
    "max_iters": {"type": "integer", "minimum": 1},
    "rel_accuracy": {"type": "number", "exclusiveMinimum": 0},
    "qsc_constant": {"type": "number", "exclusiveMinimum": 0},
    "max_outer": {"type": "integer", "minimum": 1},
    "distance_bound": {"type": "number", "exclusiveMinimum": 0},
    "c": {"type": "number", "exclusiveMinimum": 0},
    "gamma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "a0": {"type": "number", "exclusiveMinimum": 0},
}
# each config type, a solver name that builds it, and its required fields
_CONFIG_TYPES = (
    (PrimalConfig, "primal", {}),
    (DualConfig, "dual", {"qsc_constant": 1.0}),
    (AccelConfig, "accelerated", {"distance_bound": 1.0}),
)


def _bound_edges(fragment):
    """(just outside, just inside) for each bound of a schema fragment."""
    step = 1 if fragment["type"] == "integer" else None

    def toward(limit, direction):
        return limit + direction * step if step else math.nextafter(limit, direction * math.inf)

    for keyword, limit in fragment.items():
        if keyword == "minimum":
            yield toward(limit, -1), limit
        elif keyword == "exclusiveMinimum":
            yield limit, toward(limit, 1)
        elif keyword == "maximum":
            yield toward(limit, 1), limit
        elif keyword == "exclusiveMaximum":
            yield limit, toward(limit, -1)


def _field_cases():
    for config_type, name, required in _CONFIG_TYPES:
        for field in dataclasses.fields(config_type):
            if field.name in _SOLVER_KEYS:
                yield pytest.param(config_type, name, required, field.name, id=f"{name}-{field.name}")


class TestConfigFields:
    """The solver keys are declared once, on the config dataclasses."""

    def test_schema_solver_section_is_the_documented_keys(self):
        solver = harness.CONFIG_SCHEMA["properties"]["solver"]["properties"]
        assert solver == {"name": {"enum": ["primal", "pure_newton_local", "dual", "accelerated"]}, **_SOLVER_KEYS}

    def test_library_only_fields_are_not_config_keys(self):
        solver = harness.CONFIG_SCHEMA["properties"]["solver"]["properties"]
        assert {"f_star_ref", "strict", "record_diagnostics"}.isdisjoint(solver)

    def test_every_documented_key_is_a_field_of_a_config_type(self):
        fields = {f.name for config_type, *_ in _CONFIG_TYPES for f in dataclasses.fields(config_type)}
        assert set(_SOLVER_KEYS) <= fields

    def test_enums_and_flags_come_from_the_code(self):
        properties = harness.CONFIG_SCHEMA["properties"]
        flags = set().union(*(solver.verifiers for solver in harness._SOLVERS.values()))
        assert set(properties["verify"]["properties"]) == flags
        assert properties["solver"]["properties"]["name"]["enum"] == list(harness._SOLVERS)
        assert properties["problem"]["properties"]["kind"]["enum"] == list(KINDS)

    @pytest.mark.parametrize("config_type, name, required, key", _field_cases())
    def test_bounds_enforced_by_schema_and_dataclass(self, config_type, name, required, key):
        def config(value):
            return {"schema_version": 1, "problem": {"kind": "logistic"}, "solver": {"name": name, key: value}}

        fragment = _SOLVER_KEYS[key]
        if fragment["type"] == "boolean":  # no bound; the dataclass checks no type
            validate_config(config(True))
            with pytest.raises(RunConfigError):
                validate_config(config(1))
            return
        edges = list(_bound_edges(fragment))
        assert edges, f"{key} has no bound"
        for outside, inside in edges + [(math.nan, None)]:  # NaN is outside every bound
            with pytest.raises(RunConfigError):
                validate_config(config(outside))
            with pytest.raises(ValueError, match=key):
                config_type(**{**required, key: outside})
            if inside is not None:
                validate_config(config(inside))
                assert getattr(config_type(**{**required, key: inside}), key) == inside

    def test_none_defaults_are_not_checked(self):
        assert PrimalConfig(sigma=None, rel_accuracy=None).sigma is None
        assert AccelConfig(distance_bound=1.0, gamma=None, a0=None).gamma is None

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("primal", "sigma_min", 1e-12),
            ("primal", "record_diagnostics", True),
            ("dual", "max_inner", 50),
            ("accelerated", "dual_max_outer", 200),
            ("accelerated", "dual_max_inner", 50),
        ],
        ids=["sigma_min", "record_diagnostics", "max_inner", "dual_max_outer", "dual_max_inner"],
    )
    def test_a_removed_solver_key_is_refused(self, tmp_path, capsys, name, key, value):
        # each took one value in every caller and is now a constant;
        # record_diagnostics is library-only, turned on by local_quadratic
        config = {"schema_version": 1, "problem": {"kind": "logistic", "n": 6, "m": 30, "seed": 4}}
        config["solver"] = {"name": name, key: value}
        with pytest.raises(RunConfigError, match=key):
            run_solve(config, tmp_path / "run")
        assert not (tmp_path / "run").exists()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "cli")]) == 3
        assert not (tmp_path / "cli").exists()
        assert "Traceback" not in capsys.readouterr().err
        config.update(solver={"name": "primal"}, verify={"local_quadratic": True})
        run_solve(config, tmp_path / "diagnosed")
        rows = read_primal_trace(tmp_path / "diagnosed" / "trace.csv")
        assert len(rows) > 1 and all(np.isfinite(row.lam) and np.isfinite(row.eta) for row in rows)


class TestRunSolve:
    @pytest.mark.parametrize(
        "solver, rejected",
        [
            ({"name": "dual", "sigma": 123, "adaptive": True, "max_iters": 1}, "adaptive"),
            ({"name": "primal", "max_outer": 1, "qsc_constant": 99}, "max_outer"),
            ({"name": "pure_newton_local", "gamma": 0.5}, "gamma"),
            ({"name": "accelerated", "grad_tol": 1e-8}, "grad_tol"),
        ],
    )
    def test_key_the_solver_does_not_take_rejected(self, tmp_path, solver, rejected):
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 4, "m": 20, "seed": 3},
            "solver": solver,
        }
        with pytest.raises(RunConfigError, match=rejected):
            run_solve(config, tmp_path / "out")

    @pytest.mark.parametrize(
        "solver, verify, rejected",
        [
            ({"name": "primal"}, {"dual_guarantee": True}, "dual_guarantee"),
            ({"name": "pure_newton_local"}, {"accel_rate": True}, "accel_rate"),
            ({"name": "dual"}, {"per_step": True, "dual_rate": True}, "per_step"),
            ({"name": "accelerated", "rel_accuracy": 1e-6}, {"rate_fit": True}, "rate_fit"),
        ],
    )
    def test_verify_flag_without_a_check_rejected(self, tmp_path, monkeypatch, solver, verify, rejected):
        def no_reference(*args, **kwargs):
            raise AssertionError("a reference solve ran for a rejected config")

        monkeypatch.setattr(harness, "compute_reference", no_reference)
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 4, "m": 20, "seed": 3},
            "solver": solver,
            "verify": verify,
        }
        with pytest.raises(RunConfigError, match=rejected):
            run_solve(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_verify_flag_turned_off_is_accepted(self, tmp_path):
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 4, "m": 20, "seed": 3},
            "solver": {"name": "primal", "grad_tol": 1e-8},
            "verify": {"dual_guarantee": False},
        }
        report = run_solve(config, tmp_path)
        assert report["success"] and report["reference"] is None

    @pytest.mark.parametrize(
        "solver",
        [{"name": "pure_newton_local"}, {"name": "primal", "sigma": 0.0}],
        ids=["pure_newton_local", "primal-sigma-0"],
    )
    def test_box_without_strong_convexity_rejected(self, tmp_path, solver):
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 6, "m": 30, "seed": 4},
            "composite": _BOX,
            "solver": solver,
        }
        with pytest.raises(RunConfigError, match="sigma > 0"):
            run_solve(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_box_with_a_quadratic_term_needs_no_sigma(self):
        # psi's own quadratic makes the box model strongly convex at sigma = 0
        o = generate_synthetic("logistic", n=6, m=30, seed=4)
        psi = CompositeTerm.box(np.full(6, -0.3), np.full(6, 0.3)).with_quadratic(np.zeros(6), 0.5)
        harness._SOLVERS["pure_newton_local"].check_instance({"sigma": 0.0}, o, psi)
        res = solve_primal(o, psi, np.zeros(6), PrimalConfig(sigma=0.0, grad_tol=1e-8))
        assert res.status.value == "grad_tol_reached"

    @pytest.mark.parametrize(
        "solver",
        [
            {"name": "pure_newton_local", "sigma": 0.5},
            {"name": "primal", "sigma": 0.0, "adaptive": True},
            {"name": "primal"},
        ],
        ids=["pure_newton_local-sigma", "adaptive", "primal-default-sigma"],
    )
    def test_box_with_positive_sigma_runs(self, tmp_path, solver):
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 6, "m": 30, "seed": 4},
            "composite": _BOX,
            "solver": {**solver, "grad_tol": 1e-8},
        }
        assert run_solve(config, tmp_path)["success"]

    def test_quadratic_primal_end_to_end(self, tmp_path):
        config = {
            "schema_version": 1,
            "problem": {"kind": "quadratic", "n": 5, "seed": 0},
            "solver": {"name": "primal", "sigma": 0.0, "grad_tol": 1e-10},
        }
        report = run_solve(config, tmp_path)
        assert report["success"]
        assert report["iterations"] == 1
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "report.json").exists()
        persisted = json.loads((tmp_path / "report.json").read_text())
        assert persisted["status"] == "grad_tol_reached"
        assert persisted["oracle_calls"]["hessian"] >= 1

    def test_accelerated_with_auto_reference(self, tmp_path):
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 8, "m": 40, "seed": 7},
            "solver": {"name": "accelerated", "rel_accuracy": 1e-6},
            "verify": {"accel_potential": True, "accel_rate": True},
        }
        report = run_solve(config, tmp_path)
        assert report["success"]
        assert report["reference"] is not None
        assert report["verification"]["accel_potential"]["passed"]
        assert report["verification"]["accel_rate"]["passed"]

    @pytest.mark.parametrize("strict", [False, True])
    def test_accelerated_small_distance_bound_message(self, tmp_path, strict):
        # logistic M = 1: R = 0.5 is below 2^(3/2)/M
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 8, "m": 40, "seed": 7},
            "solver": {"name": "accelerated", "rel_accuracy": 1e-6, "distance_bound": 0.5, "max_outer": 3},
        }
        if strict:
            with pytest.raises(ParameterError, match=r"below 2\^\(3/2\)/M"):
                run_solve(config, tmp_path, strict=True)
            return
        run_solve(config, tmp_path)
        persisted = json.loads((tmp_path / "report.json").read_text())
        assert "R=0.5 is below 2^(3/2)/M=2.82843" in persisted["parameter_warning"]

    def test_dual_with_verifiers(self, tmp_path):
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 8, "m": 40, "seed": 7},
            "solver": {"name": "dual", "qsc_constant": 1.0, "grad_tol": 1e-8},
            "verify": {"dual_guarantee": True, "dual_rate": True, "inner_quadratic": True},
        }
        report = run_solve(config, tmp_path)
        assert report["success"]
        assert report["verification"]["dual_guarantee"]["passed"]
        assert report["verification"]["inner_quadratic"]["passed"]
        # the rate verdict is written next to the two checks it combines
        rate = json.loads((tmp_path / "report.json").read_text())["verification"]["dual_rate"]
        assert rate["passed"] is (rate["envelope_passed"] and rate["oracle_calls_passed"]) is True

    def test_report_checks_reproducible_from_trace(self, tmp_path):
        # re-running the per-step checks on the persisted CSV gives the same verdicts
        from qscnewton.primal import read_primal_trace

        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 8, "m": 40, "seed": 7},
            "solver": {"name": "primal", "sigma": 1.0, "grad_tol": 1e-9},
        }
        report = run_solve(config, tmp_path)
        rows = read_primal_trace(tmp_path / "trace.csv")
        recheck = check_primal_trace(rows)
        assert recheck.passed == report["verification"]["per_step"]["passed"]
        assert recheck.steps == report["verification"]["per_step"]["steps"]

    def test_pure_newton_local_solver_name(self, tmp_path):
        config = {
            "schema_version": 1,
            "problem": {"kind": "quadratic", "n": 4, "seed": 5},
            "solver": {"name": "pure_newton_local", "grad_tol": 1e-10},
        }
        report = run_solve(config, tmp_path)
        assert report["success"]


_REPORT_KEYS = {
    "schema_version",
    "config",
    "status",
    "success",
    "iterations",
    "oracle_calls",
    "final_grad_norm",
    "final_f",
    "reference",
    "final_gap",
    "verification",
    "wall_time_s",
}
_PRIMAL_HEADER = "k,F,g,sigma,beta,step_len,progress,retries,lambda,eta"
_DUAL_HEADER = "k,t,s_norm,threshold,g_k,a_next,g_next,F_next"
_BOX = {"kind": "box", "lower": -0.3, "upper": 0.3}


class TestOutputLayout:
    """The documented trace.csv header and report.json keys of every solver."""

    @pytest.mark.parametrize(
        "solver, composite, header, extras",
        [
            (
                {"name": "primal", "grad_tol": 1e-8},
                None,
                _PRIMAL_HEADER,
                {"step_computations", "observed_diameter"},
            ),
            (
                {"name": "pure_newton_local", "grad_tol": 1e-8},
                None,
                _PRIMAL_HEADER,
                {"step_computations", "observed_diameter"},
            ),
            ({"name": "dual", "grad_tol": 1e-8}, None, _DUAL_HEADER, {"total_inner", "qsc_used"}),
            ({"name": "dual", "grad_tol": 1e-8}, _BOX, _DUAL_HEADER, {"total_inner", "qsc_used"}),
            (
                {"name": "accelerated", "rel_accuracy": 1e-6},
                None,
                "k,A,a,nu,dual_outer,dual_inner,F,v_step_sq",
                {
                    "gamma",
                    "gamma_clamped",
                    "a0",
                    "distance_bound",
                    "total_dual_outer",
                    "total_dual_inner",
                    "parameter_warning",
                },
            ),
        ],
        ids=["primal", "pure_newton_local", "dual", "dual-box", "accelerated"],
    )
    def test_trace_header_and_report_keys(self, tmp_path, solver, composite, header, extras):
        config = {
            "schema_version": 1,
            "problem": {"kind": "logistic", "n": 4, "m": 20, "seed": 3},
            "solver": solver,
        }
        if composite is not None:
            config["composite"] = composite
        report = run_solve(config, tmp_path)
        assert report["success"]
        assert (tmp_path / "trace.csv").read_text().splitlines()[0] == header
        persisted = json.loads((tmp_path / "report.json").read_text())
        assert set(persisted) == _REPORT_KEYS | extras
