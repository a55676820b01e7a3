"""A NaN or inf oracle output ends every solver in a typed status.

The probe is an oracle whose value, gradient or Hessian turns non-finite
from its k-th call on.  Each run must return without raising, and must stop
at that evaluation: no oracle call after it, and in particular no jitter
ladder (factorizations) and no adaptive sigma doublings (each one a gradient).
"""

import json

import numpy as np
import pytest

from qscnewton import (
    AccelConfig,
    AccelStatus,
    CompositeTerm,
    DualConfig,
    DualStatus,
    PrimalConfig,
    PrimalStatus,
    SmoothOracle,
    generate_synthetic,
    solve_accelerated,
    solve_dual,
    solve_primal,
)
from qscnewton import harness
from qscnewton import metric as metric_mod
from qscnewton.cli import main
from qscnewton.harness import CountingOracle

ZERO = CompositeTerm.zero()


class NonFiniteAfter(SmoothOracle):
    """Delegates to `base`, except that `method` returns `fill` everywhere
    from its `first_bad`-th call on.  Every value, gradient and Hessian call
    is appended to `events` as (method, bad)."""

    def __init__(self, base, method, first_bad, fill, events):
        super().__init__(base.metric, base.qsc_constant)
        self._base, self._method, self._first_bad, self._fill = base, method, first_bad, fill
        self._calls = 0
        self.events = events

    def _eval(self, method, x):
        out = getattr(self._base, method)(x)
        bad = False
        if method == self._method:
            self._calls += 1
            bad = self._calls >= self._first_bad
        self.events.append((method, bad))
        return np.full_like(out, self._fill) if bad else out

    def value(self, x):
        return self._eval("value", x)

    def gradient(self, x):
        return self._eval("gradient", x)

    def hessian(self, x):
        return self._eval("hessian", x)


@pytest.fixture
def events(monkeypatch):
    """Shared event log; factorizations are logged as ("factor", False)."""
    log = []
    real = metric_mod._cholesky

    def logged(a):
        log.append(("factor", False))
        return real(a)

    monkeypatch.setattr(metric_mod, "_cholesky", logged)
    return log


def _run(solver, oracle):
    n = oracle.dim
    x0 = np.full(n, 0.5)
    if solver == "primal":
        return solve_primal(oracle, ZERO, x0, PrimalConfig(grad_tol=1e-12))
    if solver == "adaptive":
        return solve_primal(oracle, ZERO, x0, PrimalConfig(adaptive=True, grad_tol=1e-12))
    if solver == "diagnostics":
        # the eta diagnostics read each Hessian before the step does
        return solve_primal(oracle, ZERO, x0, PrimalConfig(record_diagnostics=True, grad_tol=1e-12))
    if solver == "dual":
        return solve_dual(oracle, ZERO, x0, DualConfig(qsc_constant=oracle.qsc_constant, grad_tol=1e-12))
    # a0 overrides the A_0 rule, so no reference value is needed
    return solve_accelerated(oracle, ZERO, x0, AccelConfig(distance_bound=3.0, a0=1.0, rel_accuracy=1e-12))


EXPECTED = {
    "primal": PrimalStatus.NON_FINITE,
    "adaptive": PrimalStatus.NON_FINITE,
    "diagnostics": PrimalStatus.NON_FINITE,
    "dual": DualStatus.NON_FINITE,
    # an inner dual solve's non_finite, or a non-finite F(x_k) of its own
    "accelerated": AccelStatus.NON_FINITE,
}

PROBES = [
    ("gradient", 4, np.nan),  # the ROADMAP probe
    ("hessian", 4, np.nan),
    ("hessian", 2, np.inf),
    ("gradient", 1, np.nan),  # g(x0) itself
    ("value", 3, np.nan),  # the primal's F(x_2), the dual's F(x_3)
]


@pytest.mark.parametrize("solver, method, first_bad, fill", [(solver, *probe) for solver in EXPECTED for probe in PROBES])
def test_stops_at_the_first_bad_evaluation(events, solver, method, first_bad, fill):
    base = generate_synthetic("logistic", n=6, m=40, seed=2)
    counting = CountingOracle(NonFiniteAfter(base, method, first_bad, fill, events))
    result = _run(solver, counting)
    assert result.status is EXPECTED[solver]
    assert counting.calls[method] == first_bad
    first = events.index((method, True))
    assert events[first + 1 :] == []


@pytest.mark.parametrize("solver", ["primal", "adaptive", "dual"])
def test_non_finite_start_leaves_an_empty_trace(solver):
    base = generate_synthetic("logistic", n=6, m=40, seed=2)
    counting = CountingOracle(NonFiniteAfter(base, "gradient", 1, np.nan, []))
    result = _run(solver, counting)
    assert result.trace == []
    assert np.isnan(result.final_grad_norm)
    assert counting.calls == {"value": 0, "gradient": 1, "hessian": 0, "hessian_vector": 0, "third_order": 0}


def test_completed_steps_keep_their_rows():
    base = generate_synthetic("logistic", n=6, m=40, seed=2)
    result = _run("primal", NonFiniteAfter(base, "gradient", 4, np.nan, []))
    # g(x0) and two steps' g(x+) were good; the third step's g(x+) was the
    # bad one, so its origin is the terminal row, with NaN step fields
    assert result.iterations == 2
    assert [row.k for row in result.trace] == [0, 1, 2]
    assert np.isnan(result.trace[-1].sigma)
    np.testing.assert_array_equal(result.x, result.trace[-1].x)


@pytest.mark.parametrize("solver", ["primal", "dual"])
@pytest.mark.parametrize("first_bad", [1, 4])
def test_cli_reports_non_finite_and_exits_two(tmp_path, monkeypatch, capsys, solver, first_bad):
    real_build = harness.build_problem
    monkeypatch.setattr(
        harness,
        "build_problem",
        lambda cfg: NonFiniteAfter(real_build(cfg), "gradient", first_bad, np.nan, []),
    )
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "problem": {"kind": "logistic", "n": 6, "m": 40, "seed": 2},
                "solver": {"name": solver},
            }
        )
    )
    out = tmp_path / "o"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "non_finite"
    assert report["success"] is False
    assert "status=non_finite" in capsys.readouterr().err


def test_accelerated_stops_at_its_own_non_finite_value():
    base = generate_synthetic("logistic", n=6, m=40, seed=2)
    config = AccelConfig(distance_bound=3.0, a0=1.0, rel_accuracy=1e-12, max_outer=1)
    clean = solve_accelerated(base, ZERO, np.full(6, 0.5), config)
    # F(x_0), one F per outer iteration of the first dual solve, then F(x_1)
    first_bad = 2 + clean.trace[1].dual_outer
    events = []
    result = _run("accelerated", NonFiniteAfter(base, "value", first_bad, np.nan, events))
    assert result.status is AccelStatus.NON_FINITE
    assert len(result.trace) == 1  # x_1 gets no row
    assert events[-1] == ("value", True)


def test_cli_reports_a_non_finite_accelerated_start(tmp_path, monkeypatch, capsys):
    config = {
        "schema_version": 1,
        "problem": {"kind": "logistic", "n": 6, "m": 40, "seed": 2},
        "solver": {"name": "accelerated"},
    }
    # the reference is cached from the clean problem; the solve then sees
    # F(x_0) = NaN, and its empty trace still makes a report
    harness.run_reference(config, tmp_path / "ref")
    real_build = harness.build_problem
    monkeypatch.setattr(
        harness, "build_problem", lambda cfg: NonFiniteAfter(real_build(cfg), "value", 1, np.nan, [])
    )
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**config, "verify": {"accel_potential": True, "accel_rate": True}}))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "non_finite"
    assert report["iterations"] == 0
    assert report["verification"] == {}
    assert "status=non_finite" in capsys.readouterr().err
