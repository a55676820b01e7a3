"""The benchmark's workloads: instances, references, jobs and output checks.

Every workload is a fixed job list made from the run's seed.  A job is one
solve or one certification, called through the library's public API, and
each job's output is checked after the timed phase against values computed
in setup.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qscnewton import dual, harness, oracles, primal
from qscnewton.composite import CompositeTerm
from qscnewton.problems import generate_synthetic
from tracing import CombinatorSpans, TimingOracle, Tracer

GRAD_TOL = 1e-8  # solver stopping tolerance for every solve job
GRAD_SLACK = 2.0  # recomputed ||grad f(x)||_* <= GRAD_SLACK * GRAD_TOL
GAP_TOL = 1e-7  # CLI jobs: F(x) - F* <= GAP_TOL * (1 + |F*|)
ROUNDOFF = 1e-9  # F(x) >= F* - ROUNDOFF * (1 + |F*|); also added to the direct jobs' gap bound
ACCEL_ACCURACY = 1e-8  # rel_accuracy of the accelerated jobs

PRIMAL_SUCCESS = (primal.PrimalStatus.GRAD_TOL_REACHED, primal.PrimalStatus.TARGET_GAP_REACHED)
ZERO = CompositeTerm.zero()


class Context:
    """What a job needs from the runner: oracle wrapping and a scratch dir.

    Untraced, both wrappers return their argument unchanged.
    """

    def __init__(self, workdir: Path, tracer: Tracer | None = None):
        self.workdir = workdir
        self.tracer = tracer

    def oracle(self, base):
        return base if self.tracer is None else TimingOracle(base, self.tracer)

    def combinator(self, wrapped):
        return wrapped if self.tracer is None else CombinatorSpans(wrapped, self.tracer)


@dataclass
class Outcome:
    success: bool  # the solver's status is in its success set
    status: str
    grad_calls: int
    hess_calls: int
    newton_steps: int
    value: object = None  # what the job's check inspects


@dataclass
class Job:
    label: str  # unique within the run, e.g. "logistic-123/dual"
    kind: str  # job class shared across instances, e.g. "logistic/dual"
    run: Callable[[Context], Outcome]
    check: Callable[[Outcome], str | None]  # None when the output is correct


def instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count) % (2**31)]


def _gap_error(f_value: float, f_star: float, allowed: float) -> str | None:
    """F(x) must lie in [F* - roundoff, F* + allowed]."""
    if not math.isfinite(f_value):
        return f"F(x) = {f_value} is not finite (infeasible or diverged)"
    if f_value - f_star > allowed:
        return f"F(x) - F* = {f_value - f_star:.3e} above the allowed {allowed:.3e}"
    if f_value - f_star < -ROUNDOFF * (1.0 + abs(f_star)):
        return f"F(x) = {f_value:.17g} below the reference F* = {f_star:.17g}"
    return None


# ---------------------------------------------------------------------------
# direct solves (gram-tall)
# ---------------------------------------------------------------------------


def _direct_job(label, kind, base, reference, solver) -> Job:
    x0 = np.zeros(base.dim)
    m_const = base.qsc_constant

    def run(ctx: Context) -> Outcome:
        counting = harness.CountingOracle(ctx.oracle(base))
        if solver == "dual":
            config = dual.DualConfig(qsc_constant=m_const, grad_tol=GRAD_TOL)
            result = dual.solve_dual(counting, ZERO, x0, config)
            success = result.status is dual.DualStatus.GRAD_TOL_REACHED
            steps = result.total_inner
        else:
            if solver == "adaptive":
                config = primal.PrimalConfig(adaptive=True, grad_tol=GRAD_TOL)
            else:
                config = primal.PrimalConfig(sigma=m_const, grad_tol=GRAD_TOL)
            result = primal.solve_primal(counting, ZERO, x0, config)
            success = result.status in PRIMAL_SUCCESS
            steps = result.step_computations
        return Outcome(
            success, result.status.value, counting.calls["gradient"], counting.calls["hessian"], steps, result.x
        )

    def check(outcome: Outcome) -> str | None:
        if not outcome.success:
            return f"status {outcome.status}"
        x = outcome.value
        grad_norm = base.metric.dual_norm(base.gradient(x))
        if not grad_norm <= GRAD_SLACK * GRAD_TOL:
            return f"recomputed gradient norm {grad_norm:.3e} above {GRAD_SLACK:g}*{GRAD_TOL:g}"
        # convexity: F(x) - F* <= ||grad f(x)||_* ||x - x*|| for any minimizer x*
        f_star = reference.f_value
        allowed = grad_norm * base.metric.primal_norm(x - reference.x) + ROUNDOFF * (1.0 + abs(f_star))
        return _gap_error(base.value(x), f_star, allowed)

    return Job(label, kind, run, check)


def _direct_jobs(instances) -> list[Job]:
    """instances: (label, kind, base oracle, solvers) per instance."""
    jobs = []
    for label, kind, base, solvers in instances:
        reference = harness.compute_reference(base, ZERO, np.zeros(base.dim))
        for solver in solvers:
            jobs.append(_direct_job(f"{label}/{solver}", f"{kind}/{solver}", base, reference, solver))
    return jobs


GRAM_TALL_SIZES = {
    "full": dict(n=100, m=2000, logistic_seeds=8, softmax_seeds=4),
    "tiny": dict(n=8, m=80, logistic_seeds=1, softmax_seeds=1),
}


def setup_gram_tall(seed: int, scale: str, ctx: Context) -> list[Job]:
    """Twice as many logistic instances as soft-max ones.

    Sorted by time the job classes run soft-max adaptive, logistic adaptive,
    soft-max primal, logistic primal, soft-max dual, logistic dual.  With
    equal counts the median job fell on the gap between the two primal
    classes, where it swung with single jobs; at 2:1 it falls a quarter of
    the way into the logistic primal class.
    """
    size = GRAM_TALL_SIZES[scale]
    instances = []
    for kind, knobs in (("logistic", {}), ("softmax", {"smoothing": 1.0})):
        for s in instance_seeds(seed, size[f"{kind}_seeds"]):
            base = generate_synthetic(kind, n=size["n"], m=size["m"], seed=s, **knobs)
            instances.append((f"{kind}-{s}", kind, base, ("primal", "adaptive", "dual")))
    return _direct_jobs(instances)


# ---------------------------------------------------------------------------
# CLI solve path (box-accel-cli)
# ---------------------------------------------------------------------------


def _cli_job(label, kind, config, f_star, out_dir: Path) -> Job:
    solver = config["solver"]["name"]
    steps_key = {"primal": "step_computations", "dual": "total_inner", "accelerated": "total_dual_inner"}[solver]

    def run(ctx: Context) -> Outcome:
        report = harness.run_solve(config, out_dir)
        calls = report["oracle_calls"]
        return Outcome(
            bool(report["success"]), report["status"], calls["gradient"], calls["hessian"], report[steps_key], report
        )

    def check(outcome: Outcome) -> str | None:
        if not outcome.success:
            return f"status {outcome.status}"
        report = outcome.value
        for name, entry in report["verification"].items():
            if entry.get("passed") is not True:
                return f"run_solve verification {name} did not pass"
        # run_solve reports F(x) = f(x) + psi(x); psi is +inf off the box
        return _gap_error(float(report["final_f"]), f_star, GAP_TOL * (1.0 + abs(f_star)))

    return Job(label, kind, run, check)


BOX_ACCEL_SIZES = {
    "full": dict(accel_n=30, accel_m=300, log_n=100, log_m=1000, scale_n=100, seeds=9),
    "tiny": dict(accel_n=4, accel_m=30, log_n=6, log_m=40, scale_n=5, seeds=1),
}


def setup_box_accel_cli(seed: int, scale: str, ctx: Context) -> list[Job]:
    """References go through `run_reference` into the run's private
    QSC_CACHE_DIR, so every `run_solve` job below finds its reference cached."""
    size = BOX_ACCEL_SIZES[scale]
    jobs: list[Job] = []
    ref_dir = ctx.workdir / "references"
    for s in instance_seeds(seed, size["seeds"]):
        cases = []
        for mu in (1.0, 0.3, 0.1):
            problem = {"kind": "softmax", "n": size["accel_n"], "m": size["accel_m"], "seed": s, "smoothing": mu}
            solver = {"name": "accelerated", "rel_accuracy": ACCEL_ACCURACY}
            verify = {"accel_potential": True, "accel_rate": True}
            cases.append((f"softmax-mu{mu:g}", problem, None, [("accelerated", solver, verify)]))
        box_solvers = [
            ("adaptive", {"name": "primal", "adaptive": True, "grad_tol": GRAD_TOL}, {"per_step": True}),
            ("dual", {"name": "dual", "grad_tol": GRAD_TOL}, {"inner_quadratic": True, "dual_guarantee": True}),
        ]
        cases.append((
            "box-logistic",
            {"kind": "logistic", "n": size["log_n"], "m": size["log_m"], "seed": s},
            {"kind": "box", "lower": -0.3, "upper": 0.3},
            box_solvers,
        ))
        cases.append((
            "box-scaling",
            {"kind": "matrix_scaling", "n": size["scale_n"], "seed": s, "zero_fraction": 0.5, "spread": 1.0},
            {"kind": "box", "lower": -0.5, "upper": 0.5},
            box_solvers,
        ))
        for case, problem, composite_cfg, solvers in cases:
            f_star = None
            for solver_label, solver, verify in solvers:
                config = {
                    "schema_version": 1,
                    "problem": problem,
                    "solver": solver,
                    "verify": verify,
                    "reference": {"auto": True},
                }
                if composite_cfg is not None:
                    config["composite"] = composite_cfg
                if f_star is None:
                    f_star = harness.run_reference(config, ref_dir)["f_star"]
                label = f"{case}-{s}/{solver_label}"
                out_dir = ctx.workdir / "jobs" / label.replace("/", "_")
                jobs.append(_cli_job(label, f"{case}/{solver_label}", config, f_star, out_dir))
    return jobs


# ---------------------------------------------------------------------------
# certification (certify)
# ---------------------------------------------------------------------------

# undersized declared constants that the certifier rejects: a fraction of M
NEGATIVE_CONTROLS = {"exponential": 1 / 8, "matrix_scaling": 1 / 4, "matrix_balancing": 1 / 4}

CERTIFY_SIZES = {
    "full": dict(n=20, m=400, n_quadratic=30, n_scaling=20, n_balancing=30, samples=1000, pairs=200, seeds=4),
    "tiny": dict(n=4, m=40, n_quadratic=4, n_scaling=3, n_balancing=4, samples=40, pairs=10, seeds=1),
}


def _certify_job(label, kind, base, seed, samples, pairs, control=None) -> Job:
    def run(ctx: Context) -> Outcome:
        counting = harness.CountingOracle(ctx.oracle(base))
        oracle = counting
        if control is not None:
            oracle = ctx.combinator(oracles.with_qsc_constant(counting, control * base.qsc_constant))
        results = harness.run_instance_checks(oracle, seed=seed, samples=samples, pairs=pairs)
        return Outcome(True, "checked", counting.calls["gradient"], counting.calls["hessian"], 0, results)

    def check(outcome: Outcome) -> str | None:
        results = outcome.value
        if control is not None:
            if results["qsc"]["passed"]:
                return f"undersized constant M*{control:g} was not rejected"
            return None
        failing = sorted(name for name, res in results.items() if not res["passed"])
        return f"declared constant failed {failing}" if failing else None

    return Job(label, kind, run, check)


def setup_certify(seed: int, scale: str, ctx: Context) -> list[Job]:
    size = CERTIFY_SIZES[scale]
    n, m = size["n"], size["m"]
    families = [
        ("quadratic", size["n_quadratic"], 1, {}),
        ("softmax", n, m, {"smoothing": 1.0}),
        ("logistic", n, m, {}),
        ("exponential", n, m, {}),
        ("matrix_scaling", size["n_scaling"], 1, {}),
        ("matrix_balancing", size["n_balancing"], 1, {}),
    ]
    jobs: list[Job] = []
    for s in instance_seeds(seed, size["seeds"]):
        for kind, dim, rows, knobs in families:
            base = generate_synthetic(kind, n=dim, m=rows, seed=s, **knobs)
            jobs.append(_certify_job(f"{kind}-{s}/declared", f"{kind}/declared", base, s, size["samples"], size["pairs"]))
            if kind in NEGATIVE_CONTROLS:
                jobs.append(_certify_job(
                    f"{kind}-{s}/control", f"{kind}/control", base, s, size["samples"], size["pairs"],
                    control=NEGATIVE_CONTROLS[kind],
                ))
    return jobs


# the setup of each workload, (seed, scale, context) -> job list; why each
# workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS: dict[str, Callable[[int, str, Context], list[Job]]] = {
    "gram-tall": setup_gram_tall,
    "box-accel-cli": setup_box_accel_cli,
    "certify": setup_certify,
}


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
