"""Experiment harness: configs, reference solutions, verification suites, reports.

A run is described by a versioned JSON config (`CONFIG_SCHEMA`, unknown keys
rejected).  Each key is declared once, by the code that consumes it: the
solver section's keys and bounds are the `param` fields of the solver config
dataclasses, the solver names and verify flags are those of `_SOLVERS`, and
the problem kinds are `problems.KINDS`.  An integer must be a JSON integer
(2.0 is not one) and a number must be finite.

The harness builds the instance, computes a cached reference solution when
one is needed, runs the requested solver, executes the enabled verification
checks, and persists a trace CSV plus a self-contained JSON report.
Reference solutions are content-addressed by the problem section of the
config; the cache directory honors the ``QSC_CACHE_DIR`` environment
variable.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import inspect
import json
import math
import numbers
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

from . import accelerated as accel_mod
from . import dual as dual_mod
from . import primal as primal_mod
from .composite import CompositeTerm
from .metric import Metric
from .oracles import (
    SmoothOracle,
    add_oracles,
    check_bounds,
    check_gradient,
    check_hessian,
    check_function_bounds,
    check_gradient_bound,
    check_hessian_stability,
    check_qsc,
    chunk_size,
    config_params,
    evaluate,
    param,
    verdict,
    with_qsc_constant,
)
from .problems import (
    KINDS,
    DimensionError,
    MatrixBalancingObjective,
    MatrixScalingObjective,
    ParseError,
    QuadraticObjective,
    SeparableObjective,
    SoftMaxObjective,
    generate_synthetic,
    load_design_matrix,
    load_matrix,
)


class RunConfigError(ValueError):
    """Config file is malformed or violates the schema."""


class ReferenceNotConvergedError(RuntimeError):
    """The reference solve stopped above its gradient tolerance."""

    def __init__(self, grad_norm: float):
        super().__init__(f"reference solve stalled at gradient norm {grad_norm:.3e}")
        self.grad_norm = grad_norm


class InsufficientDataError(ValueError):
    """Too few usable iterations for a rate fit."""


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise RunConfigError(f"cannot read config {path}: {exc}") from exc
    validate_config(config)
    return config


def _raise_first_error(validator, instance, what: str) -> None:
    """Raise the error `jsonschema.validate` would (with `_Validator`'s
    types), as a `RunConfigError`."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(instance))
    if error is not None:
        raise RunConfigError(f"{what}: {error.message}") from error


def validate_config(config: dict) -> None:
    _raise_first_error(_CONFIG_VALIDATOR, config, "invalid config")


# the problem keys `generate_synthetic` takes by name, with its defaults
_SYNTHETIC_PARAMETERS = inspect.signature(generate_synthetic).parameters
_SYNTHETIC_KEYS = frozenset(_SYNTHETIC_PARAMETERS) - {"kind"}


def build_problem(problem_cfg: dict) -> SmoothOracle:
    """Instantiate the oracle described by the config's problem section."""
    kind = problem_cfg["kind"]
    data_path = problem_cfg.get("data_path")
    if data_path is not None:
        try:
            if kind in ("logistic", "exponential"):
                rows, offsets = load_design_matrix(data_path)
                oracle = SeparableObjective(rows, offsets, kind)
            elif kind == "softmax":
                rows, offsets = load_design_matrix(data_path)
                smoothing = problem_cfg.get("smoothing", _SYNTHETIC_PARAMETERS["smoothing"].default)
                oracle = SoftMaxObjective(rows, offsets, smoothing)
            elif kind == "matrix_scaling":
                oracle = MatrixScalingObjective(load_matrix(data_path))
            elif kind == "matrix_balancing":
                oracle = MatrixBalancingObjective(load_matrix(data_path))
            else:
                raise RunConfigError(f"kind {kind!r} does not support data_path")
        except (ParseError, DimensionError) as exc:
            raise RunConfigError(f"cannot load {data_path}: {exc}") from exc
    else:
        synthetic = {key: value for key, value in problem_cfg.items() if key in _SYNTHETIC_KEYS}
        try:
            oracle = generate_synthetic(kind, **synthetic)
        except ValueError as exc:
            raise RunConfigError(f"invalid problem: {exc}") from exc
    reg = problem_cfg.get("quad_regularization", 0.0)
    if reg > 0:
        bump = QuadraticObjective(
            reg * oracle.metric.matrix, np.zeros(oracle.dim), metric=oracle.metric
        )
        oracle = add_oracles(oracle, bump)
    if "qsc_override" in problem_cfg:
        oracle = with_qsc_constant(oracle, problem_cfg["qsc_override"])
    return oracle


def _box_bound(composite_cfg: dict, name: str, default: float, dim: int) -> np.ndarray:
    """A box bound as an array: a number for every coordinate, or one entry
    per coordinate, where an array may hold +-inf for a one-sided box.  A
    bool or null entry is not a number (numpy would read true as 1.0)."""
    bound = composite_cfg.get(name, default)
    entries = bound if isinstance(bound, list) else [bound]
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entries):
        raise RunConfigError(f"box bound {name!r} holds a non-number: {bound!r}")
    return np.full(dim, bound, dtype=float) if np.isscalar(bound) else np.asarray(bound, float)


def build_composite(composite_cfg: dict | None, dim: int) -> CompositeTerm:
    if composite_cfg is None or composite_cfg["kind"] == "zero":
        return CompositeTerm.zero()
    lower = _box_bound(composite_cfg, "lower", -np.inf, dim)
    upper = _box_bound(composite_cfg, "upper", np.inf, dim)
    if lower.shape != (dim,) or upper.shape != (dim,):
        raise RunConfigError(f"box bounds have shapes {lower.shape} and {upper.shape}, problem has {dim}")
    try:
        return CompositeTerm.box(lower, upper)
    except ValueError as exc:
        raise RunConfigError(f"invalid box: {exc}") from exc


def build_x0(x0_cfg, dim: int, psi: CompositeTerm) -> np.ndarray:
    if x0_cfg is None or x0_cfg == "zeros":
        x0 = np.zeros(dim)
    else:
        x0 = np.asarray(x0_cfg, dtype=float)
        if x0.shape != (dim,):
            raise RunConfigError(f"x0 has dimension {x0.shape}, problem has {dim}")
    return psi.project(x0)


def _points(x) -> int:
    """1 for a point of shape (n,), k for a stack of k points."""
    return math.prod(np.asarray(x).shape[:-1])


class CountingOracle(SmoothOracle):
    """Delegating wrapper that counts value/gradient/hessian/hessian_vector
    and qsc_forms calls, the last under "third_order".  A stacked value,
    gradient or hessian call counts one per point, so the counts do not
    depend on how the points were stacked; a stacked hessian_vector or
    qsc_forms call counts once, and is passed on whole: the products the
    default makes inside it are not counted.  Each product of a
    Hessian-free step is a single-point hessian_vector call, so it counts
    one."""

    def __init__(self, base: SmoothOracle):
        super().__init__(base.metric, base.qsc_constant)
        self._base = base
        self.calls = {"value": 0, "gradient": 0, "hessian": 0, "hessian_vector": 0, "third_order": 0}

    @property
    def stacks(self):
        return self._base.stacks

    @property
    def costs(self):
        return self._base.costs

    def value(self, x):
        self.calls["value"] += _points(x)
        return self._base.value(x)

    def gradient(self, x):
        self.calls["gradient"] += _points(x)
        return self._base.gradient(x)

    def hessian(self, x):
        self.calls["hessian"] += _points(x)
        return self._base.hessian(x)

    def hessian_vector(self, x, u):
        self.calls["hessian_vector"] += 1
        return self._base.hessian_vector(x, u)

    def qsc_forms(self, x, u, v):
        self.calls["third_order"] += 1
        return self._base.qsc_forms(x, u, v)


# ---------------------------------------------------------------------------
# reference solutions
# ---------------------------------------------------------------------------


@dataclass
class ReferenceSolution:
    x: np.ndarray
    f_value: float
    grad_norm: float
    iterations: int
    from_cache: bool


def _cache_dir() -> Path:
    override = os.environ.get("QSC_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "qscnewton"


def reference_cache_key(problem_cfg: dict, composite_cfg, x0_cfg, grad_tol, max_iters) -> str:
    payload = json.dumps(
        {
            "problem": problem_cfg,
            "composite": composite_cfg,
            "x0": x0_cfg if isinstance(x0_cfg, (str, type(None))) else list(x0_cfg),
            "grad_tol": grad_tol,
            "max_iters": max_iters,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# the reference solve's defaults, which `_config_reference` also reads: it
# calls `compute_reference` through the module, where a replacement (a
# tracing wrapper) may have none
_REFERENCE_GRAD_TOL = 1e-12
_REFERENCE_MAX_ITERS = 10_000


def compute_reference(
    oracle: SmoothOracle,
    psi: CompositeTerm,
    x0: np.ndarray,
    grad_tol: float = _REFERENCE_GRAD_TOL,
    max_iters: int = _REFERENCE_MAX_ITERS,
    cache_key: str | None = None,
) -> ReferenceSolution:
    """High-accuracy solve by adaptive primal Newton, cached when keyed.

    Raises `ReferenceNotConvergedError` when the gradient norm stays above
    `grad_tol` within the iteration budget.
    """
    if cache_key is not None:
        path = _cache_dir() / f"{cache_key}.npz"
        if path.exists():
            data = np.load(path)
            return ReferenceSolution(
                x=data["x"],
                f_value=float(data["f_value"]),
                grad_norm=float(data["grad_norm"]),
                iterations=int(data["iterations"]),
                from_cache=True,
            )
    config = primal_mod.PrimalConfig(
        adaptive=True, sigma0=1.0, grad_tol=grad_tol, max_iters=max_iters
    )
    result = primal_mod.solve_primal(oracle, psi, x0, config)
    if result.status is not primal_mod.PrimalStatus.GRAD_TOL_REACHED:
        raise ReferenceNotConvergedError(result.final_grad_norm)
    reference = ReferenceSolution(
        x=result.x,
        f_value=oracle.value(result.x) + psi.value(result.x, oracle.metric),
        grad_norm=result.final_grad_norm,
        iterations=result.iterations,
        from_cache=False,
    )
    if cache_key is not None:
        directory = _cache_dir()
        directory.mkdir(parents=True, exist_ok=True)
        # write-then-rename so concurrent benchmark cells never see a torn file
        tmp = directory / f"{cache_key}.{os.getpid()}.tmp.npz"
        np.savez(
            tmp,
            x=reference.x,
            f_value=reference.f_value,
            grad_norm=reference.grad_norm,
            iterations=reference.iterations,
        )
        os.replace(tmp, directory / f"{cache_key}.npz")
    return reference


# ---------------------------------------------------------------------------
# trace analysis
# ---------------------------------------------------------------------------

_RATE_MIN_POINTS = 10  # iterations `fit_linear_rate` needs in its window
_PRIMAL_TRACE_SLACK = 1e-8  # of `check_primal_trace`'s progress and length


@dataclass
class RateFit:
    slope: float  # of ln(F_k - F*) against k over the linear window
    r_squared: float
    implied_factor: float  # -1/slope, iterations per e-fold of the gap
    window: int


def fit_linear_rate(f_values, f_star: float) -> RateFit:
    """Least-squares slope of the log-gap over the linear regime.

    The final quadratic burst (successive gap ratio below 0.1) and any
    non-positive gaps are excluded from the window.
    """
    gaps = np.asarray(f_values, dtype=float) - f_star
    window = len(gaps)
    for i in range(len(gaps)):
        if gaps[i] <= 0:
            window = i
            break
        if i + 1 < len(gaps) and gaps[i + 1] > 0 and gaps[i + 1] / gaps[i] < 0.1:
            window = i + 1
            break
    if window < _RATE_MIN_POINTS:
        raise InsufficientDataError(
            f"only {window} usable iterations in the linear window, need {_RATE_MIN_POINTS}"
        )
    ks = np.arange(window, dtype=float)
    ys = np.log(gaps[:window])
    slope, intercept = np.polyfit(ks, ys, 1)
    fitted = slope * ks + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        slope=float(slope),
        r_squared=r2,
        implied_factor=float(-1.0 / slope) if slope < 0 else math.inf,
        window=window,
    )


def observed_diameter(points, metric: Metric, extra=None) -> float:
    """Max pairwise metric distance among recorded iterates (plus an optional
    reference point).  A lower estimate of the sublevel-set diameter; 0 with
    no points."""
    pts = [np.asarray(p, dtype=float) for p in points]
    if extra is not None:
        pts.append(np.asarray(extra, dtype=float))
    if not pts:
        return 0.0
    stack = np.stack(pts)
    gram = stack @ metric.matrix @ stack.T
    diag = np.diag(gram)
    sq = diag[:, None] + diag[None, :] - 2.0 * gram
    return float(np.sqrt(max(sq.max(), 0.0)))


@dataclass
class RateEnvelopeReport:
    """Advisory check of the two-term geometric envelope on the gaps.

    The true sublevel diameter is not computable, so the check runs with the
    observed-iterate lower estimate and is a warning signal, never a hard
    failure: `holds` False with `advisory` True means the trace outran the
    estimate, not that the method misbehaved.
    """

    holds: bool
    advisory: bool
    worst_slack: float
    diameter_estimate: float


def check_primal_rate_envelope(
    trace, f_star: float, g0: float, qsc_constant: float, diameter: float
) -> RateEnvelopeReport:
    """Check ``gap_k <= exp(-k/(8 M D^)) gap_0 + exp(-k/4) g_0 D^`` per iterate."""
    gap0 = trace[0].f_value - f_star
    margins = []
    for k, row in enumerate(trace):
        if qsc_constant > 0 and diameter > 0:
            first = math.exp(-k / (8.0 * qsc_constant * diameter)) * gap0
        else:
            first = gap0
        bound = first + math.exp(-k / 4.0) * g0 * diameter
        margins.append(bound * (1.0 + 1e-9) - (row.f_value - f_star))
    holds, worst = verdict(margins)
    return RateEnvelopeReport(
        holds=holds, advisory=True, worst_slack=worst, diameter_estimate=diameter
    )


@dataclass
class PerStepReport:
    passed: bool
    steps: int
    monotone: bool
    progress_violations: int
    step_bound_violations: int
    worst_progress_slack: float
    worst_step_slack: float


def check_primal_trace(trace) -> PerStepReport:
    """Scalar per-step guarantee checks on a primal trace (recomputable from CSV).

    Checks, for every step k with beta_k > 0: monotone F (1e-10 slack), the
    progress inequality ``progress_k >= g_{k+1}^2 / (2 beta_k)``, and the
    step-length bound ``||x_{k+1} - x_k|| <= g_k / beta_k``.  A pure Newton
    step (beta = 0) has none of these guarantees and is not checked here:
    `check_local_quadratic` is its check.  The final row, whose beta is NaN,
    is no step.  Each of the three is judged by `verdict`.
    """
    steps = [(row, nxt) for row, nxt in zip(trace, trace[1:]) if row.beta > 0]
    descent = [row.f_value + 1e-10 - nxt.f_value for row, nxt in steps]
    progress = [row.progress - nxt.grad_norm**2 / (2.0 * row.beta) + _PRIMAL_TRACE_SLACK for row, nxt in steps]
    length = [row.grad_norm / row.beta - row.step_length + _PRIMAL_TRACE_SLACK for row, _ in steps]
    monotone = verdict(descent)[0]
    progress_ok, worst_progress = verdict(progress)
    length_ok, worst_step = verdict(length)
    return PerStepReport(
        passed=monotone and progress_ok and length_ok,
        steps=len(steps),
        monotone=monotone,
        progress_violations=sum(not margin >= 0 for margin in progress),
        step_bound_violations=sum(not margin >= 0 for margin in length),
        worst_progress_slack=worst_progress,
        worst_step_slack=worst_step,
    )


# ---------------------------------------------------------------------------
# instance verification suite
# ---------------------------------------------------------------------------


def sample_pairs(oracle: SmoothOracle, rng, radius: float, x_scale: float = 1.0):
    n = oracle.dim
    x = x_scale * rng.standard_normal(n)
    direction = rng.standard_normal(n)
    direction /= max(oracle.metric.primal_norm(direction), 1e-300)
    y = x + rng.uniform(0.0, radius) * direction
    return x, y


@dataclass
class InstanceChecksConfig:
    """The sampling of `run_instance_checks`: the config's `instance_checks`
    section."""

    seed: int = param("integer", 0)
    samples: int = param("integer", 1000, minimum=1)
    pairs: int = param("integer", 200, minimum=1)
    x_scale: float = param("number", 1.0, exclusiveMinimum=0)
    pair_radius: float = param("number", 2.0, exclusiveMinimum=0)

    __post_init__ = check_bounds


def run_instance_checks(oracle: SmoothOracle, **sampling) -> dict:
    """Full oracle verification: FD derivative checks, the sampled
    third-derivative certificate, and the three smoothness-bound checks.

    `sampling` holds `InstanceChecksConfig`'s fields by name; a value
    outside its bound is a `ValueError`.  Returns a dict of named results,
    each with a ``passed`` flag and details.
    """
    config = InstanceChecksConfig(**sampling)
    rng = np.random.default_rng(config.seed)
    results: dict[str, dict] = {}

    # NaN propagates: a NaN error fails its check
    fd_points = [config.x_scale * rng.standard_normal(oracle.dim) for _ in range(5)]
    grad_err = float(np.max([check_gradient(oracle, x) for x in fd_points]))
    hess_err = float(np.max([check_hessian(oracle, x) for x in fd_points]))
    results["gradient_fd"] = {"passed": grad_err <= 1e-6, "max_rel_error": grad_err}
    results["hessian_fd"] = {"passed": hess_err <= 1e-5, "max_rel_error": hess_err}

    report = check_qsc(oracle, seed=config.seed, num_samples=config.samples, x_scale=config.x_scale)
    results["qsc"] = {
        "passed": report.passed,
        "samples": report.samples,
        "max_violation": report.max_violation,
        "tolerance": report.tolerance,
    }

    # the checks are looked up here, at call time, so replaced module
    # attributes are the ones that run; each takes the evaluations it needs
    pair_checks = {
        "hessian_stability": (check_hessian_stability, ("hx", "hy")),
        "gradient_bound": (check_gradient_bound, ("hx", "gx", "gy")),
        "function_bounds": (check_function_bounds, ("hx", "gx", "fx", "fy")),
    }
    passed = dict.fromkeys(pair_checks, True)
    worst = dict.fromkeys(pair_checks, math.inf)
    chunk = chunk_size(oracle, 2)
    for lo in range(0, config.pairs, chunk):
        # chunk by chunk, the same stream as drawing each pair in turn
        drawn = [
            sample_pairs(oracle, rng, config.pair_radius, config.x_scale)
            for _ in range(min(chunk, config.pairs - lo))
        ]
        x, y = np.array(drawn).transpose(1, 0, 2)
        k = len(x)
        # each point is evaluated once for all three checks, the chunk's
        # 2k points in one call per method
        points = np.concatenate([x, y])
        h, g, f = (evaluate(oracle, method, points) for method in ("hessian", "gradient", "value"))
        evaluated = {"hx": h[:k], "hy": h[k:], "gx": g[:k], "gy": g[k:], "fx": f[:k], "fy": f[k:]}
        for name, (check, keys) in pair_checks.items():
            ok, margin = check(oracle, x, y, **{key: evaluated[key] for key in keys})
            passed[name] &= bool(ok.all())
            worst[name] = float(np.minimum(worst[name], margin.min()))  # NaN propagates
    for name in pair_checks:
        results[name] = {"passed": bool(passed[name]), "pairs": config.pairs, "worst_margin": worst[name]}
    return results


# ---------------------------------------------------------------------------
# config-driven runs
# ---------------------------------------------------------------------------


def write_trace(trace, path, row_type) -> None:
    """Write solver trace rows as CSV under `row_type.CSV_COLUMNS`.

    `CSV_COLUMNS` maps each header to the attribute written under it.  A row
    with a `csv_records` method writes one line per record it returns (the
    dual trace: one per inner step); any other row writes one line.  Ints
    are written with str, floats with %.17g.
    """
    columns = row_type.CSV_COLUMNS
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in trace:
            for record in row.csv_records() if hasattr(row, "csv_records") else [vars(row)]:
                values = (record[attr] for attr in columns.values())
                writer.writerow(str(v) if isinstance(v, int) else f"{v:.17g}" for v in values)


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _write_report(report: dict, path) -> dict:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_json_safe(report), handle, indent=2)
    return report


def _build_instance(config: dict):
    oracle = build_problem(config["problem"])
    psi = build_composite(config.get("composite"), oracle.dim)
    return oracle, psi, build_x0(config.get("x0"), oracle.dim, psi)


def _config_reference(config: dict, oracle, psi, x0) -> tuple[ReferenceSolution, str]:
    """The cached reference solve for a config, and its cache key."""
    reference_cfg = config.get("reference", {})
    ref_tol = reference_cfg.get("grad_tol", _REFERENCE_GRAD_TOL)
    ref_iters = reference_cfg.get("max_iters", _REFERENCE_MAX_ITERS)
    key = reference_cache_key(
        config["problem"], config.get("composite"), config.get("x0"), ref_tol, ref_iters
    )
    reference = compute_reference(
        oracle, psi, x0, grad_tol=ref_tol, max_iters=ref_iters, cache_key=key
    )
    return reference, key


def _reference_summary(reference: ReferenceSolution) -> dict:
    return {
        "f_star": reference.f_value,
        "grad_norm": reference.grad_norm,
        "iterations": reference.iterations,
        "from_cache": reference.from_cache,
    }


def _primal_config(params, oracle, x0, reference, verify_cfg, strict):
    # the local_quadratic check reads eta per row
    config = primal_mod.PrimalConfig(**params, record_diagnostics=verify_cfg.get("local_quadratic", False))
    if config.rel_accuracy is not None:
        config.f_star_ref = reference.f_value
    return config


def _accel_config(params, oracle, x0, reference, verify_cfg, strict):
    if "distance_bound" not in params:
        dist = oracle.metric.primal_norm(x0 - reference.x)
        floor = 2.0**1.5 / oracle.qsc_constant if oracle.qsc_constant > 0 else 0.0
        params = {**params, "distance_bound": max(dist, floor, 1e-8)}
    return accel_mod.AccelConfig(f_star_ref=reference.f_value, strict=strict, **params)


def _primal_extras(result, oracle, reference):
    diameter = observed_diameter(
        [row.x for row in result.trace if row.x is not None],
        oracle.metric,
        extra=None if reference is None else reference.x,
    )
    return {
        "step_computations": result.step_computations,
        "observed_diameter": {
            "value": diameter,
            "caveat": "lower estimate of the sublevel-set diameter from observed iterates",
        },
    }


def _check_primal_instance(params, oracle, psi) -> None:
    """A box-constrained Newton step needs a strongly convex model: a
    positive sigma (the adaptive search's always is) or a quadratic in psi."""
    if not psi.is_box or psi.quad_weight() > 0 or params.get("adaptive", False):
        return
    sigma = params.get("sigma")
    if (oracle.qsc_constant if sigma is None else sigma) == 0:
        raise RunConfigError(
            "a box composite needs sigma > 0: with sigma = 0 and no quadratic term "
            "the box-constrained Newton model is not strongly convex"
        )


def _primal_rate_fit(result, oracle, reference, extras):
    diameter = extras["observed_diameter"]["value"]
    envelope = check_primal_rate_envelope(
        result.trace, reference.f_value, result.trace[0].grad_norm, oracle.qsc_constant, diameter
    )
    try:
        fit = fit_linear_rate(result.f_values, reference.f_value)
    except InsufficientDataError as exc:
        return {"passed": None, "skipped": str(exc), "envelope": vars(envelope)}
    bound = 8.0 * oracle.qsc_constant * diameter
    return {
        **vars(fit),
        "bound_8MD": bound,
        # advisory: the diameter is only a lower estimate
        "within_bound": bool(fit.implied_factor <= bound) if bound > 0 else True,
        "envelope": vars(envelope),
        "policy": "warn",
    }


@dataclass(frozen=True)
class _Solver:
    """How `run_solve` runs one solver name.

    `solve` looks the solve function up in its module on each call, so a
    replaced module attribute is the one that runs.
    """

    config_type: type  # the solver section's keys must be its `param` fields
    configure: Callable  # (params, oracle, x0, reference, verify_cfg, strict) -> config
    solve: Callable  # (oracle, psi, x0, config) -> result
    row_type: type
    success: tuple
    summary: Callable  # result -> (iterations, final F or None if no row has it, final g)
    extras: Callable  # (result, oracle, reference) -> report fields
    verifiers: dict  # verify flag -> (result, oracle, reference, extras) -> entry or None
    # (params, oracle, psi) -> None; raises RunConfigError for an instance the solver cannot run
    check_instance: Callable = lambda params, oracle, psi: None
    preset: dict = dataclasses.field(default_factory=dict)  # parameters the solver section may override


_PRIMAL = _Solver(
    config_type=primal_mod.PrimalConfig,
    configure=_primal_config,
    solve=lambda *args: primal_mod.solve_primal(*args),
    row_type=primal_mod.PrimalTraceRow,
    success=(primal_mod.PrimalStatus.GRAD_TOL_REACHED, primal_mod.PrimalStatus.TARGET_GAP_REACHED),
    summary=lambda r: (r.iterations, r.trace[-1].f_value if r.trace else None, r.final_grad_norm),
    extras=_primal_extras,
    verifiers={
        "per_step": lambda r, *_: vars(check_primal_trace(r.trace)),
        "rate_fit": lambda r, *rest: _primal_rate_fit(r, *rest) if r.trace else None,
        "local_quadratic": lambda r, o, *_: vars(primal_mod.check_local_quadratic(r.trace, o.qsc_constant)),
    },
    check_instance=_check_primal_instance,
)

_SOLVERS = {
    "primal": _PRIMAL,
    "pure_newton_local": dataclasses.replace(_PRIMAL, preset={"sigma": 0.0}),
    "dual": _Solver(
        config_type=dual_mod.DualConfig,
        configure=lambda params, oracle, *_: dual_mod.DualConfig(
            **{"qsc_constant": max(oracle.qsc_constant, dual_mod.QSC_FLOOR), **params}
        ),
        solve=lambda *args: dual_mod.solve_dual(*args),
        row_type=dual_mod.DualTraceRow,
        success=(dual_mod.DualStatus.GRAD_TOL_REACHED,),
        summary=lambda r: (r.outer_iterations, r.trace[-1].f_next if r.trace else None, r.final_grad_norm),
        extras=lambda r, *_: {"total_inner": r.total_inner, "qsc_used": r.qsc_used},
        verifiers={
            "dual_guarantee": lambda r, o, ref, _: (
                vars(dual_mod.verify_dual_guarantee(r, ref.x, ref.f_value)) if r.trace else None
            ),
            "dual_rate": lambda r, o, ref, _: (
                vars(dual_mod.verify_dual_rate(r, ref.x)) if len(r.trace) >= 3 else None
            ),
            "inner_quadratic": lambda r, *_: vars(dual_mod.check_inner_quadratic(r)) if r.trace else None,
        },
    ),
    "accelerated": _Solver(
        config_type=accel_mod.AccelConfig,
        configure=_accel_config,
        solve=lambda *args: accel_mod.solve_accelerated(*args),
        row_type=accel_mod.AccelTraceRow,
        success=(accel_mod.AccelStatus.TARGET_GAP_REACHED, accel_mod.AccelStatus.ALREADY_CONVERGED),
        summary=lambda r: (r.outer_iterations, r.trace[-1].f_value if r.trace else None, math.nan),
        extras=lambda r, *_: {
            "gamma": r.gamma,
            "gamma_clamped": r.gamma_clamped,
            "a0": r.a0,
            "distance_bound": r.distance_bound,
            "total_dual_outer": r.total_dual_outer,
            "total_dual_inner": r.total_dual_inner,
            "parameter_warning": r.parameter_warning,
        },
        verifiers={
            "accel_potential": lambda r, o, ref, _: (
                vars(accel_mod.verify_accel_potential(r, ref.x, ref.f_value)) if r.trace else None
            ),
            "accel_rate": lambda r, o, ref, _: (
                vars(accel_mod.verify_accel_rate(r, ref.f_value, ref.x)) if r.trace else None
            ),
        },
    ),
}

# verify flags whose checks compare against the reference solution
_REFERENCE_CHECKS = ("rate_fit", "dual_guarantee", "dual_rate", "accel_potential", "accel_rate")


def _solver_properties() -> dict:
    """`name` and each config type's `param` fields; a shared name declares one fragment."""
    properties = {"name": {"enum": list(_SOLVERS)}}
    for solver in _SOLVERS.values():
        for key, fragment in config_params(solver.config_type).items():
            assert properties.setdefault(key, fragment) == fragment, f"{key} is declared twice"
    return properties


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "problem"],
    "properties": {
        "schema_version": {"const": 1},
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(KINDS)},
                "n": {"type": "integer", "minimum": 1},
                "m": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "smoothing": {"type": "number", "exclusiveMinimum": 0},
                "cond": {"type": "number", "minimum": 1},
                "separable": {"type": "boolean"},
                "spread": {"type": "number"},
                "zero_fraction": {"type": "number", "minimum": 0, "maximum": 1},
                "data_path": {"type": "string"},
                "qsc_override": {"type": "number", "minimum": 0},
                "quad_regularization": {"type": "number", "minimum": 0},
            },
        },
        "composite": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["zero", "box"]},
                "lower": {"type": ["number", "array"]},
                "upper": {"type": ["number", "array"]},
            },
        },
        "x0": {"anyOf": [{"const": "zeros"}, {"type": "array", "items": {"type": "number"}}]},
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": _solver_properties(),
        },
        "reference": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "auto": {"type": "boolean"},
                # the reference solve is a primal solve
                **{key: config_params(primal_mod.PrimalConfig)[key] for key in ("grad_tol", "max_iters")},
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                flag: {"type": "boolean"} for solver in _SOLVERS.values() for flag in solver.verifiers
            },
        },
        "instance_checks": {
            "type": "object",
            "additionalProperties": False,
            "properties": config_params(InstanceChecksConfig),
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trace": {"type": "string"},
                "report": {"type": "string"},
            },
        },
    },
}


def _is_integer(checker, instance) -> bool:
    return isinstance(instance, int) and not isinstance(instance, bool)


def _is_number(checker, instance) -> bool:
    if isinstance(instance, bool) or not isinstance(instance, numbers.Real):
        return False
    return isinstance(instance, numbers.Integral) or math.isfinite(instance)


# the one validator class of both schemas.  jsonschema's "integer" admits an
# integral float such as 2.0 and its "number" admits NaN and the infinities,
# which `json.load` parses; here an integer is an int and a number is a
# finite int or float, and neither is a bool
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {"integer": _is_integer, "number": _is_number}
    ),
)


# built once: `jsonschema.validate` re-checks the schema against its
# metaschema on every call, which costs far more than validating a config
# (a test checks both schemas instead)
_CONFIG_VALIDATOR = _Validator(CONFIG_SCHEMA)


def run_solve(config: dict, out_dir, strict: bool = False) -> dict:
    """Execute a solve config; writes trace + report into `out_dir`.

    Returns the report dict; the `success` field drives the CLI exit code.
    A solver-section key that the named solver does not take, a verify flag
    turned on that it has no check for, and an instance it cannot step on
    (sigma = 0 on a box) are each a `RunConfigError`, raised before any
    reference solve and before `out_dir` is made.
    """
    validate_config(config)
    if "solver" not in config:
        raise RunConfigError("solve runs need a 'solver' section")
    name = config["solver"]["name"]
    solver = _SOLVERS[name]
    params = {k: v for k, v in config["solver"].items() if k != "name"}
    unknown = sorted(set(params) - set(config_params(solver.config_type)))
    if unknown:
        raise RunConfigError(f"solver {name!r} does not take {unknown}")
    params = {**solver.preset, **params}
    verify_cfg = config.get("verify", {})
    unchecked = sorted(flag for flag, on in verify_cfg.items() if on and flag not in solver.verifiers)
    if unchecked:
        raise RunConfigError(f"solver {name!r} has no check for verify flags {unchecked}")
    started = time.perf_counter()

    oracle, psi, x0 = _build_instance(config)
    solver.check_instance(params, oracle, psi)
    counting = CountingOracle(oracle)
    reference = None
    # a solver that stops at a gap relative to F* needs the reference (the
    # accelerated scheme always does; its A_0 rule needs F* as well)
    if (
        config.get("reference", {}).get("auto", False)
        # a dataclass field's default is its class attribute
        or params.get("rel_accuracy", getattr(solver.config_type, "rel_accuracy", None)) is not None
        or any(verify_cfg.get(flag) for flag in _REFERENCE_CHECKS)
    ):
        reference, _ = _config_reference(config, oracle, psi, x0)

    result = solver.solve(
        counting, psi, x0, solver.configure(params, oracle, x0, reference, verify_cfg, strict)
    )
    # made only once the solver returns: a run it refuses to start (a strict
    # parameter rule) raises here and leaves no directory
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    output_cfg = config.get("output", {})
    write_trace(result.trace, out_dir / output_cfg.get("trace", "trace.csv"), solver.row_type)
    iterations, final_f, final_g = solver.summary(result)
    if final_f is None:
        final_f = oracle.value(x0) + psi.value(x0, oracle.metric)
    extras = solver.extras(result, oracle, reference)
    verification = {}
    for flag, check in solver.verifiers.items():
        if verify_cfg.get(flag, flag == "per_step"):  # per_step is on unless turned off
            entry = check(result, oracle, reference, extras)
            if entry is not None:
                verification[flag] = _json_safe(entry)

    report = {
        "schema_version": 1,
        "config": config,
        "status": result.status.value,
        "success": result.status in solver.success,
        "iterations": iterations,
        "oracle_calls": counting.calls,
        "final_grad_norm": _json_safe(final_g),
        "final_f": _json_safe(final_f),
        "reference": None if reference is None else _reference_summary(reference),
        "final_gap": None if reference is None else _json_safe(final_f - reference.f_value),
        "verification": verification,
        "wall_time_s": time.perf_counter() - started,
        **_json_safe(extras),
    }
    return _write_report(report, out_dir / output_cfg.get("report", "report.json"))


def run_verify(config: dict, out_dir) -> dict:
    """Execute the instance verification suite; returns the report dict.

    An instance that cannot be built (the composite and x0 included, though
    the checks use only the problem) is a `RunConfigError`, raised before
    `out_dir` is made."""
    validate_config(config)
    started = time.perf_counter()
    oracle = _build_instance(config)[0]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_instance_checks(oracle, **config.get("instance_checks", {}))
    failing = sorted(name for name, res in results.items() if not res["passed"])
    report = {
        "schema_version": 1,
        "config": config,
        "qsc_constant": oracle.qsc_constant,
        "checks": _json_safe(results),
        "failing": failing,
        "all_passed": not failing,
        "wall_time_s": time.perf_counter() - started,
    }
    report_path = out_dir / config.get("output", {}).get("report", "verify_report.json")
    return _write_report(report, report_path)


def run_reference(config: dict, out_dir) -> dict:
    """Compute (and cache) the reference solution for a config; an instance
    that cannot be built is a `RunConfigError`, raised before `out_dir` is
    made."""
    validate_config(config)
    instance = _build_instance(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference, key = _config_reference(config, *instance)
    report = {"schema_version": 1, "config": config, **_reference_summary(reference), "cache_key": key}
    return _write_report(report, out_dir / "reference.json")


# ---------------------------------------------------------------------------
# benchmark grid
# ---------------------------------------------------------------------------

BENCHMARK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "problems", "solvers"],
    "properties": {
        "schema_version": {"const": 1},
        "problems": {"type": "array", "minItems": 1, "items": CONFIG_SCHEMA["properties"]["problem"]},
        "solvers": {"type": "array", "minItems": 1, "items": CONFIG_SCHEMA["properties"]["solver"]},
        "composite": CONFIG_SCHEMA["properties"]["composite"],
        "x0": CONFIG_SCHEMA["properties"]["x0"],
        "reference": CONFIG_SCHEMA["properties"]["reference"],
        "verify": CONFIG_SCHEMA["properties"]["verify"],
    },
}

_BENCHMARK_VALIDATOR = _Validator(BENCHMARK_SCHEMA)


def validate_suite(suite: dict) -> None:
    _raise_first_error(_BENCHMARK_VALIDATOR, suite, "invalid benchmark suite")


_TABLE_COLUMNS = ("problem", "solver", "status", "iterations", "grad_calls", "hess_calls", "final_gap")


def _benchmark_cell(args):
    cell_config, out_dir, strict = args
    try:
        report = run_solve(cell_config, out_dir, strict=strict)
        return {"ok": True, "report": report}
    except Exception as exc:  # noqa: BLE001 - cell failures are recorded, not raised
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def run_benchmark(suite: dict, out_dir, jobs: int = 1, strict: bool = False) -> dict:
    """Run every problem x solver cell; emit table.csv and table.txt.

    Cells are independent and deterministic, so optional process parallelism
    cannot change any numeric output.  Exit is successful if every cell
    produced a report, even if some solves did not converge.
    """
    validate_suite(suite)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = []
    for pi, problem in enumerate(suite["problems"]):
        for si, solver in enumerate(suite["solvers"]):
            config = {
                "schema_version": 1,
                "problem": problem,
                "solver": solver,
                "reference": suite.get("reference", {"auto": True}),
            }
            if "composite" in suite:
                config["composite"] = suite["composite"]
            if "x0" in suite:
                config["x0"] = suite["x0"]
            if "verify" in suite:
                config["verify"] = suite["verify"]
            cells.append((config, out_dir / f"cell_{pi}_{si}", strict))

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_benchmark_cell, cells))
    else:
        outcomes = [_benchmark_cell(cell) for cell in cells]

    rows = []
    for (config, cell_dir, _), outcome in zip(cells, outcomes):
        label = config["problem"]["kind"]
        if "smoothing" in config["problem"]:
            label += f"(mu={config['problem']['smoothing']})"
        row = {"problem": label, "solver": config["solver"]["name"]}
        if outcome["ok"]:
            rep = outcome["report"]
            row.update(
                status=rep["status"],
                iterations=rep["iterations"],
                grad_calls=rep["oracle_calls"]["gradient"],
                hess_calls=rep["oracle_calls"]["hessian"],
                final_gap=rep["final_gap"],
            )
        else:
            row.update(dict.fromkeys(_TABLE_COLUMNS[2:], ""), status=f"error: {outcome['error']}")
        rows.append(row)

    with open(out_dir / "table.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=_TABLE_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    widths = {
        c: max(len(c), *(len(str(r[c])) for r in rows)) for c in _TABLE_COLUMNS
    }
    lines = ["  ".join(c.ljust(widths[c]) for c in _TABLE_COLUMNS)]
    lines.append("  ".join("-" * widths[c] for c in _TABLE_COLUMNS))
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in _TABLE_COLUMNS))
    (out_dir / "table.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    return {
        "cells": len(cells),
        "completed": sum(1 for o in outcomes if o["ok"]),
        "all_reported": all(o["ok"] for o in outcomes),
        "rows": rows,
    }
