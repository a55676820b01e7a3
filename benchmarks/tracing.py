"""Spans recorded from outside the library: a timing oracle and patched names.

A traced job runs with a set of module-level names of the library replaced
by wrappers that record one span per call.  Each span holds its name, start
and end time, the index of its parent span and the id of the job it belongs
to.  Spans stay in memory; the runner writes them out when the run ends.

Nothing here changes what the library computes: every wrapper forwards its
arguments and returns the wrapped function's result unchanged, and
`Tracer.installed` puts the original objects back when it exits.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict

from qscnewton import accelerated, composite, dual, harness, metric, primal
from qscnewton.oracles import SmoothOracle

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "job")

    def __init__(self, name, start, end, parent, job):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with per-job counters.

    `job` is the id that new spans are tagged with: an int for a timed job,
    the string "setup" while the setup phase is traced.  Counters only
    accumulate inside timed jobs.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.job)
        self.spans.append(span)
        self._stack.append(index)
        span.start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = _clock()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        if isinstance(self.job, int):
            self.counters[name] += amount

    def wrap(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, job):
        """Patch the library's names for the duration of the block."""
        saved = []
        self.job = job
        try:
            for owner, attr, replacement in _patches(self):
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.job = None


class TimingOracle(SmoothOracle):
    """Base-oracle wrapper: one span per value, gradient or Hessian call.

    Each Hessian call also adds its nominal flop count to a counter: m*n^2
    for the Gram families (design rows of shape (m, n)), dim^2 otherwise.
    This is a count computed from sizes, not a hardware measurement.
    """

    def __init__(self, base: SmoothOracle, tracer: Tracer):
        super().__init__(base.metric, base.qsc_constant)
        self._base = base
        self._tracer = tracer
        rows = getattr(base, "rows", None)
        if rows is not None:
            m, n = rows.shape
            self._hessian_flop = float(m) * n * n
        else:
            self._hessian_flop = float(base.dim) ** 2

    def value(self, x):
        return self._tracer.call("problems.value", self._base.value, x)

    def gradient(self, x):
        return self._tracer.call("problems.gradient", self._base.gradient, x)

    def hessian(self, x):
        self._tracer.count("problems.hessian.nominal_flop", self._hessian_flop)
        return self._tracer.call("problems.hessian", self._base.hessian, x)


class CombinatorSpans(SmoothOracle):
    """Records an `oracles.combinator` span around each call into a wrapper
    oracle (contraction, sum, declared constant) built by the library."""

    def __init__(self, inner: SmoothOracle, tracer: Tracer):
        super().__init__(inner.metric, inner.qsc_constant)
        self._inner = inner
        self._tracer = tracer

    def value(self, x):
        return self._tracer.call("oracles.combinator", self._inner.value, x)

    def gradient(self, x):
        return self._tracer.call("oracles.combinator", self._inner.gradient, x)

    def hessian(self, x):
        return self._tracer.call("oracles.combinator", self._inner.hessian, x)


def _on_primal(tracer, args, kwargs, result):
    tracer.count("primal.iterations", result.iterations)
    tracer.count("primal.step_computations", result.step_computations)


def _on_dual(tracer, args, kwargs, result):
    config = args[3] if len(args) > 3 else kwargs["config"]
    tracer.count("dual.outer", result.outer_iterations)
    tracer.count("dual.inner_steps", result.total_inner)
    tracer.count("dual.qsc_doublings", round(math.log2(result.qsc_used / config.qsc_constant)))


def _on_accelerated(tracer, args, kwargs, result):
    tracer.count("accelerated.outer", result.outer_iterations)
    tracer.count("accelerated.dual_inner", result.total_dual_inner)


def _on_newton_step(tracer, args, kwargs, result):
    psi = args[1] if len(args) > 1 else kwargs["psi"]
    if psi.is_box:
        tracer.count("composite.box_steps")
        tracer.count("composite.box_inner_iterations", result.inner_iterations)


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every name a traced job patches.

    The owners are the modules whose callers look the names up at call
    time, so each caller sees the wrapper while the patch is installed.
    """
    wrap = tracer.wrap
    solve_primal = wrap("primal", primal.solve_primal, _on_primal)
    solve_dual = wrap("dual", dual.solve_dual, _on_dual)
    newton_step_primal = wrap("composite.newton_step", primal.newton_step, _on_newton_step)
    newton_step_dual = wrap("composite.newton_step", dual.newton_step, _on_newton_step)
    contract = accelerated.contract_oracle

    def contract_oracle(*args, **kwargs):
        return CombinatorSpans(tracer.call("oracles.combinator", contract, *args, **kwargs), tracer)

    build = harness.build_problem

    def build_problem(problem_cfg):
        return TimingOracle(build(problem_cfg), tracer)

    dual_norm = metric.Metric.dual_norm

    def metric_dual_norm(self, s):
        return tracer.call("metric.dual_norm", dual_norm, self, s)

    return [
        (primal, "solve_primal", solve_primal),
        (primal, "newton_step", newton_step_primal),
        (dual, "solve_dual", solve_dual),
        (dual, "newton_step", newton_step_dual),
        (accelerated, "solve_dual", solve_dual),
        (accelerated, "contract_oracle", contract_oracle),
        (accelerated, "solve_accelerated", wrap("accelerated", accelerated.solve_accelerated, _on_accelerated)),
        (composite, "regularized_solve", wrap("metric.regularized_solve", composite.regularized_solve)),
        (metric.Metric, "dual_norm", metric_dual_norm),
        (harness, "build_problem", build_problem),
        (harness, "run_solve", wrap("harness.run_solve", harness.run_solve)),
        (harness, "compute_reference", wrap("harness.compute_reference", harness.compute_reference)),
        (harness, "run_instance_checks", wrap("harness.run_instance_checks", harness.run_instance_checks)),
        (harness, "check_qsc", wrap("oracles.check_qsc", harness.check_qsc)),
        (harness, "check_hessian_stability", wrap("oracles.check_hessian_stability", harness.check_hessian_stability)),
        (harness, "check_gradient_bound", wrap("oracles.check_gradient_bound", harness.check_gradient_bound)),
        (harness, "check_function_bounds", wrap("oracles.check_function_bounds", harness.check_function_bounds)),
        (harness, "check_gradient", wrap("oracles.check_fd", harness.check_gradient)),
        (harness, "check_hessian", wrap("oracles.check_fd", harness.check_hessian)),
    ]


def patched_names() -> list[tuple[object, str]]:
    """The (owner, attribute) pairs a traced job replaces."""
    return [(owner, attr) for owner, attr, _ in _patches(Tracer())]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name over timed jobs: number of calls, inclusive and self seconds."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        if not isinstance(span.job, int):
            continue
        entry = totals[span.name]
        entry["calls"] += 1
        entry["s"] += span.duration
        entry["self_s"] += own
    return dict(totals)
