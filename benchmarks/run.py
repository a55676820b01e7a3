"""Closed-loop benchmark of the qscnewton library.

    python3 benchmarks/run.py --workload gram-tall --seed 1 --seconds 20 --trace 0

One client runs the workload's fixed job list, one job at a time, from the
root of a source checkout (the library is imported from ./src).  The job
list is made from --seed; it runs in whole passes, and a new pass starts
while that brings the timed phase closer to --seconds than stopping would.
Every job's output is checked.

--trace 0 reports the end-to-end metrics; --trace 1 runs every job twice,
untraced and traced in alternating order, and reports the per-layer split.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record of the run
(environment, per-job times, spans) goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# numpy, and so the library, the workloads and the tracer, are imported only
# after prepare_environment() has pinned the BLAS thread pools.
ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup is timed at least SETUP_MIN_REPEATS times and until the repetitions
# add up to SETUP_MIN_SECONDS (at most SETUP_MAX_REPEATS), so that a setup of
# a tenth of a second still gets a steady median
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 1.5, 40
TAIL_BEYOND = 10  # job_s.tail is the highest percentile with this many jobs beyond it

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "grad_calls_per_job": "count",
    "hess_calls_per_job": "count",
}


class SetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs."""


def prepare_environment() -> None:
    """Pin both OpenBLAS pools to one thread and put ./src on the path.

    Must run before numpy is imported: OpenBLAS reads the variables when it
    loads.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "qscnewton" / "__init__.py").is_file():
        raise SetupError(f"library sources not found: {src / 'qscnewton'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def environment_record() -> dict:
    """Versions, core count and the live OpenBLAS thread counts."""
    import ctypes

    import numpy
    import scipy

    pools = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        pool = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is not None and "threads" not in pool:
                    getter.restype = ctypes.c_int
                    pool["threads"] = getter()
                if config is not None and "config" not in pool:
                    config.restype = ctypes.c_char_p
                    pool["config"] = config().decode()
        pools.append(pool)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "openblas": pools,
    }


def tail(times: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the order statistic
    return sorted(times)[rank - 1], 100.0 * rank / n


def _timed(fn, *args):
    """(result, error, seconds) of one call; an exception is recorded, not raised."""
    t0 = time.perf_counter()
    try:
        return fn(*args), None, time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a job failure is counted, not raised
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0


def run_jobs(jobs, ctx, seconds, max_passes=None, tracer=None, traced_ctx=None):
    """Run whole passes of the job list for about `seconds`.

    Returns (records, timed seconds, passes).  At least one pass runs; a
    further one starts while elapsed + mean pass time / 2 < seconds, and
    never beyond `max_passes`.  Whole passes keep the per-job counts exact.

    With a tracer each job runs twice, untraced and traced, the order
    alternating from job to job; only the untraced time counts as the job's
    time, the traced one goes into the record for the overhead figure.
    """
    records = []
    started = time.perf_counter()
    p = 0
    while True:
        for i, job in enumerate(jobs):
            modes = ["plain"] if tracer is None else (["plain", "traced"] if (p + i) % 2 == 0 else ["traced", "plain"])
            record = {"label": job.label, "kind": job.kind, "job": job}
            for mode in modes:
                if mode == "plain":
                    outcome, error, elapsed = _timed(job.run, ctx)
                else:
                    with tracer.installed(len(records)):
                        outcome, error, elapsed = _timed(tracer.call, "job", job.run, traced_ctx)
                record[mode] = {"s": elapsed, "outcome": outcome, "error": error}
            records.append(record)
        p += 1
        spent = time.perf_counter() - started
        if p == max_passes or spent + spent / p / 2 >= seconds:
            return records, spent, p


def check_records(records) -> int:
    """Check every job output (outside the timed phase); returns the failures."""
    failed = 0
    for record in records:
        for mode in ("plain", "traced"):
            entry = record.get(mode)
            if entry is None:
                continue
            problem = entry["error"]
            if problem is None:
                try:
                    problem = record["job"].check(entry["outcome"])
                except Exception as exc:  # noqa: BLE001
                    problem = f"check raised {type(exc).__name__}: {exc}"
            entry["problem"] = problem
            failed += problem is not None
    return failed


def end_to_end_metrics(records, timed_s, setup_times) -> tuple[dict, dict]:
    times = [r["plain"]["s"] for r in records]
    outcomes = [r["plain"]["outcome"] for r in records if r["plain"]["outcome"] is not None]
    n = len(records)
    values = {
        "jobs_per_s": n / timed_s,
        "job_s.p50": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "grad_calls_per_job": sum(o.grad_calls for o in outcomes) / n,
        "hess_calls_per_job": sum(o.hess_calls for o in outcomes) / n,
    }
    detail = {
        "jobs": n,
        "setup_runs_s": setup_times,
        "newton_steps_per_job": sum(o.newton_steps for o in outcomes) / n,
    }
    tail_value = tail(times)
    if tail_value is not None:
        values["job_s.tail"] = tail_value[0]
        detail["job_s.tail"] = {"percentile": tail_value[1], "samples": n}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items() if name in values}
    return metrics, detail


def per_layer_metrics(records, tracer) -> tuple[dict, dict]:
    from tracing import summarize

    n = len(records)
    totals = summarize(tracer.spans)
    counters = tracer.counters

    def total(name, field):
        return totals.get(name, {}).get(field, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    plain = statistics.median(r["plain"]["s"] for r in records)
    traced = statistics.median(r["traced"]["s"] for r in records)
    outcomes = [r["traced"]["outcome"] for r in records if r["traced"]["outcome"] is not None]
    job_s = total("job", "s")
    setup_reference_s = sum(
        span.duration for span in tracer.spans if span.name == "harness.compute_reference" and span.job == "setup"
    )
    values = {}
    for layer in ("value", "gradient", "hessian"):
        values[f"problems.{layer}.calls"] = (total(f"problems.{layer}", "calls") / n, "count")
        values[f"problems.{layer}.s"] = (total(f"problems.{layer}", "s") / n, "s")
    values["problems.hessian.nominal_gflop_per_s"] = (
        ratio(counters["problems.hessian.nominal_flop"], total("problems.hessian", "s")) / 1e9,
        "GFLOP/s",
    )
    for layer in ("regularized_solve", "dual_norm"):
        values[f"metric.{layer}.calls"] = (total(f"metric.{layer}", "calls") / n, "count")
        values[f"metric.{layer}.s"] = (total(f"metric.{layer}", "s") / n, "s")
    values["composite.newton_step.calls"] = (total("composite.newton_step", "calls") / n, "count")
    values["composite.newton_step.self_s"] = (total("composite.newton_step", "self_s") / n, "s")
    values["composite.box_inner_iterations"] = (counters["composite.box_inner_iterations"] / n, "count")
    values["composite.box_inner_per_step"] = (
        ratio(counters["composite.box_inner_iterations"], counters["composite.box_steps"]),
        "count",
    )
    values["oracles.combinator.self_s"] = (total("oracles.combinator", "self_s") / n, "s")
    for check in ("check_qsc", "check_hessian_stability", "check_gradient_bound", "check_function_bounds", "check_fd"):
        values[f"oracles.{check}.s"] = (total(f"oracles.{check}", "s") / n, "s")
    values["primal.self_s"] = (total("primal", "self_s") / n, "s")
    values["primal.step_computations"] = (counters["primal.step_computations"] / n, "count")
    values["primal.accepted_step_ratio"] = (
        ratio(counters["primal.iterations"], counters["primal.step_computations"]),
        "ratio",
    )
    values["dual.self_s"] = (total("dual", "self_s") / n, "s")
    values["dual.inner_steps"] = (counters["dual.inner_steps"] / n, "count")
    values["dual.inner_per_outer"] = (ratio(counters["dual.inner_steps"], counters["dual.outer"]), "ratio")
    values["dual.qsc_doublings"] = (counters["dual.qsc_doublings"] / n, "count")
    values["accelerated.self_s"] = (total("accelerated", "self_s") / n, "s")
    values["accelerated.outer"] = (counters["accelerated.outer"] / n, "count")
    values["accelerated.dual_inner"] = (counters["accelerated.dual_inner"] / n, "count")
    values["harness.run_solve.self_s"] = (total("harness.run_solve", "self_s") / n, "s")
    values["harness.run_instance_checks.self_s"] = (total("harness.run_instance_checks", "self_s") / n, "s")
    values["harness.compute_reference.s"] = (setup_reference_s + total("harness.compute_reference", "s"), "s")
    values["newton_steps_per_job"] = (sum(o.newton_steps for o in outcomes) / n, "count")
    values["trace.unattributed_share"] = (ratio(total("job", "self_s"), job_s), "share")
    values["trace.overhead"] = (traced / plain - 1.0, "ratio")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    # self time by layer, for the dominance statement in the README
    shares = {
        name: entry["self_s"] / job_s for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])
    }
    detail = {"traced_job_s.p50": traced, "plain_job_s.p50": plain, "self_share_by_span": shares}
    return metrics, detail


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write("index,name,start,end,parent,job\n")
        for i, span in enumerate(spans):
            handle.write(f"{i},{span.name},{span.start!r},{span.end!r},{span.parent},{span.job}\n")


def _more_setups(times: list[float], trace: bool) -> bool:
    """A traced run sets up once; an untraced one repeats for setup_s."""
    if not times:
        return True
    if trace or len(times) >= SETUP_MAX_REPEATS:
        return False
    return len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full", out_dir: Path | None = None):
    """Set up, run and check one workload; returns (result line dict, detail dict)."""
    from tracing import Tracer
    from workloads import WORKLOADS, Context, reset_dir

    setup = WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    os.environ["QSC_CACHE_DIR"] = str(work / "cache")
    try:
        ctx = Context(work)
        tracer = Tracer() if trace else None
        setup_times = []
        while _more_setups(setup_times, trace):
            reset_dir(work)
            t0 = time.perf_counter()
            if tracer is None:
                jobs = setup(seed, scale, ctx)
            else:
                with tracer.installed("setup"):
                    jobs = setup(seed, scale, ctx)
            warmup, _, _ = run_jobs(jobs[:1], ctx, 0, max_passes=1)
            setup_times.append(time.perf_counter() - t0)
        failed = check_records(warmup)
        max_passes = 1 if scale == "tiny" else None
        records, timed_s, passes = run_jobs(jobs, ctx, seconds, max_passes, tracer, Context(work, tracer))
        failed += check_records(records)
        attempted = len(warmup) + sum(("plain" in r) + ("traced" in r) for r in records)
        if trace:
            metrics, detail = per_layer_metrics(records, tracer)
        else:
            metrics, detail = end_to_end_metrics(records, timed_s, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [
        {"label": r["label"], "mode": mode, "problem": r[mode]["problem"]}
        for r in warmup + records
        for mode in ("plain", "traced")
        if mode in r and r[mode].get("problem")
    ]
    detail.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        scale=scale,
        passes=passes,
        jobs_per_pass=len(jobs),
        failed_share=failed / attempted,
        failures=failures[:20],
        job_times=[{"label": r["label"], "kind": r["kind"], "s": r["plain"]["s"]} for r in records],
        environment=environment_record(),
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1))
        if trace:
            write_spans(out_dir / f"{stem}-spans.csv.gz", tracer.spans)
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare_environment()
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir=ROOT / ".bench_out"
    )
    print("detail: " + json.dumps({k: v for k, v in detail.items() if k != "job_times"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
