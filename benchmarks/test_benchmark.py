"""Self-tests of the benchmark itself.

    python3 -m pytest benchmarks -q

They check the span arithmetic, the metric names, that tracing leaves the
library as it found it, and that a tiny version of every workload runs with
no failed job.
"""

import json
import re

import pytest

import run

run.prepare_environment()

import tracing  # noqa: E402 - needs the environment prepared first
import workloads  # noqa: E402
from tracing import Span, self_times, summarize  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union of a and b is [1, 6]
        Span("c", 8.0, 9.0, 0, 0),
        Span("d", 2.0, 3.0, 1, 0),  # grandchild: counts against a, not root
        Span("e", 9.5, 11.0, 0, 0),  # runs past its parent: clipped to [9.5, 10]
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0 - 0.5, 2.0, 3.0, 1.0, 1.0, 1.5])


def test_summarize_counts_only_spans_of_timed_jobs():
    spans = [
        Span("harness.compute_reference", 0.0, 2.0, -1, "setup"),
        Span("job", 2.0, 5.0, -1, 0),
        Span("primal", 2.5, 4.5, 1, 0),
    ]
    totals = summarize(spans)
    assert set(totals) == {"job", "primal"}
    assert totals["job"] == {"calls": 1, "s": pytest.approx(3.0), "self_s": pytest.approx(1.0)}
    assert totals["primal"]["self_s"] == pytest.approx(2.0)


def test_tail_is_the_order_statistic_with_ten_jobs_beyond_it():
    assert run.tail([1.0] * 10) is None
    value, percentile = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == pytest.approx(75.0)


def test_benchmark_json_names_match_the_pattern():
    names = [m["name"] for key in ("end_to_end", "per_layer", "workloads") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(name) for name in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_patched_names_are_restored_after_a_traced_run():
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in tracing.patched_names()}
    run.run_workload("box-accel-cli", 2, 1, True, scale="tiny")
    after = {(owner, attr): owner.__dict__[attr] for owner, attr in before}
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_has_no_failed_job(name, trace):
    result, detail = run.run_workload(name, 7, 1, trace, scale="tiny")
    assert result["failed"] == 0 and detail["failed_share"] == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    # too few jobs in a tiny run for a tail percentile with ten jobs beyond it
    assert set(expected) - set(reported) <= {"job_s.tail"}
    assert all(expected[name] == unit for name, unit in reported.items())
    if trace:
        assert result["metrics"]["trace.unattributed_share"]["value"] <= 0.05
