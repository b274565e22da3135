"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

import dataclasses
import json
import time

import run
import tracer
import workloads

# One cell, 2 estimators x 2 losses, 3 replicates: small enough to count by hand.
TINY = workloads.GridWorkload(
    name="tiny-grid",
    cells=[{"n": 30, "p": 20}],
    estimators=[{"rule": "hard", "gamma": 2.0}, {"rule": "soft", "gamma": 2.0}],
    losses=[{"kind": "operator", "w": 2}, {"kind": "operator", "w": 1}],
    replicates=3,
    threads=1,
    out="records.csv",
    default_seed=7,
)


def _spawn(wl, **kwargs):
    workdir = run.OUT / wl.name
    workdir.mkdir(parents=True, exist_ok=True)
    result = run.spawn(wl, wl.default_seed, workdir, time.monotonic() + 120, **kwargs)
    assert result["exit_code"] == 0, result.get("error")
    return result, (workdir / wl.out).read_bytes()


def test_traced_and_untraced_runs_write_identical_bytes():
    _, plain = _spawn(TINY)
    _, traced = _spawn(TINY, trace=True)
    assert plain == traced


def test_wrapper_call_counts_match_hand_count():
    result, _ = _spawn(TINY, trace=True)
    functions = result["trace"]["functions"]
    # 4 (estimator, loss) pairs x 3 replicates, each drawing its own data
    assert functions["sampling.sample_gaussian"]["calls"] == 12
    # one square root per pair: run_risk_cell recomputes it
    assert functions["sampling.sqrt_psd"]["calls"] == 4
    assert functions["risk.run_risk_cell"]["calls"] == 4


def test_worker_thread_spans_attach_to_the_submitting_span():
    threaded = dataclasses.replace(TINY, name="tiny-grid-threads", threads=2)
    _spawn(threaded, trace=True)
    spans = json.loads((run.OUT / threaded.name / "spans.json").read_text())
    roots = [name for _, parent, name, *_ in spans if parent is None]
    assert roots == ["cli.main"]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (0, None, "cli.main", 0.0, 10.0, False),
        (1, 0, "risk.run_risk_cell", 1.0, 4.0, False),
        (2, 0, "risk.run_risk_cell", 3.0, 6.0, False),  # overlaps on another thread
        (3, 0, tracer.OBSERVER, 6.0, 7.0, False),  # the tracer's own time
    ]
    summary = tracer.summarize(spans)
    assert summary["functions"]["cli.main"]["self_s"] == 4.0
    assert summary["coverage"] == 0.5


def test_lowerbound_affinity_is_compared_across_runs(tmp_path):
    def report(affinity):
        alpha, r = 1e-4, 5
        return {
            "seed": "0:0",
            "config": {"p": 10, "r": r},
            "chi_square": {"exact": 0.01, "envelope": 0.5},
            "affinity": {"value": affinity, "std_error": 1e-4},
            "alpha": {"bound": alpha},
            "lower_bound": 0.25 * alpha * (r / 2.0) * affinity,
        }

    outcomes = []
    for affinity in (0.97, 0.97, 0.96):
        problems = []
        workloads.LowerBoundWorkload._check_report(report(affinity), tmp_path, problems)
        outcomes.append(problems)
    assert outcomes[:2] == [[], []]
    assert len(outcomes[2]) == 1 and "differs" in outcomes[2][0]


def test_wrong_expected_digest_counts_failures_and_run_completes():
    result = run.run_workload(TINY, None, 0.1, False, expected="0" * 64)
    assert result["attempted"] == 4
    assert result["failed"] == 4
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert any("digest" in p for p in result["problems"])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(TINY, None, 0.1, trace)
        assert result["correct"], result["problems"]
        reported = {k: m["unit"] for k, m in result["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in spec[key]}
