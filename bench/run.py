"""Benchmark of the sparsecov command line, end to end and layer by layer.

Run one workload (the form the metrics contract uses)::

    python3 bench/run.py --workload spectral-grid --seed 3 --seconds 30 --trace 0

or every workload, untraced and then traced, at the default seeds, printing
every metric by name with its unit::

    python3 bench/run.py --workload all

Each invocation of the program is a fresh interpreter (``bench/child.py``)
that calls ``sparsecov.cli.main`` with the argv a user would type.  The load
generator is closed-loop with one client: it starts the next invocation when
the previous one has ended, and stops starting them once the next one would
end after ``--seconds``.  Untraced runs report medians over the invocations
of the end-to-end metrics; traced runs alternate an untraced and a traced
invocation and report the per-layer metrics.  Results, with the environment
the child saw, go to ``.bench_out/BENCH_<workload>[-trace].json``; the last
line of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Extra fresh interpreters per untraced run that stop just before cli.main,
# so setup_s is a median over enough samples to be steady.  The host's speed
# drifts over seconds to minutes, so the probes are spread over the run: a
# batch before every invocation, and the rest after the last one.
SETUP_PROBES = 40
PROBES_PER_ROUND = 8
# Every run ends within this many seconds, invocations included.
RUN_DEADLINE_S = 170.0

# The layers are the modules; these are the functions reported one by one.
FUNCTIONS = {
    "matrices": ("as_symmetric", "sym_eigen", "operator_norm"),
    "rng": ("RngSeed.generator",),
    "model_spaces": ("enumerate_theta", "materialize_sigma"),
    "sampling": ("sqrt_psd", "sample_gaussian", "mle_covariance"),
    "estimators": ("threshold_estimate", "psd_project", "bregman_guard"),
    "losses": ("evaluate_loss", "bregman_divergence"),
    "lower_bound": (
        "per_comparison_alpha", "exact_chi_square_small", "gamma1_mixture",
        "tv_affinity_mc",
    ),
    "risk": ("run_grid", "run_risk_cell", "export_records"),
    "cli": ("main",),
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the workload never reaches the layer."""
    return num / den if den else 0.0


def layer_metrics(wl, traces: list, untraced_run_s: float) -> dict:
    """Per-layer metrics from the summaries of the traced invocations.

    Counts come from the first traced invocation (they repeat exactly);
    self times are medians over the traced invocations.
    """
    functions = traces[0]["functions"]
    counts = traces[0]["counts"]

    def calls(name, key="calls"):
        return functions.get(name, {}).get(key, 0)

    def median_self(match):
        return statistics.median(
            sum(v["self_s"] for f, v in t["functions"].items() if match(f)) for t in traces
        )

    metrics = {}
    for layer in FUNCTIONS:
        mine = [f for f in functions if f.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = (sum(calls(f) for f in mine), "count")
        metrics[f"{layer}.self_s"] = (median_self(lambda f: f.split(".")[0] == layer), "s")
    for layer, names in FUNCTIONS.items():
        for short in names:
            name = f"{layer}.{short}"
            metrics[f"{name}.calls"] = (calls(name), "count")
            metrics[f"{name}.self_s"] = (median_self(lambda f: f == name), "s")
    cells = len(wl.cells)
    metrics.update({
        "sampling.draws_per_replicate": (
            _ratio(calls("sampling.sample_gaussian"), wl.data_draws), "ratio"),
        "sampling.roots_per_cell": (_ratio(calls("sampling.sqrt_psd"), cells), "ratio"),
        "matrices.as_symmetric.calls_per_replicate": (
            _ratio(calls("matrices.as_symmetric"), wl.data_draws), "ratio"),
        "estimators.bregman_guard.trip_frac": (
            _ratio(counts.get("estimators.bregman_guard.trips", 0),
                   calls("estimators.bregman_guard")), "frac"),
        "estimators.psd_project.clip_frac": (
            _ratio(counts.get("estimators.psd_project.clips", 0),
                   calls("estimators.psd_project")), "frac"),
        "losses.evaluate_loss.fail_frac": (
            _ratio(calls("losses.evaluate_loss", "failed"), calls("losses.evaluate_loss")),
            "frac"),
        "model_spaces.materialize_sigma.distinct_frac": (
            _ratio(counts.get("lower_bound.tv_affinity_mc.components", 0),
                   calls("model_spaces.materialize_sigma")),
            "frac"),
        # chunk x (C_P + C_Q) x 8 bytes: computed from the arguments, not measured
        "lower_bound.tv_affinity_mc.density_mb": (
            counts.get("lower_bound.tv_affinity_mc.density_bytes", 0) / 1e6, "MB-computed"),
        "lower_bound.tv_affinity_mc.samples_per_s": (
            statistics.median(
                _ratio(t["counts"].get("lower_bound.tv_affinity_mc.samples", 0),
                       t["affinity_seconds"])
                for t in traces),
            "1/s"),
        "trace.overhead_frac": (
            statistics.median(t["main_wall_s"] for t in traces) / untraced_run_s - 1.0,
            "frac"),
        "trace.span_coverage": (
            statistics.median(t["coverage"] for t in traces), "frac"),
    })
    return metrics


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(wl, seed: int, workdir: Path, deadline: float, *, trace=False, probe=False) -> dict:
    """Run one fresh interpreter on the workload and collect its result."""
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    job = wl.prepare(seed, workdir) | {
        "trace": trace,
        "probe": probe,
        "result_path": str(result_path),
        "spans_path": str(workdir / "spans.json"),
    }
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(job_path)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": "timed out", "stdout": ""}
    if proc.returncode != 0 or not result_path.exists():
        return {"exit_code": proc.returncode or None, "error": proc.stderr[-2000:],
                "stdout": proc.stdout}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result.pop("ready") - start
    result["stdout"] = proc.stdout
    return result


def measure(wl, seed: int, seconds: float, trace: bool, expected: str | None) -> dict:
    """One benchmark run: its invocations, checks and metrics."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = OUT / wl.name
    workdir.mkdir(parents=True, exist_ok=True)
    # Unmeasured: compiles bytecode once per checkout and reads the environment.
    environment = spawn(wl, seed, workdir, deadline, probe=True).get("environment")
    state: dict = {}
    attempted = failed = 0
    problems = []
    untraced, traced, rounds, probes = [], [], [], []

    def probe_setups(count):
        for _ in range(count):
            if time.monotonic() + 1.0 > deadline:
                return
            probe = spawn(wl, seed, workdir, deadline, probe=True)
            if "setup_s" not in probe:
                return
            probes.append(probe["setup_s"])

    begin = time.monotonic()
    while True:
        round_start = time.monotonic()
        if not trace:
            probe_setups(PROBES_PER_ROUND)
        for traced_flag in ((False, True) if trace else (False,)):
            res = spawn(wl, seed, workdir, deadline, trace=traced_flag)
            checked = wl.check(res.get("exit_code"), res.pop("stdout"), workdir, state, expected)
            attempted += checked.attempted
            failed += checked.failed
            problems += checked.problems + ([res["error"]] if "error" in res else [])
            (traced if traced_flag else untraced).append(res)
        rounds.append(time.monotonic() - round_start)
        now = time.monotonic()
        expect = statistics.median(rounds)
        if now - begin + expect > seconds or now + 2 * expect > deadline:
            break
    if not trace:
        probe_setups(SETUP_PROBES - len(probes))
    timed = [r for r in untraced if "run_s" in r]
    if not timed or (trace and not any("trace" in r for r in traced)):
        raise RuntimeError(f"{wl.name}: no invocation produced timings: {problems[:3]}")
    run_s = statistics.median(r["run_s"] for r in timed)
    if trace:
        metrics = layer_metrics(wl, [r["trace"] for r in traced if "trace" in r], run_s)
    else:
        metrics = {
            "setup_s": (statistics.median(probes + [r["setup_s"] for r in timed]), "s"),
            "run_s": (run_s, "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in timed), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
            "success_rate": (1.0 - failed / attempted, "frac"),
        }
    for r in traced:
        r.pop("trace", None)
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "invocations": untraced + traced,
        "setup_probes_s": probes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_workload(wl, seed: int | None, seconds: float, trace: bool,
                 expected: str | None = None) -> dict:
    """Measure a workload and write its BENCH file.

    ``expected`` overrides the pinned output digest; by default the pinned
    one is used at the workload's default seed and none elsewhere.
    """
    if seed is None:
        seed = wl.default_seed
    if expected is None and seed == wl.default_seed:
        expected = workloads.PINNED.get(wl.name)
    result = measure(wl, seed, seconds, trace, expected)
    suffix = "-trace" if trace else ""
    (OUT / f"BENCH_{wl.name}{suffix}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def _print_metrics(result: dict, prefix: str = "") -> None:
    for key, value in (result["environment"] or {}).items():
        print(f"{prefix}env {key} {value}")
    for problem in result["problems"]:
        print(f"{prefix}problem {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{prefix}{name} {m['value']} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sparsecov" / "cli.py").is_file():
        print(f"run.py: no sparsecov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        _print_metrics(result)
        summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(summary))
        return 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, wl in workloads.WORKLOADS.items():
        for trace in (False, True):
            result = run_workload(wl, None, args.seconds, trace)
            _print_metrics(result, prefix=f"{name} ")
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
