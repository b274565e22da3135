"""Workload definitions and output checks for the sparsecov benchmark.

A workload is one command line a user would type, built from a seed.  The
load generator (``run.py``) writes nothing the program reads except what
``prepare`` returns: the argv and, for grids, the JSON config the child
writes before calling ``sparsecov.cli.main``.

Every workload also says what one *operation* is (a record or a report) and
how to check the outputs of one invocation.  A failed check marks every
operation of that invocation failed; it never stops the run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

# Digests of the outputs at each workload's default seed, taken at the seed
# commit of the benchmark.  A change that alters seeded outputs must show
# why the old bytes were wrong before it updates these.
PINNED = {
    "spectral-grid": "9abadfdca7e015e35df01c7916949f54c568780efd5e697347b7a6282f8661a5",
    "estimator-menu": "fadbd582421b7b1dc9e45293b277d13d7df06e6e83f67e17e24de174e8c28657",
}

SOURCES = Path(__file__).resolve().parent.parent / "src" / "sparsecov"

HEADLINE_CELLS = [{"n": v, "p": v} for v in (100, 200, 400, 800)]
BANDED = {"kind": "banded", "band": 2, "scale": 1.0}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Checked:
    """Outcome of checking one invocation's outputs."""

    attempted: int
    failed: int
    problems: list


def _checked(attempted: int, returncode, inspect) -> Checked:
    """Run ``inspect(problems)`` on a clean exit; any problem fails every operation."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    else:
        try:
            inspect(problems)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return Checked(attempted, attempted if problems else 0, problems)


@dataclass(frozen=True)
class GridWorkload:
    """``sparsecov simulate`` on one grid config."""

    name: str
    cells: list
    estimators: list
    losses: list
    replicates: int
    threads: int
    out: str
    default_seed: int
    slope_band: tuple | None = None

    @property
    def data_draws(self) -> int:
        """Cells times replicates: the data draws the grid needs at least."""
        return len(self.cells) * self.replicates

    @property
    def operations(self) -> int:
        return len(self.cells) * len(self.estimators) * len(self.losses)

    def prepare(self, seed: int, workdir: Path) -> dict:
        config = {
            "cells": self.cells,
            "truth": BANDED,
            "estimators": self.estimators,
            "losses": self.losses,
            "replicates": self.replicates,
            "seed": str(seed),
        }
        config_path = workdir / "grid.json"
        argv = [
            "simulate",
            "--config", str(config_path),
            "--threads", str(self.threads),
            "--out", str(workdir / self.out),
        ]
        return {"argv": argv, "config_path": str(config_path), "config": config}

    def output_digest(self, workdir: Path) -> str:
        """SHA-256 of the CSV bytes, or of the JSON records minus wall_time."""
        raw = (workdir / self.out).read_bytes()
        if self.out.endswith(".csv"):
            return _sha256(raw)
        records = json.loads(raw)
        for rec in records:
            rec.pop("wall_time")
        return _sha256(json.dumps(records, sort_keys=True).encode())

    def check(self, returncode, stdout: str, workdir: Path, state: dict,
              expected: str | None) -> Checked:
        return _checked(
            self.operations, returncode,
            lambda problems: self._check_outputs(stdout, workdir, state, expected, problems),
        )

    def _check_outputs(self, stdout, workdir, state, expected, problems):
        raw = (workdir / self.out).read_bytes()
        if self.out.endswith(".csv"):
            rows = csv.DictReader(io.StringIO(raw.decode()))
            risks = [float(row["mean_risk"]) for row in rows]
        else:
            risks = [rec["mean_risk"] for rec in json.loads(raw)]
        if len(risks) != self.operations:
            problems.append(f"{len(risks)} records, expected {self.operations}")
        if not all(math.isfinite(r) and r >= 0.0 for r in risks):
            problems.append("a mean risk is negative or not finite")
        if self.slope_band is not None:
            slopes = [float(s) for s in re.findall(r"slope=(\S+)", stdout)]
            lo, hi = self.slope_band
            if len(slopes) != 1 or not lo <= slopes[0] <= hi:
                problems.append(f"fitted slopes {slopes} outside [{lo}, {hi}]")
        digest = self.output_digest(workdir)
        first = state.setdefault("digest", digest)
        if digest != first:
            problems.append("outputs differ from the first invocation of this run")
        if expected is not None and digest != expected:
            problems.append(f"output digest {digest} != expected {expected}")


@dataclass(frozen=True)
class LowerBoundWorkload:
    """``sparsecov lowerbound`` at one family configuration."""

    name: str
    p: int
    n: int
    q: float
    c: float
    upsilon: float
    default_seed: int

    # No grid cells and no data draws: the grid ratios read 0 here.
    cells = ()
    data_draws = 0

    def prepare(self, seed: int, workdir: Path) -> dict:
        argv = [
            "lowerbound",
            "--p", str(self.p), "--n", str(self.n), "--q", f"{self.q:g}",
            "--c", f"{self.c:g}", "--upsilon", f"{self.upsilon:g}",
            "--seed", str(seed),
            "--out", str(workdir / "report.json"),
        ]
        return {"argv": argv, "config_path": None, "config": None}

    def check(self, returncode, stdout: str, workdir: Path, state: dict,
              expected: str | None) -> Checked:
        return _checked(1, returncode, lambda problems: self._check_report(
            json.loads((workdir / "report.json").read_text()), workdir, problems))

    @staticmethod
    def _check_report(report, workdir, problems):
        # No value is pinned: a corrected exact chi-square or a different
        # Monte Carlo draw are legitimate changes.  Only relations between
        # the report's own numbers, and repeatability, are checked.
        chi2 = report["chi_square"]
        exact, envelope = chi2["exact"], chi2["envelope"]
        if not exact <= envelope < 0.75:
            problems.append(f"need exact {exact} <= envelope {envelope} < 0.75")
        aff = report["affinity"]
        floor = 1.0 - math.sqrt(exact) - 3.0 * aff["std_error"]
        if not aff["value"] >= floor:
            problems.append(f"affinity {aff['value']} below floor {floor}")
        alpha = report["alpha"]["bound"]
        r = report["config"]["r"]
        want = 0.25 * alpha * (r / 2.0) * min(aff["value"], 1.0)
        if not math.isclose(report["lower_bound"], want, rel_tol=1e-12):
            problems.append(f"lower bound {report['lower_bound']} != {want}")
        # An untraced run makes a single invocation, so repeatability is
        # checked against every earlier invocation in this checkout with the
        # same seed, config and program sources.
        seen_path = workdir / "affinities.json"
        seen = json.loads(seen_path.read_text()) if seen_path.exists() else {}
        key = json.dumps([report["seed"], report["config"], _source_digest()], sort_keys=True)
        first = seen.setdefault(key, aff["value"])
        if aff["value"] != first:
            problems.append(f"affinity {aff['value']} differs from {first} at one seed")
        seen_path.write_text(json.dumps(seen, indent=1) + "\n")


def _source_digest() -> str:
    """SHA-256 over the program's source files."""
    digest = hashlib.sha256()
    for path in sorted(SOURCES.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


WORKLOADS = {
    # The headline grid of criteria 1 and 11: one (estimator, loss) pair, so
    # work shared across pairs is not a factor here.  Dense per-replicate
    # kernels at p = 800 (eigvalsh, as_symmetric passes, z @ root) dominate,
    # so changes to matrices, eigensolves or BLAS threading show here.
    # 25 replicates keep one invocation near 6 s, so a run takes the median
    # of several invocations.
    "spectral-grid": GridWorkload(
        name="spectral-grid",
        cells=HEADLINE_CELLS,
        estimators=[{"rule": "hard", "gamma": 2.0}],
        losses=[{"kind": "operator", "w": 2}],
        replicates=25,
        threads=1,
        out="records.csv",
        default_seed=2024,
        slope_band=(0.75, 1.25),
    ),
    # Twelve (estimator, loss) pairs share each data draw, so the grid
    # repeats sampling, Philox setup and sqrt_psd once per pair: a one-cell
    # pipeline shows here and not on spectral-grid.  At moderate p the work
    # is eigen-heavy corrections and the Stein divergence (which makes
    # run_grid add the Bregman guard).  It is the only workload asking for
    # worker threads, so it measures the parallelism choice.
    "estimator-menu": GridWorkload(
        name="estimator-menu",
        cells=[{"n": v, "p": v} for v in (100, 200, 300)],
        estimators=[
            {"rule": "hard", "gamma": 2.0},
            {"rule": "soft", "gamma": 2.0},
            {"rule": "adaptive-lasso", "gamma": 2.0, "corrections": ["psd-project"]},
        ],
        losses=[
            {"kind": "operator", "w": 2},
            {"kind": "operator", "w": 1},
            {"kind": "frobenius-squared", "normalized": True},
            {"kind": "bregman", "phi": "stein", "normalized": True},
        ],
        replicates=8,
        threads=2,
        out="records.json",
        default_seed=2024,
    ),
    # The only workload that runs model_spaces and lower_bound.  Monte Carlo
    # affinity dominates wall time and peak memory; gamma1_mixture
    # materializes 71,040 members to find 6,396 distinct components; and
    # sampling and matrices run on thousands of tiny matrices, the opposite
    # regime to spectral-grid.
    "lowerbound": LowerBoundWorkload(
        name="lowerbound", p=10, n=20, q=0.0, c=4.0, upsilon=0.1, default_seed=0,
    ),
}
