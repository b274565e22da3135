"""Release gate: eleven end-to-end checks of the package's headline claims.

Each test prints exactly one pass/fail line (visible under ``pytest -s``)
with the measured quantity and its allowance, then asserts.  Several checks
share one simulation grid; it is computed once and cached for the session.
"""

import itertools
import json
import math
import time
from functools import lru_cache

import numpy as np

from lab_oracles import (
    cross_product_integral,
    exact_chi_square_small,
    gamma1_mixture,
    tv_affinity_mc,
)
from sparsecov.cli import main
from sparsecov.estimators import (
    EstimatorSpec, apply_estimator, psd_project, threshold_estimate,
)
from sparsecov.losses import bregman_divergence, closed_form_divergence, evaluate_loss
from sparsecov.lower_bound import _overlap_law, certify
from sparsecov.matrices import operator_norm
from sparsecov.model_spaces import build_config
from sparsecov.risk import banded_sigma, export_records, run_grid
from sparsecov.losses import LossSpec
from sparsecov.rng import RngSeed
from sparsecov.sampling import mle_covariance, sample_gaussian


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


GRID_CELLS = [{"n": v, "p": v} for v in (100, 200, 400, 800)]
GRID_SEED = "2024"


def spectral_grid_config():
    return {
        "cells": GRID_CELLS,
        "truth": {"kind": "banded", "band": 2, "scale": 1.0},
        "estimators": [{"rule": "hard", "gamma": 2.0}],
        "losses": [{"kind": "operator", "w": 2}],
        "replicates": 100,
        "seed": GRID_SEED,
    }


# Criteria 1 and 2 read the headline grid under one loss each.  A replicate's
# draw depends only on the seed and the cell index, so one run scores both:
# fit 0 is the spectral loss, fit 1 the normalized Frobenius loss.
SHARED_LOSSES = [
    {"kind": "operator", "w": 2},
    {"kind": "frobenius-squared", "normalized": True},
]


@lru_cache(maxsize=None)
def spectral_grid():
    start = time.perf_counter()
    result = run_grid(dict(spectral_grid_config(), losses=SHARED_LOSSES))
    return result, time.perf_counter() - start


def test_criterion_01_spectral_rate_slope():
    """Hard thresholding attains the (log p / n)^1 spectral-risk rate on an
    exactly sparse banded truth: fitted slope within 1.0 +/- 0.25."""
    result, elapsed = spectral_grid()
    fit = result.fits[0]["fit"]
    ok = abs(fit.slope - 1.0) <= 0.25 and elapsed <= 600.0
    report(1, ok, f"spectral slope {fit.slope:.4f} target 1.0+/-0.25, "
                  f"r2={fit.r_squared:.4f}, {elapsed:.0f}s (cap 600s)")
    assert ok


def test_criterion_02_frobenius_rate_slopes():
    """Normalized Frobenius risk follows (log p / n)^(1 - q/2): slope near
    1.0 on the exactly sparse grid and near 0.75 on a q = 1/2 decay truth."""
    result, shared = spectral_grid()
    fit0 = result.fits[1]["fit"]
    start = time.perf_counter()
    cfg_half = {
        "cells": [{"n": n, "p": 100} for n in (3200, 6400, 12800, 25600)],
        "truth": {"kind": "decay", "amplitude": 0.36, "exponent": 2.0},
        "estimators": [{"rule": "hard", "gamma": 2.0}],
        "losses": [{"kind": "frobenius-squared", "normalized": True}],
        "replicates": 60,
        "seed": "2025",
    }
    fit_half = run_grid(cfg_half).fits[0]["fit"]
    elapsed = shared + time.perf_counter() - start
    ok = (
        abs(fit0.slope - 1.0) <= 0.25
        and abs(fit_half.slope - 0.75) <= 0.25
        and elapsed <= 900.0
    )
    report(2, ok, f"frobenius slopes q=0: {fit0.slope:.4f} (1.0+/-0.25), "
                  f"q=1/2: {fit_half.slope:.4f} (0.75+/-0.25), "
                  f"{elapsed:.0f}s (cap 900s)")
    assert ok


def test_criterion_03_bregman_route_agreement():
    """The eigen double-sum and the matrix-identity closed forms agree to
    1e-8 relative on 100 seeded well-conditioned pairs."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 9))
        mats = []
        for _ in range(2):
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            mats.append((q * rng.uniform(0.5, 4.0, size=p)) @ q.T)
        for name in ("stein", "von-neumann", "squared-frobenius"):
            a = bregman_divergence(*mats, name)
            b = closed_form_divergence(*mats, name)
            worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    ok = worst <= 1e-8
    report(3, ok, f"max relative gap between divergence routes {worst:.2e} (allow 1e-8)")
    assert ok


def test_criterion_04_integral_against_monte_carlo():
    """The closed-form cross-product integral matches a 1e6-sample Gaussian
    average within 2 percent on ten random triples."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = 2 + seed % 2
        def sym(scale):
            m = rng.standard_normal((p, p)) * scale
            return (m + m.T) / 2.0
        s0 = np.eye(p) + sym(0.1)
        s1 = s0 + sym(0.1)
        s2 = s0 + sym(0.1)
        value = cross_product_integral(s0, s1, s2)
        g = RngSeed(400 + seed).generator()
        x = g.standard_normal((1_000_000, p)) @ np.linalg.cholesky(s0).T

        def logpdf(pts, cov):
            inv = np.linalg.inv(cov)
            _, logdet = np.linalg.slogdet(cov)
            quad = np.einsum("ij,jk,ik->i", pts, inv, pts)
            return -0.5 * (quad + logdet + p * math.log(2.0 * math.pi))

        mc = float(np.mean(np.exp(logpdf(x, s1) + logpdf(x, s2) - 2.0 * logpdf(x, s0))))
        worst = max(worst, abs(mc - value) / value)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed <= 60.0
    report(4, ok, f"integral vs monte carlo, worst relative gap {worst:.4f} "
                  f"(allow 0.02), {elapsed:.0f}s (cap 60s)")
    assert ok


def test_criterion_05_overlap_eigenstructure_exhaustive():
    """Every pattern pair with overlap J has difference product with exactly
    two nonzero eigenvalues J eps^2 (none when J = 0), checked exhaustively."""
    p, eps = 10, 0.05
    support = range(5, 10)
    s0 = np.eye(p)
    violations = 0
    checked = 0
    for k in (1, 2, 3):
        for pat1 in itertools.combinations(support, k):
            for pat2 in itertools.combinations(support, k):
                s1 = np.eye(p)
                s2 = np.eye(p)
                for j in pat1:
                    s1[0, j] += eps
                    s1[j, 0] += eps
                for j in pat2:
                    s2[0, j] += eps
                    s2[j, 0] += eps
                eigs = np.linalg.eigvals((s0 - s1) @ (s0 - s2))
                nonzero = eigs[np.abs(eigs) > 1e-10]
                overlap = len(set(pat1) & set(pat2))
                want = [overlap * eps**2] * 2 if overlap else []
                checked += 1
                if len(nonzero) != len(want) or not np.allclose(nonzero, want, atol=1e-10):
                    violations += 1
    ok = violations == 0
    report(5, ok, f"overlap eigenstructure: {checked} pairs, {violations} violations")
    assert ok


def test_criterion_06_overlap_law_exact():
    """The overlap law the envelope walks equals direct enumeration and each
    term obeys the (k^2 / (p_lambda - k))^j envelope."""
    worst_gap = 0.0
    bound_violations = 0
    cases = 0
    for k in range(1, 5):
        for p_lambda in range(2 * k, 13):
            sides = _overlap_law(k, p_lambda)
            mass = math.fsum(w for _, side in sides for w in side)
            walked = {j: w / mass for js, side in sides for j, w in zip(js, side)}
            law = [walked.get(j, 0.0) for j in range(k + 1)]
            first = set(range(k))
            counts = [0] * (k + 1)
            for pat in itertools.combinations(range(p_lambda), k):
                counts[len(first & set(pat))] += 1
            total = math.comb(p_lambda, k)
            for j in range(k + 1):
                gap = abs(law[j] - counts[j] / total)
                worst_gap = max(worst_gap, gap)
                if j >= 1 and p_lambda > k:
                    if law[j] > (k**2 / (p_lambda - k)) ** j + 1e-15:
                        bound_violations += 1
            cases += 1
    ok = worst_gap <= 1e-12 and bound_violations == 0
    report(6, ok, f"overlap law: {cases} (k, p) cases, worst gap {worst_gap:.1e} "
                  f"(allow 1e-12), {bound_violations} envelope violations")
    assert ok


@lru_cache(maxsize=None)
def reference_config():
    return build_config(8, 20, 0.0, 4.0, 0.1)


def test_criterion_07_chi_square_control():
    """The enumerated exact chi-square distance sits at or below its
    Gershgorin envelope, and both sit below 3/4: at the p=8 reference
    configuration (k = 1) and at p=8 with k = 2, where the envelope is what
    lowerbound certifies the affinity from."""
    start = time.perf_counter()
    pairs = []
    for cfg in (reference_config(), build_config(8, 50, 0.0, 6.0, 0.1)):
        pairs.append((cfg.k, exact_chi_square_small(cfg), certify(cfg).envelope))
    elapsed = time.perf_counter() - start
    ok = elapsed <= 60.0 and all(
        exact <= env + 1e-12 and env < 0.75 and exact < 0.75 for _, exact, env in pairs
    )
    detail = ", ".join(
        f"k={k}: exact {exact:.4f} <= envelope {env:.4f}" for k, exact, env in pairs
    )
    report(7, ok, f"chi-square {detail}, both < 0.75, {elapsed:.0f}s (cap 60s)")
    assert ok


def test_criterion_08_affinity_floor():
    """The Monte Carlo affinity between the two anchored mixtures respects
    the 1 - sqrt(chi-square) floor within three standard errors."""
    start = time.perf_counter()
    cfg = reference_config()
    chi2 = exact_chi_square_small(cfg)
    est = tv_affinity_mc(
        gamma1_mixture(cfg, 0), gamma1_mixture(cfg, 1), 100_000, RngSeed(8)
    )
    elapsed = time.perf_counter() - start
    floor = 1.0 - math.sqrt(chi2) - 3.0 * est.std_error
    ok = est.value >= floor and elapsed <= 300.0
    report(8, ok, f"affinity {est.value:.5f} >= floor {floor:.5f} "
                  f"(se {est.std_error:.1e}), {elapsed:.0f}s (cap 300s)")
    assert ok


def test_criterion_09_psd_projection_chain():
    """Projecting an indefinite thresholded estimate onto the PSD cone at
    most doubles its distance to the truth, in every tracked norm."""
    truth = banded_sigma(30, 2, 0.2)
    spec = EstimatorSpec(rule="hard", gamma=1.0)
    violations = 0
    indefinite = 0
    for seed in range(100):
        x = sample_gaussian(truth, 40, RngSeed(900).substream(seed))
        est = threshold_estimate(mle_covariance(x), spec, 40)
        if float(np.min(np.linalg.eigvalsh(est))) < 0.0:
            indefinite += 1
        proj = psd_project(est)
        for w in (1, 2, np.inf):
            if operator_norm(proj - truth, w) > 2.0 * operator_norm(est - truth, w) + 1e-10:
                violations += 1
        if np.linalg.norm(proj - truth) > 2.0 * np.linalg.norm(est - truth) + 1e-10:
            violations += 1
    ok = violations == 0 and indefinite > 50
    report(9, ok, f"projection chain: 100 estimates ({indefinite} indefinite), "
                  f"{violations} violations of the 2x bound")
    assert ok


def test_criterion_10_lower_bound_below_empirical_minimax():
    """The assembled two-point bound, from the certified affinity, cannot
    exceed the empirical worst-case risk of hard thresholding over the
    deduplicated family."""
    start = time.perf_counter()
    cfg = build_config(6, 100, 0.0, 4.0, 0.1)
    # the distinct members, in family order: the two anchored mixtures'
    # components, since members with different bits never coincide
    mixtures = [gamma1_mixture(cfg, 0), gamma1_mixture(cfg, 1)]
    members = np.concatenate([mix.covariances for mix in mixtures])
    spec = EstimatorSpec(rule="hard", gamma=2.0)
    loss = LossSpec(kind="operator", w=2)
    master = RngSeed(10)
    worst_mean = worst_se = -math.inf
    for i, sig in enumerate(members):
        seed = master.substream(i)
        risks = []
        for r in range(50):
            sample = mle_covariance(sample_gaussian(sig, cfg.n, seed.substream(r)))
            risks.append(evaluate_loss(loss, apply_estimator(sample, spec, cfg.n), sig))
        mean = float(np.mean(risks))
        if mean > worst_mean:
            worst_mean = mean
            worst_se = float(np.std(risks, ddof=1)) / math.sqrt(len(risks))
    bound = certify(cfg).lower_bound
    elapsed = time.perf_counter() - start
    allowance = worst_mean + 3.0 * worst_se
    ok = bound <= allowance and elapsed <= 300.0
    report(10, ok, f"lower bound {bound:.2e} <= empirical minimax "
                   f"{worst_mean:.4f} + 3se over {len(members)} members, "
                   f"{elapsed:.0f}s (cap 300s)")
    assert ok


def test_criterion_11_thread_count_byte_identity(tmp_path):
    """Rerunning the headline grid's spectral loss alone through ``simulate
    --threads 8`` reproduces the cached grid's spectral records byte for byte."""
    one, _ = spectral_grid()
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(spectral_grid_config()))
    a_path = tmp_path / "one.csv"
    b_path = tmp_path / "eight.csv"
    export_records([r for r in one.records if r.loss.kind == "operator"], a_path)
    code = main(["simulate", "--config", str(config), "--threads", "8", "--out", str(b_path)])
    same = code == 0 and a_path.read_bytes() == b_path.read_bytes()
    report(11, same, f"cached csv vs simulate --threads 8 csv identical: {same} "
                     f"({a_path.stat().st_size} bytes)")
    assert same
