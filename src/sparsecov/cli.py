"""Command line front end.

Three subcommands:

- ``estimate``: threshold a sample covariance from data (or a given matrix)
- ``simulate``: run a Monte Carlo risk grid from a JSON config
- ``lowerbound``: evaluate the two-point lower bound machinery at one config

Exit codes: 0 success, 2 bad input or config, 3 numerical/domain failure,
4 computation exceeds the requested budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    BudgetError,
    CellError,
    ConfigError,
    DivergenceError,
    DomainError,
    EigenError,
    FitError,
    NumericalError,
    SparseCovError,
)
from .estimators import EstimatorSpec, apply_estimator, threshold_level
from .lower_bound import (
    assemble_lower_bound,
    chi_square_mixture_bound,
    exact_chi_square_small,
    gamma1_mixture,
    per_comparison_alpha,
    tv_affinity_mc,
)
from .matrices import load_matrix_csv, save_matrix_csv
from .model_spaces import build_config
from .rng import RngSeed
from .risk import export_records, run_grid
from .sampling import load_data_csv, mle_covariance


def _write_manifest(out_path: str, command: str, argv, started: float, outputs):
    """Record how a result was produced, next to the primary output.

    The manifest carries timestamps and timings, so it is the one output
    that differs between reruns of the same seeded command.  It also records
    what seeded bytes depend on: the numpy and BLAS build and the BLAS thread
    count, with an unset thread variable written as null.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": command,
        "argv": list(argv),
        "version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {
            name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "started_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - started,
        "outputs": list(outputs),
    }
    path = f"{out_path}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _estimator_from_args(args) -> EstimatorSpec:
    corrections = []
    if args.psd_project:
        corrections.append("psd-project")
    if args.bregman_guard:
        corrections.append("bregman-guard")
    return EstimatorSpec(
        rule=args.rule,
        gamma=args.gamma,
        eta=args.eta,
        corrections=tuple(corrections),
        keep_diagonal=args.keep_diagonal,
    )


def cmd_estimate(args, argv) -> int:
    started = time.perf_counter()
    if (args.data is None) == (args.covariance is None):
        raise ConfigError("provide exactly one of --data or --covariance")
    if args.data is not None:
        x = load_data_csv(args.data)
        n = x.shape[0]
        sstar = mle_covariance(x)
    else:
        if args.n is None:
            raise ConfigError("--covariance needs --n (sample size behind it)")
        n = args.n
        sstar = load_matrix_csv(args.covariance)
    spec = _estimator_from_args(args)
    estimate = apply_estimator(sstar, spec, n)
    p = estimate.shape[0]
    t = threshold_level(p, n, spec.gamma)
    off = ~np.eye(p, dtype=bool)
    kept = float(np.count_nonzero(estimate[off])) / max(int(off.sum()), 1)
    print(f"p={p} n={n} rule={spec.rule} gamma={spec.gamma:g} threshold={t:.6g}")
    print(f"off-diagonal entries kept: {kept:.4f}")
    print(f"min eigenvalue: {float(np.min(np.linalg.eigvalsh(estimate))):.6g}")
    outputs = []
    if args.out:
        save_matrix_csv(args.out, estimate)
        outputs.append(args.out)
        outputs.append(_write_manifest(args.out, "estimate", argv, started, outputs))
        print(f"wrote {args.out}")
    return 0


def cmd_simulate(args, argv) -> int:
    started = time.perf_counter()
    with open(args.config) as fh:
        config = json.load(fh)
    if args.seed is not None:
        config["seed"] = args.seed
    result = run_grid(config)
    print(f"{len(result.records)} cells done")
    for entry in result.fits:
        fit = entry["fit"]
        if fit is None:
            print(
                f"fit e{entry['estimator']}/l{entry['loss']}: "
                f"skipped ({entry['error']})"
            )
            continue
        target = "" if fit.target_exponent is None else f" target={fit.target_exponent:g}"
        print(
            f"fit e{entry['estimator']}/l{entry['loss']}: "
            f"slope={fit.slope:.4f} r2={fit.r_squared:.4f}{target}"
        )
    outputs = []
    if args.out:
        export_records(result.records, args.out)
        outputs.append(args.out)
        outputs.append(_write_manifest(args.out, "simulate", argv, started, outputs))
        print(f"wrote {args.out}")
    return 0


def cmd_lowerbound(args, argv) -> int:
    started = time.perf_counter()
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        cfg = build_config(
            int(raw["p"]),
            int(raw["n"]),
            float(raw["q"]),
            float(raw["c"]),
            float(raw.get("upsilon", args.upsilon)),
        )
    else:
        if None in (args.p, args.n, args.q, args.c):
            raise ConfigError("lowerbound needs --p --n --q --c (or --config)")
        cfg = build_config(args.p, args.n, args.q, args.c, args.upsilon)
    seed = RngSeed.parse(args.seed) if args.seed is not None else RngSeed(0)

    report: dict = {"config": cfg.to_json(), "seed": str(seed)}
    if cfg.k == 0:
        # family degenerates to the identity alone; nothing to distinguish
        report.update(
            {
                "alpha": {"bound": 0.0, "exact": None, "pair_count": 0},
                "chi_square": None,
                "affinity": {"value": 1.0, "std_error": 0.0, "samples": 0},
            }
        )
    else:
        alpha = per_comparison_alpha(cfg, exact_budget=args.budget)
        report["alpha"] = {
            "bound": alpha.bound,
            "exact": alpha.exact,
            "pair_count": alpha.pair_count,
        }
        envelope = chi_square_mixture_bound(cfg)
        try:
            exact = exact_chi_square_small(cfg, budget=args.budget)
        except BudgetError:
            exact = None
        report["chi_square"] = {
            "envelope": envelope.value,
            "below_target": envelope.below_target,
            "target": envelope.target,
            "p_lambda_min": envelope.p_lambda_min,
            "series_value": envelope.series_value,
            "series_ratio": envelope.series_ratio,
            "series_diverged": envelope.series_diverged,
            "exact": exact,
        }
        mix0 = gamma1_mixture(cfg, 0, budget=args.budget)
        mix1 = gamma1_mixture(cfg, 1, budget=args.budget)
        affinity = tv_affinity_mc(mix0, mix1, args.samples, seed)
        report["affinity"] = {
            "value": affinity.value,
            "std_error": affinity.std_error,
            "samples": affinity.samples,
        }
    bound = assemble_lower_bound(cfg, report["affinity"]["value"])
    report["lower_bound"] = bound.lower_bound
    report["rate_target"] = bound.rate_target

    print(
        f"p={cfg.p} n={cfg.n} q={cfg.q:g} c={cfg.c:g} "
        f"r={cfg.r} k={cfg.k} epsilon={cfg.epsilon:.6g}"
    )
    print(f"alpha bound: {report['alpha']['bound']:.6g}")
    if report["chi_square"] is not None:
        cs = report["chi_square"]
        ok = "below" if cs["below_target"] else "ABOVE"
        print(f"chi-square envelope: {cs['envelope']:.6g} ({ok} target {cs['target']})")
    aff = report["affinity"]
    print(f"affinity: {aff['value']:.6g} +/- {aff['std_error']:.2g}")
    print(f"lower bound: {report['lower_bound']:.6g}  rate target: {report['rate_target']:.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        _write_manifest(args.out, "lowerbound", argv, started, [args.out])
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecov",
        description="Thresholded covariance estimation and its risk laboratory.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="threshold a sample covariance")
    est.add_argument("--data", help="csv of samples, one row per observation")
    est.add_argument("--covariance", help="csv of an existing sample covariance")
    est.add_argument("--n", type=int, help="sample size behind --covariance")
    est.add_argument("--rule", default="hard", choices=("hard", "soft", "adaptive-lasso"))
    est.add_argument("--gamma", type=float, default=2.0)
    est.add_argument("--eta", type=float, default=3.0)
    est.add_argument("--keep-diagonal", action="store_true")
    est.add_argument("--psd-project", action="store_true")
    est.add_argument("--bregman-guard", action="store_true")
    est.add_argument("--out", help="write the estimate as csv")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run a risk grid from a json config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", help="override the config seed")
    sim.add_argument("--threads", type=int, default=1, help="has no effect")
    sim.add_argument("--out", help="write records as .csv or .json")
    sim.set_defaults(func=cmd_simulate)

    low = sub.add_parser("lowerbound", help="evaluate the lower bound at a config")
    low.add_argument("--config", help="json with p, n, q, c (and upsilon)")
    low.add_argument("--p", type=int)
    low.add_argument("--n", type=int)
    low.add_argument("--q", type=float)
    low.add_argument("--c", type=float)
    low.add_argument("--upsilon", type=float, default=0.1)
    low.add_argument("--seed", help="seed for the affinity estimate")
    low.add_argument("--samples", type=int, default=100_000)
    low.add_argument(
        "--budget",
        type=int,
        default=1_000_000,
        help="work cap for enumeration and exact summations",
    )
    low.add_argument("--out", help="write the full report as json")
    low.set_defaults(func=cmd_lowerbound)
    return parser


# Error classes to (exit code, message prefix), walked in order: the first
# row whose classes match the raised error decides.  Anything else propagates.
_EXIT_CODES = (
    ((BudgetError,), 4, "budget exceeded: "),
    ((DomainError, DivergenceError, NumericalError, EigenError, CellError, FitError), 3, ""),
    ((SparseCovError, OSError, ValueError, KeyError), 2, ""),
)
_MAPPED_ERRORS = tuple(cls for classes, _, _ in _EXIT_CODES for cls in classes)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except _MAPPED_ERRORS as exc:
        for classes, code, prefix in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"error: {prefix}{exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
