"""Command line front end.

Three subcommands:

- ``estimate``: threshold a sample covariance from data (or a given matrix)
- ``simulate``: run a Monte Carlo risk grid from a JSON config
- ``lowerbound``: certify the two-point lower bound at one
  (p, n, q, c, upsilon), given as flags, in closed form

Exit codes: 0 success, 2 bad input or config, 3 numerical/domain failure,
4 computation exceeds the available memory.

Importing this module, ``--help``, ``--version`` and ``lowerbound`` load no
numpy: ``estimate`` and ``simulate`` import the numeric layers when they run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .errors import BudgetError, ConfigError, DomainError, EigenError, SchemaError, SparseCovError
from .lower_bound import CHI_SQUARE_TARGET, certify
from .model_spaces import DEFAULT_UPSILON, build_config
from .rng import RngSeed


def _write_manifest(out_path: str, command: str, argv, started: float):
    """Record how a result was produced, next to the primary output.

    The manifest carries timestamps and timings, so it is the one output
    that differs between reruns of the same seeded command.  It also records
    what seeded bytes depend on: the numpy and BLAS build and the BLAS thread
    count, with an unset thread variable written as null.  numpy and its
    BLAS are recorded only when the command loaded numpy; a ``lowerbound``
    never does, so its output cannot depend on them, and it writes null
    there.
    """
    np = sys.modules.get("numpy")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"] if np else {}
    manifest = {
        "command": command,
        "argv": list(argv),
        "version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__ if np else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {
            name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "started_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - started,
        "outputs": [out_path],
    }
    with open(f"{out_path}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _estimator_from_args(args):
    from .estimators import EstimatorSpec

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
    import numpy as np

    from .estimators import _corrected, threshold_estimate, threshold_level
    from .matrices import _Symmetric, load_matrix_csv, save_matrix_csv
    from .sampling import load_data_csv, mle_covariance

    if (args.data is None) == (args.covariance is None):
        raise ConfigError("provide exactly one of --data or --covariance")
    if args.data is not None:
        if args.n is not None:
            raise ConfigError("--n goes with --covariance; --data takes n from its rows")
        x = load_data_csv(args.data)
        n = x.shape[0]
        sstar = mle_covariance(x)  # exactly symmetric as it forms it
    else:
        if args.n is None:
            raise ConfigError("--covariance needs --n (sample size behind it)")
        n = args.n
        sstar = load_matrix_csv(args.covariance)  # validated as it is read
    spec = _estimator_from_args(args)
    # wrapped, not validated: neither the estimator nor the writer checks it again
    thresholded = threshold_estimate(_Symmetric(sstar), spec, n)
    # what the threshold kept, before a correction fills or replaces it
    kept = np.count_nonzero(thresholded) - np.count_nonzero(np.diagonal(thresholded))
    result = _corrected(_Symmetric(thresholded), spec, n)
    estimate = result.matrix
    p = estimate.shape[0]
    t = threshold_level(p, n, spec.gamma)
    # a guard or a projection that clipped nothing leaves the spectrum in the carrier
    if "eigen" in vars(result):
        least = float(result.eigen.eigenvalues[-1])
    else:
        least = float(np.min(np.linalg.eigvalsh(estimate)))
    print(f"p={p} n={n} rule={spec.rule} gamma={spec.gamma:g} threshold={t:.6g}")
    print(f"off-diagonal entries kept: {kept / max(p * p - p, 1):.4f}")
    print(f"min eigenvalue: {least:.6g}")
    if args.out:
        save_matrix_csv(args.out, result)
        _write_manifest(args.out, "estimate", argv, started)
        print(f"wrote {args.out}")
    return 0


def cmd_simulate(args, argv) -> int:
    started = time.perf_counter()
    from .losses import LossSpec
    from .risk import _export_format, _grid_specs, export_records, run_grid

    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise SchemaError(f"grid config must be a JSON object, got {type(config).__name__}")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out:
        # an output the grid could not be written to fails before any cell runs
        _export_format(args.out, _grid_specs(config, "losses", LossSpec.from_json))
    result = run_grid(config)
    # one record per (cell, estimator, loss) and one fit per (estimator, loss)
    cells = len(result.records) // len(result.fits)
    print(f"{cells} cells done ({len(result.records)} records)")
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
    if args.out:
        export_records(result.records, args.out)
        _write_manifest(args.out, "simulate", argv, started)
        print(f"wrote {args.out}")
    return 0


def cmd_lowerbound(args, argv) -> int:
    started = time.perf_counter()
    if None in (args.p, args.n, args.q, args.c):
        raise ConfigError("lowerbound needs --p --n --q --c")
    cfg = build_config(args.p, args.n, args.q, args.c, args.upsilon)
    seed = RngSeed.parse(args.seed) if args.seed is not None else RngSeed(0)

    cert = certify(cfg)
    report = {
        "config": cfg.to_json(),
        "seed": str(seed),
        "alpha": {"bound": cert.alpha},
        "chi_square": {
            "envelope": cert.envelope,
            "below_target": cert.envelope < CHI_SQUARE_TARGET,
            "target": CHI_SQUARE_TARGET,
            "p_lambda_min": cert.p_lambda_min,
            # past k = 1 the envelope certifies, and no exact value is computed
            "exact": cert.exact,
        },
        # 1 - sqrt(chi2) / 2, a lower bound with no sampling error
        "affinity": {"value": cert.affinity, "std_error": 0.0, "certified": True},
        "lower_bound": cert.lower_bound,
        "rate_target": cert.rate_target,
    }

    print(
        f"p={cfg.p} n={cfg.n} q={cfg.q:g} c={cfg.c:g} "
        f"r={cfg.r} k={cfg.k} epsilon={cfg.epsilon:.6g}"
    )
    print(f"alpha bound: {report['alpha']['bound']:.6g}")
    cs = report["chi_square"]
    ok = "below" if cs["below_target"] else "ABOVE"
    print(f"chi-square envelope: {cs['envelope']:.6g} ({ok} target {cs['target']})")
    if cs["exact"] is not None:
        print(f"chi-square exact: {cs['exact']:.6g}")
    print(f"affinity: {report['affinity']['value']:.6g} (certified)")
    print(f"lower bound: {report['lower_bound']:.6g}  rate target: {report['rate_target']:.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        _write_manifest(args.out, "lowerbound", argv, started)
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

    low = sub.add_parser(
        "lowerbound",
        help="certify the lower bound at one (p, n, q, c, upsilon)",
        description="Certify the two-point minimax lower bound "
        "(1/4) alpha (r/2) affinity at one (p, n, q, c, upsilon).  The affinity "
        "is the certified 1 - sqrt(chi2)/2, with chi2 the exact chi-square of the "
        "two bit-anchored mixtures as a sum over one index at k = 1, and its "
        "Gershgorin envelope at k >= 2.  Nothing is sampled or enumerated.",
    )
    low.add_argument("--p", type=int)
    low.add_argument("--n", type=int)
    low.add_argument("--q", type=float)
    low.add_argument("--c", type=float)
    low.add_argument("--upsilon", type=float, default=DEFAULT_UPSILON)
    low.add_argument("--seed", help="recorded in the report; has no effect")
    low.add_argument("--out", help="write the full report as json")
    low.set_defaults(func=cmd_lowerbound)
    return parser


# Error classes to (exit code, message prefix), walked in order: the first
# row whose classes match the raised error decides.  Anything else propagates.
_EXIT_CODES = (
    ((BudgetError, MemoryError), 4, "budget exceeded: "),
    ((DomainError, EigenError), 3, ""),
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
