"""Assemble a minimax lower bound for a small least-favorable family.

The pipeline: build the family configuration, check the pairwise
separation, bound and then exactly evaluate the chi-square distance
between the two bit-anchored mixtures, certify their total-variation
affinity from it as 1 - sqrt(chi-square) / 2, and combine everything
into a risk bound.
"""

from sparsecov import (
    assemble_lower_bound,
    build_config,
    certified_affinity,
    chi_square_mixture_bound,
    count_theta,
    exact_chi_square_small,
    per_comparison_alpha,
)


def main():
    cfg = build_config(8, 20, 0.0, 4.0, 0.1)
    print(f"family: p={cfg.p} n={cfg.n}  r={cfg.r} support rows, "
          f"k={cfg.k} bumps per row, eps={cfg.epsilon:.4f}")
    print(f"members: {count_theta(cfg)}")
    print()

    alpha = per_comparison_alpha(cfg)
    print(f"separation alpha: closed form {alpha.bound:.3e}", end="")
    if alpha.exact is not None:
        print(f", exact minimum over {alpha.pair_count} pairs {alpha.exact:.3e}")
    else:
        print(" (exact search skipped, over budget)")

    env = chi_square_mixture_bound(cfg)
    chi2 = exact_chi_square_small(cfg)
    print(f"chi-square: envelope {env.value:.4f} "
          f"(target < {env.target}), exact by enumeration {chi2:.6f}")
    if env.series_diverged:
        # the coarse geometric majorant needs p/4 - 1 > k; at p=8 it fails
        # even though the envelope itself is finite and small
        print("  geometric majorant diverges at this size; envelope is the "
              "operative check")

    aff = certified_affinity(cfg)
    print(f"affinity: certified >= {aff.value:.5f} "
          f"from chi-square {aff.chi_square:.6f} ({aff.formula})")
    print()

    res = assemble_lower_bound(cfg, aff.value)
    print(f"assembled lower bound: {res.lower_bound:.3e}")
    print(f"rate target c^2 (log p / n)^(1-q): {res.rate_target:.3e}")


if __name__ == "__main__":
    main()
