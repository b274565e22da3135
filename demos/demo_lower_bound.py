"""Certify minimax lower bounds for a small and a large least-favorable family.

The pipeline: build the family configuration, bound the chi-square
distance between the two bit-anchored mixtures (exactly at one bump per
row, by a Gershgorin envelope otherwise), certify their total-variation
affinity from it as 1 - sqrt(chi-square) / 2, and combine everything into
a risk bound.  Every step is a closed form, so the family at p = 1000 costs
no more than the one at p = 8.
"""

from sparsecov import (
    assemble_lower_bound,
    build_config,
    certified_affinity,
    chi_square_mixture_bound,
)


def certify(p, n, q, c, upsilon):
    cfg = build_config(p, n, q, c, upsilon)
    print(f"family: p={cfg.p} n={cfg.n}  r={cfg.r} support rows, "
          f"k={cfg.k} bumps per row, eps={cfg.epsilon:.4f}")

    env = chi_square_mixture_bound(cfg)
    aff = certified_affinity(cfg)
    print(f"chi-square: envelope {env.value:.6f} (target < {env.target})")
    source = "exact, one sum" if cfg.k == 1 else "the envelope"
    print(f"affinity: certified >= {aff.value:.5f} "
          f"from chi-square {aff.chi_square:.6f} ({source})")

    res = assemble_lower_bound(cfg, aff.value)
    print(f"separation alpha: {res.alpha_bound:.3e}")
    print(f"assembled lower bound: {res.lower_bound:.3e}")
    print(f"rate target c^2 (log p / n)^(1-q): {res.rate_target:.3e}")


def main():
    certify(8, 20, 0.0, 4.0, 0.1)
    print()
    certify(1000, 4000, 0.0, 8.0, 0.1)


if __name__ == "__main__":
    main()
