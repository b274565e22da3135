"""Certify minimax lower bounds for a small and a large least-favorable family.

The certificate bounds the chi-square distance between the two bit-anchored
mixtures (exactly at one bump per row, by a Gershgorin envelope otherwise),
certifies their total-variation affinity from it as 1 - sqrt(chi-square) / 2,
and combines everything into a risk bound.  Every step is a closed form, so
the family at p = 1000 costs no more than the one at p = 8.
"""

from sparsecov import build_config, certify


def show(p, n, q, c, upsilon):
    cert = certify(build_config(p, n, q, c, upsilon))
    cfg = cert.config
    print(f"family: p={cfg.p} n={cfg.n}  r={cfg.r} support rows, "
          f"k={cfg.k} bumps per row, eps={cfg.epsilon:.4f}")
    print(f"chi-square: envelope {cert.envelope:.6f}")
    if cert.exact is None:
        chi2, source = cert.envelope, "the envelope"
    else:
        chi2, source = cert.exact, "exact, one sum"
    print(f"affinity: certified >= {cert.affinity:.5f} "
          f"from chi-square {chi2:.6f} ({source})")
    print(f"separation alpha: {cert.alpha:.3e}")
    print(f"assembled lower bound: {cert.lower_bound:.3e}")
    print(f"rate target c^2 (log p / n)^(1-q): {cert.rate_target:.3e}")


def main():
    show(8, 20, 0.0, 4.0, 0.1)
    print()
    show(1000, 4000, 0.0, 8.0, 0.1)


if __name__ == "__main__":
    main()
