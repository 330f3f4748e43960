"""Finite-size kernel against the bulk limit, for both sign variants of the
gauge factor B.

Runs the prefactor-normalized comparison on a small offset grid at k = 2,
S = 2 and prints the sup error per (variant, p).  One variant's error halves
with p; the other's does not decay at all — that is the study's point.

    python scripts/bulk_convergence_study.py
    python scripts/bulk_convergence_study.py --k 2 --S 1.5 --sizes 16 32 64
"""

import argparse

from beadproc.checks import bulk_offsets
from beadproc.scaling import b_factor_variants, bulk_convergence_probe


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=float, default=2.0)
    ap.add_argument("--S", type=float, default=2.0)
    ap.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64])
    ap.add_argument("--max-offset", type=int, default=2)
    args = ap.parse_args(argv)

    offsets = bulk_offsets(args.max_offset)
    variants = b_factor_variants(args.k, args.S)
    print(f"# k = {args.k}, S = {args.S}, {len(offsets)} probe points")
    for name, value in sorted(variants.items()):
        print(f"# B[{name}] = {value:.10g}")
    print("variant,p,sup_abs_err,same_line_sup")

    sups = {}
    for name in sorted(variants):
        for p in args.sizes:
            rows = bulk_convergence_probe(args.k, args.S, p, offsets, b_variant=name)
            sup = max(r.abs_err for r in rows)
            same = max(r.abs_err for r in rows if r.prefactor_free)
            sups[name, p] = sup
            print(f"{name},{p},{sup:.6g},{same:.6g}")

    conv = min(sorted(variants), key=lambda n: sups[n, max(args.sizes)])
    print(f"# converging variant: {conv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
