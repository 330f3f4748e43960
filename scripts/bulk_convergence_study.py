"""Finite-size kernel against the bulk limit, with the gauge factor B = pi u_S / nu.

Runs the prefactor-normalized comparison on a small offset grid at k = 2,
S = 2 and prints the sup error per p; it roughly halves with each doubling
of p.

    python scripts/bulk_convergence_study.py
    python scripts/bulk_convergence_study.py --k 2 --S 1.5 --sizes 16 32 64
"""

import argparse

from beadproc.checks import bulk_offsets
from beadproc.scaling import bulk_convergence_probe, scaling_context


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=float, default=2.0)
    ap.add_argument("--S", type=float, default=2.0)
    ap.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64])
    ap.add_argument("--max-offset", type=int, default=2)
    args = ap.parse_args(argv)

    offsets = bulk_offsets(args.max_offset)
    print(f"# k = {args.k}, S = {args.S}, {len(offsets)} probe points")
    print(f"# B = {scaling_context(args.k, args.S).B:.10g}")
    print("p,sup_abs_err,same_line_sup")
    for p in args.sizes:
        rows = bulk_convergence_probe(args.k, args.S, p, offsets)
        sup = max(r.abs_err for r in rows)
        same = max(r.abs_err for r in rows if r.s0 == r.t0)
        print(f"{p},{sup:.6g},{same:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
