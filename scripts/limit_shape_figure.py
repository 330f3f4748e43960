"""Reproduce the hexagon limit-shape figure: sampled beads against the
analytic boundary curves.

Documented invocation (the p=4, q=12 figure)::

    python scripts/limit_shape_figure.py --out figure_4_12.svg

which is equivalent to driving the CLI directly::

    python -m beadproc.cli sample --p 4 --q 12 --count 60 --seed 7 \
        --svg figure_4_12.svg --out /dev/null

and then prints, per line, the fraction of particles inside the widened
band [c_S - margin, d_S + margin].
"""

import argparse
import sys

from beadproc.checks import in_band_fractions
from beadproc.cli import run
from beadproc.model import HexagonSpec
from beadproc.sampler import RandomStream, sample_positions
from beadproc.scaling import support_interval


def band_report(p, q, count, seed, margin):
    spec = HexagonSpec(p, q)
    k = (q - p) / p
    fracs = in_band_fractions(spec, sample_positions(RandomStream(seed), spec, count), margin)
    print(f"# (p, q) = ({p}, {q}), {count} configurations, margin {margin}")
    print("line,S,c,d,inside_fraction")
    for t, frac in zip(spec.lines(), fracs):
        S = t / p
        c, d = support_interval(k, S)
        print(f"{t},{S:.6g},{c:.6g},{d:.6g},{frac:.4f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=4)
    ap.add_argument("--q", type=int, default=12)
    ap.add_argument("--count", type=int, default=60, help="configurations to overlay")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--margin", type=float, default=0.05)
    ap.add_argument("--out", default="figure_4_12.svg")
    args = ap.parse_args(argv)

    code = run(
        [
            "sample",
            "--p", str(args.p),
            "--q", str(args.q),
            "--count", str(args.count),
            "--seed", str(args.seed),
            "--svg", args.out,
            "--out", "/dev/null",
        ]
    )
    if code != 0:
        return code
    print(f"wrote {args.out}", file=sys.stderr)
    band_report(args.p, args.q, args.count, args.seed, args.margin)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
