"""Command-line surface: sampling, kernel evaluation, enumeration, limits, validation.

Exit codes: 0 success, 1 validation-suite failure, 2 usage error or a value
beyond the range of a double (``OverflowError``).  CSV rows and bare values
carry numbers with 17 significant digits (full double round-trip),
locale-independent; JSON carries Python's shortest repr, which parses back
to the same double.  CSV schemas:

* configurations  -> ``sample,line,index,position``
* line densities  -> ``s,y,t,x,value``
* limit shape     -> ``S,c,d``
* bulk probe      -> ``p,s0,t0,X,Y,normalized,limit,abs_err``
* validation      -> ``suite,check,status,measure,threshold``

JSON mirrors CSV inside an envelope ``{"spec": {...}, "seed": ..., "rows": [...]}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import checks, scaling
from . import hexagon as hx
from .kernel import kernel_context, kernel_matrix, line_density, npoint_correlation
from .model import HexagonSpec
from .sampler import RandomStream, sample_positions

__all__ = ["main", "run"]


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_rows(args, cols: Sequence[str], rows, spec_fields: dict, seed=None) -> None:
    """Write ``rows`` (tuples, one type per column) as CSV or a JSON envelope."""
    if getattr(args, "format", "csv") == "json":
        payload = {"spec": spec_fields, "seed": seed, "rows": [dict(zip(cols, r)) for r in rows]}
        _write_text(args.out, json.dumps(payload) + "\n")
    else:
        # One %-template for the whole table, typed by its first row:
        # '%.17g' % v == format(v, '.17g') for every float.
        row = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n" if rows else ""
        _write_text(args.out, ",".join(cols) + "\n" + "".join([row % r for r in rows]))


def _make_stream(args) -> RandomStream:
    stream = RandomStream(args.seed)
    if args.seed is None:
        print(f"seed: {stream.entropy}", file=sys.stderr)
    return stream


# --- sample -------------------------------------------------------------------


def _svg_document(spec: HexagonSpec, beads: Sequence[tuple[int, int]], xs: np.ndarray) -> str:
    """The figure of ``xs`` (one row per configuration, columns ``beads``) over the band ``_band(k, 256)``."""
    p = spec.p
    k = (spec.q - spec.p) / spec.p
    span = spec.p + spec.q  # boundary curves run over t in [0, p+q]
    sx, sy, m = 42.0, 340.0, 30.0
    width, height = 2 * m + span * sx, 2 * m + sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for t in spec.lines():
        x0 = m + t * sx
        parts.append(
            f'<line x1="{x0:.2f}" y1="{m + sy:.2f}" x2="{x0:.2f}" y2="{m:.2f}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    band = _band(k, 256)
    for pick in (1, 2):  # lower, then upper boundary
        pts = " ".join(f"{m + p * row[0] * sx:.2f},{m + (1.0 - row[pick]) * sy:.2f}" for row in band)
        parts.append(f'<polyline fill="none" stroke="#d62728" stroke-width="1.5" points="{pts}"/>')
    # one circle template per bead of a configuration, filled with every row's y
    circles = [f'<circle cx="{m + t * sx:.2f}" cy="%.2f" r="2.2" fill="#1f77b4"/>' for t, _ in beads]
    parts.append("\n".join(circles * xs.shape[0]) % tuple((m + (1.0 - xs) * sy).ravel().tolist()))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_sample(args) -> int:
    spec = HexagonSpec(args.p, args.q)
    stream = _make_stream(args)
    lines = sample_positions(stream, spec, args.count, threads=args.threads)
    # column j of xs is bead (line, index) = beads[j]; row s is configuration s
    beads = [(t, i) for t in spec.lines() for i in range(1, lines[t - 1].shape[1] + 1)]
    xs = np.concatenate(lines, axis=1)
    cols = ("sample", "line", "index", "position")
    if args.format == "json":
        seed = args.seed if args.seed is not None else stream.entropy
        rows = [(s, t, i, x) for s, row in enumerate(xs.tolist()) for (t, i), x in zip(beads, row)]
        _emit_rows(args, cols, rows, {"p": spec.p, "q": spec.q}, seed)
    else:
        # one row template per configuration: its sample number goes in
        # first, leaving a %.17g slot per bead for the positions
        row = "".join(f"%d,{t},{i},%%.17g\n" for t, i in beads)
        numbers = tuple(s for s in range(args.count) for _ in beads)
        body = ("".join([row] * args.count) % numbers) % tuple(xs.ravel().tolist())
        _write_text(args.out, ",".join(cols) + "\n" + body)
    if args.svg:
        svg = _svg_document(spec, beads, xs)  # before the file opens: a failure leaves no empty file
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


# --- kernel evaluations ---------------------------------------------------------


def _cmd_kernel(args) -> int:
    ctx = kernel_context(HexagonSpec(args.p, args.q))
    val = kernel_matrix(ctx, args.s, args.y, args.t, args.x)[0, 0]  # one entry: a 1x1 block
    _write_text(args.out, _fmt(val) + "\n")
    return 0


def _cmd_density(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    spec = HexagonSpec(args.p, args.q)
    ctx = kernel_context(spec)
    xs = (np.arange(args.points) + 0.5) / args.points
    vals = line_density(ctx, args.t, xs)
    rows = [(args.t, float(x), args.t, float(x), float(v)) for x, v in zip(xs, vals)]
    _emit_rows(args, ("s", "y", "t", "x", "value"), rows, {"p": spec.p, "q": spec.q})
    return 0


def _parse_point(text: str) -> tuple[int, float]:
    try:
        line_s, pos_s = text.split(":")
        return int(line_s), float(pos_s)
    except ValueError as exc:
        raise ValueError(f"point must look like LINE:POSITION, got {text!r}") from exc


def _cmd_correlate(args) -> int:
    ctx = kernel_context(HexagonSpec(args.p, args.q))
    points = [_parse_point(s) for s in args.point]
    _write_text(args.out, _fmt(npoint_correlation(ctx, points)) + "\n")
    return 0


# --- enumeration ----------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    configs = hx.enumerate_configurations(hx.DiscreteHexagon(args.n, args.p, args.q))
    if args.total_only:
        _write_text(args.out, f"{len(configs)}\n")
        return 0
    rows = [
        (s, t, i, x)
        for s, cfg in enumerate(configs)
        for t in range(1, args.p + args.q)
        for i, x in enumerate(cfg[t], start=1)
    ]
    _emit_rows(
        args,
        ("sample", "line", "index", "position"),
        rows,
        {"n": args.n, "p": args.p, "q": args.q},
    )
    return 0


# --- scaling --------------------------------------------------------------------


def _band(k: float, points: int) -> list[tuple[float, float, float]]:
    """Rows ``(S, c_S, d_S)`` at ``points`` evenly spaced labels from S = 0 to
    exactly S = 2 + k; the last grid label can round an ulp past 2 + k."""
    top = 2.0 + k
    return [(S, *scaling.support_interval(k, S)) for S in (min(top * i / (points - 1), top) for i in range(points))]


def _cmd_limit_shape(args) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    _emit_rows(args, ("S", "c", "d"), _band(args.k, args.points), {"k": args.k})
    return 0


def _parse_probe_ps(values: Sequence[str]) -> list[int]:
    ps = []
    for item in (s for value in values for s in value.split(",")):
        try:
            p = int(item)
        except ValueError:
            p = 0
        if p < 1:
            raise ValueError(f"--probe-p takes integers >= 1, got {item!r}")
        ps.append(p)
    return ps


def _cmd_bulk(args) -> int:
    if args.probe_p:
        offsets = [(args.s0, args.t0, args.X, args.Y)]
        rows = [
            (p, row.s0, row.t0, row.X, row.Y, row.normalized, row.limit, row.abs_err)
            for p in _parse_probe_ps(args.probe_p)  # every p is checked before the first probe
            for row in scaling.bulk_convergence_probe(args.k, args.S, p, offsets)
        ]
        _emit_rows(
            args,
            ("p", "s0", "t0", "X", "Y", "normalized", "limit", "abs_err"),
            rows,
            {"k": args.k, "S": args.S},
        )
        return 0
    if args.gamma_form:
        g = scaling.gamma_parameter(args.k, args.S)
        val = scaling.boutillier_kernel(g, args.s0, args.Y, args.t0, args.X)
    else:
        val = scaling.bulk_kernel(scaling.scaling_context(args.k, args.S).nu, args.s0, args.Y, args.t0, args.X)
    _write_text(args.out, _fmt(val) + "\n")
    return 0


# --- validation ------------------------------------------------------------------


def _cmd_validate(args) -> int:
    rows = [
        (suite, check, "pass" if ok else "fail", float(measure), float(threshold))
        for suite in (checks.SUITES if args.suite == "all" else [args.suite])
        for check, measure, threshold, ok in checks.SUITES[suite](args.level)
    ]
    _emit_rows(args, ("suite", "check", "status", "measure", "threshold"), rows, {"level": args.level})
    return 0 if all(r[2] == "pass" for r in rows) else 1


# --- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # shared flags, each declared once: the fan, the output path, a table's path and format
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--p", type=int, required=True)
    spec.add_argument("--q", type=int, required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default: stdout)")
    table = argparse.ArgumentParser(add_help=False, parents=[out])
    table.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(prog="beadproc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", parents=[spec, table], help="draw configurations")
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--svg", default=None, help="also write an SVG rendering to this path")

    sp = sub.add_parser("kernel", parents=[spec, out], help="evaluate the exact kernel at one point pair")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)

    sp = sub.add_parser("density", parents=[spec, table], help="one-line density on a midpoint grid")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--points", type=int, default=101)

    sp = sub.add_parser("correlate", parents=[spec, out], help="n-point correlation determinant")
    sp.add_argument("--point", action="append", required=True, help="LINE:POSITION, repeatable")

    sp = sub.add_parser("enumerate", parents=[spec, table], help="enumerate the small lattice model")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--total-only", action="store_true")

    sp = sub.add_parser("limit-shape", parents=[table], help="support band endpoints over the fan")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--points", type=int, default=257)

    sp = sub.add_parser("bulk", parents=[table], help="bulk kernel values and convergence probes")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--S", type=float, required=True)
    sp.add_argument("--s0", type=int, default=0)
    sp.add_argument("--t0", type=int, default=0)
    sp.add_argument("--X", type=float, default=0.0)
    sp.add_argument("--Y", type=float, default=0.0)
    form = sp.add_mutually_exclusive_group()
    form.add_argument("--gamma-form", action="store_true", help="evaluate the J form instead")
    form.add_argument(
        "--probe-p",
        action="append",
        help="p values for the probe; repeat the flag or give a comma list",
    )

    sp = sub.add_parser("validate", parents=[table], help="run built-in cross-module validation suites")
    sp.add_argument("--suite", choices=("all", *checks.SUITES), default="all")
    sp.add_argument("--level", choices=("quick", "full"), default="quick")

    return parser


_PARSER: argparse.ArgumentParser | None = None


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """``--flag -1e-3`` as ``--flag=-1e-3``, for every value that parses as a float.

    argparse takes a token starting with ``-`` as an option unless it looks
    like ``-1`` or ``-.5``, so ``--Y -1e-3`` would lose its value.
    """
    joined: list[str] = []
    for token in argv:
        prev = joined[-1] if joined else ""
        if prev.startswith("--") and len(prev) > 2 and "=" not in prev and token.startswith("-") and _is_float(token):
            joined[-1] = f"{prev}={token}"
        else:
            joined.append(token)
    return joined


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command line; the parser is built on the first call and reused."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code) if exc.code else 0
    # Looked up per call, so a replaced ``_cmd_*`` function is the one that runs.
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, TypeError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


main = run  # the console entry point


if __name__ == "__main__":
    sys.exit(main())
