"""Closed-form determinantal correlation kernel of the bead process.

Correlation functions of the uniform interlacing measure are minors of a
single two-line kernel ``K(s, y; t, x)``, computed on one of two paths.

*Same line* (``s = t``): a sum of orthonormal shifted Jacobi polynomials of
the line, evaluated by the three-term recurrence of its Jacobi matrix, run
once over the distinct union of a block's positions in one per-point gauge
that keeps every value inside the range of a double.  Across degrees the
recurrence runs in a unit-coefficient gauge, two ufunc calls per degree, and
each degree takes its gauge factor after the loop.  Each row holds its own
step until the recurrence overwrites it, so no step table is built beside the
tower.  The tower is not renormalized: a line density sums the squares of its
rows as they are, and only a kernel block scales each point's column to
``max_n |psi| = 1``, since a product of two far-out points' rows could
underflow.  An entry is then a sign times one ``exp`` of its summed exponent,
so it is accurate, or raises where its true size is beyond a double.  The
context stores one array of off-diagonals ``a`` per mirror pair of lines
``(t, p+q-t)``, which share it exactly, and no diagonal: ``b`` is the line's
integer ``pb^2 - pa^2`` over a view of one denominator table (see
:func:`kernel_context`).

*Cross line* (``s != t``), correctly rounded: the transfer-operator
representation, a rank-``p`` sum of incoming/outgoing polynomial families,
minus the one-sided propagator ``(x - y)^{t-s-1}/(t-s-1)!`` when ``s < t``.
Those polynomials are Jacobi polynomials with integer, possibly negative,
parameters ``(a, b)``, ``a + b >= 0``; each family keeps one integer scale
per degree over one common denominator.  Every float position is dyadic,
``m / 2^e``, so each entry is one rational number, and the block returns it
correctly rounded, in one loop of rungs (Ziv's strategy, as MPFR uses it):

- a fixed-point rung runs the integer three-term recurrence on rows
  ``~ 2^F P~_n(m / 2^e)``, flooring each step and carrying a proven bound on
  each row's error.  The rank-``p`` sum, times the exact prefactor and minus
  the exact propagator, is then known to within ``+-E``.  When both ends of
  that interval round to the same double, sign of zero included, that double
  is the correctly rounded entry.  Each point takes its own ``F``: on the
  first rung 64 bits beyond the block's finest position, but at most 128
  beyond its own, so one far-out point does not set every point's
  precision; each further rung doubles it;
- the exact rung, the loop's last pass, runs the same recurrence on
  ``2^(en) P~_n(m / 2^e)``, all integers, and rounds once.  The block's
  pending entries take it when the next fixed rung would reach the exact
  rows' length, after a fixed-point division overflows, or at once when
  the block's exact rows are at most 1000 bits long (``e * deg``: the small
  fans, where the exact rung is the cheaper one).  On it the first pending
  entry beyond a double, in row order, raises ``OverflowError``; every
  entry before it is a finite double.

Either way an entry is the same double, bit for bit, free of the
cancellation between the ``p`` summands and the propagator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .model import HexagonSpec, _index, _positions, _records, particles_per_line

__all__ = [
    "KernelContext",
    "kernel_context",
    "kernel_matrix",
    "kernel_eval",
    "line_density",
    "expected_count",
    "npoint_correlation",
]


@dataclass(frozen=True)
class _LineData:
    # Line t: the weight w_t = x^pa (1-x)^pb, split into the row prefactor
    # a_t = (-1)^ea x^ea (1-x)^eb and the column prefactor b_t = w_t / a_t,
    # and the orthonormal family p_n = P~_n^{(pa,pb)} / sqrt(N_n), n < r,
    # from a[n] p_{n+1} = (1 - 2x - b[n]) p_n - a[n-1] p_{n-1}, where
    # b[n] = (pb^2 - pa^2) / den[n].  Both arrays are read-only: a is shared
    # with the mirror line p+q-t, and den is a strided view of the
    # context's one denominator table.
    pa: int
    pb: int
    r: int
    ea: int
    eb: int
    half_log_n0: float  # ½ log N_0
    den: np.ndarray
    a: np.ndarray


@dataclass(frozen=True)
class KernelContext:
    """Precomputed per-line data; build once per (p, q) via :func:`kernel_context`.

    Line ``t`` and its mirror ``p+q-t`` hold the same read-only array of
    Jacobi off-diagonals ``a``, and every line's diagonal ``b`` is its
    integer numerator ``pb^2 - pa^2`` over a view of one denominator table,
    so the tables take a quarter of an ``a`` and a ``b`` on every line:
    0.75 MiB at (256, 768) and 12 MiB at (1024, 3072), against 3.0 and
    48 MiB.
    """

    spec: HexagonSpec
    lines: tuple[_LineData, ...]


def _line_data(spec: HexagonSpec, t: int, logfact: np.ndarray, den: np.ndarray, a: np.ndarray | None) -> _LineData:
    # a, when given, is the mirror line's (see kernel_context)
    p, q = spec.p, spec.q
    pa, pb, ea, eb = abs(p - t), abs(q - t), max(p - t, 0), max(q - t, 0)
    r, s = particles_per_line(spec, t), pa + pb
    if a is None:
        # off-diagonal of the Jacobi matrix of (1-z)^pa (1+z)^pb on (-1, 1)
        m = np.arange(1, r)
        a = np.sqrt(4.0 * m * (m + pa) * (m + pb) * (m + s) / ((2 * m + s) ** 2 * (2 * m + s + 1.0) * (2 * m + s - 1)))
        a.setflags(write=False)  # shared by the mirror line and every caller of the memoized context
    half_log_n0 = 0.5 * (-math.log(s + 1) + logfact[pa] + logfact[pb] - logfact[s])
    return _LineData(pa, pb, r, ea, eb, half_log_n0, den[s : s + 2 * r - 2 : 2], a)


@lru_cache(maxsize=8)
def kernel_context(spec: HexagonSpec) -> KernelContext:
    """Per-line data for ``spec``; memoized, so repeated calls share one context.

    Mirror lines ``t`` and ``p+q-t`` share one array ``a``, built once for the
    line with ``pa <= pb``.  That is exact: the numerator
    ``4m(m+pa)(m+pb)(m+s)`` and each of its partial products are integers
    below 2^53 (8.4e14 at most at (2048, 6144); the bound holds up to
    p = 3701 at q = 3p), and the denominator depends only on ``m`` and ``s``,
    so the mirror line's own formula gives the same doubles; past that bound
    the mirror line takes line ``t``'s rounding.  The diagonal is not stored:
    ``b[n] = (pb^2 - pa^2) / den[n]`` with ``den[n] = max(k, 1) (k + 2)`` at
    ``k = s + 2n``, one float table of ``p + q`` integers per context, of
    which each line keeps a read-only strided view.
    """
    p, q = spec.p, spec.q
    logfact = np.array([math.lgamma(k + 1) for k in range(p + q + 1)])  # log k!
    k = np.arange(p + q, dtype=float)
    den = np.maximum(k, 1.0) * (k + 2.0)  # the maximum keeps b finite at s = n = 0
    den.setflags(write=False)
    lines = []
    for t in spec.lines():
        mirror = lines[p + q - t - 1].a if 2 * t > p + q else None
        lines.append(_line_data(spec, t, logfact, den, mirror))
    return KernelContext(spec=spec, lines=tuple(lines))


def _norm_fraction(n: int, a: int, b: int) -> Fraction:
    # Squared norm N_n^{(a,b)} of the shifted Jacobi polynomial, exactly.
    f = math.factorial
    return Fraction(f(n + a) * f(n + b), (2 * n + a + b + 1) * f(n) * f(n + a + b))


@lru_cache(maxsize=32)  # one per cached family
def _jacobi_steps(a: int, b: int, deg: int) -> tuple[tuple[int, int, int, int, int], ...]:
    # (A, B, C, |C|, D) for n = 2..deg: D P_n = ((1 - 2z) A + B) P_{n-1} - C P_{n-2}
    # is the recurrence of P_n^{(a,b)}(1 - 2z), with c = 2n + a + b,
    # A = (c-1) c (c-2), B = (c-1)(a^2 - b^2), C = 2(n+a-1)(n+b-1) c and
    # D = 2n(n+a+b)(c-2), nonzero for n >= 2 when a + b >= 0
    steps = []
    for n in range(2, deg + 1):
        c = 2 * n + a + b
        C = 2 * (n + a - 1) * (n + b - 1) * c
        steps.append(((c - 1) * c * (c - 2), (c - 1) * (a * a - b * b), C, abs(C), 2 * n * (n + a + b) * (c - 2)))
    return tuple(steps)


def _jacobi_dyadic(a: int, b: int, deg: int, m: int, e: int, F: int | None = None):
    # P~_n^{(a,b)}(z) at z = m / 2^e, n = 0..deg, by the recurrence of
    # _jacobi_steps, in one of two precisions.
    # F = None: the list of Q_n = 2^(e n) P~_n(z), exactly.  Q_n is an integer
    # (P~_n has integer monomial coefficients, negative integer a, b
    # included), so the division by D is exact.
    # F >= e: (rows, eps), with |rows[n] - 2^F P~_n(z)| <= eps[n].  Rows 0
    # and 1 are exact; each later row floors twice, after >> F and after // D,
    # each floor costing less than 1, so
    # eps[n] = ceil((ceil(|lin| / 2^F) eps[n-1] + |C| eps[n-2] + 1) / D) + 1.
    if a + b < 0:
        raise ValueError(f"Jacobi parameters ({a}, {b}): the recurrence needs a + b >= 0")
    w = e if F is None else F
    one, z = 1 << w, m << (w - e)
    out = [1 if F is None else one, (a + 1) * one - (a + b + 2) * z]
    v = one - 2 * z
    if F is None:
        for A, B, C, _, D in _jacobi_steps(a, b, deg):
            out.append(((A * v + B * one) * out[-1] - (C * out[-2] << 2 * e)) // D)
        return out[: deg + 1]
    eps = [0, 0]
    for A, B, C, absC, D in _jacobi_steps(a, b, deg):
        lin = A * v + B * one
        out.append(((lin * out[-1] >> F) - C * out[-2]) // D)
        eps.append(1 - ((-abs(lin) >> F) * eps[-1] - absC * eps[-2] - 1) // D)
    return out[: deg + 1], eps[: deg + 1]


@dataclass(frozen=True)
class _IntFamily:
    # A polynomial family, one row per degree n = 0..deg: row l = deg + 1 - n
    # of the rank-p sum is factor(z) * scales[n] * P~_n^{(a,b)}(z) * num / den,
    # num being the scales' common divisor, kept out of the row products.  The
    # factor, common to every row, is (1 - y)^pre (incoming) or x^pre (outgoing).
    a: int
    b: int
    scales: tuple[int, ...]
    num: int
    den: int
    deg: int
    pre: int


def _int_family(a: int, b: int, scales: list[Fraction], pre: int) -> _IntFamily:
    den = math.lcm(*(f.denominator for f in scales))
    ints = [f.numerator * (den // f.denominator) for f in scales]
    g = math.gcd(*ints)
    return _IntFamily(a, b, tuple(c // g for c in ints), g, den, len(ints) - 1, pre)


@lru_cache(maxsize=16)
def _psi_family(p: int, q: int, s: int) -> _IntFamily:
    # Incoming family on line s, in y.  Above q the rows run out where the
    # degree p+q-s-l turns negative; up to q they share (1 - y)^(q-s).
    if s > q:
        scales = [
            Fraction(math.factorial(n + s - p), math.factorial(n)) / _norm_fraction(n, s - p, s - q)
            for n in range(p + q - s)
        ]
        return _int_family(s - p, s - q, scales, 0)
    scales = [
        Fraction(math.factorial(q - p + n), math.factorial(q - s + n)) / _norm_fraction(n, q - p, 0)
        for n in range(p)  # l = p - n
    ]
    return _int_family(s - p, q - s, scales, q - s)


@lru_cache(maxsize=16)
def _phi_family(p: int, q: int, t: int) -> _IntFamily:
    # Outgoing family on line t, in x.  Up to p the rows stop at l = t;
    # above p they share x^(t-p).
    if t <= p:
        scales = [
            Fraction((-1) ** (p + t) * math.factorial(p + q - 2 * t + n), math.factorial(q - t + n))
            for n in range(t)  # l = t - n
        ]
        return _int_family(p - t, q - t, scales, 0)
    scales = [Fraction(math.factorial(n), math.factorial(t - p + n)) for n in range(p)]  # l = p - n
    return _int_family(t - p, q - t, scales, t - p)


def _dyadic(v: float) -> tuple[int, int]:
    # (m, e) with v = m / 2^e exactly: every finite float is dyadic
    m, d = v.as_integer_ratio()
    return m, d.bit_length() - 1


def _rows(fam: _IntFamily, L: int, m: int, e: int, F: int | None):
    # The top L degrees n of the family at m / 2^e, lowest first, so row 0 is
    # l = L.  F = None: the list of scales[n] * 2^(e n) P~_n, exactly.  An
    # integer F: (rows, |rows|, errs, |rows| + errs), each row scales[n]
    # times the fixed-point 2^F P~_n of _jacobi_dyadic, off by at most its err.
    lo = fam.deg + 1 - L
    sc = fam.scales[lo:]
    if F is None:
        return list(map(operator.mul, sc, _jacobi_dyadic(fam.a, fam.b, fam.deg, m, e)[lo:]))
    rows, eps = _jacobi_dyadic(fam.a, fam.b, fam.deg, m, e, F)
    rows = list(map(operator.mul, sc, rows[lo:]))
    errs = [abs(c) * d for c, d in zip(sc, eps[lo:])]
    return rows, list(map(abs, rows)), errs, list(map(operator.add, map(abs, rows), errs))


def _overflow(s: int, t: int, y: float, x: float, log10: float) -> OverflowError:
    return OverflowError(
        f"K({s}, y; {t}, x) at (y, x) = ({y!r}, {x!r}) is beyond the range of a double: log10|K| = {log10:.1f}"
    )


# The first fixed-point rung carries this many bits beyond a block's finest
# position, but at most twice this many beyond a point's own; each further
# rung doubles F.
_GUARD = 64
# A block whose exact rows are at most this many bits long (e * deg) starts on
# the exact rung.  Measured at q = 3p on adjacent lines, the two rungs break
# even near 1200 bits for one entry and near 750 for a 3 x 5 block, so p = 16
# (about 810 bits) stays exact and (20, 60) (about 1030) takes the fixed point.
_EXACT_BITS = 1000


def _cross_block(spec: HexagonSpec, s: int, ys: np.ndarray, t: int, xs: np.ndarray) -> np.ndarray:
    # s != t: rank-p transfer sum, minus the propagator when s < t, as one
    # integer fraction over a common dyadic denominator per entry, in rungs.
    # Fixed-point rung k gives point i's rows F_i = (min(e_top, e_i + _GUARD)
    # + _GUARD) << k bits and brackets each pending numerator by num +- err;
    # an entry is kept when both ends round to the same double, signed zero
    # included: that double is the correctly rounded exact value.  The last
    # rung is exact (err = 0).  The block takes it when the next fixed rung
    # would reach the exact rows' e_top * deg bits, at once when those are at
    # most _EXACT_BITS, and after a fixed-rung division overflows; on it the
    # first pending entry beyond a double, in row order, raises.
    p, q = spec.p, spec.q
    psi, phi = _psi_family(p, q, s), _phi_family(p, q, t)
    L = min(len(psi.scales), len(phi.scales))
    g = t - s - 1
    fact_g = math.factorial(g) if s < t else 1
    den0 = psi.den * phi.den
    ys, xs = ys.tolist(), xs.tolist()
    yd, xd = list(map(_dyadic, ys)), list(map(_dyadic, xs))
    out = np.empty((len(ys), len(xs)), dtype=float)
    todo = [(i, j) for i in range(len(ys)) for j in range(len(xs))]
    e_top = max((e for _, e in yd + xd), default=0)
    exact_bits = e_top * max(psi.deg, phi.deg)
    k, exact = 0, exact_bits <= _EXACT_BITS
    while todo:
        exact = exact or (e_top + _GUARD) << k >= exact_bits
        # per pending point: its rows, the exact positive prefactor
        # num (1 - y)^pre or num x^pre, and the power of two under both
        ry, rx = {}, {}
        for side, fam, dyad, pts in ((ry, psi, yd, {i for i, _ in todo}), (rx, phi, xd, {j for _, j in todo})):
            for i in pts:
                m, e = dyad[i]
                F = None if exact else (min(e_top, e + _GUARD) + _GUARD) << k
                base = m if fam is phi else (1 << e) - m
                side[i] = _rows(fam, L, m, e, F), fam.num * base**fam.pre, e * fam.pre + (e * fam.deg if exact else F)
        left, overflow = [], False
        for i, j in todo:
            (my, ey), (mx, ex) = yd[i], xd[j]
            hy, pre_y, sh_y = ry[i]
            hx, pre_x, sh_x = rx[j]
            if exact:
                # sum_l psi_l(y) phi_l(x): row l of each side lacks the factor
                # 2^(e (l-1)) of the common 2^(e deg), so the products nest
                # Horner-style over l, from l = L down to 1
                num = err = 0
                for u, v in zip(hy, hx):
                    num = (num << (ey + ex)) + u * v
            else:
                # |sum u v - exact| <= sum |u| e_v + e_u (|v| + e_v)
                (uy, abs_y, err_y, _), (ux, _, err_x, hull_x) = hy, hx
                num = sum(map(operator.mul, uy, ux))
                err = sum(map(operator.mul, abs_y, err_x)) + sum(map(operator.mul, err_y, hull_x))
            pre, den, shift = pre_y * pre_x, den0, sh_y + sh_x
            num, err = num * pre, err * pre
            if s < t and ys[i] < xs[j]:  # minus (x - y)^g / g!
                e = max(ex, ey)
                d = (mx << (e - ex)) - (my << (e - ey))
                top = max(shift, e * g)
                num = (num * fact_g << (top - shift)) - (d**g * den0 << (top - e * g))
                err, den, shift = err * fact_g << (top - shift), den0 * fact_g, top
            try:
                lo = (num - err) / (den << shift)
                hi = (num + err) / (den << shift) if err else lo
            except OverflowError:
                if exact:
                    log10 = math.log10(abs(num)) - math.log10(den) - shift * math.log10(2)
                    raise _overflow(s, t, ys[i], xs[j], log10) from None
                left.append((i, j))
                overflow = True
                continue
            if lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi):
                out[i, j] = lo
            else:
                left.append((i, j))
        todo, k, exact = left, k + 1, overflow
    return out


def _unit_gauge(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(g, coef)``: the gauge ``p_n = g_n chi_n`` of the recurrence and its steps.

    With ``g_0 = g_1 = 1`` and ``g_{n+1} = (a[n-1] / a[n]) g_{n-1}`` the
    recurrence becomes ``chi_{n+1} = (1 - 2x - b[n]) coef[n] chi_n -
    chi_{n-1}``, ``coef[n] = g_n / (g_{n+1} a[n])``: unit coefficient on
    ``chi_{n-1}``.  ``g`` is a product of ratios of neighbouring ``a``, even
    and odd degrees apart, so it stays near 1: within 10^±1.24 at q = 3p up to
    p = 512.
    """
    g = np.ones(a.size + 1)
    ratio = a[:-1] / a[1:]
    np.multiply.accumulate(ratio[0::2], out=g[2::2])
    np.multiply.accumulate(ratio[1::2], out=g[3::2])
    return g, g[:-1] / (g[1:] * a)


def _tower_overflow(d: _LineData, bad: np.ndarray) -> OverflowError:
    x = float(bad[0])
    return OverflowError(f"Jacobi tower ({d.pa}, {d.pb}) of degree {d.r - 1} outgrows a double at x = {x!r}")


def _tower(d: _LineData, x: np.ndarray):
    """``(log x, log(1-x), G, psi)`` with ``p_n(x) = exp(G - ½ log N_0) psi[n]``, n < r.

    One gauge per point: the recurrence starts from ``psi[0] = exp(c)``,
    ``c = log phi_0 - max(log phi_0, -300)`` with ``phi_n = sqrt(w) p_n``, so
    the O(1) functions ``phi_n`` give ``|psi| <~ e^300``, and ``G = -c``.
    Where ``phi_0 < e^-1000``, ``c`` stops at -700, so ``psi[0]`` cannot
    underflow while the growth ``p_n / p_0`` (up to ``e^973`` at p = 512)
    still fits.  Across degrees it runs in the unit-coefficient gauge of
    :func:`_unit_gauge`, two ufunc calls per degree, and the rows take their
    factors ``g_n`` after the loop.  Row ``n+1`` is first written with the
    step ``(1 - 2x - b[n]) coef[n]`` and then multiplied by row ``n`` in
    place, so the tower needs no step table: its peak memory is about its own
    size.  The rows are not renormalized: a sum of squares needs no rescale,
    and :func:`kernel_matrix` scales its own tower.
    Once a row overflows every later row is non-finite, so a non-finite last
    row raises ``OverflowError``.  Every step is elementwise, so a point's
    values do not depend on the other points passed with it.
    """
    lx, l1x = np.log(x), np.log1p(-x)
    c = (0.5 * d.pa) * lx + (0.5 * d.pb) * l1x + (300.0 - d.half_log_n0)
    np.minimum(np.maximum(c, -700.0, out=c), 0.0, out=c)
    psi = np.empty((d.r,) + x.shape)
    np.exp(c, out=psi[0])
    if d.r > 1:
        g, coef = _unit_gauge(d.a)
        b = (d.pb * d.pb - d.pa * d.pa) / d.den
        np.subtract.outer(1.0 - b, 2.0 * x, out=psi[1:])  # 1 - b[n] is exact for b[n] in [1/2, 2]
        psi[1:] *= coef[:, None]
        rows = list(psi)
        mul, sub = np.multiply, np.subtract
        mul(rows[1], rows[0], rows[1])
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, mid, hi in zip(rows, rows[1:], rows[2:]):
                mul(hi, mid, hi)
                sub(hi, lo, hi)
            psi *= g[:, None]
    last = np.isfinite(psi[-1])
    if not last.all():
        raise _tower_overflow(d, x[~last])
    return lx, l1x, -c, psi


def _scale_columns(psi: np.ndarray, G: np.ndarray) -> np.ndarray:
    # Scale each column of a tower to max_n |psi| = 1, in place, and return
    # its exponent G with the scale moved into it.
    top = np.maximum(psi.max(axis=0), -psi.min(axis=0))
    psi /= top
    return np.log(top) + G


def kernel_matrix(ctx: KernelContext, s: int, ys, t: int, xs) -> np.ndarray:
    """Kernel block ``K(s, y_i; t, x_j)`` for arrays of positions.

    Rows carry line ``s``, columns line ``t``; ``ys`` and ``xs`` are each a
    scalar or a 1-D array, and any other shape raises ``ValueError`` before
    any work.  A same-line block (``s = t``) comes from the orthonormal float
    recurrence, run once over the distinct union of ``ys`` and ``xs``; a
    cross-line block (``s != t``) returns each entry as its exact rational
    value correctly rounded, from one loop of rungs: fixed-point rungs, each
    point at its own precision, while their error bounds leave the rounding
    open, then the exact integers (see the module docstring).  The
    coincident-point convention of the ``s < t`` propagator term is strict:
    it vanishes when ``y >= x``.  Raises ``OverflowError`` when an entry lies
    beyond the range of a double, naming the first such entry in row order.
    Lines go through :func:`~beadproc.model._index`, so numpy integers are
    taken as Python ints, which the exact arithmetic needs.
    """
    spec = ctx.spec
    s, t = _index(s, "line s", 1, spec.n_lines), _index(t, "line t", 1, spec.n_lines)
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    for name, arr in (("row", ys), ("column", xs)):
        if arr.ndim > 1:
            raise ValueError(f"{name} positions must be a scalar or a 1-D array, got shape {arr.shape}")
        _positions(arr, f"{name} positions")

    if s != t:
        return _cross_block(spec, s, ys, t, xs)

    # K = a_t(y) b_t(x) sum_n p_n(y) p_n(x), where the signs (-1)^ea of a_t
    # and b_t cancel.  One tower serves both sides; take() keeps the gathered
    # blocks C-contiguous, so the product matches two towers' bit for bit.
    d = ctx.lines[t - 1]
    u = _distinct(np.concatenate((ys, xs)))
    iy, ix = np.searchsorted(u, ys), np.searchsorted(u, xs)
    lx, l1x, G, psi = _tower(d, u)
    G = _scale_columns(psi, G)  # a product of two far-out points' rows could underflow
    row_log = (d.ea * lx + d.eb * l1x + G)[iy]
    col_log = ((d.pa - d.ea) * lx + (d.pb - d.eb) * l1x + G)[ix]
    S = psi.take(iy, axis=1).T @ psi.take(ix, axis=1)
    # The per-line constant is summed apart from the per-point terms: on a
    # single-term line such as K(1, y; 1, x) = 2(1 - y) at (1, 2) the exponent
    # then takes one rounding, and K(1, 0.25; 1, 0.25) comes out as 1.5.
    with np.errstate(divide="ignore", over="ignore"):
        expo = row_log[:, None] + col_log[None, :] - 2.0 * d.half_log_n0 + np.log(np.abs(S))
        K = np.sign(S) * np.exp(expo)
    bad = ~np.isfinite(K)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise _overflow(s, t, float(ys[i]), float(xs[j]), expo[i, j] / math.log(10))
    return K


def _distinct(v: np.ndarray) -> np.ndarray:
    # sorted distinct values; np.unique would import numpy.ma on first use,
    # which costs 20 ms and 1 MB of memory
    v = np.sort(v)
    return np.concatenate((v[:1], v[1:][v[1:] != v[:-1]]))


def kernel_eval(ctx: KernelContext, s, y, t, x):
    """Kernel values ``K(s, y; t, x)``, broadcast over the four arguments.

    The points are grouped by line pair ``(s, t)``, and each pair takes one
    :func:`kernel_matrix` block over its distinct ``y`` by its distinct ``x``,
    from which the requested entries are gathered; scattered points of one
    pair therefore evaluate the full cross product.  Where that block raises
    ``OverflowError``, the pair's requested entries are taken one by one in
    the caller's order, so only a requested entry beyond a double raises.
    Positions are checked first, in the caller's order, and
    :func:`kernel_matrix` checks each pair's lines.  Scalar input returns a float.
    """
    s, y, t, x = np.broadcast_arrays(s, _positions(y, "row positions"), t, _positions(x, "column positions"))
    shape = s.shape
    s, y, t, x = (v.ravel() for v in (s, y, t, x))
    out = np.empty(s.size)
    for si, ti in dict.fromkeys(zip(s.tolist(), t.tolist())):  # distinct pairs, first seen first
        sel = (s == si) & (t == ti)
        ysel, xsel = y[sel], x[sel]
        ys, xs = _distinct(ysel), _distinct(xsel)
        try:
            out[sel] = kernel_matrix(ctx, si, ys, ti, xs)[np.searchsorted(ys, ysel), np.searchsorted(xs, xsel)]
        except OverflowError:  # maybe an entry nobody asked for: take the requested ones alone
            out[sel] = [kernel_matrix(ctx, si, yi, ti, xi)[0, 0] for yi, xi in zip(ysel.tolist(), xsel.tolist())]
    return float(out[0]) if not shape else out.reshape(shape)


def line_density(ctx: KernelContext, t: int, xs):
    """Diagonal values ``K(t, x; t, x)`` — the one-bead density on line ``t``.

    A scalar ``xs`` returns a float, an array of any shape an array of that
    shape, each value as the flat call gives it.
    """
    t = _index(t, "line t", 1, ctx.spec.n_lines)
    given = _positions(xs, "line positions")
    xs_arr = given.ravel()
    d = ctx.lines[t - 1]
    # K(t, x; t, x) = w_t(x) sum_n p_n(x)^2, from the unscaled rows: up to
    # p = 512 the gauge keeps their sum of squares within about [e^-1400,
    # e^613], so it underflows only where the density itself is below a
    # double, which gives 0.0.  Past that a column's squares can overflow
    # where its rows do not; such columns are scaled to max_n |psi| = 1, as
    # kernel_matrix scales its tower, and a value still not finite raises.
    lx, l1x, G, psi = _tower(d, xs_arr)
    sq = np.einsum("ni,ni->i", psi, psi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        big = ~np.isfinite(sq)
        if big.any():
            cols = psi[:, big]
            G[big] = _scale_columns(cols, G[big])
            sq[big] = np.einsum("ni,ni->i", cols, cols)
        half_log = (0.5 * d.pa) * lx + (0.5 * d.pb) * l1x + G
        out = np.exp(2.0 * (half_log - d.half_log_n0) + np.log(sq))
    bad = ~np.isfinite(out)
    if bad.any():
        raise _tower_overflow(d, xs_arr[bad])
    return float(out[0]) if given.ndim == 0 else out.reshape(given.shape)


@lru_cache(maxsize=8)
def _gauss_legendre_unit(n: int):
    u, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (u + 1.0), 0.5 * w


def expected_count(ctx: KernelContext, t: int, nodes: int | None = None) -> float:
    """``int_0^1 K(t, x; t, x) dx`` — must reproduce the bead count of line ``t``.

    The integrand is a polynomial of degree ``p + q - 2``, so the default
    ``(p + q) // 2 + 1`` Gauss–Legendre nodes integrate it exactly.
    """
    nodes = (ctx.spec.p + ctx.spec.q) // 2 + 1 if nodes is None else _index(nodes, "nodes", 1)
    x, w = _gauss_legendre_unit(nodes)
    return float(np.dot(w, line_density(ctx, t, x)))


def npoint_correlation(ctx: KernelContext, points: Sequence) -> float:
    """Correlation function ``det[K(t_i, x_i; t_j, x_j)]`` at the given
    ``(line, position)`` pairs; any other tuple raises ``ValueError`` before
    any kernel work."""
    points = _records(points, "point", ("line", "position"))
    L, X = (np.array([pt[k] for pt in points]) for k in (0, 1))
    return float(np.linalg.det(kernel_eval(ctx, L[:, None], X[:, None], L[None, :], X[None, :])))
