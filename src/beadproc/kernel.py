"""Closed-form determinantal correlation kernel of the bead process.

Correlation functions of the uniform interlacing measure are minors of a
single two-line kernel ``K(s, y; t, x)``.  For ``s >= t`` it is a biorthogonal
sum of shifted Jacobi polynomials attached to the two lines, assembled in log
space with sign tracking so the code path stays stable from tiny cases up to
hundreds of lines.  For ``s < t`` the factored tables degenerate (the natural
summation range exceeds the bead counts and individual factors hit gamma-pole
times zero), so that branch is evaluated from the underlying transfer-operator
representation instead: a rank-``p`` sum of incoming/outgoing polynomial
families, minus the one-sided propagator ``(x - y)^{t-s-1}/(t-s-1)!``.  Those
polynomials are Jacobi polynomials with integer, possibly negative,
parameters, and each family is kept as integer coefficient rows over one
common denominator.  Every float position is dyadic, ``m / 2^e``, so the
families, their rank-``p`` sum and the propagator are evaluated in integer
fixed point: still exact, hence free of cancellation between the ``p``
summands, with a single correctly rounded integer division at the end.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .model import HexagonSpec, particles_per_line
from .orthopoly import jacobi_tower, log_jacobi_norm

__all__ = [
    "SpacePoint",
    "KernelContext",
    "kernel_context",
    "kernel_matrix",
    "kernel_eval",
    "line_density",
    "expected_count",
    "npoint_correlation",
]


@dataclass(frozen=True)
class SpacePoint:
    """A (line, position) pair; position strictly inside (0, 1)."""

    line: int
    position: float

    def __post_init__(self) -> None:
        if not isinstance(self.line, (int, np.integer)):
            raise TypeError(f"line must be an integer, got {self.line!r}")
        if not 0.0 < self.position < 1.0:
            raise ValueError(f"position {self.position!r} not strictly inside (0, 1)")


@dataclass(frozen=True)
class _LineData:
    # Polynomial family P~^{(pa,pb)} on this line; the sum over l = 1..r uses
    # degree r - l, log-weight logc[l-1] - (other line's logc/logn), etc.
    pa: int
    pb: int
    r: int
    logc: np.ndarray  # log C_l, l = 1..r
    logn: np.ndarray  # log N_{r-l} for this line's family, l = 1..r


@dataclass(frozen=True)
class KernelContext:
    """Precomputed per-line tables; build once per (p, q) via :func:`kernel_context`."""

    spec: HexagonSpec
    lines: tuple[_LineData, ...]


@lru_cache(maxsize=8)
def kernel_context(spec: HexagonSpec) -> KernelContext:
    """Per-line tables for ``spec``; memoized, so repeated calls share one context."""
    p, q = spec.p, spec.q
    data = []
    for t in spec.lines():
        r = particles_per_line(spec, t)
        ls = np.arange(1, r + 1)
        if t <= p:
            pa, pb = p - t, q - t
            logc = np.array([math.lgamma(t - l + 1) - math.lgamma(p - l + 1) for l in ls])
        elif t <= q:
            pa, pb = t - p, q - t
            logc = np.array(
                [math.lgamma(q - l + 1) - math.lgamma(p + q - t - l + 1) for l in ls]
            )
        else:
            pa, pb = t - p, t - q
            logc = np.array([math.lgamma(t - l + 1) - math.lgamma(p - l + 1) for l in ls])
        logn = np.array([log_jacobi_norm(r - l, pa, pb) for l in ls])
        logc.setflags(write=False)  # shared by every caller of the memoized context
        logn.setflags(write=False)
        data.append(_LineData(pa=pa, pb=pb, r=r, logc=logc, logn=logn))
    return KernelContext(spec=spec, lines=tuple(data))


def _check_positions(name: str, arr: np.ndarray) -> None:
    if arr.size and not (np.all(arr > 0.0) and np.all(arr < 1.0)):
        raise ValueError(f"{name} positions must lie strictly inside (0, 1)")


def _jacobi_monomial_coeffs(n: int, a: int, b: int) -> tuple[int, ...]:
    # Monomial coefficients of P~_n^{(a,b)}(x) = P_n^{(a,b)}(1 - 2x); index m
    # holds (-1)^m C(n, m) (a+m+1)_{n-m} (a+b+n+1)_m / n!, an integer.  Being a
    # polynomial in (a, b), the form holds for negative integer parameters too.
    upper = [1] * (n + 1)  # upper[m] = (a+m+1)_{n-m}
    for m in range(n - 1, -1, -1):
        upper[m] = upper[m + 1] * (a + m + 1)
    fact_n = math.factorial(n)
    coeffs, rising = [], 1  # rising = (a+b+n+1)_m
    for m in range(n + 1):
        coeffs.append((-1) ** m * math.comb(n, m) * upper[m] * rising // fact_n)
        rising *= a + b + n + 1 + m
    return tuple(coeffs)


def _norm_fraction(n: int, a: int, b: int) -> Fraction:
    # Squared norm N_n^{(a,b)} of the shifted Jacobi polynomial, exactly.
    return Fraction(
        math.factorial(n + a) * math.factorial(n + b),
        (2 * n + a + b + 1) * math.factorial(n) * math.factorial(n + a + b),
    )


@dataclass(frozen=True)
class _IntFamily:
    # Rows l = 1..len(rows) of a polynomial family, row l being
    # factor(z) * rows[l-1](z) / den with integer monomial coefficients
    # (index k holds z^k, degree at most deg).  The factor, common to every
    # row, is (1 - y)^pre for the incoming family and x^pre for the outgoing.
    rows: tuple[tuple[int, ...], ...]
    den: int
    deg: int
    pre: int


def _int_family(scales: list[Fraction], polys: list[tuple[int, ...]], pre: int) -> _IntFamily:
    den = math.lcm(*(f.denominator for f in scales))
    rows = tuple(
        tuple(c * (f.numerator * (den // f.denominator)) for c in poly)
        for f, poly in zip(scales, polys)
    )
    return _IntFamily(rows, den, max(len(poly) for poly in polys) - 1, pre)


@lru_cache(maxsize=16)
def _psi_family(p: int, q: int, s: int) -> _IntFamily:
    # Incoming family on line s, in y.  Above q the rows run out where the
    # degree p+q-s-l turns negative; up to q they share (1 - y)^(q-s).
    if s > q:
        degs = range(p + q - s - 1, -1, -1)  # l = 1 .. p+q-s
        scales = [
            Fraction(math.factorial(n + s - p), math.factorial(n))
            / _norm_fraction(n, s - p, s - q)
            for n in degs
        ]
        return _int_family(scales, [_jacobi_monomial_coeffs(n, s - p, s - q) for n in degs], 0)
    ls = range(1, p + 1)
    scales = [
        Fraction(math.factorial(q - l), math.factorial(p + q - s - l)) / _norm_fraction(p - l, q - p, 0)
        for l in ls
    ]
    return _int_family(scales, [_jacobi_monomial_coeffs(p - l, s - p, q - s) for l in ls], q - s)


@lru_cache(maxsize=16)
def _phi_family(p: int, q: int, t: int) -> _IntFamily:
    # Outgoing family on line t, in x.  Up to p the rows stop at l = t;
    # above p they share x^(t-p).
    if t <= p:
        ls = range(1, t + 1)
        scales = [
            Fraction((-1) ** (p + t) * math.factorial(p + q - t - l), math.factorial(q - l))
            for l in ls
        ]
        return _int_family(scales, [_jacobi_monomial_coeffs(t - l, p - t, q - t) for l in ls], 0)
    ls = range(1, p + 1)
    scales = [Fraction(math.factorial(p - l), math.factorial(t - l)) for l in ls]
    return _int_family(scales, [_jacobi_monomial_coeffs(p - l, t - p, q - t) for l in ls], t - p)


def _dyadic(v: float) -> tuple[int, int]:
    # v = m / 2^e exactly (every finite float is dyadic)
    m, d = v.as_integer_ratio()
    return m, d.bit_length() - 1


def _horner_rows(fam: _IntFamily, m: int, e: int) -> list[int]:
    # 2^(e*deg) * row(m / 2^e) for every row: Horner on the integer numerator,
    # the coefficient of z^k entering scaled by 2^(e*(deg-k)).
    out = []
    for row in fam.rows:
        acc, shift = 0, e * (fam.deg + 1 - len(row))
        for c in reversed(row):
            acc = acc * m + (c << shift)
            shift += e
        out.append(acc)
    return out


def _cross_block(spec: HexagonSpec, s: int, ys: np.ndarray, t: int, xs: np.ndarray) -> np.ndarray:
    # s < t branch: rank-p transfer sum minus propagator, exactly.  Every entry
    # is one integer fraction over a common dyadic denominator, rounded once.
    p, q = spec.p, spec.q
    psi, phi = _psi_family(p, q, s), _phi_family(p, q, t)
    g = t - s - 1
    fact_g = math.factorial(g)
    den0 = psi.den * phi.den
    cols = []
    for x in map(float, xs):
        m, e = _dyadic(x)
        cols.append((x, m, e, _horner_rows(phi, m, e), m**phi.pre, e * (phi.deg + phi.pre)))
    out = np.empty((len(ys), len(xs)), dtype=float)
    for i, y in enumerate(map(float, ys)):
        my, ey = _dyadic(y)
        hy = _horner_rows(psi, my, ey)
        pre_y = ((1 << ey) - my) ** psi.pre
        shift_y = ey * (psi.deg + psi.pre)
        for j, (x, mx, ex, hx, pre_x, shift_x) in enumerate(cols):
            # sum_l psi_l(y) phi_l(x) = num / (den0 * 2^shift)
            num = sum(map(operator.mul, hy, hx)) * pre_y * pre_x
            shift = shift_y + shift_x
            den = den0
            if y < x:
                # minus (x - y)^g / g! = d^g / (g! * 2^(e*g))
                e = max(ex, ey)
                d = (mx << (e - ex)) - (my << (e - ey))
                top = max(shift, e * g)
                num = (num * fact_g << (top - shift)) - (d**g * den0 << (top - e * g))
                den, shift = den0 * fact_g, top
            out[i, j] = num / (den << shift)
    return out


def _log_row_prefactor(spec: HexagonSpec, s: int, y: np.ndarray):
    # a_s(y): (-y)^{p-s} (1-y)^{q-s}  |  (1-y)^{q-s}  |  1
    p, q = spec.p, spec.q
    if s <= p:
        return (p - s) * np.log(y) + (q - s) * np.log1p(-y), (-1.0) ** (p - s)
    if s <= q:
        return (q - s) * np.log1p(-y), 1.0
    return np.zeros_like(y), 1.0


def _log_col_prefactor(spec: HexagonSpec, t: int, x: np.ndarray):
    # b_t(x): (-1)^{p-t}  |  x^{t-p}  |  x^{t-p} (1-x)^{t-q}
    p, q = spec.p, spec.q
    if t <= p:
        return np.zeros_like(x), (-1.0) ** (p - t)
    if t <= q:
        return (t - p) * np.log(x), 1.0
    return (t - p) * np.log(x) + (t - q) * np.log1p(-x), 1.0


def kernel_matrix(ctx: KernelContext, s: int, ys, t: int, xs) -> np.ndarray:
    """Kernel block ``K(s, y_i; t, x_j)`` for arrays of positions.

    Rows carry line ``s``, columns line ``t``.  The coincident-point
    convention of the propagator term is strict: it vanishes when ``y >= x``.
    """
    spec = ctx.spec
    if not 1 <= s <= spec.n_lines or not 1 <= t <= spec.n_lines:
        raise ValueError(f"lines ({s}, {t}) outside 1..{spec.n_lines}")
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    _check_positions("row", ys)
    _check_positions("column", xs)

    if s < t:
        return _cross_block(spec, s, ys, t, xs)

    ds, dt = ctx.lines[s - 1], ctx.lines[t - 1]
    L = min(ds.r, dt.r)
    sel = np.arange(1, L + 1)
    rows = jacobi_tower(ds.r - 1, ds.pa, ds.pb, ys)[ds.r - sel]  # (L, ny)
    cols = jacobi_tower(dt.r - 1, dt.pa, dt.pb, xs)[dt.r - sel]  # (L, nx)
    logw = ds.logc[sel - 1] - dt.logc[sel - 1] - dt.logn[sel - 1]
    shift = logw.max()
    S = np.einsum("li,l,lj->ij", rows, np.exp(logw - shift), cols)

    la, sa = _log_row_prefactor(spec, s, ys)
    lb, sb = _log_col_prefactor(spec, t, xs)
    with np.errstate(divide="ignore"):
        K = (sa * sb) * np.sign(S) * np.exp(la[:, None] + lb[None, :] + shift + np.log(np.abs(S)))
    return K


def kernel_eval(ctx: KernelContext, s: int, y: float, t: int, x: float) -> float:
    """Single kernel value ``K(s, y; t, x)``."""
    return float(kernel_matrix(ctx, s, [y], t, [x])[0, 0])


def line_density(ctx: KernelContext, t: int, xs):
    """Diagonal values ``K(t, x; t, x)`` — the one-bead density on line ``t``."""
    spec = ctx.spec
    if not 1 <= t <= spec.n_lines:
        raise ValueError(f"line {t} outside 1..{spec.n_lines}")
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    _check_positions("line", xs_arr)
    d = ctx.lines[t - 1]
    sel = np.arange(1, d.r + 1)
    vals = jacobi_tower(d.r - 1, d.pa, d.pb, xs_arr)[d.r - sel]  # (r, n)
    logw = -d.logn[sel - 1]
    shift = logw.max()
    S = np.einsum("li,l,li->i", vals, np.exp(logw - shift), vals)
    la, sa = _log_row_prefactor(spec, t, xs_arr)
    lb, sb = _log_col_prefactor(spec, t, xs_arr)
    with np.errstate(divide="ignore"):
        out = (sa * sb) * np.sign(S) * np.exp(la + lb + shift + np.log(np.abs(S)))
    return float(out[0]) if np.ndim(xs) == 0 else out


@lru_cache(maxsize=8)
def _gauss_legendre_unit(n: int):
    u, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (u + 1.0), 0.5 * w


def expected_count(ctx: KernelContext, t: int, nodes: int = 400) -> float:
    """``int_0^1 K(t, x; t, x) dx`` — must reproduce the bead count of line ``t``."""
    x, w = _gauss_legendre_unit(nodes)
    return float(np.dot(w, line_density(ctx, t, x)))


def _as_point(pt) -> SpacePoint:
    if isinstance(pt, SpacePoint):
        return pt
    line, pos = pt
    return SpacePoint(int(line), float(pos))


def npoint_correlation(ctx: KernelContext, points: Sequence) -> float:
    """Correlation function ``det[K(t_i, x_i; t_j, x_j)]`` at the given points."""
    pts = [_as_point(pt) for pt in points]
    n = len(pts)
    M = np.empty((n, n), dtype=float)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            M[i, j] = kernel_eval(ctx, a.line, a.position, b.line, b.position)
    return float(np.linalg.det(M))
