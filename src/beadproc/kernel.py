"""Closed-form determinantal correlation kernel of the bead process.

Correlation functions of the uniform interlacing measure are minors of a
single two-line kernel ``K(s, y; t, x)``.  For ``s >= t`` it is a biorthogonal
sum of shifted Jacobi polynomials attached to the two lines.  Each line's
family is evaluated orthonormal, by the three-term recurrence of its Jacobi
matrix, in one per-point gauge that keeps every value inside the range of a
double; an entry is then a sign times one ``exp`` of its summed exponent, so
it is accurate, or raises where its true size is beyond a double.  For
``s < t`` the factored tables degenerate (the natural summation range exceeds
the bead counts and individual factors hit gamma-pole times zero), so that
branch is evaluated from the underlying transfer-operator representation
instead: a rank-``p`` sum of incoming/outgoing polynomial families, minus the
one-sided propagator ``(x - y)^{t-s-1}/(t-s-1)!``.  Those polynomials are
Jacobi polynomials with integer, possibly negative, parameters, and each
family is kept as integer coefficient rows over one common denominator.
Every float position is dyadic, ``m / 2^e``, so the families, their
rank-``p`` sum and the propagator are evaluated in integer fixed point: still
exact, hence free of cancellation between the ``p`` summands, with a single
correctly rounded integer division at the end.
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
    # from a[n] p_{n+1} = (1 - 2x - b[n]) p_n - a[n-1] p_{n-1}.
    pa: int
    pb: int
    r: int
    ea: int
    eb: int
    half_log_n0: float  # ½ log N_0
    b: np.ndarray
    a: np.ndarray


@dataclass(frozen=True)
class KernelContext:
    """Precomputed per-line data; build once per (p, q) via :func:`kernel_context`."""

    spec: HexagonSpec
    logfact: np.ndarray  # log k!, k = 0..p+q
    lines: tuple[_LineData, ...]


def _line_data(spec: HexagonSpec, t: int, logfact: np.ndarray) -> _LineData:
    p, q = spec.p, spec.q
    if t <= p:
        pa, pb, ea, eb = p - t, q - t, p - t, q - t
    elif t <= q:
        pa, pb, ea, eb = t - p, q - t, 0, q - t
    else:
        pa, pb, ea, eb = t - p, t - q, 0, 0
    r, s = particles_per_line(spec, t), pa + pb
    # Jacobi matrix of the weight (1-z)^pa (1+z)^pb on (-1, 1); at n = 0,
    # b is (pb - pa) / (s + 2), which the maximum keeps finite for s = 0
    n = np.arange(r - 1)
    m = n + 1
    b = (pb * pb - pa * pa) / (np.maximum(2 * n + s, 1) * (2 * n + s + 2))
    a = np.sqrt(4.0 * m * (m + pa) * (m + pb) * (m + s) / ((2 * m + s) ** 2 * (2 * m + s + 1.0) * (2 * m + s - 1)))
    for arr in (b, a):
        arr.setflags(write=False)  # shared by every caller of the memoized context
    half_log_n0 = 0.5 * (-math.log(s + 1) + logfact[pa] + logfact[pb] - logfact[s])
    return _LineData(pa, pb, r, ea, eb, half_log_n0, b, a)


@lru_cache(maxsize=8)
def kernel_context(spec: HexagonSpec) -> KernelContext:
    """Per-line data for ``spec``; memoized, so repeated calls share one context."""
    logfact = np.array([math.lgamma(k + 1) for k in range(spec.p + spec.q + 1)])
    logfact.setflags(write=False)
    lines = tuple(_line_data(spec, t, logfact) for t in spec.lines())
    return KernelContext(spec=spec, logfact=logfact, lines=lines)


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


def _tower(d: _LineData, x: np.ndarray, ea: float, eb: float):
    """``(E, psi)`` with ``x^ea (1-x)^eb p_n(x) = exp(E - ½ log N_0) psi[n]``, n < r.

    One gauge per point: the recurrence starts from ``psi[0] = exp(c)``,
    ``c = log phi_0 - max(log phi_0, -300)`` with ``phi_n = sqrt(w) p_n``, so
    the O(1) functions ``phi_n`` give ``|psi| <~ e^300``.  Where ``phi_0 <
    e^-1000``, ``c`` stops at -700, so ``psi[0]`` cannot underflow while the
    growth ``p_n / p_0`` (up to ``e^973`` at p = 512) still fits.  The result
    is scaled to ``max_n |psi[n]| = 1``.
    """
    lx, l1x = np.log(x), np.log1p(-x)
    c = (0.5 * d.pa) * lx + (0.5 * d.pb) * l1x + (300.0 - d.half_log_n0)
    np.clip(c, -700.0, 0.0, out=c)
    psi = np.empty((d.r,) + x.shape)
    np.exp(c, out=psi[0])
    if d.r > 1:
        step = (1.0 - 2.0 * x - d.b[:, None]) / d.a[:, None]
        ratio = (d.a[:-1] / d.a[1:]).tolist()
        np.multiply(step[0], psi[0], out=psi[1])
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, d.r - 1):
                row = np.multiply(step[n], psi[n], out=psi[n + 1])
                row -= ratio[n - 1] * psi[n - 1]
    top = np.maximum(psi.max(axis=0), -psi.min(axis=0))
    if not np.all(np.isfinite(top)):
        bad = float(x[~np.isfinite(top)][0])
        raise OverflowError(f"Jacobi tower ({d.pa}, {d.pb}) of degree {d.r - 1} outgrows a double at x = {bad!r}")
    psi /= top
    return ea * lx + eb * l1x + (np.log(top) - c), psi


def _log_weights(ctx: KernelContext, t: int, L: int) -> np.ndarray:
    # log C_l + ½ log N_{r-l} on line t for l = L..1, so degree n = r - l
    # ascends from r - L; C_l = (c0 - l)! / (c1 - l)!
    p, q, d, lf = ctx.spec.p, ctx.spec.q, ctx.lines[t - 1], ctx.logfact
    c0, c1 = (q, p + q - t) if p < t <= q else (t, p)
    lo, hi, s = d.r - L, d.r, d.pa + d.pb
    log_norm = (
        lf[lo + d.pa : hi + d.pa] + lf[lo + d.pb : hi + d.pb] - lf[lo:hi] - lf[lo + s : hi + s]
        - np.log(2.0 * np.arange(lo, hi) + s + 1)
    )
    return lf[c0 - L : c0] - lf[c1 - L : c1] + 0.5 * log_norm


def kernel_matrix(ctx: KernelContext, s: int, ys, t: int, xs) -> np.ndarray:
    """Kernel block ``K(s, y_i; t, x_j)`` for arrays of positions.

    Rows carry line ``s``, columns line ``t``.  The coincident-point
    convention of the propagator term is strict: it vanishes when ``y >= x``.
    Raises ``OverflowError`` when an entry lies beyond the range of a double.
    Lines must be integers; numpy integers are taken as Python ints, which
    the exact ``s < t`` arithmetic needs.
    """
    spec = ctx.spec
    try:
        s, t = operator.index(s), operator.index(t)
    except TypeError:
        raise TypeError(f"lines must be integers, got s={s!r}, t={t!r}") from None
    if not 1 <= s <= spec.n_lines or not 1 <= t <= spec.n_lines:
        raise ValueError(f"lines ({s}, {t}) outside 1..{spec.n_lines}")
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    _check_positions("row", ys)
    _check_positions("column", xs)

    if s < t:
        return _cross_block(spec, s, ys, t, xs)

    # K = a_s(y) b_t(x) sum_l kappa_l p_{s,r_s-l}(y) p_{t,r_t-l}(x), with
    # kappa_l = (C_{s,l} / C_{t,l}) sqrt(N_{s,r_s-l} / N_{t,r_t-l}); 1 if s = t
    ds, dt = ctx.lines[s - 1], ctx.lines[t - 1]
    row_log, rows = _tower(ds, ys, ds.ea, ds.eb)
    col_log, cols = _tower(dt, xs, dt.pa - dt.ea, dt.pb - dt.eb)
    if s == t:
        shift, S = 0.0, rows.T @ cols
    else:
        L = min(ds.r, dt.r)
        logkappa = _log_weights(ctx, s, L) - _log_weights(ctx, t, L)
        shift = logkappa.max()
        S = np.einsum("li,l,lj->ij", rows[ds.r - L :], np.exp(logkappa - shift), cols[dt.r - L :])
    # The per-line constants are summed apart from the per-point terms: on a
    # single-term line such as K(1, y; 1, x) = 2(1 - y) at (1, 2) the exponent
    # then takes one rounding, and K(1, 0.25; 1, 0.25) comes out as 1.5.
    with np.errstate(divide="ignore", over="ignore"):
        expo = (
            row_log[:, None] + col_log[None, :]
            + (shift - ds.half_log_n0 - dt.half_log_n0)
            + np.log(np.abs(S))
        )
        K = (-1.0) ** (ds.ea + dt.ea) * np.sign(S) * np.exp(expo)
    bad = ~np.isfinite(K)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise OverflowError(
            f"K({s}, y; {t}, x) at (y, x) = ({float(ys[i])!r}, {float(xs[j])!r}) is beyond "
            f"the range of a double: log10|K| = {expo[i, j] / math.log(10):.1f}"
        )
    return K


def _distinct(v: np.ndarray) -> np.ndarray:
    # sorted distinct values; np.unique would import numpy.ma on first use,
    # which costs 20 ms and 1 MB of memory
    v = np.sort(v)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def kernel_eval(ctx: KernelContext, s, y, t, x):
    """Kernel values ``K(s, y; t, x)``, broadcast over the four arguments.

    The points are grouped by line pair ``(s, t)``, and each pair takes one
    :func:`kernel_matrix` block over its distinct ``y`` by its distinct ``x``,
    from which the requested entries are gathered; scattered points of one
    pair therefore evaluate the full cross product.  Lines must be integers.
    Scalar input returns a float.
    """
    for line in (np.asarray(s), np.asarray(t)):
        if line.size and line.dtype.kind not in "iu":
            raise TypeError(f"lines must be integers, got {line.ravel()[0].item()!r}")
    s, y, t, x = np.broadcast_arrays(s, np.asarray(y, dtype=float), t, np.asarray(x, dtype=float))
    shape = s.shape
    s, y, t, x = (v.ravel() for v in (s, y, t, x))
    out = np.empty(s.size)
    for si, ti in dict.fromkeys(zip(s.tolist(), t.tolist())):  # distinct pairs, first seen first
        sel = (s == si) & (t == ti)
        ysel, xsel = y[sel], x[sel]
        ys, xs = _distinct(ysel), _distinct(xsel)
        out[sel] = kernel_matrix(ctx, si, ys, ti, xs)[np.searchsorted(ys, ysel), np.searchsorted(xs, xsel)]
    return float(out[0]) if not shape else out.reshape(shape)


def line_density(ctx: KernelContext, t: int, xs):
    """Diagonal values ``K(t, x; t, x)`` — the one-bead density on line ``t``."""
    spec = ctx.spec
    if not 1 <= t <= spec.n_lines:
        raise ValueError(f"line {t} outside 1..{spec.n_lines}")
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    _check_positions("line", xs_arr)
    d = ctx.lines[t - 1]
    # K(t, x; t, x) = w_t(x) sum_n p_n(x)^2
    half_log, psi = _tower(d, xs_arr, 0.5 * d.pa, 0.5 * d.pb)
    out = np.exp(2.0 * (half_log - d.half_log_n0) + np.log(np.einsum("ni,ni->i", psi, psi)))
    return float(out[0]) if np.ndim(xs) == 0 else out


@lru_cache(maxsize=8)
def _gauss_legendre_unit(n: int):
    u, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (u + 1.0), 0.5 * w


def expected_count(ctx: KernelContext, t: int, nodes: int | None = None) -> float:
    """``int_0^1 K(t, x; t, x) dx`` — must reproduce the bead count of line ``t``.

    The integrand is a polynomial of degree ``p + q - 2``, so the default
    ``(p + q) // 2 + 1`` Gauss–Legendre nodes integrate it exactly.
    """
    if nodes is None:
        nodes = (ctx.spec.p + ctx.spec.q) // 2 + 1
    x, w = _gauss_legendre_unit(nodes)
    return float(np.dot(w, line_density(ctx, t, x)))


def npoint_correlation(ctx: KernelContext, points: Sequence) -> float:
    """Correlation function ``det[K(t_i, x_i; t_j, x_j)]`` at the given
    ``(line, position)`` pairs."""
    L, X = (np.array([pt[k] for pt in points]) for k in (0, 1))
    return float(np.linalg.det(kernel_eval(ctx, L[:, None], X[:, None], L[None, :], X[None, :])))
