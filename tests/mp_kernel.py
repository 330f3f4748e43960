"""Reference kernel for ``s >= t`` in mpmath, 60 significant digits.

The biorthogonal route, which the package no longer takes: shifted Jacobi
polynomials ``P~_n`` from the classical unnormalized three-term recurrence,
squared norms and weights ``C_l`` from exact factorials, and the kernel as
``a_s(y) b_t(x) sum_l C_{s,l} / (C_{t,l} N_{t,r_t-l}) P~_{r_s-l}(y) P~_{r_t-l}(x)``.
The package computes ``s = t`` by an orthonormal float recurrence and
``s > t`` exactly from incoming/outgoing families, so this checks both
through a different representation.
At 60 digits neither range nor cancellation is a concern at the sizes the
tests use, so this is the reference for values a double cannot hold too.
Slow; for tests only.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

_DPS = 60


@lru_cache(maxsize=None)
@mp.workdps(_DPS)
def jacobi_values(nmax: int, a: int, b: int, x: float) -> tuple:
    # P~_0 .. P~_nmax at x, from the recurrence in z = 1 - 2x
    z = 1 - 2 * mp.mpf(x)
    out = [mp.mpf(1)]
    if nmax >= 1:
        out.append(mp.mpf(a - b) / 2 + (1 + mp.mpf(a + b) / 2) * z)
    for n in range(2, nmax + 1):
        c1 = 2 * n * (n + a + b) * (2 * n + a + b - 2)
        c2 = (2 * n + a + b - 1) * (a * a - b * b)
        c3 = (2 * n + a + b - 2) * (2 * n + a + b - 1) * (2 * n + a + b)
        c4 = 2 * (n + a - 1) * (n + b - 1) * (2 * n + a + b)
        out.append(((c2 + c3 * z) * out[-1] - c4 * out[-2]) / c1)
    return tuple(out)


@lru_cache(maxsize=None)
@mp.workdps(_DPS)
def norm(n: int, a: int, b: int):
    # N_n = int_0^1 x^a (1-x)^b P~_n(x)^2 dx
    f = mp.factorial
    return f(n + a) * f(n + b) / ((2 * n + a + b + 1) * f(n) * f(n + a + b))


def line(p: int, q: int, t: int):
    """``(r, pa, pb, C, a_t, b_t)`` of line ``t``: bead count, weight exponents,
    the weight ``C(l)`` and the row and column prefactors."""
    f = mp.factorial
    r = min(t, p, p + q - t)
    if t <= p:
        return (r, p - t, q - t, lambda l: f(t - l) / f(p - l),
                lambda x: (-x) ** (p - t) * (1 - x) ** (q - t), lambda x: mp.mpf(-1) ** (p - t))
    if t <= q:
        return (r, t - p, q - t, lambda l: f(q - l) / f(p + q - t - l),
                lambda x: (1 - x) ** (q - t), lambda x: x ** (t - p))
    return (r, t - p, t - q, lambda l: f(t - l) / f(p - l),
            lambda x: mp.mpf(1), lambda x: x ** (t - p) * (1 - x) ** (t - q))


@mp.workdps(_DPS)
def orthonormal(p: int, q: int, t: int, x: float) -> list:
    """``p_n(x) = P~_n(x) / sqrt(N_n)`` on line ``t``, ``n = 0..r-1``."""
    r, pa, pb = line(p, q, t)[:3]
    vals = jacobi_values(r - 1, pa, pb, x)
    return [v / mp.sqrt(norm(n, pa, pb)) for n, v in enumerate(vals)]


@lru_cache(maxsize=None)
@mp.workdps(_DPS)
def _weights(p: int, q: int, s: int, t: int) -> tuple:
    # C_{s,l} / (C_{t,l} N_{t,r_t-l}), l = 1..min(r_s, r_t)
    rs, _, _, cs = line(p, q, s)[:4]
    rt, pat, pbt, ct = line(p, q, t)[:4]
    return tuple(cs(l) / (ct(l) * norm(rt - l, pat, pbt)) for l in range(1, min(rs, rt) + 1))


@mp.workdps(_DPS)
def entry(p: int, q: int, s: int, y: float, t: int, x: float):
    """``(K(s, y; t, x), sum of the absolute values of its terms)`` for ``s >= t``."""
    rs, pas, pbs, _, a_s, _ = line(p, q, s)
    rt, pat, pbt, _, _, b_t = line(p, q, t)
    py = jacobi_values(rs - 1, pas, pbs, y)
    px = jacobi_values(rt - 1, pat, pbt, x)
    pre = a_s(mp.mpf(y)) * b_t(mp.mpf(x))
    total = size = mp.mpf(0)
    for l, w in enumerate(_weights(p, q, s, t), start=1):
        term = w * py[rs - l] * px[rt - l]
        total += term
        size += abs(term)
    return pre * total, abs(pre) * size
