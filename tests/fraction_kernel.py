"""Reference cross-line kernel (``s != t``) in ``fractions.Fraction`` arithmetic.

The straightforward exact route: every incoming/outgoing polynomial is a
tuple of ``Fraction`` monomial coefficients, evaluated by Horner's rule at
the exact rational value of each float position; the rank-``p`` sum and,
for ``s < t``, the one-sided propagator ``(x - y)^{t-s-1}/(t-s-1)!`` are
accumulated as ``Fraction`` and rounded once by ``float()``.  For ``s > t``
the same families apply and the propagator is absent (``s = t`` works too
and gives the exact same-line kernel).  The Jacobi monomial coefficients
come from the binomial double sum, independently of the three-term
recurrence the package uses.  ``beadproc.kernel`` computes the same
rationals for ``s != t`` in integer fixed point, so the two must agree bit
for bit.  Slow (``math.gcd`` on every add and multiply); for tests only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from beadproc.kernel import _norm_fraction


def _gen_binom(nu: int, k: int) -> int:
    # binomial coefficient with integer (possibly negative) upper index
    if k < 0:
        return 0
    if nu >= 0:
        return math.comb(nu, k) if k <= nu else 0
    return (-1) ** k * math.comb(k - nu - 1, k)


@lru_cache(maxsize=None)
def jacobi_monomial_coeffs(n: int, a: int, b: int) -> tuple[int, ...]:
    # Monomial coefficients of the shifted Jacobi polynomial for any integer
    # parameters (each coefficient is polynomial in (a, b), so the binomial
    # form extends the classical one).  Index k holds the x^k coefficient.
    coeffs = [0] * (n + 1)
    for k in range(n + 1):
        lead = _gen_binom(n + a, n - k) * _gen_binom(n + b, k) * (-1) ** k
        if lead == 0:
            continue
        for j in range(n - k + 1):
            coeffs[k + j] += lead * math.comb(n - k, j) * (-1) ** j
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _psi_poly(p: int, q: int, s: int, l: int) -> tuple[Fraction, ...] | None:
    # Incoming family on line s (index l = 1..p), as exact monomial
    # coefficients in y; None when identically zero.
    if s > q:
        deg = p + q - s - l
        if deg < 0:
            return None
        scale = Fraction(math.factorial(q - l), math.factorial(deg))
        scale /= _norm_fraction(deg, s - p, s - q)
        return tuple(scale * c for c in jacobi_monomial_coeffs(deg, s - p, s - q))
    scale = Fraction(math.factorial(q - l), math.factorial(p + q - s - l))
    scale /= _norm_fraction(p - l, q - p, 0)
    base = jacobi_monomial_coeffs(p - l, s - p, q - s)
    out = [Fraction(0)] * (q - s + p - l + 1)
    for j in range(q - s + 1):  # multiply by (1 - y)^(q-s)
        w = scale * math.comb(q - s, j) * (-1) ** j
        for k, c in enumerate(base):
            out[k + j] += w * c
    return tuple(out)


@lru_cache(maxsize=None)
def _phi_poly(p: int, q: int, t: int, l: int) -> tuple[Fraction, ...] | None:
    # Outgoing family on line t (index l = 1..p), exact monomial coefficients in x.
    if t <= p:
        if l > t:
            return None
        scale = Fraction(
            (-1) ** (p + t) * math.factorial(p + q - t - l), math.factorial(q - l)
        )
        return tuple(scale * c for c in jacobi_monomial_coeffs(t - l, p - t, q - t))
    scale = Fraction(math.factorial(p - l), math.factorial(t - l))
    base = jacobi_monomial_coeffs(p - l, t - p, q - t)
    return (Fraction(0),) * (t - p) + tuple(scale * c for c in base)


def _horner(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def cross_block(p: int, q: int, s: int, ys, t: int, xs) -> np.ndarray:
    """``K(s, y_i; t, x_j)`` for any lines ``s``, ``t``: the rank-p transfer
    sum, minus the propagator when ``s < t``."""
    yf = [Fraction(float(v)) for v in ys]
    xf = [Fraction(float(v)) for v in xs]
    psis, phis = [], []
    for l in range(1, p + 1):
        cp = _psi_poly(p, q, s, l)
        cq = _phi_poly(p, q, t, l)
        if cp is None or cq is None:
            continue
        psis.append([_horner(cp, y) for y in yf])
        phis.append([_horner(cq, x) for x in xf])
    fact = math.factorial(t - s - 1) if s < t else 1
    out = np.empty((len(yf), len(xf)), dtype=float)
    for i, y in enumerate(yf):
        for j, x in enumerate(xf):
            tot = sum((pv[i] * qv[j] for pv, qv in zip(psis, phis)), Fraction(0))
            if s < t and y < x:
                tot -= (x - y) ** (t - s - 1) / fact
            out[i, j] = float(tot)
    return out
