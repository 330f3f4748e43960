"""Jacobi polynomials shifted to (0, 1), their uniform asymptotics, and the
Jacobi-ensemble line marginal.

The correlation kernel is a sum over the family
``P~_n^{(a,b)}(x) = P_n^{(a,b)}(1 - 2x)``, orthogonal on (0, 1) against
``x^a (1-x)^b``.  This module evaluates them by the three-term recurrence
and provides two independent large-degree approximations (a trigonometric
one with simultaneously growing parameters, and a Darboux-type
generating-function coefficient) used to probe the bulk regime.  The beads
of one line form a Jacobi ensemble: :func:`line_marginal_unnormalized` is
their joint density, the truth for ``beadproc.kernel.line_density``.

``beadproc.kernel`` runs its own orthonormal recurrence and exact integer
families; nothing here is on a package path.  For tests only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from beadproc.model import HexagonSpec, InterlacingShapeError, _index, particles_per_line

__all__ = [
    "JacobiIndex",
    "CIParams",
    "DarbouxData",
    "jacobi_shifted",
    "jacobi_tower",
    "ci_params",
    "ci_asymptotic",
    "szego_asymptotic",
    "darboux_data",
    "darboux_coefficient",
    "line_weight",
    "line_marginal_unnormalized",
]


@dataclass(frozen=True)
class JacobiIndex:
    """Degree and weight exponents of one shifted Jacobi polynomial."""

    n: int
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= -1 or self.b <= -1:
            raise ValueError(f"weight exponents must exceed -1, got ({self.a}, {self.b})")


def jacobi_tower(nmax: int, a: float, b: float, x):
    """Values of ``P~_0 .. P~_nmax`` at ``x`` (scalar or array), shape ``(nmax+1,) + x.shape``.

    Single pass of the three-term recurrence in ``z = 1 - 2x``; the leading
    recurrence coefficient ``2n(n+a+b)(2n+a+b-2)`` is strictly positive for
    ``a, b > -1`` and ``n >= 2``, so no division guards are needed.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if a <= -1 or b <= -1:
        raise ValueError(f"weight exponents must exceed -1, got ({a}, {b})")
    z = 1.0 - 2.0 * np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + z.shape, dtype=float)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 0.5 * (a - b) + (1.0 + 0.5 * (a + b)) * z
    for n in range(2, nmax + 1):
        c1 = 2.0 * n * (n + a + b) * (2 * n + a + b - 2)
        c2 = (2 * n + a + b - 1) * (a * a - b * b)
        c3 = (2 * n + a + b - 2) * (2 * n + a + b - 1) * (2 * n + a + b)
        c4 = 2.0 * (n + a - 1) * (n + b - 1) * (2 * n + a + b)
        out[n] = ((c2 + c3 * z) * out[n - 1] - c4 * out[n - 2]) / c1
    return out


def jacobi_shifted(idx: JacobiIndex, x):
    """``P~_n^{(a,b)}(x)``; identically 0 for negative degree."""
    if idx.n < 0:
        x = np.asarray(x, dtype=float)
        return 0.0 if x.ndim == 0 else np.zeros_like(x)
    vals = jacobi_tower(idx.n, idx.a, idx.b, x)[idx.n]
    return float(vals) if np.ndim(vals) == 0 else vals


@dataclass(frozen=True)
class CIParams:
    """Discriminant and the three phase angles of the oscillatory regime.

    ``delta < 0`` marks the oscillatory band; outside it the angles are NaN
    and callers must check ``delta`` before using them.  All angles lie in
    ``(-pi, pi]``.
    """

    delta: float
    rho: float
    theta: float
    gamma: float


def ci_params(a: float, b: float, z: float) -> CIParams:
    """Phase data for ``P_n^{(alpha+an, beta+bn)}(z)`` with z on (-1, 1)."""
    z = float(z)
    if not -1.0 < z < 1.0:
        raise ValueError(f"z must lie strictly inside (-1, 1), got {z}")
    base = a * (z + 1.0) + b * (z - 1.0)
    delta = base * base - 4.0 * (a + b + 1.0) * (1.0 - z * z)
    if delta < 0.0:
        s = math.sqrt(-delta)
        rho = math.atan2(s, base)
        theta = math.atan2(s, (3.0 * a + b + 2.0) - (a + b + 2.0) * z)
        gamma = math.atan2(-s, (a + b + 2.0) * z + (a + 3.0 * b + 2.0))
    else:
        rho = theta = gamma = math.nan
    return CIParams(delta=delta, rho=rho, theta=theta, gamma=gamma)


def ci_asymptotic(n: int, alpha: float, beta: float, a: float, b: float, z: float) -> float:
    """Large-``n`` value of ``P_n^{(alpha+an, beta+bn)}(z)``, oscillatory regime.

    Assembled in log space (every amplitude base is positive inside the band),
    with relative accuracy O(1/n).  Raises when the discriminant is
    nonnegative — that is the exponential regime, which this formula does not
    cover.
    """
    if n < 1:
        raise ValueError("asymptotics need n >= 1")
    par = ci_params(a, b, z)
    if not par.delta < 0.0:
        raise ValueError(f"point (a={a}, b={b}, z={z}) is outside the oscillatory band")
    s = math.sqrt(-par.delta)
    logamp = (
        0.5 * (math.log(4.0) - math.log(math.pi * n * s))
        + (0.5 * n * (a + 1.0) + 0.5 * alpha + 0.25)
        * math.log(2.0 * (a + 1.0) / ((1.0 - z) * (1.0 + a + b)))
        + (0.5 * n * (b + 1.0) + 0.5 * beta + 0.25)
        * math.log(2.0 * (b + 1.0) / ((1.0 + z) * (1.0 + a + b)))
        + (0.5 * n + 0.25) * math.log((1.0 - z * z) * (a + b + 1.0) / 4.0)
    )
    phase = (
        (n * (a + 1.0) + alpha + 0.5) * par.theta
        + (n * (b + 1.0) + beta + 0.5) * par.gamma
        - (n + 0.5) * par.rho
        + 0.25 * math.pi
    )
    return math.exp(logamp) * math.cos(phase)


def szego_asymptotic(n: int, alpha: float, beta: float, phi: float) -> float:
    """Classical fixed-parameter asymptotics of ``P_n^{(alpha,beta)}(cos phi)``.

    Kept as an independent specialization target: at ``a = b = 0`` the
    growing-parameter formula must collapse to this one.
    """
    if not 0.0 < phi < math.pi:
        raise ValueError(f"phi must lie in (0, pi), got {phi}")
    amp = (
        (math.pi * n) ** -0.5
        * math.sin(0.5 * phi) ** (-alpha - 0.5)
        * math.cos(0.5 * phi) ** (-beta - 0.5)
    )
    phase = (n + 0.5 * (alpha + beta + 1.0)) * phi - (alpha + 0.5) * 0.5 * math.pi
    return amp * math.cos(phase)


@dataclass(frozen=True)
class DarbouxData:
    """Singularity data of the Jacobi generating function at one point.

    ``t_plus``/``t_minus`` are the conjugate branch points nearest the origin;
    ``B_plus``/``B_minus`` the matching amplitudes.  Valid only inside the
    oscillatory band (negative discriminant).
    """

    xi_plus: complex
    xi_minus: complex
    eta_plus: complex
    eta_minus: complex
    t_plus: complex
    t_minus: complex
    B_plus: complex
    B_minus: complex


def darboux_data(a: float, b: float, z: float, alpha: float, beta: float) -> DarbouxData:
    par = ci_params(a, b, z)
    if not par.delta < 0.0:
        raise ValueError(f"point (a={a}, b={b}, z={z}) is outside the oscillatory band")
    s = math.sqrt(-par.delta)
    base = b * (z - 1.0) + a * (z + 1.0)
    xi_p = (base + 1j * s) / (2.0 * (1.0 + a + b) * (1.0 - z))
    xi_m = xi_p.conjugate()
    eta_p = (z - 1.0) / (z + 1.0) * xi_p
    eta_m = eta_p.conjugate()
    t_p = (
        (base + 1j * s)
        / ((1.0 + a + b) * (1.0 - z * z))
        * (1.0 + xi_p) ** (-1.0 - a)
        * (1.0 + eta_p) ** (-1.0 - b)
    )
    t_m = t_p.conjugate()
    # The pi/4 phase carries the + sign on the upper branch: with e^{-i pi/4}
    # the assembled coefficient would vanish identically at the Legendre point
    # a=b=z=0 for even n, where P_n(0) is nonzero.
    B_p = (
        cmath.exp(0.25j * math.pi)
        * (-par.delta) ** -0.25
        * (1.0 + xi_p) ** (alpha - 0.5 * a)
        * (1.0 + eta_p) ** (beta - 0.5 * b)
    )
    B_m = B_p.conjugate()
    return DarbouxData(xi_p, xi_m, eta_p, eta_m, t_p, t_m, B_p, B_m)


def darboux_coefficient(n: int, alpha: float, beta: float, a: float, b: float, z: float) -> float:
    """Degree-``n`` generating-function coefficient approximation.

    The two branch-point contributions are complex conjugates, so the sum is
    ``2 Re``; with the binomial factor replaced by its own asymptotics the
    result is an independent route to the same leading order as
    :func:`ci_asymptotic`.
    """
    if n < 1:
        raise ValueError("asymptotics need n >= 1")
    d = darboux_data(a, b, z, alpha, beta)
    val = 2.0 * (d.B_plus * d.t_plus ** (-n - 0.5)).real
    return n ** -0.5 / math.sqrt(math.pi) * val


# --- Jacobi-ensemble line marginal ---------------------------------------------


def line_weight(spec, t, x):
    """One-bead weight ``(1-x)^|q-t| * x^|p-t|`` entering the line marginal.

    Vanishes at ``x=0`` iff ``t != p`` and at ``x=1`` iff ``t != q``.  Accepts
    scalars or arrays.
    """
    t = _index(t, "line t", 1, spec.n_lines)
    x = np.asarray(x, dtype=float)
    w = (1.0 - x) ** abs(spec.q - t) * x ** abs(spec.p - t)
    return float(w) if w.ndim == 0 else w


def line_marginal_unnormalized(spec: HexagonSpec, t: int, xs):
    """Unnormalized joint density of the beads on line ``t``.

    Equals the squared Vandermonde of a row times the product of
    :func:`line_weight` values.  ``xs`` is one row ``(r(t),)``, giving a
    float, or rows ``(count, r(t))``, giving one value per row; every row
    must be strictly decreasing and stay inside (0, 1).
    """
    r = particles_per_line(spec, t)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim not in (1, 2) or xs.shape[-1] != r:
        raise InterlacingShapeError(f"line {t}: expected shape ({r},) or (count, {r}), got {xs.shape}")
    if not np.all((0.0 < xs) & (xs < 1.0)):
        raise ValueError(f"line {t}: positions must lie strictly inside (0, 1), got {xs}")
    if not np.all(xs[..., 1:] < xs[..., :-1]):
        raise ValueError(f"line {t}: positions must strictly decrease, got {xs}")
    i, j = np.triu_indices(r, 1)
    vand = np.prod((xs[..., i] - xs[..., j]) ** 2, axis=-1)
    value = vand * np.prod(line_weight(spec, t, xs), axis=-1)
    return float(value) if xs.ndim == 1 else value
