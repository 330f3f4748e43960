"""Macroscopic limit shape and bulk-scaling kernels, with a convergence probe.

Three layers, all driven by the aspect ratio ``k = (q - p)/p`` and the scaled
line label ``S = t/p``:

* the global support band ``[c_S, d_S]`` and the normalized one-bead density
  on it (an arcsine-type law in disguise);
* the translation-invariant bulk kernel ``K*`` obtained by zooming in at the
  band's midpoint — an oscillatory integral over [0, 1] for non-negative line
  offsets and minus a tail integral over [1, inf) otherwise — together with
  its one-parameter cousin ``J_gamma`` (equivalent after a rescale, checked
  at determinant level);
* a finite-size probe that evaluates the exact kernel at bulk-scaled points,
  strips the gauge prefactor ``A^{X-Y} (pB)^{s0-t0}``, and reports distances
  to ``K*``.  The gauge constant is ``B = pi u_S / nu``; it conjugates away
  in determinants, so no correlation depends on it.

The tail integrals reduce exactly to the scaled complex exponential integral
``e^z E_d(z)``: ``E_1`` (series near the origin and near the negative real
axis, modified-Lentz continued fraction elsewhere) plus a short upward
recurrence where that recurrence keeps its digits, the continued fraction of
``E_d`` itself elsewhere; no truncation is involved.  Where that fraction has
not settled in its 500 steps, the tail is the half line's residue less the
[0, 1] integral, by the bulk forms' quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .kernel import _gauss_legendre_unit, kernel_context, kernel_eval
from .model import HexagonSpec, _index, _positions, _records

__all__ = [
    "ScalingContext",
    "ProbeRow",
    "support_interval",
    "region_parameters",
    "global_density",
    "scaling_context",
    "bulk_kernel",
    "boutillier_kernel",
    "gamma_parameter",
    "tail_integral_real",
    "bulk_convergence_probe",
]


# Largest aspect ratio served.  The band width's relative error grows like
# k * 1e-14 (3e-9 at k = 1e6 and 1e-5 at k = 1e9, against 50-digit values),
# and from k ~ 1e103 the endpoint formulas overflow.
_K_MAX = 1e6


def _check_ks(k: float, S: float) -> None:
    if not 0.0 <= k <= _K_MAX:
        raise ValueError(f"aspect ratio k must lie in [0, {_K_MAX:g}], got {k}")
    if not 0.0 <= S <= 2.0 + k:
        raise ValueError(f"scaled label S must lie in [0, {2 + k}], got {S}")


def _finite(value: float, name: str, *args) -> float:
    # the value of name(*args), or OverflowError where it is not a finite double
    if not math.isfinite(value):
        raise OverflowError(f"{name}{args!r} is outside the range of a double")
    return value


def support_interval(k: float, S: float) -> tuple[float, float]:
    """Endpoints ``(c_S, d_S)`` of the macroscopic band on line label ``S``.

    Degenerates to the single point ``1/(k+2)`` at ``S = 0`` and to
    ``(k+1)/(k+2)`` at ``S = 2+k``.  The band touches 0 at ``S = 1`` and 1
    at ``S = k+1``; both ends are clamped to [0, 1], so rounding there
    cannot step outside the unit interval.
    """
    _check_ks(k, S)
    mid = S * k / (k + 2.0) ** 2 + 1.0 / (k + 2.0)
    half = 2.0 * math.sqrt(S * (k + 1.0) * (k + 2.0 - S)) / (k + 2.0) ** 2
    return max(mid - half, 0.0), min(mid + half, 1.0)


def region_parameters(k: float, S: float) -> tuple[float, float]:
    """Effective one-line weight exponents ``(a, b)``; three regimes in ``S``."""
    _check_ks(k, S)
    if S <= 0.0 or S >= 2.0 + k:
        raise ValueError("region parameters degenerate at S = 0 and S = 2+k")
    if S <= 1.0:  # a <= b, so b is the one to leave a double as S -> 0
        return (1.0 - S) / S, _finite((k + 1.0 - S) / S, "region_parameters", k, S)
    if S <= 1.0 + k:
        return S - 1.0, k + 1.0 - S
    return (S - 1.0) / (2.0 + k - S), (S - k - 1.0) / (2.0 + k - S)


def global_density(k: float, S: float, y):
    """Normalized limit density at height ``y`` on line label ``S``.

    Vanishes (like a square root) off the open band ``(c_S, d_S)``; heights
    outside (0, 1) raise ``heights must lie strictly inside (0, 1), got 1.0``.
    """
    _check_ks(k, S)
    y_arr = np.atleast_1d(_positions(y, "heights"))
    if S == 0.0 or S == 2.0 + k:
        out = np.zeros_like(y_arr)
        return float(out[0]) if np.ndim(y) == 0 else out
    a, b = region_parameters(k, S)
    c, d = support_interval(k, S)
    rad = (y_arr - c) * (d - y_arr)
    out = np.where(
        rad > 0.0,
        (2.0 + a + b) / (2.0 * math.pi) * np.sqrt(np.maximum(rad, 0.0)) / (y_arr * (1.0 - y_arr)),
        0.0,
    )
    return float(out[0]) if np.ndim(y) == 0 else out


@dataclass(frozen=True)
class ScalingContext:
    """Bulk constants at the band midpoint ``X_S`` of line label ``S``: the density
    ``u_S`` there, ``nu`` and the gauge constant ``B = pi u_S / nu``; the probe
    computes its own ``A = e^{pi/nu}``."""

    X_S: float
    u_S: float
    nu: float
    B: float


# typed: an np.float64 k gives np.float64 X_S, nu and B, and a Python float
# gives floats; untyped, whichever came first would serve both
@lru_cache(maxsize=8, typed=True)
def scaling_context(k: float, S: float) -> ScalingContext:
    """The four midpoint constants of :class:`ScalingContext`, ``u_S`` being
    ``global_density(k, S, X_S)``; needs ``k > 0`` and the plateau
    ``1 <= S <= k+1``, and serves every ``k <= 1e6``.  Raises
    ``OverflowError`` naming the call where ``nu`` leaves a double.  Memoized,
    as :func:`~beadproc.kernel.kernel_context` is, so a probe over several
    ``p`` builds one context; a refused ``(k, S)`` raises on every call."""
    _check_ks(k, S)
    if k <= 0:
        raise ValueError("bulk constants need k > 0 (p = q makes nu infinite)")
    if not 1.0 <= S <= k + 1.0:
        raise ValueError(f"plateau labels need 1 <= S <= {k + 1}, got {S}")
    nu = _finite((2.0 + k) / k * math.sqrt((1.0 + k) / (S * (2.0 + k - S))), "scaling_context", k, S)
    c, d = support_interval(k, S)
    X_S = 0.5 * (c + d)
    u_S = global_density(k, S, X_S)
    return ScalingContext(X_S=X_S, u_S=u_S, nu=nu, B=math.pi / nu * u_S)  # this order keeps B = 2 exact at k = S = 2


def gamma_parameter(k: float, S: float) -> float:
    """Anisotropy parameter of ``J_gamma``: ``1/sqrt(1 + nu^2)``, ``nu`` from :func:`scaling_context`."""
    nu = float(scaling_context(k, S).nu)  # a Python float: nu * nu overflows to inf without a warning
    if math.isinf(nu * nu):  # nu > 1.3e154, where 1 + nu^2 rounds to nu^2 anyway
        return 1.0 / nu
    return 1.0 / math.sqrt(1.0 + nu * nu)


# --- tail integrals ----------------------------------------------------------

_EULER_GAMMA = 0.5772156649015328606
_E1_TERMS = 200  # series cap; the series converges within it for every |z| <= 70
_FRACTION_STEPS = 500  # step budget of both continued fractions, E_1's and E_d's


def _en_fraction(z: complex, n: int) -> complex | None:
    """``e^z E_n(z)`` by its continued fraction, or ``None`` if that has not
    converged within ``_FRACTION_STEPS`` steps.  Needs ``Im z != 0``.

    A step factor ``delta`` that rounds to 1 ends the fraction.  Far from
    the origin (``|z| ~ 1e19`` and beyond) the factors differ from 1 by less
    than an ulp and can round to a neighbour of 1 instead, the same one step
    after step; multiplying each in would drift ``f`` by an ulp a step.  So
    a factor repeated 8 times in a row ends it too, with ``f`` as it stood
    after the first of them.  Runs of repeats that end in a factor of 1 are
    shorter (at most 6 seen, over ``nu`` from 0.01 to 100), so they keep
    their bytes.
    """
    # modified Lentz on the even continued fraction
    # 1/(z+n- 1n/(z+n+2- 2(n+1)/(z+n+4- ...))), with no zero guard: a < 0,
    # so a d (d = 1/the last denominator) and a/c keep the sign of Im b = Im z,
    # and no denominator's imaginary part is below |Im z| in size
    f = z + n
    c, d, last = f, complex(0.0), None
    for i in range(1, _FRACTION_STEPS):
        a = -float(i * (i + n - 1))
        b = z + 2.0 * i + n
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return 1.0 / f
        if delta != last:
            last, settled, repeats = delta, f, 0
        elif (repeats := repeats + 1) == 8:
            return 1.0 / settled
    return None


def _e1_scaled(z: complex) -> complex:
    """``e^z E_1(z)`` off the branch cut (-inf, 0].

    The continued fraction serves ``|z| > 4`` and the series the rest, but
    within about 0.4 rad of the negative real axis, out to ``|z| ~ 42``, the
    fraction does not converge in its 500 steps.  There the series terms
    nearly share one sign, so the series loses few digits and takes over.
    """
    if abs(z) > 4.0 and (value := _en_fraction(z, 1)) is not None:
        return value
    total = complex(0.0)
    term = complex(1.0)
    for n in range(1, _E1_TERMS):
        term *= -z / n
        piece = -term / n
        total += piece
        if abs(piece) < 1e-18 * (1.0 + abs(total)):
            return cmath.exp(z) * (-_EULER_GAMMA - cmath.log(z) + total)
    raise ValueError(
        f"e^z E_1(z) is out of reach at z = {z}: the continued fraction does not converge "
        "and the power series serves |z| <= 70 only"
    )


def tail_integral_real(tau: float, nu: float, d: int) -> float:
    """``Re(int_1^inf e^{i tau t} (1 + i nu t)^{-d} dt)`` for integer ``d >= 1``.

    Exact reduction: substitute onto the shifted ray, where the integral is
    the scaled exponential integral ``e^z E_d(z)``, ``z = -tau/nu - i tau``.
    ``E_1`` closes it, and the integration-by-parts recurrence climbs to
    ``d <= 500`` while the rounding error it multiplies by ``|z| / (j - 1)``
    at step ``j`` stays small; otherwise the continued fraction of ``E_d``
    gives it directly.  No truncation anywhere, hence no truncation tolerance.
    Where that fraction has not settled in its 500 steps (mostly ``d`` near
    ``|z|`` with ``tau nu`` small), the tail is the residue of the whole half
    line less its [0, 1] part (:func:`_tail_by_residue`).  Where the fraction
    would settle later, that form is within 5e-12 relative (the fraction:
    6e-10), and far sooner.  Where ``tau/nu`` overflows, the value is
    ``-sin(tau)/tau``, the first integration-by-parts term: the rest is below
    ``d nu / tau^2`` of it.  Raises ``ValueError`` naming tau, nu and d where
    the residue form's two terms cancel, and ``OverflowError`` where the value
    is outside the range of a double.
    """
    d = _index(d, "tail power d", 1)
    if not (math.isfinite(tau) and math.isfinite(nu)) or nu == 0.0:
        raise ValueError(f"tail integrals need finite tau and finite nu != 0, got tau = {tau}, nu = {nu}")
    if tau == 0.0 and d == 1:
        value = (0.5 * math.pi - math.atan(abs(nu))) / abs(nu)
    elif tau == 0.0:
        value = ((1 + 1j * nu) ** (1 - d)).imag / ((d - 1) * nu)
    elif math.isinf(tau / nu):
        value = -math.sin(tau) / tau
    else:
        beta = 1j * nu / (1.0 + 1j * nu)
        z = complex(-tau / nu, -tau)
        # g_j = e^z E_j(z) / beta.  The recurrence multiplies the error of
        # g_1 by |z|^(d-1) / (d-1)! and loses about eps times that, give or
        # take a factor 100: it serves up to 1e3.  That bounds the last g_j
        # only: on the way the g_j peak near j ~ |z| and may overflow, and the
        # loop takes d steps, so it serves d <= _FRACTION_STEPS alone.  Past
        # either limit the fraction serves; near d ~ |z| it needs about
        # 300 / (tau nu) steps.
        if d == 1 or (d <= _FRACTION_STEPS and (d - 1) * math.log(abs(z)) - math.lgamma(d) <= math.log(1e3)):
            g = _e1_scaled(z) / beta
            for j in range(2, d + 1):
                g = (1.0 + 1j * tau * g) / (beta * (j - 1))
        else:
            h = _en_fraction(z, d)
            g = None if h is None else h / beta
        if g is None:  # the fraction gave up too
            value = _tail_by_residue(tau, nu, d)
        else:
            value = (cmath.exp(1j * tau) * _inverse_power(nu, d) * g).real
    return _finite(value, "tail_integral_real", tau, nu, d)


def _inverse_power(nu: float, d: int) -> complex:
    """``(1 + i nu)^(-d)``.

    Python's power raises the rounded modulus ``|1 + i nu|`` to ``-d``, which
    multiplies its rounding error by ``d``: 2e-12 relative at ``d = 1e5``,
    ``nu = 1e-4``.  Past ``_FRACTION_STEPS`` the modulus goes in logs instead,
    as ``log1p(nu^2) / 2``, which keeps its relative accuracy; up to it the
    power keeps its bytes.
    """
    if d <= _FRACTION_STEPS:
        return (1.0 + 1j * nu) ** (-d)
    return cmath.exp(complex(-0.5 * d * math.log1p(nu * nu), -d * math.atan(nu)))


def _tail_by_residue(tau: float, nu: float, d: int) -> float:
    """The tail of order ``d >= 2`` as the half-line integral ``R`` less its
    [0, 1] part ``H``.

    Closing the contour through the pole at ``t = i/nu``, with
    ``Re f(-t) = Re f(t)``, gives
    ``R = pi |tau|^(d-1) e^(-tau/nu) / (|nu|^d (d-1)!)`` where ``tau/nu > 0``
    and 0 otherwise; it is taken in logs, as ``nu^d`` and ``(d-1)!`` leave a
    double.  ``H`` is the bulk forms' [0, 1] rule.  Raises ``ValueError``
    naming tau, nu and d where the two cancel to below 1e-3 of the larger.
    """
    r = 0.0
    if tau / nu > 0.0:
        log_r = (d - 1) * math.log(abs(tau)) - tau / nu - d * math.log(abs(nu)) - math.lgamma(d)
        r = math.pi * math.exp(log_r) if log_r < 709.0 else math.inf  # inf: _finite names the call
    h = _unit_integral(1.0, nu, -d, tau)
    if abs(r - h) < 1e-3 * max(abs(r), abs(h)):
        raise ValueError(
            f"tail integral out of reach at tau = {tau}, nu = {nu}, d = {d}: the recurrence would lose "
            "too many digits, the continued fraction does not converge and the residue form cancels"
        )
    return r - h


# --- bulk kernels -------------------------------------------------------------

_BULK_NODES = 200  # Gauss-Legendre nodes for the [0, 1] integrals of both bulk forms


def _check_bulk_positions(Y: float, X: float) -> None:
    if not math.isfinite(math.pi * (X - Y)):  # so is every phase of either kernel
        raise ValueError(f"bulk positions Y, X must be finite reals with pi (X - Y) finite, got ({Y}, {X})")


def _unit_integral(a: float, b: float, d: int, tau: float) -> float:
    # int_0^1 Re(e^{i tau t} (a + i b t)^d) dt by the _BULK_NODES rule; inf or
    # nan where a power overflows
    t, w = _gauss_legendre_unit(_BULK_NODES)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (np.exp(1j * tau * t) * (a + 1j * b * t) ** d).real
        return float(np.dot(w, vals))


def _bulk_form(a: float, b: float, s0: int, t0: int, tau: float) -> float:
    # int_0^1 Re(e^{i tau t} (a + i b t)^d) dt, d = s0 - t0, when d >= 0 or at
    # the jump boundary tau == 0; minus the [1, inf) tail otherwise.  inf
    # where a**d or the tail overflows, so the caller's _finite names its call.
    d = _index(s0, "s0", None) - _index(t0, "t0", None)
    if d >= 0 or tau == 0.0:
        return _unit_integral(a, b, d, tau)
    try:
        return -(a**d) * tail_integral_real(tau, b / a, -d)
    except OverflowError:
        return math.inf


def bulk_kernel(nu: float, s0: int, Y: float, t0: int, X: float) -> float:
    """Translation-invariant bulk kernel at line offsets ``s0, t0``.

    ``int_0^1 Re(e^{i pi t (X-Y)} (1 + i t nu)^{s0-t0}) dt`` when
    ``s0 >= t0``; minus the matching [1, inf) tail otherwise.  Reduces to the
    sine kernel on a single line.

    At the jump boundary ``X == Y`` with ``s0 < t0`` the two branch values
    disagree by the half-residue ``pi/(2 nu)`` when ``t0 - s0 == 1`` (they
    coincide for larger gaps).  There the [0, 1] integral is used: it is the
    pointwise limit of the finite-size kernel, whose propagator term vanishes
    at coincident points.  Raises ``OverflowError`` where the value is
    outside the range of a double.
    """
    if not 0.0 < nu < math.inf:
        raise ValueError(f"bulk kernel needs finite nu > 0, got {nu}")
    _check_bulk_positions(Y, X)
    value = _bulk_form(1.0, nu, s0, t0, math.pi * (X - Y))
    return _finite(value, "bulk_kernel", nu, s0, Y, t0, X)


def boutillier_kernel(gamma: float, s0: int, Y: float, t0: int, X: float) -> float:
    """One-parameter bulk kernel ``J_gamma``; equivalent to :func:`bulk_kernel`
    after the rescale ``pi * J(s0, pi Y; t0, pi X) = gamma^{s0-t0} K*`` —
    the gamma powers conjugate away in determinants.  Same coincident-point
    convention as :func:`bulk_kernel`, so the rescale identity holds pointwise
    including at ``X == Y``.  Raises ``OverflowError`` where the value is
    outside the range of a double."""
    if not -1.0 < gamma < 1.0 or gamma == 0.0:
        raise ValueError(f"gamma must lie in (-1, 1) and be nonzero, got {gamma}")
    _check_bulk_positions(Y, X)
    value = _bulk_form(gamma, math.sqrt(1.0 - gamma * gamma), s0, t0, X - Y) / math.pi
    return _finite(value, "boutillier_kernel", gamma, s0, Y, t0, X)


# --- finite-size convergence probe --------------------------------------------


@dataclass(frozen=True)
class ProbeRow:
    """One offset's normalized finite-kernel value against the bulk limit."""

    s0: int
    t0: int
    X: float
    Y: float
    scaled: float  # (1/(p u_S)) K(line_s, y; line_t, x), no gauge applied
    normalized: float  # scaled / (A^{X-Y} (pB)^{s0-t0})
    limit: float  # bulk_kernel value
    abs_err: float


def bulk_convergence_probe(
    k: float,
    S: float,
    p: int,
    offsets: Sequence[tuple[int, int, float, float]],
) -> list[ProbeRow]:
    """Exact finite-``p`` kernel at bulk-scaled points versus the limit kernel.

    Points ``(s0, t0, X, Y)`` name integer line offsets from ``round(pS)``
    and positions ``X_S + X/(p u_S)``.  The finite kernel is scaled by
    ``1/(p u_S)`` and divided by the gauge ``A^{X-Y} (pB)^{s0-t0}`` — the
    ``p``-power is the size part of the same gauge and, like ``B`` itself,
    cancels from every correlation determinant.

    Raises ``ValueError`` before any kernel work for an offset that is not
    ``(s0, t0, X, Y)``, a line offset whose line is off the fan, or an ``X``
    or ``Y`` whose position is not strictly inside (0, 1); ``OverflowError``
    naming ``A``, ``k`` and ``S`` where the gauge ``A = e^{pi/nu}`` leaves a
    double (``nu < pi/709.78``, from about ``k = 2e5`` at mid-plateau).
    """
    ctx_s = scaling_context(k, S)
    try:
        A = math.exp(math.pi / ctx_s.nu)
    except OverflowError:
        raise OverflowError(f"gauge A = e^(pi/nu) at (k, S) = {(k, S)!r} is outside the range of a double") from None
    p = _index(p, "p", 1)  # a Python int, so every row holds floats
    q_real = p * (1.0 + k)
    q = round(q_real)
    if abs(q_real - q) > 1e-9:
        raise ValueError(f"q = p(1+k) = {q_real} is not an integer")
    spec = HexagonSpec(p, q)
    center = round(p * S)
    lo, hi = 1 - center, spec.n_lines - center  # the offsets whose line is in range
    offsets = _records(offsets, "offset", ("s0", "t0", "X", "Y"))
    s0s = [_index(off[0], "offset s0", lo, hi) for off in offsets]
    t0s = [_index(off[1], "offset t0", lo, hi) for off in offsets]
    Xs, Ys = (np.array([off[j] for off in offsets], dtype=float) for j in (2, 3))
    scale = p * ctx_s.u_S
    xy = np.array([Xs, Ys])
    points = ctx_s.X_S + xy / scale
    outside = ~((0.0 < points) & (points < 1.0))  # a NaN too
    if outside.any():
        j, i = np.argwhere(outside)[0]
        name, value = "XY"[j], float(xy[j, i])
        span = f"({-ctx_s.X_S * scale:.6g}, {(1.0 - ctx_s.X_S) * scale:.6g})"
        where = f"puts X_S + {name}/(p u_S) outside (0, 1); {name} must lie in about {span}"
        raise ValueError(f"offset {name} = {value!r} at p = {p} {where}")
    line_s, line_t = center + np.array(s0s), center + np.array(t0s)
    values = kernel_eval(kernel_context(spec), line_s, points[1], line_t, points[0])
    rows = []
    for s0, t0, X, Y, value in zip(s0s, t0s, Xs.tolist(), Ys.tolist(), values.tolist()):
        scaled = value / scale
        normalized = scaled / (A ** (X - Y) * (p * ctx_s.B) ** (s0 - t0))
        limit = _finite(_bulk_form(1.0, ctx_s.nu, s0, t0, math.pi * (X - Y)), "bulk_kernel", ctx_s.nu, s0, Y, t0, X)
        rows.append(
            ProbeRow(
                s0=s0,
                t0=t0,
                X=X,
                Y=Y,
                scaled=scaled,
                normalized=normalized,
                limit=limit,
                abs_err=abs(normalized - limit),
            )
        )
    return rows
