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
``e^z E_1(z)`` (series near the origin, modified-Lentz continued fraction
farther out) plus a short upward recurrence; no truncation is involved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import _gauss_legendre_unit, kernel_context, kernel_eval
from .model import HexagonSpec

__all__ = [
    "ScalingContext",
    "ProbeRow",
    "support_interval",
    "region_parameters",
    "global_density",
    "midpoint_density",
    "scaling_context",
    "bulk_kernel",
    "boutillier_kernel",
    "gamma_parameter",
    "tail_integral_real",
    "bulk_convergence_probe",
]


def _check_ks(k: float, S: float) -> None:
    if k < 0:
        raise ValueError(f"aspect ratio k must be >= 0, got {k}")
    if not 0.0 <= S <= 2.0 + k:
        raise ValueError(f"scaled label S must lie in [0, {2 + k}], got {S}")


def support_interval(k: float, S: float) -> tuple[float, float]:
    """Endpoints ``(c_S, d_S)`` of the macroscopic band on line label ``S``.

    Degenerates to the single point ``1/(k+2)`` at ``S = 0`` and to
    ``(k+1)/(k+2)`` at ``S = 2+k``.
    """
    _check_ks(k, S)
    mid = S * k / (k + 2.0) ** 2 + 1.0 / (k + 2.0)
    half = 2.0 * math.sqrt(S * (k + 1.0) * (k + 2.0 - S)) / (k + 2.0) ** 2
    return mid - half, mid + half


def region_parameters(k: float, S: float) -> tuple[float, float]:
    """Effective one-line weight exponents ``(a, b)``; three regimes in ``S``."""
    _check_ks(k, S)
    if S <= 0.0 or S >= 2.0 + k:
        raise ValueError("region parameters degenerate at S = 0 and S = 2+k")
    if S <= 1.0:
        return (1.0 - S) / S, (k + 1.0 - S) / S
    if S <= 1.0 + k:
        return S - 1.0, k + 1.0 - S
    return (S - 1.0) / (2.0 + k - S), (S - k - 1.0) / (2.0 + k - S)


def global_density(k: float, S: float, y):
    """Normalized limit density at height ``y`` on line label ``S``.

    Vanishes (like a square root) off the open band ``(c_S, d_S)``; heights
    must lie strictly inside (0, 1).
    """
    _check_ks(k, S)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if y_arr.size and not (np.all(y_arr > 0.0) and np.all(y_arr < 1.0)):
        raise ValueError("heights must lie strictly inside (0, 1)")
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


def midpoint_density(k: float, S: float) -> float:
    c, d = support_interval(k, S)
    return float(global_density(k, S, 0.5 * (c + d)))


@dataclass(frozen=True)
class ScalingContext:
    """Bulk constants at the band midpoint of line label ``S``; the gauge
    constant is ``B = pi u_S / nu``."""

    k: float
    S: float
    c_S: float
    d_S: float
    X_S: float
    u_S: float
    nu: float
    A: float
    B: float


def scaling_context(k: float, S: float) -> ScalingContext:
    """All midpoint constants, with ``A = e^{pi/nu}`` and ``B = pi u_S / nu``;
    needs ``k > 0`` and the plateau ``1 <= S <= k+1``."""
    if k <= 0:
        raise ValueError("bulk constants need k > 0 (p = q makes nu infinite)")
    if not 1.0 <= S <= k + 1.0:
        raise ValueError(f"plateau labels need 1 <= S <= {k + 1}, got {S}")
    c, d = support_interval(k, S)
    nu = (2.0 + k) / k * math.sqrt((1.0 + k) / (S * (2.0 + k - S)))
    u_S = midpoint_density(k, S)
    return ScalingContext(
        k=k,
        S=S,
        c_S=c,
        d_S=d,
        X_S=0.5 * (c + d),
        u_S=u_S,
        nu=nu,
        A=math.exp(math.pi / nu),
        B=math.pi / nu * u_S,  # this order keeps B = 2 exact at k = S = 2
    )


def gamma_parameter(k: float, S: float) -> float:
    """Anisotropy parameter of ``J_gamma``: ``1/sqrt(1 + nu^2)``."""
    nu = scaling_context(k, S).nu
    return 1.0 / math.sqrt(1.0 + nu * nu)


# --- tail integrals ----------------------------------------------------------

_EULER_GAMMA = 0.5772156649015328606


def _e1_scaled(z: complex) -> complex:
    """``e^z E_1(z)`` off the branch cut (-inf, 0]."""
    if z == 0:
        raise ValueError("E_1 diverges at z = 0")
    if abs(z) <= 4.0:
        total = complex(0.0)
        term = complex(1.0)
        for n in range(1, 200):
            term *= -z / n
            piece = -term / n
            total += piece
            if abs(piece) < 1e-18 * (1.0 + abs(total)):
                break
        return cmath.exp(z) * (-_EULER_GAMMA - cmath.log(z) + total)
    # modified Lentz on the even continued fraction 1/(z+1- 1/(z+3- 4/(z+5- ...)))
    tiny = 1e-290
    f = z + 1.0
    if f == 0:
        f = tiny
    c, d = f, complex(0.0)
    for n in range(1, 500):
        a = -float(n * n)
        b = z + 2.0 * n + 1.0
        d = b + a * d
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return 1.0 / f
    raise RuntimeError(f"continued fraction failed to converge at z = {z}")


def tail_integral_real(tau: float, nu: float, d: int) -> float:
    """``Re(int_1^inf e^{i tau t} (1 + i nu t)^{-d} dt)`` for integer ``d >= 1``.

    Exact reduction: substitute onto the shifted ray, peel powers by the
    integration-by-parts recurrence, and close with the scaled exponential
    integral.  No truncation anywhere, hence no truncation tolerance.
    """
    if d < 1:
        raise ValueError("tail power must be a positive integer")
    if not (math.isfinite(tau) and math.isfinite(nu)) or nu == 0.0:
        raise ValueError(f"tail integrals need finite tau and finite nu != 0, got tau = {tau}, nu = {nu}")
    if tau == 0.0:
        if d == 1:
            return (0.5 * math.pi - math.atan(abs(nu))) / abs(nu)
        return ((1 + 1j * nu) ** (1 - d)).imag / ((d - 1) * nu)
    beta = 1j * nu / (1.0 + 1j * nu)
    z = complex(-tau / nu, -tau)
    g = _e1_scaled(z) / beta
    for j in range(2, d + 1):
        g = (1.0 + 1j * tau * g) / (beta * (j - 1))
    return (cmath.exp(1j * tau) * (1.0 + 1j * nu) ** (-d) * g).real


# --- bulk kernels -------------------------------------------------------------

_BULK_NODES = 200  # Gauss-Legendre nodes for the [0, 1] integrals of both bulk forms


def _check_bulk_positions(Y: float, X: float) -> None:
    if not (math.isfinite(Y) and math.isfinite(X)):
        raise ValueError(f"bulk positions Y, X must be finite reals, got ({Y}, {X})")


def bulk_kernel(nu: float, s0: int, Y: float, t0: int, X: float) -> float:
    """Translation-invariant bulk kernel at line offsets ``s0, t0``.

    ``int_0^1 Re(e^{i pi t (X-Y)} (1 + i t nu)^{s0-t0}) dt`` when
    ``s0 >= t0``; minus the matching [1, inf) tail otherwise.  Reduces to the
    sine kernel on a single line.

    At the jump boundary ``X == Y`` with ``s0 < t0`` the two branch values
    disagree by the half-residue ``pi/(2 nu)`` when ``t0 - s0 == 1`` (they
    coincide for larger gaps).  There the [0, 1] integral is used: it is the
    pointwise limit of the finite-size kernel, whose propagator term vanishes
    at coincident points.
    """
    if not 0.0 < nu < math.inf:
        raise ValueError(f"bulk kernel needs finite nu > 0, got {nu}")
    _check_bulk_positions(Y, X)
    d = int(s0) - int(t0)
    tau = math.pi * (X - Y)
    if d >= 0 or tau == 0.0:
        t, w = _gauss_legendre_unit(_BULK_NODES)
        vals = (np.exp(1j * tau * t) * (1.0 + 1j * nu * t) ** d).real
        return float(np.dot(w, vals))
    return -tail_integral_real(tau, nu, -d)


def boutillier_kernel(gamma: float, s0: int, Y: float, t0: int, X: float) -> float:
    """One-parameter bulk kernel ``J_gamma``; equivalent to :func:`bulk_kernel`
    after the rescale ``pi * J(s0, pi Y; t0, pi X) = gamma^{s0-t0} K*`` —
    the gamma powers conjugate away in determinants."""
    if not -1.0 < gamma < 1.0 or gamma == 0.0:
        raise ValueError(f"gamma must lie in (-1, 1) and be nonzero, got {gamma}")
    _check_bulk_positions(Y, X)
    d = int(s0) - int(t0)
    root = math.sqrt(1.0 - gamma * gamma)
    tau = X - Y
    if d >= 0 or tau == 0.0:
        # same coincident-point convention as bulk_kernel, so the rescale
        # identity holds pointwise including at X == Y
        t, w = _gauss_legendre_unit(_BULK_NODES)
        vals = (np.exp(1j * tau * t) * (gamma + 1j * root * t) ** d).real
        return float(np.dot(w, vals)) / math.pi
    nu_g = root / gamma
    return -(gamma**d) * tail_integral_real(tau, nu_g, -d) / math.pi


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
    prefactor_free: bool  # True on same-line offsets (the gauge drops out)


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
    """
    q_real = p * (1.0 + k)
    q = round(q_real)
    if abs(q_real - q) > 1e-9:
        raise ValueError(f"q = p(1+k) = {q_real} is not an integer")
    ctx_s = scaling_context(k, S)
    spec = HexagonSpec(p, q)
    p = spec.p  # a Python int, as the spec stores it, so every row holds floats
    center = round(p * S)
    s0s, t0s, Xs, Ys = (np.array([off[j] for off in offsets]) for j in range(4))
    line_s, line_t = center + s0s, center + t0s
    outside = (np.minimum(line_s, line_t) < 1) | (np.maximum(line_s, line_t) > spec.n_lines)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"offset ({s0s[i]}, {t0s[i]}) leaves the line range at p = {p}")
    scale = p * ctx_s.u_S
    values = kernel_eval(kernel_context(spec), line_s, ctx_s.X_S + Ys / scale, line_t, ctx_s.X_S + Xs / scale)
    rows = []
    for (s0, t0, X, Y), value in zip(offsets, values.tolist()):
        scaled = value / scale
        normalized = scaled / (ctx_s.A ** (X - Y) * (p * ctx_s.B) ** (s0 - t0))
        limit = bulk_kernel(ctx_s.nu, s0, Y, t0, X)
        rows.append(
            ProbeRow(
                s0=int(s0),
                t0=int(t0),
                X=float(X),
                Y=float(Y),
                scaled=scaled,
                normalized=normalized,
                limit=limit,
                abs_err=abs(normalized - limit),
                prefactor_free=s0 == t0,
            )
        )
    return rows
