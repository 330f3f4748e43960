"""Global band, limit density, and translation-invariant bulk kernels."""

import math

import mpmath as mp
import numpy as np
import pytest

from beadproc.checks import bulk_offsets
from beadproc.scaling import (
    boutillier_kernel,
    bulk_convergence_probe,
    bulk_kernel,
    gamma_parameter,
    global_density,
    midpoint_density,
    region_parameters,
    scaling_context,
    support_interval,
    tail_integral_real,
)

REGION_CASES = [(2.0, 0.5), (2.0, 2.0), (2.0, 3.5), (0.5, 1.2), (5.0, 1.0)]


# ------------------------------------------------------------------ the band


def test_support_degenerate_endpoints():
    for k in [0.5, 1.0, 2.0, 7.0]:
        c0, d0 = support_interval(k, 0.0)
        assert abs(c0 - 1.0 / (k + 2.0)) < 1e-15 and abs(d0 - c0) < 1e-15
        c2, d2 = support_interval(k, 2.0 + k)
        assert abs(c2 - (k + 1.0) / (k + 2.0)) < 1e-15 and abs(d2 - c2) < 1e-15
        assert abs(support_interval(k, 1.0)[0]) < 1e-15  # band touches 0 at S=1
        assert abs(support_interval(k, 1.0 + k)[1] - 1.0) < 1e-15  # touches 1


@pytest.mark.parametrize("k,S", REGION_CASES)
def test_band_width_matches_region_parameters(k, S):
    # one formula through the effective exponents, one direct — all regions
    a, b = region_parameters(k, S)
    c, d = support_interval(k, S)
    width = 4.0 * math.sqrt((1 + a) * (1 + b) * (1 + a + b)) / (2 + a + b) ** 2
    assert abs((d - c) - width) < 1e-12


def test_region_parameter_regimes():
    # left ramp, plateau, right ramp of the S-dependence
    a, b = region_parameters(2.0, 0.5)
    assert abs(a - 1.0) < 1e-15 and abs(b - 5.0) < 1e-15
    a, b = region_parameters(2.0, 2.0)
    assert abs(a - 1.0) < 1e-15 and abs(b - 1.0) < 1e-15
    a, b = region_parameters(2.0, 3.5)
    assert abs(a - 5.0) < 1e-15 and abs(b - 1.0) < 1e-15
    for bad in [0.0, 4.0]:
        with pytest.raises(ValueError):
            region_parameters(2.0, bad)


def test_parameter_validation():
    with pytest.raises(ValueError):
        support_interval(-0.1, 0.5)
    with pytest.raises(ValueError):
        support_interval(1.0, 3.5)
    with pytest.raises(ValueError):
        global_density(2.0, 2.0, 1.0)  # heights strictly inside (0, 1)
    with pytest.raises(ValueError):
        scaling_context(0.0, 1.0)
    with pytest.raises(ValueError):
        scaling_context(2.0, 0.5)  # off the plateau


# ------------------------------------------------------------------- density


@pytest.mark.parametrize("k,S", REGION_CASES)
def test_density_integrates_to_one(k, S):
    c, d = support_interval(k, S)
    mid, half = 0.5 * (c + d), 0.5 * (d - c)
    theta, w = np.polynomial.legendre.leggauss(200)
    theta *= 0.5 * math.pi  # y = mid + half sin(theta) flattens the sqrt edges
    y = mid + half * np.sin(theta)
    jac = half * np.cos(theta) * 0.5 * math.pi
    total = float(np.dot(w, global_density(k, S, y) * jac))
    assert abs(total - 1.0) < 1e-8


def test_density_vanishes_off_band_and_at_edges():
    k, S = 2.0, 2.0
    c, d = support_interval(k, S)
    assert global_density(k, S, 0.5 * c) == 0.0
    assert global_density(k, S, 0.5 * (d + 1.0)) == 0.0
    eps = 1e-10
    inside = global_density(k, S, c + eps)
    assert 0.0 < inside < 1e-4  # square-root vanishing, not a jump
    assert global_density(k, S, c + 4 * eps) > 1.9 * inside


def test_density_reflection_symmetry():
    # mirroring the hexagon: S -> 2+k-S sends the density to its reflection
    k = 1.5
    for S, y in [(1.2, 0.31), (2.0, 0.55), (0.7, 0.28)]:
        assert abs(
            global_density(k, S, y) - global_density(k, 2.0 + k - S, 1.0 - y)
        ) < 1e-12


# ---------------------------------------------------------- bulk constants


def test_midpoint_constants_frozen_case():
    # k=2, S=2: everything is algebraic
    ctx = scaling_context(2.0, 2.0)
    assert abs(ctx.c_S + ctx.d_S - 1.0) < 1e-15
    assert abs((ctx.d_S - ctx.c_S) - math.sqrt(3.0) / 2.0) < 1e-15
    assert abs(ctx.nu - math.sqrt(3.0)) < 1e-15
    assert abs(ctx.u_S - midpoint_density(2.0, 2.0)) < 1e-15
    assert abs(ctx.u_S - 2.0 * math.sqrt(3.0) / math.pi) < 1e-12
    assert abs(ctx.B - 2.0) < 1e-12
    assert abs(ctx.B - math.pi * ctx.u_S / ctx.nu) < 1e-12
    assert abs(math.log(ctx.A) * ctx.nu - math.pi) < 1e-12


@pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.0, 3.0, 5.5])
def test_gauge_b_matches_rational_closed_form(k):
    # pi u_S / nu factors into this rational function of (k, S): its
    # denominator is (Sk+k+2)((k+1)(k+2) - Sk) = (k+2)^4 X_S (1 - X_S)
    for S in np.linspace(1.0, 1.0 + k, 9):
        closed = (2 + k) ** 2 * k * S * (2 + k - S) / (
            4 + 8 * k + k**3 * (1 + S) + k**2 * (5 + 2 * S - S * S)
        )
        assert abs(scaling_context(k, S).B - closed) <= 1e-14 * closed


def test_gamma_parameter_values():
    assert abs(gamma_parameter(2.0, 2.0) - 0.5) < 1e-14
    nu = scaling_context(3.0, 1.5).nu
    assert abs(gamma_parameter(3.0, 1.5) - 1.0 / math.sqrt(1.0 + nu * nu)) < 1e-14


# ------------------------------------------------------------- tail integral


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("tau,nu", [(0.0, 0.8), (0.7, 0.8), (-1.3, 1.7320508075688772)])
def test_tail_integral_against_quadrature(d, tau, nu):
    def f(t):
        return mp.re(mp.e ** (1j * tau * t) * (1 + 1j * nu * t) ** (-d))

    if tau == 0.0:
        expected = mp.quad(f, [1, mp.inf])
    else:
        expected = mp.quadosc(f, [1, mp.inf], omega=abs(tau))
    got = tail_integral_real(tau, nu, d)
    assert abs(got - float(expected)) < 1e-12


def test_tail_integral_validation():
    with pytest.raises(ValueError):
        tail_integral_real(0.5, 1.0, 0)
    with pytest.raises(ValueError):
        tail_integral_real(0.5, 0.0, 1)


# ------------------------------------------------------------- bulk kernels


def test_bulk_kernel_same_line_values():
    nu = math.sqrt(3.0)
    assert abs(bulk_kernel(nu, 3, 0.25, 3, 0.25) - 1.0) < 1e-12
    assert abs(bulk_kernel(nu, 0, 0.0, 0, 0.5) - 2.0 / math.pi) < 1e-12
    x = 0.25
    assert abs(bulk_kernel(nu, 1, 0.0, 1, x) - math.sin(math.pi * x) / (math.pi * x)) < 1e-12


def test_bulk_kernel_reduces_to_sine_kernel():
    for nu in [0.6, math.sqrt(3.0), 4.2]:
        for dx in [0.1, 0.37, 1.25, 2.0 + 1e-3]:
            sine = math.sin(math.pi * dx) / (math.pi * dx)
            assert abs(bulk_kernel(nu, 2, 0.0, 2, dx) - sine) < 1e-9


def test_bulk_kernel_one_step_up_at_equal_positions():
    # d = 1, X = Y: the imaginary part integrates away regardless of nu
    for nu in [0.5, 2.0]:
        assert abs(bulk_kernel(nu, 1, 0.3, 0, 0.3) - 1.0) < 1e-12


def test_bulk_kernel_validation():
    with pytest.raises(ValueError):
        bulk_kernel(0.0, 0, 0.0, 0, 0.5)
    with pytest.raises(ValueError):
        boutillier_kernel(0.0, 0, 0.0, 0, 0.5)
    with pytest.raises(ValueError):
        boutillier_kernel(1.5, 0, 0.0, 0, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bulk_forms_refuse_non_finite_input(bad):
    nu = math.sqrt(3.0)
    with pytest.raises(ValueError, match="finite nu > 0"):
        bulk_kernel(bad, 0, 0.1, 0, 0.3)
    for s0, t0 in [(0, 0), (0, 1)]:
        with pytest.raises(ValueError, match="must be finite reals"):
            bulk_kernel(nu, s0, bad, t0, 0.3)
        with pytest.raises(ValueError, match="must be finite reals"):
            bulk_kernel(nu, s0, 0.1, t0, bad)
        with pytest.raises(ValueError, match="must be finite reals"):
            boutillier_kernel(0.5, s0, bad, t0, 0.3)
        with pytest.raises(ValueError, match="must be finite reals"):
            boutillier_kernel(0.5, s0, 0.1, t0, bad)
    with pytest.raises(ValueError, match="finite tau and finite nu != 0"):
        tail_integral_real(bad, 1.0, 2)
    with pytest.raises(ValueError, match="finite tau and finite nu != 0"):
        tail_integral_real(0.5, bad, 2)


def test_gamma_form_matches_after_rescale_in_determinants():
    # pi J(s, pi y; t, pi x) = gamma^{s-t} K*; the gamma powers cancel in dets
    nu = math.sqrt(3.0)
    gamma = 1.0 / math.sqrt(1.0 + nu * nu)
    pts = [(0, 0.1), (1, -0.2), (2, 0.45)]
    K = np.array(
        [[bulk_kernel(nu, si, yi, sj, yj) for sj, yj in pts] for si, yi in pts]
    )
    J = np.array(
        [
            [
                math.pi * boutillier_kernel(gamma, si, math.pi * yi, sj, math.pi * yj)
                for sj, yj in pts
            ]
            for si, yi in pts
        ]
    )
    for m in [1, 2, 3]:
        assert abs(np.linalg.det(K[:m, :m]) - np.linalg.det(J[:m, :m])) < 1e-8


def test_gamma_form_same_line_is_sine_over_pi():
    gamma = 0.5
    assert abs(boutillier_kernel(gamma, 2, 0.0, 2, 0.0) - 1.0 / math.pi) < 1e-12
    tau = 1.1
    assert abs(boutillier_kernel(gamma, 2, 0.0, 2, tau) - math.sin(tau) / (math.pi * tau)) < 1e-10


def test_negative_offset_routes_agree():
    # d < 0 goes through the closed-form tail; compare with dense quadrature of
    # the reflected formulation via the det-level symmetry K(s,y;t,x) pairs
    nu = 1.3
    got = bulk_kernel(nu, 0, 0.2, 2, 0.7)
    tau = math.pi * (0.7 - 0.2)

    def f(t):
        return mp.re(mp.e ** (1j * tau * t) * (1 + 1j * nu * t) ** (-2))

    expected = -mp.quadosc(f, [1, mp.inf], omega=tau)
    assert abs(got - float(expected)) < 1e-10


# -------------------------------------------------------------- finite probe


def test_probe_rows_shrink_with_p():
    offs = [(0, 0, 0.3, 0.0), (1, 0, 0.25, -0.25), (0, 1, 0.5, 0.1)]
    sup = {}
    for p in [8, 16]:
        rows = bulk_convergence_probe(2.0, 2.0, p, offs)
        assert [(r.s0, r.t0) for r in rows] == [(0, 0), (1, 0), (0, 1)]
        assert rows[0].prefactor_free and not rows[1].prefactor_free
        sup[p] = max(abs(r.normalized - r.limit) for r in rows)
        for r in rows:
            assert r.abs_err == abs(r.normalized - r.limit)
    assert sup[16] < sup[8] < 0.2


def test_probe_validation():
    with pytest.raises(ValueError):
        bulk_convergence_probe(0.35, 1.0, 10, [(0, 0, 0.1, 0.0)])  # q not integral
    with pytest.raises(ValueError):
        bulk_convergence_probe(2.0, 2.0, 4, [(40, 0, 0.1, 0.0)])  # off the line range
    with pytest.raises(TypeError, match="lines must be integers"):
        bulk_convergence_probe(2.0, 2.0, 16, [(1.7, 0, 0.1, 0.0)])  # not truncated to offset 1


def test_probe_takes_numpy_integer_p():
    # the rows match the Python-int ones bit for bit (repr prints floats
    # exactly, and names numpy scalar types)
    offsets = bulk_offsets(2)
    got = bulk_convergence_probe(2.0, 2.0, np.int64(16), offsets)
    assert repr(got) == repr(bulk_convergence_probe(2.0, 2.0, 16, offsets))
