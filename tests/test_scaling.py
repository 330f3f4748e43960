"""Global band, limit density, and translation-invariant bulk kernels."""

import math
import re
import timeit

import mpmath as mp
import numpy as np
import pytest

from beadproc import scaling
from beadproc.checks import bulk_offsets
from beadproc.kernel import kernel_context, line_density
from beadproc.model import HexagonSpec, particles_per_line
from beadproc.scaling import (
    boutillier_kernel,
    bulk_convergence_probe,
    bulk_kernel,
    gamma_parameter,
    global_density,
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


def test_touching_band_edges_stay_in_unit_interval():
    # at S = 1 the exact lower edge is 0 and at S = k + 1 the exact upper
    # edge is 1; unclamped, rounding put 332 lower and 108 upper edges of
    # this grid outside [0, 1] (support_interval(0.04, 1.0)[0] = -5.6e-17)
    for k in np.arange(1, 2000) / 100.0:
        for S in (1.0, k + 1.0):
            c, d = support_interval(k, S)
            assert 0.0 <= c <= d <= 1.0, (k, S, c, d)
    assert support_interval(0.04, 1.0)[0] == 0.0
    assert support_interval(0.09, 1.09)[1] == 1.0


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
    # k must be finite and small enough for the band formulas: no nan or inf
    # endpoints, no message blaming S, no bare OverflowError
    for k in (math.inf, math.nan, 1e308):
        for call in (
            lambda: support_interval(k, 1.0),
            lambda: global_density(k, 1.0, 0.3),
            lambda: region_parameters(k, 1.0),
            lambda: gamma_parameter(k, 1.0),
            lambda: scaling_context(k, 1.0),
            lambda: bulk_convergence_probe(k, 2.0, 16, [(0, 0, 0.1, 0.0)]),
        ):
            with pytest.raises(ValueError, match=r"aspect ratio k must lie in \[0, 1e\+06\]"):
                call()


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


@pytest.mark.parametrize("k", [0.0, 0.5, 2.0])
def test_density_is_zero_on_the_degenerate_lines(k):
    # at S = 0 and S = 2 + k the band is a single point
    for S in (0.0, 2.0 + k):
        value = global_density(k, S, 0.3)
        assert type(value) is float and value == 0.0
        grid = np.array([[0.1, 0.5], [0.7, 0.9]])
        out = global_density(k, S, grid)
        assert out.shape == grid.shape and not out.any()
        assert global_density(k, S, [0.2, 1.0 / (k + 2.0)]).shape == (2,)


def test_density_reflection_symmetry():
    # mirroring the hexagon: S -> 2+k-S sends the density to its reflection
    k = 1.5
    for S, y in [(1.2, 0.31), (2.0, 0.55), (0.7, 0.28)]:
        assert abs(
            global_density(k, S, y) - global_density(k, 2.0 + k - S, 1.0 - y)
        ) < 1e-12


def test_line_density_converges_to_the_global_density_at_rate_one_over_p():
    # Global limit at k = 2 (q = 3p), line t = S p: the worst L1 distance,
    # over S, between line_density / p and (r / p) * global_density on a
    # 2000-point midpoint grid.  Measured 0.01222, 0.00537, 0.00320, 0.00171
    # at p = 64 ... 512, so p * L1 = 0.78, 0.69, 0.82, 0.88.
    k = 2.0
    y = (np.arange(2000) + 0.5) / 2000
    errors = []
    for p in (64, 128, 256, 512):
        spec = HexagonSpec(p, 3 * p)
        ctx = kernel_context(spec)
        worst = 0.0
        for S in (0.5, 1.0, 2.0, 3.0, 3.5):
            t = round(S * p)
            want = particles_per_line(spec, t) / p * global_density(k, S, y)
            worst = max(worst, float(np.mean(np.abs(line_density(ctx, t, y) / p - want))))
        errors.append(worst)
        assert p * worst < 1.0, (p, worst)
    assert all(a > b for a, b in zip(errors, errors[1:])), errors


# ---------------------------------------------------------- bulk constants


def test_midpoint_constants_frozen_case():
    # k=2, S=2: everything is algebraic
    ctx = scaling_context(2.0, 2.0)
    c, d = support_interval(2.0, 2.0)
    assert abs(c + d - 1.0) < 1e-15
    assert abs((d - c) - math.sqrt(3.0) / 2.0) < 1e-15
    assert ctx.X_S == 0.5 * (c + d)
    assert abs(ctx.nu - math.sqrt(3.0)) < 1e-15
    assert abs(ctx.u_S - 2.0 * math.sqrt(3.0) / math.pi) < 1e-12
    assert abs(ctx.B - 2.0) < 1e-12
    assert abs(ctx.B - math.pi * ctx.u_S / ctx.nu) < 1e-12


@pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.0, 3.0, 5.5])
def test_gauge_b_matches_rational_closed_form(k):
    # pi u_S / nu factors into this rational function of (k, S): its
    # denominator is (Sk+k+2)((k+1)(k+2) - Sk) = (k+2)^4 X_S (1 - X_S)
    for S in np.linspace(1.0, 1.0 + k, 9):
        closed = (2 + k) ** 2 * k * S * (2 + k - S) / (
            4 + 8 * k + k**3 * (1 + S) + k**2 * (5 + 2 * S - S * S)
        )
        assert abs(scaling_context(k, S).B - closed) <= 1e-14 * closed


@pytest.mark.parametrize("k", [2.5e5, 1e6])
def test_gauge_b_matches_rational_closed_form_up_to_the_cap(k):
    # the same closed form, within the band's relative error of k * 1e-14
    # (1.8e-11 at k = 2.5e5 and 8.2e-11 at 1e6 over these labels)
    for S in np.linspace(1.0, 1.0 + k, 9):
        closed = (2 + k) ** 2 * k * S * (2 + k - S) / (
            4 + 8 * k + k**3 * (1 + S) + k**2 * (5 + 2 * S - S * S)
        )
        assert abs(scaling_context(k, S).B - closed) <= k * 1e-14 * closed


def test_gamma_parameter_values():
    assert abs(gamma_parameter(2.0, 2.0) - 0.5) < 1e-14
    nu = scaling_context(3.0, 1.5).nu
    assert abs(gamma_parameter(3.0, 1.5) - 1.0 / math.sqrt(1.0 + nu * nu)) < 1e-14


def test_nu_alone_serves_k_up_to_the_cap():
    # nu and every midpoint constant are doubles up to the cap; only the probe's A is not
    nu_squared = 4.0 * 250001.0 / 2.5e5**2  # nu = 2 sqrt(1 + k) / k at S = 1 + k/2
    assert gamma_parameter(2.5e5, 125001.0) == pytest.approx(1.0 / math.sqrt(1.0 + nu_squared), rel=1e-14)
    ctx = scaling_context(1e6, 500001.0)
    assert ctx.nu == 2.0 * math.sqrt(1.0 + 1e6) / 1e6
    assert all(math.isfinite(v) for v in (ctx.X_S, ctx.u_S, ctx.B))


def test_probe_names_a_gauge_outside_a_double_before_kernel_work(monkeypatch):
    # nu = 0.004 < pi/709.78 at k = 2.5e5, so A = e^(pi/nu) overflows
    monkeypatch.setattr(scaling, "kernel_context", lambda spec: pytest.fail("kernel work before the refusal"))
    message = r"^gauge A = e\^\(pi/nu\) at \(k, S\) = \(250000\.0, 125001\.0\) is outside the range of a double$"
    with pytest.raises(OverflowError, match=message):
        bulk_convergence_probe(2.5e5, 125001.0, 1, [(0, 0, 0.0, 0.0)])


def test_scaling_context_is_memoized_and_a_refusal_is_not():
    ctx = scaling_context(2.0, 1.5)
    assert scaling_context(2.0, 1.5) is ctx
    # typed: an np.float64 k has its own context, whose constants are np.float64
    # (u_S is a Python float either way, as global_density returns one)
    assert scaling_context(1, 1) is not scaling_context(1.0, 1.0)
    plain, wide = scaling_context(2.0, 2.0), scaling_context(np.float64(2.0), 2.0)
    assert {type(v) for v in (plain.X_S, plain.u_S, plain.nu, plain.B)} == {float}
    assert {type(v) for v in (wide.X_S, wide.nu, wide.B)} == {np.float64}
    for _ in range(2):
        with pytest.raises(OverflowError, match=r"^scaling_context\(1e-320, 1\.0\)"):
            scaling_context(1e-320, 1.0)
        with pytest.raises(ValueError, match="plateau labels"):
            scaling_context(2.0, 0.5)


def test_gamma_parameter_past_the_square_overflow():
    # nu = 2e160: nu * nu overflows, yet gamma = 1/nu is a normal double
    nu = scaling_context(1e-160, 1.0).nu
    assert nu == 2e160
    assert gamma_parameter(1e-160, 1.0) == 1.0 / math.hypot(1.0, nu) == 5e-161
    assert gamma_parameter(np.float64(1e-160), 1.0) == 5e-161  # no overflow warning either


# ------------------------------------------------------------- tail integral


def _bulk_tail(k, d, X):
    # the tail of bulk_kernel at the plateau midpoint S = 1 + k/2, offset d = t0 - s0
    return pytest.param(math.pi * X, scaling_context(k, 1.0 + k / 2.0).nu, d, id=f"k={k:g}-d={d}-X={X}")


@pytest.mark.parametrize(
    "tau,nu,d",
    [
        (tau, nu, d)
        for tau, nu in [
            (0.0, 0.8),
            (0.7, 0.8),
            (-1.3, 1.7320508075688772),
            # nu at mid-plateau, S = 1 + k/2, for k = 20, 50 and 100; at the last
            # two the continued fraction does not converge and the series serves
            (1.5, 0.45825756949558405),
            (1.5, 0.285657137141714),
            (1.5, 0.2009975124224178),
        ]
        for d in [1, 2, 3]
    ]
    # Bulk tails, some where the upward recurrence would multiply its rounding
    # error by up to 2e18 (k = 1e3, d = 30, X = 1) and 5e32 (k = 1e4, d = 30,
    # X = 1); the continued fraction of E_d serves there instead.
    + [
        _bulk_tail(k, d, X)
        for k, d, X in [
            (2, 8, 0.25),
            (2, 30, 1),
            (50, 8, 1),
            (50, 30, 0.25),
            (1e3, 8, 1),
            (1e3, 30, 1),
            (1e4, 1, 0.25),
            (1e4, 8, 0.25),
            (1e4, 30, 0.25),
            (1e4, 30, 1),
        ]
    ],
)
def test_tail_integral_against_quadrature(tau, nu, d):
    def f(t):
        return mp.re(mp.e ** (1j * tau * t) * (1 + 1j * nu * t) ** (-d))

    if tau == 0.0:
        expected = float(mp.quad(f, [1, mp.inf]))
    else:
        expected = float(mp.quadosc(f, [1, mp.inf], omega=abs(tau)))
    got = tail_integral_real(tau, nu, d)
    assert abs(got - expected) < 1e-12
    assert abs(got - expected) <= 1e-8 * abs(expected)


def test_tail_far_below_its_recurrence_is_not_garbage():
    # z = -1e50 - i: the upward recurrence returned 9.3e33; the value is
    # Re(i e^i) = -sin 1 to within nu
    assert abs(tail_integral_real(1.0, 1e-50, 2) + math.sin(1.0)) <= 1e-15


def test_tail_at_small_nu_matches_mpmath():
    # From nu ~ 1e-19 the continued fraction's step factors round to a
    # neighbour of 1, the same one step after step.  Stopping only at a factor
    # of exactly 1 raised for 347 of these 2601 calls (for d = 1 naming an
    # internal z), and drifted the rest, by 1.4e-13 at (0.3, 1e-20, 2).
    for tau in (0.3, 1.0, 2.5):
        for e in range(20, 309):
            nu = 10.0**-e
            with mp.workdps(40):
                z = mp.mpc(-mp.mpf(tau) / nu, -tau)
                scale = mp.exp(1j * tau) * (1 + 1j * mp.mpf(nu)) * mp.exp(z) / (1j * mp.mpf(nu))
                wants = [mp.re(scale * (1 + 1j * mp.mpf(nu)) ** -d * mp.expint(d, z)) for d in (1, 2, 5)]
            for d, want in zip((1, 2, 5), wants):
                assert abs(tail_integral_real(tau, nu, d) - want) <= 1e-15 * abs(want), (tau, e, d)


def test_tail_where_tau_over_nu_overflows_is_its_first_term():
    # z is not finite; the rest of the integration by parts is below d nu / tau^2
    for d in (1, 2, 5):
        assert abs(tail_integral_real(1.0, 1e-320, d) + math.sin(1.0)) <= math.ulp(math.sin(1.0))


def _tail_mpmath(tau, nu, d):
    # the tail through E_d at 50 digits
    with mp.workdps(50):
        z = mp.mpc(-mp.mpf(tau) / nu, -tau)
        scale = mp.exp(1j * tau) * (1 + 1j * mp.mpf(nu)) * mp.exp(z) / (1j * mp.mpf(nu))
        return float(mp.re(scale * (1 + 1j * mp.mpf(nu)) ** -d * mp.expint(d, z)))


@pytest.mark.parametrize("nu", [1e-4, 1e-3])
def test_tail_of_large_order_takes_the_fraction(nu):
    # At d = 100000 the upward recurrence's g_j peak near j ~ |z| = 1/nu and
    # overflowed, after taking a step per order; the E_d fraction settles.
    # Python's complex power multiplied the rounding of |1 + i nu| by d and
    # put the result 2e-12 and 6e-12 off; taken in logs, it is within an ulp.
    want = _tail_mpmath(1.0, nu, 100000)
    assert abs(tail_integral_real(1.0, nu, 100000) - want) <= 1e-12 * abs(want)


# d near tau/nu: the E_d fraction does not settle in its 500 steps.  The first
# four would need 2e6 steps or more (tau nu <= 1.3e-4); the last three settle
# after 111030, 11891 and 1309, with the fraction up to 2.7e-12 off where the
# residue form is within 6.7e-15.
_PAST_THE_FRACTION = [
    (0.03, 0.002, 8),
    (-0.03, -0.002, 8),
    (0.1, 0.0013, 75),
    (0.0075, 1e-4, 80),
    (0.22360679774997896, 0.01, 13),
    (0.6597539553864473, 0.03162277660168379, 30),
    (1.9466102373808662, 0.1, 8),
]


@pytest.mark.parametrize("tau,nu,d", _PAST_THE_FRACTION)
def test_tail_where_the_fraction_gives_up_is_the_residue_form(tau, nu, d, monkeypatch):
    # the residue of the half line less its [0, 1] part serves
    calls = []
    residue = scaling._tail_by_residue
    monkeypatch.setattr(scaling, "_tail_by_residue", lambda *a: calls.append(a) or residue(*a))
    got = tail_integral_real(tau, nu, d)
    assert calls == [(tau, nu, d)]
    assert abs(got - _tail_mpmath(tau, nu, d)) <= 1e-12 * abs(got)


def test_tail_where_the_fraction_gives_up_takes_milliseconds():
    # a fraction run to 131072 steps took about 75 ms on each of the first
    # four; the residue form takes about 0.3 ms once the Gauss nodes are cached
    tail_integral_real(*_PAST_THE_FRACTION[0])
    for args in _PAST_THE_FRACTION:
        best = min(timeit.repeat(lambda: tail_integral_real(*args), number=1, repeat=3))
        assert best < 0.010, (args, best)


def test_tail_out_of_reach_names_its_arguments():
    # next to a zero of the tail (mpmath: -5.3e-16) the residue form's two
    # terms, both near 1, cancel to +3.3e-16: no digit of the value is left
    with pytest.raises(
        ValueError, match=r"^tail integral out of reach at tau = 0\.039395667836596704, nu = 0\.002, d = 8: "
    ):
        tail_integral_real(0.039395667836596704, 0.002, 8)


# Near the negative real axis, with 4 < |z| < 42, the continued fraction runs
# out of steps and the series takes over.
_SLOW_FRACTION = [complex(-3.85, -1.1), complex(-7.5, -1.5), complex(-27.0, -1.0)]


def test_e1_falls_back_to_the_series_near_the_negative_axis():
    for z in _SLOW_FRACTION:
        want = complex(mp.exp(z) * mp.e1(z))
        assert abs(scaling._e1_scaled(z) - want) <= 2e-15 * abs(want)


def test_e1_names_the_range_where_neither_form_converges(monkeypatch):
    monkeypatch.setattr(scaling, "_E1_TERMS", 10)
    with pytest.raises(ValueError, match=r"power series serves \|z\| <= 70 only"):
        scaling._e1_scaled(_SLOW_FRACTION[1])


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


@pytest.mark.parametrize(
    "f,args",
    [
        (bulk_kernel, (2.0, 1100, 0.0, 0, 0.5)),  # (1 + 2it)^1100 overflows
        (bulk_kernel, (1e300, 2, 0.0, 0, 0.5)),  # about -1e600
        (tail_integral_real, (1.0, 1e200, 2)),  # about 1e-400
        (boutillier_kernel, (1e-300, 0, 0.0, 3, 0.5)),  # gamma^-3 = 1e900
        (boutillier_kernel, (0.5, 0, 0.0, 1100, 0.0)),  # gamma^-1100 = 2^1100, on the [0, 1] integral
        (boutillier_kernel, (0.5, 0, 0.3, 1100, 0.3)),  # the same at X == Y != 0
        (bulk_kernel, (1e200, 0, 0.0, 2, 0.5)),  # the tail itself overflows
        (region_parameters, (2.0, 1e-310)),  # (k + 1 - S)/S = 3e310
        (scaling_context, (1e-320, 1.0)),  # (2 + k)/k = 2e320 in nu
    ],
)
def test_values_outside_a_double_raise_naming_the_call(f, args):
    # an OverflowError with the call's arguments, and no RuntimeWarning first
    # (the test configuration makes warnings errors)
    msg = re.escape(f"{f.__name__}{args!r} is outside the range of a double")
    with pytest.raises(OverflowError, match=f"^{msg}$"):
        f(*args)


def test_bulk_forms_refuse_a_phase_outside_a_double():
    # X - Y = 2e308 overflows the phase
    for f, a in ((bulk_kernel, math.sqrt(3.0)), (boutillier_kernel, 0.5)):
        with pytest.raises(ValueError, match=r"must be finite reals with pi \(X - Y\) finite"):
            f(a, 0, -1e308, 0, 1e308)


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
        sup[p] = max(abs(r.normalized - r.limit) for r in rows)
        for r in rows:
            assert r.abs_err == abs(r.normalized - r.limit)
    assert sup[16] < sup[8] < 0.2


def test_probe_validation():
    with pytest.raises(ValueError):
        bulk_convergence_probe(0.35, 1.0, 10, [(0, 0, 0.1, 0.0)])  # q not integral
    with pytest.raises(ValueError):
        bulk_convergence_probe(2.0, 2.0, 4, [(40, 0, 0.1, 0.0)])  # off the line range
    with pytest.raises(TypeError, match=r"^offset s0 must be an integer in -31\.\.31, got 1\.7$"):
        bulk_convergence_probe(2.0, 2.0, 16, [(1.7, 0, 0.1, 0.0)])  # not truncated to offset 1


_X_OUTSIDE = r"at p = 16 puts X_S \+ {0}/\(p u_S\) outside \(0, 1\); {0} must lie in about \(-8\.82126, 8\.82126\)$"


@pytest.mark.parametrize(
    "offset,message",
    [
        ((0, 0, 0.1), r"^offset must be \(s0, t0, X, Y\), got \(0, 0, 0\.1\)$"),
        ((0, 0, 0.1, 0.2, 99), r"^offset must be \(s0, t0, X, Y\), got \(0, 0, 0\.1, 0\.2, 99\)$"),
        ((0, 0, 100.0, 0.0), r"^offset X = 100\.0 " + _X_OUTSIDE.format("X")),
        ((0, 0, 0.0, -8.83), r"^offset Y = -8\.83 " + _X_OUTSIDE.format("Y")),
        ((0, 0, math.nan, 0.0), r"^offset X = nan " + _X_OUTSIDE.format("X")),
    ],
    ids=["three-items", "five-items", "X-past-1", "Y-below-0", "X-nan"],
)
def test_probe_refuses_a_malformed_offset_before_kernel_work(monkeypatch, offset, message):
    # the offset follows a valid one; X or Y must put X_S + X/(p u_S)
    # strictly inside (0, 1), about |X| < 8.82 at k = S = 2, p = 16
    def no_kernel(spec):
        raise AssertionError("kernel work before the offsets were checked")

    monkeypatch.setattr(scaling, "kernel_context", no_kernel)
    with pytest.raises(ValueError, match=message):
        bulk_convergence_probe(2.0, 2.0, 16, [(0, 0, 0.1, 0.0), offset])


def test_probe_takes_offsets_up_to_the_ends_of_their_range():
    rows = bulk_convergence_probe(2.0, 2.0, 16, [(0, 0, 8.82, -8.82), (0, 0, -8.82, 8.82)])
    assert all(math.isfinite(r.normalized) for r in rows)


def test_probe_takes_numpy_integer_p():
    # the rows match the Python-int ones bit for bit (repr prints floats
    # exactly, and names numpy scalar types)
    offsets = bulk_offsets(2)
    got = bulk_convergence_probe(2.0, 2.0, np.int64(16), offsets)
    assert repr(got) == repr(bulk_convergence_probe(2.0, 2.0, 16, offsets))
