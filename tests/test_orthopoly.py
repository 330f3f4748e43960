"""Shifted Jacobi polynomials, norms, and growing-parameter asymptotics."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi_reference import (
    JacobiIndex,
    ci_asymptotic,
    ci_params,
    darboux_coefficient,
    darboux_data,
    jacobi_shifted,
    jacobi_tower,
    szego_asymptotic,
)


def rodrigues_shifted(n: int, a: int, b: int, x: Fraction) -> Fraction:
    """Independent exact evaluation: (1/n!) x^-a (1-x)^-b d^n[x^(n+a)(1-x)^(n+b)]."""
    xs = sp.Symbol("x")
    expr = sp.diff(xs ** (n + a) * (1 - xs) ** (n + b), xs, n) / sp.factorial(n)
    expr = sp.cancel(expr / (xs**a * (1 - xs) ** b))
    val = expr.subs(xs, sp.Rational(x.numerator, x.denominator))
    return Fraction(int(sp.fraction(val)[0]), int(sp.fraction(val)[1]))


def test_trivial_and_frozen_values():
    assert jacobi_shifted(JacobiIndex(0, 2.5, 0.3), 0.77) == 1.0
    assert jacobi_shifted(JacobiIndex(1, 0.0, 0.0), 0.25) == pytest.approx(0.5, abs=1e-15)
    # n < 0 means the zero polynomial
    assert jacobi_shifted(JacobiIndex(-1, 0.0, 0.0), 0.4) == 0.0
    assert jacobi_shifted(JacobiIndex(-3, 1.0, 2.0), 0.9) == 0.0


def test_recurrence_matches_rodrigues_exactly():
    pts = [Fraction(1, 4), Fraction(1, 3), Fraction(3, 5)]
    for n in range(6):
        for a in range(3):
            for b in range(3):
                for x in pts:
                    want = float(rodrigues_shifted(n, a, b, x))
                    got = jacobi_shifted(JacobiIndex(n, float(a), float(b)), float(x))
                    assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_reflection_identity_exact_rational():
    # P~_n^{(a,b)}(1-x) = (-1)^n P~_n^{(b,a)}(x), checked in exact arithmetic
    for n in range(6):
        for a in range(3):
            for b in range(3):
                x = Fraction(2, 7)
                lhs = rodrigues_shifted(n, a, b, 1 - x)
                rhs = (-1) ** n * rodrigues_shifted(n, b, a, x)
                assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 8),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
    st.floats(0.02, 0.98),
)
def test_reflection_identity_float(n, a, b, x):
    lhs = jacobi_shifted(JacobiIndex(n, a, b), 1.0 - x)
    rhs = (-1) ** n * jacobi_shifted(JacobiIndex(n, b, a), x)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_spec_reflection_example_n2():
    lhs = jacobi_shifted(JacobiIndex(2, 1.0, 3.0), 1.0 - 0.3)
    rhs = jacobi_shifted(JacobiIndex(2, 3.0, 1.0), 0.3)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_tower_agrees_with_single_evaluations():
    xs = np.linspace(0.05, 0.95, 7)
    tow = jacobi_tower(6, 1.5, 0.5, xs)
    assert tow.shape == (7, 7)
    for n in range(7):
        for i, x in enumerate(xs):
            assert tow[n, i] == pytest.approx(
                jacobi_shifted(JacobiIndex(n, 1.5, 0.5), float(x)), rel=1e-12, abs=1e-12
            )


def _norm(n, a, b):
    # N_n^{(a,b)} = int_0^1 x^a (1-x)^b P~_n(x)^2 dx for integer a, b >= 0
    f = math.factorial
    return f(n + a) * f(n + b) / ((2 * n + a + b + 1) * f(n) * f(n + a + b))


def test_orthogonality_integer_parameter_grid():
    # GL quadrature of x^a (1-x)^b P~_j P~_k = N_j delta_jk for 0<=j,k<=8,
    # (a,b) in {0..4}^2, to 1e-10
    nodes, wts = np.polynomial.legendre.leggauss(40)
    xs = 0.5 * (nodes + 1.0)
    ws = 0.5 * wts
    for a in range(5):
        for b in range(5):
            tow = jacobi_tower(8, float(a), float(b), xs)
            wab = ws * xs**a * (1.0 - xs) ** b
            gram = tow @ (wab[:, None] * tow.T)
            norms = np.array([_norm(n, a, b) for n in range(9)])
            assert np.max(np.abs(gram - np.diag(norms))) < 1e-10


def test_derivative_identity_lowering_a():
    # d/dx (x^a P~_n^{(a,b)}) = (n+a) x^{a-1} P~_n^{(a-1,b+1)}
    h = 1e-6
    for n, a, b in [(3, 1.0, 0.0), (4, 2.0, 1.0), (2, 1.5, 0.7), (5, 3.0, 2.0)]:
        for x in (0.2, 0.45, 0.8):
            f = lambda u: u**a * jacobi_shifted(JacobiIndex(n, a, b), u)
            fd = (f(x + h) - f(x - h)) / (2.0 * h)
            exact = (n + a) * x ** (a - 1.0) * jacobi_shifted(JacobiIndex(n, a - 1.0, b + 1.0), x)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_derivative_identity_lowering_b():
    # d/dx ((1-x)^b P~_n^{(a,b)}) = -(n+b) (1-x)^{b-1} P~_n^{(a+1,b-1)}
    h = 1e-6
    for n, a, b in [(3, 0.0, 1.0), (4, 1.0, 2.0), (2, 0.7, 1.5), (5, 2.0, 3.0)]:
        for x in (0.2, 0.45, 0.8):
            f = lambda u: (1.0 - u) ** b * jacobi_shifted(JacobiIndex(n, a, b), u)
            fd = (f(x + h) - f(x - h)) / (2.0 * h)
            exact = (
                -(n + b) * (1.0 - x) ** (b - 1.0) * jacobi_shifted(JacobiIndex(n, a + 1.0, b - 1.0), x)
            )
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


# --- growing-parameter asymptotics -------------------------------------------


def test_ci_params_frozen_point():
    par = ci_params(0.0, 0.0, 0.0)
    assert par.delta == pytest.approx(-4.0, abs=1e-15)
    assert par.rho == pytest.approx(math.pi / 2, abs=1e-15)
    assert par.theta == pytest.approx(math.pi / 4, abs=1e-15)
    assert par.gamma == pytest.approx(-math.pi / 4, abs=1e-15)


def test_ci_params_cosine_reduction():
    # a=b=0, z=cos(phi): rho=pi/2, theta=pi/2-phi/2, gamma=-phi/2
    for phi in (0.3, 1.0, 2.2, 2.9):
        par = ci_params(0.0, 0.0, math.cos(phi))
        assert par.rho == pytest.approx(math.pi / 2, abs=1e-12)
        assert par.theta == pytest.approx(math.pi / 2 - phi / 2, abs=1e-12)
        assert par.gamma == pytest.approx(-phi / 2, abs=1e-12)


def test_ci_params_delta_independent_recompute():
    a, b, z = 1.0, 2.0, 0.1
    want = (a * (z + 1) + b * (z - 1)) ** 2 - 4 * (a + b + 1) * (1 - z * z)
    assert ci_params(a, b, z).delta == pytest.approx(want, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(-0.8, 0.8))
def test_ci_params_reflection_mapping(a, b, z):
    # under (z,a,b) -> (-z,b,a): delta fixed, rho -> pi-rho, theta <-> -gamma
    par = ci_params(a, b, z)
    ref = ci_params(b, a, -z)
    assert ref.delta == pytest.approx(par.delta, rel=1e-12, abs=1e-12)
    if par.delta < 0.0:
        assert ref.rho == pytest.approx(math.pi - par.rho, abs=1e-10)
        assert ref.theta == pytest.approx(-par.gamma, abs=1e-10)
        assert ref.gamma == pytest.approx(-par.theta, abs=1e-10)
        for ang in (par.rho, par.theta, par.gamma):
            assert -math.pi < ang <= math.pi


def test_ci_params_rejects_endpoint_z():
    with pytest.raises(ValueError):
        ci_params(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ci_params(0.0, 0.0, -1.0)


def test_ci_params_exponential_regime_angles_are_nan():
    par = ci_params(2.0, 0.0, 0.9)
    assert par.delta > 0.0
    assert math.isnan(par.rho) and math.isnan(par.theta) and math.isnan(par.gamma)


def test_ci_asymptotic_matches_recurrence():
    # spec example: n=50, a=b=0, z=0 within 5%; halves by n=100
    e = {}
    for n in (50, 100):
        ci = ci_asymptotic(n, 0.0, 0.0, 0.0, 0.0, 0.0)
        tru = jacobi_shifted(JacobiIndex(n, 0.0, 0.0), 0.5)
        e[n] = abs(ci - tru) / abs(tru)
    assert e[50] <= 0.05
    assert e[100] <= 0.6 * e[50]


def test_ci_asymptotic_rejects_exponential_regime():
    with pytest.raises(ValueError):
        ci_asymptotic(40, 0.0, 0.0, 2.0, 0.0, 0.9)
    with pytest.raises(ValueError):
        ci_asymptotic(0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_szego_specialization():
    # a=b=0 growing-parameter formula collapses to the classical fixed-parameter one
    rng = np.random.default_rng(5)
    for phi in rng.uniform(0.3, math.pi - 0.3, size=10):
        n = 60
        grown = ci_asymptotic(n, 0.0, 0.0, 0.0, 0.0, math.cos(phi))
        classical = szego_asymptotic(n, 0.0, 0.0, float(phi))
        assert grown == pytest.approx(classical, rel=1e-9, abs=1e-12)


def test_szego_against_recurrence():
    n = 200
    for phi in (0.7, 1.3, 2.1):
        val = szego_asymptotic(n, 0.5, 0.25, phi)
        tru = jacobi_shifted(JacobiIndex(n, 0.5, 0.25), (1.0 - math.cos(phi)) / 2.0)
        assert val == pytest.approx(tru, rel=0.15)
    with pytest.raises(ValueError):
        szego_asymptotic(10, 0.0, 0.0, 0.0)


def test_darboux_frozen_legendre_point():
    d = darboux_data(0.0, 0.0, 0.0, 0.0, 0.0)
    assert d.xi_plus == pytest.approx(1j, abs=1e-14)
    assert d.xi_minus == pytest.approx(-1j, abs=1e-14)
    assert d.eta_plus == pytest.approx(-1j, abs=1e-14)
    assert d.eta_minus == pytest.approx(1j, abs=1e-14)
    assert d.t_plus == pytest.approx(1j, abs=1e-14)
    assert d.t_minus == pytest.approx(-1j, abs=1e-14)
    assert d.B_plus == pytest.approx(0.5 + 0.5j, abs=1e-14)
    assert d.B_minus == pytest.approx(0.5 - 0.5j, abs=1e-14)


def test_darboux_branch_point_identities():
    a, b, z = 1.0, 2.0, 0.3
    d = darboux_data(a, b, z, 0.0, 0.0)
    par = ci_params(a, b, z)
    assert d.eta_plus == pytest.approx((z - 1) / (z + 1) * d.xi_plus, rel=1e-14)
    assert abs(1 + d.xi_plus) ** 2 == pytest.approx(
        2 * (a + 1) / ((1 - z) * (1 + a + b)), rel=1e-13
    )
    assert cmath.phase(1 + d.xi_plus) == pytest.approx(par.theta, abs=1e-13)
    assert cmath.phase(1 + d.xi_minus) == pytest.approx(-par.theta, abs=1e-13)
    assert abs(1 + d.eta_plus) ** 2 == pytest.approx(
        2 * (b + 1) / ((1 + z) * (1 + a + b)), rel=1e-13
    )
    assert cmath.phase(1 + d.eta_plus) == pytest.approx(par.gamma, abs=1e-13)


def test_darboux_rejects_exponential_regime():
    with pytest.raises(ValueError):
        darboux_data(2.0, 0.0, 0.9, 0.0, 0.0)


def test_darboux_coefficient_reproduces_ci_asymptotic():
    # the coefficient-extraction route and the assembled closed form are the
    # same leading order; spec pins agreement at 1e-10 for this point
    ci = ci_asymptotic(30, 0.0, 0.0, 0.5, 0.5, 0.2)
    da = darboux_coefficient(30, 0.0, 0.0, 0.5, 0.5, 0.2)
    assert da == pytest.approx(ci, rel=1e-10)
    for n, al, be, a, b, z in [(25, 0.3, 0.1, 1.0, 0.5, -0.3), (40, 0.0, 0.5, 0.2, 1.5, 0.1)]:
        assert darboux_coefficient(n, al, be, a, b, z) == pytest.approx(
            ci_asymptotic(n, al, be, a, b, z), rel=1e-9, abs=1e-12
        )


def test_darboux_coefficient_legendre_parity():
    # at z=0 the odd-degree Legendre values vanish; the assembly preserves that
    assert darboux_coefficient(21, 0.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    val = darboux_coefficient(20, 0.0, 0.0, 0.0, 0.0, 0.0)
    tru = jacobi_shifted(JacobiIndex(20, 0.0, 0.0), 0.5)
    assert val == pytest.approx(tru, rel=0.05)
