"""Monte Carlo estimators, KS distance, and the incomplete beta."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beadproc.kernel import kernel_context, kernel_eval
from beadproc.model import HexagonSpec, particles_per_line
from beadproc.sampler import RandomStream, sample_positions
from beadproc.stats import (
    beta_cdf,
    empirical_line_density,
    ks_statistic,
    pair_correlation_estimate,
)


@pytest.fixture(scope="module")
def square_lines():
    return sample_positions(RandomStream(314), HexagonSpec(p=2, q=2), count=20_000)


# ---------------------------------------------------------------------- KS


def test_ks_hand_values():
    assert abs(ks_statistic([0.25, 0.5, 0.75], lambda x: x) - 0.25) < 1e-15
    assert abs(ks_statistic([0.5, 0.5, 0.5], lambda x: x) - 0.5) < 1e-15


def test_ks_rejects_non_vectorized_cdf():
    # the CDF is called once on the sorted samples and must keep their shape
    samples = [0.1, 0.9]
    assert ks_statistic(samples, np.sqrt) == ks_statistic(samples, lambda x: np.sqrt(x))
    with pytest.raises(ValueError, match="shape"):
        ks_statistic(samples, lambda x: 0.5)
    with pytest.raises(ValueError, match="shape"):
        ks_statistic(samples, lambda x: np.sqrt(x)[:1])
    with pytest.raises(TypeError):
        ks_statistic(samples, math.sqrt)


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: x)


def test_ks_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ks_statistic([0.2, float("nan"), 0.5], lambda x: x)
    with pytest.raises(ValueError, match="NaN"):
        ks_statistic([0.2, 0.5], lambda x: np.full_like(x, np.nan))


# --------------------------------------------------------- incomplete beta


def _beta_cdf_exact(x: Fraction, a: int, b: int) -> Fraction:
    # For integer shapes, I_x(a, b) is a Bernoulli tail: P(Binom(a+b-1, x) >= a)
    n = a + b - 1
    return sum(
        Fraction(math.comb(n, j)) * x**j * (1 - x) ** (n - j) for j in range(a, n + 1)
    )


@pytest.mark.parametrize("a,b", [(1, 1), (2, 5), (7, 3), (4, 12)])
def test_beta_cdf_against_binomial_tail(a, b):
    for num in range(1, 10):
        x = Fraction(num, 10)
        exact = float(_beta_cdf_exact(x, a, b))
        assert abs(beta_cdf(float(x), a, b) - exact) < 1e-12


def test_beta_cdf_edges_and_arrays():
    assert beta_cdf(0.0, 3.0, 2.0) == 0.0
    assert beta_cdf(1.0, 3.0, 2.0) == 1.0
    assert beta_cdf(-0.5, 3.0, 2.0) == 0.0
    out = beta_cdf(np.array([0.2, 0.8]), 1.0, 1.0)
    assert out.shape == (2,) and np.allclose(out, [0.2, 0.8], atol=1e-14)
    with pytest.raises(ValueError):
        beta_cdf(0.5, 0.0, 1.0)


@pytest.mark.parametrize("a,b", [(2.5, 3), (3, 0.5), (0, 2), (2, -1), (float("nan"), 2), (600, 600)])
def test_beta_cdf_rejects_shapes_outside_positive_integers(a, b):
    with pytest.raises(ValueError, match="positive integers"):
        beta_cdf(0.5, a, b)


def test_beta_cdf_rejects_nan_heights():
    with pytest.raises(ValueError, match="NaN"):
        beta_cdf(float("nan"), 2, 3)
    with pytest.raises(ValueError, match="NaN"):
        beta_cdf(np.array([0.2, np.nan]), 2, 3)


@given(
    x=st.floats(min_value=0.01, max_value=0.99),
    y=st.floats(min_value=0.01, max_value=0.99),
    a=st.integers(min_value=1, max_value=8),
    b=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_beta_cdf_monotone(x, y, a, b):
    lo, hi = sorted((x, y))
    assert beta_cdf(lo, a, b) <= beta_cdf(hi, a, b) + 1e-12


# ---------------------------------------------------------------- histogram


def test_histogram_mass_is_line_count(square_lines):
    spec = HexagonSpec(p=2, q=2)
    subset = [a[:64] for a in square_lines]
    for t in spec.lines():
        hist = empirical_line_density(subset, t, bins=8)
        width = 1.0 / 8
        assert hist.line == t
        assert hist.n_configs == 64
        assert hist.edges.shape == (9,) and hist.counts.sum() == 64 * particles_per_line(spec, t)
        assert float(np.sum(hist.density * width)) == float(particles_per_line(spec, t))


def test_histogram_tracks_kernel_diagonal(square_lines):
    # bin means of the empirical density against the exact one-point density
    spec = HexagonSpec(p=2, q=2)
    ctx = kernel_context(spec)
    hist = empirical_line_density(square_lines, 2, bins=10)
    mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    exact = np.array([kernel_eval(ctx, 2, x, 2, x) for x in mids])
    # kernel varies little within a 0.1 bin; 4 sigma with Poisson-ish bin spread
    sd = np.sqrt(np.maximum(hist.counts, 1.0)) / (len(square_lines[1]) * 0.1)
    assert np.all(np.abs(hist.density - exact) < 4.0 * sd + 0.01)


def test_histogram_validation(square_lines):
    with pytest.raises(ValueError):
        empirical_line_density([], 1, bins=4)
    with pytest.raises(ValueError):
        empirical_line_density([a[:0] for a in square_lines], 1, bins=4)  # zero rows
    with pytest.raises(ValueError):
        empirical_line_density([a[:2] for a in square_lines], 1, bins=0)


# ----------------------------------------------------------- pair statistics


def test_pair_identical_full_line_is_count_identity(square_lines):
    cell = (2, (0.0, 1.0))
    est = pair_correlation_estimate([a[:100] for a in square_lines], cell, cell)
    assert est == 2.0 * 1.0  # n(n-1) for the 2-bead line, configuration-exact


def test_pair_cross_line_full_cells(square_lines):
    est = pair_correlation_estimate(
        [a[:100] for a in square_lines], (1, (0.0, 1.0)), (3, (0.0, 1.0))
    )
    assert est == 1.0  # one bead on each outer line, always


def test_pair_disjoint_cells_match_kernel_determinant(square_lines):
    # rho_2 on one line is det[[K(x,x), K(x,y)], [K(y,x), K(y,y)]]
    spec = HexagonSpec(p=2, q=2)
    ctx = kernel_context(spec)
    cell_a, cell_b = (2, (0.3, 0.4)), (2, (0.6, 0.7))
    u, w = np.polynomial.legendre.leggauss(24)
    xs = 0.35 + 0.05 * u
    ys = 0.65 + 0.05 * u
    wx = 0.05 * w
    exact = 0.0
    for xi, wi in zip(xs, wx):
        for yj, wj in zip(ys, wx):
            kxx = kernel_eval(ctx, 2, xi, 2, xi)
            kyy = kernel_eval(ctx, 2, yj, 2, yj)
            kxy = kernel_eval(ctx, 2, yj, 2, xi)
            kyx = kernel_eval(ctx, 2, xi, 2, yj)
            exact += wi * wj * (kxx * kyy - kxy * kyx)
    est = pair_correlation_estimate(square_lines, cell_a, cell_b)
    line2 = square_lines[1]
    in_a = ((line2 >= 0.3) & (line2 < 0.4)).sum(axis=1)
    in_b = ((line2 >= 0.6) & (line2 < 0.7)).sum(axis=1)
    products = (in_a * in_b).astype(float)
    sigma = products.std(ddof=1) / math.sqrt(len(line2))
    assert abs(est - exact) < 4.5 * sigma


def test_pair_repulsion_near_the_diagonal(square_lines):
    # touching cells: the 2-point mass is far below the independent product
    spec = HexagonSpec(p=2, q=2)
    ctx = kernel_context(spec)
    est = pair_correlation_estimate(square_lines, (2, (0.45, 0.5)), (2, (0.5, 0.55)))
    u, w = np.polynomial.legendre.leggauss(16)
    xs_a, xs_b = 0.475 + 0.025 * u, 0.525 + 0.025 * u
    ww = 0.025 * w
    mean_a = sum(wi * kernel_eval(ctx, 2, x, 2, x) for x, wi in zip(xs_a, ww))
    mean_b = sum(wi * kernel_eval(ctx, 2, x, 2, x) for x, wi in zip(xs_b, ww))
    assert est < 0.3 * mean_a * mean_b


def test_pair_cell_validation(square_lines):
    few = [a[:3] for a in square_lines]
    with pytest.raises(ValueError):
        pair_correlation_estimate([], (1, (0.0, 1.0)), (1, (0.0, 1.0)))
    with pytest.raises(ValueError):
        pair_correlation_estimate([a[:0] for a in square_lines], (1, (0.0, 1.0)), (1, (0.0, 1.0)))
    with pytest.raises(ValueError):
        pair_correlation_estimate(few, (2, (0.2, 0.6)), (2, (0.4, 0.8)))  # overlap
    with pytest.raises(ValueError):
        pair_correlation_estimate(few, (2, (0.6, 0.2)), (2, (0.0, 0.1)))
    with pytest.raises(ValueError):
        pair_correlation_estimate(few, (2, (0.0, 1.5)), (2, (0.0, 0.1)))
    # disjoint same-line cells and identical cells are both fine
    pair_correlation_estimate(few, (2, (0.0, 0.5)), (2, (0.5, 1.0)))
    pair_correlation_estimate(few, (2, (0.2, 0.6)), (2, (0.2, 0.6)))
