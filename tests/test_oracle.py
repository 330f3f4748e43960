"""Discretized matrix-formalism oracle vs the exact kernel."""

import itertools
import math

import numpy as np
import pytest

from beadproc.kernel import kernel_context, kernel_eval
from beadproc.model import HexagonSpec, interlacing_breaks, particles_per_line
from beadproc.oracle import discrete_kernel, grid_points, moment_matrix, oracle_deviation
from dense_oracle import dense_conditional_kernel, subset_weight


def test_grid_points_midpoint_layout():
    g = grid_points(4)
    assert np.allclose(g, [0.125, 0.375, 0.625, 0.875])
    assert g.min() > 0.0 and g.max() < 1.0
    with pytest.raises(ValueError):
        grid_points(1)


def test_unit_case_diagonal_is_weight():
    # constant unit kernel: every diagonal entry is exactly the point weight
    for m in (5, 16):
        K = discrete_kernel(HexagonSpec(1, 1), m)
        assert np.allclose(np.diag(K), 1.0 / m, atol=1e-13)


def test_two_line_diagonal_example():
    m = 100
    K = discrete_kernel(HexagonSpec(1, 2), m)
    g = grid_points(m)
    i = int(np.argmin(np.abs(g - 0.25)))
    want = 2.0 * (1.0 - g[i]) / m  # continuum density 2(1-x) times weight
    assert K[i, i] == pytest.approx(want, rel=0.02)


def test_moment_matrix_factorial_limit():
    spec = HexagonSpec(2, 3)
    M = moment_matrix(spec, 400)
    # limit entries 1/(p+q+1-j-k)!; discretization bias decays like 1/m
    want = np.array(
        [
            [1.0 / math.factorial(6 - j - k) for k in (1, 2)]
            for j in (1, 2)
        ]
    )
    assert np.allclose(M, want, rtol=0.02)
    # refinement brings it closer
    M2 = moment_matrix(spec, 800)
    assert np.max(np.abs(M2 - want)) < np.max(np.abs(M - want))


def test_line_sums_approximate_counts():
    spec = HexagonSpec(2, 3)
    m = 150
    K = discrete_kernel(spec, m)
    for t in spec.lines():
        block = np.diag(K)[(t - 1) * m : t * m]
        assert float(np.sum(block)) == pytest.approx(particles_per_line(spec, t), abs=5.0 / m)


def test_oracle_deviation_definition():
    spec = HexagonSpec(1, 2)
    m = 50
    probes = [(1, 0.25, 1, 0.25), (1, 0.3, 2, 0.8)]
    dev = oracle_deviation(spec, m, probes)
    assert isinstance(dev, float)
    K = discrete_kernel(spec, m)
    g = grid_points(m)
    ctx = kernel_context(spec)
    by_hand = 0.0
    for s, y, t, x in probes:
        i = int(np.clip(round(y * m - 0.5), 0, m - 1))
        j = int(np.clip(round(x * m - 0.5), 0, m - 1))
        disc = m * K[(s - 1) * m + i, (t - 1) * m + j]
        exact = kernel_eval(ctx, s, float(g[i]), t, float(g[j]))
        by_hand = max(by_hand, abs(disc - exact))
    assert dev == pytest.approx(by_hand, rel=1e-12)


def test_refinement_two_lines():
    spec = HexagonSpec(1, 2)
    probes = [
        (1, 0.25, 1, 0.25),
        (2, 0.6, 2, 0.6),
        (1, 0.3, 2, 0.8),  # s<t entry carries the one-sided difference term
        (2, 0.8, 1, 0.3),
    ]
    devs = [oracle_deviation(spec, m, probes) for m in (50, 100, 200)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.05


def test_refinement_all_regimes_2_3():
    spec = HexagonSpec(2, 3)
    probes = [
        (1, 0.35, 1, 0.35),  # both lines below p
        (1, 0.65, 2, 0.20),  # straddling p
        (2, 0.20, 3, 0.80),  # inside [p, q]
        (3, 0.80, 4, 0.35),  # straddling q
        (4, 0.20, 4, 0.65),  # above q
    ]
    devs = [oracle_deviation(spec, m, probes) for m in (40, 80, 160)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.05


@pytest.mark.parametrize("p,q,m", [(1, 2, 6), (2, 2, 5), (2, 3, 4)])
def test_hat_and_conditional_routes_agree_up_to_gauge(p, q, m):
    # the unweighted conditional-inverse route differs from the weighted hat
    # assembly by a pure per-line gauge: block (s,t) picks up (-m)^(t-s);
    # every correlation minor is gauge-blind
    spec = HexagonSpec(p, q)
    K_hat = discrete_kernel(spec, m)
    K_dense = dense_conditional_kernel(spec, m)
    nl = spec.n_lines
    for s in range(1, nl + 1):
        for t in range(1, nl + 1):
            hat = K_hat[(s - 1) * m : s * m, (t - 1) * m : t * m]
            dense = K_dense[(s - 1) * m : s * m, (t - 1) * m : t * m]
            assert np.allclose(dense, (-float(m)) ** (t - s) * hat, atol=1e-10)


def test_subset_measure_is_uniform_and_normalized():
    # the dense ensemble's configuration measure: exactly uniform on its
    # support, total mass 1, and the support contains every strictly
    # interlacing midpoint configuration
    spec = HexagonSpec(2, 2)
    m = 4
    g = grid_points(m)
    weights = {}
    for i1 in itertools.combinations(range(m), 1):
        for i2 in itertools.combinations(range(m), 2):
            for i3 in itertools.combinations(range(m), 1):
                w = subset_weight(spec, m, [i1, i2, i3])
                weights[(i1, i2, i3)] = w
    vals = np.array(list(weights.values()))
    assert np.all(vals > -1e-12)
    assert float(vals.sum()) == pytest.approx(1.0, abs=1e-10)
    support = {k for k, v in weights.items() if v > 1e-12}
    positive = np.array([v for v in vals if v > 1e-12])
    assert positive.max() - positive.min() < 1e-12  # exactly uniform
    # every grid subset as one row of the per-line arrays, rows decreasing
    keys = list(weights)
    lines = [np.array([g[list(key[t])][::-1] for key in keys]) for t in range(spec.n_lines)]
    strict = {key for key, b in zip(keys, interlacing_breaks(spec, lines)) if b == 0}
    assert strict <= support
    # frozen census for this shape and grid
    assert len(strict) == 6
    assert len(support) == 20


def test_wrong_bead_count_rejected():
    with pytest.raises(ValueError):
        subset_weight(HexagonSpec(2, 2), 4, [(0,), (1,), (2,)])


def test_grid_dimension_guard():
    with pytest.raises(ValueError):
        discrete_kernel(HexagonSpec(2, 3), 20_000)
