"""Random construction: Dirichlet weights, secular zeros, configuration sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beadproc import sampler
from beadproc.model import (
    BeadConfiguration,
    HexagonSpec,
    interlace_indicator,
    particles_per_line,
)
from beadproc.sampler import (
    RandomStream,
    SecularProblem,
    dirichlet_draw,
    sample_configuration,
    sample_many,
    sample_positions,
    secular_zeros,
)
from beadproc.stats import beta_cdf, ks_statistic


# ---------------------------------------------------------------- dirichlet


def test_dirichlet_component_sum_is_one():
    stream = RandomStream(7)
    for mult in [(1, 1), (4, 12), (2, 1, 1, 3)]:
        v = dirichlet_draw(stream, mult)
        assert v.shape == (len(mult),)
        assert np.all(v > 0.0)
        assert abs(v.sum() - 1.0) < 1e-13


def test_dirichlet_unit_multiplicities_first_component_uniform():
    stream = RandomStream(11)
    draws = np.array([dirichlet_draw(stream, (1, 1))[0] for _ in range(10_000)])
    assert ks_statistic(draws, lambda x: x) < 0.02


def test_dirichlet_first_component_mean():
    # mean of component 1 is s_1 / sum(s); for (4, 12) that is 1/4
    stream = RandomStream(13)
    n = 20_000
    draws = np.array([dirichlet_draw(stream, (4, 12))[0] for _ in range(n)])
    var = 4 * 12 / (16.0**2 * 17.0)  # Beta(4,12) variance
    assert abs(draws.mean() - 0.25) < 3.0 * math.sqrt(var / n)


def test_dirichlet_rejects_zero_multiplicity():
    stream = RandomStream(1)
    with pytest.raises(ValueError):
        dirichlet_draw(stream, (1, 0, 2))


# ------------------------------------------------------------ secular zeros


def test_secular_problem_validation():
    with pytest.raises(ValueError):
        SecularProblem(poles=(0.5,), weights=(1.0,))  # need at least two poles
    with pytest.raises(ValueError):
        SecularProblem(poles=(0.0, 1.0, 1.0), weights=(0.3, 0.3, 0.4))
    with pytest.raises(ValueError):
        SecularProblem(poles=(1.0, 0.0), weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        SecularProblem(poles=(0.0, 1.0), weights=(-0.2, 1.2))
    with pytest.raises(ValueError):
        SecularProblem(poles=(0.0, 1.0), weights=(0.3, 0.3))
    with pytest.raises(ValueError):
        SecularProblem(poles=(0.0, 0.5, 1.0), weights=(0.5, 0.5))


def test_secular_zero_two_poles_closed_form():
    # w1/x + w2/(x-1) = 0  =>  x = w1
    z = secular_zeros(SecularProblem(poles=(0.0, 1.0), weights=(0.3, 0.7)))
    assert z.shape == (1,)
    assert abs(z[0] - 0.3) < 1e-12


def test_secular_zero_three_poles_closed_form():
    # equal weights at {0, 1/2, 1}: numerator 3x^2 - 3x + 1/2, roots (3 +- sqrt 3)/6
    w = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    z = secular_zeros(SecularProblem(poles=(0.0, 0.5, 1.0), weights=w))
    expected = np.array([(3.0 - math.sqrt(3.0)) / 6.0, (3.0 + math.sqrt(3.0)) / 6.0])
    assert np.max(np.abs(z - expected)) < 1e-12


@given(
    gaps=st.lists(st.floats(min_value=1e-3, max_value=4.0), min_size=1, max_size=5),
    start=st.floats(min_value=-3.0, max_value=3.0),
    raw_w=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_secular_zeros_interlace_poles(gaps, start, raw_w):
    n = len(gaps) + 1
    poles = start + np.concatenate([[0.0], np.cumsum(gaps)])
    weights = np.array(raw_w[:n] + [1] * (n - len(raw_w)), dtype=float)[:n]
    weights /= weights.sum()
    z = secular_zeros(SecularProblem(poles=tuple(poles), weights=tuple(weights)))
    assert z.shape == (n - 1,)
    assert np.all(z > poles[:-1]) and np.all(z < poles[1:])


def test_secular_zeros_survive_pinched_gap():
    # a gap a few ulps wide pins its zero; must not divide by zero or unbracket
    poles = (0.5, 0.5 + 1e-13, 1.0)
    z = secular_zeros(SecularProblem(poles=poles, weights=(1 / 3, 1 / 3, 1 / 3)))
    assert poles[0] <= z[0] <= poles[1]
    assert poles[1] < z[1] < poles[2]
    assert np.all(np.isfinite(z))


# ----------------------------------------------------------------- sampling


def test_sample_positions_shapes_and_ordering():
    spec = HexagonSpec(p=2, q=3)
    pos = sample_positions(RandomStream(3), spec, count=40)
    assert len(pos) == spec.n_lines
    for t in spec.lines():
        block = pos[t - 1]
        assert block.shape == (40, particles_per_line(spec, t))
        assert np.all(block > 0.0) and np.all(block < 1.0)
        assert np.all(np.diff(block, axis=1) < 0.0)  # rows strictly decreasing


def test_sample_positions_rejects_broken_interlacing(monkeypatch):
    # a chunk with two beads of line 3 swapped must not pass the fast path
    real = sampler._sample_lines_batch

    def swapped(rng, spec, batch):
        lines = real(rng, spec, batch)
        lines[2][0, [0, 1]] = lines[2][0, [1, 0]]
        return lines

    monkeypatch.setattr(sampler, "_sample_lines_batch", swapped)
    with pytest.raises(RuntimeError, match="lines 2 and 3"):
        sample_positions(RandomStream(3), HexagonSpec(p=3, q=5), count=4)


def test_seed_determinism_is_bytewise():
    spec = HexagonSpec(p=3, q=4)
    a = sample_positions(RandomStream(99), spec, count=2500)
    b = sample_positions(RandomStream(99), spec, count=2500)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_thread_count_does_not_change_the_draw():
    spec = HexagonSpec(p=2, q=2)
    serial = sample_positions(RandomStream(5), spec, count=3000, threads=1)
    pooled = sample_positions(RandomStream(5), spec, count=3000, threads=4)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(serial, pooled))


def test_entropy_echo_reproduces_os_seeded_run():
    first = RandomStream()
    entropy = first.entropy
    replay = RandomStream(entropy)
    spec = HexagonSpec(p=1, q=2)
    a = sample_positions(first, spec, count=8)
    b = sample_positions(replay, spec, count=8)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_sample_many_interlaces_and_matches_fast_path():
    spec = HexagonSpec(p=2, q=3)
    configs = sample_many(RandomStream(21), spec, count=60)
    assert len(configs) == 60
    assert all(interlace_indicator(spec, cfg) for cfg in configs)
    pos = sample_positions(RandomStream(21), spec, count=60)
    for i, cfg in enumerate(configs):
        for t in spec.lines():
            assert cfg.lines[t - 1] == tuple(pos[t - 1][i])


def test_sample_configuration_single():
    cfg = sample_configuration(RandomStream(2), HexagonSpec(p=1, q=1))
    assert isinstance(cfg, BeadConfiguration)
    assert len(cfg.lines) == 1 and len(cfg.lines[0]) == 1


def test_unit_hexagon_single_particle_is_uniform():
    spec = HexagonSpec(p=1, q=1)
    pos = sample_positions(RandomStream(17), spec, count=10_000)
    assert ks_statistic(pos[0][:, 0], lambda x: x) < 0.02


def test_first_line_law_is_beta():
    # line 1 is the first Dirichlet(p, q) component, i.e. Beta(p, q)
    spec = HexagonSpec(p=4, q=12)
    pos = sample_positions(RandomStream(8), spec, count=4000)
    lam1 = pos[0][:, 0]
    stat = ks_statistic(lam1, lambda x: beta_cdf(x, 4.0, 12.0))
    assert stat < 1.63 / math.sqrt(lam1.size)  # 99% KS band


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        sample_positions(RandomStream(1), HexagonSpec(p=1, q=1), count=0)
