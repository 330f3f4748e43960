"""Configuration space: bead counts, line weights, interlacing, marginals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beadproc.model import (
    BeadConfiguration,
    HexagonSpec,
    InterlacingShapeError,
    interlace_indicator,
    interlacing_breaks,
    line_marginal_unnormalized,
    line_weight,
    particles_per_line,
)
from beadproc.sampler import RandomStream, sample_positions

import bruteforce


def test_spec_validation():
    HexagonSpec(1, 1)
    HexagonSpec(3, 7)
    with pytest.raises(ValueError):
        HexagonSpec(2, 1)
    with pytest.raises(ValueError):
        HexagonSpec(0, 3)
    with pytest.raises(TypeError):
        HexagonSpec(1.5, 3)


def test_particles_per_line_examples():
    spec = HexagonSpec(4, 12)
    assert particles_per_line(spec, 3) == 3
    assert particles_per_line(spec, 8) == 4
    assert particles_per_line(spec, 15) == 1
    assert spec.n_lines == 15
    with pytest.raises(ValueError):
        particles_per_line(spec, 0)
    with pytest.raises(ValueError):
        particles_per_line(spec, 16)


def test_particles_per_line_profile():
    # ramps 1..p, plateau of length q-p+1, ramps back down
    spec = HexagonSpec(3, 5)
    counts = [particles_per_line(spec, t) for t in spec.lines()]
    assert counts == [1, 2, 3, 3, 3, 2, 1]


@given(st.integers(1, 6), st.integers(0, 6))
def test_particles_symmetric_when_p_equals_q(p, dq):
    q = p + dq
    spec = HexagonSpec(p, q)
    for t in spec.lines():
        mirror = spec.p + spec.q - t
        if p == q:
            assert particles_per_line(spec, t) == particles_per_line(spec, mirror)
        assert 1 <= particles_per_line(spec, t) <= p


def test_line_weight_examples():
    spec = HexagonSpec(4, 12)
    assert line_weight(spec, 4, 0.5) == pytest.approx(0.5**8, abs=0.0)
    assert line_weight(spec, 4, 0.5) == 0.00390625
    assert line_weight(spec, 12, 0.5) == 0.00390625
    assert line_weight(HexagonSpec(1, 1), 1, 0.3) == 1.0


def test_line_weight_boundary_vanishing():
    spec = HexagonSpec(3, 6)
    for t in spec.lines():
        w0 = line_weight(spec, t, 0.0)
        w1 = line_weight(spec, t, 1.0)
        assert (w0 == 0.0) == (t != spec.p)
        assert (w1 == 0.0) == (t != spec.q)


def test_line_weight_vectorized():
    spec = HexagonSpec(2, 3)
    xs = np.linspace(0.1, 0.9, 7)
    w = line_weight(spec, 1, xs)
    assert w.shape == xs.shape
    assert np.allclose(w, (1 - xs) ** 2 * xs)


def test_interlace_examples():
    s12 = HexagonSpec(1, 2)
    assert interlace_indicator(s12, BeadConfiguration(((0.5,), (0.7,)))) is True
    assert interlace_indicator(s12, BeadConfiguration(((0.5,), (0.3,)))) is False
    s22 = HexagonSpec(2, 2)
    good = BeadConfiguration(((0.5,), (0.8, 0.2), (0.6,)))
    assert interlace_indicator(s22, good) is True
    # middle pair fails strict alternation
    bad = BeadConfiguration(((0.5,), (0.8, 0.55), (0.6,)))
    assert interlace_indicator(s22, bad) is False


def test_shape_error_is_not_false():
    # wrong bead count is a structural error, not a "False"
    spec = HexagonSpec(2, 2)
    with pytest.raises(InterlacingShapeError):
        interlace_indicator(spec, BeadConfiguration(((0.5,), (0.8,), (0.6,))))
    with pytest.raises(InterlacingShapeError):
        interlace_indicator(spec, BeadConfiguration(((0.5,), (0.8, 0.2))))
    assert issubclass(InterlacingShapeError, ValueError)


def test_configuration_rejects_bad_tuples():
    with pytest.raises(ValueError):
        BeadConfiguration(((0.2, 0.5),))  # not decreasing
    with pytest.raises(ValueError):
        BeadConfiguration(((0.5, 0.5),))  # ties are not strict
    with pytest.raises(ValueError):
        BeadConfiguration(((0.0,),))  # anchors are not beads
    with pytest.raises(ValueError):
        BeadConfiguration(((1.0,),))
    with pytest.raises(ValueError):
        BeadConfiguration(())


def test_marginal_examples():
    spec = HexagonSpec(2, 2)
    assert line_marginal_unnormalized(spec, 2, (0.75, 0.25)) == pytest.approx(0.25, rel=1e-15)
    assert line_marginal_unnormalized(HexagonSpec(1, 1), 1, (0.3,)) == 1.0


def test_marginal_is_vandermonde_sq_times_weights():
    spec = HexagonSpec(3, 4)
    t = 3
    xs = (0.9, 0.5, 0.2)
    vand = np.prod([xs[i] - xs[j] for i in range(3) for j in range(i + 1, 3)])
    want = vand**2 * np.prod([line_weight(spec, t, x) for x in xs])
    assert line_marginal_unnormalized(spec, t, xs) == pytest.approx(want, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=3, unique=True))
def test_marginal_symmetric_under_resort(vals):
    spec = HexagonSpec(3, 5)
    t = 4
    dec = tuple(sorted(vals, reverse=True))[: particles_per_line(spec, t)]
    if len(dec) < 2:
        return
    spec = HexagonSpec(len(dec), 5)
    t = len(dec)
    base = line_marginal_unnormalized(spec, t, dec)
    # the value depends only on the multiset: any permutation, re-sorted
    # into decreasing order, evaluates identically
    resorted = tuple(sorted(reversed(dec), reverse=True))
    assert line_marginal_unnormalized(spec, t, resorted) == base
    # and a non-decreasing ordering is rejected outright
    with pytest.raises(ValueError):
        line_marginal_unnormalized(spec, t, tuple(reversed(dec)))


def test_marginal_wrong_cardinality_raises():
    spec = HexagonSpec(2, 2)
    with pytest.raises(InterlacingShapeError):
        line_marginal_unnormalized(spec, 2, (0.5,))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(0, 10_000),
)
def test_sampled_configurations_interlace(p, dq, seed):
    # round-trip property: the sampler's output always satisfies the indicator
    spec = HexagonSpec(p, p + dq)
    cfg = BeadConfiguration(tuple(tuple(line[0]) for line in sample_positions(RandomStream(seed), spec, 1)))
    assert interlace_indicator(spec, cfg) is True
    for t in spec.lines():
        assert len(cfg.positions(t)) == particles_per_line(spec, t)


def test_interlacing_breaks_matches_the_cover_relations():
    # the array rule against the independent poset of tests/bruteforce.py:
    # sampled rows with one bead moved to a uniform position in (0, 1) and its
    # line re-sorted, then, on shapes with more than one line, rows with one
    # bead moved onto a bead of the next or previous line, which strict
    # interlacing forbids; the rule must name the first line pair whose cover
    # relations fail, and 0 where they all hold
    rng = np.random.default_rng(77)
    verdicts = []
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 5), (1, 4), (4, 4)]:
        spec = HexagonSpec(p, q)
        n, ties = 400, (100 if spec.n_lines > 1 else 0)
        lines = sample_positions(RandomStream(10 * p + q), spec, n + ties)
        for b, t in enumerate(rng.integers(1, spec.n_lines + 1, size=n + ties)):
            row = lines[t - 1][b]
            if b < n:
                x = rng.uniform()
            else:
                other = lines[t if t < spec.n_lines else t - 2][b]
                x = other[rng.integers(other.size)]
            row[rng.integers(row.size)] = x
            row[:] = np.sort(row)[::-1]
        breaks = interlacing_breaks(spec, lines)
        relations = bruteforce.build_relations(p, q)
        for b in range(n + ties):
            failed = [
                min(lo[0], hi[0])
                for lo, hi in relations
                if not lines[lo[0] - 1][b, lo[1] - 1] < lines[hi[0] - 1][b, hi[1] - 1]
            ]
            assert breaks[b] == min(failed, default=0)
            verdicts.append(not failed)
    assert any(verdicts) and not all(verdicts)
