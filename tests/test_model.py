"""Configuration space: bead counts, line weights, interlacing, marginals."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beadproc.model import (
    HexagonSpec,
    InterlacingShapeError,
    interlacing_breaks,
    particles_per_line,
)
from beadproc.sampler import RandomStream, sample_positions

import bruteforce
from jacobi_reference import line_marginal_unnormalized, line_weight


def test_spec_validation():
    HexagonSpec(1, 1)
    HexagonSpec(3, 7)
    with pytest.raises(ValueError):
        HexagonSpec(2, 1)
    with pytest.raises(ValueError):
        HexagonSpec(0, 3)
    with pytest.raises(TypeError):
        HexagonSpec(1.5, 3)


@pytest.mark.parametrize("p,q", [(True, 2), (1, True), (np.bool_(True), 2), (1.0, 2), (1, "2")])
def test_spec_sides_must_be_integers(p, q):
    # HexagonSpec(True, 2) used to build HexagonSpec(p=1, q=2)
    name, value = ("q", q) if type(p) is int else ("p", p)
    with pytest.raises(TypeError, match=rf"^{name} must be an integer >= 1, got {re.escape(repr(value))}$"):
        HexagonSpec(p, q)


@pytest.mark.parametrize("t", [True, False, np.bool_(True), 1.0, 2.5, "1"])
def test_line_index_must_be_an_integer(t):
    # particles_per_line(spec, True) used to return True
    with pytest.raises(TypeError, match=rf"^line t must be an integer in 1\.\.4, got {re.escape(repr(t))}$"):
        particles_per_line(HexagonSpec(2, 3), t)


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


def _one_row(*lines):
    # one configuration as per-line (1, r(t)) arrays
    return [np.array([line], dtype=float) for line in lines]


def test_interlace_examples():
    s12 = HexagonSpec(1, 2)
    assert interlacing_breaks(s12, _one_row((0.5,), (0.7,))).tolist() == [0]
    assert interlacing_breaks(s12, _one_row((0.5,), (0.3,))).tolist() == [1]
    s22 = HexagonSpec(2, 2)
    good = _one_row((0.5,), (0.8, 0.2), (0.6,))
    assert interlacing_breaks(s22, good).tolist() == [0]
    # line 1 leaves the gap of line 2
    bad = _one_row((0.5,), (0.8, 0.55), (0.6,))
    assert interlacing_breaks(s22, bad).tolist() == [1]
    # line 3 must sit between line 2's top bead and the anchor at 1
    top = _one_row((0.5,), (0.8, 0.2), (0.9,))
    assert interlacing_breaks(s22, top).tolist() == [2]
    # rows are configurations: the three together give the three verdicts
    rows = [np.vstack(arrs) for arrs in zip(good, bad, top)]
    assert interlacing_breaks(s22, rows).tolist() == [0, 1, 2]


def test_shape_error_is_not_false():
    # a wrong bead count is a structural error, not a failing row
    spec = HexagonSpec(2, 2)
    with pytest.raises(InterlacingShapeError):
        interlacing_breaks(spec, _one_row((0.5,), (0.8,), (0.6,)))
    assert issubclass(InterlacingShapeError, ValueError)


_GOOD_22 = _one_row((0.5,), (0.8, 0.2), (0.6,))


@pytest.mark.parametrize(
    "lines, message",
    [
        (_GOOD_22 + [np.array([[0.3]])], "line 4: expected 3 lines"),
        ([_GOOD_22[0], np.array([[0.8]]), _GOOD_22[2]], r"line 2: expected shape \(1, 2\), got \(1, 1\)"),
        (_GOOD_22[:2], "line 3: expected 3 lines"),
        ([_GOOD_22[0], np.array([[0.8, 0.5, 0.2]]), _GOOD_22[2]], r"line 2: expected shape \(1, 2\), got \(1, 3\)"),
        ([line[0] for line in _GOOD_22], r"line 1: expected shape \(1, 1\), got \(1,\)"),
        ([_GOOD_22[0], np.vstack([_GOOD_22[1]] * 2), _GOOD_22[2]], r"line 2: expected shape \(1, 2\), got \(2, 2\)"),
    ],
    ids=["extra-line", "missing-bead", "missing-line", "extra-bead", "1-d-rows", "unequal-rows"],
)
def test_interlacing_breaks_refuses_malformed_input(lines, message):
    # the error names the line and the expected shape
    with pytest.raises(InterlacingShapeError, match=message):
        interlacing_breaks(HexagonSpec(2, 2), lines)


def test_interlacing_breaks_rejects_bad_positions():
    # rows that no configuration has (unsorted, tied, on an anchor, outside
    # (0, 1) or not finite) fail the rule itself; there is no separate check
    spec = HexagonSpec(2, 2)
    bad = [
        ((0.5,), (0.2, 0.8), (0.6,)),
        ((0.5,), (0.5, 0.5), (0.6,)),
        ((0.5,), (0.8, 0.5), (0.6,)),
        ((0.5,), (0.8, 0.2), (1.0,)),
        ((0.5,), (0.8, 0.0), (0.6,)),
        ((0.5,), (0.8, -0.1), (0.6,)),
        ((0.5,), (1.2, 0.2), (0.6,)),
        ((np.nan,), (0.8, 0.2), (0.6,)),
        ((0.5,), (0.8, 0.2), (np.inf,)),
        ((0.5,), (0.8, -np.inf), (0.6,)),
    ]
    rows = [np.array(line, dtype=float) for line in zip(*bad)]
    assert np.all(interlacing_breaks(spec, rows) > 0)


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
    with pytest.raises(InterlacingShapeError):
        line_marginal_unnormalized(spec, 2, np.full((2, 2, 2), 0.5))


def test_marginal_takes_rows():
    # rows (count, r) give one value per row, each equal to the one-row call
    spec = HexagonSpec(3, 4)
    rows = sample_positions(RandomStream(5), spec, 50)[2]
    values = line_marginal_unnormalized(spec, 3, rows)
    assert values.shape == (50,)
    assert values.tolist() == [line_marginal_unnormalized(spec, 3, row) for row in rows]
    for (a, b, c), value in zip(rows, values):
        weights = line_weight(spec, 3, a) * line_weight(spec, 3, b) * line_weight(spec, 3, c)
        want = ((a - b) * (a - c) * (b - c)) ** 2 * weights
        assert value == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError, match="strictly decrease"):
        line_marginal_unnormalized(spec, 3, rows[:, ::-1])
    with pytest.raises(ValueError, match="inside"):
        line_marginal_unnormalized(spec, 3, np.vstack([rows, [[0.9, 0.5, np.nan]]]))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(0, 10_000),
)
def test_sampled_configurations_interlace(p, dq, seed):
    # round-trip property: the sampler's output always passes the rule
    spec = HexagonSpec(p, p + dq)
    lines = sample_positions(RandomStream(seed), spec, 1)
    assert interlacing_breaks(spec, lines).tolist() == [0]
    assert [line.shape for line in lines] == [(1, particles_per_line(spec, t)) for t in spec.lines()]


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
