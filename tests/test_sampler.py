"""Random construction: Dirichlet weights, secular zeros, configuration sampling."""

import functools
import hashlib
import math
import operator
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beadproc import checks, sampler
from beadproc.cli import run
from beadproc.kernel import kernel_context, line_density
from beadproc.model import HexagonSpec, interlacing_breaks, particles_per_line
from beadproc.sampler import RandomStream, _dirichlet_draw, sample_positions
from beadproc.stats import ks_statistic
from secular_reference import SecularProblem, secular_brackets, secular_zeros, secular_zeros_bisect, unsettled_rows


# ---------------------------------------------------------------- dirichlet


def test_dirichlet_component_sum_is_one():
    stream = RandomStream(7)
    for mult in [(1, 1), (4, 12), (2, 1, 1, 3)]:
        v = _dirichlet_draw(stream.generator, mult, 1)
        assert v.shape == (1, len(mult))
        assert np.all(v > 0.0)
        assert abs(v.sum() - 1.0) < 1e-13


def test_dirichlet_unit_multiplicities_first_component_uniform():
    stream = RandomStream(11)
    # one batch takes the stream's exponentials in the order 10_000 single
    # draws would, so these are the same draws
    draws = _dirichlet_draw(stream.generator, (1, 1), 10_000)[:, 0]
    assert ks_statistic(draws, lambda x: x) < 0.02


def test_dirichlet_first_component_mean():
    # mean of component 1 is s_1 / sum(s); for (4, 12) that is 1/4
    stream = RandomStream(13)
    n = 20_000
    draws = _dirichlet_draw(stream.generator, (4, 12), n)[:, 0]
    var = 4 * 12 / (16.0**2 * 17.0)  # Beta(4,12) variance
    assert abs(draws.mean() - 0.25) < 3.0 * math.sqrt(var / n)


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


def test_one_ulp_gap_is_rejected_not_collapsed_onto_a_pole():
    # no double lies strictly inside the first gap, so no zero can either
    poles = (0.5, math.nextafter(0.5, 1.0), 1.0)
    with pytest.raises(ValueError, match=r"gap 1 \(0\.5, 0\.5000000000000001\): .*double strictly between"):
        SecularProblem(poles=poles, weights=(1 / 3, 1 / 3, 1 / 3))
    batch = np.array([[0.25, 0.5, 1.0], poles])
    with pytest.raises(RuntimeError, match=r"gap 1 \(0\.5, 0\.5000000000000001\) of row 1 holds no double"):
        sampler._secular_zeros_batch(batch, np.full((2, 3), 1 / 3))


def test_secular_zeros_survive_pinched_gap():
    # a gap a few ulps wide pins its zero; must not divide by zero or unbracket
    poles = (0.5, 0.5 + 1e-13, 1.0)
    z = secular_zeros(SecularProblem(poles=poles, weights=(1 / 3, 1 / 3, 1 / 3)))
    assert poles[0] <= z[0] <= poles[1]
    assert poles[1] < z[1] < poles[2]
    assert np.all(np.isfinite(z))
    _assert_matches_reference(np.array([poles]), np.full((1, 3), 1 / 3), z[None])


def _assert_matches_reference(poles, weights, zeros):
    """Inside the reference brackets, and equal to bisection to 1e-14 of
    ``max(|ref|, d)``, ``d`` the zero's distance to the nearer pole.

    Cancellation in ``f`` fixes a zero only to about eps times ``d``, which
    for a zero near 0 in a wide gap is coarser than 1e-14 of the zero itself.
    Bisection only resolves 2^-60 of its bracket, so that is allowed on top.
    """
    lo, hi = secular_brackets(poles, weights)
    ref = secular_zeros_bisect(poles, weights)
    d = np.minimum(ref - poles[:, :-1], poles[:, 1:] - ref)
    assert np.all((lo <= zeros) & (zeros <= hi))
    assert np.all(np.abs(zeros - ref) <= 1e-14 * np.maximum(np.abs(ref), d) + 2.0**-60 * (hi - lo))


_tiny = st.floats(min_value=1e-14, max_value=1e-6)


@st.composite
def _secular_rows(draw):
    """One pole row and its weights: spread, with gaps of 1e-15..1e-9, or
    clustered at the 1e-12 scale next to the anchors at 0 and 1."""
    n = draw(st.integers(min_value=2, max_value=8))
    if draw(st.booleans()):
        inner = draw(st.lists(st.floats(min_value=1e-13, max_value=1e-11), min_size=n - 2, max_size=n - 2))
        poles = np.array([0.0, *sorted(inner), 1.0])
    else:
        gap = st.one_of(st.floats(min_value=1e-15, max_value=1e-9), st.floats(min_value=1e-3, max_value=1.0))
        gaps = draw(st.lists(gap, min_size=n - 1, max_size=n - 1))
        poles = draw(st.floats(min_value=-3.0, max_value=3.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    assume(np.all(np.diff(poles) > 0.0))
    w = np.array(draw(st.lists(st.one_of(_tiny, st.floats(min_value=0.01, max_value=1.0)), min_size=n, max_size=n)))
    return poles, w / w.sum()


_NEAR_ZERO_ROW = (  # zero -9.47e-4 in a gap 0.98 wide; package and bisection differ by 2.7e-17
    np.array([float.fromhex(h) for h in (
        "-0x1.28f9f4c5b93e6p+0", "-0x1.21fc4bd710320p-1", "-0x1.21fc4bd2d7077p-1", "-0x1.21fc4bd2cc604p-1",
        "0x1.acac046b64460p-2", "0x1.acac046b90a78p-2", "0x1.e5a51d0c0c584p-1",
    )]),
    np.array([float.fromhex(h) for h in (
        "0x1.348f2d0931677p-22", "0x1.dbf7ef67d2362p-3", "0x1.5dd4fb357687bp-2", "0x1.a22e6c8ca87c8p-25",
        "0x1.5bf9d4013f241p-2", "0x1.60d487008838dp-4", "0x1.8fdf02b1f3fd5p-27",
    )]),
)


@given(row=_secular_rows())
@example(row=_NEAR_ZERO_ROW)
@settings(max_examples=300, deadline=None)
def test_secular_zeros_match_bisection_reference(row):
    poles, weights = row[0][None], row[1][None]
    if any(math.nextafter(a, math.inf) >= b for a, b in zip(row[0], row[0][1:])):
        # a gap with no double strictly inside holds no zero a double can give
        with pytest.raises(RuntimeError, match="holds no double strictly between its poles"):
            sampler._secular_zeros_batch(poles, weights)
        return
    _assert_matches_reference(poles, weights, sampler._secular_zeros_batch(poles, weights))


def test_sampled_zeros_with_many_poles_lie_within_two_ulps(monkeypatch):
    # The bisection reference above draws at most 8 poles; lines of (32, 96)
    # have up to 33.  On every 10th sampled line, each zero is compared with
    # the exact zero of its row's resolvent sum, built from the same double
    # poles and weights: f decreases on the gap, so exact Fraction signs of f
    # two doubles either side of the zero bracket the exact one.
    calls, real = [], sampler._secular_zeros_batch

    def recorded(poles, weights):
        zeros = real(poles, weights)
        calls.append((poles, weights, zeros))
        return zeros

    monkeypatch.setattr(sampler, "_secular_zeros_batch", recorded)
    sampler._sample_lines_batch(np.random.default_rng(7), HexagonSpec(32, 96), 4)
    checked = 0
    for poles, weights, zeros in calls[::10]:
        for a, w, row in zip(poles.tolist(), weights.tolist(), zeros.tolist()):
            terms = [(Fraction(ai), Fraction(wi)) for ai, wi in zip(a, w)]

            def f(x):
                return sum(wi / (Fraction(x) - ai) for ai, wi in terms)

            for j, z in enumerate(row):
                below = math.nextafter(math.nextafter(z, -math.inf), -math.inf)
                above = math.nextafter(math.nextafter(z, math.inf), math.inf)
                assert below <= a[j] or f(below) >= 0, (poles.shape, j, z)
                assert above >= a[j + 1] or f(above) <= 0, (poles.shape, j, z)
                checked += 1
    assert max(p.shape[1] for p, _, _ in calls[::10]) == 33
    assert checked == 1232


def _hard_batch(seed, batch=24, n=9):
    """Rows of one batch: spread poles with gaps down to 1e-15, poles
    clustered at the 1e-12 scale between anchors at 0 and 1, and weights
    down to 1e-14."""
    rng = np.random.default_rng(seed)
    half = batch // 2
    tiny_gap = rng.random((half, n - 1)) < 0.3
    gaps = np.where(tiny_gap, 10.0 ** rng.uniform(-15, -9, (half, n - 1)), 0.2 * rng.random((half, n - 1)))
    spread = np.cumsum(np.hstack([rng.random((half, 1)), gaps]), axis=1)
    inner = np.sort(1e-12 * rng.random((half, n - 2)), axis=1)
    cluster = np.hstack([np.zeros((half, 1)), inner, np.ones((half, 1))])
    poles = np.vstack([spread, cluster])
    poles = poles[np.all(np.diff(poles, axis=1) > 0.0, axis=1)]
    w = rng.random(poles.shape)
    w = np.where(rng.random(poles.shape) < 0.3, 10.0 ** rng.uniform(-14, -6, poles.shape), w)
    return poles, w / w.sum(axis=1, keepdims=True)


def _starts(poles, weights):
    """:func:`sampler._eigen_start` on row-major (B, n) arrays, as (B, n-1)."""
    poles, weights = poles.T.copy(), weights.T.copy()
    return sampler._eigen_start(poles, weights, sampler._pole_sum(weights)).T


def test_eigen_start_is_the_zeros_before_polishing():
    # The eigenvalues of diag(a_1..a_{n-1}) + zz^T are the zeros themselves,
    # so the start alone agrees with bisection to 1e-12 and lies inside its
    # gap, on sampled-like lines (anchors at 0 and 1, Dirichlet weights), on
    # a row whose weights sum to 1.5, and on the hard batch.
    rng = np.random.default_rng(43)
    rows = []
    for n in (2, 3, 8, 33, 130):
        inner = np.sort(rng.random((4, n - 2)), axis=1)
        rows.append((np.hstack([np.zeros((4, 1)), inner, np.ones((4, 1))]), _dirichlet_draw(rng, [1] * n, 4)))
    rows.append((np.array([[0.0, 0.3, 0.45, 1.0]]), np.array([[0.1, 0.4, 0.6, 0.4]])))
    for poles, weights in rows:
        start = _starts(poles, weights)
        assert np.all(np.abs(start - secular_zeros_bisect(poles, weights)) <= 1e-12), poles.shape
        assert np.all((poles[:, :-1] < start) & (start < poles[:, 1:])), poles.shape
    # Weights down to 1e-14 and gaps down to 1e-15 put some zeros within
    # the start's rounding (a few eps) of a pole; those starts may land just
    # past it, which the clip into the brackets absorbs.  Every zero farther
    # than 8 eps from its poles starts strictly inside its gap, on the
    # closed-form sizes (n = 2, 3) as on eigvalsh's (n = 9).  With two or
    # three weights a row, the smallest stays a little above 1e-14.
    eps = np.finfo(float).eps
    for n, smallest in ((2, 1e-13), (3, 1e-13), (9, 1e-14)):
        poles, weights = _hard_batch(0, n=n)
        assert weights.min() < smallest, n
        start, ref = _starts(poles, weights), secular_zeros_bisect(poles, weights)
        assert np.all(np.abs(start - ref) <= 1e-12), n
        clear = np.minimum(ref - poles[:, :-1], poles[:, 1:] - ref) > 8.0 * eps
        inside = (poles[:, :-1] < start) & (start < poles[:, 1:])
        assert np.all(inside | ~clear) and 2 * clear.sum() > clear.size, n
        assert np.all((poles[:, :-1] - 8.0 * eps <= start) & (start <= poles[:, 1:] + 8.0 * eps)), n


def test_closed_form_starts_match_eigvalsh():
    # Blocks of one or two rows skip eigvalsh: the 1x1 start is eigvalsh's
    # bit for bit, the 2x2 start within 4 eps of it, on sampled-like rows
    # (anchors at 0 and 1, Dirichlet weights) and on the hard batches.
    rng = np.random.default_rng(44)
    eps = np.finfo(float).eps
    for n, tol in ((2, 0.0), (3, 4.0 * eps)):
        inner = np.sort(rng.random((2000, n - 2)), axis=1)
        sampled = (np.hstack([np.zeros((2000, 1)), inner, np.ones((2000, 1))]), _dirichlet_draw(rng, [1] * n, 2000))
        for poles, weights in [sampled, *(_hard_batch(seed, n=n) for seed in range(6))]:
            total = sampler._pole_sum(weights.T.copy())
            z = np.sqrt(weights[:, :-1] * (poles[:, -1:] - poles[:, :-1]) / total[:, None])
            block = z[:, :, None] * z[:, None, :] + np.apply_along_axis(np.diag, 1, poles[:, :-1])
            want = np.linalg.eigvalsh(block)
            got = _starts(poles, weights)
            if tol == 0.0:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.all(np.abs(got - want) <= tol), np.abs(got - want).max() / eps


def _constant_start(monkeypatch, start):
    """Make every eigenvalue start ``start``, whatever the block size."""
    monkeypatch.setattr(sampler, "_eigen_start", lambda poles, weights, total: np.full(poles[1:].shape, start))


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("start", [np.nan, -np.inf, np.inf], ids=["nan", "bracket-lo", "bracket-hi"])
def test_secular_safeguard_recovers_from_bad_starts(monkeypatch, start, n):
    # eigenvalue starts that are NaN, or clip to either bracket end, on a
    # closed-form size (n = 3) and an eigvalsh one (n = 9)
    _constant_start(monkeypatch, start)
    for seed in range(6):
        poles, weights = _hard_batch(seed, n=n)
        _assert_matches_reference(poles, weights, sampler._secular_zeros_batch(poles, weights))


def test_secular_newton_does_not_cycle(monkeypatch):
    # In the 359-ulp gap, Newton from the bracket's left end (4 ulps in) goes
    # to 269 ulps, and from there lands back on the left end exactly: without
    # the strict-inside rule the two points alternate until the step cap.
    _constant_start(monkeypatch, -np.inf)
    poles = 0.5 + np.spacing(0.5) * np.array([[-14.0, 0.0, 359.0, 785.0]])
    weights = np.array([[0.0026, 0.1736, 0.1912, 0.1656]])
    weights /= weights.sum()
    _assert_matches_reference(poles, weights, sampler._secular_zeros_batch(poles, weights))


@pytest.mark.parametrize(
    "poles,weights",
    [
        ((0.0, 0.5, 1.0), np.array([0.2, 0.3, 0.5]) * 1e-160),
        ((-1.0, -0.5, 0.0, 0.5, 1.0), np.arange(1, 6) * 5e-324),
        ((0.0, 0.5, 1.0), np.array([0.2, 0.3, 0.5]) * 1e300),
        ((0.0, 0.5, 1.0), np.array([0.6, 0.9, 1.5]) * 1e308),
    ],
    ids=["tiny", "subnormal", "huge", "sum-overflows"],
)
def test_unnormalized_weights_are_refused(poles, weights):
    # the solve takes Dirichlet rows, which sum to 1; a row whose sum is off
    # by a factor of two or more is named with its sum, not rescaled
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    with pytest.raises(ValueError, match=rf"row 0 sums to {re.escape(repr(total))}$"):
        sampler._secular_zeros_batch(np.array([poles]), weights[None])


def test_weight_sums_are_taken_from_one_half_up_to_two():
    poles = np.array([[0.0, 0.5, 1.0]] * 2)
    unit = np.array([0.2, 0.3, 0.5])
    zeros = sampler._secular_zeros_batch(poles[:1], unit[None])
    for scale in (0.5, math.nextafter(2.0, 0.0)):
        got = sampler._secular_zeros_batch(poles, np.array([unit, scale * unit]))
        assert np.allclose(got, zeros, rtol=1e-14, atol=0.0), scale
    for scale, total in ((2.0, "2.0"), (np.nan, "nan")):
        with pytest.raises(ValueError, match=rf"row 1 sums to {total}$"):
            sampler._secular_zeros_batch(poles, np.array([unit, scale * unit]))


def _record_pole_sums(monkeypatch):
    # the shape of every sum over the poles, in call order
    shapes, real = [], sampler._pole_sum

    def recorded(terms):
        shapes.append(terms.shape)
        return real(terms)

    monkeypatch.setattr(sampler, "_pole_sum", recorded)
    return shapes


def _active_after_pass_0(shapes):
    """Entries one solve still polishes in Newton pass 1, read off its sums:
    pass 0 sums (n, n-1, B) arrays, every later pass (n, active) ones."""
    last = max(i for i, shape in enumerate(shapes) if len(shape) == 3)
    return shapes[last + 1][1] if last + 1 < len(shapes) else 0


def test_secular_zeros_depend_only_on_their_row(monkeypatch):
    # numpy adds along an axis left to right while the other axes hold more
    # than one element, and pairwise once they collapse to one; from 8 terms
    # on the two differ.  Every sum over the poles keeps one order however
    # many rows and active entries share it, on both sides of 8 and of 128
    # terms, also for a row that leaves a single entry active after pass 0.
    shapes = _record_pole_sums(monkeypatch)
    single = set()
    for n in (3, 7, 8, 9, 34, 130):
        poles, weights = _hard_batch(11, n=n)
        room = np.all(np.nextafter(poles[:, :-1], np.inf) < poles[:, 1:], axis=1)
        poles, weights = poles[room], weights[room]
        together = sampler._secular_zeros_batch(poles, weights)
        for b in range(poles.shape[0]):
            shapes.clear()
            alone = sampler._secular_zeros_batch(poles[b : b + 1], weights[b : b + 1])
            assert alone.tobytes() == together[b : b + 1].tobytes(), (n, b)
            if _active_after_pass_0(shapes) == 1:
                single.add(n)
    assert {8, 9} <= single


def test_pole_sum_adds_left_to_right():
    # The solver sums over the poles down the first axis of gap-major arrays,
    # left to right in every shape, so each sum is that of its own column.
    # Mixed signs and magnitudes make the order show: a numpy release that
    # reduces an axis in another order fails here, instead of moving sample
    # bytes without a word.  The (n, 2, n-1, k) case is the bracket-end
    # evaluation of k rows.
    rng = np.random.default_rng(27)
    for n in [*range(1, 141), 256, 513]:
        rows = rng.standard_normal((6, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (6, n))
        ends = rng.standard_normal((2, n - 1, 3, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, n - 1, 3, n))
        for batch in (rows[:1], rows, rows.reshape(2, 3, n), ends):
            got = sampler._pole_sum(np.ascontiguousarray(np.moveaxis(batch, -1, 0)))
            want = [functools.reduce(operator.add, column) for column in batch.reshape(-1, n).tolist()]
            assert got.tobytes() == np.array(want).reshape(batch.shape[:-1]).tobytes(), (n, batch.shape)


def _record_bracket_ends(monkeypatch):
    # the pole rows of every exact bracket-end evaluation, one list per call;
    # the evaluation takes them gap-major, one row per column
    calls, real = [], sampler._bracket_ends

    def recorded(poles, weights, ends):
        calls.append(poles.T.tolist())
        return real(poles, weights, ends)

    monkeypatch.setattr(sampler, "_bracket_ends", recorded)
    return calls


def _clamp_batch(seed, batch=24, n=7):
    """Rows whose weights settle few bracket ends: poles in [0, 1], gaps
    pinched to 2..7 ulps at rate 0.3, and weights between 1e-300 and 1e-14
    at rate 0.3, whose zeros sit inside a pole's inward offset."""
    rng = np.random.default_rng(seed)
    poles = np.empty((batch, n))
    poles[:, 0] = 0.1 * rng.random(batch)
    for j in range(1, n):
        ulps = rng.integers(2, 8, batch) * np.spacing(poles[:, j - 1])
        poles[:, j] = poles[:, j - 1] + np.where(rng.random(batch) < 0.3, ulps, 0.15 * rng.random(batch))
    poles = poles[np.all(np.diff(poles, axis=1) > 0.0, axis=1)]
    w = np.where(rng.random(poles.shape) < 0.3, 10.0 ** rng.uniform(-300, -14, poles.shape), rng.random(poles.shape))
    return poles, w / w.sum(axis=1, keepdims=True)


def test_clamped_zeros_survive_the_weight_test(monkeypatch):
    # Where the reference closes a bracket, onto either end or at a pinched
    # gap, the zero is that end bit for bit, and a row with a clamp always
    # went through the exact evaluation: the weights never settle an end
    # whose f has the clamping sign.
    calls = _record_bracket_ends(monkeypatch)
    kinds = set()
    for seed in range(40):
        poles, weights = _clamp_batch(seed)
        calls.clear()
        zeros = sampler._secular_zeros_batch(poles, weights)
        lo, hi = secular_brackets(poles, weights)
        closed = lo == hi
        assert zeros[closed].tobytes() == lo[closed].tobytes(), seed
        _assert_matches_reference(poles, weights, zeros)
        sent = {tuple(row) for rows in calls for row in rows}
        pinched = closed & (lo == 0.5 * (poles[:, :-1] + poles[:, 1:]))
        onto_lo = closed & ~pinched & (lo - poles[:, :-1] < poles[:, 1:] - lo)
        for b in np.flatnonzero((closed & ~pinched).any(axis=1)):
            assert tuple(poles[b].tolist()) in sent, (seed, b)
        kinds |= {k for k, m in [("pinched", pinched), ("lo", onto_lo), ("hi", closed & ~pinched & ~onto_lo)] if m.any()}
    assert kinds == {"pinched", "lo", "hi"}


def test_sampled_brackets_need_no_exact_end_evaluation(monkeypatch):
    # the work gate: sampled weights settle every bracket end
    calls = _record_bracket_ends(monkeypatch)
    sample_positions(RandomStream(7), HexagonSpec(p=4, q=12), count=60)
    sample_positions(RandomStream(3), HexagonSpec(p=32, q=96), count=32)
    assert calls == []


def test_only_unsettled_rows_evaluate_their_ends(monkeypatch):
    # on the hard batches about half the rows have an end the weights leave
    # unsettled; those rows, and no others, take one exact evaluation
    calls = _record_bracket_ends(monkeypatch)
    for seed in range(6):
        poles, weights = _hard_batch(seed)
        calls.clear()
        sampler._secular_zeros_batch(poles, weights)
        rows = unsettled_rows(poles, weights)
        assert 0 < len(rows) < poles.shape[0]
        assert calls == [poles[rows].tolist()], seed


def test_unconverged_zero_names_line_and_gap(monkeypatch):
    _constant_start(monkeypatch, np.nan)
    monkeypatch.setattr(sampler, "_NEWTON_ITERS", 0)
    with pytest.raises(RuntimeError, match=r"^line 2: .*gap 1 .*non-finite") as err:
        sample_positions(RandomStream(3), HexagonSpec(p=2, q=3), count=4)
    assert "np.float64" not in str(err.value)  # plain floats under numpy 2 too


def test_zero_still_moving_at_the_cap_names_line_and_gap(monkeypatch):
    # one polish pass leaves about 12% of the zeros at (4, 12) still moving:
    # the solve must say so instead of returning them
    monkeypatch.setattr(sampler, "_NEWTON_ITERS", 1)
    with pytest.raises(RuntimeError, match=r"^line \d+: .*gap \d+ .*still moving after 1 Newton steps$"):
        sample_positions(RandomStream(7), HexagonSpec(p=4, q=12), count=60)


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


def _swap_two_beads_of_line_3(monkeypatch):
    # every chunk comes back with its first row's line 3 out of order
    real = sampler._sample_lines_batch

    def swapped(rng, spec, batch):
        lines = real(rng, spec, batch)
        lines[2][0, [0, 1]] = lines[2][0, [1, 0]]
        return lines

    monkeypatch.setattr(sampler, "_sample_lines_batch", swapped)


def test_sample_positions_rejects_broken_interlacing(monkeypatch):
    # a chunk with two beads of line 3 swapped must not pass
    _swap_two_beads_of_line_3(monkeypatch)
    with pytest.raises(RuntimeError, match="lines 2 and 3"):
        sample_positions(RandomStream(3), HexagonSpec(p=3, q=5), count=4)


def test_validate_interlacing_row_counts_rejections(monkeypatch, capsys):
    # the row counts the configurations interlacing_breaks rejects: none from
    # the sampler; one once the first bead of one draw is moved past line 2
    # with the sampler's own check switched off
    assert run("validate --suite sampler".split()) == 0
    assert "sampler,interlacing_holds,pass,0,0" in capsys.readouterr().out.splitlines()
    real = sampler._sample_lines_batch

    def moved(rng, spec, batch):
        lines = real(rng, spec, batch)
        lines[0][0, 0] = 1.0 - 1e-9
        return lines

    monkeypatch.setattr(sampler, "_sample_lines_batch", moved)
    monkeypatch.setattr(sampler, "_check_interlacing", lambda spec, lines: None)
    assert run("validate --suite sampler".split()) == 1
    assert "sampler,interlacing_holds,fail,1,0" in capsys.readouterr().out.splitlines()


def test_validate_reports_a_refused_draw_as_a_failed_row(monkeypatch, capsys):
    # the sampler refuses a draw that fails its interlacing check: validate
    # prints a failed row and exits 1 instead of stopping with a traceback
    _swap_two_beads_of_line_3(monkeypatch)
    assert run("validate --suite sampler".split()) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["sampler,interlacing_holds,fail,200,0"]


def test_seed_determinism_is_bytewise():
    spec = HexagonSpec(p=3, q=4)
    a = sample_positions(RandomStream(99), spec, count=2500)
    b = sample_positions(RandomStream(99), spec, count=2500)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


# sha256 of sample_positions at five sizes, two seeds each.  Newton stops
# within a few ulps of each zero, where its start leaves it, so this pins the
# eigenvalue start (diag(a_1..a_{n-1}) + zz^T, in closed form for one or two
# rows) as well as the polishing.
_SAMPLE_DIGEST = "155538a81a7fa8e761957e27d02ab51e88e63843ba4f3652c88eefd093554700"


def test_sample_bytes_match_the_pinned_digest():
    digest = hashlib.sha256()
    for (p, q), count in [((2, 3), 200), ((4, 12), 60), ((7, 9), 32), ((8, 24), 32), ((32, 96), 8)]:
        for seed in (0, 1):
            for line in sample_positions(RandomStream(seed), HexagonSpec(p=p, q=q), count):
                digest.update(line.tobytes())
    assert digest.hexdigest() == _SAMPLE_DIGEST


def test_thread_count_does_not_change_the_draw():
    # 3000 draws are three chunks; (8, 12) solves up to 8 zeros per row
    for spec in (HexagonSpec(p=2, q=2), HexagonSpec(p=8, q=12)):
        serial = sample_positions(RandomStream(5), spec, count=3000, threads=1)
        pooled = sample_positions(RandomStream(5), spec, count=3000, threads=4)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(serial, pooled))


def test_newton_cap_has_headroom(monkeypatch):
    # the eigenvalue starts leave at most 2 polish passes per zero at these sizes
    cases = [((4, 12), 60, 7), ((32, 96), 4, 3)]
    want = [sample_positions(RandomStream(seed), HexagonSpec(*pq), count) for pq, count, seed in cases]
    monkeypatch.setattr(sampler, "_NEWTON_ITERS", 4)
    for (pq, count, seed), lines in zip(cases, want):
        got = sample_positions(RandomStream(seed), HexagonSpec(*pq), count)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, lines))


def test_sampler_respects_the_fan_reflection():
    # (t, x) <-> (p+q-t, 1-x): the top bead of line t has the law of one minus
    # the bottom bead of line p+q-t.  Even configurations give one sample, odd
    # ones the other, so the two are independent.
    p, q = 4, 12
    lines = sample_positions(RandomStream(2024), HexagonSpec(p=p, q=q), count=2000)
    band = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / 1000)  # KS two-sample, level 1e-3
    for t in (2, 5, 8):
        top = np.sort(lines[t - 1][0::2, 0])
        mirrored = np.sort(1.0 - lines[p + q - t - 1][1::2, -1])
        grid = np.concatenate([top, mirrored])
        gap = np.searchsorted(top, grid, side="right") - np.searchsorted(mirrored, grid, side="right")
        assert np.max(np.abs(gap)) / 1000 < band, t


def test_one_bead_law_matches_the_kernel_on_every_line():
    # One bead per configuration, chosen uniformly, is a draw of the one-bead
    # law rho_t / r(t).  Its CDF comes from the kernel's line density by
    # 8-point Gauss-Legendre on 1500 cells; the kernel's Jacobi recurrences
    # share no code with the sampler's secular solve.  KS band at family
    # level 1e-3, Bonferroni over the lines.
    p, q, n = 8, 24, 3000
    spec = HexagonSpec(p=p, q=q)
    ctx = kernel_context(spec)
    lines = sample_positions(RandomStream(17), spec, count=n)
    pick = np.random.default_rng(18)
    edges = np.linspace(0.0, 1.0, 1501)
    u, w = np.polynomial.legendre.leggauss(8)
    nodes = edges[:-1, None] + np.diff(edges)[:, None] * (0.5 * (u + 1.0))
    weights = np.diff(edges)[:, None] * (0.5 * w)
    band = math.sqrt(-math.log(1e-3 / spec.n_lines / 2) / 2)
    for t, beads in enumerate(lines, start=1):
        r = beads.shape[1]
        cells = (line_density(ctx, t, nodes.ravel()).reshape(nodes.shape) * weights).sum(axis=1)
        F = np.concatenate([[0.0], np.cumsum(cells)]) / r
        assert abs(F[-1] - 1.0) < 1e-10, t
        one = beads[np.arange(n), pick.integers(r, size=n)]
        stat = math.sqrt(n) * ks_statistic(one, lambda x: np.interp(x, edges, F))
        assert stat < band, (t, stat)


def test_extreme_beads_of_lines_p_and_q_follow_their_exact_laws():
    # Line p's lowest bead has CDF 1 - (1 - x)^{pq}, and by the fan reflection
    # line q's highest bead has CDF x^{pq}.  KS band at family level 1e-3,
    # Bonferroni over the 4 statistics.
    band = math.sqrt(math.log(8000) / 2)
    for p, q, n in ((4, 12, 4000), (8, 24, 2000)):
        lines = sample_positions(RandomStream(1), HexagonSpec(p=p, q=q), count=n)
        laws = (
            (lines[p - 1][:, -1], lambda x: -np.expm1(p * q * np.log1p(-x))),
            (lines[q - 1][:, 0], lambda x: x ** (p * q)),
        )
        for beads, cdf in laws:
            stat = math.sqrt(n) * ks_statistic(beads, cdf)
            assert stat < band, (p, q, stat)


def test_entropy_echo_reproduces_os_seeded_run():
    first = RandomStream()
    entropy = first.entropy
    replay = RandomStream(entropy)
    spec = HexagonSpec(p=1, q=2)
    a = sample_positions(first, spec, count=8)
    b = sample_positions(replay, spec, count=8)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_sampled_rows_interlace_as_configurations():
    spec = HexagonSpec(p=2, q=3)
    pos = sample_positions(RandomStream(21), spec, count=60)
    # row b of every line is configuration b: each row alone passes the rule
    assert all(interlacing_breaks(spec, [line[b : b + 1] for line in pos]).tolist() == [0] for b in range(60))


def test_unit_hexagon_single_particle_is_uniform():
    spec = HexagonSpec(p=1, q=1)
    pos = sample_positions(RandomStream(17), spec, count=10_000)
    assert ks_statistic(pos[0][:, 0], lambda x: x) < 0.02


def test_first_line_law_is_beta():
    # line 1 is the first Dirichlet(p, q) component, i.e. Beta(p, q)
    stat = checks.first_line_ks(HexagonSpec(p=4, q=12), 4000, 8)
    assert stat < 1.63 / math.sqrt(4000)  # 99% KS band


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        sample_positions(RandomStream(1), HexagonSpec(p=1, q=1), count=0)


@pytest.mark.parametrize("threads", [0, -3, 1.5, 2.0, "2", True, np.bool_(True)])
def test_threads_must_be_a_positive_integer(threads):
    # 0 and -3 ran serially without a word; a float, a string or a bool is
    # refused too
    error = ValueError if type(threads) is int else TypeError
    with pytest.raises(error, match=rf"^threads must be an integer >= 1, got {re.escape(repr(threads))}$"):
        sample_positions(RandomStream(1), HexagonSpec(p=1, q=1), count=4, threads=threads)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_threads_below_one_exits_two(threads, capsys):
    assert run(["sample", "--p", "1", "--q", "2", "--count", "4", "--seed", "1", "--threads", threads]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "threads must be an integer >= 1" in err
