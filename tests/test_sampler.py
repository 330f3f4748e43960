"""Random construction: Dirichlet weights, secular zeros, configuration sampling."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beadproc import checks, sampler
from beadproc.cli import run
from beadproc.model import HexagonSpec, interlacing_breaks, particles_per_line
from beadproc.sampler import (
    RandomStream,
    SecularProblem,
    dirichlet_draw,
    sample_positions,
    secular_zeros,
)
from beadproc.stats import ks_statistic
from secular_reference import secular_brackets, secular_zeros_bisect


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


@pytest.mark.parametrize("start", [np.nan, -np.inf, np.inf], ids=["nan", "bracket-lo", "bracket-hi"])
def test_secular_safeguard_recovers_from_bad_starts(monkeypatch, start):
    # eigenvalue starts that are NaN, or clip to either bracket end
    monkeypatch.setattr(sampler, "eigvalsh", lambda m: np.full(m.shape[:-1], start))
    for seed in range(6):
        poles, weights = _hard_batch(seed)
        _assert_matches_reference(poles, weights, sampler._secular_zeros_batch(poles, weights))


def test_secular_newton_does_not_cycle(monkeypatch):
    # In the 359-ulp gap, Newton from the bracket's left end (4 ulps in) goes
    # to 269 ulps, and from there lands back on the left end exactly: without
    # the strict-inside rule the two points alternate until the step cap.
    monkeypatch.setattr(sampler, "eigvalsh", lambda m: np.full(m.shape[:-1], -np.inf))
    poles = 0.5 + np.spacing(0.5) * np.array([[-14.0, 0.0, 359.0, 785.0]])
    weights = np.array([[0.0026, 0.1736, 0.1912, 0.1656]])
    weights /= weights.sum()
    _assert_matches_reference(poles, weights, sampler._secular_zeros_batch(poles, weights))


def test_secular_zeros_depend_only_on_their_row():
    poles, weights = _hard_batch(11)
    together = sampler._secular_zeros_batch(poles, weights)
    for b in range(poles.shape[0]):
        alone = sampler._secular_zeros_batch(poles[b : b + 1], weights[b : b + 1])
        assert alone.tobytes() == together[b : b + 1].tobytes()


def test_unconverged_zero_names_line_and_gap(monkeypatch):
    monkeypatch.setattr(sampler, "eigvalsh", lambda m: np.full(m.shape[:-1], np.nan))
    monkeypatch.setattr(sampler, "_NEWTON_ITERS", 0)
    with pytest.raises(RuntimeError, match=r"^line 2: .*gap 1 .*non-finite") as err:
        sample_positions(RandomStream(3), HexagonSpec(p=2, q=3), count=4)
    assert "np.float64" not in str(err.value)  # plain floats under numpy 2 too


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


def test_thread_count_does_not_change_the_draw():
    # 3000 draws are three chunks; (8, 12) solves up to 8 zeros per row
    for spec in (HexagonSpec(p=2, q=2), HexagonSpec(p=8, q=12)):
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
