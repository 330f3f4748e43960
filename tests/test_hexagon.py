"""Lattice model: enumeration, left-count closed form, single-line marginals."""

import itertools
import math
import re
from fractions import Fraction

import pytest

from beadproc import checks, hexagon
from beadproc.hexagon import (
    BudgetExceededError,
    DiscreteHexagon,
    boundary_positions,
    enumerate_configurations,
    hahn_marginal_unnormalized,
    lattice_particles_per_line,
    left_count_closed_form,
    line_sites,
)
from lattice_counts import (
    bruteforce_marginal,
    forward_counts,
    left_count,
    reference_configurations,
    reference_next_lines,
)


def _all_lines(hexa: DiscreteHexagon, t: int):
    """Every admissible decreasing tuple for line ``t``."""
    r = lattice_particles_per_line(hexa, t)
    sites = sorted(line_sites(hexa, t), reverse=True)
    return [xs for xs in itertools.combinations(sites, r)]


def _macmahon(n: int, p: int, q: int) -> Fraction:
    """Plane partitions in an n x p x q box: prod (i+j+k-1)/(i+j+k-2)."""
    boxes = itertools.product(range(1, n + 1), range(1, p + 1), range(1, q + 1))
    return math.prod((Fraction(i + j + k - 1, i + j + k - 2) for i, j, k in boxes), start=Fraction(1))


# ----------------------------------------------------------------- geometry


def test_boundary_examples():
    assert boundary_positions(DiscreteHexagon(1, 1, 1), 1) == (1, -1)
    assert boundary_positions(DiscreteHexagon(2, 2, 3), 0) == (2, 0)


def test_boundary_kinks():
    hexa = DiscreteHexagon(2, 2, 3)
    a = [boundary_positions(hexa, t)[0] for t in range(hexa.p + hexa.q + 1)]
    b = [boundary_positions(hexa, t)[1] for t in range(hexa.p + hexa.q + 1)]
    da = [y - x for x, y in zip(a, a[1:])]
    db = [y - x for x, y in zip(b, b[1:])]
    assert da == [1] * hexa.q + [-1] * hexa.p  # ceiling kinks at t = q
    assert db == [-1] * hexa.p + [1] * hexa.q  # floor kinks at t = p


def test_boundary_range_error():
    with pytest.raises(ValueError):
        boundary_positions(DiscreteHexagon(1, 1, 2), 4)
    with pytest.raises(ValueError):
        boundary_positions(DiscreteHexagon(1, 1, 2), -1)


def test_hexagon_validation():
    with pytest.raises(ValueError):
        DiscreteHexagon(0, 1, 1)
    with pytest.raises(ValueError):
        DiscreteHexagon(1, 0, 2)


def test_particle_profile_and_sites():
    hexa = DiscreteHexagon(2, 2, 3)
    assert [lattice_particles_per_line(hexa, t) for t in range(6)] == [0, 1, 2, 2, 1, 0]
    assert list(line_sites(DiscreteHexagon(1, 1, 1), 1)) == [-1, 1]
    for t in range(6):
        a, b = boundary_positions(hexa, t)
        sites = list(line_sites(hexa, t))
        assert sites[0] == b and sites[-1] == a
        assert all(y - x == 2 for x, y in zip(sites, sites[1:]))


# -------------------------------------------------------------- enumeration


@pytest.mark.parametrize(
    "n,p,q,total",
    [(1, 1, 1, 2), (1, 1, 2, 3), (2, 1, 1, 3), (1, 2, 1, 3), (2, 2, 2, 20)],
)
def test_frozen_configuration_counts(n, p, q, total):
    configs = enumerate_configurations(DiscreteHexagon(n, p, q))
    assert len(configs) == total
    assert len(set(configs)) == total  # each exactly once
    assert all(isinstance(c, tuple) and len(c) == p + q + 1 for c in configs)
    assert all(isinstance(line, tuple) and all(type(x) is int for x in line) for c in configs for line in c)


def test_counts_equal_macmahon_box_formula():
    # every hexagon inside the budget: the configurations are the plane
    # partitions in an n x p x q box, counted by prod (i+j+k-1)/(i+j+k-2)
    sizes = range(1, hexagon._BUDGET + 1)
    for n, p, q in itertools.product(sizes, sizes, sizes):
        if n * p * q > hexagon._BUDGET:
            continue
        assert len(enumerate_configurations(DiscreteHexagon(n, p, q))) == _macmahon(n, p, q), (n, p, q)


def test_reflection_symmetry_of_counts():
    for n, p, q in [(1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 3), (2, 2, 2)]:
        straight = len(enumerate_configurations(DiscreteHexagon(n, p, q)))
        mirrored = len(enumerate_configurations(DiscreteHexagon(n, q, p)))
        assert straight == mirrored


@pytest.mark.parametrize("sides", [(1.5, 1, 1), (1, 2.0, 2), (True, 1, 1), (1, 1, "2"), (1, 0, 2)])
def test_hexagon_sides_must_be_positive_integers(sides):
    # DiscreteHexagon(1.5, 1, 1) used to build
    name, value = next((n, v) for n, v in zip("npq", sides) if type(v) is not int or v < 1)
    error = ValueError if type(value) is int else TypeError
    with pytest.raises(error, match=rf"^{name} must be an integer >= 1, got {re.escape(repr(value))}$"):
        DiscreteHexagon(*sides)


def test_line_checks_name_the_bead_count():
    hexa = DiscreteHexagon(2, 2, 2)
    with pytest.raises(ValueError, match=r"^line 2 needs 2 beads$"):
        left_count(hexa, 2, (0,))
    with pytest.raises(ValueError, match=r"^line 1 needs 1 beads$"):
        hahn_marginal_unnormalized(hexa, 1, (3, 1))
    with pytest.raises(ValueError, match=r"^line 3 needs 1 beads$"):
        bruteforce_marginal(hexa, 3, (3, 1))
    with pytest.raises(ValueError, match=r"^need 2 positions, got 3$"):
        left_count_closed_form(2, (3, 1, -1))
    with pytest.raises(ValueError, match=r"^line t must be an integer in 0\.\.4, got 5$"):
        hahn_marginal_unnormalized(hexa, 5, ())


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_configurations(DiscreteHexagon(3, 3, 3))
    assert issubclass(BudgetExceededError, ValueError)


# -------------------------------------------------------------- left counts


def test_left_count_line_one_is_one():
    hexa = DiscreteHexagon(2, 2, 2)
    for (x,) in _all_lines(hexa, 1):
        assert left_count(hexa, 1, (x,)) == 1
        assert left_count_closed_form(1, (x,)) == 1


def test_left_count_two_beads_closed_form():
    # two beads: the count is the gap in lattice steps, (x1 - x2)/2
    for hexa in [DiscreteHexagon(2, 2, 2), DiscreteHexagon(1, 2, 3)]:
        for xs in _all_lines(hexa, 2):
            got = left_count(hexa, 2, xs)
            assert got == (xs[0] - xs[1]) // 2
            assert Fraction(got) == left_count_closed_form(2, xs)


def test_left_count_three_beads_closed_form():
    hexa = DiscreteHexagon(1, 3, 3)
    seen = 0
    for xs in _all_lines(hexa, 3):
        assert Fraction(left_count(hexa, 3, xs)) == left_count_closed_form(3, xs)
        seen += 1
    assert seen > 1


def test_left_count_closed_form_constants():
    # c_2 = 1/2 and c_3 = 1/16 = 1/(2^3 1! 2!)
    assert left_count_closed_form(2, (2, 0)) == Fraction(2 - 0, 2)
    assert left_count_closed_form(3, (4, 2, 0)) == Fraction((4 - 2) * (4 - 0) * (2 - 0), 16)


def test_left_count_validation():
    hexa = DiscreteHexagon(2, 2, 2)
    with pytest.raises(ValueError):
        left_count(hexa, 3, (1, 0, -1))  # beyond min(p, q)
    with pytest.raises(ValueError):
        left_count(hexa, 1, (5,))  # above the ceiling a(1) = 3
    with pytest.raises(ValueError):
        left_count(hexa, 2, (2, 2))  # not strictly decreasing
    with pytest.raises(ValueError):
        left_count(hexa, 2, (3, 0))  # parity mismatch with b(2) = -2
    with pytest.raises(BudgetExceededError):
        left_count(DiscreteHexagon(3, 3, 2), 2, (0, -2))


# ----------------------------------------------------------- line marginals


@pytest.mark.parametrize("n,p,q", [(1, 1, 1), (2, 2, 2), (1, 2, 3), (2, 1, 2)])
def test_hahn_weight_proportional_to_bruteforce(n, p, q):
    hexa = DiscreteHexagon(n, p, q)
    for t in range(p + q + 1):
        if lattice_particles_per_line(hexa, t) == 0:
            continue
        ratios = set()
        for xs in _all_lines(hexa, t):
            count = bruteforce_marginal(hexa, t, xs)
            weight = hahn_marginal_unnormalized(hexa, t, xs)
            assert weight > 0
            ratios.add(Fraction(count, weight))
        assert len(ratios) == 1  # one exact rational constant per (hexagon, line)


def test_bruteforce_marginal_sums_to_total():
    hexa = DiscreteHexagon(2, 2, 2)
    total = len(enumerate_configurations(hexa))
    for t in range(5):
        if lattice_particles_per_line(hexa, t) == 0:
            continue
        assert sum(bruteforce_marginal(hexa, t, xs) for xs in _all_lines(hexa, t)) == total


def test_unit_hexagon_marginal_counts():
    hexa = DiscreteHexagon(1, 1, 1)
    assert [bruteforce_marginal(hexa, 1, (x,)) for x in line_sites(hexa, 1)] == [1, 1]


def test_degenerate_weight_is_squared_vandermonde():
    # p = t = q: both one-bead factor products are empty
    hexa = DiscreteHexagon(2, 2, 2)
    for xs in _all_lines(hexa, 2):
        assert hahn_marginal_unnormalized(hexa, 2, xs) == (xs[0] - xs[1]) ** 2


def test_marginal_validation():
    hexa = DiscreteHexagon(2, 2, 2)
    with pytest.raises(ValueError):
        hahn_marginal_unnormalized(hexa, 1, (1, 3))  # wrong bead count
    with pytest.raises(ValueError):
        bruteforce_marginal(hexa, 6, (0,))  # line out of range
    with pytest.raises(BudgetExceededError):
        bruteforce_marginal(DiscreteHexagon(5, 2, 2), 1, (0,))


# ------------------------------------------------------- tallies of the listing


def _budget_hexagons():
    sizes = range(1, hexagon._BUDGET + 1)
    npqs = itertools.product(sizes, sizes, sizes)
    return [DiscreteHexagon(*npq) for npq in npqs if math.prod(npq) <= hexagon._BUDGET]


def test_lattice_identities_hold_on_every_budget_hexagon():
    # every hexagon inside the budget, mirrors included, with every up-ramp
    # line's left counts and every line's marginal
    hexas = _budget_hexagons()
    assert len(hexas) == 110
    for hexa in hexas:
        assert checks.lattice_identities(hexa) == (True, True), hexa


def test_lattice_identities_check_the_budget_first():
    with pytest.raises(BudgetExceededError, match=r"^n\*p\*q = 27 exceeds the enumeration budget 16$"):
        checks.lattice_identities(DiscreteHexagon(3, 3, 3))


@pytest.mark.parametrize(
    "n,p,q,total",
    [(4, 4, 4, 232848), (5, 5, 5, 267227532), (8, 3, 3, 259545), (16, 2, 3, 276165), (5, 3, 8, 61408347)],
)
def test_transfer_counts_macmahon_past_the_budget(n, p, q, total):
    # the package's successors, counted forward with no budget
    assert total == _macmahon(n, p, q)
    assert forward_counts(DiscreteHexagon(n, p, q))[-1][()] == total


def test_transfer_reads_each_boundary_once(monkeypatch):
    calls = []
    real = hexagon.boundary_positions

    def counted(hexa, t):
        calls.append(t)
        return real(hexa, t)

    monkeypatch.setattr(hexagon, "boundary_positions", counted)
    # the listing's largest budget hexagons, both orientations
    for hexa in (DiscreteHexagon(2, 2, 2), DiscreteHexagon(2, 2, 4), DiscreteHexagon(2, 4, 2)):
        calls.clear()
        enumerate_configurations(hexa)
        assert len(calls) <= hexa.p + hexa.q + 1, (hexa, calls)


def test_next_lines_match_the_reference_search():
    # every reachable line state of every budget hexagon (mirrors included)
    # and of two past the budget: the same successor tuples, in order
    for hexa in _budget_hexagons() + [DiscreteHexagon(3, 3, 3), DiscreteHexagon(8, 3, 3)]:
        states = [()]
        for t, pad in enumerate(hexagon._paddings(hexa)):
            reached = {}
            for cur in states:
                want = tuple(reference_next_lines(hexa, t, cur))
                assert tuple(hexagon._next_lines(pad, cur)) == want, (hexa, t, cur)
                reached.update(dict.fromkeys(want))
            states = list(reached)
        assert states == [()], hexa


def test_enumeration_matches_the_reference_walk():
    for hexa in _budget_hexagons():
        assert enumerate_configurations(hexa) == reference_configurations(hexa), hexa


def test_lattice_identities_runs_one_listing(monkeypatch):
    calls = []

    def counted(hexa):
        calls.append(hexa)
        return listing(hexa)

    listing = hexagon.enumerate_configurations
    monkeypatch.setattr(hexagon, "enumerate_configurations", counted)
    hexa = DiscreteHexagon(2, 2, 2)
    assert checks.lattice_identities(hexa) == (True, True)
    assert calls == [hexa]


def test_validate_checks_every_lattice_line(monkeypatch):
    # a closed form off by one on line 1 only: the discrete suite of
    # ``validate`` walks every up-ramp line of (2, 2, 2), line 1 included
    closed_form = hexagon.left_count_closed_form

    def off_on_line_1(t, xs):
        return closed_form(t, xs) + (t == 1)

    monkeypatch.setattr(hexagon, "left_count_closed_form", off_on_line_1)
    rows = {row[0]: row for row in checks.SUITES["discrete"]("quick")}
    assert rows["left_count_closed_form"] == ("left_count_closed_form", 1.0, 0.0, False)
    assert rows["hahn_proportionality"] == ("hahn_proportionality", 0.0, 0.0, True)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_lattice_identities_catch_a_wrong_weight_on_any_line(monkeypatch, t):
    # one tuple's Hahn weight doubled on line t only: the marginal ratio
    # splits there, and the left counts do not read the weight
    hexa = DiscreteHexagon(2, 2, 2)
    first = _all_lines(hexa, t)[0]
    weight = hexagon.hahn_marginal_unnormalized

    def doubled_on_line_t(h, line, xs):
        return weight(h, line, xs) * (2 if (line, tuple(xs)) == (t, first) else 1)

    monkeypatch.setattr(hexagon, "hahn_marginal_unnormalized", doubled_on_line_t)
    assert checks.lattice_identities(hexa) == (True, False)


@pytest.mark.parametrize("t", [1, 2])
def test_lattice_identities_catch_a_wrong_count_on_any_up_ramp_line(monkeypatch, t):
    # the closed form off by one on up-ramp line t only
    closed_form = hexagon.left_count_closed_form

    def off_on_line_t(line, xs):
        return closed_form(line, xs) + (line == t)

    monkeypatch.setattr(hexagon, "left_count_closed_form", off_on_line_t)
    assert checks.lattice_identities(DiscreteHexagon(2, 2, 2)) == (False, True)
