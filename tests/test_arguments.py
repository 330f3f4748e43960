"""Every integer argument of the public API goes through one check, ``model._index``,
every position in (0, 1) through ``model._positions``, and every point tuple
through ``model._records``.

Each entry point is called with a bool, a numpy bool, a float and a string in
place of one integer argument, and must raise ``TypeError`` naming the
argument and the value; an integer outside the valid range must raise
``ValueError`` naming the range.  Before the check was shared, some of these
calls returned a value: ``left_count(h, 1, (1.5,))`` was 1,
``bulk_kernel(nu, 1.5, ...)`` was the ``s0 = 1`` value,
``sample_positions(count=True)`` drew one configuration,
``beta_cdf(0.5, True, 1)`` was 0.5, ``RandomStream(True)`` drew as seed 1
and ``RandomStream([True, 1])`` as ``[1, 1]``, and ``RandomStream(1).spawn``
gave one child for ``True`` and none for ``-1``.  Before the point tuples
were checked, ``npoint_correlation`` dropped a third field and
``oracle_deviation`` a fifth.
"""

import math
import re

import numpy as np
import pytest

from beadproc import kernel, oracle
from beadproc.hexagon import (
    DiscreteHexagon,
    boundary_positions,
    hahn_marginal_unnormalized,
    lattice_particles_per_line,
    left_count_closed_form,
    line_sites,
)
from beadproc.kernel import expected_count, kernel_context, kernel_eval, kernel_matrix, line_density, npoint_correlation
from beadproc.model import HexagonSpec, _index, _positions, particles_per_line
from beadproc.oracle import grid_points, oracle_deviation
from beadproc.sampler import RandomStream, sample_positions
from beadproc.scaling import (
    boutillier_kernel,
    bulk_convergence_probe,
    bulk_kernel,
    global_density,
    scaling_context,
    tail_integral_real,
)
from beadproc.stats import beta_cdf
from lattice_counts import bruteforce_marginal, left_count

SPEC = HexagonSpec(2, 3)  # lines 1..4
CTX = kernel_context(SPEC)
HEXA = DiscreteHexagon(1, 1, 1)  # lines 0..2; line 1 holds one bead in -1..1
NU = scaling_context(2.0, 2.0).nu

# name: (call with the integer argument v, argument name, an out-of-range
# value and the rule its message names, or None where every integer is valid)
CASES = {
    "HexagonSpec-p": (lambda v: HexagonSpec(v, 3), "p", 0, ">= 1"),
    "HexagonSpec-q": (lambda v: HexagonSpec(1, v), "q", 0, ">= 1"),
    "particles_per_line": (lambda v: particles_per_line(SPEC, v), "line t", 5, "in 1..4"),
    "kernel_matrix-s": (lambda v: kernel_matrix(CTX, v, [0.3], 1, [0.5]), "line s", 5, "in 1..4"),
    "kernel_matrix-t": (lambda v: kernel_matrix(CTX, 1, [0.3], v, [0.5]), "line t", 0, "in 1..4"),
    "kernel_eval-s": (lambda v: kernel_eval(CTX, v, 0.3, 1, 0.5), "line s", 5, "in 1..4"),
    "kernel_eval-t": (lambda v: kernel_eval(CTX, 1, 0.3, v, 0.5), "line t", 0, "in 1..4"),
    "npoint_correlation": (lambda v: npoint_correlation(CTX, [(v, 0.3)]), "line s", 5, "in 1..4"),
    "line_density": (lambda v: line_density(CTX, v, [0.3]), "line t", 5, "in 1..4"),
    "expected_count-t": (lambda v: expected_count(CTX, v), "line t", 5, "in 1..4"),
    "expected_count-nodes": (lambda v: expected_count(CTX, 1, nodes=v), "nodes", 0, ">= 1"),
    "grid_points": (grid_points, "grid size m", 1, ">= 2"),
    "oracle_deviation-m": (lambda v: oracle_deviation(SPEC, v, [(1, 0.3, 1, 0.7)]), "grid size m", 1, ">= 2"),
    "oracle_deviation-s": (lambda v: oracle_deviation(SPEC, 8, [(v, 0.3, 1, 0.7)]), "probe line s", 5, "in 1..4"),
    "oracle_deviation-t": (lambda v: oracle_deviation(SPEC, 8, [(1, 0.3, v, 0.7)]), "probe line t", 0, "in 1..4"),
    "RandomStream-seed": (RandomStream, "seed", -1, ">= 0"),
    "RandomStream-seed-sequence": (lambda v: RandomStream([v, 1]), "seed", -1, ">= 0"),
    "RandomStream.spawn": (lambda v: RandomStream(1).spawn(v), "n", -1, ">= 0"),
    "sample_positions-count": (lambda v: sample_positions(RandomStream(1), SPEC, v), "count", 0, ">= 1"),
    "sample_positions-threads": (
        lambda v: sample_positions(RandomStream(1), SPEC, 4, threads=v), "threads", 0, ">= 1"
    ),
    "DiscreteHexagon-n": (lambda v: DiscreteHexagon(v, 1, 1), "n", 0, ">= 1"),
    "DiscreteHexagon-p": (lambda v: DiscreteHexagon(1, v, 1), "p", 0, ">= 1"),
    "DiscreteHexagon-q": (lambda v: DiscreteHexagon(1, 1, v), "q", 0, ">= 1"),
    "boundary_positions": (lambda v: boundary_positions(HEXA, v), "line t", 3, "in 0..2"),
    "lattice_particles_per_line": (lambda v: lattice_particles_per_line(HEXA, v), "line t", 3, "in 0..2"),
    "line_sites": (lambda v: line_sites(HEXA, v), "line t", -1, "in 0..2"),
    "left_count-t": (lambda v: left_count(HEXA, v, (1,)), "line t", 2, "in 1..1"),
    "left_count-position": (lambda v: left_count(HEXA, 1, (v,)), "line-1 position", 3, "in -1..1"),
    "left_count_closed_form-t": (lambda v: left_count_closed_form(v, (3,)), "line t", 0, ">= 1"),
    "left_count_closed_form-position": (lambda v: left_count_closed_form(2, (3, v)), "position", None, None),
    "hahn_marginal_unnormalized-t": (lambda v: hahn_marginal_unnormalized(HEXA, v, (1,)), "line t", 3, "in 0..2"),
    "hahn_marginal_unnormalized-position": (
        lambda v: hahn_marginal_unnormalized(HEXA, 1, (v,)), "line-1 position", -3, "in -1..1"
    ),
    "bruteforce_marginal-t": (lambda v: bruteforce_marginal(HEXA, v, (1,)), "line t", 3, "in 0..2"),
    "bruteforce_marginal-position": (lambda v: bruteforce_marginal(HEXA, 1, (v,)), "line-1 position", 3, "in -1..1"),
    "beta_cdf-a": (lambda v: beta_cdf(0.5, v, 2), "Beta shape a", 0, ">= 1"),
    "beta_cdf-b": (lambda v: beta_cdf(0.5, 2, v), "Beta shape b", 0, ">= 1"),
    "bulk_kernel-s0": (lambda v: bulk_kernel(NU, v, 0.1, 0, 0.2), "s0", None, None),
    "bulk_kernel-t0": (lambda v: bulk_kernel(NU, 0, 0.1, v, 0.2), "t0", None, None),
    "boutillier_kernel-s0": (lambda v: boutillier_kernel(0.3, v, 0.1, 0, 0.2), "s0", None, None),
    "boutillier_kernel-t0": (lambda v: boutillier_kernel(0.3, 0, 0.1, v, 0.2), "t0", None, None),
    "tail_integral_real": (lambda v: tail_integral_real(1.0, 1.0, v), "tail power d", 0, ">= 1"),
    "bulk_convergence_probe-p": (lambda v: bulk_convergence_probe(2.0, 2.0, v, [(0, 0, 0.1, 0.0)]), "p", 0, ">= 1"),
    # at p = 4 (q = 12) the offsets count from line 8 of 1..15
    "bulk_convergence_probe-s0": (
        lambda v: bulk_convergence_probe(2.0, 2.0, 4, [(v, 0, 0.1, 0.0)]), "offset s0", 8, "in -7..7"
    ),
    "bulk_convergence_probe-t0": (
        lambda v: bulk_convergence_probe(2.0, 2.0, 4, [(0, v, 0.1, 0.0)]), "offset t0", -8, "in -7..7"
    ),
}
# These take their lines as arrays, so a numpy bool arrives as a Python bool.
ARRAYED = {"kernel_eval-s", "kernel_eval-t", "npoint_correlation"}
NOT_INTEGERS = {"True": True, "np.True_": np.bool_(True), "1.5": 1.5, "'2'": "2"}


# name: (call with one position v beside a valid one, the name its refusal gives)
POSITION_CASES = {
    "kernel_matrix-rows": (lambda v: kernel_matrix(CTX, 1, [0.3, v], 2, [0.5]), "row positions"),
    "kernel_matrix-columns": (lambda v: kernel_matrix(CTX, 1, [0.3], 2, [0.5, v]), "column positions"),
    "line_density": (lambda v: line_density(CTX, 1, [[0.3], [v]]), "line positions"),
    "kernel_eval-y": (lambda v: kernel_eval(CTX, 1, [0.3, v], 2, 0.5), "row positions"),
    "kernel_eval-x": (lambda v: kernel_eval(CTX, 1, 0.3, 2, [0.5, v]), "column positions"),
    "npoint_correlation": (lambda v: npoint_correlation(CTX, [(1, v), (2, 0.3)]), "row positions"),
    "oracle_deviation-rows": (
        lambda v: oracle_deviation(SPEC, 8, [(1, 0.3, 1, 0.7), (2, v, 1, 0.7)]), "probe row positions"
    ),
    "oracle_deviation-columns": (
        lambda v: oracle_deviation(SPEC, 8, [(1, 0.3, 1, 0.7), (2, 0.3, 1, v)]), "probe column positions"
    ),
    "global_density": (lambda v: global_density(2.0, 2.0, [0.5, v]), "heights"),
}
NOT_INSIDE = (0.0, 1.0, -0.5, 1.5, math.nan)


@pytest.mark.parametrize("bad", NOT_INSIDE, ids=map(repr, NOT_INSIDE))
@pytest.mark.parametrize("case", POSITION_CASES)
def test_position_outside_the_open_interval_raises_naming_it(case, bad):
    call, name = POSITION_CASES[case]
    with pytest.raises(ValueError, match=rf"^{name} must lie strictly inside \(0, 1\), got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: kernel_eval(CTX, 1, [1.5, -0.5], 1, 0.5), "row positions"),
        (lambda: kernel_eval(CTX, 1, 0.5, 1, [1.5, -0.5]), "column positions"),
        (lambda: npoint_correlation(CTX, [(1, 1.5), (1, -0.5)]), "row positions"),
    ],
    ids=["kernel_eval-y", "kernel_eval-x", "npoint_correlation"],
)
def test_a_point_refusal_names_the_first_bad_value_in_the_callers_order(call, name):
    # each line pair's positions used to be sorted before the check: got -0.5
    with pytest.raises(ValueError, match=rf"^{name} must lie strictly inside \(0, 1\), got 1\.5$"):
        call()


def test_a_position_refusal_names_the_first_bad_value_in_c_order():
    v = np.array([[0.5, 2.0], [-1.0, 0.5]]).T  # C order: 0.5, -1.0, 2.0, 0.5
    with pytest.raises(ValueError, match=r"^v must lie strictly inside \(0, 1\), got -1\.0$"):
        _positions(v, "v")
    assert _positions([0.25, 0.5], "v").dtype == float and _positions([], "v").size == 0


@pytest.mark.parametrize(
    "call,field,good,bad",
    [
        (lambda v: npoint_correlation(CTX, v), "point must be (line, position)", (1, 0.5), (1, 0.5, 9)),
        (lambda v: npoint_correlation(CTX, v), "point must be (line, position)", (1, 0.5), (1,)),
        (lambda v: npoint_correlation(CTX, v), "point must be (line, position)", (1, 0.5), 5),
        (lambda v: oracle_deviation(SPEC, 8, v), "probe must be (s, y, t, x)", (1, 0.3, 2, 0.4), (1, 0.5, 1, 0.5, 9)),
        (lambda v: oracle_deviation(SPEC, 8, v), "probe must be (s, y, t, x)", (1, 0.3, 2, 0.4), (1, 0.5, 1)),
    ],
    ids=["point-three", "point-one", "point-int", "probe-five", "probe-three"],
)
def test_point_tuples_of_the_wrong_length_are_refused_before_kernel_work(monkeypatch, call, field, good, bad):
    # a third point field and a fifth probe field were dropped before, a
    # short tuple raised IndexError or failed to unpack, and an int had no len()
    def fail(*args):
        raise AssertionError("kernel work before the tuples were checked")

    monkeypatch.setattr(kernel, "kernel_eval", fail)
    monkeypatch.setattr(oracle, "_hat_blocks", fail)
    for points in ([bad, good], [good, bad]):
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{field}, got {bad!r}')}$"):
            call(points)


@pytest.mark.parametrize("bad", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
@pytest.mark.parametrize("case", CASES)
def test_non_integer_raises_type_error_naming_the_argument(case, bad):
    call, name, _, _ = CASES[case]
    shown = np.asarray(bad).tolist() if case in ARRAYED else bad
    with pytest.raises(TypeError, match=rf"^{re.escape(name)} must be an integer\b.*, got {re.escape(repr(shown))}$"):
        call(bad)


@pytest.mark.parametrize("case", [c for c, (_, _, value, _) in CASES.items() if value is not None])
def test_out_of_range_integer_raises_value_error_naming_the_range(case):
    call, name, value, rule = CASES[case]
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{name} must be an integer {rule}, got {value}')}$"):
        call(value)


def test_index_returns_python_ints_and_builds_one_message_shape():
    for v in (3, np.int64(3), np.uint8(3), np.int32(3)):
        got = _index(v, "v", 1, 3)
        assert got == 3 and type(got) is int
    assert _index(-10**30, "v", None) == -10**30
    with pytest.raises(ValueError, match=r"^v must be an integer in 1\.\.3, got np\.int64\(4\)$"):
        _index(np.int64(4), "v", 1, 3)
    with pytest.raises(ValueError, match=r"^v must be an integer >= 1, got 0$"):
        _index(0, "v", 1)
    with pytest.raises(TypeError, match=r"^v must be an integer, got False$"):
        _index(False, "v", None)


def test_random_stream_keeps_none_and_sequence_seeds():
    # every integer of a seed goes through _index; None goes to numpy
    first = RandomStream(7).generator.random()
    assert RandomStream(np.int64(7)).generator.random() == first
    assert RandomStream([7, 1]).generator.random() == RandomStream([7, 1]).generator.random() != first
    # sequence seeds draw what numpy's SeedSequence draws from them: the bytes
    # of perfbench's [seed, 1] stay as they were
    for seed in ([7, 1], (np.int64(7), 1), np.array([7, 1]), [2**70, 0]):
        want = np.random.default_rng(np.random.SeedSequence([int(v) for v in seed])).random(3)
        assert np.array_equal(RandomStream(seed).generator.random(3), want)
    with pytest.raises(TypeError, match=r"^seed must be an integer >= 0, got \[1, 2\]$"):
        RandomStream([[1, 2]])
    assert RandomStream(None).entropy is not None
    child = RandomStream(7).spawn(1)[0]
    assert child.generator.random() == RandomStream(_seq=RandomStream(7).seq.spawn(1)[0]).generator.random()
