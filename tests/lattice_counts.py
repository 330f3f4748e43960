"""Left counts and single-line marginals of the discrete hexagon, one value
at a time, as tallies of :func:`beadproc.hexagon.enumerate_configurations`;
MacMahon's totals past the budget by a forward count; and the interlacing
rule by search, as the reference for the constructed successors.

The package checks these identities a whole hexagon at a time
(``checks.lattice_identities``, one listing per call); these per-value
forms keep the tests' tables readable.  Both check the enumeration budget
first, as ``enumerate_configurations`` does, then the line and its
positions.

``forward_counts`` has no budget: built on the package's own ``_paddings``
and ``_next_lines``, it checks their successors against MacMahon's totals
at sizes the listing cannot reach.

``reference_next_lines`` tries every subset of the next line's sites and
keeps those that interleave strictly with the current line, padded with a
virtual bead at ``b - 2`` (up-steps of the bead count) or ``a + 2``
(down-steps); ``reference_configurations`` walks it depth first.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from beadproc.hexagon import (
    DiscreteHexagon,
    _next_lines,
    _paddings,
    _validate_line,
    boundary_positions,
    enumerate_configurations,
    lattice_particles_per_line,
    line_sites,
)
from beadproc.model import _index


def left_count(hexa: DiscreteHexagon, t: int, xs: Sequence[int]) -> int:
    """Number of fillings of lines ``1..t-1`` compatible with line ``t = xs``.

    Defined on the up-ramp ``t <= p`` (where ``xs`` has length ``t``); the
    closed form ``left_count_closed_form`` must match this exactly.
    """
    configs = enumerate_configurations(hexa)
    t = _index(t, "line t", 1, min(hexa.p, hexa.q))
    xs = _validate_line(hexa, t, xs)
    return sum(prefix[t] == xs for prefix in {cfg[: t + 1] for cfg in configs})


def bruteforce_marginal(hexa: DiscreteHexagon, t: int, xs: Sequence[int]) -> int:
    """Exact count of configurations whose line ``t`` equals ``xs``."""
    configs = enumerate_configurations(hexa)
    xs = _validate_line(hexa, t, xs)
    return sum(cfg[t] == xs for cfg in configs)


def forward_counts(hexa: DiscreteHexagon) -> list[dict]:
    """Per line ``t = 0..p+q``, a dict from each reachable line-``t`` tuple to
    the number of fillings of lines ``0..t-1`` that lead to it; the total is
    ``forward_counts(hexa)[-1][()]``.  No budget is checked."""
    forward: list[dict] = [{(): 1}]
    for pad in _paddings(hexa):
        ahead: dict = {}
        for cur, ways in forward[-1].items():
            for cand in _next_lines(pad, cur):
                ahead[cand] = ahead.get(cand, 0) + ways
        forward.append(ahead)
    return forward


def interleaves(u: Sequence[int], v: Sequence[int]) -> bool:
    """Equal lengths; ``v`` sits strictly above ``u`` slotwise and within ``u``'s gaps."""
    return all(u[j] < v[j] for j in range(len(u))) and all(v[j + 1] < u[j] for j in range(len(u) - 1))


def reference_next_lines(hexa: DiscreteHexagon, t: int, current: tuple[int, ...]):
    """Every line-``t+1`` tuple that interlaces with line ``t = current``, by search.

    Up- and down-steps carry their orientation in the virtual bead; on plateau
    steps the interleaving direction follows the ceiling: above when it
    rises, below when it falls (the mirrored hexagon's plateau).
    """
    r_cur = lattice_particles_per_line(hexa, t)
    r_nxt = lattice_particles_per_line(hexa, t + 1)
    a_cur, b_cur = boundary_positions(hexa, t)
    a_nxt, _ = boundary_positions(hexa, t + 1)
    u = current + ((b_cur - 2,) if r_nxt == r_cur + 1 else ())
    pad_top = r_nxt == r_cur - 1
    below = r_nxt == r_cur and a_nxt < a_cur
    sites = tuple(reversed(line_sites(hexa, t + 1)))  # decreasing
    for cand in itertools.combinations(sites, r_nxt):
        v = ((a_nxt + 2,) + cand) if pad_top else cand
        if interleaves(v, u) if below else interleaves(u, v):
            yield cand


def reference_configurations(hexa: DiscreteHexagon) -> list[tuple[tuple[int, ...], ...]]:
    """Every configuration, depth first over ``reference_next_lines``."""
    nl = hexa.p + hexa.q

    def walk(partial):
        if len(partial) == nl + 1:
            yield partial
            return
        for cand in reference_next_lines(hexa, len(partial) - 1, partial[-1]):
            yield from walk(partial + (cand,))

    return list(walk(((),)))
