"""Exact enumeration of the lattice precursor of the bead process.

Holes of ``n`` non-intersecting lattice paths across a hexagon with side
parameters ``(p, q)`` form interlaced bead columns on lines ``t = 0..p+q``:
line ``t`` carries ``min(t, p, q, p+q-t)`` beads on the step-2 sublattice
between ``b(t)`` and ``a(t)``.  Consecutive lines have opposite parity, and
each bead of line ``t+1`` sits strictly inside one gap of line ``t``, padded
with a virtual bead just above the next ceiling where the ceiling rises and
just below the next floor where the floor falls.  So the lines that may
follow a line are built, as a product of one range per gap, not searched.

Whole configurations are listed level by level, each partial configuration
extended by every next line.  Totals, left counts and line marginals are
tallies of that listing: inside the budget it holds at most 105
configurations, at (2, 2, 4) and its two rotations.

Everything in this module is exact integer / rational arithmetic — the
statements it checks are identities, not approximations — and state spaces
are tiny by design (enumeration budget enforced).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import _index

__all__ = [
    "DiscreteHexagon",
    "BudgetExceededError",
    "boundary_positions",
    "lattice_particles_per_line",
    "line_sites",
    "enumerate_configurations",
    "left_count_closed_form",
    "hahn_marginal_unnormalized",
]

_BUDGET = 16  # n*p*q cap for enumerate_configurations


class BudgetExceededError(ValueError):
    """Enumeration request too large for the brute-force oracle."""


@dataclass(frozen=True)
class DiscreteHexagon:
    """Hexagon side data.  Canonical orientation has ``p <= q``; the swapped
    orientation (its mirror image) is accepted so reflection symmetry can be
    exercised as an actual computation."""

    n: int
    p: int
    q: int

    def __post_init__(self) -> None:
        for side in ("n", "p", "q"):
            object.__setattr__(self, side, _index(getattr(self, side), side, 1))


def boundary_positions(hexa: DiscreteHexagon, t: int) -> tuple[int, int]:
    """Ceiling ``a(t)`` and floor ``b(t)`` of line ``t``; kinks at q and p."""
    t = _index(t, "line t", 0, hexa.p + hexa.q)
    a = 2 * (hexa.n - 1) + t if t <= hexa.q else 2 * (hexa.n + hexa.q - 1) - t
    b = -t if t <= hexa.p else -2 * hexa.p + t
    return a, b


def lattice_particles_per_line(hexa: DiscreteHexagon, t: int) -> int:
    t = _index(t, "line t", 0, hexa.p + hexa.q)
    return min(t, hexa.p, hexa.q, hexa.p + hexa.q - t)


def line_sites(hexa: DiscreteHexagon, t: int) -> range:
    """Admissible positions on line ``t``: ``b(t), b(t)+2, ..., a(t)``."""
    a, b = boundary_positions(hexa, t)
    return range(b, a + 1, 2)


def _validate_line(hexa: DiscreteHexagon, t: int, xs: Sequence[int]) -> tuple[int, ...]:
    """``xs`` as a tuple, once it is a full line-``t`` configuration."""
    a, b = boundary_positions(hexa, t)
    xs = tuple(_index(x, f"line-{t} position", b, a) for x in xs)
    for x in xs:
        if (x - b) % 2 != 0:
            raise ValueError(f"position {x} off the line-{t} parity lattice")
    for hi, lo in zip(xs, xs[1:]):
        if not lo < hi:
            raise ValueError(f"positions must strictly decrease, got {xs}")
    r = lattice_particles_per_line(hexa, t)
    if len(xs) != r:
        raise ValueError(f"line {t} needs {r} beads")
    return xs


def _paddings(hexa: DiscreteHexagon) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per line ``t = 0..p+q-1``, the virtual beads ``(top, bottom)`` that pad
    it before line ``t+1``: ``(a(t+1) + 1,)`` if the ceiling rises and
    ``(b(t+1) - 1,)`` if the floor falls, else ``()``."""
    ends = [boundary_positions(hexa, t) for t in range(hexa.p + hexa.q + 1)]
    return [
        ((a + 1,) if a > a_cur else (), (b - 1,) if b < b_cur else ())
        for (a_cur, b_cur), (a, b) in zip(ends, ends[1:])
    ]


def _next_lines(pad: tuple[tuple[int, ...], tuple[int, ...]], current: tuple[int, ...]):
    """All admissible next-line tuples after ``current``: a product of gap ranges.

    ``pad`` is the line's entry of :func:`_paddings`.  Each gap of the padded
    line holds exactly one bead of the next line, on the opposite parity,
    strictly between the gap's ends.  Each gap's range decreases, so the
    tuples come in decreasing lexicographic order.
    """
    padded = pad[0] + current + pad[1]
    return itertools.product(*(range(hi - 1, lo, -2) for hi, lo in zip(padded, padded[1:])))


def enumerate_configurations(hexa: DiscreteHexagon) -> list[tuple[tuple[int, ...], ...]]:
    """Every configuration of the lattice model, each exactly once.

    A configuration is a tuple of lines ``t = 0..p+q``, each the tuple of its
    real (non-virtual) bead positions, decreasing.  The list is built level
    by level, each partial configuration followed by its next lines in
    ``_next_lines`` order.  Raises :class:`BudgetExceededError` past the
    enumeration budget, before any work.
    """
    size = hexa.n * hexa.p * hexa.q
    if size > _BUDGET:
        raise BudgetExceededError(f"n*p*q = {size} exceeds the enumeration budget {_BUDGET}")
    configs = [((),)]
    for pad in _paddings(hexa):
        configs = [cfg + (c,) for cfg in configs for c in _next_lines(pad, cfg[-1])]
    return configs


def left_count_closed_form(t: int, xs: Sequence[int]) -> Fraction:
    """``c_t * Vandermonde(xs)`` with ``c_t = 1/(2^{t(t-1)/2} prod_{k<t} k!)``."""
    t = _index(t, "line t", 1)
    xs = tuple(_index(x, "position", None) for x in xs)
    if len(xs) != t:
        raise ValueError(f"need {t} positions, got {len(xs)}")
    vand = 1
    for i in range(t):
        for j in range(i + 1, t):
            vand *= xs[i] - xs[j]
    denom = 2 ** (t * (t - 1) // 2)
    for k in range(1, t):
        denom *= math.factorial(k)
    return Fraction(vand, denom)


def hahn_marginal_unnormalized(hexa: DiscreteHexagon, t: int, xs: Sequence[int]) -> int:
    """Squared Vandermonde times the product one-bead lattice weight, exactly."""
    xs = _validate_line(hexa, t, xs)
    a, b = boundary_positions(hexa, t)
    vand2 = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            vand2 *= (xs[i] - xs[j]) ** 2
    weight = 1
    for x in xs:
        for k in range(1, abs(hexa.q - t) + 1):
            weight *= a + 2 * k - x
        for k in range(1, abs(hexa.p - t) + 1):
            weight *= x - b + 2 * k
    return vand2 * weight

