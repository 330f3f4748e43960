"""Interlaced bead configurations on a fan of parallel unit segments.

The state space: ``p + q - 1`` parallel copies of the open interval ``(0, 1)``,
indexed ``t = 1, ..., p+q-1`` with ``1 <= p <= q``.  Line ``t`` carries
``r(t) = min(t, p, p+q-t)`` beads, stored in strictly decreasing order.
Consecutive lines interlace; on the upper lines the chain is anchored below by
a virtual bead at 0, and on the top lines by virtual beads at both 0 and 1.
The reference measure is uniform (Lebesgue) on this polytope, which is what
makes every density in this package a ratio of polytope volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "HexagonSpec",
    "BeadConfiguration",
    "InterlacingShapeError",
    "particles_per_line",
    "line_weight",
    "interlace_indicator",
    "interlacing_breaks",
    "line_marginal_unnormalized",
]


class InterlacingShapeError(ValueError):
    """A configuration has the wrong number of lines or beads per line.

    Deliberately distinct from :func:`interlace_indicator` returning ``False``:
    a shape mismatch means the input is not a candidate point of the state
    space at all, while ``False`` means a well-shaped point falls outside the
    interlacing polytope.
    """


@dataclass(frozen=True)
class HexagonSpec:
    """Side parameters of the continuum model, with ``1 <= p <= q``.

    The name records the geometry the model degenerates from: an ``n, p, q``
    hexagon whose short side has been scaled away.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, (int, np.integer)) or not isinstance(self.q, (int, np.integer)):
            raise TypeError("p and q must be integers")
        if not 1 <= self.p <= self.q:
            raise ValueError(f"need 1 <= p <= q, got p={self.p}, q={self.q}")

    @property
    def n_lines(self) -> int:
        return self.p + self.q - 1

    def lines(self) -> range:
        """1-indexed line numbers."""
        return range(1, self.p + self.q)


def _check_line(spec: HexagonSpec, t: int) -> None:
    if not isinstance(t, (int, np.integer)):
        raise TypeError(f"line index must be an integer, got {t!r}")
    if not 1 <= t <= spec.n_lines:
        raise ValueError(f"line {t} outside 1..{spec.n_lines}")


def particles_per_line(spec: HexagonSpec, t: int) -> int:
    """Number of beads on line ``t``: ramps up to ``p``, plateaus, ramps down."""
    _check_line(spec, t)
    return min(t, spec.p, spec.p + spec.q - t)


def line_weight(spec, t, x):
    """One-bead weight ``(1-x)^|q-t| * x^|p-t|`` entering the line marginal.

    Vanishes at ``x=0`` iff ``t != p`` and at ``x=1`` iff ``t != q``.  Accepts
    scalars or arrays.
    """
    _check_line(spec, t)
    x = np.asarray(x, dtype=float)
    w = (1.0 - x) ** abs(spec.q - t) * x ** abs(spec.p - t)
    return float(w) if w.ndim == 0 else w


@dataclass(frozen=True)
class BeadConfiguration:
    """One point of the state space: a tuple of per-line bead tuples.

    ``lines[t-1]`` holds line ``t``, strictly decreasing, every position in the
    open interval (0, 1).  Positions exactly equal to 0 or 1 are rejected —
    they belong to the virtual anchors, not to beads.  Shape versus a
    particular :class:`HexagonSpec` is *not* checked here; that is the job of
    :func:`interlace_indicator`.
    """

    lines: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.lines:
            raise ValueError("a configuration needs at least one line")
        norm = tuple(tuple(float(x) for x in line) for line in self.lines)
        object.__setattr__(self, "lines", norm)
        for t, line in enumerate(norm, start=1):
            for x in line:
                if not math.isfinite(x) or not 0.0 < x < 1.0:
                    raise ValueError(f"line {t}: position {x!r} not strictly inside (0, 1)")
            for hi, lo in zip(line, line[1:]):
                if not lo < hi:
                    raise ValueError(f"line {t}: positions must strictly decrease, got {line}")

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def positions(self, t: int) -> tuple[float, ...]:
        """Beads on line ``t`` (1-indexed), strictly decreasing."""
        if not 1 <= t <= len(self.lines):
            raise ValueError(f"line {t} outside 1..{len(self.lines)}")
        return self.lines[t - 1]


def _as_lines(config) -> tuple[tuple[float, ...], ...]:
    if isinstance(config, BeadConfiguration):
        return config.lines
    return BeadConfiguration(tuple(tuple(line) for line in config)).lines


def interlacing_breaks(spec: HexagonSpec, lines: Sequence[np.ndarray]) -> np.ndarray:
    """Per row, the first line ``t`` whose pair ``(t, t+1)`` fails to interlace.

    A row that interlaces gets 0.  ``lines`` are per-line ``(count, r(t))``
    arrays with decreasing rows, as :func:`~beadproc.sampler.sample_positions`
    returns them.  Line ``t`` must sit strictly between the beads of line
    ``t + 1``, augmented by the virtual anchor at 0 from line ``p`` on and at
    1 from line ``q`` on.
    """
    p, q = spec.p, spec.q
    count = lines[0].shape[0]
    zeros, ones, empty = np.zeros((count, 1)), np.ones((count, 1)), np.empty((count, 0))
    breaks = np.zeros(count, dtype=int)
    for t in range(p + q - 1, 0, -1):  # downwards, so the first failing line is written last
        cur = lines[t - 1]
        nxt = lines[t] if t < p + q - 1 else empty
        if t < p:
            aug = nxt
        elif t < q:
            aug = np.hstack([nxt, zeros])
        else:
            aug = np.hstack([ones, nxt, zeros])
        ok = np.all(aug[:, 1:] < cur, axis=1) & np.all(cur < aug[:, :-1], axis=1)
        breaks[~ok] = t
    return breaks


def interlace_indicator(spec: HexagonSpec, config) -> bool:
    """Whether a well-shaped configuration lies in the interlacing polytope.

    Raises :class:`InterlacingShapeError` when the line count or any per-line
    bead count disagrees with ``spec`` — that is a structural error, not a
    geometric ``False``.  The rule itself is :func:`interlacing_breaks`.
    """
    lines = _as_lines(config)
    if len(lines) != spec.n_lines:
        raise InterlacingShapeError(
            f"expected {spec.n_lines} lines for (p, q)=({spec.p}, {spec.q}), got {len(lines)}"
        )
    for t in spec.lines():
        if len(lines[t - 1]) != particles_per_line(spec, t):
            raise InterlacingShapeError(
                f"line {t}: expected {particles_per_line(spec, t)} beads, got {len(lines[t - 1])}"
            )
    return not interlacing_breaks(spec, [np.array([line]) for line in lines])[0]


def line_marginal_unnormalized(spec: HexagonSpec, t: int, xs: Sequence[float]) -> float:
    """Unnormalized joint density of the beads on one line.

    Equals the squared Vandermonde of ``xs`` times the product of
    :func:`line_weight` values; ``xs`` must be strictly decreasing with the
    right bead count and stay inside (0, 1).
    """
    _check_line(spec, t)
    xs = tuple(float(x) for x in xs)
    if len(xs) != particles_per_line(spec, t):
        raise InterlacingShapeError(
            f"line {t}: expected {particles_per_line(spec, t)} beads, got {len(xs)}"
        )
    for x in xs:
        if not 0.0 < x < 1.0:
            raise ValueError(f"position {x!r} not strictly inside (0, 1)")
    for hi, lo in zip(xs, xs[1:]):
        if not lo < hi:
            raise ValueError(f"positions must strictly decrease, got {xs}")
    vand = 1.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            vand *= (xs[i] - xs[j]) ** 2
    weight = 1.0
    for x in xs:
        weight *= line_weight(spec, t, x)
    return vand * weight
