"""Interlaced bead configurations on a fan of parallel unit segments.

The state space: ``p + q - 1`` parallel copies of the open interval ``(0, 1)``,
indexed ``t = 1, ..., p+q-1`` with ``1 <= p <= q``.  Line ``t`` carries
``r(t) = min(t, p, p+q-t)`` beads, stored in strictly decreasing order.
Consecutive lines interlace; on the upper lines the chain is anchored below by
a virtual bead at 0, and on the top lines by virtual beads at both 0 and 1.
The reference measure is uniform (Lebesgue) on this polytope, which is what
makes every density in this package a ratio of polytope volumes.

Configurations are arrays: one ``(count, r(t))`` array per line, row ``b`` of
every array being configuration ``b``, as
:func:`~beadproc.sampler.sample_positions` returns them.
:func:`interlacing_breaks` checks their shape and applies the rule.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "HexagonSpec",
    "InterlacingShapeError",
    "particles_per_line",
    "line_weight",
    "interlacing_breaks",
    "line_marginal_unnormalized",
]


class InterlacingShapeError(ValueError):
    """A configuration has the wrong number of lines or beads per line.

    Deliberately distinct from :func:`interlacing_breaks` returning a nonzero
    line: a shape mismatch means the input is not a candidate point of the
    state space at all, while a nonzero line means a well-shaped point falls
    outside the interlacing polytope.
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
        # stored as Python ints: the exact kernel's big-integer arithmetic
        # would overflow in a numpy integer type
        try:
            object.__setattr__(self, "p", operator.index(self.p))
            object.__setattr__(self, "q", operator.index(self.q))
        except TypeError:
            raise TypeError(f"p and q must be integers, got p={self.p!r}, q={self.q!r}") from None
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


def interlacing_breaks(spec: HexagonSpec, lines: Sequence[np.ndarray]) -> np.ndarray:
    """Per row, the first line ``t`` whose pair ``(t, t+1)`` fails to interlace.

    A row that interlaces gets 0.  ``lines`` are per-line ``(count, r(t))``
    arrays with decreasing rows, as :func:`~beadproc.sampler.sample_positions`
    returns them; any other line count or array shape raises
    :class:`InterlacingShapeError`.  Line ``t`` must sit strictly between the
    beads of line ``t + 1``, augmented by the virtual anchor at 0 from line
    ``p`` on and at 1 from line ``q`` on.  A row the rule accepts therefore
    has every position finite, inside (0, 1) and strictly decreasing.
    """
    p, q, n = spec.p, spec.q, spec.n_lines
    if len(lines) != n:
        raise InterlacingShapeError(
            f"line {min(len(lines), n) + 1}: expected {n} lines for (p, q) = ({p}, {q}), got {len(lines)}"
        )
    lines = [np.asarray(line, dtype=float) for line in lines]
    count = (lines[0].shape or (1,))[0]  # rows, as line 1 has them
    for t, line in enumerate(lines, start=1):
        want = (count, particles_per_line(spec, t))
        if line.shape != want:
            raise InterlacingShapeError(f"line {t}: expected shape {want}, got {line.shape}")
    zeros, ones, empty = np.zeros((count, 1)), np.ones((count, 1)), np.empty((count, 0))
    breaks = np.zeros(count, dtype=int)
    for t in range(n, 0, -1):  # downwards, so the first failing line is written last
        cur = lines[t - 1]
        nxt = lines[t] if t < n else empty
        if t < p:
            aug = nxt
        elif t < q:
            aug = np.hstack([nxt, zeros])
        else:
            aug = np.hstack([ones, nxt, zeros])
        ok = np.all(aug[:, 1:] < cur, axis=1) & np.all(cur < aug[:, :-1], axis=1)
        breaks[~ok] = t
    return breaks


def line_marginal_unnormalized(spec: HexagonSpec, t: int, xs):
    """Unnormalized joint density of the beads on line ``t``.

    Equals the squared Vandermonde of a row times the product of
    :func:`line_weight` values.  ``xs`` is one row ``(r(t),)``, giving a
    float, or rows ``(count, r(t))``, giving one value per row; every row
    must be strictly decreasing and stay inside (0, 1).
    """
    r = particles_per_line(spec, t)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim not in (1, 2) or xs.shape[-1] != r:
        raise InterlacingShapeError(f"line {t}: expected shape ({r},) or (count, {r}), got {xs.shape}")
    if not np.all((0.0 < xs) & (xs < 1.0)):
        raise ValueError(f"line {t}: positions must lie strictly inside (0, 1), got {xs}")
    if not np.all(xs[..., 1:] < xs[..., :-1]):
        raise ValueError(f"line {t}: positions must strictly decrease, got {xs}")
    i, j = np.triu_indices(r, 1)
    vand = np.prod((xs[..., i] - xs[..., j]) ** 2, axis=-1)
    value = vand * np.prod(line_weight(spec, t, xs), axis=-1)
    return float(value) if xs.ndim == 1 else value
