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
:func:`interlacing_breaks` checks their shape and applies the rule.  Beside
that rule, the module holds only the side parameters, the per-line bead
counts and the argument checks every module uses: :func:`_index`,
:func:`_positions` and :func:`_records`.
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
    "interlacing_breaks",
]


class InterlacingShapeError(ValueError):
    """A configuration has the wrong number of lines or beads per line.

    Deliberately distinct from :func:`interlacing_breaks` returning a nonzero
    line: a shape mismatch means the input is not a candidate point of the
    state space at all, while a nonzero line means a well-shaped point falls
    outside the interlacing polytope.
    """


def _index(v, name: str, lo: int | None, hi: int | None = None) -> int:
    """``v`` as a Python int in ``lo..hi``: the package's one integer check.

    ``operator.index`` decides what an integer is, so floats (integral ones
    too) and strings are refused, and so are the bools it would take as 1
    and 0.  A non-integer raises ``TypeError``, an integer outside the range
    ``ValueError``, both with one message naming ``name``, the value and the
    range.  ``lo = None`` (with ``hi = None``) takes any integer.
    """
    try:
        i = operator.index(None if isinstance(v, (bool, np.bool_)) else v)
        if (lo is None or lo <= i) and (hi is None or i <= hi):
            return i
        error = ValueError
    except TypeError:
        error = TypeError
    rule = "an integer" if lo is None else f"an integer >= {lo}" if hi is None else f"an integer in {lo}..{hi}"
    raise error(f"{name} must be {rule}, got {v!r}")


def _positions(v, name: str) -> np.ndarray:
    """``v`` as a float array inside (0, 1), the package's one position check; otherwise
    ``ValueError`` names ``name`` and the first bad value in C order, NaN included."""
    arr = np.asarray(v, dtype=float)
    if arr.size and not (0.0 < arr.min() and arr.max() < 1.0):  # a NaN fails both
        bad = arr[~((0.0 < arr) & (arr < 1.0))][0]
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {float(bad)!r}")
    return arr


def _records(items, name: str, fields: tuple[str, ...]) -> list:
    """``items`` as a list of tuples with one value per field in ``fields``; otherwise
    ``ValueError``: ``point must be (line, position), got (1, 0.5, 9)``."""
    items = list(items)
    for item in items:
        if not hasattr(item, "__len__") or len(item) != len(fields):
            raise ValueError(f"{name} must be ({', '.join(fields)}), got {item!r}")
    return items


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
        for side in ("p", "q"):
            object.__setattr__(self, side, _index(getattr(self, side), side, 1))
        if self.p > self.q:
            raise ValueError(f"need 1 <= p <= q, got p={self.p}, q={self.q}")

    @property
    def n_lines(self) -> int:
        return self.p + self.q - 1

    def lines(self) -> range:
        """1-indexed line numbers."""
        return range(1, self.p + self.q)


def particles_per_line(spec: HexagonSpec, t: int) -> int:
    """Number of beads on line ``t``: ramps up to ``p``, plateaus, ramps down."""
    t = _index(t, "line t", 1, spec.n_lines)
    return min(t, spec.p, spec.p + spec.q - t)


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
