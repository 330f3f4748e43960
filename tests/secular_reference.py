"""Reference secular solver: plain bisection inside the pole brackets.

The zeros of ``sum_i w_i / (x - a_i)`` (one per gap between consecutive
poles) found by 60 halvings of each bracket.  The brackets are the ones
``beadproc.sampler`` builds — inward offsets, pinched-gap collapse and
vanishing-weight clamps — so on every gap the two solvers search the same
interval.  Bisection needs nothing but the sign of ``f`` and converges
unconditionally, to ``2^-60`` of the bracket width; the package starts from
eigenvalues and polishes with safeguarded Newton, and must agree with this to
a relative ``1e-14``.  Here every zero costs 62 evaluations of ``f``: both
bracket ends, since this is the reference for the clamps, and 60 halvings.
The package's solver settles the ends of sampled brackets from the weights
alone and, from the rank-one eigenvalue start, takes 1.01 Newton passes per
zero on sampled lines at (2, 3), 1.07 at (4, 12) and 1.17 at (32, 96) and
(64, 192) (seed 5), each one ``f`` with its derivative: about fifty times
fewer.  For tests only.

:func:`unsettled_rows` replays, one scalar at a time, the weight-sum test by
which the package skips evaluating ``f`` at the bracket ends.

:class:`SecularProblem` and :func:`secular_zeros` are a validated one-row
entry to the package's solver, ``beadproc.sampler._secular_zeros_batch``,
for tests that probe it one pole set at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from beadproc.sampler import _secular_zeros_batch

_BISECT_ITERS = 60  # interval shrinks by 2^-60 < 1e-18 of the gap; tol 1e-13 easily met


def _resolvent(poles: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return (weights[:, None, :] / (x[:, :, None] - poles[:, None, :])).sum(axis=2)


def _open_brackets(poles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-gap ``[lo, hi]`` before the vanishing-weight clamps."""
    gap = poles[:, 1:] - poles[:, :-1]
    if not np.all(gap > 0.0):
        raise RuntimeError("secular bracket failed — poles not strictly increasing")
    # Inward offset: relative to the gap, but never below a few ulps of the
    # pole itself, or the endpoint rounds back onto the pole (division by zero).
    off_lo = np.maximum(1e-14 * gap, 4.0 * np.spacing(np.abs(poles[:, :-1])))
    off_hi = np.maximum(1e-14 * gap, 4.0 * np.spacing(np.abs(poles[:, 1:])))
    lo = poles[:, :-1] + off_lo
    hi = poles[:, 1:] - off_hi
    # A gap only a few ulps wide pins its zero completely; collapse the bracket.
    mid_gap = 0.5 * (poles[:, 1:] + poles[:, :-1])
    pinched = lo >= hi
    lo = np.where(pinched, mid_gap, lo)
    hi = np.where(pinched, mid_gap, hi)
    return lo, hi


def secular_brackets(poles: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-gap search intervals ``[lo, hi]``, shapes (B, n) -> 2 x (B, n-1)."""
    lo, hi = _open_brackets(poles)
    # A zero that sits within the offset of a pole (vanishing weight) is
    # likewise clamped to the endpoint rather than treated as a hard error.
    flo, fhi = _resolvent(poles, weights, lo), _resolvent(poles, weights, hi)
    hi = np.where(flo <= 0.0, lo, hi)
    lo = np.where(fhi >= 0.0, hi, lo)
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)):
        raise RuntimeError("secular bracket failed — degenerate pole configuration")
    return lo, hi


def unsettled_rows(poles: np.ndarray, weights: np.ndarray) -> list[int]:
    """Rows with a bracket end whose sign of ``f`` the weights do not settle.

    On gap ``j`` the end ``lo`` is settled by ``w_j/(lo - a_j) > max(2 R_j /
    (a_{j+1} - lo), tiny)`` with ``R_j = sum_{i>j} w_i``, and ``hi`` by
    ``w_{j+1}/(a_{j+1} - hi) > max(2 L_j / (hi - a_j), tiny)`` with ``L_j =
    sum_{i<=j} w_i``, each accumulated from the row's end toward the gap as
    ``np.cumsum`` does; a pinched gap (``lo == hi``) is settled.  Python
    floats round as numpy's doubles do, so this loop decides as the
    package's array code must.
    """
    lo, hi = _open_brackets(poles)
    tiny = np.finfo(float).tiny
    rows = []
    for b, (a, w) in enumerate(zip(poles.tolist(), weights.tolist())):
        left = list(itertools.accumulate(w))
        right = list(itertools.accumulate(reversed(w)))[::-1]
        for j in range(len(a) - 1):
            l, h = float(lo[b, j]), float(hi[b, j])
            if l == h:
                continue
            if not (w[j] / (l - a[j]) > max(2.0 * right[j + 1] / (a[j + 1] - l), tiny)
                    and w[j + 1] / (a[j + 1] - h) > max(2.0 * left[j] / (h - a[j]), tiny)):
                rows.append(b)
                break
    return rows


def secular_zeros_bisect(poles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Zeros of ``sum_i w_i/(x - a_i)`` per row; shapes (B, n) -> (B, n-1)."""
    lo, hi = secular_brackets(poles, weights)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        positive = _resolvent(poles, weights, mid) > 0.0
        lo = np.where(positive, mid, lo)
        hi = np.where(positive, hi, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SecularProblem:
    """Weighted pole set of a resolvent sum; one zero lives in each pole gap."""

    poles: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        poles = tuple(float(a) for a in self.poles)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "weights", weights)
        if len(poles) != len(weights) or len(poles) < 2:
            raise ValueError("need equally many poles and weights, at least two of each")
        for j, (a, b) in enumerate(zip(poles, poles[1:]), start=1):
            if not math.nextafter(a, math.inf) < b:
                raise ValueError(f"gap {j} ({a!r}, {b!r}): poles must increase with a double strictly between")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")


def secular_zeros(problem: SecularProblem) -> np.ndarray:
    """Strictly increasing zeros, one per gap between consecutive poles."""
    return _secular_zeros_batch(
        np.asarray([problem.poles]), np.asarray([problem.weights])
    )[0]
