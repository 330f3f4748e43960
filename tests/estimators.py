"""Monte Carlo estimators of the kernel's one- and two-point correlations.

Per-line density histograms normalized per configuration (so the kernel
diagonal is the direct target) and product-count pair statistics over cells.
Samples come as the per-line ``(count, r(t))`` arrays of
``beadproc.sampler.sample_positions``, one row per configuration.  For tests
only: they bridge seeded samples and exact kernel values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Histogram:
    """Per-configuration density histogram on one line.

    ``density[i]`` estimates beads per unit length per configuration on bin
    ``i``; summing ``density * width`` gives the line's bead count exactly, by
    construction.
    """

    line: int
    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    n_configs: int


def _n_configs(lines: Sequence[np.ndarray]) -> int:
    n = len(lines[0]) if len(lines) else 0
    if n == 0:
        raise ValueError("need at least one configuration")
    return n


def _line(lines: Sequence[np.ndarray], t: int) -> np.ndarray:
    """Line ``t``'s array, 1-indexed; any other ``t`` raises ``ValueError``."""
    if not 1 <= t <= len(lines):
        raise ValueError(f"line {t} outside 1..{len(lines)}")
    return lines[t - 1]


def empirical_line_density(lines: Sequence[np.ndarray], t: int, bins: int) -> Histogram:
    n = _n_configs(lines)
    if bins < 1:
        raise ValueError("need at least one bin")
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(_line(lines, t), bins=edges)
    width = 1.0 / bins
    density = counts / (n * width)
    return Histogram(line=t, edges=edges, counts=counts, density=density, n_configs=n)


def pair_correlation_estimate(
    lines: Sequence[np.ndarray],
    cellA: tuple[int, tuple[float, float]],
    cellB: tuple[int, tuple[float, float]],
) -> float:
    """Mean of (count in A)(count in B), diagonal-corrected when A = B.

    Converges to the 2-point correlation integrated over the cell product.
    Cells are half-open ``[lo, hi)``; same-line cells must be disjoint or
    identical (partial overlap would double-count pairs ambiguously).
    """
    n = _n_configs(lines)
    (la, (loa, hia)), (lb, (lob, hib)) = cellA, cellB
    if not (0.0 <= loa < hia <= 1.0 and 0.0 <= lob < hib <= 1.0):
        raise ValueError("cell intervals must be nondegenerate within [0, 1]")
    same_cell = la == lb and (loa, hia) == (lob, hib)
    if la == lb and not same_cell and not (hia <= lob or hib <= loa):
        raise ValueError("same-line cells must be disjoint or identical")
    a, b = _line(lines, la), _line(lines, lb)
    na = ((a >= loa) & (a < hia)).sum(axis=1)
    nb = na - 1 if same_cell else ((b >= lob) & (b < hib)).sum(axis=1)
    return float((na * nb).sum()) / n
