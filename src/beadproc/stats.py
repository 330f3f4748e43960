"""Monte Carlo estimators and goodness-of-fit statistics.

Bridges samples and exact kernel predictions: per-line density histograms
normalized per configuration (so the kernel diagonal is the direct target),
the one-sample Kolmogorov-Smirnov statistic, product-count pair statistics,
and the Beta CDF for integer shapes (the first line's exact law) as a
binomial tail.  Samples come as the per-line ``(count, r(t))`` arrays of
:func:`~beadproc.sampler.sample_positions`, one row per configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Histogram",
    "empirical_line_density",
    "ks_statistic",
    "pair_correlation_estimate",
    "beta_cdf",
]


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
    normalization: str = "per-configuration density"


def _n_configs(lines: Sequence[np.ndarray]) -> int:
    n = len(lines[0]) if len(lines) else 0
    if n == 0:
        raise ValueError("need at least one configuration")
    return n


def empirical_line_density(lines: Sequence[np.ndarray], t: int, bins: int) -> Histogram:
    n = _n_configs(lines)
    if bins < 1:
        raise ValueError("need at least one bin")
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(lines[t - 1], bins=edges)
    width = 1.0 / bins
    density = counts / (n * width)
    return Histogram(line=t, edges=edges, counts=counts, density=density, n_configs=n)


def ks_statistic(samples, cdf: Callable) -> float:
    """One-sample Kolmogorov-Smirnov sup distance to a reference CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("need at least one sample")
    if np.isnan(xs[-1]):  # sort puts NaN last
        raise ValueError("samples must not contain NaN")
    try:
        F = np.asarray(cdf(xs), dtype=float)
    except (TypeError, ValueError):  # callable rejects arrays outright
        F = np.array([float(cdf(x)) for x in xs])
    if F.shape != xs.shape:  # callable silently collapsed the array
        F = np.array([float(cdf(x)) for x in xs])
    if np.isnan(F).any():
        raise ValueError("the reference CDF returned NaN")
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


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
    a, b = lines[la - 1], lines[lb - 1]
    na = ((a >= loa) & (a < hia)).sum(axis=1)
    nb = na - 1 if same_cell else ((b >= lob) & (b < hib)).sum(axis=1)
    return float((na * nb).sum()) / n


# --- Beta law ------------------------------------------------------------------


def beta_cdf(x, a: int, b: int):
    """Beta(a, b) CDF for positive integer shapes: the binomial tail
    ``P(Binomial(n, x) >= a) = sum_{j=a}^{n} C(n, j) x^j (1-x)^{n-j}``,
    ``n = a + b - 1``.  Accepts scalars or arrays; NaN heights are refused.

    ``a + b <= 1030`` keeps every ``C(n, j)`` inside a double.
    """
    integral = float(a).is_integer() and float(b).is_integer()
    if not (integral and a >= 1 and b >= 1 and a + b <= 1030):
        raise ValueError(f"Beta shapes must be positive integers with a + b <= 1030, got ({a}, {b})")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(x_arr).any():
        raise ValueError("beta_cdf got a NaN height")
    xc = np.clip(x_arr, 0.0, 1.0)
    n = int(a) + int(b) - 1
    out = np.zeros_like(xc)
    for j in range(int(a), n + 1):
        out += float(math.comb(n, j)) * xc**j * (1.0 - xc) ** (n - j)
    return float(out[0]) if np.ndim(x) == 0 else out
