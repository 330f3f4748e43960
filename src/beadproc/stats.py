"""Monte Carlo estimators and goodness-of-fit statistics.

Bridges samples and exact kernel predictions: per-line density histograms
normalized per configuration (so the kernel diagonal is the direct target),
the one-sample Kolmogorov-Smirnov statistic, product-count pair statistics,
and the regularized incomplete beta function (the first line's exact law)
evaluated by a vectorized continued fraction.  Samples come as the per-line
``(count, r(t))`` arrays of :func:`~beadproc.sampler.sample_positions`, one
row per configuration.
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
    try:
        F = np.asarray(cdf(xs), dtype=float)
    except (TypeError, ValueError):  # callable rejects arrays outright
        F = np.array([float(cdf(x)) for x in xs])
    if F.shape != xs.shape:  # callable silently collapsed the array
        F = np.array([float(cdf(x)) for x in xs])
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


# --- regularized incomplete beta ------------------------------------------------


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta, all of ``x`` at once."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
    h = d.copy()
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / np.where(np.abs(c) < tiny, tiny, c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / np.where(np.abs(c) < tiny, tiny, c)
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < 1e-15):
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def beta_cdf(x, a: float, b: float):
    """Regularized incomplete beta ``I_x(a, b)`` — the Beta(a, b) CDF.

    Continued-fraction evaluation on whichever side of the inflection keeps
    the fraction well-conditioned; accepts scalars or arrays.
    """
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x_arr)
    out[x_arr <= 0.0] = 0.0
    out[x_arr >= 1.0] = 1.0
    inner = (x_arr > 0.0) & (x_arr < 1.0)
    if np.any(inner):
        xi = x_arr[inner]
        log_front = (
            a * np.log(xi)
            + b * np.log1p(-xi)
            - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        )
        front = np.exp(log_front)
        res = np.empty_like(xi)
        direct = xi < (a + 1.0) / (a + b + 2.0)
        if np.any(direct):
            res[direct] = front[direct] * _betacf(a, b, xi[direct]) / a
        if np.any(~direct):
            res[~direct] = 1.0 - front[~direct] * _betacf(b, a, 1.0 - xi[~direct]) / b
        out[inner] = res
    return float(out[0]) if np.ndim(x) == 0 else out
