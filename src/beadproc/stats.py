"""Goodness-of-fit statistics against the exact laws.

The one-sample Kolmogorov-Smirnov statistic against a vectorized CDF, and the
Beta CDF for integer shapes (the first line's exact law) as a binomial tail.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .model import _index

__all__ = ["ks_statistic", "beta_cdf"]


def ks_statistic(samples, cdf: Callable) -> float:
    """One-sample Kolmogorov-Smirnov sup distance to a reference CDF.

    ``cdf`` must be vectorized: it is called once on the sorted samples and
    must return one value per sample.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("need at least one sample")
    if np.isnan(xs[-1]):  # sort puts NaN last
        raise ValueError("samples must not contain NaN")
    F = np.asarray(cdf(xs), dtype=float)
    if F.shape != xs.shape:
        raise ValueError(f"the reference CDF must return shape {xs.shape} for {n} samples, got {F.shape}")
    if not np.isfinite(F).all():
        raise ValueError("the reference CDF returned NaN or an infinite value")
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


# --- Beta law ------------------------------------------------------------------


def beta_cdf(x, a: int, b: int):
    """Beta(a, b) CDF for integer shapes ``a, b >= 1``: the binomial tail
    ``P(Binomial(n, x) >= a) = sum_{j=a}^{n} C(n, j) x^j (1-x)^{n-j}``,
    ``n = a + b - 1``, capped at 1 against rounding.  Accepts scalars or
    arrays; NaN heights are refused.

    The shapes go through :func:`~beadproc.model._index`, so bools and floats
    are refused; ``a + b <= 1030`` keeps every ``C(n, j)`` inside a double.
    """
    a, b = _index(a, "Beta shape a", 1), _index(b, "Beta shape b", 1)
    if a + b > 1030:
        raise ValueError(f"Beta shapes must have a + b <= 1030, got ({a}, {b})")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(x_arr).any():
        raise ValueError("beta_cdf got a NaN height")
    xc = np.clip(x_arr, 0.0, 1.0)
    n = a + b - 1
    out = np.zeros_like(xc)
    for j in range(a, n + 1):
        out += float(math.comb(n, j)) * xc**j * (1.0 - xc) ** (n - j)
    np.minimum(out, 1.0, out=out)  # the rounded terms can sum past 1
    return float(out[0]) if np.ndim(x) == 0 else out
