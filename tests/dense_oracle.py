"""Whole grid-kernel matrices on the oracle's grid, to cross-check its assembly.

``beadproc.oracle`` reads only probed grid-kernel entries off a ``p x p``
solve and never forms the L matrix.  :func:`discrete_kernel` assembles the
whole kernel matrix from the same blocks, and :func:`dense_conditional_kernel`
builds the L matrix outright, with unweighted hops: ``p`` virtual sources,
``p`` virtual sinks and ``m`` midpoint nodes per line wired by the strict
one-step transfer ``[y < x]``.  Dense inversions; for tests only, at tiny
sizes.  :func:`moment_matrix` exposes the oracle's ``p x p`` source-to-sink
contraction, whose limit tests know in closed form.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from beadproc import oracle
from beadproc.model import HexagonSpec, particles_per_line


def discrete_kernel(spec: HexagonSpec, m: int) -> np.ndarray:
    """Full kernel matrix over (line, grid node) pairs, point weight included.

    Block ``(s, t)`` sits at rows ``(s-1)m:(s)m``, columns ``(t-1)m:(t)m``;
    diagonal entries approximate (continuum density)/m.
    """
    oracle._check_size(spec, m)
    paths, G, H, M = oracle._hat_blocks(spec, m)
    nl = spec.n_lines
    solved = {t: np.linalg.solve(M, G[t]) for t in range(1, nl + 1)}
    out = np.zeros((nl * m, nl * m))
    for s in range(1, nl + 1):
        for t in range(1, nl + 1):
            block = H[s] @ solved[t]
            if s < t:
                block = block - paths[t - s]
            out[(s - 1) * m : s * m, (t - 1) * m : t * m] = block / m
    return out


def _dense_l_matrix(spec: HexagonSpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``L`` and ``1 + L``, the identity added on the grid part only."""
    p, q = spec.p, spec.q
    nl = spec.n_lines
    step = np.triu(np.ones((m, m)), k=1)

    def gslice(t: int) -> slice:
        return slice(p + (t - 1) * m, p + t * m)

    L = np.zeros((p + nl * m, p + nl * m))
    for l in range(1, p + 1):  # virtual source l feeds line l
        L[l - 1, gslice(l)] = 1.0
    for n in range(1, p + 1):  # virtual sink n drains line p+q-n
        L[gslice(p + q - n), n - 1] = 1.0
    for t in range(1, nl):
        L[gslice(t), gslice(t + 1)] = step
    return L, L + np.diag(np.repeat([0.0, 1.0], [p, nl * m]))


def dense_conditional_kernel(spec: HexagonSpec, m: int) -> np.ndarray:
    """Kernel via the literal block matrix: 1 - inv(1 + L) on the grid part.

    Unweighted hops and the conditional-inverse route leave this in a
    different gauge: block ``(s, t)`` equals ``(-m)^{t-s}`` times the
    corresponding block of :func:`discrete_kernel`.
    Correlation minors agree exactly (the gauge cancels over any set).
    """
    p = spec.p
    _, A = _dense_l_matrix(spec, m)
    return np.eye(A.shape[0] - p) - np.linalg.inv(A)[p:, p:]


def subset_weight(spec: HexagonSpec, m: int, config_indices: Sequence[Sequence[int]]) -> float:
    """Measure of one grid configuration under the dense ensemble:
    ``det L_{virtuals + X} / det(1 + L)`` with X given as per-line node indices."""
    p = spec.p
    for t in range(1, spec.n_lines + 1):
        if len(config_indices[t - 1]) != particles_per_line(spec, t):
            raise ValueError(f"line {t}: wrong bead count")
    L, A = _dense_l_matrix(spec, m)
    idx = list(range(p)) + [p + (t - 1) * m + i for t in range(1, spec.n_lines + 1) for i in config_indices[t - 1]]
    return float(np.linalg.det(L[np.ix_(idx, idx)]) / np.linalg.det(A))


def moment_matrix(spec: HexagonSpec, m: int) -> np.ndarray:
    """The ``p x p`` source-to-sink contraction; entry ``(j, k)`` tends to
    ``1/(p+q+1-j-k)!`` (1-indexed) as the grid refines."""
    oracle._check_size(spec, m)
    return oracle._hat_blocks(spec, m)[3]
