"""Grid-discretized reconstruction of the correlation kernel.

An independent ground truth for the closed-form kernel: put ``m`` midpoint
grid nodes (weight ``1/m``) on every line, wire consecutive lines with the
strict one-step transfer matrix ``W(y, x) = [y < x]``, attach ``p`` virtual
source rows (one feeding each of the first ``p`` lines) and ``p`` virtual sink
columns (one draining each of the last ``p`` lines, line ``q`` included), and
read the determinantal kernel of the resulting conditional ensemble off a
single ``p x p`` solve:

    K = H . M^{-1} . G  -  (path block when s < t),

with ``G = (source rows) . (weighted path sums)``, ``H`` its sink-side mirror
and ``M = G`` contracted against the sinks.  No dense ``L`` matrix is formed,
and no whole kernel matrix either: :func:`oracle_deviation` evaluates only
the entries it probes.

Everything here converges O(1/m) to the continuum kernel; it is an oracle,
not a production path, and sizes are capped accordingly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .kernel import kernel_context, kernel_eval
from .model import HexagonSpec, _index, _positions, _records

__all__ = ["grid_points", "oracle_deviation"]

_MAX_GRID_DIM = 6000  # (p+q-1)*m cap; the path blocks hold (p+q-1)*m^2 doubles


def grid_points(m: int) -> np.ndarray:
    """Midpoint grid on (0,1): ``(i + 1/2)/m`` — never touches the endpoints."""
    m = _index(m, "grid size m", 2)
    return (np.arange(m) + 0.5) / m


def _check_size(spec: HexagonSpec, m: int) -> int:
    m = _index(m, "grid size m", 2)
    if spec.n_lines * m > _MAX_GRID_DIM:
        raise ValueError(
            f"grid dimension {spec.n_lines * m} exceeds the oracle cap {_MAX_GRID_DIM}"
        )
    return m


def _hat_blocks(spec: HexagonSpec, m: int):
    """Weighted path blocks and contracted source/sink tables.

    Returns ``(paths, G, H, M)`` where ``paths[j - i]`` is the weighted
    ``i -> j`` transfer product (one 1/m per interior hop), which depends on
    the gap ``j - i`` alone, ``G[t]`` is the
    ``p x m`` source-to-line table, ``H[s]`` the ``m x p`` line-to-sink table
    and ``M`` the ``p x p`` source-to-sink contraction.
    """
    p, q = spec.p, spec.q
    nl = spec.n_lines
    step = np.triu(np.ones((m, m)), k=1)
    paths = [None, step]  # no path has gap 0
    for _ in range(2, nl):
        paths.append(paths[-1] @ step / m)

    G = {}
    for t in range(1, nl + 1):
        block = np.zeros((p, m))
        for l in range(1, min(t - 1, p) + 1):
            block[l - 1] = paths[t - l].sum(axis=0) / m
        if t <= p:
            block[t - 1] += 1.0
        G[t] = block

    H = {}
    for s in range(1, nl + 1):
        block = np.zeros((m, p))
        for n in range(1, p + 1):
            sink_line = p + q - n
            if s == sink_line:
                block[:, n - 1] += 1.0
            elif s < sink_line:
                block[:, n - 1] = paths[sink_line - s].sum(axis=1) / m
        H[s] = block

    M = np.empty((p, p))
    for n in range(1, p + 1):
        M[:, n - 1] = G[p + q - n].sum(axis=1) / m
    return paths, G, H, M


def oracle_deviation(spec: HexagonSpec, m: int, probes: Sequence[tuple[int, float, int, float]]) -> float:
    """Max over probes of ``|m * K_discrete - K_exact|`` at snapped positions.

    Probe positions are moved to the nearest grid node before either side is
    evaluated, so the comparison carries no interpolation error — only the
    genuine O(1/m) discretization gap.  Only the probed entries of the grid
    kernel are formed: one solve per distinct column line and one gathered
    product per line pair.  Each probe is ``(s, y, t, x)``, its lines integers
    in ``1..p+q-1`` and its positions strictly inside (0, 1); an empty probe
    list raises.  Each refusal names the value it refused, before any work.
    """
    m = _check_size(spec, m)
    if len(probes) == 0:
        raise ValueError("oracle_deviation needs at least one probe")
    s, y, t, x = zip(*_records(probes, "probe", ("s", "y", "t", "x")))
    s = np.array([_index(v, "probe line s", 1, spec.n_lines) for v in s])
    t = np.array([_index(v, "probe line t", 1, spec.n_lines) for v in t])
    y, x = _positions(y, "probe row positions"), _positions(x, "probe column positions")
    paths, G, H, M = _hat_blocks(spec, m)
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            f"source-sink contraction is numerically singular (condition ~{cond:.3g})"
        )
    i = np.clip(np.round(y * m - 0.5), 0, m - 1).astype(int)
    j = np.clip(np.round(x * m - 0.5), 0, m - 1).astype(int)
    solved = {b: np.linalg.solve(M, G[b]) for b in dict.fromkeys(t.tolist())}
    disc = np.empty(len(probes))
    for a, b in dict.fromkeys(zip(s.tolist(), t.tolist())):
        at = np.flatnonzero((s == a) & (t == b))
        # the gathered product keeps the whole block's summation order
        block = np.diagonal(H[a][i[at]] @ solved[b][:, j[at]])
        if a < b:
            block = block - paths[b - a][i[at], j[at]]
        disc[at] = m * (block / m)  # as the whole matrix held it, with its 1/m weight
    g = grid_points(m)
    exact = kernel_eval(kernel_context(spec), s, g[i], t, g[j])
    return float(np.max(np.abs(disc - exact)))
