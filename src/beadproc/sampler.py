"""Exact sampling of bead configurations, line by line.

The construction walks the fan once: line 1 is a Beta(p, q) draw; every later
line is obtained from the previous one by drawing Dirichlet weights on the
current pole set (previous line's beads, plus multiplicity-weighted anchors at
0 and/or 1 while those are active) and taking the zeros of the weighted
resolvent sum ``sum_i w_i / (x - a_i)``.  That function decreases strictly on
every pole gap, so each gap holds exactly one zero, and the zeros are the
eigenvalues of ``diag(a)`` compressed onto the complement of ``sqrt(w)``: each
line is the next matrix of a random corank-1 sequence.  The solver takes
those eigenvalues (one batched ``eigvalsh`` per line) as starting points and
polishes them by Newton's method inside each gap's bracket, bisecting
whenever a step would leave it; the bracket only ever shrinks, so every zero
stays in its gap.  Interlacing therefore holds by construction and is never
enforced after the fact, though every sample is still checked for it.

Batched internally: all configurations of a chunk march through the lines
together as (batch, beads) arrays, and each fixed-size chunk owns a spawned
child stream, which makes output byte-identical for a given seed no matter
how many worker threads are used.

Samples leave as those arrays: :func:`sample_positions` returns one
``(count, r(t))`` array per line, and configuration ``b`` is row ``b`` of
every array, ``[line[b] for line in lines]``; the arrays are the package's
one configuration type (see :mod:`beadproc.model`).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import eigvalsh

from .model import HexagonSpec, interlacing_breaks

__all__ = [
    "RandomStream",
    "SecularProblem",
    "dirichlet_draw",
    "secular_zeros",
    "sample_positions",
]

_CHUNK = 1024  # configurations per substream; part of the determinism contract
_NEWTON_ITERS = 60  # cap on polishing steps; a step that leaves its bracket bisects it


class RandomStream:
    """Seedable random source with spawnable independent substreams."""

    def __init__(self, seed: int | None = None, _seq: np.random.SeedSequence | None = None):
        self.seq = _seq if _seq is not None else np.random.SeedSequence(seed)
        self.generator = np.random.default_rng(self.seq)

    @property
    def entropy(self):
        """The root entropy — echo this to make an OS-seeded run reproducible."""
        return self.seq.entropy

    def spawn(self, n: int) -> list["RandomStream"]:
        return [RandomStream(_seq=child) for child in self.seq.spawn(n)]


def _dirichlet_batch(rng: np.random.Generator, multiplicities: Sequence[int], batch: int) -> np.ndarray:
    """(batch, n) Dirichlet draws with integer shapes, via sums of exponentials."""
    mult = [int(s) for s in multiplicities]
    if any(s < 1 for s in mult):
        raise ValueError(f"multiplicities must be positive integers, got {multiplicities}")
    total = sum(mult)
    e = rng.standard_exponential((batch, total))
    offsets = np.cumsum([0] + mult[:-1])
    g = np.add.reduceat(e, offsets, axis=1)
    return g / g.sum(axis=1, keepdims=True)


def dirichlet_draw(stream: RandomStream, multiplicities: Sequence[int]) -> np.ndarray:
    """One Dirichlet vector with the given positive-integer multiplicities."""
    return _dirichlet_batch(stream.generator, multiplicities, 1)[0]


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


def _eigen_start(poles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``diag(a)`` compressed onto ``sqrt(w)``-perp; (B, n) -> (B, n-1).

    The Householder reflector ``H = I - beta v v^T`` with ``v = u + |u| e1``
    maps ``u = sqrt(w)`` to ``-|u| e1``, so the trailing block of
    ``H diag(a) H`` acts on ``u``-perp.  That block is
    ``diag(a') + u' g^T + g u'^T`` with ``g = u' (kappa/2 - beta a')``,
    ``beta = 2 / v.v`` and ``kappa = beta^2 v^T diag(a) v``; its eigenvalues,
    ascending, are the zeros of the resolvent sum, one per pole gap.
    """
    u = np.sqrt(weights)
    norm = np.sqrt(weights.sum(axis=1))
    v0 = u[:, 0] + norm
    beta = 1.0 / (norm * v0)
    kappa = beta**2 * (poles[:, 0] * v0**2 + (poles[:, 1:] * weights[:, 1:]).sum(axis=1))
    a, ut = poles[:, 1:], u[:, 1:]
    g = ut * (0.5 * kappa[:, None] - beta[:, None] * a)
    block = ut[:, :, None] * g[:, None, :]
    block += np.swapaxes(block, 1, 2)
    diag = np.arange(a.shape[1])
    block[:, diag, diag] += a
    return eigvalsh(block)


def _secular_zeros_batch(poles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Zeros of ``sum_i w_i/(x - a_i)`` per row; shapes (B, n) -> (B, n-1).

    Each zero starts from the eigenvalue guess of :func:`_eigen_start` and is
    polished by Newton steps inside its pole bracket, which shrinks by the
    sign of ``f`` at every step.  A step of more than 4 ulps that does not
    land strictly inside the bracket (or is NaN) becomes a bisection step,
    and an entry freezes once its step is at most 4 ulps or its bracket has
    closed, so every zero depends on its own row alone.  Raises
    ``RuntimeError`` naming the row and the gap if a gap holds no double
    strictly between its poles, or if a zero comes out non-finite or outside
    its bracket.
    """

    def f(x):
        with np.errstate(divide="ignore"):
            return (weights[:, None, :] / (x[:, :, None] - poles[:, None, :])).sum(axis=2)

    # A zero needs a double strictly inside its gap: the midpoint, if any.
    mid_gap = 0.5 * (poles[:, 1:] + poles[:, :-1])
    no_room = ~((poles[:, :-1] < mid_gap) & (mid_gap < poles[:, 1:]))
    if no_room.any():
        b, j = np.argwhere(no_room)[0]
        raise RuntimeError(
            f"secular bracket failed — gap {j + 1} ({float(poles[b, j])!r}, "
            f"{float(poles[b, j + 1])!r}) of row {b} holds no double strictly between its poles"
        )
    gap = poles[:, 1:] - poles[:, :-1]
    # Inward offset: relative to the gap, but never below a few ulps of the
    # pole itself, or the endpoint rounds back onto the pole (division by zero).
    off_lo = np.maximum(1e-14 * gap, 4.0 * np.spacing(np.abs(poles[:, :-1])))
    off_hi = np.maximum(1e-14 * gap, 4.0 * np.spacing(np.abs(poles[:, 1:])))
    lo = poles[:, :-1] + off_lo
    hi = poles[:, 1:] - off_hi
    # A gap only a few ulps wide pins its zero completely; collapse the bracket.
    pinched = lo >= hi
    lo = np.where(pinched, mid_gap, lo)
    hi = np.where(pinched, mid_gap, hi)
    # A zero that sits within the offset of a pole (vanishing weight) is
    # likewise clamped to the endpoint rather than treated as a hard error.
    flo, fhi = f(lo), f(hi)
    hi = np.where(flo <= 0.0, lo, hi)
    lo = np.where(fhi >= 0.0, hi, lo)
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)):
        raise RuntimeError("secular bracket failed — degenerate pole configuration")

    # Entries are flattened to (B * (n-1),); ``act`` lists the unfrozen ones.
    # The (entries, n) arrays are updated in place to keep peak memory down.
    x = np.clip(_eigen_start(poles, weights), lo, hi).ravel()
    left, right = lo.flatten(), hi.flatten()
    act = np.arange(x.size)
    for _ in range(_NEWTON_ITERS):
        if act.size == 0:
            break
        xa, la, ha = x[act], left[act], right[act]
        ra, ja = np.divmod(act, gap.shape[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = poles[ra]
            np.subtract(xa[:, None], inv, out=inv)
            np.reciprocal(inv, out=inv)
            wr = weights[ra]
            wr *= inv
            fa = wr.sum(axis=1)
            # Newton on (x - a) f(x), a the nearer end of the gap: the factor
            # drops that pole's term from the derivative, so a start next to
            # a pole jumps to the zero instead of only doubling its distance
            # from the pole at every step.
            k = np.arange(act.size)
            below, above = inv[k, ja], inv[k, ja + 1]
            inv -= np.where(np.abs(below) >= np.abs(above), below, above)[:, None]
            inv *= wr
            xn = xa + fa / inv.sum(axis=1)
        la = np.where(fa > 0.0, xa, la)
        ha = np.where(fa < 0.0, xa, ha)
        # Every point visited becomes a bracket end or lies outside, so a
        # longer step that does not land strictly inside could revisit one
        # and cycle.
        small = np.abs(xn - xa) <= 4.0 * np.spacing(np.abs(xn))
        inside = np.where(small, (la <= xn) & (xn <= ha), (la < xn) & (xn < ha))
        xn = np.where(inside, xn, 0.5 * (la + ha))
        done = (np.abs(xn - xa) <= 4.0 * np.spacing(np.abs(xn))) | (la >= ha)
        x[act], left[act], right[act] = xn, la, ha
        act = act[~done]

    zeros = x.reshape(lo.shape)
    bad = ~(np.isfinite(zeros) & (lo <= zeros) & (zeros <= hi))
    if bad.any():
        b, j = np.argwhere(bad)[0]
        raise RuntimeError(
            f"secular solve failed — gap {j + 1} ({float(poles[b, j])!r}, {float(poles[b, j + 1])!r}) "
            f"of row {b}: zero {float(zeros[b, j])!r} is non-finite or outside "
            f"[{float(lo[b, j])!r}, {float(hi[b, j])!r}]"
        )
    return zeros


def secular_zeros(problem: SecularProblem) -> np.ndarray:
    """Strictly increasing zeros, one per gap between consecutive poles."""
    return _secular_zeros_batch(
        np.asarray([problem.poles]), np.asarray([problem.weights])
    )[0]


def _sample_lines_batch(rng: np.random.Generator, spec: HexagonSpec, batch: int) -> list[np.ndarray]:
    """Per-line position arrays, shape (batch, r(t)), increasing within a row."""
    p, q = spec.p, spec.q
    zeros_col = np.zeros((batch, 1))
    ones_col = np.ones((batch, 1))
    prev = _dirichlet_batch(rng, (p, q), batch)[:, :1]
    lines = [prev]
    for r in range(2, p + q):
        # Poles: the previous line, plus the anchor at 0 (multiplicity
        # p - r + 1) while r <= p and the anchor at 1 (q - r + 1) while r <= q.
        below = [zeros_col] if r <= p else []
        above = [ones_col] if r <= q else []
        poles = np.hstack(below + [prev] + above)
        mult = (p - r + 1,) * len(below) + (1,) * prev.shape[1] + (q - r + 1,) * len(above)
        w = _dirichlet_batch(rng, mult, batch)
        try:
            prev = _secular_zeros_batch(poles, w)
        except RuntimeError as exc:
            raise RuntimeError(f"line {r}: {exc}") from None
        lines.append(prev)
    return lines


def _run_chunks(stream: RandomStream, spec: HexagonSpec, count: int, threads: int) -> list[list[np.ndarray]]:
    if count < 1:
        raise ValueError("count must be >= 1")
    sizes = [_CHUNK] * (count // _CHUNK)
    if count % _CHUNK:
        sizes.append(count % _CHUNK)
    substreams = stream.spawn(len(sizes))
    jobs = list(zip(substreams, sizes))
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda j: _sample_lines_batch(j[0].generator, spec, j[1]), jobs))
    return [_sample_lines_batch(sub.generator, spec, size) for sub, size in jobs]


def _check_interlacing(spec: HexagonSpec, lines: list[np.ndarray]) -> None:
    """Raise unless :func:`~beadproc.model.interlacing_breaks` passes every row."""
    breaks = interlacing_breaks(spec, lines)
    if breaks.any():
        t = int(breaks[breaks > 0].min())
        raise RuntimeError(f"sampled lines {t} and {t + 1} failed the interlacing check")


def sample_positions(stream: RandomStream, spec: HexagonSpec, count: int, threads: int = 1) -> list[np.ndarray]:
    """Raw sample arrays: one (count, r(t)) array per line, rows decreasing.

    Row ``b`` of every array is configuration ``b``; interlacing is checked
    on the whole arrays at once.
    """
    chunks = _run_chunks(stream, spec, count, threads)
    lines = [np.vstack([chunk[t] for chunk in chunks])[:, ::-1] for t in range(spec.n_lines)]
    _check_interlacing(spec, lines)
    return lines
