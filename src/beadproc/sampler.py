"""Exact sampling of bead configurations, line by line.

The construction walks the fan once: line 1 is a Beta(p, q) draw; every later
line is obtained from the previous one by drawing Dirichlet weights on the
current pole set (previous line's beads, plus multiplicity-weighted anchors at
0 and/or 1 while those are active) and taking the zeros of the weighted
resolvent sum ``sum_i w_i / (x - a_i)``.  That function decreases strictly on
every pole gap, so each gap holds exactly one zero and bisection is
unconditionally convergent — interlacing is automatic, never enforced after
the fact (though both sampling paths still check it).

Batched internally: all configurations of a chunk march through the lines
together as (batch, beads) arrays, and each fixed-size chunk owns a spawned
child stream, which makes output byte-identical for a given seed no matter
how many worker threads are used.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import BeadConfiguration, HexagonSpec, interlace_indicator

__all__ = [
    "RandomStream",
    "SecularProblem",
    "dirichlet_draw",
    "secular_zeros",
    "sample_configuration",
    "sample_positions",
    "sample_many",
]

_CHUNK = 1024  # configurations per substream; part of the determinism contract
_BISECT_ITERS = 60  # interval shrinks by 2^-60 < 1e-18 of the gap; tol 1e-13 easily met


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
        if any(b <= a for a, b in zip(poles, poles[1:])):
            raise ValueError(f"poles must strictly increase, got {poles}")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")


def _secular_zeros_batch(poles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Zeros of ``sum_i w_i/(x - a_i)`` per row; shapes (B, n) -> (B, n-1)."""

    def f(x):
        with np.errstate(divide="ignore"):
            return (weights[:, None, :] / (x[:, :, None] - poles[:, None, :])).sum(axis=2)

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
    # A zero that sits within the offset of a pole (vanishing weight) is
    # likewise clamped to the endpoint rather than treated as a hard error.
    flo, fhi = f(lo), f(hi)
    hi = np.where(flo <= 0.0, lo, hi)
    lo = np.where(fhi >= 0.0, hi, lo)
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)):
        raise RuntimeError("secular bracket failed — degenerate pole configuration")
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        positive = f(mid) > 0.0
        lo = np.where(positive, mid, lo)
        hi = np.where(positive, hi, mid)
    return 0.5 * (lo + hi)


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
    lam = _dirichlet_batch(rng, (p, q), batch)[:, :1]
    lines = [lam]
    prev = lam
    for r in range(2, p + 1):
        poles = np.hstack([zeros_col, prev, ones_col])
        mult = (p - r + 1,) + (1,) * (r - 1) + (q - r + 1,)
        w = _dirichlet_batch(rng, mult, batch)
        prev = _secular_zeros_batch(poles, w)
        lines.append(prev)
    for r in range(p + 1, q + 1):
        poles = np.hstack([prev, ones_col])
        mult = (1,) * p + (q - r + 1,)
        w = _dirichlet_batch(rng, mult, batch)
        prev = _secular_zeros_batch(poles, w)
        lines.append(prev)
    for r in range(q + 1, p + q):
        w = _dirichlet_batch(rng, (1,) * prev.shape[1], batch)
        prev = _secular_zeros_batch(prev, w)
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
    """Raise unless every row of the per-line (count, r(t)) arrays interlaces.

    Rows are decreasing, as :func:`sample_positions` returns them.  Line ``t``
    must sit strictly between the beads of line ``t + 1``, augmented by the
    virtual anchor at 0 from line ``p`` on and at 1 from line ``q`` on — the
    rule :func:`~beadproc.model.interlace_indicator` applies per configuration.
    """
    p, q = spec.p, spec.q
    count = lines[0].shape[0]
    zeros, ones, empty = np.zeros((count, 1)), np.ones((count, 1)), np.empty((count, 0))
    for t in range(1, p + q):
        cur = lines[t - 1]
        nxt = lines[t] if t < p + q - 1 else empty
        if t < p:
            aug = nxt
        elif t < q:
            aug = np.hstack([nxt, zeros])
        else:
            aug = np.hstack([ones, nxt, zeros])
        if not (np.all(aug[:, 1:] < cur) and np.all(cur < aug[:, :-1])):
            raise RuntimeError(f"sampled lines {t} and {t + 1} failed the interlacing check")


def sample_positions(stream: RandomStream, spec: HexagonSpec, count: int, threads: int = 1) -> list[np.ndarray]:
    """Raw sample arrays: one (count, r(t)) array per line, rows decreasing.

    Fast path for statistics on large sample counts; consumes the stream
    exactly like :func:`sample_many` does, and checks interlacing on the
    whole arrays at once.
    """
    chunks = _run_chunks(stream, spec, count, threads)
    lines = [np.vstack([chunk[t] for chunk in chunks])[:, ::-1] for t in range(spec.n_lines)]
    _check_interlacing(spec, lines)
    return lines


def sample_many(stream: RandomStream, spec: HexagonSpec, count: int, threads: int = 1) -> list[BeadConfiguration]:
    """``count`` independent configurations; every one re-checked for interlacing."""
    chunks = _run_chunks(stream, spec, count, threads)
    configs: list[BeadConfiguration] = []
    for chunk in chunks:
        batch = chunk[0].shape[0]
        for b in range(batch):
            cfg = BeadConfiguration(tuple(tuple(line[b, ::-1]) for line in chunk))
            if not interlace_indicator(spec, cfg):
                raise RuntimeError("sampled configuration failed the interlacing check")
            configs.append(cfg)
    return configs


def sample_configuration(stream: RandomStream, spec: HexagonSpec) -> BeadConfiguration:
    """A single configuration with the law induced by the uniform measure."""
    return sample_many(stream, spec, 1)[0]
