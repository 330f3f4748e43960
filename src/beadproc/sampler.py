"""Exact sampling of bead configurations, line by line.

The construction walks the fan once: line 1 is a Beta(p, q) draw; every later
line is obtained from the previous one by drawing Dirichlet weights on the
current pole set (previous line's beads, plus multiplicity-weighted anchors at
0 and/or 1 while those are active) and taking the zeros of the weighted
resolvent sum ``sum_i w_i / (x - a_i)``.  That function decreases strictly on
every pole gap, so each gap holds exactly one zero, and the zeros are the
eigenvalues of the rank-one update ``diag(a_1, ..., a_{n-1}) + z z^T`` with
``z_i^2 = w_i (a_n - a_i)`` (the weights sum to 1): each line is the
spectrum of the next matrix in a random sequence.  The solver takes those
eigenvalues (one batched ``eigvalsh`` per line) as starting points and
polishes them by Newton's method inside each gap's bracket, bisecting
whenever a step would leave it; the bracket only ever shrinks, so every zero
stays in its gap.  Interlacing therefore holds by construction and is never
enforced after the fact, though every sample is still checked for it.  A zero
nearer a pole than its bracket's inward offset (a vanishing weight) is
clamped to the bracket end; prefix and suffix sums of the weights rule that
out for nearly every end without evaluating the resolvent sum there, with the
same bytes as evaluating it.

The solve works gap-major: a line's (batch, poles) arrays are transposed
once, so bracket and Newton steps run on contiguous rows as long as the
batch, and every sum over the poles adds left to right (:func:`_pole_sum`),
so each zero depends on its own row alone, whatever shares its call.

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

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np
from numpy.linalg import eigvalsh

from .model import HexagonSpec, _index, interlacing_breaks

__all__ = ["RandomStream", "sample_positions"]

_CHUNK = 1024  # configurations per substream; part of the determinism contract
_NEWTON_ITERS = 60  # cap on polishing steps; a step that leaves its bracket bisects it


class RandomStream:
    """Seedable random source with spawnable independent substreams.

    ``seed`` is ``None`` (entropy from the OS), an integer ``>= 0`` or a
    sequence of them.  Each integer goes through
    :func:`~beadproc.model._index`, so a bool is refused rather than taken as
    1, in a sequence too.
    """

    def __init__(self, seed: int | Sequence[int] | None = None, _seq: np.random.SeedSequence | None = None):
        if _seq is None:
            if seed is not None:
                seed = _index(seed, "seed", 0) if np.ndim(seed) == 0 else [_index(v, "seed", 0) for v in seed]
            _seq = np.random.SeedSequence(seed)
        self.seq = _seq
        self.generator = np.random.default_rng(self.seq)

    @property
    def entropy(self):
        """The root entropy — echo this to make an OS-seeded run reproducible."""
        return self.seq.entropy

    def spawn(self, n: int) -> list["RandomStream"]:
        """``n >= 0`` independent child streams, through :func:`~beadproc.model._index`."""
        return [RandomStream(_seq=child) for child in self.seq.spawn(_index(n, "n", 0))]


def _dirichlet_draw(rng: np.random.Generator, mult: Sequence[int], batch: int) -> np.ndarray:
    """(batch, n) Dirichlet draws with integer shapes ``mult``, one or more, each >= 1; via sums of exponentials."""
    e = rng.standard_exponential((batch, sum(mult)))
    g = np.add.reduceat(e, np.cumsum([0, *mult[:-1]]), axis=1)
    return g / g.sum(axis=1, keepdims=True)


def _pole_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=0)``, added left to right down the first axis.

    numpy reduces axis 0 left to right while the other axes hold more than
    one element, but pairwise once they collapse to one, so a single column
    is accumulated instead.  Each sum then depends on its own column alone,
    whatever else shares the array.
    """
    if terms[0].size == 1:
        return np.add.accumulate(terms)[-1]
    return np.add.reduce(terms)


def _eigen_start(poles: np.ndarray, weights: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``diag(a_1, ..., a_{n-1}) + z z^T``; (n, B), (n, B), (B,) -> (n-1, B).

    With ``z_i^2 = w_i (a_n - a_i) / sum(w)``,
    ``(x - a_n) f(x) = sum(w) (1 + sum_{i<n} z_i^2 / (a_i - x))``, so the
    eigenvalues, ascending, are the zeros of the resolvent sum ``f``, one per
    pole gap.  Poles and weights come gap-major, ``total`` is the weights'
    left-to-right sum, and the blocks go to ``eigvalsh`` as (B, n-1, n-1).
    """
    a = poles[:-1]
    z = np.sqrt(weights[:-1] * (poles[-1] - a) / total).T
    block = z[:, :, None] * z[:, None, :]
    diag = np.arange(a.shape[0])
    block[:, diag, diag] += a.T
    return eigvalsh(block).T


def _bracket_ends(poles: np.ndarray, weights: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``sum_i w_i/(x - a_i)`` at both ends x of every gap; (n, B), (n, B), (2, n-1, B) -> (2, n-1, B)."""
    with np.errstate(divide="ignore"):
        return _pole_sum(weights[:, None, None] / (ends - poles[:, None, None]))


def _gap_failure(stage: str, poles: np.ndarray, j: int, b: int, detail: str) -> RuntimeError:
    """``secular <stage> failed — gap j+1 (a_j, a_j+1) of row b`` and ``detail``; poles gap-major."""
    a_lo, a_hi = float(poles[j, b]), float(poles[j + 1, b])
    return RuntimeError(f"secular {stage} failed — gap {j + 1} ({a_lo!r}, {a_hi!r}) of row {b}{detail}")


def _secular_zeros_batch(poles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Zeros of ``sum_i w_i/(x - a_i)`` per row; shapes (B, n) -> (B, n-1).

    Each zero starts from the eigenvalue guess of :func:`_eigen_start` and is
    polished by Newton steps inside its pole bracket, which shrinks by the
    sign of ``f`` at every step.  A step of more than 4 ulps that does not
    land strictly inside the bracket (or is NaN) becomes a bisection step,
    and an entry freezes once its step is at most 4 ulps or its bracket has
    closed, so every zero depends on its own row alone.  Weights are
    non-negative and sum to 1 within rounding, as :func:`_dirichlet_draw`
    draws them, which keeps the Newton sums clear of overflow and subnormals.
    A zero nearer a pole than its bracket's inward offset is clamped to the
    bracket end.  Prefix and suffix sums of the weights settle the sign of
    ``f`` at nearly every end; only a row with an end they leave open
    evaluates ``f`` at its ends, with the same bytes either way.

    Inside, the work is gap-major: poles and weights are transposed once to
    (n, B), so brackets, end evaluations, Newton state and pass 0's
    (n, n-1, B) resolvent terms run on contiguous rows of the batch.  Every
    sum over the poles, prefix and suffix sums included, adds left to right,
    so no zero depends on how many rows or active entries share the call.

    Raises ``ValueError`` naming the row and its sum if a row's weights sum
    to a value outside [0.5, 2), NaN included.  Raises ``RuntimeError``
    naming the row and the gap if a gap holds no double strictly between its
    poles, if a zero comes out non-finite or outside its bracket, or if one
    is still moving when the ``_NEWTON_ITERS`` cap runs out.
    """
    batch = poles.shape[0]
    poles = np.ascontiguousarray(poles.T)
    weights = np.ascontiguousarray(weights.T)
    with np.errstate(over="ignore"):  # a refused row may sum past the largest double
        total = _pole_sum(weights)
    off_one = ~((0.5 <= total) & (total < 2.0))
    if off_one.any():
        b = np.flatnonzero(off_one)[0]
        raise ValueError(f"secular solve needs weights summing to 1; row {b} sums to {float(total[b])!r}")
    below, above = poles[:-1], poles[1:]  # the poles of each gap, (n-1, B)
    # A zero needs a double strictly inside its gap: the midpoint, if any.
    mid_gap = 0.5 * (above + below)
    no_room = ~((below < mid_gap) & (mid_gap < above))
    if no_room.any():
        b, j = np.argwhere(no_room.T)[0]
        raise _gap_failure("bracket", poles, j, b, " holds no double strictly between its poles")
    gap = above - below
    # Inward offset: relative to the gap, but never below a few ulps of the
    # pole itself, or the endpoint rounds back onto the pole (division by zero).
    off_lo = np.maximum(1e-14 * gap, 4.0 * np.spacing(np.abs(below)))
    off_hi = np.maximum(1e-14 * gap, 4.0 * np.spacing(np.abs(above)))
    lo = below + off_lo
    hi = above - off_hi
    # A gap only a few ulps wide pins its zero completely; collapse the bracket.
    pinched = lo >= hi
    lo = np.where(pinched, mid_gap, lo)
    hi = np.where(pinched, mid_gap, hi)
    # A zero that sits within the offset of a pole (vanishing weight) is
    # likewise clamped to the endpoint rather than treated as a hard error:
    # f(lo) <= 0 closes the bracket onto lo, f(hi) >= 0 onto hi.  The weights
    # settle most ends without evaluating f.  On gap j the terms of f(lo) at
    # the poles up to a_j are positive and the rest sum to at least
    # -R_j / (a_{j+1} - lo), R_j = sum_{i>j} w_i, so
    #     w_j / (lo - a_j) > 2 R_j / (a_{j+1} - lo)
    # proves f(lo) > 0; likewise, with L_j = sum_{i<=j} w_i,
    #     w_{j+1} / (a_{j+1} - hi) > 2 L_j / (hi - a_j)
    # proves f(hi) < 0.  The left side is term j of f, rounded as f rounds
    # it.  The factor 2 covers the rest of the rounding: with u = 2^-53 the
    # other terms, R_j and the right side are each within (n + 3) u of their
    # exact values, and the n-term sum within (n - 1) u of its absolute
    # terms, so the computed f(lo) stays positive (or NaN after an overflow,
    # which does not clamp either) for any n below 2^49.  A left side that is
    # not a normal double proves nothing, as a subnormal's rounding error is
    # absolute.  Both sums add non-negative terms (total minus prefix would
    # cancel).  Rows with an end left unsettled, by NaN too, evaluate f at
    # both ends of every gap; pinched gaps need neither, as lo == hi.
    prefix = np.cumsum(weights, axis=0)[:-1]
    suffix = np.cumsum(weights[::-1], axis=0)[-2::-1]
    tiny = np.finfo(float).tiny
    with np.errstate(all="ignore"):
        sure_lo = weights[:-1] / (lo - below) > np.maximum(2.0 * suffix / (above - lo), tiny)
        sure_hi = weights[1:] / (above - hi) > np.maximum(2.0 * prefix / (hi - below), tiny)
    settled = pinched | (sure_lo & sure_hi)
    if not settled.all():
        rows = np.flatnonzero(~settled.all(axis=0))
        lo_r, hi_r = lo[:, rows], hi[:, rows]
        flo, fhi = _bracket_ends(poles[:, rows], weights[:, rows], np.stack([lo_r, hi_r]))
        hi_r = np.where(flo <= 0.0, lo_r, hi_r)
        hi[:, rows], lo[:, rows] = hi_r, np.where(fhi >= 0.0, hi_r, lo_r)

    # Entries are flattened gap-major to ((n-1) * B,), entry j * B + b for
    # gap j of row b; ``act`` lists the unfrozen ones.  Each pass holds one
    # term per pole and active entry, poles down the first axis.
    x = np.clip(_eigen_start(poles, weights, total), lo, hi).ravel()
    left, right = lo.flatten(), hi.flatten()
    act = np.arange(x.size)
    for step in range(_NEWTON_ITERS):
        if act.size == 0:
            break
        xa, la, ha = x[act], left[act], right[act]
        with np.errstate(divide="ignore", invalid="ignore"):
            if step == 0:
                # Every zero is active: the gaps broadcast to (n, n-1, B)
                # without gathers, and the reciprocals at each gap's own
                # poles are two diagonals of the first two axes.
                inv = xa.reshape(lo.shape) - poles[:, None, :]
                np.reciprocal(inv, out=inv)
                wr = inv * weights[:, None, :]
                near_lo, near_hi = inv.diagonal(0, 0, 1).T, inv.diagonal(-1, 0, 1).T
            else:
                ja, ra = np.divmod(act, batch)
                inv = xa - poles[:, ra]
                np.reciprocal(inv, out=inv)
                wr = inv * weights[:, ra]
                k = np.arange(act.size)
                near_lo, near_hi = inv[ja, k], inv[ja + 1, k]
            # Newton on (x - a) f(x), a the nearer end of the gap: the factor
            # drops that pole's term from the derivative, so a start next to
            # a pole jumps to the zero instead of only doubling its distance
            # from the pole at every step.
            inv -= np.where(np.abs(near_lo) >= np.abs(near_hi), near_lo, near_hi)
            inv *= wr
            fa = _pole_sum(wr).ravel()
            xn = xa + fa / _pole_sum(inv).ravel()
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
        b, j = np.argwhere(bad.T)[0]
        outside = f"is non-finite or outside [{float(lo[j, b])!r}, {float(hi[j, b])!r}]"
        raise _gap_failure("solve", poles, j, b, f": zero {float(zeros[j, b])!r} {outside}")
    if act.size:  # the first in row order, as the rows are reported
        b, j = divmod(int(np.min(act % batch * lo.shape[0] + act // batch)), lo.shape[0])
        moving = f"still moving after {_NEWTON_ITERS} Newton steps"
        raise _gap_failure("solve", poles, j, b, f": zero {float(zeros[j, b])!r} {moving}")
    return zeros.T


def _sample_lines_batch(rng: np.random.Generator, spec: HexagonSpec, batch: int) -> list[np.ndarray]:
    """Per-line position arrays, shape (batch, r(t)), increasing within a row."""
    p, q = spec.p, spec.q
    zeros_col = np.zeros((batch, 1))
    ones_col = np.ones((batch, 1))
    prev = _dirichlet_draw(rng, [p, q], batch)[:, :1]
    lines = [prev]
    for r in range(2, p + q):
        # Poles: the previous line, plus the anchor at 0 (multiplicity
        # p - r + 1) while r <= p and the anchor at 1 (q - r + 1) while r <= q.
        below = [zeros_col] if r <= p else []
        above = [ones_col] if r <= q else []
        poles = np.hstack(below + [prev] + above)
        mult = [p - r + 1] * len(below) + [1] * prev.shape[1] + [q - r + 1] * len(above)
        w = _dirichlet_draw(rng, mult, batch)
        try:
            prev = _secular_zeros_batch(poles, w)
        except RuntimeError as exc:
            raise RuntimeError(f"line {r}: {exc}") from None
        lines.append(prev)
    return lines


def _run_chunks(stream: RandomStream, spec: HexagonSpec, count: int, threads: int) -> list[list[np.ndarray]]:
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
    on the whole arrays at once.  ``count`` and ``threads`` (the cap on
    workers, each taking whole 1024-configuration chunks) are integers >= 1.
    """
    count, threads = _index(count, "count", 1), _index(threads, "threads", 1)
    chunks = _run_chunks(stream, spec, count, threads)
    lines = [np.vstack([chunk[t] for chunk in chunks])[:, ::-1] for t in range(spec.n_lines)]
    _check_interlacing(spec, lines)
    return lines
