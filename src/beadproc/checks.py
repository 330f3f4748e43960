"""The paper's identities as measures, one function each.

``beadproc validate``, the acceptance gate and the scripts all call these with
their own sizes and seeds.  Each returns the measure (an error, a statistic or
a pass flag); thresholds and verdicts stay with the caller.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import hexagon as hx
from .kernel import expected_count, kernel_context, line_density
from .model import HexagonSpec, interlacing_breaks, particles_per_line
from .sampler import RandomStream, sample_positions
from .scaling import boutillier_kernel, bulk_kernel, gamma_parameter, scaling_context, support_interval
from .stats import beta_cdf, ks_statistic

__all__ = [
    "REFINEMENT_PROBES", "bulk_offsets", "count_identity_error", "first_line_ks", "form_identity_gap",
    "in_band_fractions", "interlacing_rejections", "lattice_identities", "two_line_form_error",
]


def two_line_form_error(points: int) -> float:
    """Max deviation of the (1, 2) line densities from ``2(1-x)`` and ``2x``
    on a midpoint grid of ``points`` nodes."""
    ctx = kernel_context(HexagonSpec(1, 2))
    xs = (np.arange(points) + 0.5) / points
    d1 = float(np.max(np.abs(line_density(ctx, 1, xs) - 2.0 * (1.0 - xs))))
    d2 = float(np.max(np.abs(line_density(ctx, 2, xs) - 2.0 * xs)))
    return max(d1, d2)


def count_identity_error(specs: Iterable[HexagonSpec], nodes: int | None = None) -> float:
    """Max over every line of every spec of ``|int K(t,x;t,x) dx - r(t)|``."""
    worst = 0.0
    for spec in specs:
        ctx = kernel_context(spec)
        for t in spec.lines():
            worst = max(worst, abs(expected_count(ctx, t, nodes=nodes) - particles_per_line(spec, t)))
    return worst


# Probe set for the (2,3) refinement check: every line-pair class is covered
# (both lines below p, straddling p, inside [p,q], straddling q, both above q)
# while keeping kernel magnitudes modest, so the O(1/m) half-cell bias of the
# grid oracle stays resolvable under an absolute tolerance.
REFINEMENT_PROBES = (
    (1, 0.35, 1, 0.35),
    (1, 0.65, 2, 0.20),
    (2, 0.20, 1, 0.20),
    (2, 0.20, 3, 0.80),
    (3, 0.65, 2, 0.50),
    (2, 0.80, 2, 0.20),
    (3, 0.80, 4, 0.35),
    (4, 0.20, 3, 0.20),
    (4, 0.20, 4, 0.65),
)


def first_line_ks(spec: HexagonSpec, n: int, seed: int) -> float:
    """KS distance of ``n`` sampled first-line beads to the Beta(p, q) law."""
    lam1 = sample_positions(RandomStream(seed), spec, n)[0][:, 0]
    return ks_statistic(lam1, lambda x: beta_cdf(x, spec.p, spec.q))


def interlacing_rejections(spec: HexagonSpec, n: int, seed: int) -> int:
    """How many of ``n`` sampled configurations (rows of ``sample_positions``)
    :func:`~beadproc.model.interlacing_breaks` rejects; raises ``RuntimeError``
    when the sampler refuses the draw itself."""
    breaks = interlacing_breaks(spec, sample_positions(RandomStream(seed), spec, n))
    return int(np.count_nonzero(breaks))


def lattice_identities(
    hexa: hx.DiscreteHexagon, count_lines: Iterable[int], marginal_lines: Iterable[int]
) -> tuple[bool, bool]:
    """Exact rational identities of the discrete hexagon.

    Returns ``(count_ok, marginal_ok)``: the left counts equal their closed
    form on every configuration of each of ``count_lines``, and the brute-force
    line marginal is one constant times the Hahn weight on each non-empty line
    of ``marginal_lines`` (zero where the weight is zero).
    """
    def configs(t):
        sites = sorted(hx.line_sites(hexa, t), reverse=True)
        return itertools.combinations(sites, hx.lattice_particles_per_line(hexa, t))

    count_ok = all(
        hx.left_count(hexa, t, xs) == hx.left_count_closed_form(t, xs) for t in count_lines for xs in configs(t)
    )
    marginal_ok = True
    for t in marginal_lines:
        if hx.lattice_particles_per_line(hexa, t) == 0:
            continue
        ratios = set()
        for xs in configs(t):
            brute = hx.bruteforce_marginal(hexa, t, xs)
            weight = hx.hahn_marginal_unnormalized(hexa, t, xs)
            if weight == 0:
                marginal_ok = marginal_ok and brute == 0
            else:
                ratios.add(Fraction(brute, weight))
        marginal_ok = marginal_ok and len(ratios) == 1
    return count_ok, marginal_ok


def form_identity_gap(seed: int, sizes: Iterable[int]) -> float:
    """Worst ``|det K - det(pi J_gamma)|`` at k = 2, S = 2 over random point
    sets, one of each size in ``sizes``: lines in -2..2, positions in
    [-1.5, 1.5), with ``J_gamma`` taken at ``pi`` times the positions."""
    nu = scaling_context(2.0, 2.0).nu
    gamma = gamma_parameter(2.0, 2.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for size in sizes:
        lines = rng.integers(-2, 3, size=size)
        xs = rng.uniform(-1.5, 1.5, size=size)
        pts = [(int(s), x) for s, x in zip(lines, xs)]
        K = np.array([[bulk_kernel(nu, s, y, t, x) for t, x in pts] for s, y in pts])
        J = math.pi * np.array(
            [[boutillier_kernel(gamma, s, math.pi * y, t, math.pi * x) for t, x in pts] for s, y in pts]
        )
        worst = max(worst, abs(np.linalg.det(K) - np.linalg.det(J)))
    return worst


def bulk_offsets(max_d: int) -> list[tuple[int, int, float, float]]:
    """Bulk probe offsets: line offsets ``|s0 - t0| <= max_d`` crossed with a
    5 x 5 grid of ``(X, Y)`` in [-1, 1]^2."""
    grid = np.linspace(-1.0, 1.0, 5)
    offsets = []
    for d in range(-max_d, max_d + 1):
        s0, t0 = (d, 0) if d >= 0 else (0, -d)
        offsets.extend((s0, t0, float(X), float(Y)) for X in grid for Y in grid)
    return offsets


def in_band_fractions(spec: HexagonSpec, lines: Sequence[np.ndarray], margin: float) -> list[float]:
    """Per line, the fraction of sampled beads inside ``[c_S - margin, d_S + margin]``.

    ``lines`` are the per-line arrays of :func:`~beadproc.sampler.sample_positions`;
    line ``t`` sits at ``S = t / p`` of the fan with ``k = (q - p) / p``.
    """
    k = (spec.q - spec.p) / spec.p
    fracs = []
    for t in spec.lines():
        c, d = support_interval(k, t / spec.p)
        arr = lines[t - 1].ravel()
        fracs.append(float(np.mean((arr >= c - margin) & (arr <= d + margin))))
    return fracs
