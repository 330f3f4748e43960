"""The paper's identities as measures, one function each, and the rows of
``beadproc validate`` built on them.

The acceptance gate and the scripts call the measures with their own sizes,
seeds and thresholds.  :data:`SUITES` maps each ``validate`` suite to a
generator of its rows at a level, ``"quick"`` or ``"full"``: ``(check,
measure, threshold, ok)``, each with its sizes and verdict spelled out."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import hexagon as hx
from .kernel import expected_count, kernel_context, line_density
from .model import HexagonSpec, interlacing_breaks, particles_per_line
from .oracle import oracle_deviation
from .sampler import RandomStream, _dirichlet_draw, sample_positions
from .scaling import (
    boutillier_kernel, bulk_convergence_probe, bulk_kernel, gamma_parameter, region_parameters, scaling_context,
    support_interval,
)
from .stats import beta_cdf, ks_statistic

__all__ = [
    "REFINEMENT_PROBES", "SUITES", "bulk_offsets", "count_identity_error", "first_line_ks", "form_identity_gap",
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


def count_identity_error(specs: Iterable[HexagonSpec]) -> float:
    """Max over every line of every spec of ``|int K(t,x;t,x) dx - r(t)|``, each
    integral on :func:`~beadproc.kernel.expected_count`'s exact default rule."""
    worst = 0.0
    for spec in specs:
        ctx = kernel_context(spec)
        for t in spec.lines():
            worst = max(worst, abs(expected_count(ctx, t) - particles_per_line(spec, t)))
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


def lattice_identities(hexa: hx.DiscreteHexagon) -> tuple[bool, bool]:
    """Exact rational identities of the discrete hexagon, on every line.

    Returns ``(count_ok, marginal_ok)``: on each up-ramp line ``t = 1..min(p,
    q)`` the left counts equal their closed form on every line-``t`` tuple,
    and on each line ``t = 0..p+q`` the exact line marginal is one constant
    times the Hahn weight.  The weight is a product of positive factors, and a
    line with no bead (0 or p + q) has one configuration, so one ratio.  One
    pass over the lines tallies both from one listing, by line-``t`` tuple: a
    left count tallies the distinct prefixes ``cfg[:t+1]``, a marginal the
    configurations.  The listing checks the budget first.
    """
    configs = hx.enumerate_configurations(hexa)
    count_ok = marginal_ok = True
    for t in range(hexa.p + hexa.q + 1):
        sites = sorted(hx.line_sites(hexa, t), reverse=True)
        tuples = list(itertools.combinations(sites, hx.lattice_particles_per_line(hexa, t)))
        tally = Counter(cfg[t] for cfg in configs)
        ratios = {Fraction(tally[xs], hx.hahn_marginal_unnormalized(hexa, t, xs)) for xs in tuples}
        marginal_ok = marginal_ok and len(ratios) == 1
        if 1 <= t <= min(hexa.p, hexa.q):
            left = Counter(cfg[t] for cfg in {cfg[: t + 1] for cfg in configs})
            count_ok = count_ok and all(left[xs] == hx.left_count_closed_form(t, xs) for xs in tuples)
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


# --- validate's suites ----------------------------------------------------------


def _below(check: str, measure: float, threshold: float) -> tuple:
    return check, measure, threshold, measure < threshold


def _exact(check: str, ok: bool) -> tuple:
    """A row for an exact identity: measure 0 where it holds, 1 where not."""
    return check, 0.0 if ok else 1.0, 0.0, ok


def _kernel_suite(level: str) -> Iterator[tuple]:
    xs = (np.arange(31) + 0.5) / 31
    unit = line_density(kernel_context(HexagonSpec(1, 1)), 1, xs)
    yield _below("unit_case_constant", float(np.max(np.abs(unit - 1.0))), 1e-12)
    yield _below("two_line_density_forms", two_line_form_error(31), 1e-10)
    yield _below("count_identity", count_identity_error([HexagonSpec(2, 2)]), 1e-8)
    if level == "full":
        devs = [oracle_deviation(HexagonSpec(2, 3), m, REFINEMENT_PROBES) for m in (50, 100, 200)]
        yield "oracle_refinement", devs[2], 0.02, devs[0] > devs[1] > devs[2] and devs[2] < 0.02
    else:
        probes = [(1, 0.3, 1, 0.7), (1, 0.4, 2, 0.6), (2, 0.6, 1, 0.2)]
        deva, devb = [oracle_deviation(HexagonSpec(1, 2), m, probes) for m in (40, 80)]
        yield _below("oracle_refinement", devb, deva)


def _sampler_suite(level: str) -> Iterator[tuple]:
    n = 5000 if level == "full" else 1500
    spec = HexagonSpec(2, 3)
    try:
        rejected = interlacing_rejections(spec, 200, 7)
    except RuntimeError:
        # The sampler refuses a whole draw that fails its own interlacing
        # check; every other row of this suite samples too, so stop here.
        yield "interlacing_holds", 200.0, 0.0, False
        return
    yield _below("first_line_beta_ks", first_line_ks(spec, n, 1), 1.63 / math.sqrt(n))
    yield "interlacing_holds", rejected, 0.0, rejected == 0

    a = sample_positions(RandomStream(99), spec, 300)
    b = sample_positions(RandomStream(99), spec, 300)
    yield _exact("seed_determinism", all(np.array_equal(x, y) for x, y in zip(a, b)))

    draws = _dirichlet_draw(RandomStream(5).generator, (1, 1), 400)[:, 0]
    ks = ks_statistic(draws, lambda x: np.clip(x, 0.0, 1.0))
    yield _below("dirichlet_uniform_component", ks, 1.63 / math.sqrt(draws.size))


def _discrete_suite(level: str) -> Iterator[tuple]:
    def count(n, p, q):
        return len(hx.enumerate_configurations(hx.DiscreteHexagon(n, p, q)))

    frozen = {(1, 1, 1): 2, (1, 1, 2): 3, (2, 1, 1): 3}
    yield _exact("frozen_counts", all(count(*npq) == want for npq, want in frozen.items()))

    count_ok, marginal_ok = lattice_identities(hx.DiscreteHexagon(2, 2, 2))
    yield _exact("left_count_closed_form", count_ok)
    yield _exact("hahn_proportionality", marginal_ok)

    na, nb = count(1, 1, 2), count(1, 2, 1)
    yield "reflection_counts", abs(na - nb), 0.0, na == nb


def _scaling_suite(level: str) -> Iterator[tuple]:
    k = 2.0
    c0, d0 = support_interval(k, 0.0)
    c2, d2 = support_interval(k, 2.0 + k)
    dev = max(abs(c0 - 0.25), abs(d0 - 0.25), abs(c2 - 0.75), abs(d2 - 0.75))
    yield _below("degenerate_endpoints", dev, 1e-14)

    worst = 0.0
    for kk in (0.5, 1.0, 2.0, 3.5):
        for S in np.linspace(0.05, 2.0 + kk - 0.05, 17):
            a, b = region_parameters(kk, float(S))
            csum = ((2 + a + b) ** 2 + (a * a - b * b)) / (2 + a + b) ** 2
            spread = 4.0 * math.sqrt((1 + a) * (1 + b) * (1 + a + b)) / (2 + a + b) ** 2
            c, d = support_interval(kk, float(S))
            worst = max(worst, abs(csum - (c + d)), abs(spread - (d - c)))
    yield _below("endpoint_route_consistency", worst, 1e-12)

    nu = scaling_context(2.0, 2.0).nu
    worst = 0.0
    for tau in (0.25, 0.5, 1.0, 1.75):
        val = bulk_kernel(nu, 0, 0.0, 0, tau)
        worst = max(worst, abs(val - math.sin(math.pi * tau) / (math.pi * tau)))
    yield _below("sine_reduction", worst, 1e-9)

    gap = form_identity_gap(3, [2] * (4 if level == "quick" else 12))
    yield _below("gamma_form_det_identity", gap, 1e-8)

    p, bound = (32, 0.05) if level == "full" else (16, 0.12)
    probe = bulk_convergence_probe(2.0, 2.0, p, [(0, 0, 0.6, -0.4), (0, 0, 1.1, 0.3)])
    yield _below("same_line_bulk_convergence", max(r.abs_err for r in probe), bound)


SUITES = {"kernel": _kernel_suite, "sampler": _sampler_suite, "discrete": _discrete_suite, "scaling": _scaling_suite}
