"""Acceptance gate: the thirteen headline guarantees, one test and one line each.

Every test prints ``criterion NN <label>: PASS/FAIL (<figure>; <time>)`` and
enforces both the numeric tolerance and the runtime budget.  Statistical
checks run at fixed seeds, so the whole gate is deterministic.
"""

import math
import time

import numpy as np

import bruteforce
from beadproc import checks
from beadproc.cli import run
from beadproc.hexagon import DiscreteHexagon
from beadproc.kernel import kernel_context, kernel_eval, kernel_matrix, line_density, npoint_correlation
from beadproc.model import HexagonSpec
from beadproc.oracle import oracle_deviation
from beadproc.sampler import RandomStream, sample_positions
from beadproc.scaling import bulk_convergence_probe
from beadproc.stats import ks_statistic
from jacobi_reference import (
    JacobiIndex,
    ci_asymptotic,
    darboux_data,
    jacobi_shifted,
    szego_asymptotic,
)


def _finish(num: int, label: str, ok: bool, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d} {label}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {num:02d} {label}: {detail}"
    assert elapsed < budget, f"criterion {num:02d} {label} exceeded {budget:.0f}s: {elapsed:.1f}s"


def _gl(nodes: int, lo: float = 0.0, hi: float = 1.0):
    u, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * u, half * w


def test_criterion_01_unit_case():
    t0 = time.perf_counter()
    ctx = kernel_context(HexagonSpec(1, 1))
    g = np.linspace(0.01, 0.99, 50)
    dev = float(np.max(np.abs(kernel_matrix(ctx, 1, g, 1, g) - 1.0)))
    samples = sample_positions(RandomStream(101), HexagonSpec(1, 1), 10_000)[0][:, 0]
    ks = ks_statistic(samples, lambda x: x)
    band = 1.63 / math.sqrt(samples.size)
    ok = dev < 1e-12 and ks < band
    _finish(1, "unit-case kernel and sampler", ok, f"|K-1| {dev:.2e}, KS {ks:.4f} < {band:.4f}", t0, 5.0)


def test_criterion_02_two_line_density():
    t0 = time.perf_counter()
    spec = HexagonSpec(1, 2)
    ctx = kernel_context(spec)
    form_dev = checks.two_line_form_error(100)
    n = 100_000
    pos = sample_positions(RandomStream(202), spec, n)
    edges = np.linspace(0.0, 1.0, 21)
    worst_z = 0.0
    for t in (1, 2):
        obs, _ = np.histogram(pos[t - 1][:, 0], bins=edges)
        for b in range(20):
            lo, hi = edges[b], edges[b + 1]
            xg, wg = _gl(16, lo, hi)
            mu = float(np.dot(wg, line_density(ctx, t, xg)))
            cross = 0.0
            for xi, wi in zip(xg, wg):
                row = kernel_matrix(ctx, t, np.array([xi]), t, xg)[0]
                colv = kernel_matrix(ctx, t, xg, t, np.array([xi]))[:, 0]
                cross += wi * float(np.dot(wg, row * colv))
            var = mu - cross  # exact per-configuration bin-count variance
            z = (obs[b] - n * mu) / math.sqrt(n * var)
            worst_z = max(worst_z, abs(z))
    ok = form_dev < 1e-10 and worst_z < 4.0
    _finish(2, "two-line closed-form density", ok, f"form dev {form_dev:.2e}, max |z| {worst_z:.2f}", t0, 30.0)


def test_criterion_03_first_line_beta_law():
    t0 = time.perf_counter()
    n = 100_000
    ks = checks.first_line_ks(HexagonSpec(4, 12), n, 303)
    band = 1.63 / math.sqrt(n)
    _finish(3, "first-line Beta(4,12) law", ks < band, f"KS {ks:.5f} < {band:.5f}", t0, 60.0)


def test_criterion_04_interlacing_always():
    t0 = time.perf_counter()
    failures = checks.interlacing_rejections(HexagonSpec(4, 12), 10_000, 404)
    _finish(4, "interlacing holds on 1e4 draws", failures == 0, f"{failures} failures", t0, 60.0)


def test_criterion_05_counting_identity():
    t0 = time.perf_counter()
    worst = checks.count_identity_error([HexagonSpec(2, 2), HexagonSpec(4, 12)])
    _finish(5, "counting identity", worst < 1e-8, f"max |int K - r(t)| = {worst:.2e}", t0, 10.0)


def test_criterion_06_projection_property():
    t0 = time.perf_counter()
    ctx = kernel_context(HexagonSpec(2, 3))
    u, w = _gl(300)
    worst = 0.0
    for t in (1, 2, 3):
        for y, x in [(0.3, 0.7), (0.55, 0.2), (0.81, 0.81)]:
            row = kernel_matrix(ctx, t, np.array([y]), t, u)[0]
            col = kernel_matrix(ctx, t, u, t, np.array([x]))[:, 0]
            conv = float(np.dot(w, row * col))
            worst = max(worst, abs(conv - kernel_eval(ctx, t, y, t, x)))
    _finish(6, "same-line idempotence", worst < 1e-8, f"max |K*K - K| = {worst:.2e}", t0, 10.0)


def test_criterion_07_bruteforce_correlations():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    checked = 0
    worst = 0.0
    for p, q in [(1, 2), (2, 2)]:
        spec = HexagonSpec(p, q)
        ctx = kernel_context(spec)
        probes = []
        for t in spec.lines():
            probes.extend([(t, float(x))] for x in rng.uniform(0.1, 0.9, size=3))
        pair_classes = {
            (1, 2): [(1, 2), (1, 2), (1, 1)],
            (2, 2): [(1, 2), (2, 3), (1, 3), (2, 2), (1, 3), (2, 3), (2, 2), (1, 2)],
        }[(p, q)]
        for s, t in pair_classes:
            ys = rng.uniform(0.1, 0.9, size=2)
            probes.append([(s, float(ys[0])), (t, float(ys[1]))])
        for pts in probes:
            det = npoint_correlation(ctx, pts)
            ref = bruteforce.rho(p, q, pts)
            if abs(ref) > 1e-12:
                worst = max(worst, abs(det - ref) / abs(ref))
            else:
                worst = max(worst, abs(det - ref) * 1e-3)  # exact zeros: abs 1e-9 gate
            checked += 1
    ok = worst < 1e-6 and checked >= 25
    _finish(7, "correlations vs polytope oracle", ok, f"{checked} probes, worst rel {worst:.2e}", t0, 120.0)


def test_criterion_08_matrix_formalism_refinement():
    t0 = time.perf_counter()
    spec = HexagonSpec(2, 3)
    p, q = 2, 3
    cover = {"below_p": False, "straddle_p": False, "inside": False, "straddle_q": False, "above_q": False}
    for s, _, t, _ in checks.REFINEMENT_PROBES:
        lo, hi = min(s, t), max(s, t)
        cover["below_p"] |= hi <= p
        cover["straddle_p"] |= lo <= p < hi
        cover["inside"] |= p <= lo and hi <= q
        cover["straddle_q"] |= lo <= q < hi
        cover["above_q"] |= lo >= q
    devs = [oracle_deviation(spec, m, checks.REFINEMENT_PROBES) for m in (50, 100, 200)]
    ok = all(cover.values()) and devs[0] > devs[1] > devs[2] and devs[2] < 0.02
    _finish(
        8,
        "grid-kernel refinement",
        ok,
        f"devs {devs[0]:.4f} > {devs[1]:.4f} > {devs[2]:.4f} < 0.02, regimes {sum(cover.values())}/5",
        t0,
        120.0,
    )


def test_criterion_09_discrete_exact_identities():
    t0 = time.perf_counter()
    shapes = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 1, 1), (2, 2, 2), (3, 2, 2), (1, 3, 3), (2, 2, 3)]
    assert all(n * p * q <= 12 for n, p, q in shapes)
    count_ok = marginal_ok = True
    for n, p, q in shapes:
        c_ok, m_ok = checks.lattice_identities(DiscreteHexagon(n, p, q))
        count_ok, marginal_ok = count_ok and c_ok, marginal_ok and m_ok
    ok = count_ok and marginal_ok
    _finish(9, "discrete rational identities", ok, f"left-count exact: {count_ok}, marginal ratio exact: {marginal_ok}", t0, 60.0)


def test_criterion_10_growing_parameter_asymptotics():
    t0 = time.perf_counter()
    grid = [(0.0, 0.0), (1.0, 0.5), (0.5, 2.0)]
    zs = (-0.4, 0.0, 0.3)

    def envelope_relative_errors(n: int) -> list[float]:
        errs = []
        for a, b in grid:
            for z in zs:
                ci = ci_asymptotic(n, 0.0, 0.0, a, b, z)
                tru = jacobi_shifted(JacobiIndex(n, a * n, b * n), (1.0 - z) / 2.0)
                d = darboux_data(a, b, z, 0.0, 0.0)
                env = 2.0 * abs(d.B_plus) * abs(d.t_plus) ** (-n - 0.5) / math.sqrt(math.pi * n)
                errs.append(abs(ci - tru) / env)
        return errs

    sup = {n: max(envelope_relative_errors(n)) for n in (50, 100, 200)}
    pointwise_ok = all(e <= 2.0 / n for n in (50, 100) for e in envelope_relative_errors(n))
    r1, r2 = sup[100] / sup[50], sup[200] / sup[100]
    ratio_ok = 0.3 <= r1 <= 0.7 and 0.3 <= r2 <= 0.7

    rng = np.random.default_rng(10)
    szego_worst = 0.0
    for phi in rng.uniform(0.3, math.pi - 0.3, size=10):
        grown = ci_asymptotic(137, 0.0, 0.0, 0.0, 0.0, math.cos(phi))
        classical = szego_asymptotic(137, 0.0, 0.0, float(phi))
        szego_worst = max(szego_worst, abs(grown - classical) / max(abs(classical), 1e-300))
    ok = pointwise_ok and ratio_ok and szego_worst < 1e-9
    _finish(
        10,
        "growing-parameter asymptotics",
        ok,
        f"env-rel <= 2/n, halving {r1:.3f}/{r2:.3f} in [0.3,0.7], szego {szego_worst:.1e}",
        t0,
        10.0,
    )


def test_criterion_11_bulk_convergence():
    t0 = time.perf_counter()
    offsets = checks.bulk_offsets(2)
    sup = {}
    rows_by_p = {}
    for p in (16, 32, 64):
        rows = bulk_convergence_probe(2.0, 2.0, p, offsets)
        rows_by_p[p] = rows
        sup[p] = max(r.abs_err for r in rows)
    decreasing = sup[16] > sup[32] > sup[64]

    def sinc(d: float) -> float:
        return 1.0 if d == 0.0 else math.sin(math.pi * d) / (math.pi * d)

    same_line = max(
        abs(r.normalized - sinc(r.X - r.Y)) for r in rows_by_p[64] if r.s0 == r.t0
    )
    ok = decreasing and sup[64] < 0.05 and same_line < 0.02
    _finish(
        11,
        "bulk limit of the finite kernel",
        ok,
        f"sup {sup[16]:.4f}>{sup[32]:.4f}>{sup[64]:.4f}<0.05, same-line {same_line:.4f}<0.02",
        t0,
        300.0,
    )


def test_criterion_12_global_shape(tmp_path):
    t0 = time.perf_counter()
    spec = HexagonSpec(32, 96)
    worst_frac = min(checks.in_band_fractions(spec, sample_positions(RandomStream(1212), spec, 300), 0.05))
    svg_path = tmp_path / "shape.svg"
    code = run(f"sample --p 4 --q 12 --count 40 --seed 5 --out {tmp_path / 'cfg.csv'} --svg {svg_path}".split())
    svg = svg_path.read_text()
    svg_ok = code == 0 and svg.count("<polyline") == 2 and "<circle" in svg
    ok = worst_frac >= 0.99 and svg_ok
    _finish(12, "global shape band", ok, f"min in-band fraction {worst_frac:.4f}, svg boundary curves: {svg_ok}", t0, 120.0)


def test_criterion_13_anisotropic_form_identity():
    t0 = time.perf_counter()
    worst = checks.form_identity_gap(1313, [2] * 10 + [3] * 10)
    _finish(13, "determinant-level form identity", worst < 1e-8, f"20 point sets, worst |det diff| {worst:.2e}", t0, 10.0)
