"""Exact correlation kernel: closed forms, projection identities, oracle checks."""

import math
from math import factorial

import mpmath as mp
import numpy as np
import pytest

from beadproc import kernel as kernel_module
from beadproc.checks import bulk_offsets, count_identity_error
from beadproc.kernel import (
    _jacobi_monomial_coeffs,
    _tower,
    expected_count,
    kernel_context,
    kernel_eval,
    kernel_matrix,
    line_density,
    npoint_correlation,
)
from beadproc.model import HexagonSpec, line_marginal_unnormalized, particles_per_line
from beadproc.orthopoly import JacobiIndex, jacobi_shifted
from beadproc.scaling import bulk_convergence_probe, scaling_context

import bruteforce
import fraction_kernel
import mp_kernel

DBL_MAX = np.finfo(float).max


def _gl(n, lo=0.0, hi=1.0):
    nodes, wts = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * nodes, half * wts


def test_unit_case_is_constant_one():
    ctx = kernel_context(HexagonSpec(1, 1))
    for y in np.linspace(0.05, 0.95, 13):
        for x in np.linspace(0.05, 0.95, 13):
            assert abs(kernel_eval(ctx, 1, float(y), 1, float(x)) - 1.0) < 1e-12


def test_two_line_closed_forms():
    ctx = kernel_context(HexagonSpec(1, 2))
    ys = np.linspace(0.04, 0.96, 11)
    xs = np.linspace(0.03, 0.97, 11)
    for y in ys:
        for x in xs:
            y, x = float(y), float(x)
            assert kernel_eval(ctx, 1, y, 1, x) == pytest.approx(2 * (1 - y), abs=1e-12)
            assert kernel_eval(ctx, 2, y, 2, x) == pytest.approx(2 * x, abs=1e-12)
            assert kernel_eval(ctx, 2, y, 1, x) == pytest.approx(2.0, abs=1e-12)
            want = 2 * x * (1 - y) - (1.0 if y < x else 0.0)
            assert kernel_eval(ctx, 1, y, 2, x) == pytest.approx(want, abs=1e-12)


def test_two_two_diagonal_and_pair_forms():
    ctx = kernel_context(HexagonSpec(2, 2))
    for u in np.linspace(0.05, 0.95, 9):
        u = float(u)
        assert kernel_eval(ctx, 1, u, 1, u) == pytest.approx(6 * u * (1 - u), rel=1e-12)
    for x in (0.2, 0.55):
        for xp in (0.35, 0.8):
            got = kernel_eval(ctx, 2, x, 2, xp)
            assert got == pytest.approx(1 + 3 * (1 - 2 * x) * (1 - 2 * xp), rel=1e-12)
            rho = npoint_correlation(ctx, [(2, x), (2, xp)])
            assert rho == pytest.approx(12 * (x - xp) ** 2, rel=1e-10)
    # first/last line pair has the minimal-spanning-tree form
    for u in (0.3, 0.62):
        for w in (0.18, 0.84):
            rho = npoint_correlation(ctx, [(1, u), (3, w)])
            assert rho == pytest.approx(12 * min(u, w) * (1 - max(u, w)), rel=1e-10)
    # cross pair straddling the middle line, both orders of positions
    for u in (0.25, 0.6):
        for x in (0.45, 0.9):
            rho = npoint_correlation(ctx, [(1, u), (2, x)])
            if x > u:
                want = 12 * (u * x - u * u / 2)
            else:
                want = 12 * ((1 - u) * (u - x) + (1 - u) ** 2 / 2)
            assert rho == pytest.approx(want, rel=1e-10)


def test_corner_entry_is_constant():
    # the (last line, first line) entry of (2,3) collapses to a constant
    ctx = kernel_context(HexagonSpec(2, 3))
    for y in (0.1, 0.5, 0.9):
        for x in (0.2, 0.7):
            assert kernel_eval(ctx, 4, y, 1, x) == pytest.approx(-72.0, rel=1e-11)


def test_count_identity():
    for p, q in [(1, 1), (1, 3), (2, 2), (2, 3)]:
        spec = HexagonSpec(p, q)
        ctx = kernel_context(spec)
        for t in spec.lines():
            got = expected_count(ctx, t)
            assert got == pytest.approx(particles_per_line(spec, t), abs=1e-10)


def test_line_density_matches_diagonal():
    ctx = kernel_context(HexagonSpec(2, 3))
    xs = np.linspace(0.1, 0.9, 7)
    for t in (1, 3):
        dens = line_density(ctx, t, xs)
        for i, x in enumerate(xs):
            assert dens[i] == pytest.approx(kernel_eval(ctx, t, float(x), t, float(x)), rel=1e-12)
        assert np.all(dens >= -1e-12)


def test_projection_idempotence():
    # same-line kernel is an orthogonal projection: K∘K = K
    ctx = kernel_context(HexagonSpec(2, 3))
    zs, ws = _gl(200)
    for t in (1, 2, 3):
        for x, y in [(0.3, 0.3), (0.25, 0.7), (0.85, 0.4)]:
            left = np.array([kernel_eval(ctx, t, x, t, float(z)) for z in zs])
            right = np.array([kernel_eval(ctx, t, float(z), t, y) for z in zs])
            conv = float(np.sum(ws * left * right))
            assert conv == pytest.approx(kernel_eval(ctx, t, x, t, y), abs=1e-8)


def test_kernel_matrix_agrees_with_eval():
    ctx = kernel_context(HexagonSpec(2, 3))
    ys = np.array([0.2, 0.6])
    xs = np.array([0.3, 0.5, 0.9])
    M = kernel_matrix(ctx, 2, ys, 3, xs)
    assert M.shape == (2, 3)
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            assert M[i, j] == pytest.approx(kernel_eval(ctx, 2, float(y), 3, float(x)), rel=1e-13)


def test_point_validation():
    ctx = kernel_context(HexagonSpec(2, 2))
    with pytest.raises(ValueError):
        kernel_eval(ctx, 0, 0.5, 1, 0.5)
    with pytest.raises(ValueError):
        kernel_eval(ctx, 1, 0.5, 4, 0.5)
    with pytest.raises(ValueError):
        kernel_eval(ctx, 1, 0.0, 1, 0.5)
    with pytest.raises(ValueError):
        npoint_correlation(ctx, [(1, 1.0)])


def test_non_integer_line_raises():
    # 1.7 is not truncated to line 1: the call names it and refuses
    ctx = kernel_context(HexagonSpec(2, 3))
    with pytest.raises(TypeError, match=r"lines must be integers, got 1\.7"):
        npoint_correlation(ctx, [(1.7, 0.3)])
    with pytest.raises(TypeError, match="2.5"):
        kernel_eval(ctx, 1, 0.3, np.array([2.5, 3.0]), 0.5)
    with pytest.raises(TypeError, match=r"lines must be integers, got s=1\.0, t=4"):
        kernel_matrix(ctx, 1.0, [0.3], 4, [0.5])
    with pytest.raises(TypeError, match=r"lines must be integers, got s=1, t=4\.0"):
        kernel_matrix(ctx, 1, [0.3], 4.0, [0.5])


def test_numpy_integer_lines_match_python_ints():
    # numpy integers reach the exact s < t arithmetic as Python ints, where
    # int64 would overflow
    i64 = np.int64
    ctx = kernel_context(HexagonSpec(2, 3))
    got = kernel_matrix(ctx, i64(1), [0.3], i64(4), [0.5])
    assert got.tobytes() == kernel_matrix(ctx, 1, [0.3], 4, [0.5]).tobytes()
    spec = HexagonSpec(i64(16), i64(48))
    assert spec == HexagonSpec(16, 48) and type(spec.p) is int and type(spec.q) is int
    ys, xs = [0.3, 0.6], [0.5, 0.2]
    for s, t in [(3, 40), (i64(10), i64(20)), (1, 63)]:
        got = kernel_matrix(kernel_context(spec), s, ys, t, xs)
        assert got.tobytes() == kernel_matrix(kernel_context(HexagonSpec(16, 48)), int(s), ys, int(t), xs).tobytes()


def test_duplicate_points_give_zero_determinant():
    ctx = kernel_context(HexagonSpec(2, 2))
    pts = [(2, 0.4), (2, 0.4)]
    assert npoint_correlation(ctx, pts) == pytest.approx(0.0, abs=1e-12)


def _probe_positions(rng, n):
    return rng.uniform(0.08, 0.92, size=n)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (2, 3)])
def test_correlations_match_bruteforce(p, q):
    # 1- and 2-point correlations vs the exact polytope-section oracle,
    # including cross-line pairs straddling p and q
    spec = HexagonSpec(p, q)
    ctx = kernel_context(spec)
    rng = np.random.default_rng(1234 + 10 * p + q)
    nl = spec.n_lines
    checked = 0
    # single points on every line
    for t in spec.lines():
        for x in _probe_positions(rng, 3):
            want = bruteforce.rho(p, q, [(t, float(x))])
            got = npoint_correlation(ctx, [(t, float(x))])
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
            checked += 1
    # pairs: same line, adjacent lines, and extreme straddles, cycled with
    # fresh positions until at least 25 probes have run
    pairs = {(1, nl), (nl, 1)}
    pairs.update((s, s) for s in spec.lines())
    pairs.update((s, min(s + 1, nl)) for s in spec.lines())
    pairs.update((min(s + 1, nl), s) for s in spec.lines())
    pair_list = sorted(pairs)
    i = 0
    while checked < 25:
        s, t = pair_list[i % len(pair_list)]
        i += 1
        y, x = (float(v) for v in _probe_positions(rng, 2))
        want = bruteforce.rho(p, q, [(s, y), (t, x)])
        got = npoint_correlation(ctx, [(s, y), (t, x)])
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
        checked += 1
    assert checked >= 25


def test_full_line_correlation_matches_marginal():
    # rho over a full line equals r! times the symmetrized normalized marginal
    for (p, q, t) in [(1, 2, 1), (1, 2, 2), (2, 2, 2)]:
        spec = HexagonSpec(p, q)
        ctx = kernel_context(spec)
        r = particles_per_line(spec, t)
        xs, ws = _gl(80)
        if r == 1:
            Z = sum(
                w * line_marginal_unnormalized(spec, t, (float(x),)) for x, w in zip(xs, ws)
            )
            pts = [(0.3,), (0.72,)]
        else:
            Z = sum(
                wa * wb * line_marginal_unnormalized(spec, t, tuple(sorted((float(a), float(b)), reverse=True)))
                for a, wa in zip(xs, ws)
                for b, wb in zip(xs, ws)
                if float(a) != float(b)
            )
            pts = [(0.8, 0.3), (0.55, 0.2)]
        for tup in pts:
            rho = npoint_correlation(ctx, [(t, x) for x in tup])
            dens = line_marginal_unnormalized(spec, t, tup) / Z
            assert rho == pytest.approx(math.factorial(r) * dens, rel=1e-6)


def _norm(n, a, b):
    # N_n^{(a,b)} = int_0^1 x^a (1-x)^b P~_n(x)^2 dx for integer a, b >= 0
    return factorial(n + a) * factorial(n + b) / ((2 * n + a + b + 1) * factorial(n) * factorial(n + a + b))


def test_one_sided_power_expansion_converges():
    # expanding chi_{y<x} (x-y)^{t-s-1}/(t-s-1)! in the y-family
    # (1-y)^{q-s} P~_l^{(s-p, q-s)}(y) with closed-form coefficients
    # ((l+s-p)!/(l+t-p)!) x^{t-p} P~_l^{(t-p,q-t)}(x) / N_l^{(s-p,q-s)}:
    # L2 distance decreases monotonically in the truncation order and decays
    for (p, q, s, t) in [(2, 3, 2, 3), (2, 4, 2, 4), (2, 4, 3, 4)]:
        d = t - s - 1
        ys, wy = _gl(80)
        dists = []
        xs_probe, wx = _gl(20)
        for L in range(1, 11):
            total = 0.0
            for x, wxi in zip(xs_probe, wx):
                x = float(x)
                g = np.where(ys < x, (x - ys) ** d / factorial(d), 0.0)
                S = np.zeros_like(ys)
                for l in range(L):
                    coeff = (
                        factorial(l + s - p)
                        / factorial(l + t - p)
                        * x ** (t - p)
                        * jacobi_shifted(JacobiIndex(l, float(t - p), float(q - t)), x)
                        / _norm(l, s - p, q - s)
                    )
                    S += coeff * np.array(
                        [jacobi_shifted(JacobiIndex(l, float(s - p), float(q - s)), float(yy)) for yy in ys]
                    )
                S *= (1.0 - ys) ** (q - s)
                total += wxi * float(np.sum(wy * (g - S) ** 2))
            dists.append(total)
        assert all(b <= a + 1e-15 for a, b in zip(dists, dists[1:]))
        # the remainder genuinely shrinks (kink at y=x limits the rate)
        assert dists[-1] < 0.2 * dists[0]


def test_jacobi_monomial_coeffs_match_binomial_sum():
    # the Pochhammer form against the binomial double sum, negative parameters included
    for n in range(12):
        for a in range(-15, 16):
            for b in range(-15, 16):
                assert _jacobi_monomial_coeffs(n, a, b) == fraction_kernel.jacobi_monomial_coeffs(n, a, b)


def _cross_line_pairs(p, q):
    # every s < t when the fan is small; otherwise lines around 1, p, q and the
    # top, each paired at gaps t - s - 1 of 0, 1 and 2
    n = p + q - 1
    if n <= 12:
        return [(s, t) for s in range(1, n) for t in range(s + 1, n + 1)]
    anchors = {1, p - 1, p, p + 1, (p + q) // 2, q - 1, q, q + 1, n - 4}
    return [(s, s + d) for s in sorted(anchors) for d in (1, 2, 3) if 1 <= s and s + d <= n]


def _cross_case(p, q, s, t):
    # which branch each family takes, and the propagator gap capped at 2
    return (s > q, "t<=p" if t <= p else "t<=q" if t <= q else "t>q", min(t - s - 1, 2))


@pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (2, 3), (3, 7), (4, 4), (5, 9), (20, 60)])
def test_cross_block_bit_identical_to_fraction_reference(p, q):
    # the integer fixed-point branch must round the same rationals as the
    # Fraction route: equality, not closeness
    spec = HexagonSpec(p, q)
    ctx = kernel_context(spec)
    rng = np.random.default_rng(97 * p + q)
    covered = set()
    for s, t in _cross_line_pairs(p, q):
        shared = float(rng.uniform(0.05, 0.95))
        ys = np.array([shared, *rng.uniform(0.05, 0.95, 2)])
        xs = np.array([shared, *rng.uniform(0.05, 0.95, 2), ys[1] / 2, (1 + ys[1]) / 2])
        got = kernel_matrix(ctx, s, ys, t, xs)
        want = fraction_kernel.cross_block(p, q, s, ys, t, xs)
        assert np.array_equal(got, want), (p, q, s, t)
        covered.add(_cross_case(p, q, s, t))
    n = spec.n_lines
    assert covered == {_cross_case(p, q, s, t) for s in range(1, n) for t in range(s + 1, n + 1)}


def test_bulk_probe_cross_entry_bit_identical():
    # the probe's bulk-scaled points at p = 32 (k = 2, S = 2), both orders of y, x
    p, q = 32, 96
    bulk = scaling_context(2.0, 2.0)
    ctx = kernel_context(HexagonSpec(p, q))
    ys = bulk.X_S + np.array([0.3, -0.4]) / (p * bulk.u_S)
    xs = bulk.X_S + np.array([-0.2]) / (p * bulk.u_S)
    for s, t in [(64, 65), (64, 66)]:
        got = kernel_matrix(ctx, s, ys, t, xs)
        assert np.array_equal(got, fraction_kernel.cross_block(p, q, s, ys, t, xs))


def test_kernel_eval_takes_one_block_per_line_pair(monkeypatch):
    calls, block = [], kernel_module.kernel_matrix

    def counted(ctx, s, ys, t, xs):
        calls.append((s, t))
        return block(ctx, s, ys, t, xs)

    monkeypatch.setattr(kernel_module, "kernel_matrix", counted)
    bulk_convergence_probe(2.0, 2.0, 16, bulk_offsets(2))  # 125 offsets on 5 line pairs
    assert len(calls) == 5
    calls.clear()
    ctx = kernel_context(HexagonSpec(2, 3))
    npoint_correlation(ctx, [(2, 0.3), (3, 0.6), (2, 0.8)])
    assert sorted(calls) == [(2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.mark.parametrize("p", [16, 32])
def test_bulk_probe_matches_entrywise_blocks(p):
    # s < t entries are exact, so batching cannot move them; s >= t entries
    # may move through the summation order, within 1e-14 of their pair's size
    bulk = scaling_context(2.0, 2.0)
    ctx = kernel_context(HexagonSpec(p, 3 * p))
    scale, center = p * bulk.u_S, round(2.0 * p)
    by_pair = {}
    for row in bulk_convergence_probe(2.0, 2.0, p, bulk_offsets(2)):
        s, t = center + row.s0, center + row.t0
        y, x = bulk.X_S + row.Y / scale, bulk.X_S + row.X / scale
        want = kernel_matrix(ctx, s, [y], t, [x])[0, 0] / scale
        by_pair.setdefault((s, t), []).append((row.scaled, want))
    for (s, t), pairs in by_pair.items():
        got, want = np.array(pairs).T
        if s < t:
            assert np.array_equal(got, want), (s, t)
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (s, t)


def test_kernel_context_is_shared_and_read_only():
    ctx = kernel_context(HexagonSpec(3, 5))
    assert kernel_context(HexagonSpec(3, 5)) is ctx
    with pytest.raises(ValueError):
        ctx.lines[2].a[1] = 0.0
    with pytest.raises(ValueError):
        ctx.logfact[0] = 1.0


# Probe positions for the mpmath comparisons: three seeded ones plus points
# far outside every line's oscillatory band, down to 1e-9 from either end.
_FAR = (1e-9, 0.002, 0.5, 0.998, 1.0 - 1e-9)


def _same_line_pairs(p, q):
    # s = t across the regimes, and s > t pairs inside and across them
    n = p + q - 1
    same = [(s, s) for s in (1, p // 2, p, p + 1, (p + q) // 2, q, q + 1, n - 3, n)]
    return same + [(p + 3, p), (q + 2, q - 1), (n, 1), (p, 1), ((p + q) // 2, p // 2), (n, q)]


@pytest.mark.parametrize("p,q", [(64, 192), (256, 768)])
def test_tower_matches_mpmath(p, q):
    # the orthonormal tower, scaled by the returned exponent, against p_n(x)
    # = P~_n / sqrt(N_n) at 60 digits: every value to 1e-10 of the largest
    ctx = kernel_context(HexagonSpec(p, q))
    xs = np.concatenate([np.random.default_rng(p).random(3), _FAR])
    for t in sorted({s for pair in _same_line_pairs(p, q) for s in pair}):
        d = ctx.lines[t - 1]
        expo, psi = _tower(d, xs, d.ea, d.eb)
        assert np.all(np.abs(psi).max(axis=0) == 1.0)
        for j, x in enumerate(xs):
            scale = mp.mpf(x) ** d.ea * (1 - mp.mpf(x)) ** d.eb / mp.exp(mp.mpf(expo[j]) - d.half_log_n0)
            want = [float(v * scale) for v in mp_kernel.orthonormal(p, q, t, float(x))]
            assert np.max(np.abs(psi[:, j] - want)) <= 1e-10, (t, x)


@pytest.mark.parametrize("p,q", [(64, 192), (256, 768)])
def test_same_line_entries_match_mpmath(p, q):
    # Every s >= t entry against the 60-digit reference, out-of-band points
    # included.  Within the range of a double: s = t entries to a relative
    # 1e-10; s > t sums cancel (by 1e4 here), so their error is held to 1e-10
    # of the sum of the absolute values of their terms.  Beyond the range the
    # entry must raise; below 1e-290 it must come out as tiny.
    ctx = kernel_context(HexagonSpec(p, q))
    rng = np.random.default_rng(5 + p)
    counts = {"checked": 0, "raised": 0}
    for s, t in _same_line_pairs(p, q):
        pts = np.concatenate([rng.random(3), _FAR])
        try:
            block = kernel_matrix(ctx, s, pts, t, pts)
        except OverflowError:
            block = None  # some entry overflows; go entry by entry
        for i, y in enumerate(map(float, pts)):
            for j, x in enumerate(map(float, pts)):
                want, size = mp_kernel.entry(p, q, s, y, t, x)
                if abs(want) > DBL_MAX:
                    assert block is None
                    with pytest.raises(OverflowError):
                        kernel_eval(ctx, s, y, t, x)
                    counts["raised"] += 1
                    continue
                got = kernel_eval(ctx, s, y, t, x) if block is None else block[i, j]
                if abs(want) < 1e-290:
                    assert abs(got) < 1e-280, (s, y, t, x)
                    continue
                bound = 1e-10 * (abs(want) if s == t else size)
                assert abs(got - want) <= bound, (s, y, t, x, got, want)
                counts["checked"] += 1
    assert counts["checked"] > 400 and counts["raised"] > 50


def test_overflowing_entry_raises_with_its_place():
    # K(384, y; 384, x) = -2.199e319 at (256, 768) by the 60-digit reference
    y, x = 0.010953, 0.973261
    assert mp_kernel.entry(256, 768, 384, y, 384, x)[0] < mp.mpf("-2.19e319")
    ctx = kernel_context(HexagonSpec(256, 768))
    msg = r"K\(384, y; 384, x\) at \(y, x\) = \(0\.010953, 0\.973261\).*log10\|K\| = 319\.3"
    with pytest.raises(OverflowError, match=msg):
        kernel_matrix(ctx, 384, [0.5, y], 384, [0.3, x])


def test_tower_overflow_raises_instead_of_nan():
    # at (1024, 3072) the growth of a tower outruns a double: raise, not nan
    ctx = kernel_context(HexagonSpec(1024, 3072))
    with pytest.raises(OverflowError, match=r"Jacobi tower \(0, 2048\) of degree 1023"):
        line_density(ctx, 1024, [0.5, 0.999])


def test_count_identity_every_line_256_768():
    # the default node count integrates the degree p+q-2 integrand exactly
    assert count_identity_error([HexagonSpec(256, 768)]) < 1e-8


def test_count_identity_512_1536():
    p, q = 512, 1536
    spec = HexagonSpec(p, q)
    ctx = kernel_context(spec)
    lines = {1, p - 1, p, p + 1, q - 1, q, q + 1, p + q - 1} | set(range(16, p + q, 16))
    for t in sorted(lines):
        assert abs(expected_count(ctx, t) - particles_per_line(spec, t)) < 1e-8, t
