"""Exact correlation kernel: closed forms, projection identities, oracle checks."""

import collections
import hashlib
import math
import re
import sys
import tracemalloc
from math import factorial

import mpmath as mp
import numpy as np
import pytest

from beadproc import kernel as kernel_module
from beadproc.checks import bulk_offsets, count_identity_error
from beadproc.kernel import (
    _jacobi_dyadic,
    _phi_family,
    _psi_family,
    _tower,
    _unit_gauge,
    expected_count,
    kernel_context,
    kernel_eval,
    kernel_matrix,
    line_density,
    npoint_correlation,
)
from beadproc.model import HexagonSpec, particles_per_line
from beadproc.scaling import bulk_convergence_probe, scaling_context, support_interval

import bruteforce
import fraction_kernel
import mp_kernel
from jacobi_reference import JacobiIndex, jacobi_shifted, line_marginal_unnormalized

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


@pytest.mark.parametrize("p,q", [(2, 3), (4, 12), (64, 192)])
def test_each_line_sum_has_its_exact_mean_and_variance(p, q):
    # A_t, the sum of line t's positions, has E = t p/N - max(0, t - q) =
    # int x rho_t and Var = t (N-t) p q / (N^2 (N^2-1)) =
    # 1/2 iint (x-y)^2 K(t,x;t,y) K(t,y;t,x), N = p + q.  Both integrands are
    # of degree at most N in each variable, which N//2 + 3 Gauss-Legendre
    # nodes integrate exactly (worst relative error 6.9e-13, at (64, 192))
    N = p + q
    spec = HexagonSpec(p, q)
    ctx = kernel_context(spec)
    x, w = _gl(N // 2 + 3)
    for t in spec.lines():
        K = kernel_matrix(ctx, t, x, t, x)
        mean = w @ (x * line_density(ctx, t, x))
        var = 0.5 * np.einsum("i,j,ij,ij,ji->", w, w, (x[:, None] - x[None, :]) ** 2, K, K)
        assert mean == pytest.approx(t * p / N - max(0, t - q), rel=1e-11), t
        assert var == pytest.approx(t * (N - t) * p * q / (N * N * (N * N - 1)), rel=1e-11), t


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4)])
def test_counts_on_two_lines_do_not_co_vary(p, q):
    # Bead counts are fixed, so for s < t iint K(s,y;t,x) K(t,x;s,y) dy dx = 0.
    # The propagator jumps on the diagonal, so each triangle takes its own
    # Gauss-Legendre rule in Duffy coordinates, p + q + 2 nodes per side:
    # y < x as (x, y) = (u, uv) and y > x as (y, x) = (u, uv), weight u.
    spec = HexagonSpec(p, q)
    ctx = kernel_context(spec)
    u, w = _gl(p + q + 2)
    uv = u[:, None] * u[None, :]
    U = np.broadcast_to(u[:, None], uv.shape)
    Y, X = np.array([uv, U]), np.array([U, uv])  # y < x, then y > x
    weight = np.broadcast_to((w * u)[:, None] * w[None, :], Y.shape)
    worst = 0.0
    for s in spec.lines():
        for t in range(s + 1, spec.n_lines + 1):
            value = np.sum(weight * kernel_eval(ctx, s, Y, t, X) * kernel_eval(ctx, t, X, s, Y))
            worst = max(worst, abs(value))
    assert worst < 1e-13


def test_line_density_matches_diagonal():
    ctx = kernel_context(HexagonSpec(2, 3))
    xs = np.linspace(0.1, 0.9, 7)
    for t in (1, 3):
        dens = line_density(ctx, t, xs)
        for i, x in enumerate(xs):
            assert dens[i] == pytest.approx(kernel_eval(ctx, t, float(x), t, float(x)), rel=1e-12)
        assert np.all(dens >= -1e-12)
    # kernel_matrix scales its tower's columns to max |psi| = 1 and
    # line_density sums the unscaled rows: the two paths agree on every third
    # line, where no off-diagonal entry of the block is beyond a double
    for p, q in [(64, 192), (256, 768)]:
        ctx = kernel_context(HexagonSpec(p, q))
        rng = np.random.default_rng(p)
        checked = 0
        for t in range(1, p + q, 3):
            xs = np.sort(rng.random(8))
            try:
                diag = np.diag(kernel_matrix(ctx, t, xs, t, xs))
            except OverflowError:
                continue
            assert line_density(ctx, t, xs) == pytest.approx(diag, rel=1e-12), (p, q, t)
            checked += 1
        assert checked > (p + q) // 4, (p, q, checked)


def test_line_density_of_small_lines_to_a_few_ulps():
    # the density is one exp of a summed exponent; on two lines of (4, 12),
    # at 200 midpoints, it stays within 80 ulps of the 60-digit reference,
    # 20 on average
    ctx = kernel_context(HexagonSpec(4, 12))
    xs = (np.arange(200) + 0.5) / 200
    for t in (5, 9):
        got = line_density(ctx, t, xs)
        want = [mp_kernel.entry(4, 12, t, x, t, x)[0] for x in map(float, xs)]
        ulps = np.array([float(abs(mp.mpf(g) - w)) / np.spacing(float(w)) for g, w in zip(got, want)])
        assert ulps.max() <= 80 and ulps.mean() <= 20, (t, ulps.max(), ulps.mean())


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
    with pytest.raises(TypeError, match=r"^line s must be an integer in 1\.\.4, got 1\.7$"):
        npoint_correlation(ctx, [(1.7, 0.3)])
    with pytest.raises(TypeError, match=r"^line t must be an integer in 1\.\.4, got 2\.5$"):
        kernel_eval(ctx, 1, 0.3, np.array([2.5, 3.0]), 0.5)
    with pytest.raises(TypeError, match=r"^line s must be an integer in 1\.\.4, got 1\.0$"):
        kernel_matrix(ctx, 1.0, [0.3], 4, [0.5])
    with pytest.raises(TypeError, match=r"^line t must be an integer in 1\.\.4, got 4\.0$"):
        kernel_matrix(ctx, 1, [0.3], 4.0, [0.5])


@pytest.mark.parametrize("true", [True, np.True_])
def test_bool_lines_and_node_counts_are_refused(true):
    # True used to be taken as line 1 by kernel_matrix and line_density, and
    # as a 1-node rule by expected_count (1.5000000000000009 on line 1)
    ctx = kernel_context(HexagonSpec(2, 3))
    with pytest.raises(TypeError, match=r"^line s must be an integer in 1\.\.4, got (np\.)?True_?$"):
        kernel_matrix(ctx, true, [0.3], 1, [0.5])
    with pytest.raises(TypeError, match=r"^line t must be an integer in 1\.\.4, got (np\.)?True_?$"):
        kernel_matrix(ctx, 2, [0.3], true, [0.5])
    with pytest.raises(TypeError, match=r"^line t must be an integer in 1\.\.4, got (np\.)?True_?$"):
        line_density(ctx, true, [0.3])
    with pytest.raises(TypeError, match=r"^line t must be an integer in 1\.\.4, got (np\.)?True_?$"):
        expected_count(ctx, true)
    with pytest.raises(TypeError, match=r"^line s must be an integer in 1\.\.4, got True$"):
        kernel_eval(ctx, true, 0.3, 1, 0.5)
    with pytest.raises(TypeError, match=r"^line s must be an integer in 1\.\.4, got True$"):
        npoint_correlation(ctx, [(true, 0.3)])
    with pytest.raises(TypeError, match=r"^nodes must be an integer >= 1, got (np\.)?True_?$"):
        expected_count(ctx, 1, nodes=true)


def test_line_density_and_expected_count_name_the_valid_range():
    # a float line raised "tuple indices must be integers" and nodes = 0
    # numpy's "deg must be a positive integer"; each call now names its rule
    ctx = kernel_context(HexagonSpec(2, 3))
    with pytest.raises(TypeError, match=r"^line t must be an integer in 1\.\.4, got 2\.0$"):
        line_density(ctx, 2.0, [0.3, 0.6])
    with pytest.raises(TypeError, match=r"^line t must be an integer in 1\.\.4, got 2\.5$"):
        expected_count(ctx, 2.5)
    for nodes in (0, -3, 1.5):
        error = ValueError if type(nodes) is int else TypeError
        with pytest.raises(error, match=f"^nodes must be an integer >= 1, got {nodes}$"):
            expected_count(ctx, 2, nodes=nodes)
    assert line_density(ctx, np.int64(2), 0.3) == line_density(ctx, 2, 0.3)
    assert abs(expected_count(ctx, 2, nodes=np.int32(3)) - 2.0) < 1e-12


def test_numpy_integer_lines_match_python_ints():
    # numpy integers reach the exact s != t arithmetic as Python ints, where
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


def test_jacobi_dyadic_recurrence_matches_binomial_sum():
    # the integer recurrence against the binomial double sum at dyadic points,
    # negative parameters included: Q_n = sum_k c_k m^k 2^(e(n-k))
    points = [(1, 1), (1, 2), (3, 2), (5, 3), (-3, 2), (7, 4), (1023, 10), (12345, 17)]
    for a in range(-15, 16):
        for b in range(-a, 16):
            for m, e in points:
                got = _jacobi_dyadic(a, b, 11, m, e)
                for n in range(12):
                    coeffs = fraction_kernel.jacobi_monomial_coeffs(n, a, b)
                    assert got[n] == sum(c * m**k << e * (n - k) for k, c in enumerate(coeffs)), (n, a, b, m, e)
    assert _jacobi_dyadic(2, -2, 0, 1, 1) == [1]
    for a, b in [(-1, 0), (3, -4), (-15, -15)]:
        with pytest.raises(ValueError, match="a \\+ b >= 0"):
            _jacobi_dyadic(a, b, 5, 1, 1)


@pytest.mark.parametrize("F_guard", [8, 64])
def test_jacobi_dyadic_fixed_point_error_bound(F_guard):
    # every fixed-point row is within its bound of 2^F P~_n, against the exact
    # rows Q_n = 2^(e n) P~_n: |row_n 2^(e n) - 2^F Q_n| <= eps_n 2^(e n);
    # negative a or b with a + b >= 0, degree 48, and positions from the
    # smallest subnormal to the last double below 1 (e up to 1074)
    floats = [5e-324, 1e-300, 2.0**-60, 0.001, 0.3, 0.5, 0.6211568675918816, 0.999, 1.0 - 2.0**-53]
    points = [kernel_module._dyadic(v) for v in floats] + [((1 << 1074) - 1, 1074)]
    for a, b in [(0, 0), (-7, 7), (-15, 40), (31, -30), (-1, 1), (40, 0), (2, 60)]:
        for m, e in points:
            exact = _jacobi_dyadic(a, b, 48, m, e)
            F = e + F_guard
            rows, eps = _jacobi_dyadic(a, b, 48, m, e, F)
            assert len(rows) == len(eps) == 49 and eps[:2] == [0, 0]
            for n, (row, q, err) in enumerate(zip(rows, exact, eps)):
                assert abs((row << e * n) - (q << F)) <= err << e * n, (a, b, m, e, n)


def test_cross_families_hold_one_scale_per_degree():
    # the ints cached for one family at (256, 768) stay under 1 MB (~31 KB
    # measured), where integer monomial coefficient tables held up to 23 MB;
    # every family's parameters satisfy the recurrence's a + b >= 0
    p, q = 256, 768
    psis = [_psi_family(p, q, s) for s in (1, p, 2 * p, q, q + 1, p + q - 2)]
    phis = [_phi_family(p, q, t) for t in (2, p, p + 1, 2 * p, q, q + 1, p + q - 1)]
    for fam in psis + phis:
        assert fam.a + fam.b >= 0
        assert sum(map(sys.getsizeof, (*fam.scales, fam.num, fam.den))) < 2**20


def _cross_line_pairs(p, q):
    # every s < t when the fan is small; otherwise lines around 1, p, q and the
    # top, each paired at gaps t - s - 1 of 0, 1 and 2
    n = p + q - 1
    if n <= 12:
        return [(s, t) for s in range(1, n) for t in range(s + 1, n + 1)]
    anchors = {1, p - 1, p, p + 1, (p + q) // 2, q - 1, q, q + 1, n - 4}
    return [(s, s + d) for s in sorted(anchors) for d in (1, 2, 3) if 1 <= s and s + d <= n]


def _cross_case(p, q, s, t):
    # which branch each family takes, the direction, and the line gap
    # |t - s| - 1 capped at 2
    return (s > q, "t<=p" if t <= p else "t<=q" if t <= q else "t>q", s < t, min(abs(t - s) - 1, 2))


def _cross_points(rng):
    # a point shared by both sides, two seeded ones each, and y/2, (1+y)/2
    shared = float(rng.uniform(0.05, 0.95))
    ys = np.array([shared, *rng.uniform(0.05, 0.95, 2)])
    xs = np.array([shared, *rng.uniform(0.05, 0.95, 2), ys[1] / 2, (1 + ys[1]) / 2])
    return ys, xs


def _fraction_cases(p, q):
    # (s, ys, xs, t) of the Fraction bit-identity test: s < t, every pair
    # mirrored to s > t, and the widest gap, from the top line to line 1
    rng = np.random.default_rng(97 * p + q)
    pairs = _cross_line_pairs(p, q)
    for s, t in dict.fromkeys(pairs + [(t, s) for s, t in pairs] + [(p + q - 1, 1)]):
        yield (s, *_cross_points(rng), t)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (2, 3), (3, 7), (4, 4), (5, 9), (12, 12), (20, 60)])
def test_cross_block_bit_identical_to_fraction_reference(p, q):
    # the integer fixed-point path must round the same rationals as the
    # Fraction route, s < t and the mirrored s > t: equality, not closeness
    spec = HexagonSpec(p, q)
    ctx = kernel_context(spec)
    n = spec.n_lines
    covered = set()
    for s, ys, xs, t in _fraction_cases(p, q):
        got = kernel_matrix(ctx, s, ys, t, xs)
        want = fraction_kernel.cross_block(p, q, s, ys, t, xs)
        assert np.array_equal(got, want), (p, q, s, t)
        covered.add(_cross_case(p, q, s, t))
    assert covered == {_cross_case(p, q, s, t) for s in range(1, n + 1) for t in range(1, n + 1) if s != t}


def _record_rungs(monkeypatch, key=lambda e, F: F):
    # key(e, F) of every _jacobi_dyadic call, e the point's dyadic exponent and
    # F its precision, None on the exact rung; by default F alone
    seen, dyadic = [], kernel_module._jacobi_dyadic

    def recorded(a, b, deg, m, e, F=None):
        seen.append(key(e, F))
        return dyadic(a, b, deg, m, e, F)

    monkeypatch.setattr(kernel_module, "_jacobi_dyadic", recorded)
    return seen


def _exact_rung(monkeypatch, call):
    # call() with every cross-line block starting on the exact rung
    with monkeypatch.context() as m:
        m.setattr(kernel_module, "_EXACT_BITS", math.inf)
        return call()


def test_fraction_cases_reach_the_fixed_point_rung(monkeypatch):
    # the Fraction reference covers the fixed-point rungs: at (20, 60) most
    # blocks take them; at (2, 3) the exact rows are short, and every block
    # starts on the exact rung
    seen = _record_rungs(monkeypatch)
    ctx = kernel_context(HexagonSpec(20, 60))
    for s, ys, xs, t in _fraction_cases(20, 60):
        kernel_matrix(ctx, s, ys, t, xs)
    assert sum(F is not None for F in seen) > len(seen) // 2
    seen.clear()
    ctx = kernel_context(HexagonSpec(2, 3))
    for s, ys, xs, t in _fraction_cases(2, 3):
        kernel_matrix(ctx, s, ys, t, xs)
    assert seen and set(seen) == {None}


def test_fixed_point_rung_keeps_the_sign_of_zero(monkeypatch):
    # these entries at (128, 384) cancel to a value that rounds to +0.0; the
    # first rung's bracket straddles zero, with ends -0.0 and +0.0, which ==
    # alone would have taken.  They climb a rung and keep the exact bytes.
    ctx = kernel_context(HexagonSpec(128, 384))
    for s, y, t, x in [(209, 0.4226979810939507, 468, 0.7260780103681115), (210, 0.6073995843069845, 441, 0.4837985004999605)]:
        seen = _record_rungs(monkeypatch)
        got = kernel_matrix(ctx, s, [y], t, [x])
        assert len({F for F in seen if F is not None}) == 2 and None not in seen
        want = _exact_rung(monkeypatch, lambda: kernel_matrix(ctx, s, [y], t, [x]))
        assert got.tobytes() == want.tobytes() == np.zeros((1, 1)).tobytes(), (s, t)


def test_cancelling_entry_climbs_a_rung(monkeypatch):
    # s < t, y two doubles below x: the rank-p sum and the propagator cancel
    # to -9.8e-288, beyond the first rung's bracket
    ctx = kernel_context(HexagonSpec(64, 192))
    y, x = 0.6211568675918816, 0.6211568675918818
    assert math.nextafter(math.nextafter(x, 0), 0) == y
    seen = _record_rungs(monkeypatch)
    got = kernel_matrix(ctx, 87, [y], 206, [x])
    assert len({F for F in seen if F is not None}) >= 2
    want = _exact_rung(monkeypatch, lambda: kernel_matrix(ctx, 87, [y], 206, [x]))
    assert got.tobytes() == want.tobytes() and -1e-287 < got[0, 0] < -1e-288


def test_fixed_point_overflow_raises_the_exact_message(monkeypatch):
    # K(132, y; 1, x) at (64, 192) is beyond a double at y = 0.05 (10^332) and finite
    # at y = 0.95 and 0.3: the first rung's division overflows, that entry
    # goes straight to the exact rung, and the block raises the exact path's
    # message for its first such entry in row order, byte for byte
    ctx = kernel_context(HexagonSpec(64, 192))
    ys, xs = [0.95, 0.05, 0.3], [0.5, 0.95]
    seen = _record_rungs(monkeypatch)
    with pytest.raises(OverflowError) as fast:
        kernel_matrix(ctx, 132, ys, 1, xs)
    assert len(set(seen)) == 2 and None in seen  # one fixed-point rung, then the exact one
    with pytest.raises(OverflowError) as exact:
        _exact_rung(monkeypatch, lambda: kernel_matrix(ctx, 132, ys, 1, xs))
    assert str(fast.value) == str(exact.value) == (
        "K(132, y; 1, x) at (y, x) = (0.05, 0.5) is beyond the range of a double: log10|K| = 332.0"
    )
    assert np.isfinite(kernel_matrix(ctx, 132, [0.95, 0.3], 1, xs)).all()


def test_far_point_keeps_the_near_points_precision(monkeypatch):
    # y = 1e-300 sits about 1000 bits finer than the other points; rung 0
    # takes each point 64 bits beyond the block's finest position but at
    # most 128 beyond its own, so the near points' rows stay within e + 128
    # bits instead of the far point's e_top + 64 (about 1113)
    ctx = kernel_context(HexagonSpec(64, 192))
    ys, xs = [0.41, 0.52, 1e-300], [0.38, 0.47, 0.55]
    seen = _record_rungs(monkeypatch, lambda e, F: (e, F))
    got = kernel_matrix(ctx, 128, ys, 129, xs)
    near = [(e, F) for e, F in seen[: len(ys) + len(xs)] if e < 64]  # rung 0 computes every point first
    assert len(near) == 5 and all(F <= e + 128 for e, F in near), near
    want = _exact_rung(monkeypatch, lambda: kernel_matrix(ctx, 128, ys, 129, xs))
    assert got.tobytes() == want.tobytes()


def _rung(e, F):
    # the rung of a _jacobi_dyadic call: k for F = (min(e_top, e + _GUARD) +
    # _GUARD) << k, or "exact"
    return "exact" if F is None else (F // (e + kernel_module._GUARD)).bit_length() - 1


# sha256 of the cross-line blocks below, computed with the exact integer path
# that preceded the fixed-point rungs, and the _jacobi_dyadic calls each rung
# makes over them, the entry-by-entry retries of a raising block included
_CROSS_DIGESTS = {
    (64, 192): "4de0c274bf739d38ebf898ef214afb0d4d279f152fcb7a3a0d16d742c95a9fa8",
    (128, 384): "d134581b864907b7e7595a72e93f8146adbdc2dde948b924827901e28a4f58a6",
}
_CROSS_RUNGS = {
    (64, 192): {0: 440, 1: 23, "exact": 38},
    (128, 384): {0: 440, 1: 197, 2: 4, "exact": 38},
}


@pytest.mark.parametrize("p,q", list(_CROSS_DIGESTS))
def test_cross_blocks_match_the_pinned_digest(monkeypatch, p, q):
    # bit-identity where the Fraction reference is too slow and the
    # fixed-point rungs do the work: the blocks of _cross_line_pairs both
    # ways, plus the widest gap both ways, whose entries are all beyond a
    # double; a block that raises is hashed entry by entry, by each
    # entry's bytes or OverflowError message.  The rung counts gate the
    # work: a change that keeps every bit can still climb more rungs.
    seen = _record_rungs(monkeypatch, _rung)
    ctx = kernel_context(HexagonSpec(p, q))
    rng = np.random.default_rng(7 * p + q)
    n = p + q - 1
    pairs = _cross_line_pairs(p, q)
    digest, raised = hashlib.sha256(), 0
    for s, t in pairs + [(t, s) for s, t in pairs] + [(n, 1), (1, n)]:
        ys, xs = _cross_points(rng)
        try:
            digest.update(kernel_matrix(ctx, s, ys, t, xs).tobytes())
        except OverflowError:
            for y in ys:
                for x in xs:
                    try:
                        digest.update(kernel_matrix(ctx, s, [y], t, [x]).tobytes())
                    except OverflowError as err:
                        digest.update(str(err).encode())
                        raised += 1
    assert raised == 15
    assert digest.hexdigest() == _CROSS_DIGESTS[p, q]
    assert dict(collections.Counter(seen)) == _CROSS_RUNGS[p, q]


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
    calls, entries = [], kernel_module._entries

    def counted(ctx, s, ys, t, xs, i, j):
        calls.append((s, t))
        return entries(ctx, s, ys, t, xs, i, j)

    monkeypatch.setattr(kernel_module, "_entries", counted)
    bulk_convergence_probe(2.0, 2.0, 16, bulk_offsets(2))  # 125 offsets on 5 line pairs
    assert len(calls) == 5
    calls.clear()
    ctx = kernel_context(HexagonSpec(2, 3))
    npoint_correlation(ctx, [(2, 0.3), (3, 0.6), (2, 0.8)])
    assert sorted(calls) == [(2, 2), (2, 3), (3, 2), (3, 3)]


def test_kernel_eval_forms_only_the_requested_entries(monkeypatch):
    # 40 scattered (y, x) on lines 3 -> 5 of (4, 12): the rungs run over the
    # 40 requested entries, not the 40 x 40 block of their distinct points,
    # and each is the one-at-a-time entry, bit for bit
    ctx = kernel_context(HexagonSpec(4, 12))
    y, x = np.random.default_rng(4).random((2, 40))
    sizes, block = [], kernel_module._cross_block

    def counted(*args):
        out = block(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(kernel_module, "_cross_block", counted)
    got = kernel_eval(ctx, 3, y, 5, x)
    assert sizes == [40]
    want = np.array([kernel_matrix(ctx, 3, yi, 5, xi)[0, 0] for yi, xi in zip(y, x)])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [16, 32])
def test_bulk_probe_matches_entrywise_blocks(p):
    # s != t entries are exact, so batching cannot move them; s = t entries
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
        if s != t:
            assert np.array_equal(got, want), (s, t)
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (s, t)


def test_kernel_context_is_shared_and_read_only():
    ctx = kernel_context(HexagonSpec(3, 5))
    assert kernel_context(HexagonSpec(3, 5)) is ctx
    with pytest.raises(ValueError):
        ctx.lines[2].a[1] = 0.0


@pytest.mark.parametrize("p,q", [(7, 9), (64, 192), (256, 768), (1024, 3072)])
def test_mirror_lines_share_one_off_diagonal_and_no_diagonal_table(p, q):
    # line p+q-t swaps pa and pb, which leaves a unchanged and flips b; each
    # line's a and b are bit for bit the Jacobi coefficients of its own
    # (pa, pb), as a per-line table would hold them
    ctx = kernel_context(HexagonSpec(p, q))
    for t, d in enumerate(ctx.lines, start=1):
        pa, pb, s = abs(p - t), abs(q - t), abs(p - t) + abs(q - t)
        n = np.arange(d.r - 1)
        m = n + 1
        a = np.sqrt(4.0 * m * (m + pa) * (m + pb) * (m + s) / ((2 * m + s) ** 2 * (2 * m + s + 1.0) * (2 * m + s - 1)))
        b = (pb * pb - pa * pa) / (np.maximum(2 * n + s, 1) * (2 * n + s + 2))
        if 2 * t > p + q:
            assert d.a is ctx.lines[p + q - t - 1].a, t
        assert d.a.tobytes() == a.tobytes(), t
        assert not d.a.flags.writeable and not d.den.flags.writeable, t
        assert ((d.pb * d.pb - d.pa * d.pa) / d.den).tobytes() == b.tobytes(), t


def test_kernel_context_holds_a_quarter_of_two_tables_per_line():
    # at (256, 768) one a per mirror pair is 0.75 MiB; an a and a b on every
    # line held 3.4 MiB
    build = kernel_module.kernel_context.__wrapped__  # past the cache, so the context is built here
    tracemalloc.start()
    try:
        ctx = build(HexagonSpec(256, 768))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ctx.lines) == 1023
    assert held <= 1.5 * 2**20, held / 2**20


# Probe positions for the mpmath comparisons: three seeded ones plus points
# far outside every line's oscillatory band, down to 1e-9 from either end.
_FAR = (1e-9, 0.002, 0.5, 0.998, 1.0 - 1e-9)


def _same_line_pairs(p, q):
    # s = t across the regimes, and s > t pairs inside and across them
    n = p + q - 1
    same = [(s, s) for s in (1, p // 2, p, p + 1, (p + q) // 2, q, q + 1, n - 3, n)]
    return same + [(p + 3, p), (q + 2, q - 1), (n, 1), (p, 1), ((p + q) // 2, p // 2), (n, q)]


@pytest.mark.parametrize("p", [16, 64, 128, 256])
def test_reflection_symmetry(p):
    # (t, x) -> (p+q-t, 1-x) maps the fan onto itself, line p onto line q and
    # s < t entries onto s > t entries: a 2-point function and its mirror
    # take each off-diagonal pair from the other direction, exact through
    # different incoming/outgoing families, at sizes no Fraction oracle reaches
    q = 3 * p
    ctx = kernel_context(HexagonSpec(p, q))

    def reflect(points):
        return [(p + q - t, 1.0 - x) for t, x in points]

    pairs = [
        [(p - 1, 0.3), (p + 1, 0.6)],
        [(q - 2, 0.7), (q + 1, 0.4)],
        [(p, 0.45), (p, 0.55)],
        [(q + 1, 0.2), (q - 1, 0.8)],
        [(2, 0.25), (5, 0.3)],
    ]
    for points in pairs:
        rho, mirror = npoint_correlation(ctx, points), npoint_correlation(ctx, reflect(points))
        assert rho > 0.0
        assert abs(rho - mirror) <= 1e-11 * abs(rho), (points, rho, mirror)
    for t in (2, p, q):
        c, d = support_interval(2.0, t / p)  # inside the band, where no value underflows
        xs = c + (d - c) * np.linspace(0.05, 0.95, 19)
        dens, mirror = line_density(ctx, t, xs), line_density(ctx, p + q - t, 1.0 - xs)
        assert np.all(dens > 0.0)
        assert np.all(np.abs(dens - mirror) <= 1e-11 * dens), t


@pytest.mark.parametrize("p,q", [(64, 192), (256, 768)])
def test_tower_matches_mpmath(p, q):
    # the unscaled tower, which starts from psi[0] = e^c with c = -G in
    # [-700, 0], scaled by the returned exponent, against p_n(x) = P~_n /
    # sqrt(N_n) at 60 digits: every value to 1e-10 of its column's largest
    ctx = kernel_context(HexagonSpec(p, q))
    xs = np.concatenate([np.random.default_rng(p).random(3), _FAR])
    for t in sorted({s for pair in _same_line_pairs(p, q) for s in pair}):
        d = ctx.lines[t - 1]
        lx, l1x, G, psi = _tower(d, xs)
        assert lx.tobytes() == np.log(xs).tobytes() and l1x.tobytes() == np.log1p(-xs).tobytes()
        assert psi[0].tobytes() == np.exp(-G).tobytes() and np.all((-700 <= -G) & (-G <= 0))
        for j, x in enumerate(xs):
            scale = 1 / mp.exp(mp.mpf(G[j]) - d.half_log_n0)
            want = [float(v * scale) for v in mp_kernel.orthonormal(p, q, t, float(x))]
            top = np.max(np.abs(psi[:, j]))
            assert np.max(np.abs(psi[:, j] - want)) <= 1e-10 * top, (t, x)


def test_unit_gauge_stays_near_one():
    # chi_n = p_n / g_n runs in the e^300 headroom of _tower only while the
    # gauge factors stay near 1; every line up to (512, 1536) keeps them
    # within two decades, and no line density at (512, 1536) raises
    for p, q in [(64, 192), (256, 768), (512, 1536)]:
        for t, d in enumerate(kernel_context(HexagonSpec(p, q)).lines, start=1):
            g = _unit_gauge(d.a)[0]
            assert np.all((1e-2 <= g) & (g <= 1e2)), (p, q, t, g.min(), g.max())
    ctx = kernel_context(HexagonSpec(512, 1536))
    xs = np.concatenate([np.random.default_rng(512).random(3), _FAR])
    for t in ctx.spec.lines():
        assert np.all(np.isfinite(line_density(ctx, t, xs))), t
    # on the one-bead line 1 the density at 1e-9 is about 1e-4600: the sum of
    # squares underflows, and the value is 0.0
    assert line_density(ctx, 1, 1e-9) == 0.0 < line_density(ctx, 1, 0.5)


def test_tower_columns_do_not_depend_on_the_other_points():
    # the premise of running one tower over the union of a block's rows and
    # columns: column j of a many-point tower is the one-point tower of u[j],
    # bit for bit, out-of-band points included
    p, q = 256, 768
    ctx = kernel_context(HexagonSpec(p, q))
    u = np.sort(np.concatenate([np.random.default_rng(p).random(5), _FAR]))
    for t in sorted({s for pair in _same_line_pairs(p, q) for s in pair}):
        d = ctx.lines[t - 1]
        full = _tower(d, u)
        for j in range(u.size):
            for whole, alone in zip(full, _tower(d, u[[j]])):
                assert whole[..., j].tobytes() == alone[..., 0].tobytes(), (t, u[j])


def test_same_line_block_runs_one_tower(monkeypatch):
    calls = []

    def counted(d, x):
        calls.append(x.size)
        return _tower(d, x)

    monkeypatch.setattr(kernel_module, "_tower", counted)
    ctx = kernel_context(HexagonSpec(4, 12))
    xs = np.array([0.2, 0.45, 0.7])
    kernel_matrix(ctx, 5, xs, 5, xs)
    assert calls == [3]
    calls.clear()
    kernel_matrix(ctx, 5, [0.1, 0.45], 5, xs)
    assert calls == [4]  # the distinct union of both sides
    calls.clear()
    npoint_correlation(ctx, [(5, 0.2), (5, 0.45), (9, 0.3), (5, 0.7), (9, 0.6)])
    assert sorted(calls) == [2, 3]  # one tower per same-line block; s != t takes none


def test_empty_sides_give_empty_blocks():
    ctx = kernel_context(HexagonSpec(4, 12))
    for s, t in [(5, 5), (3, 9), (9, 3)]:
        assert kernel_matrix(ctx, s, [], t, []).shape == (0, 0)
        assert kernel_matrix(ctx, s, [0.2, 0.6], t, []).shape == (2, 0)
        assert kernel_matrix(ctx, s, [], t, [0.3, 0.5, 0.9]).shape == (0, 3)


@pytest.mark.parametrize("s,t", [(1, 2), (1, 1), (2, 1)])
def test_kernel_matrix_refuses_positions_of_more_than_one_dimension(monkeypatch, s, t):
    # a row array of shape (1, 2) reached the exact arithmetic (AttributeError)
    # or numpy's concatenate (ValueError) before; now no work starts
    def fail(*args):
        raise AssertionError("no block is built")

    monkeypatch.setattr(kernel_module, "_tower", fail)
    monkeypatch.setattr(kernel_module, "_cross_block", fail)
    ctx = kernel_context(HexagonSpec(2, 3))
    rule = "positions must be a scalar or a 1-D array, got shape"
    with pytest.raises(ValueError, match=rf"^row {rule} \(1, 2\)$"):
        kernel_matrix(ctx, s, [[0.2, 0.3]], t, [0.4])
    with pytest.raises(ValueError, match=rf"^column {rule} \(2, 1\)$"):
        kernel_matrix(ctx, s, 0.4, t, [[0.2], [0.3]])
    with pytest.raises(ValueError, match=rf"^row {rule} \(1, 1, 1\)$"):
        kernel_matrix(ctx, s, [[[1.5]]], t, [0.4])  # the shape is named before the range


def test_line_density_keeps_the_shape_of_its_positions():
    ctx = kernel_context(HexagonSpec(2, 3))
    xs = np.array([[0.2, 0.3, 0.35], [0.4, 0.5, 0.9]])
    for t in (1, 2, 4):
        flat = line_density(ctx, t, xs.ravel())
        for given in (xs, xs.T, xs.tolist(), xs[:, :, None], xs[:0]):
            got = line_density(ctx, t, given)
            assert got.shape == np.shape(given)
            assert got.ravel().tobytes() == line_density(ctx, t, np.ravel(given)).tobytes()
        assert line_density(ctx, t, xs).tobytes() == flat.tobytes()
        assert line_density(ctx, t, 0.3) == flat[1] and type(line_density(ctx, t, 0.3)) is float
        assert line_density(ctx, t, [0.3]).shape == (1,)


@pytest.mark.parametrize("p,q", [(64, 192), (256, 768)])
def test_same_line_entries_match_mpmath(p, q):
    # Every s >= t entry against the 60-digit reference, out-of-band points
    # included.  Within the range of a double: s = t entries to a relative
    # 1e-10; the terms of the reference's s > t sums cancel (by 1e4 here), so
    # their error is held to 1e-10 of the sum of the absolute values of those
    # terms (the test below holds them to one ulp).  Beyond the range the
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


def test_cross_entries_below_the_diagonal_match_mpmath_to_one_ulp():
    # every s > t entry of _same_line_pairs at (256, 768) within the normal
    # range of a double is correctly rounded: the exact path loses no digits
    # where the terms of the 60-digit sum cancel
    p, q = 256, 768
    ctx = kernel_context(HexagonSpec(p, q))
    rng = np.random.default_rng(5 + p)
    checked = 0
    for s, t in _same_line_pairs(p, q):
        pts = np.concatenate([rng.random(3), _FAR])  # the points of the test above
        if s == t:
            continue
        for y in map(float, pts):
            for x in map(float, pts):
                want = mp_kernel.entry(p, q, s, y, t, x)[0]
                if not np.finfo(float).tiny <= abs(want) <= DBL_MAX:
                    continue
                got = kernel_matrix(ctx, s, [y], t, [x])[0, 0]
                assert abs(got - want) <= 2.3e-16 * abs(want), (s, y, t, x, got, want)
                checked += 1
    assert checked > 90


def test_cross_overflow_names_its_place():
    # K(256, 0.5; 1, 0.5) at (256, 768): log10|K| = 675.769 by the 60-digit
    # reference; the exact path raises the same message as the float path
    want = mp_kernel.entry(256, 768, 256, 0.5, 1, 0.5)[0]
    assert abs(float(mp.log10(abs(want))) - 675.769) < 5e-4
    ctx = kernel_context(HexagonSpec(256, 768))
    msg = r"^K\(256, y; 1, x\) at \(y, x\) = \(0\.5, 0\.5\) is beyond the range of a double: log10\|K\| = 675\.8$"
    with pytest.raises(OverflowError, match=msg):
        kernel_matrix(ctx, 256, [0.5], 1, [0.5])


def test_line_density_past_a_double_raises_without_a_warning(monkeypatch):
    # the tower's exponent shifted by 1000 puts every density past a double:
    # an OverflowError, not numpy's overflow warning first (the test
    # configuration makes warnings errors)
    tower = kernel_module._tower

    def shifted(d, x):
        lx, l1x, G, psi = tower(d, x)
        return lx, l1x, G + 1000.0, psi

    monkeypatch.setattr(kernel_module, "_tower", shifted)
    with pytest.raises(OverflowError, match=r"^Jacobi tower \(0, 1\) of degree 1 outgrows a double at x = 0\.3$"):
        line_density(kernel_context(HexagonSpec(2, 3)), 2, [0.3, 0.6])


def test_overflowing_entry_raises_with_its_place():
    # K(384, y; 384, x) = -2.199e319 at (256, 768) by the 60-digit reference
    y, x = 0.010953, 0.973261
    assert mp_kernel.entry(256, 768, 384, y, 384, x)[0] < mp.mpf("-2.19e319")
    ctx = kernel_context(HexagonSpec(256, 768))
    msg = r"K\(384, y; 384, x\) at \(y, x\) = \(0\.010953, 0\.973261\).*log10\|K\| = 319\.3"
    with pytest.raises(OverflowError, match=msg):
        kernel_matrix(ctx, 384, [0.5, y], 384, [0.3, x])


@pytest.mark.parametrize(
    "s,ys,t,xs,log10,want",
    [
        # same line: the block's (5.4e-06, 0.905) was not asked for
        (512, [5.4e-6, 0.5], 512, [0.5, 0.905], "308.4", [-5.182721918644463e182, -2.37557549794555e125]),
        # cross line: the same place, in the exact block
        (513, [5.4e-6, 0.5], 512, [5.4e-6, 0.905], "311.4", [0.0, 1.1227194905338454e128]),
    ],
)
def test_kernel_eval_ignores_an_unrequested_overflow(s, ys, t, xs, log10, want):
    ctx = kernel_context(HexagonSpec(256, 768))
    with pytest.raises(OverflowError, match=rf"\(y, x\) = \(5\.4e-06, 0\.905\).*log10\|K\| = {re.escape(log10)}$"):
        kernel_matrix(ctx, s, ys, t, xs)
    assert [float(kernel_matrix(ctx, s, y, t, x)[0, 0]) for y, x in zip(ys, xs)] == want
    assert kernel_eval(ctx, s, ys, t, xs).tolist() == want


def test_kernel_eval_names_the_first_requested_overflow():
    # both requested entries overflow; the block's first in row order is
    # (5.4e-06, 0.905), the caller's first is (2e-05, 0.95)
    ctx = kernel_context(HexagonSpec(256, 768))
    msg = r"^K\(512, y; 512, x\) at \(y, x\) = \(2e-05, 0\.95\) is beyond the range of a double: log10\|K\| = 340\.7$"
    with pytest.raises(OverflowError, match=msg):
        kernel_eval(ctx, 512, [2e-5, 5.4e-6], 512, [0.95, 0.905])


def test_tower_overflow_raises_instead_of_nan():
    # at (1024, 3072) the growth of a tower outruns a double: raise, not nan
    ctx = kernel_context(HexagonSpec(1024, 3072))
    with pytest.raises(OverflowError, match=r"Jacobi tower \(0, 2048\) of degree 1023"):
        line_density(ctx, 1024, [0.5, 0.999])
    # on line 512 at 0.998 the rows fit but their squares do not; that column
    # is scaled as in kernel_matrix, and the density is its diagonal
    xs = [0.3, 0.998]
    dens = line_density(ctx, 512, xs)
    assert np.all(np.isfinite(dens))
    assert dens[1] == pytest.approx(kernel_matrix(ctx, 512, xs[1:], 512, xs[1:])[0, 0], rel=1e-12)


# sha256 of the same-line values below, computed before the tower wrote its
# steps into its own rows, and how many of the values raised
_SAME_DIGESTS = {
    (64, 192): ("d84813fb9340c3b0b537b4e658ed3a34be9f9bb2c27cc62e146e90bbc03d646e", 0),
    (256, 768): ("d7331ca1e57dc8a0ca61ee2b7d8735892c0f45c2d5fbcc3c1565c69b3af59a90", 88),
    (1024, 3072): ("91a77f34f687710f23a2598da2beb331274df665449d5e161a6a9de21bf7889c", 1),
}


@pytest.mark.parametrize("p,q", list(_SAME_DIGESTS))
def test_same_line_values_match_the_pinned_digest(p, q):
    # bit-identity of every float the tower feeds: on every 4th line, the
    # same-line block, the line density and the expected count, at 8 seeded
    # positions and the far-out ones; at (1024, 3072) line 512 alone, whose
    # density at 0.998 takes the scaled-column path.  A value that raises is
    # hashed by its OverflowError message.
    ctx = kernel_context(HexagonSpec(p, q))
    if p == 1024:
        lines, xs = [512], np.array([0.3, 0.998])
    else:
        lines, xs = range(1, p + q, 4), np.concatenate([np.random.default_rng(p + q).random(8), _FAR])
    digest, raised = hashlib.sha256(), 0
    for t in lines:
        for value in (
            lambda: kernel_matrix(ctx, t, xs, t, xs),
            lambda: line_density(ctx, t, xs),
            lambda: np.float64(expected_count(ctx, t)),
        ):
            try:
                digest.update(value().tobytes())
            except OverflowError as err:
                digest.update(str(err).encode())
                raised += 1
    assert (digest.hexdigest(), raised) == _SAME_DIGESTS[p, q]


def test_tower_holds_no_step_table():
    # each step is written into the row it becomes, so building a tower
    # allocates little beyond the tower itself (a separate step table would
    # double it)
    ctx = kernel_context(HexagonSpec(256, 768))
    x = kernel_module._gauss_legendre_unit(513)[0]
    for t in (256, 512):
        tracemalloc.start()
        try:
            psi = _tower(ctx.lines[t - 1], x)[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * psi.nbytes, (t, peak / psi.nbytes)


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
