"""The four benchmark workloads.

Each workload is a closed loop: one caller issues operations ("ops") back to
back, each op a call into beadproc's public API.  Ops come in fixed cycles
(one batch, one probe offset set at every ``p``, one pass over all lines, one
rotation through the CLI invocations), and a run measures whole cycles, so
every run has the same op mix.

An op's inputs are drawn from the seed before the op is timed; its check runs
after the timer stops.  A check returns ``None`` when the output is right,
``("nonfinite", detail)`` when the program returned ``inf`` or ``nan``, or
``("wrong", detail)`` when a finite output fails the exact check.  The checks
re-derive what they need (interlacing, the Beta law, the support band) from
the paper's formulas instead of calling the package, so the program does not
check itself.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Op:
    label: str
    fn: Callable[[], object]
    items: int
    check: Callable[[object], tuple[str, str] | None]


def _lines_shape_check(lines, p, q, count):
    """Shape, range (0, 1) and strict interlacing of per-line (count, r(t)) arrays.

    Rows hold one configuration each, beads in decreasing order, as
    ``sample_positions`` returns them.  The chain is anchored by virtual beads
    at 0 from line p on and at 1 from line q on.
    """
    n_lines = p + q - 1
    if len(lines) != n_lines:
        return "wrong", f"{len(lines)} lines, expected {n_lines}"
    for t, arr in enumerate(lines, start=1):
        if np.shape(arr) != (count, min(t, p, p + q - t)):
            return "wrong", f"line {t} has shape {np.shape(arr)}"
    values = np.concatenate([np.ravel(a) for a in lines])
    if not np.all(np.isfinite(values)):
        return "nonfinite", "non-finite bead position"
    if not (np.all(values > 0.0) and np.all(values < 1.0)):
        return "wrong", "bead position outside (0, 1)"
    zeros, ones = np.zeros((count, 1)), np.ones((count, 1))
    for t in range(1, n_lines + 1):
        cur = lines[t - 1]
        nxt = lines[t] if t < n_lines else np.empty((count, 0))
        if t < p:
            aug = nxt
        elif t < q:
            aug = np.hstack([nxt, zeros])
        else:
            aug = np.hstack([ones, nxt, zeros])
        if not (np.all(aug[:, 1:] < cur) and np.all(cur < aug[:, :-1])):
            return "wrong", f"lines {t} and {t + 1} do not interlace"
    return None


def _beta_cdf_int(x, a, b):
    """Regularized incomplete beta for integer a, b: P(Binomial(a+b-1, x) >= a)."""
    n = a + b - 1
    j = np.arange(a, n + 1)
    log_binom = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in j])
    x = np.asarray(x, dtype=float)[:, None]
    return np.exp(log_binom + j * np.log(x) + (n - j) * np.log1p(-x)).sum(axis=1)


def _ks_distance(samples, cdf):
    xs = np.sort(samples)
    n = xs.size
    F = cdf(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def _support_interval(k, S):
    """Endpoints of the limit band on line label ``S`` (the paper's c_S, d_S)."""
    mid = S * k / (k + 2.0) ** 2 + 1.0 / (k + 2.0)
    half = 2.0 * math.sqrt(S * (k + 1.0) * (k + 2.0 - S)) / (k + 2.0) ** 2
    return mid - half, mid + half


def _all_finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


class Workload:
    """Base of the workloads: ``name``, ``item`` (the unit of work), set-up,
    a cycle of ops, and the run-level checks made once all ops are done.

    Subclasses take ``(bp, seed, workdir)``: the imported package, the
    workload seed and a scratch directory inside the checkout."""

    name = ""
    item = ""
    # Seconds one cycle takes at the reference speed (see calibrate.py); an
    # untraced run is round(--seconds / CYCLE_S) cycles.
    CYCLE_S = 1.0
    # Cycles in each half of a traced run, sized to take well under ten
    # seconds at today's speed even when the machine runs 1.5 times slower.
    TRACE_CYCLES = 1
    # Percentile reported as op_tail_ms: the highest of p50/p75/p90/p95/p99
    # that leaves at least ten ops beyond it in a 20-second run.
    TAIL_PCT = 50

    def setup(self):
        pass

    def ops(self):
        raise NotImplementedError

    def run_checks(self):
        return []

    def close(self):
        pass


class SampleWide(Workload):
    """Exact sampling at the paper's figure size (p, q) = (32, 96).

    Nearly all the time is the sampler's 33-pole secular solve; no kernel is
    used.  The batch stays at 32 configurations per call because the cost per
    configuration grows with the batch size.
    """

    name = "sample-wide"
    item = "configurations"
    CYCLE_S = 0.9
    TRACE_CYCLES = 5
    P, Q, BATCH = 32, 96, 32
    # Kolmogorov-Smirnov critical value at level 1e-4, sqrt(ln(2/1e-4)/2).
    # Criterion 3's band 1.63/sqrt(n) is the level-0.01 value, fit for one
    # fixed seed; the benchmark is run on many seeds (dozens per comparison),
    # and at 1% per run a correct sampler would be marked wrong in about one
    # comparison in five.
    KS_C = 2.23

    def __init__(self, bp, seed, workdir):
        self.bp = bp
        self.spec = bp.HexagonSpec(self.P, self.Q)
        self.stream = bp.RandomStream(seed)
        self.warm_stream = bp.RandomStream([seed, 1])
        self.first_line = []
        self.in_band = np.zeros(self.spec.n_lines)
        self.beads = np.zeros(self.spec.n_lines)
        self.bands = [_support_interval(2.0, t / self.P) for t in self.spec.lines()]

    def setup(self):
        self.bp.sampler.sample_positions(self.warm_stream, self.spec, 1)

    def ops(self):
        sampler, spec, stream, batch = self.bp.sampler, self.spec, self.stream, self.BATCH
        yield Op(f"sample {batch}", lambda: sampler.sample_positions(stream, spec, batch), batch, self._check)

    def _check(self, lines):
        bad = _lines_shape_check(lines, self.P, self.Q, self.BATCH)
        if bad is None:
            self.first_line.append(lines[0][:, 0])
            for t, (arr, (c, d)) in enumerate(zip(lines, self.bands)):
                self.in_band[t] += np.count_nonzero((arr >= c - 0.05) & (arr <= d + 0.05))
                self.beads[t] += arr.size
        return bad

    def run_checks(self):
        if not self.first_line:
            return [("line-1 Beta(32, 96) KS", False, "no valid sample")]
        lam = np.concatenate(self.first_line)
        ks = _ks_distance(lam, lambda x: _beta_cdf_int(x, self.P, self.Q))
        band = self.KS_C / math.sqrt(lam.size)
        worst = float(np.min(self.in_band / self.beads))
        return [
            ("line-1 Beta(32, 96) KS", ks < band, f"KS {ks:.4f} < {band:.4f} on {lam.size} draws"),
            ("in-band fraction", worst >= 0.99, f"worst line {worst:.4f} >= 0.99"),
        ]


class BulkProbe(Workload):
    """Finite kernel at bulk-scaled points against the limit (criterion 11).

    ``bulk_convergence_probe(k=2, S=2)`` at p = 16, 32, 64 over line offsets
    -2..2.  Each cycle draws one (X, Y) in [-1, 1]^2 per offset and probes all
    three p with them.  Most of the time is the exact cross-line kernel in
    rational arithmetic; the sampler is never used.
    """

    name = "bulk-probe"
    item = "probe rows"
    CYCLE_S = 0.55
    TRACE_CYCLES = 8
    TAIL_PCT = 75
    PS = (16, 32, 64)

    def __init__(self, bp, seed, workdir):
        self.bp = bp
        self.rng = np.random.default_rng(seed)
        self.rows = {p: [] for p in self.PS}

    def _offsets(self):
        offsets = []
        for d in (-2, -1, 0, 1, 2):
            s0, t0 = (d, 0) if d >= 0 else (0, -d)
            X, Y = self.rng.uniform(-1.0, 1.0, size=2)
            offsets.append((s0, t0, float(X), float(Y)))
        return offsets

    def setup(self):
        offsets = self._offsets()
        for p in self.PS:
            self.bp.scaling.bulk_convergence_probe(2.0, 2.0, p, offsets)

    def ops(self):
        scaling, offsets = self.bp.scaling, self._offsets()
        for p in self.PS:
            yield Op(
                f"probe p={p}",
                lambda p=p: scaling.bulk_convergence_probe(2.0, 2.0, p, offsets),
                len(offsets),
                lambda rows, p=p: self._check(p, rows, len(offsets)),
            )

    def _check(self, p, rows, n):
        if len(rows) != n:
            return "wrong", f"{len(rows)} rows for {n} offsets"
        if not _all_finite([(r.scaled, r.normalized, r.limit, r.abs_err) for r in rows]):
            return "nonfinite", f"non-finite probe row at p={p}"
        self.rows[p].extend(rows)
        return None

    def run_checks(self):
        if not all(self.rows[p] for p in self.PS):
            return [("bulk convergence", False, "a probe size has no valid rows")]
        sup = {p: max(r.abs_err for r in self.rows[p]) for p in self.PS}

        def sinc(d):
            return 1.0 if d == 0.0 else math.sin(math.pi * d) / (math.pi * d)

        same_line = max(
            (abs(r.normalized - sinc(r.X - r.Y)) for r in self.rows[64] if r.s0 == r.t0), default=0.0
        )
        return [
            ("sup error decreasing in p", sup[16] > sup[32] > sup[64],
             f"sup {sup[16]:.4f} > {sup[32]:.4f} > {sup[64]:.4f}"),
            ("sup error at p=64", sup[64] < 0.05, f"{sup[64]:.4f} < 0.05"),
            ("same-line sine kernel at p=64", same_line < 0.02, f"{same_line:.4f} < 0.02"),
        ]


class KernelLines(Workload):
    """One op per line at (64, 192) and (256, 768): 1278 lines per cycle.

    Each op checks the counting identity ``expected_count(t) = r(t)`` and
    compares the diagonal of a same-line ``kernel_matrix`` block at seeded
    positions with ``line_density``.  The integrand of the count has degree
    p+q-2, so (p+q)/2 + 1 Gauss nodes integrate it exactly and a failed op
    is a kernel failure, not quadrature error.  At (256, 768) the same-line
    kernel overflows on hundreds of lines; those ops count as failed, and
    the size stays in so that the defect shows.
    """

    name = "kernel-lines"
    item = "lines"
    CYCLE_S = 10.0
    TAIL_PCT = 99
    SIZES = ((64, 192), (256, 768))
    POSITIONS = 8

    def __init__(self, bp, seed, workdir):
        self.bp = bp
        self.rng = np.random.default_rng(seed)
        self.contexts = []

    def setup(self):
        K = self.bp.kernel
        self.contexts = [K.kernel_context(self.bp.HexagonSpec(p, q)) for p, q in self.SIZES]
        for ctx in self.contexts:
            xs = np.array([0.25, 0.5])
            K.expected_count(ctx, 1, nodes=self._nodes(ctx))
            K.kernel_matrix(ctx, 1, xs, 1, xs)

    @staticmethod
    def _nodes(ctx):
        return (ctx.spec.p + ctx.spec.q) // 2 + 1

    def ops(self):
        K, bp = self.bp.kernel, self.bp
        lines = [(ctx, t) for ctx in self.contexts for t in ctx.spec.lines()]
        # Seeded random order: a spell of slow machine then hits cheap and
        # dear lines alike, rather than a run of neighbouring lines, so it
        # scales the latency distribution instead of changing its shape.
        for i in self.rng.permutation(len(lines)):
            ctx, t = lines[i]
            nodes = self._nodes(ctx)
            xs = np.sort(np.clip(self.rng.random(self.POSITIONS), 1e-12, 1.0 - 1e-12))
            r = bp.particles_per_line(ctx.spec, t)

            def run(ctx=ctx, t=t, xs=xs, nodes=nodes):
                return (
                    K.expected_count(ctx, t, nodes),
                    K.kernel_matrix(ctx, t, xs, t, xs),
                    K.line_density(ctx, t, xs),
                )

            yield Op(f"line ({ctx.spec.p},{ctx.spec.q})", run, 1,
                     lambda out, r=r, t=t: self._check(out, r, t))

    @staticmethod
    def _check(out, r, t):
        count, block, density = out
        if not _all_finite(count, block, density):
            return "nonfinite", f"line {t}: non-finite kernel value"
        if abs(count - r) >= 1e-8:
            return "wrong", f"line {t}: expected count {count!r} != {r}"
        if not np.allclose(np.diag(block), density, rtol=1e-10, atol=0.0):
            return "wrong", f"line {t}: kernel_matrix diagonal != line_density"
        return None



class CliReadme(Workload):
    """The README's CLI invocations, run in-process through ``beadproc.cli.run``.

    At these tiny sizes per-call overhead dominates, so this catches a change
    that speeds up large problems but slows small ones.  It is the only
    workload that reaches ``cli``, ``model`` (configurations built and checked
    one by one), ``hexagon`` and ``oracle``.  Output goes to files in a
    temporary directory inside the checkout.
    """

    name = "cli-readme"
    item = "invocations"
    CYCLE_S = 0.37
    TRACE_CYCLES = 16
    TAIL_PCT = 95

    def __init__(self, bp, seed, workdir):
        self.bp = bp
        self.seed = seed
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=workdir)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _path(self, name):
        return os.path.join(self.tmp, name)

    def _invocations(self):
        out = self._path("out.txt")
        return [
            (f"sample --p 4 --q 12 --count 60 --seed {self.seed} --svg {self._path('figure.svg')} "
             f"--out {self._path('samples.csv')}", self._check_sample),
            (f"kernel --p 1 --q 2 --s 1 --t 1 --y 0.25 --x 0.25 --out {out}", self._check_kernel),
            (f"density --p 2 --q 3 --t 2 --points 200 --out {out}", self._check_density),
            (f"correlate --p 2 --q 2 --point 1:0.25 --point 2:0.75 --out {out}", self._check_correlate),
            (f"enumerate --n 2 --p 2 --q 2 --total-only --out {out}", self._check_enumerate),
            (f"limit-shape --k 2 --points 65 --out {out}", self._check_limit_shape),
            (f"bulk --k 2 --S 2 --s0 1 --X 0.25 --out {out}", self._check_bulk),
            # README writes `--probe-p 16 --probe-p 32`, which today silently
            # runs p = 32 only.  The comma form runs both, so a fix that makes
            # the flag repeatable will not read as a slowdown here.
            (f"bulk --k 2 --S 2 --probe-p 16,32 --out {out}", self._check_probe),
            (f"validate --suite all --level quick --out {out}", self._check_validate),
            (f"validate --suite all --level full --out {out}", self._check_validate),
        ]

    def setup(self):
        for argv, _ in self._invocations():
            self.bp.cli.run(argv.split())

    def ops(self):
        cli = self.bp.cli
        for argv, check in self._invocations():
            words = argv.split()
            yield Op(" ".join(words[:1]), lambda words=words: cli.run(words), 1,
                     lambda code, check=check: ("wrong", f"exit code {code}") if code != 0 else check())

    def _read(self, name="out.txt"):
        with open(self._path(name), encoding="utf-8") as fh:
            return fh.read()

    def _table(self, name="out.txt"):
        return np.atleast_2d(np.loadtxt(self._path(name), delimiter=",", skiprows=1))

    def _check_sample(self):
        p, q, count = 4, 12, 60
        rows = self._table("samples.csv")
        if rows.shape != (count * p * q, 4):
            return "wrong", f"samples.csv has shape {rows.shape}"
        lines = [rows[rows[:, 1] == t, 3].reshape(count, -1) for t in range(1, p + q)]
        bad = _lines_shape_check(lines, p, q, count)
        if bad is not None:
            return bad
        svg = self._read("figure.svg")
        if svg.count("<polyline") != 2 or svg.count("<circle") != count * p * q:
            return "wrong", "figure is missing boundary curves or beads"
        return None

    def _check_kernel(self):
        value = float(self._read())
        return None if abs(value - 1.5) < 1e-12 else ("wrong", f"K = {value!r}, expected 1.5")

    def _check_density(self):
        rows = self._table()
        if rows.shape != (200, 5) or not _all_finite(rows):
            return "wrong", "density table malformed or non-finite"
        # midpoint rule for the counting identity: line 2 of (2, 3) holds 2 beads
        total = float(rows[:, 4].mean())
        return None if abs(total - 2.0) < 1e-3 else ("wrong", f"density integrates to {total}")

    def _check_correlate(self):
        value = float(self._read())
        return None if math.isfinite(value) and value >= 0.0 else ("wrong", f"rho = {value!r}")

    def _check_enumerate(self):
        total = self._read().strip()
        return None if total == "20" else ("wrong", f"{total} configurations, expected 20")

    def _check_limit_shape(self):
        rows = self._table()
        ok = (
            rows.shape == (65, 3)
            and np.all(rows[:, 1] <= rows[:, 2])
            and np.allclose(rows[0], [0.0, 0.25, 0.25], atol=1e-12)
            and np.allclose(rows[-1], [4.0, 0.75, 0.75], atol=1e-12)
        )
        return None if ok else ("wrong", "support band malformed")

    def _check_bulk(self):
        value = float(self._read())
        return None if math.isfinite(value) else ("nonfinite", f"bulk kernel {value!r}")

    def _check_probe(self):
        rows = self._table()
        if rows.shape[0] != 2 or list(rows[:, 0]) != [16.0, 32.0]:
            return "wrong", f"probe rows for p = {list(rows[:, 0])}, expected [16, 32]"
        if not np.all(rows[:, 7] < 0.12):
            return "wrong", f"probe errors {list(rows[:, 7])}"
        return None

    def _check_validate(self):
        statuses = [line.split(",")[2] for line in self._read().splitlines()[1:]]
        failed = [s for s in statuses if s != "pass"]
        return None if statuses and not failed else ("wrong", f"{len(failed)} validate rows failed")


WORKLOADS = {cls.name: cls for cls in (SampleWide, BulkProbe, KernelLines, CliReadme)}
