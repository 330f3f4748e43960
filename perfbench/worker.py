"""One benchmark process: set up a workload, run it, print raw results.

``run.py`` starts this file in a fresh interpreter.  It imports beadproc
from the ``src/`` of the checkout it lives in, does the workload's set-up,
prints ``READY`` (``run.py`` times set-up up to that line), then, unless
``--setup-only`` is given, runs whole cycles of ops and prints one
``RESULT {json}`` line.

An untraced run is ``round(--seconds / CYCLE_S)`` cycles, ``CYCLE_S`` being
the workload's cycle time at the reference speed: the same ops, and so the
same op count and the same failures, on every run with a given seed and
``--seconds``, at whatever speed the machine runs.  Op latencies are scaled
to the reference speed by probes taken between ops (``calibrate.py``).

With ``--trace 1`` it runs the workload's fixed number of trace cycles
untraced, then as many traced, and reports per-layer metrics from the traced
half and the tracing overhead from the two halves.  A fixed cycle count
makes the per-layer counts repeat exactly and lets busy times fall when a
layer gets faster.  Per-layer times are raw, not scaled.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time
import warnings

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE_EVERY_S = 0.5  # machine-speed probes are at most this far apart, in op time
CAP_FACTOR = 4.0  # a run starts no new cycle after CAP_FACTOR * --seconds

# End-to-end metrics measured here, with units; run.py adds setup_s.
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_ops_frac": "ratio",
}


def import_beadproc():
    sys.path.insert(0, SRC)
    import beadproc

    expected = os.path.realpath(os.path.join(SRC, "beadproc", "__init__.py"))
    if os.path.realpath(beadproc.__file__) != expected:
        sys.exit(f"error: imported beadproc from {beadproc.__file__}, not from {SRC}")
    # Submodules the workloads reach by attribute; the package imports them all.
    import beadproc.cli  # noqa: F401

    return beadproc


def run_cycles(ops, cycles, cap_s):
    """Run ``cycles`` whole cycles of ops, probing machine speed between ops.

    Returns ``(records, cycles run)``, one record ``(latency_s, items,
    outcome, detail, raw_latency_s)`` per op.  ``latency_s`` is the raw
    latency scaled to the reference speed (see ``calibrate.py``) by the
    probes taken just before and just after the op's stretch of ops.  A run
    that passes ``cap_s`` seconds stops after the cycle it is in, so that a
    much slower program still ends in time.
    """
    clock = time.perf_counter
    records, stretch = [], []
    probes = [calibrate.probe()]
    last_probe = start = clock()

    def close_stretch():
        probes.append(calibrate.probe())
        factor = calibrate.scale(probes[-2:])
        records.extend((raw * factor, items, outcome, detail, raw) for raw, items, outcome, detail in stretch)
        stretch.clear()

    n = 0
    while n < cycles and (n == 0 or clock() - start < cap_s):
        for op in ops():
            t0 = clock()
            try:
                result = op.fn()
            except Exception as exc:  # a raising op is a failed op, not a harness error
                stretch.append((clock() - t0, op.items, "raised", f"{op.label}: {exc!r}"))
            else:
                latency = clock() - t0
                try:
                    bad = op.check(result)
                except Exception as exc:
                    bad = ("wrong", f"{op.label}: check raised {exc!r}")
                stretch.append((latency, op.items, "ok", "") if bad is None else (latency, op.items) + tuple(bad))
            if clock() - last_probe >= PROBE_EVERY_S:
                close_stretch()
                last_probe = clock()
        n += 1
    if stretch:
        close_stretch()
    return records, n


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def timing_metrics(records, elapsed_cycles, tail_pct):
    latencies = sorted(r[0] for r in records)
    n = len(latencies)
    tail = percentile(latencies, tail_pct)
    done_items = sum(r[1] for r in records if r[2] == "ok")
    ok_ops = sum(1 for r in records if r[2] == "ok")
    raw = sorted(r[4] for r in records)
    values = {
        "items_per_s": done_items / sum(latencies),
        "op_p50_ms": 1000.0 * percentile(latencies, 50),
        "op_tail_ms": 1000.0 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_frac": ok_ops / n,
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    info = {"ops": n, "cycles": elapsed_cycles, "tail_pct": tail_pct,
            "ops_beyond_tail": sum(1 for v in latencies if v > tail),
            "raw": {"items_per_s": done_items / sum(raw), "op_p50_ms": 1000.0 * percentile(raw, 50),
                    "op_tail_ms": 1000.0 * percentile(raw, tail_pct)},
            "speed": sum(raw) / sum(latencies)}
    return metrics, info


def failure_summary(records):
    kinds = {}
    examples = {}
    for _, _, outcome, detail, _ in records:
        if outcome != "ok":
            kinds[outcome] = kinds.get(outcome, 0) + 1
            examples.setdefault(outcome, detail)
    return {"counts": kinds, "examples": examples}


def environment(bp):
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "beadproc": bp.__file__,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="one op of the smallest size")
    parser.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    args = parser.parse_args(argv)

    # Failing ops at large sizes overflow; numpy's warnings would only add noise.
    warnings.simplefilter("ignore", RuntimeWarning)
    bp = import_beadproc()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](bp, args.seed, args.workdir)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(bp, workload, args)
    finally:
        workload.close()
    result["env"] = environment(bp)
    result["item"] = workload.item
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def measure(bp, workload, args):
    ops = workload.ops
    cap_s = CAP_FACTOR * args.seconds
    if args.smoke:
        ops = lambda: itertools.islice(workload.ops(), 1)  # noqa: E731
    if not args.trace:
        cycles = 1 if args.smoke else max(1, round(args.seconds / workload.CYCLE_S))
        records, cycles = run_cycles(ops, cycles, cap_s)
        metrics, info = timing_metrics(records, cycles, workload.TAIL_PCT)
        return {"metrics": metrics, "info": info, "checks": check_list(workload, args),
                "records": len(records), "failed": failure_summary(records)}

    from spans import PER_LAYER_METRICS, Tracer

    records, cycles = run_cycles(ops, 1 if args.smoke else workload.TRACE_CYCLES, cap_s / 2.0)
    tracer = Tracer()
    tracer.install(bp)
    try:
        traced_records, _ = run_cycles(ops, cycles, cap_s / 2.0)
    finally:
        tracer.uninstall()
    # Spans are raw times, so the overhead and the shares use raw op times.
    untraced_s = sum(r[4] for r in records)
    traced_s = sum(r[4] for r in traced_records)
    records.extend(traced_records)
    values = tracer.metrics(traced_s / untraced_s - 1.0)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
    return {"metrics": metrics, "info": {"ops": len(records), "cycles": 2 * cycles, "traced_cycles": cycles},
            "self_shares": tracer.self_shares(traced_s), "checks": check_list(workload, args),
            "records": len(records), "failed": failure_summary(records)}


def check_list(workload, args):
    if args.smoke:
        return []  # one op is too few for the run-level statistics
    return [list(c) for c in workload.run_checks()]


if __name__ == "__main__":
    sys.exit(main())
