"""beadproc benchmark: one workload, one seed, printed metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kernel-lines --seed 1 --seconds 20 --trace 0

Workloads: sample-wide, bulk-probe, kernel-lines, cli-readme (see
``workloads.py``).  Each run starts fresh single-threaded interpreters
(``worker.py``) that import beadproc from this checkout's ``src/``.

With ``--trace 0`` the run first sets the workload up in several fresh
interpreters and reports the median as ``setup_s`` (time from interpreter
start to the first timed op, covering the import, kernel contexts and the
module caches); then one of them measures whole cycles of ops, as many as
take about ``--seconds`` seconds at the reference speed, and reports
throughput, op latency, peak memory and the share of ops that succeeded.
Times are scaled to the reference speed by a probe of machine speed taken
before each set-up and between ops (``calibrate.py``); the raw times are
printed too.  With ``--trace 1`` it reports per-layer metrics from a traced
run instead (see ``spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say what was run and on what.  ``--smoke`` runs one op of the smallest size,
to check the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

# numpy single-threaded, in the probes taken here as in the workers, which
# inherit this environment.  Set before calibrate imports numpy.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sample-wide", "bulk-probe", "kernel-lines", "cli-readme")
SETUP_RUNS = 3  # fresh set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, set-ups included, ends within this


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline, setup_only=False):
    """Start ``worker.py``; return (seconds from start to READY, RESULT dict or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", args.workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode} before finishing")
    if setup_only:
        return setup_s, None
    results = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if not results:
        raise WorkerError("worker printed no result")
    return setup_s, json.loads(results[-1][len("RESULT "):])


def report(args, setups, raw_setups, result):
    env, info = result["env"], result["info"]
    print(f"beadproc benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}{', smoke' if args.smoke else ''}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}, commit {env['commit']}")
    print(f"beadproc imported from {env['beadproc']}")
    print(f"closed loop, 1 caller, single-threaded; {info['ops']} ops in {info['cycles']} cycles; "
          f"items are {result['item']}")
    if "tail_pct" in info:
        print(f"op_tail_ms is p{info['tail_pct']:g} ({info['ops_beyond_tail']} ops beyond it, "
              f"{info['ops']} ops){'' if info['ops_beyond_tail'] >= 10 else '; fewer than 10 beyond'}")
    if setups:
        print("setup_s: median of " + ", ".join(f"{s:.3f}" for s in setups) + " s at the reference speed; raw "
              + ", ".join(f"{s:.3f}" for s in raw_setups) + " s")
    if "raw" in info:
        raw = info["raw"]
        print(f"machine ran at {info['speed']:.2f}x the reference time per op; raw items_per_s "
              f"{raw['items_per_s']:.4g}, op_p50_ms {raw['op_p50_ms']:.4g}, op_tail_ms {raw['op_tail_ms']:.4g}")
    for name, ok, detail in result["checks"]:
        print(f"check {'pass' if ok else 'FAIL'}: {name}: {detail}")
    for kind, n in result["failed"]["counts"].items():
        print(f"failed ops ({kind}): {n}, e.g. {result['failed']['examples'][kind]}")
    if "self_shares" in result:
        shares = sorted(result["self_shares"].items(), key=lambda kv: -kv[1])
        print("self time share of traced ops: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one op of the smallest size")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "beadproc", "__init__.py")):
        print(f"error: no beadproc sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    args.workdir = tempfile.mkdtemp(dir=scratch)
    try:
        raw_setups, setups = [], []
        timed = not (args.trace or args.smoke)
        for i in range(SETUP_RUNS if timed else 1):
            factor = calibrate.scale([calibrate.probe()]) if timed else 1.0
            setup_s, result = run_worker(args, deadline, setup_only=i < SETUP_RUNS - 1 and timed)
            raw_setups.append(setup_s)
            setups.append(setup_s * factor)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    report(args, setups if not args.trace else [], raw_setups, result)
    failed = sum(result["failed"]["counts"].values())
    correct = all(ok for _, ok, _ in result["checks"]) and "wrong" not in result["failed"]["counts"]
    print(json.dumps({"correct": correct, "attempted": result["records"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
