"""msmanifold benchmark: time to a certified graph, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload lsmc_unstable --seed 1 --seconds 25 --trace 0

The harness times the program from outside.  It starts a few set-up-only
processes and then one workload process (``worker.py``) with
``MSMANIFOLD_WORKERS`` pinned to the CPU count, prints a report with every
metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of the traced run.  The exit code is 0 only when a
result was printed.  See perfbench/README.md for the workloads, the metric
definitions and the known-defect ledger.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("lsmc_unstable", "pde_flux", "wide_invariance")

SETUP_SAMPLES = 9        # set-up timings per untraced run: eight probes and the worker
TOTAL_BUDGET_S = 170.0   # hard limit for one invocation, below the 180 s cap

# Printed in the report but not gated: graphs_per_s moves with the number
# of requests the program refuses, which varies from seed to seed (0 to 4 of
# 12 on lsmc_unstable); fail_rate is 0 on two workloads; accuracy_err moves
# by orders of magnitude with the seed-drawn anchors.
REPORT_ONLY_UNITS = {"graphs_per_s": "1/s", "fail_rate": "ratio", "accuracy_err": "abs"}


class BenchError(Exception):
    pass


def load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def _spawn(root: str, work_dir: str, args, extra: list) -> subprocess.Popen:
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["MSMANIFOLD_WORKERS"] = str(os.cpu_count() or 1)
    # One BLAS thread per worker thread: pool threads that each start BLAS
    # threads would oversubscribe the cores and time the scheduler.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir] + (["--smoke"] if args.smoke else []) + extra
    return subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)


def _await_ready(proc: subprocess.Popen, t0: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process failed during set-up (got {line!r})")
    return time.perf_counter() - t0


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process overran the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return out


def run_worker(root: str, args) -> tuple:
    """(set-up times, worker result) for one invocation."""
    work_dir = os.path.join(root, "perfbench", "_work")
    os.makedirs(work_dir, exist_ok=True)
    deadline = time.monotonic() + TOTAL_BUDGET_S
    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        t0 = time.perf_counter()
        proc = _spawn(root, work_dir, args, ["--setup-only"])
        setups.append(_await_ready(proc, t0))
        _finish(proc, deadline)
    t0 = time.perf_counter()
    proc = _spawn(root, work_dir, args, [])
    try:
        setups.append(_await_ready(proc, t0))
        out = _finish(proc, deadline)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return setups, json.loads(lines[-1])


def pass_stats(records: list) -> dict:
    """Certified requests returned a graph that carries every certificate
    and passes the oracle checks; every other request failed.  A program
    refusal or a withheld certificate is a failure; a wrong graph value or
    an exception outside the program's own error types is also incorrect."""
    certified = [r for r in records
                 if r["error"] is None and not r["uncertified"] and not r["bad"]]
    failed = [r for r in records
              if r["error"] is not None or r["uncertified"] or r["bad"]]
    kinds = {}
    for r in failed:
        kind = r["error"] or ("WrongGraph" if r["bad"] else "Uncertified")
        kinds[kind] = kinds.get(kind, 0) + 1
    spent = sum(r["latency_s"] for r in records)
    acc = [r["accuracy"] for r in certified if r["accuracy"] is not None]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failure_kinds": kinds,
        "incorrect": [r for r in records if r["bad"] or r["unexpected"]],
        "certified_latencies": [r["latency_s"] for r in certified],
        "spent_s": spent,
        "graphs_per_s": len(certified) / spent if spent > 0 else 0.0,
        "accuracy_err": max(acc) if acc else float("nan"),
        "digests": [r["digest"] for r in records],
    }


def end_to_end(setups: list, result: dict) -> tuple:
    st = pass_stats(result["passes"]["plain"]["records"])
    lat = st["certified_latencies"]
    if not lat:
        raise BenchError(f"no certified graph in {st['attempted']} requests "
                         f"{st['failure_kinds']}")
    metrics = {
        "setup_s": statistics.median(setups),
        "time_to_graph_s_p50": statistics.median(lat),
        "graphs_per_s": st["graphs_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_rate": st["failed"] / st["attempted"] if st["attempted"] else float("nan"),
        "accuracy_err": st["accuracy_err"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} process set-ups",
        "time_to_graph_s_p50": f"median of {len(lat)} certified requests",
        "graphs_per_s": f"{len(lat)} certified graphs in {st['spent_s']:.3f} s of requests",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "fail_rate": (f"{st['failed']}/{st['attempted']} requests failed"
                      + (f" {st['failure_kinds']}" if st["failure_kinds"] else "")),
        "accuracy_err": "max over certified requests",
    }
    return metrics, notes, st


def traced(result: dict) -> tuple:
    passes = {k: pass_stats(v["records"]) for k, v in result["passes"].items()}
    attempted = sum(p["attempted"] for p in passes.values())
    failed = sum(p["failed"] for p in passes.values())
    mismatched = [k for k in ("traced", "single")
                  if passes[k]["digests"] != passes["plain"]["digests"]]
    incorrect = [r for p in passes.values() for r in p["incorrect"]]
    return result["layers"], attempted, failed, incorrect, mismatched, passes


def report(spec_metrics: list, values: dict, notes: dict) -> None:
    for m in spec_metrics:
        note = notes.get(m["name"], "")
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}"
              + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced problem sizes, for checking the benchmark itself")
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "msmanifold", "__init__.py")):
            raise BenchError("run from the repository root: src/msmanifold not found")
        spec = load_spec(root)
        setups, result = run_worker(root, args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    env = result["env"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: closed loop, one client")
    print(f"env nproc={env['nproc']} workers={env['workers']} numpy={env['numpy']} "
          f"python={env['python']} msmanifold={env['msmanifold']} "
          f"blas_threads={env['blas_threads']}")
    if args.trace:
        layers, attempted, failed, incorrect, mismatched, passes = traced(result)
        for name, p in passes.items():
            print(f"pass {name}: {p['attempted']} requests, {p['failed']} failed "
                  f"{p['failure_kinds'] or ''} in {p['spent_s']:.3f} s, "
                  f"digests {','.join(str(d) for d in p['digests'])}")
        wanted = spec["per_layer"]
        values = layers
        notes = {}
        correct = not incorrect and not mismatched
        if mismatched:
            print(f"DIGEST MISMATCH between plain and {mismatched} passes")
    else:
        try:
            values, notes, st = end_to_end(setups, result)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        attempted, failed, incorrect = st["attempted"], st["failed"], st["incorrect"]
        wanted = spec["end_to_end"] + [{"name": k, "unit": u}
                                       for k, u in REPORT_ONLY_UNITS.items()]
        correct = not incorrect
        for r in result["passes"]["plain"]["records"]:
            if r["uncertified"]:
                print(f"uncertified request {r['index']}: {r['uncertified']}")
        digests = [d for d in st["digests"] if d]
        print(f"digest first={digests[0] if digests else None} "
              f"all={','.join(digests)}")
    for r in incorrect:
        print(f"INCORRECT request {r['index']}: {r['error'] or ''} {r['bad']}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    report(wanted, values, notes)
    if attempted < 1:
        print("benchmark error: no request was attempted", file=sys.stderr)
        return 2
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in gated}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
