"""One workload process: set up, print READY, serve requests, print a result.

Started by ``run.py`` with ``PYTHONPATH=src`` and ``MSMANIFOLD_WORKERS``
pinned.  One client, closed loop: the next request starts when the last
one has been checked.  Only the program's work is timed; writing request
inputs, reading outputs back and checking them is not.

Untraced mode serves the run's fixed list of requests (``Workload.plan``),
sized so that it takes about ``--seconds`` on the reference machine; the
same seed therefore always gives the same requests and the same failures.
Traced mode (``--trace 1``) serves the plan for a third of that untraced,
then replays the same requests with the tracer installed and once more
with one worker, and requires all three passes to produce identical
numeric outputs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import msmanifold
from msmanifold import stochastic
from msmanifold.errors import MsManifoldError

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, RequestFailed, check_graph, digest


# A pass stops early, after a whole round, only once request time exceeds
# this multiple of the time it was planned for: a safety stop that keeps a
# run under the harness's time limit on a host far slower than the plan
# assumes.  On the reference machine it never triggers.
SAFETY_FACTOR = 2.5


def serve(wl, requests: list, limit_s: float = float("inf"), tracer=None) -> dict:
    """Serve ``requests`` in order, one at a time; returns the pass record."""
    records, spent = [], 0.0
    served = []
    for req in requests:
        if spent > limit_s and len(served) % wl.round_size == 0:
            break
        served.append(req)
        prepared = wl.prepare(req)
        if tracer is not None:
            tracer.request = req.index
        rec = {"index": req.index, "error": None, "unexpected": False,
               "uncertified": [], "bad": [], "accuracy": None, "digest": None,
               "bytes_written": 0}
        t0 = time.perf_counter()
        try:
            raw = wl.run(prepared)
        except (MsManifoldError, RequestFailed) as exc:
            rec["latency_s"] = time.perf_counter() - t0
            rec["error"] = getattr(exc, "kind", type(exc).__name__)
        except Exception as exc:  # keep serving; the run is marked incorrect
            rec["latency_s"] = time.perf_counter() - t0
            rec["error"] = type(exc).__name__
            rec["unexpected"] = True
            traceback.print_exc(file=sys.stderr)
        else:
            rec["latency_s"] = time.perf_counter() - t0
            check = _check if tracer is None else tracer.wrap("oracles.check", _check)
            check(wl, prepared, raw, rec)
        spent += rec["latency_s"]
        records.append(rec)
    return {"records": records, "requests": served, "spent_s": spent}


def _check(wl, prepared, raw, rec: dict) -> None:
    outcome = wl.collect(prepared, raw)
    for g in outcome.graphs:
        uncertified, wrong = check_graph(g)
        rec["uncertified"] += uncertified
        rec["bad"] += wrong
    if not outcome.graphs:
        rec["bad"].append("request produced no graph")
    rec["accuracy"] = outcome.accuracy
    rec["digest"] = digest(outcome.payload)
    rec["bytes_written"] = outcome.bytes_written


def _env() -> dict:
    return {"nproc": os.cpu_count(), "workers": stochastic.n_workers(),
            "numpy": np.__version__, "python": platform.python_version(),
            "msmanifold": msmanifold.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def traced_run(wl, seed: int, seconds: float, tracer: Tracer, setup_spans: list) -> dict:
    plan = wl.plan(seed, seconds / 3.0)
    plain = serve(wl, plan, SAFETY_FACTOR * seconds / 3.0)
    replay = plain["requests"]

    tracer.spans = []
    untraced_problem = wl.problem
    tracer.install()
    wl.trace_problem(tracer)
    try:
        traced = serve(wl, replay, tracer=tracer)
    finally:
        tracer.uninstall()
        wl.problem = untraced_problem
    spans = tracer.spans

    pinned = os.environ.get("MSMANIFOLD_WORKERS")
    os.environ["MSMANIFOLD_WORKERS"] = "1"
    try:
        single = serve(wl, replay)
    finally:
        if pinned is None:
            del os.environ["MSMANIFOLD_WORKERS"]
        else:
            os.environ["MSMANIFOLD_WORKERS"] = pinned

    n_graphs = sum(1 for rec in spans if rec[2] == "lyapunov_perron.graph")
    layers = layer_metrics(spans, n_graphs)
    g = max(n_graphs, 1)
    setup_time = {name: sum((r[4] - r[3] for r in setup_spans if r[2] == name), 0.0)
                  for name in ("resolvent.boundary_columns", "example_pde.build")}
    layers.update({
        "resolvent.boundary_columns_s": setup_time["resolvent.boundary_columns"],
        "example_pde.build_s": setup_time["example_pde.build"],
        "cli.bytes_written": sum(r["bytes_written"] for r in traced["records"]) / g,
        "stochastic.parallel_speedup": single["spent_s"] / plain["spent_s"],
        "trace.overhead_ratio": traced["spent_s"] / plain["spent_s"],
        "trace.graph_calls": n_graphs,
    })
    passes = {"plain": plain, "traced": traced, "single": single}
    return {"passes": {k: {"records": v["records"]} for k, v in passes.items()},
            "layers": layers, "spans": spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer()
    wl = WORKLOADS[args.workload](smoke=args.smoke, work_dir=args.work_dir)
    if args.trace:
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.uninstall()
    else:
        wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        out = traced_run(wl, args.seed, args.seconds, tracer, tracer.spans)
        tracer.spans = out.pop("spans")
        tracer.write(os.path.join(args.work_dir, f"spans_{args.workload}.csv"))
    else:
        plain = serve(wl, wl.plan(args.seed, args.seconds), SAFETY_FACTOR * args.seconds)
        out = {"passes": {"plain": {"records": plain["records"]}}}
    out["env"] = _env()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
