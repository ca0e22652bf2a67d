"""Reduced-size check of the benchmark itself, through the same code.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload at reduced size it runs ``run.py`` untraced twice with
one seed and traced once, and checks that

* every metric of BENCHMARK.json (and each report-only metric) prints as
  ``metric <name> = <value> <unit>`` and the last line is the result JSON;
* both untraced runs report the same output digests, and the traced run's
  three passes (pinned workers, traced, one worker) match bit for bit;
* the predicted bypasses hold: no regression on pde_flux, no thread
  fan-out on lsmc_unstable and pde_flux;
* the correctness checks pass a real graph and reject the same graph with
  a perturbed value;
* the benchmark exits non-zero without a result in a directory that holds
  only BENCHMARK.json and perfbench/.

Exits 0 when every check passes.
"""
from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from run import REPORT_ONLY_UNITS, WORKLOAD_NAMES  # noqa: E402

SECONDS = "3"
BYPASS = {"pde_flux": {"condexp.lsmc_calls": 0.0,
                       "stochastic.map_chunks_fanouts": 0.0},
          "lsmc_unstable": {"stochastic.map_chunks_fanouts": 0.0}}


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
         str(trace), "--smoke"], cwd=cwd, capture_output=True, text=True,
        timeout=170)


def check_report(proc, wanted: list, failures: list, label: str):
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"]:
        failures.append(f"{label}: run reported incorrect outputs")
    for name, unit in wanted:
        pattern = re.compile(rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}(\s|$)")
        if not any(pattern.match(line) for line in lines):
            failures.append(f"{label}: metric {name} [{unit}] not printed")
    return result, lines


def check_perturbation(failures: list) -> None:
    from workloads import WORKLOADS, check_graph, oracle_error

    work_dir = os.path.join(ROOT, "perfbench", "_work")
    os.makedirs(work_dir, exist_ok=True)
    for name in WORKLOAD_NAMES:
        wl = WORKLOADS[name](smoke=True, work_dir=work_dir)
        wl.setup()
        graph = None
        for req, _ in zip(wl.requests(7), range(20)):
            prepared = wl.prepare(req)
            try:
                raw = wl.run(prepared)
            except Exception:  # refused anchors are skipped; the next one serves
                continue
            graph = wl.collect(prepared, raw).graphs[0]
            break
        if graph is None:
            failures.append(f"{name}: no request of 20 produced a graph")
            continue
        _, wrong = check_graph(graph)
        if wrong:
            failures.append(f"{name}: a real graph failed its checks: {wrong}")
        _, threshold = oracle_error(graph)
        bent = dataclasses.replace(graph, h_value=graph.h_value + 10.0 * threshold)
        if not check_graph(bent)[1]:
            failures.append(f"{name}: checks accepted a perturbed graph value")
        print(f"smoke: {name} checks pass the graph and reject h + {10 * threshold:.2e}")


def check_bare_directory(failures: list) -> None:
    bare = os.path.join(ROOT, "perfbench", "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("lsmc_unstable", 1, 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)
    print(f"smoke: bare directory exits {proc.returncode} without a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    e2e += list(REPORT_ONLY_UNITS.items())
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    failures: list = []
    for name in WORKLOAD_NAMES:
        digests = []
        for _ in range(2):
            out = check_report(bench(name, 3, 0), e2e, failures, f"{name} trace 0")
            if out:
                line = next(l for l in out[1] if l.startswith("digest "))
                digests.append(line.split("all=")[1].split(","))
        if len(digests) == 2:
            if not digests[0] or digests[0] != digests[1]:
                failures.append(f"{name}: digests differ between runs: {digests}")
        out = check_report(bench(name, 3, 1), layers, failures, f"{name} trace 1")
        if out:
            metrics = out[0]["metrics"]
            for metric, expected in BYPASS.get(name, {}).items():
                if metrics[metric]["value"] != expected:
                    failures.append(f"{name}: {metric} = {metrics[metric]['value']}, "
                                    f"predicted {expected}")
            if any(l.startswith("DIGEST MISMATCH") for l in out[1]):
                failures.append(f"{name}: traced passes differ")
        print(f"smoke: {name} reports checked")
    check_perturbation(failures)
    check_bare_directory(failures)
    for f in failures:
        print(f"SMOKE FAIL {f}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
