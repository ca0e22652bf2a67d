"""Batch front-end.

Every subcommand reads one JSON config, writes its numeric artifacts
(CSV/NPY/JSON) into --out, and drops a manifest.json beside them. Before
its first write, it removes the files an earlier manifest.json in --out
lists, and lists its own before it writes them, so --out holds one
request's files.  Numeric payloads are a pure function of (effective
config, seed); wall-clock and environment live only in the manifest so
payload bytes stay comparable across runs.

Exit codes: 0 success, 2 gap condition fails, 3 solver did not converge,
4 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .config import (canonical_json, config_hash, example_problem_config,
                     anchor_from_run, jsonable, lp_config_from_run,
                     problem_from_config, read_config_json, validate_config)
from .errors import ConfigError, GapViolation, MsManifoldError
from .oracles import refinement_study

EXIT_OK = 0
EXIT_GAP = 2
EXIT_NOCONV = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means "gap fail" here, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_csv(path: str, header, table, labels=None):
    """The header, then one CRLF line per row of the 2-D float table, each
    number as %.17g. ``labels``, one str per row, lead their rows as is."""
    table = np.asarray(table, dtype=float)
    fmt = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    rows = map(tuple, table.tolist())
    if labels is not None:
        fmt = "%s," + fmt
        rows = ((label, *row) for label, row in zip(labels, rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join([fmt % row for row in rows]))


def _write_npy(path: str, names, table):
    """The 2-D float table as a .npy array of one record per row, whose
    fields are ``names``; np.load reads it without pickle."""
    table = np.ascontiguousarray(table, dtype=float)
    np.save(path, table.view([(name, float) for name in names])[:, 0])


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(payload), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


class _Manifest:
    """The request's manifest in args.out. ``config_hash`` is hashed here
    once; the payloads that carry it read it from here."""

    def __init__(self, args, subcommand: str, cfg: Optional[dict], seed):
        self.t0 = time.monotonic()
        self.out_dir, self.config = args.out, args.config
        self.config_hash = None if cfg is None else config_hash(cfg)
        self.data = {
            "subcommand": subcommand,
            "config_hash": self.config_hash,
            "seed": seed,
            "module_versions": {
                "msmanifold": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "outputs": [],
        }

    def claim(self, *names) -> list:
        """Paths in out_dir for the request's next files. The first claim
        removes the previous request's files (_clear_previous); each
        writes manifest.json listing every name claimed so far, before the
        caller writes them, so a request that fails part-way leaves its
        files listed for the next one to remove."""
        if not self.data["outputs"]:
            _clear_previous(self.out_dir, self.config)
        self.data["outputs"].extend(names)
        _write_json(os.path.join(self.out_dir, "manifest.json"), self.data)
        return [os.path.join(self.out_dir, name) for name in names]

    def write(self):
        """The finished manifest, with the request's wall-clock time."""
        self.data["wallclock_s"] = time.monotonic() - self.t0
        _write_json(os.path.join(self.out_dir, "manifest.json"), self.data)


def _overridden_run(run, args):
    """A copy of the run block with --seed/--samples/--dt applied; a block
    that is not a JSON object is returned as is, for validate_config to
    refuse."""
    if not isinstance(run, dict):
        return run
    run = dict(run)
    for key, value in (("seed", args.seed), ("n_samples", args.samples),
                       ("dt", args.dt)):
        if value is not None:
            run[key] = value
    return run


def _clear_previous(out_dir: str, config: Optional[str]) -> None:
    """Remove the files that an earlier request's manifest.json in out_dir
    lists, and that manifest, so the directory never describes two
    requests. Only plain file names in out_dir are removed, and never the
    request's own config file."""
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            outputs = json.load(fh)["outputs"]
    except (OSError, ValueError, TypeError, KeyError):
        return
    if not isinstance(outputs, list):
        return
    for name in outputs + ["manifest.json"]:
        if isinstance(name, str) and name not in ("", ".", "..") \
                and os.path.basename(name) == name:
            target = os.path.join(out_dir, name)
            if os.path.isfile(target) and not (config and os.path.samefile(target, config)):
                os.remove(target)


def _prepare(args, need_config: bool = True):
    if need_config and not args.config:
        raise ConfigError("--config is required for this subcommand")
    cfg = None
    if args.config:
        # the overrides go into the raw run block, so the file is validated once
        raw = read_config_json(args.config)
        if isinstance(raw, dict):
            raw["run"] = _overridden_run({} if raw.get("run") is None else raw["run"], args)
        cfg = validate_config(raw)
    os.makedirs(args.out, exist_ok=True)
    return cfg


def _write_gap_report(manifest: _Manifest, gap: dict) -> None:
    """gap_report.json, {config_hash, gap_report}, as check-gap and a solve
    refused on the gap both write it."""
    path, = manifest.claim("gap_report.json")
    _write_json(path, {"config_hash": manifest.config_hash, "gap_report": gap})


def _request(args, subcommand: str, side: Optional[str] = None, force=False):
    """The start of every subcommand that reads a run block: the run block
    (its side set to ``side`` when given), problem, solver settings and
    manifest."""
    cfg = _prepare(args)
    run = cfg["run"]
    if side is not None:
        run["side"] = side
    p = problem_from_config(cfg)
    lpcfg = lp_config_from_run(run, force=force)
    return run, p, lpcfg, _Manifest(args, subcommand, cfg, run["seed"])


def _solving_request(args, subcommand: str, side: Optional[str] = None):
    """The start of solve-unstable, solve-stable and invariance-test (side
    None: the run block's): _request, the anchor, and the gap gate. A
    failing side is refused, gap_report.json written and GapViolation
    raised (exit 2), unless --force is given; then a warning is printed and
    the output is marked uncertified. Returns (run, p, lpcfg, anchor,
    manifest, marks), marks the output's "gap_report" and "uncertified"
    entries."""
    from .lyapunov_perron import gap_report_for

    run, p, lpcfg, manifest = _request(args, subcommand, side, args.force)
    anchor = anchor_from_run(run, p)
    gap = gap_report_for(p, lpcfg)
    try:
        passes = gap.require(run["side"], args.force)
    except GapViolation:
        _write_gap_report(manifest, gap.as_dict())
        manifest.write()
        raise
    if not passes:
        print("WARNING: gap condition fails; results are uncertified")
    return run, p, lpcfg, anchor, manifest, {"gap_report": gap.as_dict(),
                                             "uncertified": not passes}


def _solve(args, side: str) -> int:
    from .lyapunov_perron import stable_graph, unstable_graph

    _, p, lpcfg, anchor, manifest, marks = _solving_request(args, f"solve-{side}", side)
    solver = unstable_graph if side == "unstable" else stable_graph
    graph = solver(p, anchor, lpcfg)

    header = (["sample"]
              + [f"anchor_mode_{k}" for k in graph.anchor_idx]
              + [f"graph_mode_{k}" for k in graph.value_idx])
    graph_csv, traj_npy, trace_json = manifest.claim(
        "graph.csv", "trajectory.npy", "trace.json")
    _write_csv(graph_csv, header, np.hstack((graph.anchor, graph.h_value)),
               labels=map(str, range(graph.n_samples)))

    _write_npy(traj_npy,
               ["t"] + [f"mean_mode_{k}" for k in range(p.n_modes)] + ["ms_norm"],
               graph.path)

    bound = graph.trace.gap.lipschitz_bound(side)
    payload = {
        "config_hash": manifest.config_hash,
        "trace": graph.trace.as_dict(),
        "side": side,
        "tau": graph.tau,
        "consistency_gap": graph.consistency_gap,
        # a forced solve past the gap has no bound: null, not Infinity
        "lipschitz_bound": bound if np.isfinite(bound) else None,
        **marks,
    }
    _write_json(trace_json, payload)
    manifest.write()
    t = graph.trace
    print(f"{side} graph at tau={graph.tau}: {graph.n_samples} samples, "
          f"{t.iterations} iterations, residual {t.residual:.3e}, "
          f"consistency {graph.consistency_gap:.3e}")
    return EXIT_OK


def _cmd_check_gap(args) -> int:
    from .lyapunov_perron import gap_report_for

    run, p, lpcfg, manifest = _request(args, "check-gap")
    gap = gap_report_for(p, lpcfg)
    _write_gap_report(manifest, gap.as_dict())
    manifest.write()
    print(f"eta = {gap.eta:.6g} ({'pass' if gap.pass_unstable else 'FAIL'}), "
          f"delta = {gap.delta:.6g} ({'pass' if gap.pass_stable else 'FAIL'})")
    return EXIT_OK if gap.verdict(run["side"])[2] else EXIT_GAP


def _cmd_invariance(args) -> int:
    from .lyapunov_perron import invariance_residual

    run, p, lpcfg, anchor, manifest, marks = _solving_request(args, "invariance-test")
    res = invariance_residual(p, anchor, lpcfg, t0=run["t0"], side=run["side"])
    path, = manifest.claim("invariance.json")
    _write_json(path, {
        "config_hash": manifest.config_hash,
        "side": run["side"],
        "t0": run["t0"],
        "residual": res,
        **marks,
    })
    manifest.write()
    print(f"invariance residual over t0={run['t0']}: {res:.6e}")
    return EXIT_OK


def _cmd_resolvent_study(args) -> int:
    from .resolvent import boundary_ladder, problem_ladder

    _, p, lpcfg, manifest = _request(args, "resolvent-study")
    ladder = problem_ladder(p)
    study = refinement_study(p, lpcfg, "lambda", values=ladder)
    with_cols = p.boundary_regularizer is not None
    names = ["resolvent_study.csv", "resolvent_study.json"]
    if with_cols:
        rungs, diag = boundary_ladder(p)
        names.insert(1, "boundary_columns.csv")
    paths = manifest.claim(*names)
    _write_csv(paths[0], ["lambda", "regularized_norm", "defect"],
               np.reshape(study.rows, (-1, 3)))
    payload = {
        "config_hash": manifest.config_hash,
        "defect_slope": study.slope,
        "monotone": study.monotone,
        "ladder": list(ladder),
    }
    if with_cols:
        payload["ladder_diagnostic"] = diag
        blocks = [(repr(lam), cols) for lam, cols in rungs]
        blocks.append(("limit", p.boundary_regularizer))
        _write_csv(paths[1], ["lambda", "mode", "column_x0", "column_x1"],
                   np.vstack([b for _, b in blocks]),
                   labels=[f"{name},{k}" for name, _ in blocks for k in range(p.n_modes)])
    _write_json(paths[-1], payload)
    manifest.write()
    print(f"regularization defect slope {study.slope:.4f} over "
          f"{len(study.rows)} rungs (monotone={study.monotone})")
    return EXIT_OK


def _cmd_example_pde(args) -> int:
    from .example_pde import build_example_problem

    cfg = _prepare(args, need_config=False)
    if cfg is None:
        p, run = build_example_problem(), _overridden_run({}, args)
    else:
        if cfg["problem"]["kind"] != "neumann-flux-example":
            raise ConfigError("example-pde needs a neumann-flux-example "
                              "problem block (or no --config at all)")
        p, run = problem_from_config(cfg), cfg["run"]
    out_cfg = example_problem_config(p, run=run)
    manifest = _Manifest(args, "example-pde", out_cfg, out_cfg["run"]["seed"])
    path, = manifest.claim("example_problem.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(out_cfg))
        fh.write("\n")
    manifest.write()
    print(f"example problem with m={p.n_modes} modes written to {path}")
    print("eigenvalues: " + ", ".join(_fmt(v) for v in p.eigenvalues))
    return EXIT_OK


def _cmd_refine(args) -> int:
    run, p, lpcfg, manifest = _request(args, "refine")
    x = None
    if run["anchor"] is not None:
        # read as the solves read it: its side's block coordinates
        anchor = anchor_from_run(run, p)
        unstable = run["side"] == "unstable"
        if args.parameter == "T_back":
            if not unstable:
                raise ConfigError("refine T_back sweeps the backward graph's oracle, "
                                  "which needs an unstable-side run anchor")
            x = anchor
        else:
            # the flow starts from the anchor, the other block zero
            x = np.zeros(p.n_modes)
            x[p.unstable_modes if unstable else p.stable_modes] = anchor
    study = refinement_study(p, lpcfg, args.parameter, x=x)
    csv_path, json_path = manifest.claim(f"refine_{args.parameter}.csv",
                                         f"refine_{args.parameter}.json")
    _write_csv(csv_path, [args.parameter, "observable", "error"],
               np.reshape(study.rows, (-1, 3)))
    _write_json(json_path, {
        "config_hash": manifest.config_hash,
        "study": study.as_dict(),
    })
    manifest.write()
    print(f"{args.parameter} sweep: slope {study.slope:.4f} "
          f"({study.slope_kind}), monotone={study.monotone}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msmanifold",
                     description="Mean-square invariant manifold toolkit")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def common(sp, force=False):
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.add_argument("--seed", type=int, metavar="N",
                        help="override run.seed")
        sp.add_argument("--samples", type=int, metavar="N",
                        help="override run.n_samples")
        sp.add_argument("--dt", type=float, metavar="X",
                        help="override run.dt")
        sp.add_argument("--out", metavar="DIR", default="msmanifold_out",
                        help="output directory (default: msmanifold_out)")
        if force:
            sp.add_argument("--force", action="store_true",
                            help="run even if the gap condition fails "
                                 "(results marked uncertified)")

    common(sub.add_parser("check-gap", help="evaluate the gap condition"))
    common(sub.add_parser("solve-unstable",
                          help="solve the backward fixed point and emit the "
                               "unstable graph"), force=True)
    common(sub.add_parser("solve-stable",
                          help="solve the forward fixed point and emit the "
                               "stable graph"), force=True)
    common(sub.add_parser("invariance-test",
                          help="push the graph through the flow and measure "
                               "the return defect"), force=True)
    common(sub.add_parser("resolvent-study",
                          help="regularization defect and boundary-column "
                               "ladder tables"))
    common(sub.add_parser("example-pde",
                          help="emit the worked Neumann-flux problem file"))
    refine = sub.add_parser("refine", help="error-vs-parameter sweep")
    refine.add_argument("parameter",
                        choices=("dt", "n_samples", "T_back", "lambda"))
    common(refine)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


_DISPATCH = {
    "check-gap": _cmd_check_gap,
    "solve-unstable": lambda a: _solve(a, "unstable"),
    "solve-stable": lambda a: _solve(a, "stable"),
    "invariance-test": _cmd_invariance,
    "resolvent-study": _cmd_resolvent_study,
    "example-pde": _cmd_example_pde,
    "refine": _cmd_refine,
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GapViolation as exc:
        print(f"gap violation: {exc}; rerun with --force to ignore", file=sys.stderr)
        return EXIT_GAP
    except MsManifoldError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
