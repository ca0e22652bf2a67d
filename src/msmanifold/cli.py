"""Batch front-end.

Every subcommand reads one JSON config, writes its numeric artifacts
(CSV/JSON) into --out, and drops a manifest.json beside them.  Numeric
payloads are a pure function of (effective config, seed); wall-clock and
environment live only in the manifest so payload bytes stay comparable
across runs.

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
from dataclasses import replace
from typing import Optional

import numpy as np

from . import __version__
from .config import (SCHEMA, canonical_json, config_hash, example_problem_config,
                     anchor_from_run, jsonable, load_config, lp_config_from_run,
                     problem_from_config, validate_config, _RUN_DEFAULTS)
from .errors import (ConfigError, ConsistencyFailure, GapViolation,
                     LadderNotConverged, MaxIterExceeded, MsManifoldError,
                     NonfiniteState, TruncationTooShort)
from .oracles import refinement_study
from .stochastic import _sample_sum

EXIT_OK = 0
EXIT_GAP = 2
EXIT_NOCONV = 3
EXIT_CONFIG = 4

_NONCONV = (MaxIterExceeded, TruncationTooShort, NonfiniteState,
            ConsistencyFailure, LadderNotConverged)


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


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


class _Manifest:
    def __init__(self, subcommand: str, cfg: Optional[dict], seed):
        self.t0 = time.monotonic()
        self.data = {
            "subcommand": subcommand,
            "config_hash": None if cfg is None else config_hash(cfg),
            "seed": seed,
            "module_versions": {
                "msmanifold": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "outputs": [],
        }

    def add(self, *paths):
        self.data["outputs"].extend(os.path.basename(p) for p in paths)

    def write(self, out_dir: str):
        self.data["wallclock_s"] = time.monotonic() - self.t0
        _write_json(os.path.join(out_dir, "manifest.json"), self.data)


def _overridden_run(run: dict, args) -> dict:
    """A copy of the run block with --seed/--samples/--dt applied."""
    run = dict(run)
    for key, value in (("seed", args.seed), ("n_samples", args.samples),
                       ("dt", args.dt)):
        if value is not None:
            run[key] = value
    return run


def _prepare(args, need_config: bool = True):
    if need_config and not args.config:
        raise ConfigError("--config is required for this subcommand")
    cfg = load_config(args.config) if args.config else None
    if cfg is not None:
        cfg["run"] = _overridden_run(cfg.get("run") or _RUN_DEFAULTS, args)
        cfg = validate_config(cfg)
    os.makedirs(args.out, exist_ok=True)
    return cfg


def _gap_block(p, lpcfg):
    from .lyapunov_perron import gap_report_for

    return gap_report_for(p, lpcfg).as_dict()


def _write_gap_report(out_dir: str, cfg: dict, gap: dict) -> str:
    """gap_report.json, {config_hash, gap_report}, as check-gap and a solve
    refused on the gap both write it. Returns its path."""
    path = os.path.join(out_dir, "gap_report.json")
    _write_json(path, {"config_hash": config_hash(cfg), "gap_report": gap})
    return path


def _trace_payload(cfg, trace, gap, extra=None):
    payload = {
        "config_hash": config_hash(cfg),
        "gap_report": gap,
        "trace": trace.as_dict(),
    }
    payload.update(extra or {})
    return payload


def _solve(args, side: str) -> int:
    from .lyapunov_perron import (lipschitz_bound, stable_graph,
                                  unstable_graph)

    cfg = _prepare(args)
    run = cfg["run"]
    run["side"] = side
    p = problem_from_config(cfg)
    lpcfg = lp_config_from_run(run, force=args.force)
    anchor = anchor_from_run(run, p)
    manifest = _Manifest(f"solve-{side}", cfg, run["seed"])

    gap = _gap_block(p, lpcfg)
    passes = gap["pass_unstable"] if side == "unstable" else gap["pass_stable"]
    if not passes and not args.force:
        manifest.add(_write_gap_report(args.out, cfg, gap))
        manifest.write(args.out)
        print(f"gap condition fails (eta={gap['eta']:.4g}, "
              f"delta={gap['delta']:.4g}); rerun with --force to ignore")
        return EXIT_GAP
    if not passes:
        print("WARNING: gap condition fails; results are uncertified")

    solver = unstable_graph if side == "unstable" else stable_graph
    graph = solver(p, anchor, lpcfg)

    value_names = p.stable_modes if side == "unstable" else p.unstable_modes
    anchor_names = p.unstable_modes if side == "unstable" else p.stable_modes
    header = (["sample"]
              + [f"anchor_mode_{k}" for k in anchor_names]
              + [f"graph_mode_{k}" for k in value_names])
    graph_csv = os.path.join(args.out, "graph.csv")
    _write_csv(graph_csv, header, np.hstack((graph.anchor, graph.h_value)),
               labels=map(str, range(graph.n_samples)))

    # Only the written nodes: every stride-th, at most about 2000.
    ens = graph.process
    stride = max(1, ens.grid.n_nodes // 2000)
    nodes = ens.values.swapaxes(0, 1)[::stride]
    mean_path = _sample_sum(nodes) / ens.n_samples
    ms_path = np.sqrt(_sample_sum(np.sum(nodes ** 2, axis=2)) / ens.n_samples)
    traj_csv = os.path.join(args.out, "trajectory.csv")
    _write_csv(traj_csv,
               ["t"] + [f"mean_mode_{k}" for k in range(p.n_modes)] + ["ms_norm"],
               np.column_stack((ens.grid.times[::stride], mean_path, ms_path)))

    payload = _trace_payload(cfg, graph.trace, gap, {
        "side": side,
        "tau": graph.tau,
        "consistency_gap": graph.consistency_gap,
        "lipschitz_bound": lipschitz_bound(p, lpcfg, side),
        "uncertified": bool(not passes),
    })
    trace_json = os.path.join(args.out, "trace.json")
    _write_json(trace_json, payload)
    manifest.add(graph_csv, traj_csv, trace_json)
    manifest.write(args.out)
    t = graph.trace
    print(f"{side} graph at tau={graph.tau}: {graph.n_samples} samples, "
          f"{t.iterations} iterations, residual {t.residual:.3e}, "
          f"consistency {graph.consistency_gap:.3e}")
    return EXIT_OK


def _cmd_check_gap(args) -> int:
    cfg = _prepare(args)
    p = problem_from_config(cfg)
    lpcfg = lp_config_from_run(cfg["run"])
    gap = _gap_block(p, lpcfg)
    manifest = _Manifest("check-gap", cfg, cfg["run"]["seed"])
    manifest.add(_write_gap_report(args.out, cfg, gap))
    manifest.write(args.out)
    side = cfg["run"]["side"]
    passes = gap["pass_unstable"] if side == "unstable" else gap["pass_stable"]
    print(f"eta = {gap['eta']:.6g} ({'pass' if gap['pass_unstable'] else 'FAIL'}), "
          f"delta = {gap['delta']:.6g} ({'pass' if gap['pass_stable'] else 'FAIL'})")
    return EXIT_OK if passes else EXIT_GAP


def _cmd_invariance(args) -> int:
    from .lyapunov_perron import invariance_residual

    cfg = _prepare(args)
    run = cfg["run"]
    p = problem_from_config(cfg)
    lpcfg = lp_config_from_run(run, force=args.force)
    anchor = anchor_from_run(run, p)
    manifest = _Manifest("invariance-test", cfg, run["seed"])
    gap = _gap_block(p, lpcfg)
    res = invariance_residual(p, anchor, lpcfg, t0=run["t0"], side=run["side"])
    path = os.path.join(args.out, "invariance.json")
    _write_json(path, {
        "config_hash": config_hash(cfg),
        "gap_report": gap,
        "side": run["side"],
        "t0": run["t0"],
        "residual": res,
    })
    manifest.add(path)
    manifest.write(args.out)
    print(f"invariance residual over t0={run['t0']}: {res:.6e}")
    return EXIT_OK


def _cmd_resolvent_study(args) -> int:
    from .resolvent import DEFAULT_LADDER

    cfg = _prepare(args)
    p = problem_from_config(cfg)
    lpcfg = lp_config_from_run(cfg["run"])
    manifest = _Manifest("resolvent-study", cfg, cfg["run"]["seed"])
    ladder = tuple(p.meta.get("ladder", DEFAULT_LADDER))
    study = refinement_study(p, lpcfg, "lambda", values=ladder)
    csv_path = os.path.join(args.out, "resolvent_study.csv")
    _write_csv(csv_path, ["lambda", "regularized_norm", "defect"],
               np.reshape(study.rows, (-1, 3)))
    outputs = [csv_path]
    payload = {
        "config_hash": config_hash(cfg),
        "defect_slope": study.slope,
        "monotone": study.monotone,
        "ladder": list(ladder),
    }
    if "ladder_diagnostic" in p.meta:
        payload["ladder_diagnostic"] = p.meta["ladder_diagnostic"]
    if p.boundary_regularizer is not None:
        cols_csv = os.path.join(args.out, "boundary_columns.csv")
        names = [repr(float(lam)) for lam in ladder]
        blocks = [(name, p.meta["boundary_columns"].get(name)) for name in names]
        blocks = [(name, np.asarray(b)) for name, b in blocks if b is not None]
        blocks.append(("extrapolated", p.boundary_regularizer))
        _write_csv(cols_csv, ["lambda", "mode", "column_x0", "column_x1"],
                   np.vstack([b[:, :2] for _, b in blocks]),
                   labels=[f"{name},{k}" for name, _ in blocks for k in range(p.n_modes)])
        outputs.append(cols_csv)
    json_path = os.path.join(args.out, "resolvent_study.json")
    _write_json(json_path, payload)
    outputs.append(json_path)
    manifest.add(*outputs)
    manifest.write(args.out)
    print(f"regularization defect slope {study.slope:.4f} over "
          f"{len(study.rows)} rungs (monotone={study.monotone})")
    return EXIT_OK


def _cmd_example_pde(args) -> int:
    from .example_pde import build_example_problem

    cfg = _prepare(args, need_config=False)
    kwargs = {"m": 4}
    run = _overridden_run(_RUN_DEFAULTS, args)
    if cfg is not None:
        prob = cfg["problem"]
        if prob["kind"] != "neumann-flux-example":
            raise ConfigError("example-pde needs a neumann-flux-example "
                              "problem block (or no --config at all)")
        kwargs["m"] = len(prob["eigenvalues"])
        nl = prob["nonlinearity"]
        if nl["kind"] == "boundary-linear":
            for src, dst in (("g0_matrix", "g0"), ("g1_coefficients", "g1"),
                             ("g2_coefficients", "g2")):
                if nl.get(src) is not None:
                    kwargs[dst] = np.asarray(nl[src], dtype=float)
        elif nl["kind"] != "zero":
            raise ConfigError("example-pde forcing must be boundary-linear "
                              "or zero")
        rates = prob["rates"]
        kwargs.update(alpha=rates["alpha"], beta=rates["beta"],
                      gamma=rates["gamma"], zeta=rates["zeta"],
                      bound_K=rates.get("bound_K", 1.0))
        if prob["noise"]["kind"] != "zero":
            from .config import _noise_from

            kwargs["noise"] = _noise_from(prob["noise"], kwargs["m"])
        run = dict(cfg["run"])

    p = build_example_problem(**kwargs)
    out_cfg = example_problem_config(p, run=run)
    manifest = _Manifest("example-pde", out_cfg, run["seed"])
    path = os.path.join(args.out, "example_problem.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(out_cfg))
        fh.write("\n")
    manifest.add(path)
    manifest.write(args.out)
    diag = p.meta["ladder_diagnostic"]
    print(f"example problem with m={kwargs['m']} modes written to {path}")
    print("eigenvalues: " + ", ".join(_fmt(v) for v in p.eigenvalues))
    print(f"ladder cauchy gap {diag['cauchy_gap']:.3e} "
          f"(converged={diag['converged']})")
    return EXIT_OK


def _cmd_refine(args) -> int:
    cfg = _prepare(args)
    p = problem_from_config(cfg)
    lpcfg = lp_config_from_run(cfg["run"])
    anchor = cfg["run"].get("anchor")
    manifest = _Manifest("refine", cfg, cfg["run"]["seed"])
    study = refinement_study(
        p, lpcfg, args.parameter,
        x=None if anchor is None else np.asarray(anchor, dtype=float))
    csv_path = os.path.join(args.out, f"refine_{args.parameter}.csv")
    _write_csv(csv_path, [args.parameter, "observable", "error"],
               np.reshape(study.rows, (-1, 3)))
    json_path = os.path.join(args.out, f"refine_{args.parameter}.json")
    _write_json(json_path, {
        "config_hash": config_hash(cfg),
        "study": study.as_dict(),
    })
    manifest.add(csv_path, json_path)
    manifest.write(args.out)
    print(f"{args.parameter} sweep: slope {study.slope:.4f} "
          f"({study.slope_kind}), monotone={study.monotone}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msmanifold",
                     description="Mean-square invariant manifold toolkit")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.add_argument("--seed", type=int, metavar="N",
                        help="override run.seed")
        sp.add_argument("--samples", type=int, metavar="N",
                        help="override run.n_samples")
        sp.add_argument("--dt", type=float, metavar="X",
                        help="override run.dt")
        sp.add_argument("--out", metavar="DIR", default="msmanifold_out",
                        help="output directory (default: msmanifold_out)")
        sp.add_argument("--force", action="store_true",
                        help="run even if the gap condition fails "
                             "(results marked uncertified)")

    common(sub.add_parser("check-gap", help="evaluate the gap condition"))
    common(sub.add_parser("solve-unstable",
                          help="solve the backward fixed point and emit the "
                               "unstable graph"))
    common(sub.add_parser("solve-stable",
                          help="solve the forward fixed point and emit the "
                               "stable graph"))
    common(sub.add_parser("invariance-test",
                          help="push the graph through the flow and measure "
                               "the return defect"))
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
        print(f"gap violation: {exc}", file=sys.stderr)
        return EXIT_GAP
    except _NONCONV as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except MsManifoldError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
