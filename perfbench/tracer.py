"""Span tracer for the traced run.

The tracer wraps public functions of the msmanifold layers from outside
the package: every module-level binding of a wrapped function is rebound
to one wrapper, so a function imported by name into several modules (for
example ``condexp_lsmc`` in ``condexp`` and ``lyapunov_perron``) records
each call exactly once.  Spans are kept in memory as
``[id, parent, name, start, end, attrs, error, request]`` records and
written out once, at the end of the run.

A layer's self time is its span minus the part of the span that its child
spans cover.  Work that ``map_chunks`` hands to pool threads is parented to
the ``map_chunks`` span, so concurrent children are merged as intervals and
never counted twice.
"""
from __future__ import annotations

import dataclasses
import itertools
import sys
import threading
import time
from collections import defaultdict

from msmanifold import (cli, condexp, config, example_pde, lyapunov_perron,
                        resolvent, stochastic)

ID, PARENT, NAME, START, END, ATTRS, ERROR, REQUEST = range(8)

REFUSALS = ("IllConditionedDesign", "Underdetermined")


def rebind(old, new) -> None:
    """Point every module-level name bound to ``old`` in the msmanifold
    package at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "msmanifold"
                               or mod_name.startswith("msmanifold.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def _rows(v) -> int:
    shape = getattr(v, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs) -> list:
        stack = self._stack()
        rec = [0, stack[-1] if stack else 0, name, 0.0, 0.0, attrs, None,
               self.request]
        with self._lock:
            rec[ID] = next(self._ids)
            self.spans.append(rec)
        stack.append(rec[ID])
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list, exc) -> None:
        rec[END] = time.perf_counter()
        if exc is not None:
            rec[ERROR] = type(exc).__name__
        self._stack().pop()

    def wrap(self, name: str, fn, attrs=None, result=None):
        """Span-recording wrapper; ``attrs(*args, **kwargs)`` and
        ``result(value)`` return dicts stored on the span."""
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                value = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(rec, exc)
                raise
            tracer._close(rec, None)
            if result is not None:
                rec[ATTRS] = {**(rec[ATTRS] or {}), **result(value)}
            return value

        return traced

    def _wrap_map_chunks(self, orig):
        tracer = self

        def traced(fn, n_samples):
            fanout = (len(stochastic.sample_chunks(n_samples)) > 1
                      and stochastic.n_workers() > 1)
            rec = tracer._open("stochastic.map_chunks", {"fanout": fanout})
            parent = rec[ID]

            def adopted(a, b):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(a, b)
                finally:
                    stack.pop()

            try:
                value = orig(adopted, n_samples)
            except BaseException as exc:
                tracer._close(rec, exc)
                raise
            tracer._close(rec, None)
            return value

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind the wrapped layer functions; ``uninstall`` undoes it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        lp = lyapunov_perron

        def lsmc_attrs(target, state, basis, wiener=None):
            return {"rows": _rows(target), "cols": basis.size}

        def map_attrs(p, xi, *args, **kwargs):
            return {"nodes": xi.grid.n_nodes}

        def graph_result(graph):
            return {"iterations": graph.trace.iterations}

        plan = [
            (condexp.condexp_lsmc, self.wrap("condexp.lsmc", condexp.condexp_lsmc,
                                             attrs=lsmc_attrs)),
            (stochastic.map_chunks, self._wrap_map_chunks(stochastic.map_chunks)),
            (stochastic.sample_wiener, self.wrap("stochastic.sample_wiener",
                                                 stochastic.sample_wiener)),
            (stochastic.integrate_mild, self.wrap("stochastic.integrate_mild",
                                                  stochastic.integrate_mild)),
            (stochastic.forcing_modes, self.wrap("stochastic.forcing_modes",
                                                 stochastic.forcing_modes)),
            (lp.lp_backward_map, self.wrap("lyapunov_perron.map",
                                           lp.lp_backward_map, attrs=map_attrs)),
            (lp.lp_forward_map, self.wrap("lyapunov_perron.map",
                                          lp.lp_forward_map, attrs=map_attrs)),
            (lp.lp_backward_solve, self.wrap("lyapunov_perron.solve",
                                             lp.lp_backward_solve)),
            (lp.lp_forward_solve, self.wrap("lyapunov_perron.solve",
                                            lp.lp_forward_solve)),
            (lp.unstable_graph, self.wrap("lyapunov_perron.graph",
                                          lp.unstable_graph, result=graph_result)),
            (lp.stable_graph, self.wrap("lyapunov_perron.graph",
                                        lp.stable_graph, result=graph_result)),
            (resolvent.boundary_columns, self.wrap("resolvent.boundary_columns",
                                                   resolvent.boundary_columns)),
            (example_pde.build_example_problem,
             self.wrap("example_pde.build", example_pde.build_example_problem)),
            (config.load_config, self.wrap("config.load", config.load_config)),
            (config.validate_config, self.wrap("config.load",
                                               config.validate_config)),
            (config.problem_from_config,
             self._wrap_problem_from_config(config.problem_from_config)),
            (cli.main, self.wrap("cli.main", cli.main)),
        ]
        for old, new in plan:
            rebind(old, new)
            self._installed.append((old, new))

    def uninstall(self) -> None:
        for old, new in reversed(self._installed):
            rebind(new, old)
        self._installed.clear()

    def _wrap_problem_from_config(self, orig):
        load = self.wrap("config.load", orig)

        def traced(cfg):
            return self.trace_problem(load(cfg))

        return traced

    def trace_problem(self, p):
        """Copy of ``p`` whose drift and diffusion functions record spans."""
        rows = (lambda v: {"rows": _rows(v)})
        nl = dataclasses.replace(
            p.nonlinearity,
            fn=self.wrap("problem.drift", p.nonlinearity.fn, attrs=rows))
        noise = dataclasses.replace(
            p.noise, fn=self.wrap("problem.diffusion", p.noise.fn, attrs=rows))
        return dataclasses.replace(p, nonlinearity=nl, noise=noise)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,request,name,start_s,end_s,error\n")
            for rec in self.spans:
                fh.write(f"{rec[ID]},{rec[PARENT]},{rec[REQUEST]},{rec[NAME]},"
                         f"{rec[START]!r},{rec[END]!r},{rec[ERROR] or ''}\n")


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for rec in spans:
        children[rec[PARENT]].append((rec[START], rec[END]))
    return {rec[ID]: (rec[END] - rec[START])
            - _covered(children.get(rec[ID], []), rec[START], rec[END])
            for rec in spans}


def layer_metrics(spans: list, n_graph_calls: int) -> dict:
    """Per-layer figures from the spans of one traced pass.

    Counts and times are per graph call (a call of ``unstable_graph`` or
    ``stable_graph``, certified or not); ``rows_per_call``,
    ``drift_rows_per_eval``, ``achieved_mflops``, ``node_us`` and
    ``useful_map_ratio`` are ratios over the whole pass.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec[NAME]].append(rec)
    g = max(n_graph_calls, 1)

    def recs(name):
        return by_name.get(name, [])

    def count(name):
        return len(recs(name)) / g

    def inclusive(name):
        return sum(r[END] - r[START] for r in recs(name)) / g

    def self_s(name):
        return sum(own[r[ID]] for r in recs(name)) / g

    def attr_sum(name, key):
        return sum((r[ATTRS] or {}).get(key, 0) for r in recs(name))

    lsmc = recs("condexp.lsmc")
    lsmc_self = sum(own[r[ID]] for r in lsmc)
    flops = sum(2.0 * r[ATTRS]["rows"] * r[ATTRS]["cols"] ** 2 for r in lsmc)
    maps = recs("lyapunov_perron.map")
    map_self = sum(own[r[ID]] for r in maps)
    nodes = attr_sum("lyapunov_perron.map", "nodes")
    iterations = attr_sum("lyapunov_perron.graph", "iterations")
    drift = recs("problem.drift")
    cli_ids = {r[ID] for r in recs("cli.main")}
    cli_graph = sum(r[END] - r[START] for r in recs("lyapunov_perron.graph")
                    if r[PARENT] in cli_ids)
    return {
        "condexp.lsmc_calls": count("condexp.lsmc"),
        "condexp.lsmc_s": lsmc_self / g,
        "condexp.rows_per_call": (attr_sum("condexp.lsmc", "rows") / len(lsmc)
                                  if lsmc else 0.0),
        "condexp.achieved_mflops": flops / lsmc_self / 1e6 if lsmc_self > 0 else 0.0,
        "condexp.refusals": sum(1 for r in lsmc if r[ERROR] in REFUSALS) / g,
        "stochastic.sample_wiener_calls": count("stochastic.sample_wiener"),
        "stochastic.sample_wiener_s": inclusive("stochastic.sample_wiener"),
        "stochastic.integrate_mild_s": inclusive("stochastic.integrate_mild"),
        "stochastic.map_chunks_fanouts": sum(
            1 for r in recs("stochastic.map_chunks") if r[ATTRS]["fanout"]) / g,
        "stochastic.map_chunks_s": inclusive("stochastic.map_chunks"),
        "stochastic.forcing_modes_calls": count("stochastic.forcing_modes"),
        "stochastic.forcing_modes_s": self_s("stochastic.forcing_modes"),
        "problem.drift_evals": count("problem.drift"),
        "problem.drift_s": self_s("problem.drift"),
        "problem.drift_rows_per_eval": (attr_sum("problem.drift", "rows") / len(drift)
                                        if drift else 0.0),
        "problem.diffusion_evals": count("problem.diffusion"),
        "problem.diffusion_s": self_s("problem.diffusion"),
        "lyapunov_perron.map_calls": count("lyapunov_perron.map"),
        "lyapunov_perron.iterations": iterations / g,
        "lyapunov_perron.useful_map_ratio": iterations / len(maps) if maps else 0.0,
        "lyapunov_perron.map_self_s": map_self / g,
        "lyapunov_perron.node_us": 1e6 * map_self / nodes if nodes else 0.0,
        "lyapunov_perron.dual_route_s": (inclusive("lyapunov_perron.graph")
                                         - inclusive("lyapunov_perron.solve")),
        "config.load_s": self_s("config.load"),
        "cli.io_s": inclusive("cli.main") - cli_graph / g,
        "oracles.check_s": inclusive("oracles.check"),
    }
