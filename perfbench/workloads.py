"""The three benchmark workloads and the checks every request must pass.

Each workload builds its problem once (``setup``), turns a workload seed
into an endless, reproducible stream of requests (``requests``) whose
first few make up one run (``plan``), and splits
a request into an untimed ``prepare`` step (client-side input writing), the
timed ``run`` (the program's work) and an untimed ``collect`` that turns
the program's output into ``GraphRecord`` objects for ``check``.

Anchors are drawn from a randomly shifted Kronecker sequence, so any
prefix of the stream covers the anchor range evenly and two seeds see the
same mix of easy and hard anchors; the seed sets the shift and the noise
seed of every request.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from msmanifold import (cli, config, example_pde, lyapunov_perron, oracles,
                        problem, stochastic)
from tracer import rebind

# Kronecker steps for one and two dimensions (Roberts' generalised golden
# ratio, the root of x^(d+1) = x + 1).
_PHI = {1: 1.6180339887498949, 2: 1.3247179572447460}


def kronecker(rng: np.random.Generator, dim: int) -> Iterator[np.ndarray]:
    """Randomly shifted low-discrepancy points in [0, 1)^dim."""
    alpha = np.array([_PHI[dim] ** -(k + 1) for k in range(dim)])
    shift = rng.random(dim)
    k = 0
    while True:
        k += 1
        yield (shift + k * alpha) % 1.0


@dataclass(frozen=True)
class Request:
    index: int
    seed: int
    anchor: np.ndarray
    side: str = "unstable"


@dataclass
class GraphRecord:
    """What the checks need from one graph, however it was produced."""
    side: str
    anchor: np.ndarray          # (n, k) anchor block per sample
    h_value: np.ndarray         # (n, k') graph value per sample
    converged: bool
    residual: Optional[float]
    consistency_gap: float
    ito_ok: bool
    tol: float
    dt: float
    slope: np.ndarray           # (k', k) linear-oracle slope, h = slope @ x


@dataclass
class Outcome:
    graphs: list
    accuracy: float             # the workload's accuracy_err for this request
    payload: bytes              # numeric outputs, hashed into the run digest
    bytes_written: int = 0


class RequestFailed(Exception):
    """A request the program refused; ``kind`` names the exception class."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def linear_slope(eigs: np.ndarray, primary, secondary, coupling: np.ndarray) -> np.ndarray:
    """Sylvester slope M of the graph secondary = M @ primary for a linear
    drift ``coupling`` on a diagonal spectrum."""
    perm = np.r_[primary, secondary]
    return oracles.linear_manifold_oracle(np.diag(eigs[primary]),
                                          np.diag(eigs[secondary]),
                                          coupling[np.ix_(perm, perm)])


# Slack of the oracle comparison for the time-discretisation error, which
# the solver tolerance does not cover: relative to the anchor and first
# order in dt (the stiff stable modes of pde_flux give 1.2e-5 at dt = 1e-3
# and 3e-4 at dt = 1e-2).
_ORACLE_SLACK_PER_DT = 0.1


def oracle_error(g: GraphRecord) -> tuple:
    """(error, threshold): the sample mean of h - M x against the slope
    oracle, and the bound it must stay under: twice the solver tolerance,
    the discretisation slack, and six Monte Carlo standard errors."""
    d = g.h_value - g.anchor @ g.slope.T
    n = d.shape[0]
    err = float(np.max(np.abs(d.mean(axis=0))))
    se = float(np.max(d.std(axis=0))) / np.sqrt(n)
    slack = _ORACLE_SLACK_PER_DT * g.dt * float(np.max(np.abs(g.anchor)))
    threshold = 2.0 * g.tol + slack + 6.0 * se
    return err, threshold


def check_graph(g: GraphRecord) -> tuple:
    """(uncertified, wrong): the certificates the program itself reports as
    failed, and the ways the graph disagrees with the independent checks.
    Both are empty for a certified, correct graph."""
    uncertified, wrong = [], []
    if not g.converged:
        uncertified.append("fixed point did not converge")
    if g.residual is None or not g.residual <= g.tol:
        uncertified.append(f"residual {g.residual} > tol {g.tol}")
    if not g.consistency_gap <= 2.0 * g.tol:
        uncertified.append(f"consistency gap {g.consistency_gap:.3e} > 2*tol")
    if not g.ito_ok:
        uncertified.append("martingale-zero check failed")
    if not (np.all(np.isfinite(g.h_value)) and np.all(np.isfinite(g.anchor))):
        wrong.append("non-finite graph value")
    else:
        err, threshold = oracle_error(g)
        if not err <= threshold:
            wrong.append(f"{g.side} graph misses the slope oracle by {err:.3e} "
                         f"> {threshold:.3e}")
    return uncertified, wrong


def record_from_graph(graph, cfg, slope: np.ndarray) -> GraphRecord:
    t = graph.trace
    return GraphRecord(side=graph.side, anchor=np.asarray(graph.anchor),
                       h_value=np.asarray(graph.h_value),
                       converged=bool(t.converged), residual=t.residual,
                       consistency_gap=float(graph.consistency_gap),
                       ito_ok=bool(t.ito_check.get("ok", False)), tol=cfg.tol,
                       dt=cfg.dt, slope=slope)


class Workload:
    name = ""
    round_size = 1      # a run serves whole rounds of requests
    # Request time on the reference machine (2-vCPU VM, numpy 2.4, Python
    # 3.11), full and reduced size; it sets how many requests fill a run.
    nominal_s = 1.0
    smoke_nominal_s = 1.0

    def __init__(self, smoke: bool = False, work_dir: str = "."):
        self.smoke = smoke
        self.work_dir = work_dir
        self.problem = None

    def setup(self) -> None:
        raise NotImplementedError

    def requests(self, seed: int) -> Iterator[Request]:
        raise NotImplementedError

    def plan(self, seed: int, seconds: float) -> list:
        """The requests of one run: the fewest whole rounds of the seed's
        stream that take at least ``seconds`` at the nominal request time.
        The count depends only on ``seconds``, so a seed always gives the
        same requests."""
        per_round = self.round_size * (self.smoke_nominal_s if self.smoke
                                       else self.nominal_s)
        n = self.round_size * max(1, math.ceil(seconds / per_round))
        return list(itertools.islice(self.requests(seed), n))

    def prepare(self, req: Request):
        return req

    def run(self, prepared):
        raise NotImplementedError

    def collect(self, prepared, raw) -> Outcome:
        raise NotImplementedError

    def trace_problem(self, tracer) -> None:
        """Swap in a problem whose drift/diffusion record spans."""
        self.problem = tracer.trace_problem(self.problem)


class LsmcUnstable(Workload):
    name = "lsmc_unstable"
    nominal_s = 2.7
    smoke_nominal_s = 0.5
    EIGS = [1.5, 1.0, -1.0, -2.0]

    def setup(self) -> None:
        coupling = np.full((4, 4), 0.03)
        self.coupling = coupling
        self.problem = problem.build_problem(
            self.EIGS, [0, 1], 1.0, -1.0, 0.5, -0.5,
            problem.linear_nonlinearity(coupling),
            problem.diagonal_linear_noise([0.1] * 4))
        self.cfg = lyapunov_perron.LPConfig(
            c_zeta=1.0, t_back=12.0, dt=0.1 if self.smoke else 2e-2, tol=1e-4,
            n_samples=256 if self.smoke else 1024)
        self._slope = None

    def requests(self, seed: int) -> Iterator[Request]:
        rng = np.random.default_rng([seed, 1])
        for i, u in enumerate(kronecker(rng, 2)):
            yield Request(i, int(rng.integers(2 ** 31)), 2.0 * u - 1.0)

    def run(self, req: Request):
        cfg = replace(self.cfg, seed=req.seed)
        return lyapunov_perron.unstable_graph(self.problem, req.anchor, cfg)

    def collect(self, req: Request, graph) -> Outcome:
        if self._slope is None:
            p = self.problem
            self._slope = linear_slope(p.eigenvalues, p.unstable_modes,
                                       p.stable_modes, self.coupling)
        rec = record_from_graph(graph, self.cfg, self._slope)
        payload = rec.h_value.tobytes() + np.asarray(graph.trace.distances).tobytes()
        return Outcome([rec], float(graph.consistency_gap), payload)


class PdeFlux(Workload):
    name = "pde_flux"
    M = 8
    round_size = 3      # unstable, stable, unstable
    nominal_s = 4.3
    smoke_nominal_s = 0.5

    def setup(self) -> None:
        m = self.M
        self.g0 = 0.02 * np.eye(m)
        self.g1 = 0.05 * np.ones(m)
        self.g2 = 0.05 * np.ones(m)
        self.problem = example_pde.build_example_problem(
            m=m, g0=self.g0, g1=self.g1, g2=self.g2)
        dt = 1e-2 if self.smoke else 1e-3
        self.base = config.example_problem_config(self.problem, run={
            "dt": dt, "t_back": 6.0, "t_fwd": 6.0, "tol": 1e-6, "c_zeta": 0.5})
        self.config_path = os.path.join(self.work_dir, "pde_request.json")
        self.out_dir = os.path.join(self.work_dir, "pde_out")
        self._slopes = None

    def requests(self, seed: int) -> Iterator[Request]:
        # Every round is unstable, stable, unstable, and a run serves whole
        # rounds, so the side mix never changes and the median falls
        # among the (slower) unstable solves.  Stable anchors get a random
        # direction and a stratified radius.
        rng = np.random.default_rng([seed, 2])
        unstable, stable = kronecker(rng, 1), kronecker(rng, 1)
        for i in itertools.count(0, 3):
            for k, side in enumerate(("unstable", "stable", "unstable")):
                if side == "unstable":
                    u = next(unstable)[0]
                    sign = 1.0 if u < 0.5 else -1.0
                    x = np.array([sign * (0.05 + 0.3 * (u % 0.5))])
                else:
                    d = rng.standard_normal(self.M - 1)
                    x = (0.05 + 0.25 * next(stable)[0]) * d / np.linalg.norm(d)
                yield Request(i + k, int(rng.integers(2 ** 31)), x, side)

    def prepare(self, req: Request) -> Request:
        cfg = dict(self.base, run=dict(self.base["run"], side=req.side, seed=req.seed,
                                       anchor=[float(v) for v in req.anchor]))
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(config.canonical_json(cfg))
        return req

    def run(self, req: Request):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([f"solve-{req.side}", "--config", self.config_path,
                           "--out", self.out_dir])
        if rc != cli.EXIT_OK:
            text = err.getvalue().strip()
            raise RequestFailed(text.split(":", 1)[0] or f"exit {rc}", text)
        return rc

    def _slope(self, side: str) -> np.ndarray:
        if self._slopes is None:
            # Mode-space drift matrix through the solver's frozen columns.
            cols = stochastic.solver_boundary_columns(self.problem)
            drift = (self.g0 + np.multiply.outer(cols[:, 0], self.g1)
                     + np.multiply.outer(cols[:, 1], self.g2))
            p = self.problem
            u, s = p.unstable_modes, p.stable_modes
            self._slopes = {
                "unstable": linear_slope(p.eigenvalues, u, s, drift),
                "stable": linear_slope(p.eigenvalues, s, u, drift)}
        return self._slopes[side]

    def collect(self, req: Request, rc) -> Outcome:
        with open(os.path.join(self.out_dir, "graph.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        with open(os.path.join(self.out_dir, "trace.json"), encoding="utf-8") as fh:
            trace_text = fh.read()
        k = len(req.anchor)
        values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        doc = json.loads(trace_text)
        t = doc["trace"]
        rec = GraphRecord(side=req.side, anchor=values[:, :k], h_value=values[:, k:],
                          converged=bool(t["converged"]), residual=t["residual"],
                          consistency_gap=float(doc["consistency_gap"]),
                          ito_ok=bool(t["ito_check"].get("ok", False))
                          and not doc["uncertified"],
                          tol=float(t["tol"]), dt=float(self.base["run"]["dt"]),
                          slope=self._slope(req.side))
        with open(os.path.join(self.out_dir, "graph.csv"), "rb") as fh:
            payload = fh.read() + trace_text.encode()
        written = sum(e.stat().st_size for e in os.scandir(self.out_dir) if e.is_file())
        err = float(np.max(np.abs(rec.h_value - rec.anchor @ rec.slope.T)))
        return Outcome([rec], err, payload, written)

    def trace_problem(self, tracer) -> None:
        # The CLI rebuilds the problem from the config file on every request;
        # the tracer's problem_from_config wrapper swaps the functions there.
        pass


class WideInvariance(Workload):
    name = "wide_invariance"
    nominal_s = 6.3
    smoke_nominal_s = 1.0

    def setup(self) -> None:
        coupling = np.array([[0.0, 0.0], [0.1, 0.0]])
        self.coupling = coupling
        self.problem = problem.build_problem(
            [1.0, -2.0], [0], 1.0, -1.0, 0.5, -0.5,
            problem.linear_nonlinearity(coupling),
            problem.diagonal_linear_noise([0.1, 0.1]))
        self.cfg = lyapunov_perron.LPConfig(
            c_zeta=0.5, t_back=4.5, dt=5e-2 if self.smoke else 2.5e-2, tol=1e-2,
            n_samples=2048 if self.smoke else 8192)
        self.t0 = 0.5
        self._slope = None

    def requests(self, seed: int) -> Iterator[Request]:
        rng = np.random.default_rng([seed, 3])
        for i, u in enumerate(kronecker(rng, 1)):
            sign = 1.0 if u[0] < 0.5 else -1.0
            yield Request(i, int(rng.integers(2 ** 31)),
                          np.array([sign * (0.03 + 0.14 * (u[0] % 0.5))]))

    def run(self, req: Request):
        captured = []
        inner = lyapunov_perron.unstable_graph

        def capture(*args, **kwargs):
            graph = inner(*args, **kwargs)
            captured.append(graph)
            return graph

        rebind(inner, capture)
        try:
            cfg = replace(self.cfg, seed=req.seed)
            residual = lyapunov_perron.invariance_residual(
                self.problem, req.anchor, cfg, t0=self.t0, side="unstable")
        finally:
            rebind(capture, inner)
        return residual, captured

    def collect(self, req: Request, raw) -> Outcome:
        residual, graphs = raw
        if self._slope is None:
            p = self.problem
            self._slope = linear_slope(p.eigenvalues, p.unstable_modes,
                                       p.stable_modes, self.coupling)
        recs = [record_from_graph(g, self.cfg, self._slope) for g in graphs]
        payload = np.float64(residual).tobytes() + b"".join(
            r.h_value.tobytes() for r in recs)
        return Outcome(recs, float(residual), payload)


WORKLOADS = {w.name: w for w in (LsmcUnstable, PdeFlux, WideInvariance)}
