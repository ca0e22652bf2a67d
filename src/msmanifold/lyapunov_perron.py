"""Backward and forward fixed-point maps for mean-square invariant graphs.

The backward map builds the unstable manifold: at each grid time the unstable
block is a conditional expectation (anchor pull-back minus the conditional
drift integral; the Ito term is zero by the martingale property) and the
stable block is a per-sample truncated convolution plus Ito quadrature. The
forward map mirrors this for the stable invariant set. One map body and one
fixed-point loop serve both sides, which differ in the window, the anchor
block and the unstable fit. Both blocks project one forcing, evaluated once
per time block in a forward pass that runs the stable scan; a reverse pass
then scans and regresses the unstable drift.

A deterministic anchor, the same on every sample, takes two shortcuts. With
zero noise every sample path is the same, so the solve runs on one sample
and copies the path to the requested samples. With noise, the solve starts
from that zero-noise fixed point instead of the semigroup guess: the
mean-square graph is a perturbation of it of the order of the noise.

A solve with more than one sample stores its iterates float32 when the
floor that this rounding puts under its distances is at most tol/100
(_iterate_dtype), else float64. The maps read every block as float64 and
compute in float64, and the certificates are float64 sums of what is
stored.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .condexp import RegressionBasis, _index_rows, condexp_ito_zero, condexp_lsmc, default_basis
from .errors import (ConfigError, ConsistencyFailure, GridMismatch, IllConditionedDesign,
                     MaxIterExceeded, NonfiniteState, TruncationTooShort)
from .problem import GapReport, SpectralProblem, _normalize_anchor, gap_report, zero_noise
from .resolvent import BoundaryTriple, forcing_modes, scan_layout, trapezoid_scan
from .stochastic import (_LATTICE_RTOL, ProcessEnsemble, TimeGrid, WienerEnsemble,
                         _by_node, _by_sample, _node_ms, _path_moments, _row_sum, _sample_buffer,
                         _span_steps, _weighted_gap, integrate_mild, ms_norm, sample_wiener,
                         solver_boundary_columns)

BASIS_DEGREE = 2          # of every solve's regression basis and the invariance projection
LIPSCHITZ_SLACK = 0.25    # lipschitz_certify's multiplicative slack over the gap's bound


def _is_finite_number(value) -> bool:
    """A real number, not a boolean, that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an integer beyond the float range
        return False


@dataclass(frozen=True)
class LPConfig:
    """Solver configuration. Not settings: the dichotomy rates (every solve
    reads p.gamma and p.zeta), BASIS_DEGREE and LIPSCHITZ_SLACK.

    A config file's run block sets every field but c_zeta_source and force.
    Its defaults are these field defaults, plus 0.5 for c_zeta, which has
    none here."""
    c_zeta: float
    tau: float = 0.0
    t_back: float = 1.0
    t_fwd: float = 1.0
    dt: float = 1e-3
    n_samples: int = 2
    seed: int = 0
    tol: float = 1e-6
    max_iter: int = 50
    c_zeta_source: str = "user"
    force: bool = False

    def __post_init__(self):
        """The one check of a config, when it is built: finite float fields,
        integer int fields (numpy integers pass, booleans do not), positive
        c_zeta, tol, horizons and dt, and max_iter and n_samples >= 1."""
        for f in fields(self):      # annotations are strings in this module
            value = getattr(self, f.name)
            if f.type == "float" and not _is_finite_number(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        for name in ("c_zeta", "tol", "t_back", "t_fwd", "dt", "max_iter", "n_samples"):
            value = getattr(self, name)
            if value <= 0:
                need = ">= 1" if name in ("max_iter", "n_samples") else "positive"
                raise ConfigError(f"{name} must be {need}, got {value!r}")

    def basis_for(self, p: SpectralProblem) -> RegressionBasis:
        return default_basis(p, BASIS_DEGREE)


@dataclass
class FixedPointTrace:
    distances: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    tol: float = 0.0
    residual: Optional[float] = None
    ito_check: dict = field(default_factory=dict)
    tail_bound: float = 0.0
    gap: Optional[GapReport] = None
    regression: dict = field(default_factory=dict)
    consistency_gap: Optional[float] = None   # reported by ManifoldGraph, so not in as_dict

    def as_dict(self) -> dict:
        return {"distances": [float(d) for d in self.distances],
                "ratios": [float(r) for r in self.ratios],
                "iterations": self.iterations, "converged": self.converged,
                "tol": self.tol, "residual": self.residual,
                "ito_check": self.ito_check, "tail_bound": self.tail_bound,
                "gap": None if self.gap is None else self.gap.as_dict(),
                "regression": self.regression}


@dataclass(frozen=True, eq=False)
class ManifoldGraph:
    """The graph h(x, tau) of a certified fixed point, its certificates and a
    summary of the fixed point's path. The path itself is not kept: the
    solves (lp_backward_solve, lp_forward_solve) return it."""
    side: str                      # "unstable" | "stable"
    tau: float
    anchor: np.ndarray             # (n, k_anchor), coordinates in the anchor block
    h_value: np.ndarray            # (n, k_other), graph value in the complementary block
    anchor_idx: np.ndarray
    value_idx: np.ndarray
    path: np.ndarray               # (rows, m + 2): t, per-mode sample mean and ms_norm
                                   # at every stride-th node of the window (_graph)
    trace: FixedPointTrace
    consistency_gap: float         # ms-norm of the residual map's move of h_value,
                                   # at most trace.residual

    @property
    def n_samples(self) -> int:
        return self.anchor.shape[0]

    def point(self) -> np.ndarray:
        """Full state x + h at tau, (n, m)."""
        m = len(self.anchor_idx) + len(self.value_idx)
        out = np.zeros((self.n_samples, m))
        out[:, self.anchor_idx] = self.anchor
        out[:, self.value_idx] = self.h_value
        return out


@dataclass(frozen=True)
class LipschitzCertificate:
    side: str
    theoretical: float
    empirical: float
    passed: bool
    slack: float
    ratios: tuple


def gap_report_for(p: SpectralProblem, cfg: LPConfig) -> GapReport:
    return gap_report(p, cfg.c_zeta, cfg.c_zeta_source)


def _block_indices(p: SpectralProblem) -> tuple:
    return (np.asarray(p.unstable_modes, dtype=int),
            np.asarray(p.stable_modes, dtype=int))


# Time blocks hold _BLOCK_ROWS sample rows, and never fewer than
# _MIN_BLOCK_NODES nodes. A map holds one block's drift, diffusion, Ito
# increments and stable scan in its forward pass, and one block's unstable
# scan and fits in its reverse pass; the unstable drift waits in between in
# the map's output. So the rows bound the memory a map needs beyond its
# output; the node floor spreads each block's fixed cost (interpreter work
# and one batched drift and diffusion call) over enough nodes on large
# ensembles. The length depends on n_samples alone.
_BLOCK_ROWS = 1 << 14
_MIN_BLOCK_NODES = 8


def _block_len(n_samples: int) -> int:
    """Grid nodes per time block."""
    return max(_MIN_BLOCK_NODES, _BLOCK_ROWS // n_samples)


def _varying_nodes(x: np.ndarray, among: np.ndarray) -> np.ndarray:
    """Which of the nodes ``among`` (a mask) of a block x (L, k, n) differ
    across the samples. A node whose first two samples differ varies; only
    the others are compared in full with their first sample."""
    varies = among & np.any(x[..., 1:2] != x[..., :1], axis=(1, 2))
    rest = np.flatnonzero(among & ~varies)
    if rest.size:
        sel = slice(None) if rest.size == len(x) else rest
        varies[rest] = ~np.all(x[sel] == x[sel][..., :1], axis=(1, 2))
    return varies


@dataclass(frozen=True, eq=False)
class FrozenFeatures:
    """The regression state of every map of a solve after it is set: one
    iterate, frozen, so each node's regression subspace stays the same
    from map to map (FrozenFeatures.of). Only the mode columns that vary
    across the samples at some node are kept, float32, (N+1, k_v, n)
    node-major: a column that is the same on every sample at every node
    spans only the intercept. A map reads them as float64 blocks (block)
    and regresses on its basis restricted to them (basis). They share no
    memory with the iterate they were frozen from."""
    varying_modes: tuple
    varying: np.ndarray             # (N+1, k_v, n) float32
    shape: tuple                    # (n_samples, n_nodes, m) of the iterate's values

    @classmethod
    def of(cls, values: np.ndarray) -> "FrozenFeatures":
        """The features of an iterate's sample-major values (n, N+1, m),
        copied a column at a time, so no float64 temporary spans the path."""
        nodes = _by_node(values)
        n_nodes, m, n = nodes.shape
        every = np.ones(n_nodes, dtype=bool)
        vary = tuple(k for k in range(m) if _varying_nodes(nodes[:, k:k + 1], every).any())
        varying = np.empty((n_nodes, len(vary), n), dtype=np.float32)
        for i, k in enumerate(vary):
            varying[:, i] = nodes[:, k]
        return cls(vary, varying, values.shape)

    def basis(self, full: RegressionBasis) -> RegressionBasis:
        """``full``, a basis of the iterate's modes, restricted to the kept
        columns and indexed by their place in a block: its primary and
        linear modes that vary, in its order."""
        at = {k: i for i, k in enumerate(self.varying_modes)}
        return RegressionBasis(degree=full.degree,
                               primary_idx=tuple(at[k] for k in full.primary_idx if k in at),
                               linear_idx=tuple(at[k] for k in full.linear_idx if k in at))

    def block(self, a: int, b: int) -> np.ndarray:
        """The kept columns at nodes a to b - 1 as a float64 (node, column,
        sample) block (b - a, k_v, n)."""
        return self.varying[a:b].astype(float)


def _conditional_fit(target: np.ndarray, state: np.ndarray, basis: RegressionBasis,
                     grid: TimeGrid, a: int, agg: dict) -> None:
    """E[target_j|F_{t_j}] in place of target, a float64 (node, mode,
    sample) block (L, k, n) of the nodes j = a, a+1, ...: target regressed
    on the basis of the state (L, c, n) at the same node, since at the
    fixed point the mild solution is Markov. Exact short-circuits, tested
    as node masks: a deterministic target is its own conditional
    expectation; a deterministic conditioning state reduces the regression
    to the plain mean, _row_sum of each sample row over n. The remaining
    nodes are one stacked regression, handed to condexp_lsmc as (L, n, k)
    views whose feature-major copies are free; its fits are written back
    into target, and agg records the basis size."""
    varies = _varying_nodes(target, np.ones(len(target), dtype=bool))
    mean_nodes = varies & ~_varying_nodes(state, varies)
    if mean_nodes.any():
        agg["mean_fits"] = agg.get("mean_fits", 0) + int(mean_nodes.sum())
        target[mean_nodes] = (_row_sum(target[mean_nodes]) / target.shape[2])[..., None]
    nodes = np.flatnonzero(varies & ~mean_nodes)
    if nodes.size == 0:
        return
    sel = slice(None) if nodes.size == len(target) else nodes   # a slice copies nothing
    try:
        est = condexp_lsmc(target[sel].swapaxes(1, 2), state[sel].swapaxes(1, 2), basis)
    except IllConditionedDesign as exc:
        j = a + int(nodes[exc.node])
        raise IllConditionedDesign(f"grid node {j} (t = {grid.times[j]:.6g}): {exc}",
                                   node=j, cond=exc.cond, limit=exc.limit) from exc
    diag = est.diagnostics
    agg["n_regressions"] = agg.get("n_regressions", 0) + int(nodes.size)
    agg["basis_size"] = diag["basis_size"]
    agg["max_cond"] = max(agg.get("max_cond", 0.0), float(diag["cond"].max()))
    agg["min_r2"] = min(agg.get("min_r2", 1.0), float(diag["r2"].min()))
    target[sel] = est.fitted.swapaxes(1, 2)


def _apart(x, v: np.ndarray) -> bool:
    """Whether x is an array that may be written without touching v (a drift
    may return its input, and v may be a view of vals)."""
    return isinstance(x, np.ndarray) and x.flags.writeable and not np.may_share_memory(x, v)


def _forcing_blocks(p: SpectralProblem, vals: np.ndarray, cols, dt: float,
                    wiener: Optional[WienerEnsemble]):
    """Forward time blocks of vals as contiguous float64 (node, mode,
    sample) blocks v (L, m, n), views of the package's float64 storage
    (copies of its float32 storage and of any other layout), with the
    half-step drift and the Ito increment leaving each node, both (L, m, n)
    and contiguous; drift and diffusion see a block as its (L, n, m) view.
    No increment leaves the last grid node; without ``wiener`` there are
    none, and ito is None. Yields (a, v, half, ito), a the first node.

    The drift is mapped into modes and halved in place when it may be
    written (_apart): a boundary triple's f takes its boundary terms unless
    it shares memory with v, a or b."""
    nodes = _by_node(vals)
    n_nodes, m, n = nodes.shape
    length = _block_len(n)
    increments = None if wiener is None else _by_node(wiener.increments)
    for a in range(0, n_nodes, length):
        v = np.ascontiguousarray(nodes[a:a + length], dtype=float)
        rows = v.swapaxes(1, 2)
        value = p.nonlinearity.fn(rows)
        own_f = isinstance(value, BoundaryTriple) and _apart(value.f, v) \
            and not np.may_share_memory(value.f, value.a) \
            and not np.may_share_memory(value.f, value.b)
        half = np.ascontiguousarray(forcing_modes(value, cols, in_place=own_f).swapaxes(1, 2))
        if _apart(half, v):
            half *= 0.5 * dt
        else:
            half = 0.5 * dt * half
        if wiener is None:
            yield a, v, half, None
            continue
        steps = min(len(v), n_nodes - 1 - a)
        # zeros only where a node has no increment: the last block
        ito = np.empty_like(half) if steps == len(v) else np.zeros_like(half)
        if steps:
            amp = p.noise.diffusion(rows[:steps]).swapaxes(1, 2)
            dw = ito[:steps]
            dw[...] = increments[a:a + steps]   # float64, exactly; no mixed-type product
            np.multiply(amp, dw, out=dw)
        yield a, v, half, ito


# Both sides scan the exponential trapezoid rule (trapezoid_scan), forward on
# the stable side and in reverse on the unstable one, h the half-step drift.
# Blocks are (node, mode, sample): a mode subset is a set of sample rows, and
# each per-mode factor (decay, Ito weight, semigroup) broadcasts along them.
# Zero noise adds no increments: adding zero ones would only turn a -0 in z
# into +0, and z - h is +0 at such a node either way.

def _forward_pass(p: SpectralProblem, vals: np.ndarray, out: np.ndarray, cols,
                  dt: float, wiener: Optional[WienerEnsemble], start) -> np.ndarray:
    """A map's forward pass over the time blocks of vals into out (N+1, m,
    n): the stable block, T(t_j - t_0) start plus the trapezoid convolution
    of the stable drift and the Ito quadrature of the stable noise over
    [t_0, t_j], and the unstable half-step drift, parked in out[:, u]. The
    scan runs in float64, its carry too; each block is rounded to out's
    dtype as it is written. ``start`` is 0 or (k_s, n). Returns the one
    use of the unstable noise, sum_j e^{-lambda_u j dt} sigma_u(x_j) dW_j,
    (k_u, n), added in node order."""
    s, u = _index_rows(p.stable_modes), _index_rows(p.unstable_modes)
    decay = np.exp(p.eigenvalues[p.stable_modes] * dt)[:, None]
    ito0 = np.zeros((len(p.unstable_modes), out.shape[2]))
    if wiener is not None:
        weight = np.exp(-np.outer(np.arange(len(out)) * dt, p.eigenvalues[p.unstable_modes]))
    carry = None
    for a, v, half, ito in _forcing_blocks(p, vals, cols, dt, wiener):
        rows = slice(a, a + len(v))
        out[rows, u] = half[:, u]
        h = scan_layout(half[:, s])
        z = h + h
        if ito is not None:
            ito0 += np.einsum("jkn,jk->kn", ito[:, u], weight[rows])
            dw = ito[:, s]
            dw *= decay                 # the increment leaving node j reaches j + 1
            z[1:] += dw[:-1]
            if carry is not None:
                z[0] += dw_prev
            dw_prev = dw[-1]
        carry = trapezoid_scan(z, h, decay, carry, start)
        out[rows, s] = z
    return ito0


def _map_blocks(p: SpectralProblem, vals: np.ndarray, out: np.ndarray, cols,
                dt: float, wiener: Optional[WienerEnsemble], start=0.0):
    """A map's two passes: the forward pass, then a reverse pass that scans
    the parked drift and yields, last block first, (a, v, drift, ito0): the
    first node, the (node, mode, sample) view v (L, m, n) of vals' block,
    in vals' layout and float type, the unstable drift's float64 trapezoid
    convolution over [t_j, t_end], (L, k_u, n), and the forward pass's Ito
    sum. The parked drift is read back as float64; in float32 storage it
    was rounded to float32 between the passes, a relative error of at most
    2^-24 in each half-step drift, the rounding the stored iterate takes
    anyway. The caller overwrites the parked drift with its fits, and the
    anchor node."""
    ito0 = _forward_pass(p, vals, out, cols, dt, wiener, start)
    u = _index_rows(p.unstable_modes)
    decay = np.exp(-p.eigenvalues[p.unstable_modes] * dt)[:, None]
    nodes = _by_node(vals)
    length = _block_len(out.shape[2])
    carry = None
    for a in reversed(range(0, len(out), length)):
        h = scan_layout(np.asarray(out[a:a + length, u], dtype=float))
        z = h + h
        carry = trapezoid_scan(z, h, decay, carry, reverse=True)
        yield a, nodes[a:a + length], z, ito0


def _driving_noise(p: SpectralProblem, wiener: Optional[WienerEnsemble], grid: TimeGrid,
                   n: int) -> Optional[WienerEnsemble]:
    """The Wiener ensemble a map or solve integrates against: ``wiener``,
    sampled on ``grid`` for n samples; None for zero noise."""
    if p.noise.is_zero:
        return None
    if wiener is None:
        raise ConfigError("nonzero noise requires the driving Wiener ensemble")
    wiener.check_grid(grid)
    if wiener.n_samples != n:
        raise GridMismatch(f"Wiener ensemble has {wiener.n_samples} samples, the paths have {n}")
    return wiener


def _side_layout(p: SpectralProblem, grid: TimeGrid, side: str) -> tuple:
    """(anchor block, value block, anchor node) of a side's window: its end
    for the unstable graph, its start for the stable one."""
    u_idx, s_idx = _block_indices(p)
    if side == "unstable":
        return u_idx, s_idx, grid.n_steps
    return s_idx, u_idx, 0


def _semigroup(p: SpectralProblem, grid: TimeGrid, idx: np.ndarray, node: int) -> np.ndarray:
    """e^{lambda_i (t_j - t_node)} at the window's nodes j, (N+1, len(idx))."""
    return np.exp(np.outer((np.arange(grid.n_nodes) - node) * grid.dt, p.eigenvalues[idx]))


def _initial_guess(p: SpectralProblem, grid: TimeGrid, anchor: np.ndarray,
                   side: str, dtype=float) -> np.ndarray:
    """The anchor moved across the window by the semigroup: pulled back on
    the unstable side, pushed forward on the stable one. Sample-major view
    of (node, mode, sample) storage of ``dtype`` (float64 or float32): each
    block mode's rows are the anchor times that mode's semigroup factor,
    computed in float64 and rounded once to dtype, and the other modes are
    +0."""
    idx, _, node = _side_layout(p, grid, side)
    out = np.zeros((grid.n_nodes, p.n_modes, anchor.shape[0]), dtype=dtype)
    sg = _semigroup(p, grid, idx, node)
    for i, mode in enumerate(idx):
        np.multiply(sg[:, i, None], anchor[:, i], out=out[:, mode])
    return _by_sample(out)


def _spread(values: np.ndarray, n: int, dtype=float) -> np.ndarray:
    """A one-sample path (1, N+1, m) copied to n samples: sample-major view
    of (node, mode, sample) storage of ``dtype``, as every map output is."""
    nodes = _by_node(values)
    out = np.empty(nodes.shape[:2] + (n,), dtype=dtype)
    out[...] = nodes
    return _by_sample(out)


def _map_output(xi: ProcessEnsemble, m: int, out: Optional[np.ndarray]) -> np.ndarray:
    """(node, mode, sample) storage (N+1, m, n) for a map's result: ``out``,
    the sample-major view of float64 or float32 such storage as every map
    output is, or, when it is None, a new array of xi's dtype when that is
    float32, else float64. It must not be xi's own."""
    shape = (xi.grid.n_nodes, m, xi.n_samples)
    if out is None:
        return np.empty(shape, dtype=np.float32 if xi.values.dtype == np.float32 else float)
    nodes = _by_node(out)
    if nodes.shape != shape or nodes.dtype not in (np.float64, np.float32) \
            or not nodes.flags.c_contiguous or not nodes.flags.writeable:
        raise ConfigError(f"map output must be a writable float64 or float32 view of "
                          f"node-major (node, mode, sample) storage, of shape "
                          f"{shape[2], shape[0], m}")
    if np.may_share_memory(nodes, xi.values):
        raise ConfigError("a map cannot write over its own input")
    return nodes


def _lp_map(side: str, p: SpectralProblem, xi: ProcessEnsemble, x, cfg: LPConfig,
            wiener: Optional[WienerEnsemble], out: Optional[np.ndarray],
            features: Optional[FrozenFeatures] = None) -> ProcessEnsemble:
    """One application of the side's map; see lp_backward_map and
    lp_forward_map. The sides differ in the anchor block and node, in the
    start of the stable scan (zero, or the anchor) and in the unstable fit.
    The forward pass writes every entry of the output, so it needs no
    zeros. Each block's unstable fits, and then their subtraction from the
    pulled-back anchor or their negation, run in place in float64, and one
    assignment writes them, rounded once. Each block is checked for
    finiteness once its fits are written, while it is in cache; only a
    failing map searches the whole path for its earliest non-finite node
    and sample. The fits regress on xi's blocks with cfg's basis, or,
    given ``features``, on its blocks with that basis restricted to its
    columns (FrozenFeatures.basis).

    The blocks run with numpy's ufunc buffer lowered to the length of a
    sample row (_sample_buffer, keyed on xi's n_samples; one-sample and
    small ensembles keep numpy's default). A block's mode subsets and the
    regression's padded design are strided views whose contiguous runs,
    one sample row each, are shorter than the default 8192-element
    buffer, and numpy copies such operands through the buffer; with the
    buffer no longer than a row it reads them in place (on numpy 2.4.6
    that saves 15-20% of a 1024-sample map's time; the 2.0 floor
    is unmeasured). No bit depends on the buffer size, and the caller's
    numpy state, its error handling included, holds inside and is
    restored on return and on any exception."""
    grid = xi.grid
    unstable = side == "unstable"
    anchor_idx, _, node = _side_layout(p, grid, side)
    edge = grid.t_start + node * grid.dt
    if abs(edge - cfg.tau) > _LATTICE_RTOL * grid.dt:
        at = "ends" if unstable else "starts"
        raise ConfigError(f"grid {at} at {edge}, config anchors at {cfg.tau}")
    n, m = xi.n_samples, p.n_modes
    u_idx = _block_indices(p)[0]
    u = _index_rows(u_idx)
    anchor, x_det = _normalize_anchor(x, anchor_idx, m, n)
    anchor_rows = anchor.T
    noise = _driving_noise(p, wiener, grid, n)
    basis = cfg.basis_for(p)
    cols = solver_boundary_columns(p)
    N = grid.n_steps
    pull = _semigroup(p, grid, u_idx, N) if unstable else None
    if features is not None:
        if features.shape != xi.values.shape:
            raise GridMismatch(f"features of shape {features.shape} for paths of shape "
                               f"{xi.values.shape}")
        basis = features.basis(basis)
    out = _map_output(xi, m, out)
    agg: dict = {}
    start = 0.0 if unstable else anchor_rows
    finite = True
    with _sample_buffer(n):
        for a, v, drift, ito0 in _map_blocks(p, xi.values, out, cols, grid.dt, noise, start):
            hi = min(len(v), N - a)  # the anchor node N is set apart
            target = drift[:hi]
            if unstable:
                # a deterministic anchor's rows are one row: pulled back as
                # (hi, k, 1) and broadcast
                pulled = (anchor_rows[:, :1] if x_det else anchor_rows) * pull[a:a + hi, :, None]
                if not x_det:
                    np.subtract(pulled, target, out=target)
            state = (np.ascontiguousarray(v[:hi], dtype=float) if features is None
                     else features.block(a, a + hi))
            _conditional_fit(target, state, basis, grid, a, agg)
            if not unstable:
                np.negative(target, out=target)
            elif x_det:   # E[x|F_t] = x: only the drift integral was regressed
                np.subtract(pulled, target, out=target)
            out[a:a + hi, u] = target
            if hi < len(v):
                # the backward map returns x itself at tau (E[x|F_tau] = x);
                # beyond tau + T_fwd lies the forward map's reported
                # truncation tail
                out[N, u] = anchor_rows if unstable else 0.0
            finite = finite and bool(np.isfinite(out[a:a + len(v)]).all())
    if noise is None:   # the Ito sums are zeros: condexp_ito_zero's verdict on them
        ito_diag = {"window": (float(grid.t_start), float(grid.t_end)), "raw_mean": 0.0,
                    "band": 0.0, "ok": True, "n_samples": n}
    else:
        _, ito_diag = condexp_ito_zero(ito0.T, (grid.t_start, grid.t_end))
    if not finite:
        bad = ~np.isfinite(out).all(axis=1)     # (N+1, n)
        node = int(np.argmax(bad.any(axis=1)))
        sample = int(np.argmax(bad[node]))
        direction = "backward" if unstable else "forward"
        raise NonfiniteState(f"{direction} map produced non-finite values at grid node "
                             f"{node} (t = {grid.times[node]:.6g}), sample {sample}",
                             step=node, sample=sample)
    return ProcessEnsemble(grid=grid, values=_by_sample(out),
                           meta={"ito_check": ito_diag, "regression": agg})


def lp_backward_map(p: SpectralProblem, xi: ProcessEnsemble, x, cfg: LPConfig,
                    wiener: Optional[WienerEnsemble] = None, *,
                    out: Optional[np.ndarray] = None,
                    features: Optional[FrozenFeatures] = None) -> ProcessEnsemble:
    """One application of the backward map on the window [tau - T_back, tau].

    The forward pass over the time blocks gives the stable block at t: the
    truncated convolution of the stable drift plus per-sample Ito quadrature
    over [tau - T_back, t]. The reverse pass gives the unstable block at t:
    the regression of the pulled-back anchor minus the per-sample drift
    integral over [t, tau] (one target, so each node factorizes its design
    once); a deterministic anchor passes through unregressed. The Ito term
    is zero (martingale) and its raw-mean diagnostic lands in meta.

    The map is the operator, applied past the gap too: only the fixed-point
    iteration needs the contraction, and the solve checks it once per
    request. The map regresses on cfg's basis, and needs ``wiener``, sampled
    on xi's grid for xi's samples, under nonzero noise (GridMismatch
    otherwise). The result's values are ``out`` when given: (n, N+1, m)
    values of another ensemble, stored (node, mode, sample) as the package
    stores them, float64 or float32, which the map overwrites; else a new
    array of xi's dtype when that is float32, and float64 otherwise. The
    map reads xi block by block as float64, computes in float64 and rounds
    each block to the output's dtype as it writes it, so float64 input
    with no ``out`` gives a float64 result. Every fit regresses on the state
    at its node: xi's, or, when given, that of ``features``, a solve's
    FrozenFeatures of xi's shape (GridMismatch otherwise), which hold only
    the columns that vary and so give the basis: cfg's restricted to them.
    """
    return _lp_map("unstable", p, xi, x, cfg, wiener, out, features)


def lp_forward_map(p: SpectralProblem, xi: ProcessEnsemble, x, cfg: LPConfig,
                   wiener: Optional[WienerEnsemble] = None, *,
                   out: Optional[np.ndarray] = None,
                   features: Optional[FrozenFeatures] = None) -> ProcessEnsemble:
    """One application of the forward map on [tau, tau + T_fwd].

    Forward pass, stable block: pushed-forward anchor plus truncated
    convolution and Ito quadrature over [tau, t]. Reverse pass, unstable
    block: minus the regression of the per-sample drift integral over
    [t, tau + T_fwd]; the sigma term is zero by the martingale property
    (diagnostic in meta). Like lp_backward_map it applies the operator
    past the gap too; basis, noise, ``out`` (float64 or float32; without
    it the result takes xi's dtype when that is float32, else float64) and
    ``features`` as there.
    """
    return _lp_map("stable", p, xi, x, cfg, wiener, out, features)


def _truncation_check(p, cfg, gap, xnorm: float, side: str) -> float:
    """Estimated weighted-norm error from cutting the improper integrals at
    the horizon. Only the forcing terms leak across the cut, so the
    working-norm bound K*|x|/(1-contraction) is scaled by the dimensionless
    forcing strength (the gap constant itself); zero forcing has zero tail."""
    contraction = gap.verdict(side)[1]
    amp = 1.0 / (1.0 - contraction) if contraction < 1.0 else 1.0
    bound = p.bound_K * xnorm * amp * contraction
    horizon, rate = ((cfg.t_back, p.gamma - p.zeta) if side == "unstable"
                     else (cfg.t_fwd, p.alpha - p.gamma))
    tail = p.bound_K * np.exp(-rate * horizon) * bound
    if tail >= cfg.tol / 10.0 and not cfg.force:
        needed = np.log(10.0 * p.bound_K * bound / cfg.tol) / rate
        raise TruncationTooShort(
            f"truncation tail {tail:.3e} >= tol/10; horizon {horizon} too short, need >= {needed:.3f}")
    return float(tail)


def _solver_grid(cfg: LPConfig, side: str) -> TimeGrid:
    """The truncation window of a solve: [tau - T_back, tau] for the
    unstable graph, [tau, tau + T_fwd] for the stable one."""
    name, horizon = ("t_back", cfg.t_back) if side == "unstable" else ("t_fwd", cfg.t_fwd)
    N = _span_steps(horizon, cfg.dt, name, at_least=2)
    start = cfg.tau - N * cfg.dt if side == "unstable" else cfg.tau
    return TimeGrid(start, cfg.dt, N)


def _n_samples(x, cfg: LPConfig) -> int:
    """Ensemble size: the rows of a per-sample anchor, else cfg.n_samples."""
    xarr = np.asarray(x, dtype=float)
    return xarr.shape[0] if xarr.ndim == 2 else cfg.n_samples


def _not_converged(side: str, trace: FixedPointTrace, cfg: LPConfig,
                   what: str) -> MaxIterExceeded:
    last = trace.distances[-1] if trace.distances else None
    why = trace.regression.get("aborted") or f"last distance {last:.3e} > tol {cfg.tol:.3e}"
    return MaxIterExceeded(f"{side} side: {what} within {cfg.max_iter} iterations ({why})",
                           trace=trace, side=side, distance=last, tol=cfg.tol,
                           max_iter=cfg.max_iter)


def _fixed_point(side: str, p: SpectralProblem, x, cfg: LPConfig,
                 wiener: Optional[WienerEnsemble], grid: TimeGrid, guess: np.ndarray,
                 trace: FixedPointTrace, certify: bool = True,
                 guess_varies: bool = False) -> ProcessEnsemble:
    """Iterate the side's map from ``guess`` into ``trace``, checking
    nothing, and return the last iterate. A fixed point gets both
    certificates from one more map, the residual map, when ``certify``:
    the weighted residual over the window, and the consistency gap, the
    ms-norm of the value block at the anchor node. The unstable side lets
    NonfiniteState propagate; the stable side records it as
    trace.regression["aborted"] and returns unconverged. Each map after the
    first writes into the storage of the last dead iterate, the first guess
    included, so the iteration holds two paths, each in the guess's dtype
    (float32 or float64; see _iterate_dtype), and the certificates are
    computed from them in float64.

    The first iterate that varies across the samples is frozen
    (FrozenFeatures) as the regression state of every later map, the
    residual map included: ``guess`` when ``guess_varies``, else the first
    map output that varies in some mode. Until then each map regresses on
    its own input, which is the same on every sample, so its fits are the
    exact plain means. A fixed map then projects each node on one
    subspace. A one-sample iteration regresses nothing and freezes
    nothing."""
    _, value_idx, node = _side_layout(p, grid, side)
    # looked up when the iteration starts, so a rebound map name is the one iterated
    lp_map = lp_backward_map if side == "unstable" else lp_forward_map
    cur = ProcessEnsemble(grid=grid, values=guess)
    times = grid.times
    spare = None    # the storage of the last dead iterate, the next map's output
    features = FrozenFeatures.of(guess) if guess_varies else None
    try:
        for _ in range(cfg.max_iter):
            nxt = lp_map(p, cur, x, cfg, wiener, out=spare, features=features)
            if features is None and cur.n_samples > 1:
                frozen = FrozenFeatures.of(nxt.values)
                features = frozen if frozen.varying_modes else None
            d = _weighted_gap(cur.values, nxt.values, times, cfg.tau, p.gamma)
            if trace.distances and trace.distances[-1] > 0:
                trace.ratios.append(d / trace.distances[-1])
            trace.distances.append(d)
            cur, spare = nxt, cur.values
            if d <= cfg.tol:
                trace.converged = True
                break
    except NonfiniteState as exc:
        if side == "unstable":
            raise
        trace.regression = {"aborted": str(exc)}
    trace.iterations = len(trace.distances)
    trace.ito_check = cur.meta.get("ito_check", {})
    if not trace.regression:
        trace.regression = cur.meta.get("regression", {})
    if trace.converged and certify:
        again = lp_map(p, cur, x, cfg, wiener, out=spare, features=features)
        trace.residual = _weighted_gap(cur.values, again.values, times, cfg.tau, p.gamma)
        trace.consistency_gap = float(_node_ms(cur.values[None, :, node, value_idx],
                                               again.values[None, :, node, value_idx])[0])
    return cur


def _one_sample_solve(side: str, p: SpectralProblem, grid: TimeGrid, anchor: np.ndarray,
                      cfg: LPConfig, trace: FixedPointTrace) -> ProcessEnsemble:
    """The zero-noise fixed point of a deterministic anchor, (n, k)
    identical rows, iterated on one sample into ``trace``: a one-sample
    float64 path, which _spread copies to the n samples, whose
    certificates it equals; ito_check reports n. Under zero noise it is
    the request's own iteration; under nonzero noise the presolve, with
    the noise set to zero and no residual map. It re-enters none of the
    solve's checks: zero noise only lowers eta, delta and the truncation
    tail."""
    certify = p.noise.is_zero
    if not certify:
        p = replace(p, noise=zero_noise(p.n_modes, p.noise.n_noise_modes))
    guess = _initial_guess(p, grid, anchor[:1], side)
    ens = _fixed_point(side, p, anchor[0], cfg, None, grid, guess, trace, certify)
    if "n_samples" in trace.ito_check:
        trace.ito_check["n_samples"] = len(anchor)
    return ens


# Unit roundoff of float32: rounding to nearest moves a number by at most
# this fraction of itself.
_F32_ROUNDOFF = 2.0 ** -24


def _iterate_dtype(n: int, size: float, c: float, tol: float):
    """The storage of the iterates of a solve of n samples whose first
    guess has weighted norm ``size`` (S), under the contraction c of its
    side (gap.verdict(side)[1]): float32 when n > 1 and the floor that
    float32 rounding puts under its distances, 2 u S / (1 - c), is at most
    tol/100, else float64. Every map computes in float64 either way; only
    what it stores is rounded.

    The floor. Each stored iterate is fl(x_k), x_k = Phi(fl(x_{k-1})) the
    map's float64 output. Rounding to nearest moves every entry by at most
    u = 2^-24 of itself, so ||fl(y) - y|| <= u ||y|| in the solver's
    weighted norm (a sup over the nodes of weighted ms-norms, each
    monotone in the entries' magnitudes). With M a bound of the iterates'
    norms, the distance d_k = ||fl(x_k) - fl(x_{k-1})|| obeys

        d_k <= ||x_k - x_{k-1}|| + u (||x_k|| + ||x_{k-1}||)
            <= c d_{k-1} + 2 u M,

    so it settles at no more than 2 u M / (1 - c), and the residual map
    adds at most u M more to the residual. M is taken as S, the first
    guess's weighted norm: the iterates stay within d_1 / (1 - c) of it,
    and the factor 100 between the floor and tol covers that. For the
    semigroup guess S is ms_norm(anchor), up to rounding: its factor
    e^{(lambda_i - gamma)(t - tau)} is 1 at the anchor node and below 1
    elsewhere (lambda_i > gamma at t <= tau, lambda_i < gamma at t >= tau).
    No floor stands under a one-sample solve, which stays float64, nor
    under c >= 1 (a forced solve past the gap)."""
    if n == 1 or not c < 1.0:
        return float
    return np.float32 if 2.0 * _F32_ROUNDOFF * size / (1.0 - c) <= tol / 100.0 else float


def _lp_solve(side: str, p: SpectralProblem, x, cfg: LPConfig,
              wiener: Optional[WienerEnsemble]) -> tuple:
    """One request: its checks, each once (the gap, refused past it unless
    cfg.force; the window; the anchor; the truncation tail; the driving
    noise), then one fixed-point iteration, whose maps repeat none of them.
    Returns (ensemble, trace). A deterministic anchor under zero noise has
    identical sample paths, so it is solved on one sample; under nonzero
    noise that solve's adapted path is the first guess (_one_sample_solve).
    Random anchors, and a presolve that overflows or does not converge,
    start from the semigroup guess. The guess, and so every iterate, is
    stored in _iterate_dtype's dtype."""
    gap = gap_report_for(p, cfg)
    gap.require(side, cfg.force)
    grid = _solver_grid(cfg, side)
    n = _n_samples(x, cfg)
    anchor, x_det = _normalize_anchor(x, _side_layout(p, grid, side)[0], p.n_modes, n)
    one_row = x_det and p.noise.is_zero
    xnorm = ms_norm(anchor[:1] if one_row else anchor)
    tail = _truncation_check(p, cfg, gap, xnorm, side)
    trace = FixedPointTrace(tol=cfg.tol, gap=gap, tail_bound=tail)
    if one_row:
        ens = _one_sample_solve(side, p, grid, anchor, cfg, trace)
        return replace(ens, values=_spread(ens.values, n)), trace
    if wiener is None and not p.noise.is_zero:
        wiener = sample_wiener(cfg.seed, grid, p.noise, n)
    wiener = _driving_noise(p, wiener, grid, n)
    presolve = FixedPointTrace(tol=cfg.tol)
    try:
        if x_det:
            path = _one_sample_solve(side, p, grid, anchor, cfg, presolve)
    except NonfiniteState:
        pass
    size = (_weighted_gap(path.values, None, grid.times, cfg.tau, p.gamma)
            if presolve.converged else xnorm)
    dtype = _iterate_dtype(n, size, gap.verdict(side)[1], cfg.tol)
    guess = (_spread(path.values, n, dtype) if presolve.converged
             else _initial_guess(p, grid, anchor, side, dtype))
    return _fixed_point(side, p, x, cfg, wiener, grid, guess, trace,
                        guess_varies=not x_det), trace


def lp_backward_solve(p: SpectralProblem, x, cfg: LPConfig,
                      wiener: Optional[WienerEnsemble] = None) -> tuple:
    """Iterate the backward map to its fixed point. Returns (ensemble, trace).
    Runs on ``wiener`` when given (sampled on the solver's window), else
    draws the noise once."""
    ens, trace = _lp_solve("unstable", p, x, cfg, wiener)
    if not trace.converged:
        raise _not_converged("unstable", trace, cfg, "no fixed point")
    return ens, trace


def lp_forward_solve(p: SpectralProblem, x, cfg: LPConfig,
                     wiener: Optional[WienerEnsemble] = None) -> tuple:
    """Iterate the forward map. Returns (ensemble, trace, membership); a run
    that fails to converge reports membership False instead of raising.
    Runs on ``wiener`` when given (sampled on the solver's window), else
    draws the noise once."""
    ens, trace = _lp_solve("stable", p, x, cfg, wiener)
    return ens, trace, trace.converged


def _graph(side: str, p: SpectralProblem, x, ens: ProcessEnsemble, trace: FixedPointTrace,
           tau: float) -> ManifoldGraph:
    """The graph at the anchor node of a certified fixed point of the
    request anchored at x; refused when the residual map moves its value by
    more than 2*tol. Its anchor is the request's, normalized
    (_normalize_anchor), never the stored and perhaps rounded anchor node;
    its value is the stored value block as float64. Its path summary holds
    every stride-th node of the window, a few thousand rows at most, so no
    array of the graph grows with both the samples and the nodes."""
    anchor_idx, value_idx, node = _side_layout(p, ens.grid, side)
    limit = 2.0 * trace.tol
    if trace.consistency_gap > limit:
        raise ConsistencyFailure(
            f"{side} graph at tau = {tau:.6g}: the residual map moves the value block "
            f"at anchor node {node} by {trace.consistency_gap:.3e} > 2*tol = {limit:.3e}",
            gap=trace.consistency_gap, limit=limit)
    stride = max(1, ens.grid.n_nodes // 2000)
    anchor = _normalize_anchor(x, anchor_idx, p.n_modes, ens.n_samples)[0]
    return ManifoldGraph(side=side, tau=tau, anchor=anchor,
                         h_value=np.array(ens.values[:, node, value_idx], dtype=float),
                         anchor_idx=anchor_idx, value_idx=value_idx,
                         path=_path_moments(ens.values[:, ::stride], ens.grid.times[::stride]),
                         trace=trace, consistency_gap=trace.consistency_gap)


def unstable_graph(p: SpectralProblem, x, cfg: LPConfig,
                   wiener: Optional[WienerEnsemble] = None) -> ManifoldGraph:
    """h(x, tau) = stable block of the fixed point at tau. Its consistency
    gap is the stable block of the residual map at tau, measured against
    h(x, tau); it is bounded by trace.residual."""
    ens, trace = lp_backward_solve(p, x, cfg, wiener)
    return _graph("unstable", p, x, ens, trace, cfg.tau)


def stable_graph(p: SpectralProblem, x, cfg: LPConfig,
                 wiener: Optional[WienerEnsemble] = None) -> ManifoldGraph:
    """h(x, tau) = unstable block of the forward fixed point at tau; raises
    when the anchor is not certified as a member of the stable set. Its
    consistency gap is the unstable block of the residual map at tau,
    measured against h(x, tau); it is bounded by trace.residual."""
    ens, trace, membership = lp_forward_solve(p, x, cfg, wiener)
    if not membership:
        raise _not_converged("stable", trace, cfg,
                             "anchor is not in the stable set: no fixed point")
    return _graph("stable", p, x, ens, trace, cfg.tau)


def _graph_for_side(p, x, cfg, side: str, wiener=None) -> ManifoldGraph:
    graph_of = unstable_graph if side == "unstable" else stable_graph
    return graph_of(p, x, cfg, wiener=wiener)


def lipschitz_bound(p: SpectralProblem, cfg: LPConfig, side: str) -> float:
    """The gap's Lipschitz bound of the side's graph map: GapReport.lipschitz_bound."""
    return gap_report_for(p, cfg).lipschitz_bound(side)


def lipschitz_certify(p: SpectralProblem, cfg: LPConfig, side: str,
                      anchor_pairs: Sequence) -> LipschitzCertificate:
    """Empirical Lipschitz ratio of the graph map over anchor pairs, checked
    against the theoretical bound with the multiplicative slack
    LIPSCHITZ_SLACK; never passes without a finite bound."""
    gap = gap_report_for(p, cfg)
    gap.require(side, cfg.force)
    bound = gap.lipschitz_bound(side)
    cache: dict = {}

    def graph_of(anchor):
        arr = np.asarray(anchor, dtype=float)
        key = (arr.shape, arr.tobytes())   # [0.3] and [[0.3]] are different requests
        if key not in cache:
            cache[key] = _graph_for_side(p, anchor, cfg, side)
        return cache[key]

    ratios = []
    for x1, x2 in anchor_pairs:
        g1, g2 = graph_of(x1), graph_of(x2)
        den = ms_norm(g1.anchor - g2.anchor)
        num = ms_norm(g1.h_value - g2.h_value)
        ratios.append(0.0 if den < 1e-300 else num / den)
    empirical = max(ratios) if ratios else 0.0
    return LipschitzCertificate(side=side, theoretical=float(bound),
                                empirical=float(empirical),
                                passed=bool(np.isfinite(bound)
                                            and empirical <= bound * (1.0 + LIPSCHITZ_SLACK)),
                                slack=LIPSCHITZ_SLACK, ratios=tuple(ratios))


def invariance_residual(p: SpectralProblem, x, cfg: LPConfig, t0: float,
                        side: str = "unstable") -> float:
    """Evolve a graph point by the mild flow for t0, recompute the graph at
    the shifted anchor time with the same coupled noise, and return the
    mean-square mismatch of the graph value at the endpoint.

    The noise is drawn once, over the union of both graphs' windows and the
    flow's, and each of the three gets its own window of that draw. The
    side and its gap are checked before any noise is drawn."""
    gap_report_for(p, cfg).require(side, cfg.force)
    steps = _span_steps(t0, cfg.dt, "t0")
    grid = _solver_grid(cfg, side)
    N = grid.n_steps
    node = _side_layout(p, grid, side)[2]     # where the flow starts
    wiener = None
    if not p.noise.is_zero:
        union = TimeGrid(grid.t_start, cfg.dt, N + steps)
        wiener = sample_wiener(cfg.seed, union, p.noise, _n_samples(x, cfg))

    def window(span):
        return None if wiener is None else wiener.window(*span)

    g1 = _graph_for_side(p, x, cfg, side, window((0, N)))
    u0 = g1.point()
    grid_f = TimeGrid(cfg.tau, cfg.dt, steps)
    flow = integrate_mild(p, u0, grid_f, window((node, node + steps)))
    end = flow.values[:, -1, :]
    cfg2 = replace(cfg, tau=cfg.tau + steps * cfg.dt,
                   n_samples=g1.n_samples)
    anchor2 = end[:, g1.anchor_idx]
    g2 = _graph_for_side(p, anchor2, cfg2, side, window((steps, N + steps)))
    defect = end[:, g1.value_idx] - g2.h_value
    if wiener is not None:
        # The graph is a conditional-mean object: individual paths carry a
        # fluctuation around it that no dt or sample refinement removes.
        # Project the pathwise defect onto the anchor coordinates so the
        # residual measures the conditional-mean mismatch instead.
        b = RegressionBasis(degree=BASIS_DEGREE,
                            primary_idx=tuple(range(anchor2.shape[1])))
        defect = condexp_lsmc(defect, anchor2, b).fitted
    return float(ms_norm(defect))
