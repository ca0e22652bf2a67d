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
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .condexp import RegressionBasis, condexp_ito_zero, condexp_lsmc, default_basis
from .errors import (ConfigError, ConsistencyFailure, GapViolation, GridMismatch,
                     IllConditionedDesign, MaxIterExceeded, NonfiniteState,
                     TruncationTooShort)
from .problem import GapReport, SpectralProblem, gap_report, zero_noise
from .resolvent import forcing_modes, linear_scan
from .stochastic import (ProcessEnsemble, TimeGrid, WienerEnsemble, _node_ms,
                         integrate_mild, ms_norm, sample_wiener,
                         solver_boundary_columns)

DEFAULT_SLACK = 0.25


@dataclass(frozen=True)
class LPConfig:
    """Solver configuration; rates default to the problem's own."""
    c_zeta: float
    tau: float = 0.0
    t_back: float = 1.0
    t_fwd: float = 1.0
    dt: float = 1e-3
    n_samples: int = 2
    seed: int = 0
    tol: float = 1e-6
    max_iter: int = 50
    gamma: Optional[float] = None
    zeta: Optional[float] = None
    c_zeta_source: str = "user"
    basis_degree: int = 2
    basis_kind: str = "polynomial"
    include_wiener: bool = False
    force: bool = False
    slack: float = DEFAULT_SLACK

    def rates(self, p: SpectralProblem) -> tuple:
        gamma = p.gamma if self.gamma is None else float(self.gamma)
        zeta = p.zeta if self.zeta is None else float(self.zeta)
        return gamma, zeta

    def validate(self, p: SpectralProblem) -> None:
        if self.c_zeta is None or self.c_zeta <= 0:
            raise ConfigError("c_zeta must be positive")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.t_back <= 0 or self.t_fwd <= 0:
            raise ConfigError("truncation horizons must be positive")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.max_iter < 1 or self.n_samples < 1:
            raise ConfigError("max_iter and n_samples must be >= 1")
        gamma, zeta = self.rates(p)
        if not (p.beta < zeta < gamma < p.alpha):
            raise ConfigError(
                f"rate ordering violated: beta={p.beta} < zeta={zeta} < gamma={gamma} < alpha={p.alpha}")

    def basis_for(self, p: SpectralProblem) -> RegressionBasis:
        return default_basis(p, self.basis_degree, self.include_wiener, self.basis_kind)


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
    side: str                      # "unstable" | "stable"
    tau: float
    anchor: np.ndarray             # (n, k_anchor), coordinates in the anchor block
    h_value: np.ndarray            # (n, k_other), graph value in the complementary block
    anchor_idx: np.ndarray
    value_idx: np.ndarray
    process: ProcessEnsemble
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
    return gap_report(p, cfg.c_zeta, cfg.c_zeta_source, gamma=cfg.rates(p)[0])


def _block_indices(p: SpectralProblem) -> tuple:
    return (np.asarray(p.unstable_modes, dtype=int),
            np.asarray(p.stable_modes, dtype=int))


def _normalize_anchor(x, idx: np.ndarray, m: int, n_samples: int) -> tuple:
    """Anchor as (n, len(idx)) plus deterministic flag. Full-width vectors are
    accepted when the complementary block is exactly zero."""
    arr = np.asarray(x, dtype=float)
    k = len(idx)
    if arr.ndim not in (1, 2):
        raise ConfigError("anchor must be a vector or (n_samples, k) array")
    if arr.ndim == 2 and arr.shape[0] != n_samples:
        raise ConfigError(f"anchor rows {arr.shape[0]} != n_samples {n_samples}")
    if arr.shape[-1] == m and m != k:
        if np.any(np.delete(arr, idx, axis=-1) != 0.0):
            raise ConfigError("anchor has nonzero components outside its block")
        arr = arr[..., idx]
    if arr.shape[-1] != k:
        what = "length" if arr.ndim == 1 else "width"
        raise ConfigError(f"anchor {what} {arr.shape[-1]} != block size {k}")
    if arr.ndim == 1:
        return np.tile(arr, (n_samples, 1)), True
    return np.array(arr, dtype=float), bool(arr.shape[0] == 1 or np.all(arr == arr[0:1]))


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
    """Which of the nodes ``among`` (a mask) of a node-major block x (L, n,
    k) differ across the samples. A node whose first two samples differ
    varies; only the others are compared in full with their first sample."""
    varies = among & np.any(x[:, 1:2] != x[:, :1], axis=(1, 2))
    rest = np.flatnonzero(among & ~varies)
    if rest.size:
        sel = slice(None) if rest.size == len(x) else rest
        varies[rest] = ~np.all(x[sel] == x[sel, :1], axis=(1, 2))
    return varies


def _conditional_fit(target: np.ndarray, state: np.ndarray, basis: RegressionBasis,
                     wvals: Optional[np.ndarray], grid: TimeGrid, a: int,
                     agg: dict) -> np.ndarray:
    """E[target_j|F_{t_j}] in place for the nodes j = a, a+1, ... of a
    node-major block: target (L, n, k), state (L, n, m), and wvals (L, n, d)
    the Wiener values when the basis takes them. Exact short-circuits,
    tested as node masks: a deterministic target is its own conditional
    expectation; a deterministic conditioning state reduces the regression
    to the plain mean. The remaining nodes are one stacked regression."""
    varies = _varying_nodes(target, np.ones(len(target), dtype=bool))
    mean_nodes = varies & ~_varying_nodes(state, varies)
    if mean_nodes.any():
        agg["mean_fits"] = agg.get("mean_fits", 0) + int(mean_nodes.sum())
        target[mean_nodes] = target[mean_nodes].mean(axis=1, keepdims=True)
    nodes = np.flatnonzero(varies & ~mean_nodes)
    if nodes.size == 0:
        return target
    sel = slice(None) if nodes.size == len(target) else nodes   # a slice copies nothing
    try:
        est = condexp_lsmc(target[sel], state[sel], basis, None if wvals is None else wvals[sel])
    except IllConditionedDesign as exc:
        j = a + int(nodes[exc.node])
        raise IllConditionedDesign(f"grid node {j} (t = {grid.times[j]:.6g}): {exc}",
                                   node=j, cond=exc.cond, limit=exc.limit) from exc
    diag = est.diagnostics
    agg["n_regressions"] = agg.get("n_regressions", 0) + int(nodes.size)
    agg["max_cond"] = max(agg.get("max_cond", 0.0), float(diag["cond"].max()))
    agg["min_r2"] = min(agg.get("min_r2", 1.0), float(diag["r2"].min()))
    target[sel] = est.fitted
    return target


def _forcing_blocks(p: SpectralProblem, vals: np.ndarray, cols, dt: float,
                    wiener: Optional[WienerEnsemble]):
    """Forward time blocks of vals as node-major blocks v (L, n, m), views of
    node-major storage, with the half-step drift and the Ito increment
    leaving each node, both (L, n, m); drift and diffusion see a block as
    one (L * n, m) batch. No increment leaves the last grid node, and none
    is drawn without ``wiener``. Yields (a, v, half, ito), a the first node.

    The drift is halved in place unless it is read-only or shares memory
    with v (a drift may return its input, and v may be a view of vals)."""
    nodes = vals.swapaxes(0, 1)
    n_nodes, n, m = nodes.shape
    length = _block_len(n)
    for a in range(0, n_nodes, length):
        v = np.ascontiguousarray(nodes[a:a + length])
        flat = v.reshape(-1, m)
        half = forcing_modes(p.nonlinearity.fn(flat), cols).reshape(v.shape)
        if half.flags.writeable and not np.may_share_memory(half, v):
            half *= 0.5 * dt
        else:
            half = 0.5 * dt * half
        steps = 0 if wiener is None else min(len(v), n_nodes - 1 - a)
        # zeros only where a node has no increment: the last block, or no noise
        ito = np.empty_like(half) if steps == len(v) else np.zeros_like(half)
        if steps:
            amp = p.noise.diffusion(flat[:steps * n]).reshape(steps, n, m)
            np.multiply(amp, wiener.increments.swapaxes(0, 1)[a:a + steps], out=ito[:steps])
        yield a, v, half, ito


# Both sides scan the trapezoid rule y_j = decay * (y_{j-1} + h_{j-1}) + h_j
# (y_{j+1}, h_{j+1} on the unstable side), h the half-step drift, as z = y + h:
# z_j = decay * z_{j-1} + 2 h_j needs no drift from a neighbouring block. Only
# the drift is subtracted again, never a noise increment, so the integrals over
# a deterministic state stay exactly deterministic. Blocks are node-major.

def _forward_pass(p: SpectralProblem, vals: np.ndarray, out: np.ndarray, cols,
                  dt: float, wiener: Optional[WienerEnsemble], start) -> np.ndarray:
    """A map's forward pass over the time blocks of vals into node-major out
    (N+1, n, m): the stable block, T(t_j - t_0) start plus the trapezoid
    convolution of the stable drift and the Ito quadrature of the stable
    noise over [t_0, t_j], and the unstable half-step drift, parked in
    out[..., u_idx]. Returns the one use of the unstable noise,
    sum_j e^{-lambda_u j dt} sigma_u(x_j) dW_j, (n, k)."""
    s_idx, u_idx = p.stable_modes, p.unstable_modes
    decay = np.exp(p.eigenvalues[s_idx] * dt)
    weight = np.exp(-np.outer(np.arange(len(out)) * dt, p.eigenvalues[u_idx]))
    ito0 = np.zeros((out.shape[1], len(u_idx)))
    carry = None
    for a, v, half, ito in _forcing_blocks(p, vals, cols, dt, wiener):
        rows = slice(a, a + len(v))
        out[rows, :, u_idx] = half[..., u_idx]
        ito0 += np.einsum("jnk,jk->nk", ito[..., u_idx], weight[rows])
        h, dw = half[..., s_idx], ito[..., s_idx]
        z = h + h
        z[1:] += decay * dw[:-1]        # the increment leaving node j reaches j + 1
        z[0] = h[0] + start if carry is None else z[0] + decay * dw_prev
        linear_scan(z, decay, carry)
        carry, dw_prev = z[-1], dw[-1]
        out[rows, :, s_idx] = z - h
    return ito0


def _map_blocks(p: SpectralProblem, vals: np.ndarray, out: np.ndarray, cols,
                dt: float, wiener: Optional[WienerEnsemble], start=0.0):
    """A map's two passes: the forward pass, then a reverse pass that scans
    the parked drift and yields, last block first, (a, v, drift, ito0): the
    first node, the node-major block v of vals, the unstable drift's trapezoid
    convolution over [t_j, t_end], (L, n, k), and the forward pass's Ito sum.
    The caller overwrites the parked drift with its fits, and the anchor node."""
    ito0 = _forward_pass(p, vals, out, cols, dt, wiener, start)
    decay = np.exp(-p.eigenvalues[p.unstable_modes] * dt)
    length = _block_len(out.shape[1])
    carry = None
    for a in reversed(range(0, len(out), length)):
        h = out[a:a + length, :, p.unstable_modes]
        z = h + h
        if carry is None:
            z[-1] = h[-1]               # the window end: an empty integral
        linear_scan(z, decay, carry, reverse=True)
        carry = z[0].copy()
        z -= h
        yield a, np.ascontiguousarray(vals[:, a:a + length].swapaxes(0, 1)), z, ito0


def _weighted_gap(a: np.ndarray, b: np.ndarray, times: np.ndarray,
                  tau: float, rate: float) -> float:
    """sup over the nodes of e^{-rate (t - tau)} ms_norm(a - b), by blocks."""
    a, b = a.swapaxes(0, 1), b.swapaxes(0, 1)
    worst, k = 0.0, _block_len(a.shape[1])
    for lo in range(0, len(a), k):
        ms = _node_ms(a[lo:lo + k] - b[lo:lo + k])
        worst = max(worst, float(np.max(np.exp(-rate * (times[lo:lo + k] - tau)) * ms)))
    return worst


def _check_gap(p: SpectralProblem, cfg: LPConfig, side: str) -> GapReport:
    gap = gap_report_for(p, cfg)
    name, val, ok = (("eta", gap.eta, gap.pass_unstable) if side == "unstable"
                     else ("delta", gap.delta, gap.pass_stable))
    if not ok and not cfg.force:
        raise GapViolation(f"{side} gap condition fails: {name} = {val:.4f} >= 1")
    return gap


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


def _wiener_values(wiener, basis: RegressionBasis):
    """W at the grid nodes, (n, N+1, d), when the basis takes Wiener values."""
    if wiener is None or not basis.include_wiener:
        return None
    return wiener.values()


def _nodes(wvals: Optional[np.ndarray], a: int, b: int) -> Optional[np.ndarray]:
    """Node-major slice [a, b) of per-sample node values."""
    return None if wvals is None else wvals[:, a:b].swapaxes(0, 1)


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
                   side: str) -> np.ndarray:
    """The anchor moved across the window by the semigroup: pulled back on
    the unstable side, pushed forward on the stable one. Sample-major view
    of node-major storage.

    Each node is written whole, as the full-width anchor rows (zero
    outside the block) times the first block mode's semigroup factor; that
    factor is an exponential, so the zeros stay +0. Any further block mode
    is then overwritten with its own factor."""
    idx, _, node = _side_layout(p, grid, side)
    n = anchor.shape[0]
    if not len(idx):
        return np.zeros((grid.n_nodes, n, p.n_modes)).swapaxes(0, 1)
    sg = _semigroup(p, grid, idx, node)
    rows = np.zeros((n, p.n_modes))
    rows[:, idx] = anchor
    out = (rows.reshape(1, -1) * sg[:, :1]).reshape(grid.n_nodes, n, p.n_modes)
    for i in range(1, len(idx)):
        out[:, :, idx[i]] = anchor[None, :, i] * sg[:, None, i]
    return out.swapaxes(0, 1)


def _spread(values: np.ndarray, n: int) -> np.ndarray:
    """A one-sample path (1, N+1, m) copied to n samples: sample-major view
    of node-major storage, as every map output is. np.repeat copies whole
    node rows, several times faster than a broadcast assignment."""
    return np.repeat(values.swapaxes(0, 1), n, axis=1).swapaxes(0, 1)


def _one_sample_solve(side: str, p: SpectralProblem, anchor: np.ndarray,
                      cfg: LPConfig) -> tuple:
    """The presolve: the zero-noise solve of a deterministic anchor, (n, k)
    identical rows, on one sample. Zero noise only lowers eta, delta and the
    truncation tail, so it refuses nothing the noisy solve accepts. Only its
    path is kept, so it runs no residual map. Returns (ensemble, trace)."""
    if not p.noise.is_zero:
        p = replace(p, noise=zero_noise(p.n_modes, p.noise.n_noise_modes))
    return _lp_solve(side, p, anchor[0], replace(cfg, n_samples=1), None, certify=False)


def _first_guess(side: str, p: SpectralProblem, grid: TimeGrid, anchor: np.ndarray,
                 x_det: bool, cfg: LPConfig) -> np.ndarray:
    """x_0 of a solve, sample-major. A deterministic anchor under nonzero
    noise starts from the converged zero-noise fixed point, copied to every
    sample; its path draws no noise, so it is adapted. Random anchors, and a
    presolve that does not converge, start from the semigroup guess."""
    if x_det and not p.noise.is_zero:
        try:
            ens, trace = _one_sample_solve(side, p, anchor, cfg)
            if trace.converged:
                return _spread(ens.values, len(anchor))
        except NonfiniteState:
            pass
    return _initial_guess(p, grid, anchor, side)


def _lp_map(side: str, p: SpectralProblem, xi: ProcessEnsemble, x, cfg: LPConfig,
            wiener: Optional[WienerEnsemble]) -> ProcessEnsemble:
    """One application of the side's map; see lp_backward_map and
    lp_forward_map. The sides differ in the anchor block and node, in the
    start of the stable scan (zero, or the anchor) and in the unstable fit."""
    _check_gap(p, cfg, side)
    grid = xi.grid
    unstable = side == "unstable"
    edge, at = (grid.t_end, "ends") if unstable else (grid.t_start, "starts")
    if abs(edge - cfg.tau) > 1e-6 * grid.dt:
        raise ConfigError(f"grid {at} at {edge}, config anchors at {cfg.tau}")
    n, m = xi.n_samples, p.n_modes
    u_idx, s_idx = _block_indices(p)
    anchor, x_det = _normalize_anchor(x, u_idx if unstable else s_idx, m, n)
    noise = _driving_noise(p, wiener, grid, n)
    basis = cfg.basis_for(p)
    cols = solver_boundary_columns(p)
    N = grid.n_steps
    pull = _semigroup(p, grid, u_idx, N) if unstable else None
    wvals = _wiener_values(wiener, basis)
    out = np.zeros((grid.n_nodes, n, m))
    agg: dict = {}
    start = 0.0 if unstable else anchor
    for a, v, drift, ito0 in _map_blocks(p, xi.values, out, cols, grid.dt, noise, start):
        hi = min(len(v), N - a)  # the anchor node N is set below
        target = drift[:hi]
        if unstable:
            pulled = anchor * pull[a:a + hi, None]
            target = target if x_det else pulled - target
        fit = _conditional_fit(target, v[:hi], basis, _nodes(wvals, a, a + hi), grid, a, agg)
        if not unstable:
            fit = -fit
        elif x_det:   # E[x|F_t] = x: only the drift integral was regressed
            fit = pulled - fit
        out[a:a + hi, :, u_idx] = fit
    # the backward map returns x itself at tau (E[x|F_tau] = x); beyond
    # tau + T_fwd lies the forward map's reported truncation tail
    out[N][:, u_idx] = anchor if unstable else 0.0
    _, ito_diag = condexp_ito_zero(ito0, (grid.t_start, grid.t_end))
    direction = "backward" if unstable else "forward"
    if not np.isfinite(out).all():
        raise NonfiniteState(f"{direction} map produced non-finite values")
    return ProcessEnsemble(grid=grid, values=out.swapaxes(0, 1), direction=direction,
                           adapted_to=None if wiener is None else wiener.seed,
                           meta={"ito_check": ito_diag, "regression": agg})


def lp_backward_map(p: SpectralProblem, xi: ProcessEnsemble, x, cfg: LPConfig,
                    wiener: Optional[WienerEnsemble] = None) -> ProcessEnsemble:
    """One application of the backward map on the window [tau - T_back, tau].

    The forward pass over the time blocks gives the stable block at t: the
    truncated convolution of the stable drift plus per-sample Ito quadrature
    over [tau - T_back, t]. The reverse pass gives the unstable block at t:
    the regression of the pulled-back anchor minus the per-sample drift
    integral over [t, tau] (one target, so each node factorizes its design
    once); a deterministic anchor passes through unregressed. The Ito term
    is zero (martingale) and its raw-mean diagnostic lands in meta.

    The map checks the gap condition (refused unless cfg.force), regresses
    on cfg's basis, and needs ``wiener``, sampled on xi's grid for xi's
    samples, under nonzero noise (GridMismatch otherwise).
    """
    return _lp_map("unstable", p, xi, x, cfg, wiener)


def lp_forward_map(p: SpectralProblem, xi: ProcessEnsemble, x, cfg: LPConfig,
                   wiener: Optional[WienerEnsemble] = None) -> ProcessEnsemble:
    """One application of the forward map on [tau, tau + T_fwd].

    Forward pass, stable block: pushed-forward anchor plus truncated
    convolution and Ito quadrature over [tau, t]. Reverse pass, unstable
    block: minus the regression of the per-sample drift integral over
    [t, tau + T_fwd]; the sigma term is zero by the martingale property
    (diagnostic in meta). Gap check, basis and noise as in lp_backward_map.
    """
    return _lp_map("stable", p, xi, x, cfg, wiener)


def _truncation_check(p, cfg, gap, xnorm: float, side: str) -> float:
    """Estimated weighted-norm error from cutting the improper integrals at
    the horizon. Only the forcing terms leak across the cut, so the
    working-norm bound K*|x|/(1-contraction) is scaled by the dimensionless
    forcing strength (the gap constant itself); zero forcing has zero tail."""
    gamma, zeta = cfg.rates(p)
    contraction = gap.eta if side == "unstable" else gap.delta
    amp = 1.0 / (1.0 - contraction) if contraction < 1.0 else 1.0
    bound = p.bound_K * xnorm * amp * contraction
    horizon, rate = ((cfg.t_back, gamma - zeta) if side == "unstable"
                     else (cfg.t_fwd, p.alpha - gamma))
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
    N = round(horizon / cfg.dt)
    if N < 2 or abs(N * cfg.dt - horizon) > 1e-6 * cfg.dt:
        raise ConfigError(f"{name} {horizon} is not a multiple (>= 2) of dt {cfg.dt}")
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


def _lp_solve(side: str, p: SpectralProblem, x, cfg: LPConfig,
              wiener: Optional[WienerEnsemble], certify: bool = True) -> tuple:
    """Iterate the side's map from the first guess. A fixed point gets
    both certificates from one more map, the residual map: the weighted
    residual over the window, and the consistency gap, the ms-norm of the
    value block at the anchor node; without ``certify`` that map is not
    run. Returns (ensemble, trace). The unstable side lets NonfiniteState
    propagate; the stable side records it as trace.regression["aborted"]
    and returns unconverged.

    A deterministic anchor (_normalize_anchor's flag) under zero noise has
    identical sample paths: it is solved on one sample, and the path is
    copied to the n requested samples. Its certificates are the one-sample
    solve's, which equal the n-sample ones (the ms-norm of n identical rows
    is the one row's); ito_check still reports n samples. Under nonzero
    noise the same one-sample solve, with the noise set to zero and no
    residual map, gives x_0 (see _first_guess)."""
    cfg.validate(p)
    gap = _check_gap(p, cfg, side)
    gamma, _ = cfg.rates(p)
    grid = _solver_grid(cfg, side)
    anchor_idx, value_idx, node = _side_layout(p, grid, side)
    n = _n_samples(x, cfg)
    anchor, x_det = _normalize_anchor(x, anchor_idx, p.n_modes, n)
    tail = _truncation_check(p, cfg, gap, ms_norm(anchor), side)
    if x_det and p.noise.is_zero and n > 1:
        ens, trace = _lp_solve(side, p, anchor[0], replace(cfg, n_samples=1), None)
        if "n_samples" in trace.ito_check:
            trace.ito_check["n_samples"] = n
        return replace(ens, values=_spread(ens.values, n)), trace
    if wiener is None and not p.noise.is_zero:
        wiener = sample_wiener(cfg.seed, grid, p.noise, n)
    wiener = _driving_noise(p, wiener, grid, n)

    def step(ens: ProcessEnsemble) -> ProcessEnsemble:
        # looked up on every call, so a rebound map name is the one iterated
        lp_map = lp_backward_map if side == "unstable" else lp_forward_map
        return lp_map(p, ens, x, cfg, wiener)

    cur = ProcessEnsemble(grid=grid, values=_first_guess(side, p, grid, anchor, x_det, cfg),
                          direction="backward" if side == "unstable" else "forward",
                          adapted_to=None if wiener is None else wiener.seed)
    trace = FixedPointTrace(tol=cfg.tol, gap=gap, tail_bound=tail)
    times = grid.times
    try:
        for _ in range(cfg.max_iter):
            nxt = step(cur)
            d = _weighted_gap(cur.values, nxt.values, times, cfg.tau, gamma)
            if trace.distances and trace.distances[-1] > 0:
                trace.ratios.append(d / trace.distances[-1])
            trace.distances.append(d)
            cur = nxt
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
        again = step(cur)
        trace.residual = _weighted_gap(cur.values, again.values, times, cfg.tau, gamma)
        trace.consistency_gap = ms_norm(cur.values[:, node, value_idx]
                                        - again.values[:, node, value_idx])
    return cur, trace


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


def _graph(side: str, p: SpectralProblem, ens: ProcessEnsemble, trace: FixedPointTrace,
           tau: float) -> ManifoldGraph:
    """The graph at the anchor node of a certified fixed point; refused when
    the residual map moves its value by more than 2*tol."""
    anchor_idx, value_idx, node = _side_layout(p, ens.grid, side)
    limit = 2.0 * trace.tol
    if trace.consistency_gap > limit:
        raise ConsistencyFailure(
            f"{side} graph at tau = {tau:.6g}: the residual map moves the value block "
            f"at anchor node {node} by {trace.consistency_gap:.3e} > 2*tol = {limit:.3e}",
            gap=trace.consistency_gap, limit=limit)
    return ManifoldGraph(side=side, tau=tau, anchor=np.array(ens.values[:, node, anchor_idx]),
                         h_value=np.array(ens.values[:, node, value_idx]),
                         anchor_idx=anchor_idx, value_idx=value_idx, process=ens,
                         trace=trace, consistency_gap=trace.consistency_gap)


def unstable_graph(p: SpectralProblem, x, cfg: LPConfig,
                   wiener: Optional[WienerEnsemble] = None) -> ManifoldGraph:
    """h(x, tau) = stable block of the fixed point at tau. Its consistency
    gap is the stable block of the residual map at tau, measured against
    h(x, tau); it is bounded by trace.residual."""
    ens, trace = lp_backward_solve(p, x, cfg, wiener)
    return _graph("unstable", p, ens, trace, cfg.tau)


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
    return _graph("stable", p, ens, trace, cfg.tau)


def _graph_for_side(p, x, cfg, side: str, wiener=None) -> ManifoldGraph:
    graph_of = unstable_graph if side == "unstable" else stable_graph
    return graph_of(p, x, cfg, wiener=wiener)


def lipschitz_bound(p: SpectralProblem, cfg: LPConfig, side: str) -> float:
    gap = gap_report_for(p, cfg)
    gamma, _ = cfg.rates(p)
    L1, L2 = p.nonlinearity.lipschitz_L1, p.noise.lipschitz_L2
    if side == "unstable":
        return p.bound_K * cfg.c_zeta * (L1 + L2) / (1.0 - gap.eta)
    ag = p.alpha - gamma
    return (p.bound_K ** 2 * (L1 / ag + L2 / np.sqrt(2.0 * ag))
            / (1.0 - gap.delta))


def lipschitz_certify(p: SpectralProblem, cfg: LPConfig, side: str,
                      anchor_pairs: Sequence) -> LipschitzCertificate:
    """Empirical Lipschitz ratio of the graph map over anchor pairs, checked
    against the theoretical bound with multiplicative slack."""
    _check_gap(p, cfg, side)
    bound = lipschitz_bound(p, cfg, side)
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
                                passed=bool(empirical <= bound * (1.0 + cfg.slack)),
                                slack=cfg.slack, ratios=tuple(ratios))


def invariance_residual(p: SpectralProblem, x, cfg: LPConfig, t0: float,
                        side: str = "unstable") -> float:
    """Evolve a graph point by the mild flow for t0, recompute the graph at
    the shifted anchor time with the same coupled noise, and return the
    mean-square mismatch of the graph value at the endpoint.

    The noise is drawn once, over the union of both graphs' windows and the
    flow's, and each of the three gets its own window of that draw."""
    steps = round(t0 / cfg.dt)
    if steps < 1 or abs(steps * cfg.dt - t0) > 1e-6 * cfg.dt:
        raise ConfigError(f"t0 {t0} is not a positive multiple of dt {cfg.dt}")
    grid = _solver_grid(cfg, side)
    N = grid.n_steps
    flow_at = (N, N + steps) if side == "unstable" else (0, steps)
    wiener = None
    if not p.noise.is_zero:
        union = TimeGrid(grid.t_start, cfg.dt, N + steps)
        wiener = sample_wiener(cfg.seed, union, p.noise, _n_samples(x, cfg))

    def window(span):
        return None if wiener is None else wiener.window(*span)

    g1 = _graph_for_side(p, x, cfg, side, window((0, N)))
    u0 = g1.point()
    grid_f = TimeGrid(cfg.tau, cfg.dt, steps)
    flow = integrate_mild(p, u0, grid_f, window(flow_at))
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
        b = RegressionBasis(kind=cfg.basis_kind, degree=cfg.basis_degree,
                            primary_idx=tuple(range(anchor2.shape[1])))
        defect = condexp_lsmc(defect, anchor2, b).fitted
    return float(ms_norm(defect))
