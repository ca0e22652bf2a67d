"""Wiener ensembles, the mild-solution integrator, and mean-square norms.

Noise streams are counter-based: every increment is a pure function of
(seed, sample chunk, absolute lattice step), drawn from a generator keyed by
the step's 64-step lattice block, so two runs sharing a dt-lattice see
bit-identical increments on overlapping windows, a window draws only the
blocks it touches, and a request that draws one window once can hand views
of it to every consumer. Sampling and integration run on one thread.

Every ensemble built here is stored (node, mode, sample): node-major,
because every consumer works node by node, so a time block is a view; and
mode before sample, because the work within a node is per-mode arithmetic
on the samples and sums over them, so each mode of a node is one
contiguous row of samples. The public sample-major arrays,
``ProcessEnsemble.values`` (n_samples, n_nodes, m) and
``WienerEnsemble.increments`` (n_samples, n_steps, d), are transposed views
of that storage (_by_sample); consumers take the (node, mode, sample) view
back with _by_node and slice it, ``_by_node(x)[a:b]``. Ensembles a caller
builds in another layout work through the same code, and give the same
bits: a sample sum always runs over a contiguous row of samples.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, GridMismatch, NonfiniteState
from .problem import NoiseModel, SpectralProblem
from .resolvent import forcing_modes

_CHUNK = 1024          # samples per RNG key; the chunk index is part of the key
_BLOCK = 64            # lattice steps per RNG block, drawn in one generator call
_LATTICE_RTOL = 1e-6
_OVERFLOW_LIMIT = 1e12  # integrate_mild refuses a state past this magnitude


def n_workers() -> int:
    """Threads used for sampling and integration: always one."""
    return 1


def sample_chunks(n_samples: int) -> list:
    return [(a, min(a + _CHUNK, n_samples)) for a in range(0, n_samples, _CHUNK)]


def map_chunks(fn: Callable, n_samples: int) -> list:
    """Run fn(a, b) over the fixed sample chunks, in order."""
    return [fn(a, b) for a, b in sample_chunks(n_samples)]


def _span_steps(span: float, dt: float, what: str, at_least: int = 1) -> int:
    """The dt steps in a span, the one count of every window and horizon: a
    whole number >= ``at_least`` within _LATTICE_RTOL * dt. Any other span,
    or a dt that is not positive, is refused with ConfigError."""
    ratio = span / dt if dt > 0.0 else math.nan
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < at_least or abs(span - steps * dt) > _LATTICE_RTOL * dt:
        raise ConfigError(f"{what} {span!r} is not a whole number (>= {at_least}) "
                          f"of dt {dt!r} steps")
    return int(steps)


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"t_start {self.t_start!r} and dt {self.dt!r} must be finite, "
                              "dt positive")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ConfigError("n_steps must be a positive integer")
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def t_end(self) -> float:
        return self.t_start + self.n_steps * self.dt

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_nodes)

    @property
    def step0(self) -> int:
        """Absolute lattice index of the first node."""
        s = round(self.t_start / self.dt)
        if abs(self.t_start - s * self.dt) > _LATTICE_RTOL * self.dt:
            raise GridMismatch(f"t_start {self.t_start!r} is not on the dt={self.dt!r} lattice")
        return int(s)

    def index_of(self, t: float) -> int:
        i = round((t - self.t_start) / self.dt)
        if not (0 <= i <= self.n_steps) or abs(t - (self.t_start + i * self.dt)) > _LATTICE_RTOL * self.dt:
            raise GridMismatch(f"time {t!r} is not a node of {self}")
        return int(i)

    def subgrid(self, i0: int, i1: int) -> "TimeGrid":
        if not (0 <= i0 < i1 <= self.n_steps):
            raise ConfigError(f"bad subgrid [{i0}, {i1}] of {self.n_steps} steps")
        return TimeGrid(self.t_start + i0 * self.dt, self.dt, i1 - i0)

    def matches(self, other: "TimeGrid") -> bool:
        return (abs(self.dt - other.dt) <= 1e-12 * self.dt
                and abs(self.t_start - other.t_start) <= _LATTICE_RTOL * self.dt
                and self.n_steps == other.n_steps)


def _by_node(x: np.ndarray) -> np.ndarray:
    """The (node, mode, sample) view of a sample-major (n, N, m) array."""
    return x.transpose(1, 2, 0)


def _by_sample(x: np.ndarray) -> np.ndarray:
    """The sample-major (n, N, m) view of (node, mode, sample) storage."""
    return x.transpose(2, 0, 1)


def _block_generator(seed, chunk_idx: int, block_idx: int) -> np.random.Generator:
    key = [abs(int(seed)), int(chunk_idx), abs(int(block_idx)),
           0 if block_idx >= 0 else 1, 0 if int(seed) >= 0 else 1]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _fill_standard_increments(out: np.ndarray, seed, step0: int, scale) -> None:
    """Increments for absolute steps [step0, step0+N), unit normals times
    scale, into out[step, mode, sample]. Step s of the samples in chunk c
    is row s - b*_BLOCK of the 64-step lattice block b = s // _BLOCK, whose
    generator is keyed by (seed, c, b) and draws (step, sample, mode) in C
    order, so any window on the same lattice sees the same numbers. Each
    block is one generator call from its first row up to the window's last
    step, into one buffer the whole fill reuses: rows before the window are
    dropped, and no row after it is drawn. The draw is written mode by mode
    into out's sample rows, each product formed in float64 and rounded to
    out's dtype when stored (float32 for the package's own draws).

    A scale whose entries all have the same bits is applied as that one
    number, which gives the same products without a broadcast over the
    modes."""
    n_steps, d, n = out.shape
    end = step0 + n_steps
    scale = np.asarray(scale, dtype=float).reshape(-1)
    bits = scale.view(np.uint64)
    if len(bits) and np.all(bits == bits[0]):
        scale = scale[0]
    else:
        scale = scale[:, None]
    buf = np.empty(_BLOCK * min(n, _CHUNK) * d)

    def fill(a, b):
        for blk in range(step0 // _BLOCK, (end - 1) // _BLOCK + 1):
            r = blk * _BLOCK
            lo, hi = max(r, step0), min(end, r + _BLOCK)
            raw = buf[:(hi - r) * (b - a) * d].reshape(hi - r, b - a, d)
            _block_generator(seed, a // _CHUNK, blk).standard_normal(out=raw)
            np.multiply(raw[lo - r:].transpose(0, 2, 1), scale,
                        out=out[lo - step0:hi - step0, :, a:b])

    map_chunks(fill, n)


@dataclass(frozen=True, eq=False)
class WienerEnsemble:
    """Sampled Q-Wiener increments on a grid, anchored at W(0) = 0.

    ``increments`` is sample-major, (n_samples, n_steps, d); for an ensemble
    drawn here it is the transposed view of float32 (step, mode, sample)
    storage, so ``_by_node(increments)[a:b]`` is a block of steps without a
    copy. Every consumer computes with the increments in float64: products
    with float64 operands promote, and sums pass dtype=float."""
    grid: TimeGrid
    seed: object
    increments: np.ndarray          # (n_samples, n_steps, d), already q-scaled
    weights: np.ndarray             # (d,) covariance weights q_k
    step0: int

    @property
    def n_samples(self) -> int:
        return self.increments.shape[0]

    @property
    def n_noise_modes(self) -> int:
        return self.increments.shape[2]

    def check_grid(self, grid: TimeGrid) -> None:
        if not self.grid.matches(grid):
            raise GridMismatch("Wiener ensemble was sampled on a different grid")

    def window(self, i0: int, i1: int) -> "WienerEnsemble":
        sub = self.grid.subgrid(i0, i1)
        return replace(self, grid=sub, increments=self.increments[:, i0:i1, :],
                       step0=self.step0 + i0)

    def values(self) -> np.ndarray:
        """W at the grid nodes, (n_samples, n_nodes, d), a view of (node,
        mode, sample) storage. Anchored so W = 0 at lattice time 0 when the
        grid covers it, else at the first node."""
        n, n_steps, d = self.increments.shape
        w = np.zeros((n_steps + 1, d, n))
        np.cumsum(_by_node(self.increments), axis=0, dtype=float, out=w[1:])
        if self.step0 <= 0 <= self.step0 + n_steps:
            z = -self.step0
            w -= w[z:z + 1]
        return _by_sample(w)

    def value_at(self, node: int) -> np.ndarray:
        """W(t_node) per sample, (n_samples, d), same anchor as values()."""
        n, n_steps, d = self.increments.shape
        if not (0 <= node <= n_steps):
            raise GridMismatch(f"node {node} outside grid")
        anchor = -self.step0 if self.step0 <= 0 <= self.step0 + n_steps else 0
        lo, hi = sorted((anchor, node))
        if lo == hi:
            return np.zeros((n, d))
        # summed in step order, so the bits do not depend on the storage
        seg = np.cumsum(_by_node(self.increments)[lo:hi], axis=0, dtype=float)[-1].T
        return seg if node > anchor else -seg


def sample_wiener(seed, grid: TimeGrid, noise: NoiseModel, n_samples: int) -> WienerEnsemble:
    """The q-scaled increments of ``noise`` on ``grid`` for n_samples samples,
    stored float32: the stream's float64 products, rounded when stored."""
    if n_samples < 2:
        raise ConfigError("n_samples must be >= 2")
    d = noise.n_noise_modes
    if d < 1:
        raise ConfigError("noise model has no modes")
    q = np.asarray(noise.covariance_weights, dtype=float)
    if q.shape != (d,):
        raise ConfigError(f"covariance weights shape {q.shape} != ({d},)")
    step0 = grid.step0
    inc = np.empty((grid.n_steps, d, n_samples), dtype=np.float32)
    _fill_standard_increments(inc, seed, step0, np.sqrt(q * grid.dt))
    return WienerEnsemble(grid=grid, seed=seed, increments=_by_sample(inc),
                          weights=q, step0=step0)


def resample_future(w: WienerEnsemble, node: int, new_seed) -> WienerEnsemble:
    """Replace all increments at steps >= node with draws from new_seed,
    stored float32 as sample_wiener stores them."""
    if not (0 <= node <= w.grid.n_steps):
        raise GridMismatch(f"node {node} outside grid")
    inc = np.empty((w.grid.n_steps, w.n_noise_modes, w.n_samples), dtype=np.float32)
    inc[:node] = _by_node(w.increments)[:node]
    _fill_standard_increments(inc[node:], new_seed, w.step0 + node,
                              np.sqrt(w.weights * w.grid.dt))
    return replace(w, increments=_by_sample(inc),
                   seed=("resampled", w.seed, new_seed, node))


@dataclass(frozen=True, eq=False)
class ProcessEnsemble:
    """Sample paths on a grid. ``values`` is sample-major, (n_samples,
    n_nodes, m); for an ensemble built by this package it is the transposed
    view of (node, mode, sample) storage, so ``at(node)`` is the (n, m)
    view of one contiguous (m, n) slab and ``_by_node(values)[a:b]`` a
    contiguous time block."""
    grid: TimeGrid
    values: np.ndarray              # (n_samples, n_nodes, m)
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    def at(self, node: int) -> np.ndarray:
        return self.values[:, node, :]


def solver_boundary_columns(p: SpectralProblem):
    """Boundary columns (m, 2) of the lambda -> infinity limit of
    lambda*R_lambda(A), the problem's frozen regularizer; None for a problem
    without boundary forcing. Every solve, flow and oracle maps boundary
    data into modes through these columns."""
    return p.boundary_regularizer


def integrate_mild(p: SpectralProblem, u0: np.ndarray, grid: TimeGrid,
                   wiener: Optional[WienerEnsemble] = None) -> ProcessEnsemble:
    """The mild solution by the maps' exponential trapezoid rule, with the
    Ito term at the left point, as in their forward pass:

        h_j     = dt/2 * F_reg(u_j)
        k_j     = u_j + h_j + sigma(u_j) dW_j
        u*      = e^{A dt} (k_j + h_j)                      (predictor)
        u_{j+1} = e^{A dt} k_j + dt/2 * F_reg(u*)

    Second order in dt without noise; strong order 1/2 with it. F values
    that carry boundary data are mapped into modes with the lambda ->
    infinity regularizer columns; mode-local values pass through. The state
    is kept as one (mode, sample) slab; drift and diffusion see its (n, m)
    view. u0 is one state (m,), shared by the samples, or (n, m) rows; any
    other shape is refused with GridMismatch.
    """
    m = p.n_modes
    if wiener is None:
        if not p.noise.is_zero:
            raise ConfigError("nonzero noise requires a Wiener ensemble")
        n = u0.shape[0] if np.ndim(u0) == 2 else 1
    else:
        wiener.check_grid(grid)
        if not p.noise.is_zero and wiener.n_noise_modes != m:
            raise GridMismatch(f"noise has {wiener.n_noise_modes} channels, problem has {m} modes")
        n = wiener.n_samples
    u0 = np.asarray(u0, dtype=float)
    if u0.shape == (m,):
        u0 = np.broadcast_to(u0, (n, m))
    if u0.shape != (n, m):
        raise GridMismatch(f"u0 shape {u0.shape} incompatible with ({n}, {m})")

    lam_exp = np.exp(p.eigenvalues * grid.dt)[:, None]
    cols = solver_boundary_columns(p)
    dt = grid.dt
    out = np.empty((grid.n_nodes, m, n))
    out[0] = u0.T
    use_noise = wiener is not None and not p.noise.is_zero
    dw = _by_node(wiener.increments) if use_noise else None

    def half_step(v):
        return 0.5 * dt * forcing_modes(p.nonlinearity.fn(v.T), cols).T

    u = np.array(out[0])
    for j in range(grid.n_steps):
        half = half_step(u)
        kick = u + half
        if use_noise:
            kick += p.noise.diffusion(u.T).T * dw[j]
        u = lam_exp * kick
        u += half_step(lam_exp * (kick + half))
        peak = np.max(np.abs(u))
        if not np.isfinite(peak) or peak > _OVERFLOW_LIMIT:
            bad = int(np.argmax(np.max(np.abs(u), axis=0)))
            raise NonfiniteState(
                f"state magnitude {peak:.3e} exceeded {_OVERFLOW_LIMIT:.1e}",
                step=j + 1, sample=bad)
        out[j + 1] = u

    return ProcessEnsemble(grid=grid, values=_by_sample(out))


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum along the last axis, the samples: numpy's pairwise add.reduce over
    each contiguous row (of a fresh copy when the rows are strided), then
    +0, so a sum of -0 is +0. The bits do not depend on where x lives."""
    if x.strides[-1] != x.itemsize:
        x = np.ascontiguousarray(x)
    return np.add.reduce(x, axis=-1) + 0.0


# Fewest samples for which _sample_buffer lowers the ufunc buffer: on numpy
# 2.4.6 a buffer of the row length runs strided (mode subset) arithmetic on
# rows of 48 to 128 samples faster than the default 8192; on rows of 32
# some of it runs slower, on rows of 16 five times slower.
_MIN_BUFFER_ROWS = 64


@contextmanager
def _sample_buffer(n: int):
    """Run the block with numpy's ufunc buffer lowered to n - n % 16
    elements (numpy takes multiples of 16), the length of a sample row,
    when n is at least _MIN_BUFFER_ROWS and that is below the current size;
    else leave it as it is. numpy copies an operand through the buffer
    whenever its contiguous runs are shorter than the buffer, as the
    sample rows of a mode subset or of a padded design are; with the
    buffer no longer than a row they are read in place (measured on numpy
    2.4.6, unmeasured on the 2.0 floor). No bit depends on the buffer
    size: elementwise results are exact, and _row_sum adds over contiguous
    rows. np.errstate restores the caller's numpy state, buffer and error
    handling, on return and on any exception, and keeps the caller's error
    handling inside."""
    size = n - n % 16
    if n < _MIN_BUFFER_ROWS or size >= np.getbufsize():
        yield
        return
    with np.errstate():
        np.setbufsize(size)
        yield


def _sample_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the samples, axis 1, of a block x (L, n, ...), as _row_sum
    adds each (node, mode) row of samples."""
    return _row_sum(np.moveaxis(x, 1, -1))


def _node_ms(v: np.ndarray, w: Optional[np.ndarray] = None) -> np.ndarray:
    """ms_norm at each node of a block v (L, n, m), or of v - w, whatever
    their layout. The differences and their squares are written mode-major,
    (m, L, n), and added over the modes in mode order, ((p0 + p1) + p2) +
    ..., one (L, n) add at a time, into the sample rows that _row_sum adds
    (with no modes it gives the zeros)."""
    L, n, m = v.shape
    if not m:
        return np.zeros(L)
    sq = np.empty((m, L, n))
    if w is None:
        np.multiply(v, v, out=sq.transpose(1, 2, 0))
    else:
        np.subtract(v, w, out=sq.transpose(1, 2, 0))
        np.multiply(sq, sq, out=sq)
    for k in range(1, m):
        sq[0] += sq[k]
    sq = sq[0]
    return np.sqrt(_row_sum(sq) / n)


def ms_norm(v) -> float:
    """sqrt(E ||u||^2) of the rows u of v, (n, m) or one (m,) row: _node_ms
    at a single node."""
    return float(_node_ms(np.atleast_2d(np.asarray(v, dtype=float))[None])[0])


# Elements per chunk of a node loop over a path (256 KB): a few nodes of a
# large ensemble, and a one-sample window in a few pieces. Smaller chunks
# cost large ensembles interpreter work per node.
_GAP_ELEMENTS = 1 << 15


def _chunk_len(nodes: np.ndarray) -> int:
    """Whole nodes per chunk of a block of nodes (L, n, m): about
    _GAP_ELEMENTS elements, and at least one node."""
    return max(1, _GAP_ELEMENTS // (nodes.shape[1] * nodes.shape[2]))


def _weighted_gap(a: np.ndarray, b: Optional[np.ndarray], times: np.ndarray,
                  tau: float, rate: float) -> float:
    """sup over the nodes of e^{-rate (t - tau)} ms_norm(a - b), a - b read
    as a when b is None; a and b are sample-major (n, N+1, m). The nodes go
    in chunks of _chunk_len nodes."""
    a = a.swapaxes(0, 1)
    b = None if b is None else b.swapaxes(0, 1)
    weight = np.exp(-rate * (times - tau))
    worst, k = 0.0, _chunk_len(a)
    for lo in range(0, len(a), k):
        ms = _node_ms(a[lo:lo + k], None if b is None else b[lo:lo + k])
        worst = max(worst, float(np.max(weight[lo:lo + k] * ms)))
    return worst


def _path_moments(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The rows (t, sample mean of each mode, ms_norm) of sample-major
    values (n, L, m) at its L nodes, whose times are ``times``. The nodes go
    in chunks of _chunk_len nodes, so no temporary spans the path; the sums
    run in the pinned orders of _sample_sum and _node_ms whatever the
    chunk."""
    nodes = values.swapaxes(0, 1)
    n, m = nodes.shape[1:]
    out = np.empty((len(nodes), m + 2))
    out[:, 0] = times
    k = _chunk_len(nodes)
    for lo in range(0, len(nodes), k):
        chunk = nodes[lo:lo + k]
        out[lo:lo + k, 1:-1] = _sample_sum(chunk) / n
        out[lo:lo + k, -1] = _node_ms(chunk)
    return out


def weighted_norm(ens: ProcessEnsemble, rate: float, direction: str = "backward") -> float:
    """sup over grid nodes of e^{-rate*t} * ms_norm(t), restricted to t <= 0
    (backward) or t >= 0 (forward), each one run of nodes: the solver's
    distance _weighted_gap at tau = 0."""
    times = ens.grid.times
    tol = _LATTICE_RTOL * max(1.0, float(np.max(np.abs(times))))
    if direction == "backward":
        nodes = np.flatnonzero(times <= tol)
    elif direction == "forward":
        nodes = np.flatnonzero(times >= -tol)
    else:
        raise ConfigError(f"unknown direction {direction!r}")
    if not nodes.size:
        raise ConfigError(f"grid has no nodes on the {direction} side")
    run = slice(nodes[0], nodes[-1] + 1)
    return _weighted_gap(ens.values[:, run], None, times[run], 0.0, rate)
