"""Wiener ensembles, the mild-solution integrator, and mean-square norms.

Noise streams are counter-based: every increment is a pure function of
(seed, sample chunk, absolute lattice step), drawn from a generator keyed by
the step's 64-step lattice block, so two runs sharing a dt-lattice see
bit-identical increments on overlapping windows, a window draws only the
blocks it touches, and a request that draws one window once can hand views
of it to every consumer. Sampling and integration run on one thread.

Every ensemble built here is stored node-major, (node, sample, coordinate),
because every consumer works node by node: a time block is a view and one
node is a contiguous slab. The public sample-major arrays,
``ProcessEnsemble.values`` (n_samples, n_nodes, m) and
``WienerEnsemble.increments`` (n_samples, n_steps, d), are swapaxes(0, 1)
views of that storage; consumers slice ``x.swapaxes(0, 1)[a:b]``. Ensembles
a caller builds sample-major work through the same code.
"""
from __future__ import annotations

import struct
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


def _lattice_step(t: float, dt: float, what: str) -> int:
    s = round(t / dt)
    if abs(t - s * dt) > _LATTICE_RTOL * dt:
        raise GridMismatch(f"{what} {t!r} is not on the dt={dt!r} lattice")
    return int(s)


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    dt: float
    n_steps: int
    t_end: float = None  # derived; validated if passed explicitly

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ConfigError("n_steps must be a positive integer")
        end = self.t_start + self.n_steps * self.dt
        if self.t_end is not None:
            if abs(self.t_end - end) > 1e-9 * max(1.0, abs(end)):
                raise ConfigError(f"t_end {self.t_end} != t_start + n_steps*dt = {end}")
        object.__setattr__(self, "t_end", end)
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_nodes)

    @property
    def step0(self) -> int:
        """Absolute lattice index of the first node."""
        return _lattice_step(self.t_start, self.dt, "t_start")

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


def _block_generator(seed, chunk_idx: int, block_idx: int) -> np.random.Generator:
    key = [abs(int(seed)), int(chunk_idx), abs(int(block_idx)),
           0 if block_idx >= 0 else 1, 0 if int(seed) >= 0 else 1]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _fill_standard_increments(out: np.ndarray, seed, step0: int, scale) -> None:
    """Increments for absolute steps [step0, step0+N), unit normals times
    scale, into the node-major out[step, sample, mode]. Step s of the
    samples in chunk c is row s - b*_BLOCK of the 64-step lattice block
    b = s // _BLOCK, whose generator is keyed by (seed, c, b), so any window
    on the same lattice sees the same numbers. Each block is one generator
    call from its first row up to the window's last step: rows before the
    window are dropped, and no row after it is drawn."""
    n_steps, n, d = out.shape
    end = step0 + n_steps

    def fill(a, b):
        for blk in range(step0 // _BLOCK, (end - 1) // _BLOCK + 1):
            r = blk * _BLOCK
            lo, hi = max(r, step0), min(end, r + _BLOCK)
            raw = _block_generator(seed, a // _CHUNK, blk).standard_normal((hi - r, b - a, d))
            np.multiply(raw[lo - r:], scale, out=out[lo - step0:hi - step0, a:b])

    map_chunks(fill, n)


@dataclass(frozen=True, eq=False)
class WienerEnsemble:
    """Sampled Q-Wiener increments on a grid, anchored at W(0) = 0.

    ``increments`` is sample-major, (n_samples, n_steps, d); for an ensemble
    drawn here it is the swapaxes(0, 1) view of node-major storage, so
    ``increments.swapaxes(0, 1)[a:b]`` is a block of steps without a copy."""
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
        """W at the grid nodes, (n_samples, n_nodes, d), a view of node-major
        storage. Anchored so W = 0 at lattice time 0 when the grid covers it,
        else at the first node."""
        n, n_steps, d = self.increments.shape
        w = np.zeros((n_steps + 1, n, d))
        np.cumsum(self.increments.swapaxes(0, 1), axis=0, out=w[1:])
        if self.step0 <= 0 <= self.step0 + n_steps:
            z = -self.step0
            w -= w[z:z + 1]
        return w.swapaxes(0, 1)

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
        seg = np.cumsum(self.increments.swapaxes(0, 1)[lo:hi], axis=0)[-1]
        return seg if node > anchor else -seg


def sample_wiener(seed, grid: TimeGrid, noise: NoiseModel, n_samples: int) -> WienerEnsemble:
    if n_samples < 2:
        raise ConfigError("n_samples must be >= 2")
    d = noise.n_noise_modes
    if d < 1:
        raise ConfigError("noise model has no modes")
    q = np.asarray(noise.covariance_weights, dtype=float)
    if q.shape != (d,):
        raise ConfigError(f"covariance weights shape {q.shape} != ({d},)")
    step0 = grid.step0
    inc = np.empty((grid.n_steps, n_samples, d))
    _fill_standard_increments(inc, seed, step0, np.sqrt(q * grid.dt))
    return WienerEnsemble(grid=grid, seed=seed, increments=inc.swapaxes(0, 1),
                          weights=q, step0=step0)


def resample_future(w: WienerEnsemble, node: int, new_seed) -> WienerEnsemble:
    """Replace all increments at steps >= node with draws from new_seed."""
    if not (0 <= node <= w.grid.n_steps):
        raise GridMismatch(f"node {node} outside grid")
    inc = np.empty((w.grid.n_steps, w.n_samples, w.n_noise_modes))
    inc[:node] = w.increments.swapaxes(0, 1)[:node]
    _fill_standard_increments(inc[node:], new_seed, w.step0 + node,
                              np.sqrt(w.weights * w.grid.dt))
    return replace(w, increments=inc.swapaxes(0, 1),
                   seed=("resampled", w.seed, new_seed, node))


@dataclass(frozen=True, eq=False)
class ProcessEnsemble:
    """Sample paths on a grid. ``values`` is sample-major, (n_samples,
    n_nodes, m); for an ensemble built by this package it is the
    swapaxes(0, 1) view of node-major storage, so ``at(node)`` and
    ``values.swapaxes(0, 1)[a:b]`` are contiguous views."""
    grid: TimeGrid
    values: np.ndarray              # (n_samples, n_nodes, m)
    adapted_to: object = None       # seed of the driving WienerEnsemble
    direction: str = "forward"
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
    """Exponential Euler-Maruyama for the mild solution:

        u_{j+1} = e^{A dt} (u_j + dt * F_reg(u_j) + sigma(u_j) dW_j)

    F values that carry boundary data are mapped into modes with the
    lambda -> infinity regularizer columns; mode-local values pass through.
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
    if u0.ndim == 1:
        u0 = np.broadcast_to(u0, (n, m))
    if u0.shape != (n, m):
        raise GridMismatch(f"u0 shape {u0.shape} incompatible with ({n}, {m})")

    lam_exp = np.exp(p.eigenvalues * grid.dt)
    cols = solver_boundary_columns(p)
    dt = grid.dt
    out = np.empty((grid.n_nodes, n, m))
    out[0] = u0
    use_noise = wiener is not None and not p.noise.is_zero

    u = np.array(u0)
    for j in range(grid.n_steps):
        step = u + dt * forcing_modes(p.nonlinearity.fn(u), cols)
        if use_noise:
            step += p.noise.diffusion(u) * wiener.increments[:, j, :]
        u = lam_exp * step
        peak = np.max(np.abs(u))
        if not np.isfinite(peak) or peak > _OVERFLOW_LIMIT:
            bad = int(np.argmax(np.max(np.abs(u), axis=1)))
            raise NonfiniteState(
                f"state magnitude {peak:.3e} exceeded {_OVERFLOW_LIMIT:.1e}",
                step=j + 1, sample=bad)
        out[j + 1] = u

    return ProcessEnsemble(grid=grid, values=out.swapaxes(0, 1),
                           adapted_to=None if wiener is None else wiener.seed)


def ms_norm(v) -> float:
    """sqrt(E ||u||^2) of the rows u of v, (n, m) or one (m,) row: sample
    mean of the squared mode-l2 norm."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v[None, :]
    return float(np.sqrt(np.mean(np.einsum("nm,nm->n", v, v))))


def _sample_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the samples, axis 1, of node-major x (L, n, ...). Added in
    sample order starting from +0, as a reduction over sample-major storage
    adds, so the bits do not depend on where x lives in memory."""
    return np.cumsum(x, axis=1)[:, -1] + 0.0


def _node_ms(v: np.ndarray) -> np.ndarray:
    """ms_norm at each node of a node-major block v (L, n, m). Per sample
    the squares are added over the modes in einsum's order: for one or two
    modes that is at most one add, done here without einsum; from three
    modes on einsum adds in SIMD lanes, an order only einsum reproduces."""
    if v.shape[-1] > 2:
        sq = np.einsum("jnm,jnm->jn", v, v)
    else:
        sq = v * v
        for k in range(1, v.shape[-1]):
            sq[..., 0] += sq[..., k]
        sq = sq[..., 0]
    return np.sqrt(_sample_sum(sq) / v.shape[1])


def weighted_norm(ens: ProcessEnsemble, rate: float, direction: str = "backward") -> float:
    """sup over grid nodes of e^{-rate*t} * ms_norm(t), restricted to t <= 0
    (backward) or t >= 0 (forward)."""
    values, times = ens.values, ens.grid.times
    tol = _LATTICE_RTOL * max(1.0, float(np.max(np.abs(times))))
    if direction == "backward":
        mask = times <= tol
    elif direction == "forward":
        mask = times >= -tol
    else:
        raise ConfigError(f"unknown direction {direction!r}")
    if not np.any(mask):
        raise ConfigError(f"grid has no nodes on the {direction} side")
    ms = _node_ms(values.swapaxes(0, 1)[mask])
    return float(np.max(np.exp(-rate * times[mask]) * ms))


_MAGIC = b"MSMB0001"


def export_ensemble_csv(path: str, ens) -> None:
    """Rows sample,step,mode,value with full-precision floats."""
    values = ens.values if isinstance(ens, ProcessEnsemble) else np.asarray(ens)
    n, nn, m = values.shape
    with open(path, "w", newline="") as fh:
        fh.write("sample,step,mode,value\r\n")
        for s in range(n):
            block = values[s]
            lines = [f"{s},{j},{k},{block[j, k]:.17g}\r\n"
                     for j in range(nn) for k in range(m)]
            fh.write("".join(lines))


def export_ensemble_binary(path: str, ens) -> None:
    """Little-endian dump: 8-byte magic, int64 ndim, int64 dims, row-major f64."""
    values = ens.values if isinstance(ens, ProcessEnsemble) else np.asarray(ens)
    arr = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<q", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
        fh.write(arr.tobytes(order="C"))


def read_ensemble_binary(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ConfigError(f"not an ensemble dump: magic {magic!r}")
        (ndim,) = struct.unpack("<q", fh.read(8))
        dims = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
        data = np.frombuffer(fh.read(), dtype="<f8")
    return data.reshape(dims)
