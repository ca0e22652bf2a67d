"""Discretized spectral problem: spectrum, dichotomy split, nonlinearity, noise.

The evolution equation is represented diagonally in an eigenbasis: mode k
carries the rate lambda_k, the unstable block U collects modes with
lambda_k >= alpha and the stable block S those with lambda_k <= beta.
The gap reports certify the contraction constants eta and delta, sums of
the four gap_terms, which must be < 1 for the unstable-manifold and
stable-set solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGap,
    GapViolation,
    NonzeroAtOrigin,
    OrderingViolation,
    SpectralGapViolation,
    StableBackwardTime,
)

__all__ = [
    "NonlinearityModel",
    "NoiseModel",
    "SpectralProblem",
    "GapReport",
    "build_problem",
    "semigroup_apply",
    "project",
    "gap_report",
    "gap_terms",
    "gap_eta",
    "gap_delta",
    "zero_nonlinearity",
    "linear_nonlinearity",
    "saturated_polynomial_nonlinearity",
    "callable_nonlinearity",
    "zero_noise",
    "diagonal_linear_noise",
    "saturated_noise",
]

_LIP_INFLATION = 1.10  # safety factor on sampled Lipschitz estimates


def _clamp(x: np.ndarray, radius: float) -> np.ndarray:
    return np.clip(x, -radius, radius)


@dataclass(frozen=True, eq=False)
class NonlinearityModel:
    """Drift nonlinearity F with F(0) = 0 and a certified Lipschitz constant.

    ``fn`` maps mode vectors of shape (..., m) to forcings of the same shape,
    except for kind "boundary-example" whose fn returns a boundary triple
    (handled by the resolvent machinery; see ``returns_boundary``). The
    arrays may have any memory layout: the solver passes (L, n, m) views of
    (node, mode, sample) storage. The package's own models compute in their
    input's layout and return it; a user function wrapped by
    callable_nonlinearity receives C-contiguous (rows, m) arrays.
    """

    kind: str
    lipschitz_L1: float
    fn: Callable[[np.ndarray], object]
    params: dict = field(default_factory=dict)
    returns_boundary: bool = False

    def __call__(self, v: np.ndarray):
        return self.fn(v)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Multiplicative diagonal noise: mode k is driven by its own channel.

    ``diffusion(v)[..., k]`` is the factor multiplying dW_k in mode k, for
    (..., m) arrays of any memory layout, as NonlinearityModel's ``fn``;
    the package's own models return their input's layout.
    covariance_weights q_k are the variance rates of the Q-Wiener channels.
    """

    kind: str
    lipschitz_L2: float
    n_noise_modes: int
    covariance_weights: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)

    def diffusion(self, v: np.ndarray) -> np.ndarray:
        return self.fn(v)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


def zero_nonlinearity(m: int) -> NonlinearityModel:
    def fn(v):
        return np.zeros_like(v)

    return NonlinearityModel(kind="zero", lipschitz_L1=0.0, fn=fn, params={"m": m})


def _on_modes(B: np.ndarray, v) -> np.ndarray:
    """B applied on the mode axis of v (..., m), in v's layout: rows stored
    mode-last (C order) as one (rows, m) @ B.T product; mode-major storage,
    each mode's samples contiguous, as B @ (m, n) per leading index, whose
    result is the same layout."""
    v = np.asarray(v, dtype=float)
    if v.ndim >= 2 and not v.flags.c_contiguous:
        vt = np.swapaxes(v, -1, -2)
        if vt.flags.c_contiguous:
            return np.swapaxes(B @ vt, -1, -2)
    return (v.reshape(-1, v.shape[-1]) @ B.T).reshape(v.shape)


def linear_nonlinearity(matrix) -> NonlinearityModel:
    B = np.asarray(matrix, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ConfigError("linear nonlinearity needs a square matrix")
    L1 = float(np.linalg.norm(B, 2))

    def fn(v):
        return _on_modes(B, v)

    return NonlinearityModel(kind="linear", lipschitz_L1=L1, fn=fn,
                             params={"matrix": B})


def saturated_polynomial_nonlinearity(coefficients, radius: float) -> NonlinearityModel:
    """Componentwise polynomial sum_d c_d x^d (d >= 1) with the argument
    clamped to [-radius, radius]; clamping makes the map globally Lipschitz
    with constant sum_d d*|c_d|*radius^(d-1)."""
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ConfigError("saturated-polynomial needs a 1d coefficient list")
    radius = float(radius)
    if radius <= 0:
        raise ConfigError("saturation radius must be positive")
    degrees = np.arange(1, c.size + 1)
    L1 = float(np.sum(degrees * np.abs(c) * radius ** (degrees - 1)))

    def fn(v):
        x = _clamp(v, radius)
        out = np.zeros_like(x)
        for d, cd in zip(degrees, c):
            if cd != 0.0:
                out = out + cd * x ** d
        return out

    return NonlinearityModel(kind="saturated-polynomial", lipschitz_L1=L1, fn=fn,
                             params={"coefficients": c, "radius": radius})


def _sampled_lipschitz(fn, m: int, radius: float, n_pairs: int, seed: int) -> float:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    u = rng.uniform(-radius, radius, size=(n_pairs, m))
    v = rng.uniform(-radius, radius, size=(n_pairs, m))
    du = np.linalg.norm(u - v, axis=-1)
    keep = du > 1e-12
    df = np.linalg.norm(np.asarray(fn(u)) - np.asarray(fn(v)), axis=-1)
    if not np.any(keep):
        return 0.0
    return float(np.max(df[keep] / du[keep]))


def callable_nonlinearity(fn, m: int, sample_radius: float = 1.0,
                          n_pairs: int = 4096, seed: int = 0,
                          lipschitz_L1: Optional[float] = None) -> NonlinearityModel:
    """User-supplied F; the Lipschitz constant is estimated by sampling pairs
    in a ball of ``sample_radius`` and inflated by 10%, unless an exact
    constant is passed. The estimate is only trustworthy on the sampled
    ball — the solvers may leave it.

    ``fn`` always receives C-contiguous (rows, m) arrays, whatever layout
    the model is called with, and its result is copied back into that
    layout."""
    if lipschitz_L1 is None:
        L1 = _LIP_INFLATION * _sampled_lipschitz(fn, m, sample_radius, n_pairs, seed)
    else:
        L1 = float(lipschitz_L1)

    def on_rows(v):
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        out[...] = np.reshape(fn(np.ascontiguousarray(v.reshape(-1, v.shape[-1]))), v.shape)
        return out

    return NonlinearityModel(kind="callable", lipschitz_L1=L1, fn=on_rows,
                             params={"sample_radius": sample_radius, "m": m})


def zero_noise(m: int, n_noise_modes: Optional[int] = None) -> NoiseModel:
    d = int(n_noise_modes) if n_noise_modes else max(1, m)

    def fn(v):
        return np.zeros_like(v)

    return NoiseModel(kind="zero", lipschitz_L2=0.0, n_noise_modes=d,
                      covariance_weights=np.ones(d), fn=fn, params={"m": m})


def _diag_noise_L2(slopes: np.ndarray, q: np.ndarray) -> float:
    # Ito isometry: E||sigma(u)dW||^2 = sum_k s_k^2 q_k u_k^2 dt
    return float(np.max(np.abs(slopes) * np.sqrt(q))) if slopes.size else 0.0


def _per_mode_product(v, s: np.ndarray) -> np.ndarray:
    """v * s for v (..., m) and slopes s (m,), one multiply per mode, in
    v's layout: on rows stored mode-last the broadcast product would run an
    inner loop of only m elements. Each element is the same one product,
    so the bits are those of v * s; other shapes take v * s itself."""
    v = np.asarray(v)
    if s.ndim != 1 or v.ndim == 0 or v.shape[-1] != s.size:
        return v * s
    out = np.empty_like(v, dtype=np.result_type(v, s))
    for k in range(s.size):
        np.multiply(v[..., k], s[k], out=out[..., k])
    return out


def diagonal_linear_noise(slopes, covariance_weights=None) -> NoiseModel:
    s = np.asarray(slopes, dtype=float)
    q = np.ones_like(s) if covariance_weights is None else np.asarray(covariance_weights, dtype=float)
    if q.shape != s.shape:
        raise ConfigError("covariance weights must match slopes")
    if np.any(q < 0):
        raise ConfigError("covariance weights must be nonnegative")

    def fn(v):
        return _per_mode_product(v, s)

    return NoiseModel(kind="diagonal-linear", lipschitz_L2=_diag_noise_L2(s, q),
                      n_noise_modes=s.size, covariance_weights=q, fn=fn,
                      params={"slopes": s})


def saturated_noise(slopes, radius: float, covariance_weights=None) -> NoiseModel:
    s = np.asarray(slopes, dtype=float)
    q = np.ones_like(s) if covariance_weights is None else np.asarray(covariance_weights, dtype=float)
    radius = float(radius)
    if radius <= 0:
        raise ConfigError("saturation radius must be positive")
    if q.shape != s.shape or np.any(q < 0):
        raise ConfigError("bad covariance weights")

    def fn(v):
        return _per_mode_product(_clamp(v, radius), s)

    return NoiseModel(kind="saturated", lipschitz_L2=_diag_noise_L2(s, q),
                      n_noise_modes=s.size, covariance_weights=q, fn=fn,
                      params={"slopes": s, "radius": radius})


@dataclass(frozen=True, eq=False)
class SpectralProblem:
    eigenvalues: np.ndarray          # (m,) rates, 1/time
    unstable_modes: np.ndarray       # sorted index set U
    stable_modes: np.ndarray         # sorted index set S
    alpha: float
    beta: float
    gamma: float
    zeta: float
    bound_K: float
    nonlinearity: NonlinearityModel
    noise: NoiseModel
    # maps boundary-valued forcings (a, b, f-modes) into X0 modes; built by
    # the example-problem constructor, None for mode-local problems
    boundary_regularizer: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def unstable_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_modes, dtype=bool)
        mask[self.unstable_modes] = True
        return mask

    @property
    def stable_mask(self) -> np.ndarray:
        return ~self.unstable_mask

    def block_mask(self, block: str) -> np.ndarray:
        if block in ("u", "unstable"):
            return self.unstable_mask
        if block in ("s", "stable"):
            return self.stable_mask
        if block == "full":
            return np.ones(self.n_modes, dtype=bool)
        raise ConfigError(f"unknown block {block!r}")


def build_problem(eigenvalues, unstable_modes, alpha, beta, gamma, zeta,
                  nonlinearity: NonlinearityModel, noise: NoiseModel,
                  bound_K: float = 1.0, boundary_regularizer=None,
                  meta: Optional[dict] = None) -> SpectralProblem:
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
        raise ConfigError("eigenvalues must be a nonempty finite 1d list")
    m = lam.size
    # a mask, not np.unique/np.setdiff1d: those import numpy.ma on first use
    u_req = np.asarray(unstable_modes, dtype=int).reshape(-1)
    if u_req.size and (u_req.min() < 0 or u_req.max() >= m):
        raise ConfigError("unstable mode index out of range")
    unstable = np.zeros(m, dtype=bool)
    unstable[u_req] = True
    u_idx, s_idx = np.flatnonzero(unstable), np.flatnonzero(~unstable)

    alpha, beta, gamma, zeta = map(float, (alpha, beta, gamma, zeta))
    if not (beta < zeta < gamma < alpha):
        raise OrderingViolation(
            f"need beta < zeta < gamma < alpha, got beta={beta}, zeta={zeta}, "
            f"gamma={gamma}, alpha={alpha}")
    if np.any(lam[u_idx] < alpha):
        bad = lam[u_idx][lam[u_idx] < alpha]
        raise SpectralGapViolation(f"unstable eigenvalues below alpha={alpha}: {bad}")
    if np.any(lam[s_idx] > beta):
        bad = lam[s_idx][lam[s_idx] > beta]
        raise SpectralGapViolation(f"stable eigenvalues above beta={beta}: {bad}")

    bound_K = float(bound_K)
    if bound_K < 1.0:
        raise ConfigError("bound_K must be >= 1")

    origin = np.zeros(m)
    f0 = nonlinearity(origin)
    if nonlinearity.returns_boundary:
        a0, b0, g0 = f0.a, f0.b, f0.f
        if abs(float(np.max(np.abs(a0)))) > 1e-14 or abs(float(np.max(np.abs(b0)))) > 1e-14 \
                or float(np.max(np.abs(g0))) > 1e-14:
            raise NonzeroAtOrigin("F(0) != 0")
    elif float(np.max(np.abs(f0))) > 1e-14:
        raise NonzeroAtOrigin("F(0) != 0")
    if float(np.max(np.abs(noise.diffusion(origin)))) > 1e-14:
        raise NonzeroAtOrigin("sigma(0) != 0")
    if noise.kind != "zero" and noise.n_noise_modes != m:
        raise ConfigError("diagonal noise needs one channel per mode")

    return SpectralProblem(
        eigenvalues=lam, unstable_modes=u_idx, stable_modes=s_idx,
        alpha=alpha, beta=beta, gamma=gamma, zeta=zeta, bound_K=bound_K,
        nonlinearity=nonlinearity, noise=noise,
        boundary_regularizer=None if boundary_regularizer is None
        else np.asarray(boundary_regularizer, dtype=float),
        meta=dict(meta or {}))


def semigroup_apply(p: SpectralProblem, t: float, v: np.ndarray,
                    block: str = "full") -> np.ndarray:
    """Apply T(t) restricted to a block: mode k scales by exp(lambda_k t),
    modes outside the block are zeroed. The stable block is only a semigroup
    (t >= 0); the unstable block is a finite-dimensional group (any t)."""
    t = float(t)
    mask = p.block_mask(block)
    if t < 0 and block not in ("u", "unstable") and p.stable_modes.size:
        raise StableBackwardTime(f"t={t} < 0 on a block containing stable modes")
    factors = np.where(mask, np.exp(p.eigenvalues * t), 0.0)
    return np.asarray(v) * factors


def project(p: SpectralProblem, v: np.ndarray, side: str) -> np.ndarray:
    return np.asarray(v) * p.block_mask(side)


def _normalize_anchor(x, idx: np.ndarray, m: int, n_samples: int) -> tuple:
    """The one rule for what an anchor may be, read by the solves and maps,
    the run block's anchor (config.anchor_from_run) and the dense oracle.
    Returns the anchor as (n, len(idx)), block idx's coordinates, plus a
    deterministic flag. A vector or (n_samples, k) rows; full-width ones
    (m entries) are accepted when the complementary block is exactly zero."""
    arr = np.asarray(x, dtype=float)
    k = len(idx)
    if arr.ndim not in (1, 2):
        raise ConfigError("anchor must be a vector or (n_samples, k) array")
    if arr.ndim == 2 and arr.shape[0] != n_samples:
        raise ConfigError(f"anchor rows {arr.shape[0]} != n_samples {n_samples}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"anchor has a non-finite entry {float(arr[~np.isfinite(arr)][0])!r}")
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


@dataclass(frozen=True)
class GapReport:
    eta: float
    delta: float
    c_zeta: float
    c_zeta_source: str
    pass_unstable: bool
    pass_stable: bool
    terms: dict

    def verdict(self, side: str) -> tuple:
        """(name, value, passes) of the constant that decides a side: eta,
        the backward map's contraction, for the unstable graph; delta, the
        forward map's, for the stable one. Any other side is refused with
        ConfigError."""
        if side == "unstable":
            return "eta", self.eta, self.pass_unstable
        if side == "stable":
            return "delta", self.delta, self.pass_stable
        raise ConfigError(f"unknown side {side!r}; expected 'unstable' or 'stable'")

    def require(self, side: str, force: bool) -> bool:
        """Whether the side passes; a failing side raises GapViolation
        unless ``force``."""
        name, value, passes = self.verdict(side)
        if not passes and not force:
            raise GapViolation(f"{side} gap condition fails: {name} = {value:.4f} >= 1")
        return passes

    def lipschitz_bound(self, side: str) -> float:
        """The Lipschitz bound of the side's graph map; inf when the side's
        contraction is >= 1, where the gap bounds nothing."""
        _, contraction, passes = self.verdict(side)
        t = self.terms
        lip = (t["conv_L1"] + t["conv_L2"] if side == "unstable"
               else t["K"] * (t["drift_weighted"] + t["sqrt_term"]))
        return lip / (1.0 - contraction) if passes else float("inf")

    def as_dict(self) -> dict:
        return {
            "eta": self.eta, "delta": self.delta,
            "c_zeta": self.c_zeta, "c_zeta_source": self.c_zeta_source,
            "pass_unstable": self.pass_unstable, "pass_stable": self.pass_stable,
            "terms": dict(self.terms),
        }


def gap_terms(K: float, L1: float, L2: float, alpha_minus_gamma: float,
              c_zeta: float) -> dict:
    """The four terms the contraction constants add up: K*L1/(alpha-gamma),
    K*L2/sqrt(2*(alpha-gamma)), K*L1*C_zeta and K*L2*C_zeta."""
    if alpha_minus_gamma <= 0:
        raise DegenerateGap(f"alpha - gamma = {alpha_minus_gamma} <= 0")
    return {"drift_weighted": K * L1 / alpha_minus_gamma,
            "sqrt_term": K * L2 / float(np.sqrt(2.0 * alpha_minus_gamma)),
            "conv_L1": K * L1 * c_zeta,
            "conv_L2": K * L2 * c_zeta}


def gap_eta(K: float, L1: float, L2: float, alpha_minus_gamma: float,
            c_zeta: float) -> float:
    t = gap_terms(K, L1, L2, alpha_minus_gamma, c_zeta)
    return t["drift_weighted"] + t["conv_L1"] + t["conv_L2"]


def gap_delta(K: float, L1: float, L2: float, alpha_minus_gamma: float,
              c_zeta: float) -> float:
    t = gap_terms(K, L1, L2, alpha_minus_gamma, c_zeta)
    return t["drift_weighted"] + t["sqrt_term"] + t["conv_L1"] + t["conv_L2"]


def gap_report(p: SpectralProblem, c_zeta: float, c_zeta_source: str = "user") -> GapReport:
    """Contraction constants of the backward (eta) and forward (delta)
    Lyapunov-Perron maps at the problem's rate gamma."""
    c_zeta = float(c_zeta)
    if c_zeta <= 0:
        raise ConfigError("C_zeta must be positive")
    K, L1, L2 = p.bound_K, p.nonlinearity.lipschitz_L1, p.noise.lipschitz_L2
    ag = p.alpha - p.gamma
    terms = {"K": K, "L1": L1, "L2": L2, "alpha_minus_gamma": ag,
             **gap_terms(K, L1, L2, ag, c_zeta)}
    eta = gap_eta(K, L1, L2, ag, c_zeta)
    delta = gap_delta(K, L1, L2, ag, c_zeta)
    return GapReport(eta=float(eta), delta=float(delta), c_zeta=c_zeta,
                     c_zeta_source=c_zeta_source,
                     pass_unstable=bool(eta < 1.0), pass_stable=bool(delta < 1.0),
                     terms=terms)
