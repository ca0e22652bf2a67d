"""Resolvent machinery for the non-densely-defined operator.

Covers the example boundary operator's resolvent (a two-point BVP solved in
closed cosh/sinh form plus a Green-kernel quadrature for interior forcing),
the lambda-regularization lambda*R_lambda(A), its lambda -> infinity ladder
with Richardson extrapolation in 1/lambda, the regularized convolution
(S <> f)(t), the C_kappa constant, and the delta(t) table of the convolution
bound.

On X0 (pure mode vectors) the regularization acts diagonally as
lambda/(lambda - lambda_k) and its limit is the identity, which is applied
exactly.  Boundary-valued data (BoundaryTriple) reaches the modes through
the problem's frozen limit columns; only the ladder study
(lambda_regularize, extend_projection) walks the ladder itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    KappaBelowVartheta,
    LadderNotConverged,
    LambdaInSpectrum,
    NonpositiveLambda,
)
from .problem import SpectralProblem, project

__all__ = [
    "DEFAULT_LADDER",
    "HilleYosidaData",
    "BoundaryTriple",
    "DeltaTable",
    "resolvent_boundary",
    "lambda_regularize",
    "extend_projection",
    "convolve_diamond",
    "c_kappa",
    "estimate_delta",
    "forcing_modes",
    "forcing_to_modes",
    "cosine_basis_matrix",
    "boundary_columns",
    "richardson_pair",
    "hille_yosida_data",
]

DEFAULT_LADDER = (1e2, 1e3, 1e4)


@dataclass(frozen=True)
class HilleYosidaData:
    """Growth bound of a (restricted) Hille-Yosida operator: ||lambda R_lambda||
    <= M*lambda/(lambda - vartheta) for lambda > vartheta."""

    M: float
    vartheta: float

    def __post_init__(self):
        if self.M < 1.0:
            raise ConfigError("Hille-Yosida bound M must be >= 1")


def hille_yosida_data(p: SpectralProblem, block: str = "full") -> HilleYosidaData:
    lam = p.eigenvalues[p.block_mask(block)]
    if lam.size == 0:
        raise ConfigError(f"block {block!r} is empty")
    # diagonal model: M = 1 and vartheta = max rate in the block, exactly
    return HilleYosidaData(M=1.0, vartheta=float(np.max(lam)))


@dataclass(frozen=True, eq=False)
class BoundaryTriple:
    """Element of R x R x L2(0,1): left datum a, right datum b, interior f.

    ``f`` is either grid values on the x-grid (resolvent_boundary input) or
    eigenbasis coefficients (forcing produced by the boundary nonlinearity);
    the receiving operation documents which. a, b broadcast against f's
    leading dimensions.
    """

    a: np.ndarray
    b: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "f"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
            if not np.all(np.isfinite(v)):
                raise ConfigError(f"boundary triple field {name} not finite")


@dataclass(frozen=True, eq=False)
class DeltaTable:
    """Non-decreasing bound delta(t) with (S <> f)(t) <= delta(t)*sup||f||."""

    times: np.ndarray
    values: np.ndarray
    M: float
    vanishes_at_zero: bool
    meta: dict = field(default_factory=dict)

    def rho(self, eps: float) -> float:
        """rho_eps: the largest grid time t > 0 with M*delta(t) <= eps, read
        off the table for any eps; NaN when no node qualifies."""
        ok = np.flatnonzero((self.M * self.values <= float(eps)) & (self.times > 0))
        return float(self.times[ok[-1]]) if ok.size else float("nan")


def _boundary_response(r: float, x: np.ndarray, which: str) -> np.ndarray:
    """phi with mu*phi - phi'' = 0 and phi'(0) = -1, phi'(1) = 0 ("left"),
    or phi'(0) = 0, phi'(1) = 1 ("right"); r = sqrt(mu). Written with
    decaying exponentials so it is stable for large r."""
    denom = r * (1.0 - np.exp(-2.0 * r))
    if which == "left":
        # cosh(r(1-x))/(r sinh r)
        return (np.exp(-r * x) + np.exp(-r * (2.0 - x))) / denom
    # cosh(r x)/(r sinh r)
    return (np.exp(-r * (1.0 - x)) + np.exp(-r * (1.0 + x))) / denom


def _green_matrix(r: float, x: np.ndarray) -> np.ndarray:
    """Neumann Green kernel G(x,y) = cosh(r min)cosh(r(1-max))/(r sinh r)
    in decaying-exponential form; shape (n_x, n_x)."""
    lo = np.minimum.outer(x, x)
    hi = np.maximum.outer(x, x)
    denom = 2.0 * r * (1.0 - np.exp(-2.0 * r))
    return (np.exp(-r * (hi - lo)) + np.exp(-r * (2.0 - hi - lo))
            + np.exp(-r * (hi + lo)) + np.exp(-r * (2.0 + lo - hi))) / denom


def resolvent_boundary(lam: float, d: Optional[BoundaryTriple] = None, *,
                       a: float = 0.0, b: float = 0.0, f=None,
                       n_x: int = 2001):
    """Solve lam*phi - phi'' = f on (0,1) with phi'(0) = -a, phi'(1) = b.

    Returns (x, phi, diagnostics). The boundary part is closed-form; the
    interior forcing enters through the Neumann Green kernel with trapezoidal
    quadrature. Diagnostics carry the weak-form residual
    lam*int(phi) - int(f) - (a+b) (exact integration of the ODE) and, when
    the problem is not too stiff for finite differences (lam*h^2 small), a
    pointwise interior residual.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise NonpositiveLambda(f"resolvent_boundary needs lambda > 0, got {lam}")
    if d is not None:
        a, b, f = d.a, d.b, d.f
    a = float(a)
    b = float(b)
    x = np.linspace(0.0, 1.0, int(n_x))
    r = np.sqrt(lam)

    phi = a * _boundary_response(r, x, "left") + b * _boundary_response(r, x, "right")
    if f is not None:
        fx = f(x) if callable(f) else np.asarray(f, dtype=float)
        if fx.shape != x.shape:
            raise ConfigError("interior forcing must be sampled on the x-grid")
        G = _green_matrix(r, x)
        phi = phi + np.trapezoid(G * fx, x, axis=1)
    else:
        fx = np.zeros_like(x)

    weak = lam * np.trapezoid(phi, x) - np.trapezoid(fx, x) - (a + b)
    h = x[1] - x[0]
    diagnostics = {"weak_residual": float(weak), "pointwise_residual": None}
    if lam * h * h < 1e-3:
        d2 = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / (h * h)
        res = lam * phi[1:-1] - d2 - fx[1:-1]
        diagnostics["pointwise_residual"] = float(np.max(np.abs(res)))
        dphi0 = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / (2.0 * h)
        dphi1 = (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * h)
        diagnostics["bc_residual"] = float(max(abs(dphi0 + a), abs(dphi1 - b)))
    return x, phi, diagnostics


def cosine_basis_matrix(m: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Neumann eigenbasis on (0,1): e_0 = 1, e_k = sqrt(2) cos(k pi x)."""
    k = np.arange(m)[:, None]
    E = np.sqrt(2.0) * np.cos(k * np.pi * x[None, :])
    E[0] = 1.0
    return E


def _simpson_weights(n_x: int, h: float) -> np.ndarray:
    if n_x % 2 == 0:
        raise ConfigError("Simpson quadrature needs an odd node count")
    w = np.ones(n_x)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def boundary_columns(lam: float, m: int, shift: float,
                     n_x: Optional[int] = None) -> np.ndarray:
    """Columns of lambda*R_lambda(A) acting on unit boundary data (a=1, b=1)
    for the shifted example operator A = (Neumann Laplacian) + shift, expanded
    in the cosine eigenbasis. Production path: solve the BVP at mu = lam - shift
    and project by Simpson quadrature on a grid fine enough to resolve the
    sqrt(mu)-wide boundary layer. Returns shape (m, 2)."""
    mu = float(lam) - float(shift)
    if mu <= 0.0:
        raise NonpositiveLambda(f"lambda - shift = {mu} <= 0")
    if n_x is None:
        # error of the projected column ~ lam * h^4 * mu^{3/2}; 120 nodes per
        # boundary layer keeps it below ~1e-7 across the default ladders
        n_x = max(8001, int(120.0 * np.sqrt(mu)))
        n_x = min(n_x, 200001)
        if n_x % 2 == 0:
            n_x += 1
    x, phi_a, _ = resolvent_boundary(mu, a=1.0, b=0.0, n_x=n_x)
    _, phi_b, _ = resolvent_boundary(mu, a=0.0, b=1.0, n_x=n_x)
    E = cosine_basis_matrix(m, x)
    w = _simpson_weights(n_x, x[1] - x[0])
    col_a = lam * (E * phi_a[None, :]) @ w
    col_b = lam * (E * phi_b[None, :]) @ w
    return np.stack([col_a, col_b], axis=1)


def _mode_scaling(p: SpectralProblem, lam: float) -> np.ndarray:
    lam = float(lam)
    if lam <= 0.0:
        raise NonpositiveLambda(f"lambda must be positive, got {lam}")
    gap = np.abs(lam - p.eigenvalues)
    if np.any(gap < 1e-9 * max(1.0, lam)):
        hit = p.eigenvalues[gap < 1e-9 * max(1.0, lam)]
        raise LambdaInSpectrum(f"lambda={lam} hits eigenvalue(s) {hit}")
    return lam / (lam - p.eigenvalues)


def _boundary_columns_for(p: SpectralProblem, lam: float) -> np.ndarray:
    cols = p.meta.get("boundary_columns", {})
    key = repr(float(lam))
    if key in cols:
        return np.asarray(cols[key])
    shift = p.meta.get("operator_shift")
    if shift is None:
        raise ConfigError("problem carries boundary forcing but no operator shift")
    return boundary_columns(lam, p.n_modes, shift)


def lambda_regularize(p: SpectralProblem, lam: float, g):
    """lambda*R_lambda(A) g.  Mode vectors scale as lambda/(lambda-lambda_k);
    boundary triples (f in eigenbasis coefficients) additionally inject the
    boundary data through the example BVP columns."""
    scale = _mode_scaling(p, lam)
    if isinstance(g, BoundaryTriple):
        scaled = BoundaryTriple(a=g.a, b=g.b, f=g.f * scale)
        return forcing_modes(scaled, _boundary_columns_for(p, lam))
    return np.asarray(g) * scale


def richardson_pair(lam1: float, v1, lam2: float, v2):
    """Eliminate the 1/lambda term: v(lam) = v_inf + c/lam + O(1/lam^2)."""
    return (lam2 * np.asarray(v2) - lam1 * np.asarray(v1)) / (lam2 - lam1)


def _neville_at_infinity(lams: Sequence[float], vals: Sequence) -> list:
    """Successive extrapolants of v(lam) as lam -> inf: Neville interpolation
    in z = 1/lam evaluated at z = 0. Returns the diagonal [order 0, 1, ...];
    entry k uses the k+1 largest rungs."""
    z = [1.0 / float(l) for l in lams]
    tab = [np.asarray(v, dtype=float) for v in vals]
    diag = [tab[-1]]
    for order in range(1, len(tab)):
        nxt = []
        for i in range(len(tab) - 1):
            nxt.append((z[i] * tab[i + 1] - z[i + order] * tab[i]) / (z[i] - z[i + order]))
        tab = nxt
        diag.append(tab[-1])
    return diag


def _ladder_limit(values_by_lam: Sequence, rtol: float):
    """Extrapolate a ladder of (lam, value) pairs to lam = inf; returns
    (limit, diagnostics). Raises LadderNotConverged if the last two
    extrapolation orders differ above rtol (relative)."""
    if len(values_by_lam) < 2:
        raise ConfigError("ladder needs at least two rungs")
    lams = [l for l, _ in values_by_lam]
    if any(l2 <= l1 for l1, l2 in zip(lams, lams[1:])):
        raise ConfigError("ladder rungs must increase strictly")
    diag_vals = _neville_at_infinity(lams, [v for _, v in values_by_lam])
    limit = diag_vals[-1]
    num = float(np.max(np.abs(limit - diag_vals[-2])))
    den = max(1.0, float(np.max(np.abs(limit))))
    gap = num / den
    converged = gap < rtol
    diag = {
        "ladder": [float(l) for l in lams],
        "cauchy_gap": gap,
        "converged": converged,
        "orders": len(diag_vals) - 1,
    }
    if not converged:
        raise LadderNotConverged(f"extrapolant gap {gap:.3e} >= rtol {rtol:.1e}")
    return limit, diag


def extend_projection(p: SpectralProblem, g, side: str = "u",
                      ladder: Sequence[float] = DEFAULT_LADDER,
                      rtol: float = 1e-6):
    """Pi g for data outside X0 via Pi_0 lambda R_lambda(A) g along the ladder.

    For g already in X0 (a plain mode vector) this is exactly project().
    Returns (modes, diagnostics).
    """
    if not isinstance(g, BoundaryTriple):
        return project(p, np.asarray(g, dtype=float), side), {"exact_on_core": True}
    rungs = [(lam, project(p, lambda_regularize(p, lam, g), side)) for lam in ladder]
    return _ladder_limit(rungs, rtol)


def forcing_modes(value, cols) -> np.ndarray:
    """Forcing values in modes: a boundary triple maps to f + a cols[:, 0] +
    b cols[:, 1], given the regularizer's boundary columns cols (m, 2);
    mode-local values pass through."""
    if isinstance(value, BoundaryTriple):
        if cols is None:
            raise ConfigError("boundary-valued forcing needs a boundary regularizer")
        out = np.array(value.f, dtype=float, copy=True)
        out += np.multiply.outer(np.asarray(value.a, dtype=float), cols[:, 0])
        out += np.multiply.outer(np.asarray(value.b, dtype=float), cols[:, 1])
        return out
    return np.asarray(value, dtype=float)


def forcing_to_modes(p: SpectralProblem, value) -> np.ndarray:
    """Map a forcing evaluation into X0 modes in the lambda -> infinity limit.

    Mode-local forcings pass through unchanged (the limit of the diagonal
    scaling is the identity on X0). Boundary triples go through the
    problem's frozen regularizer, the columns every solve uses; a problem
    without one is refused with ConfigError, as a solve refuses it.
    """
    return forcing_modes(value, p.boundary_regularizer)


# Elements per node from which a node-by-node sweep beats doubling passes.
_SWEEP_ELEMENTS = 128


def linear_scan(x: np.ndarray, decay, carry=None, reverse: bool = False) -> np.ndarray:
    """y_j = decay * y_{j-1} + x_j in place along axis 0 of x (y_{j+1} when
    reverse), from ``carry`` (zero when None) just outside the first node.
    Wide nodes are swept one by one; narrow ones take doubling passes
    (Hillis-Steele) whose coefficients are powers of ``decay``."""
    y = x[::-1] if reverse else x
    if carry is not None:
        y[0] += decay * carry
    if x.size >= _SWEEP_ELEMENTS * len(y):
        for j in range(1, len(y)):
            y[j] += decay * y[j - 1]
    else:
        shift = 1
        while shift < len(y):
            y[shift:] += np.power(decay, shift) * y[:-shift]
            shift *= 2
    return x


def _grid_dt_nsteps(grid) -> tuple:
    if hasattr(grid, "dt") and hasattr(grid, "n_steps"):
        return float(grid.dt), int(grid.n_steps)
    dt, n_steps = grid
    return float(dt), int(n_steps)


def convolve_diamond(p: SpectralProblem, forcing, grid, block: str = "full") -> np.ndarray:
    """(S <> f)(t) = lim_lambda int_0^t T(t-s) lambda R_lambda(A) f(s) ds on
    the grid, by trapezoidal quadrature and the semigroup recurrence

        I_{j+1} = T(dt) (I_j + dt/2 f_j) + dt/2 f_{j+1}.

    ``forcing`` holds node values: array (..., n_steps+1, m), or a
    BoundaryTriple with a,b of shape (..., n_steps+1) and f of shape
    (..., n_steps+1, m) in eigenbasis coefficients, mapped into modes by
    forcing_to_modes.
    """
    dt, n_steps = _grid_dt_nsteps(grid)
    g = forcing_to_modes(p, forcing)
    if g.shape[-2] != n_steps + 1 or g.shape[-1] != p.n_modes:
        raise ConfigError("forcing must be sampled on the grid nodes")
    mask = p.block_mask(block)
    decay = np.where(mask, np.exp(p.eigenvalues * dt), 0.0)
    half = 0.5 * dt * mask * g
    out = half + half
    out[..., 0, :] = half[..., 0, :]
    linear_scan(np.moveaxis(out, -2, 0), decay)
    return out - half


def c_kappa(eps: float, rho_eps: float, vartheta: float, kappa: float) -> float:
    """C_kappa = 2 eps max(1, e^{-kappa rho}) / (1 - e^{(vartheta-kappa) rho})."""
    eps, rho_eps, vartheta, kappa = map(float, (eps, rho_eps, vartheta, kappa))
    if eps <= 0.0 or rho_eps <= 0.0:
        raise ConfigError("c_kappa needs eps > 0 and rho_eps > 0")
    if kappa <= vartheta:
        raise KappaBelowVartheta(f"kappa={kappa} <= vartheta={vartheta}")
    return 2.0 * eps * max(1.0, np.exp(-kappa * rho_eps)) \
        / (1.0 - np.exp((vartheta - kappa) * rho_eps))


def _default_probes(p: SpectralProblem, n_nodes: int, block: str):
    probes = []
    mask = p.block_mask(block)
    for k in np.flatnonzero(mask):
        path = np.zeros((n_nodes, p.n_modes))
        path[:, k] = 1.0
        probes.append(path)
    if p.boundary_regularizer is not None or "operator_shift" in p.meta:
        zero_f = np.zeros((n_nodes, p.n_modes))
        ones = np.ones(n_nodes)
        zeros = np.zeros(n_nodes)
        probes.append(BoundaryTriple(a=ones, b=zeros, f=zero_f))
        probes.append(BoundaryTriple(a=zeros, b=ones, f=zero_f))
    return probes


def _probe_is_zero(probe) -> bool:
    if isinstance(probe, BoundaryTriple):
        return (float(np.max(np.abs(probe.a))) == 0.0
                and float(np.max(np.abs(probe.b))) == 0.0
                and float(np.max(np.abs(probe.f))) == 0.0)
    return float(np.max(np.abs(probe))) == 0.0


def _probe_sup_norm(p: SpectralProblem, probe, n_nodes: int) -> np.ndarray:
    """Running sup_{s<=t} ||f(s)|| on the grid nodes, in the X-norm proxy
    (mode l2 norm; boundary data contributes |a|+|b| on top)."""
    if isinstance(probe, BoundaryTriple):
        base = np.linalg.norm(np.asarray(probe.f), axis=-1)
        base = base + np.abs(probe.a) + np.abs(probe.b)
    else:
        base = np.linalg.norm(np.asarray(probe), axis=-1)
    return np.maximum.accumulate(base)


def estimate_delta(p: SpectralProblem, grid, probes=None, block: str = "stable",
                   M: float = 1.0) -> DeltaTable:
    """Tabulate delta(t_i) = max over probes of ||(S<>f)(t_i)|| / sup||f||,
    monotonized upward. Zero probes are rejected and replaced by the default
    unit probes: one per block mode and, for a boundary problem, the two unit
    flux data, which convolve_diamond maps through the frozen regularizer (a
    boundary problem without one is refused). DeltaTable.rho reads rho_eps
    off the table for any eps."""
    dt, n_steps = _grid_dt_nsteps(grid)
    n_nodes = n_steps + 1
    if probes is None or all(_probe_is_zero(pr) for pr in probes):
        probes = _default_probes(p, n_nodes, block)
    if not probes:
        raise ConfigError("no probes available for delta estimation")

    times = dt * np.arange(n_nodes)
    delta = np.zeros(n_nodes)
    for probe in probes:
        path = convolve_diamond(p, probe, (dt, n_steps), block=block)
        norms = np.linalg.norm(path, axis=-1)
        sup = _probe_sup_norm(p, probe, n_nodes)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(sup > 0, norms / np.where(sup > 0, sup, 1.0), 0.0)
        delta = np.maximum(delta, ratio)
    delta = np.maximum.accumulate(delta)

    t_min = times[1] if n_nodes > 1 else dt
    vanishes = bool(delta[1] <= 10.0 * t_min + 1e-12) if n_nodes > 1 else False
    return DeltaTable(times=times, values=delta, M=float(M), vanishes_at_zero=vanishes,
                      meta={"block": block, "n_probes": len(probes)})
