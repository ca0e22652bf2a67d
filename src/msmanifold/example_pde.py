"""Worked example: heat equation on (0,1) with nonlinear Neumann flux.

The operator is the Neumann Laplacian shifted by pi^2/2, truncated to its
first m cosine modes.  Eigenvalues are (1/2 - k^2) pi^2, so mode 0 is the
single unstable direction.  Boundary forcing enters as flux data (g1 at
x=0, g2 at x=1) plus an interior term g0; the flux components live outside
the mode space and reach it through the frozen resolvent-regularizer
columns, the lambda -> infinity limit of lambda*R_lambda(A) on unit flux
data.  That limit is exact: the closed form of resolvent.boundary_columns,
lam e_k(end) / (lam - pi^2/2 + (k pi)^2), tends to 1 * e_k(end) in every
mode, so the frozen columns are the cosine modes' endpoint values.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import ConfigError
from .problem import (NoiseModel, NonlinearityModel, SpectralProblem, _on_modes,
                      build_problem, zero_noise)
from .resolvent import BoundaryTriple, endpoint_values

__all__ = [
    "EXAMPLE_LADDER",
    "OPERATOR_SHIFT",
    "example_eigenvalues",
    "endpoint_values",
    "boundary_flux_nonlinearity",
    "build_example_problem",
]

OPERATOR_SHIFT = math.pi ** 2 / 2.0

EXAMPLE_LADDER = (1e2, 1e3, 1e4, 1e5, 1e6)

_L1_INFLATION = 1.10


def example_eigenvalues(m: int) -> np.ndarray:
    """(1/2 - k^2) pi^2 for k = 0..m-1."""
    k = np.arange(m, dtype=float)
    return (0.5 - k * k) * math.pi ** 2


def _as_component(spec, m: int, scalar: bool):
    """Normalize a forcing component to (fn, lipschitz).

    Accepts None (zero), a coefficient matrix/vector (linear), or a
    batch-aware callable of (..., m) arrays in any memory layout (lipschitz
    then comes from the caller). A flux coefficient vector is applied as a
    multiply-add over the modes in mode order, so each row's value is the
    same bits in any batch (a BLAS matrix-vector product takes a path that
    depends on the row count). Zero and matrix pieces return their input's
    layout; the matrix goes on the mode axis (problem._on_modes).
    """
    if spec is None:
        if scalar:
            return (lambda v: np.zeros(v.shape[:-1])), 0.0
        return (lambda v: np.zeros_like(v)), 0.0
    if callable(spec):
        return spec, None
    arr = np.asarray(spec, dtype=float)
    if scalar:
        if arr.shape != (m,):
            raise ConfigError(f"flux coefficients must have shape ({m},)")

        def flux(v):
            out = v[..., 0] * arr[0]
            for k in range(1, m):
                out += v[..., k] * arr[k]
            return out

        return flux, float(np.linalg.norm(arr))
    if arr.shape != (m, m):
        raise ConfigError(f"interior coefficients must be ({m}, {m})")
    return (lambda v: _on_modes(arr, v)), float(np.linalg.norm(arr, 2))


def boundary_flux_nonlinearity(m: int, g0=None, g1=None, g2=None,
                               lipschitz_L1: Optional[float] = None
                               ) -> NonlinearityModel:
    """F(v) = (g0(v), g1(v), g2(v)) as a boundary triple on mode vectors.

    g0 maps (..., m) -> (..., m); g1, g2 map (..., m) -> (...,).  Linear
    pieces may be given as arrays and contribute their operator norms to
    the certified Lipschitz constant; any callable piece requires an
    explicit lipschitz_L1.
    """
    f0, l0 = _as_component(g0, m, scalar=False)
    f1, l1 = _as_component(g1, m, scalar=True)
    f2, l2 = _as_component(g2, m, scalar=True)
    if lipschitz_L1 is None:
        if None in (l0, l1, l2):
            raise ConfigError("callable forcing components need an explicit "
                              "lipschitz_L1")
        lipschitz_L1 = _L1_INFLATION * (l0 + l1 + l2)

    def fn(v):
        v = np.asarray(v, dtype=float)
        return BoundaryTriple._unchecked(f=f0(v), a=f1(v), b=f2(v))

    params = {"m": m}
    if not (callable(g0) or callable(g1) or callable(g2)):
        # linear coefficient form survives the round trip through JSON
        params["config"] = {
            "kind": "boundary-linear",
            "g0_matrix": None if g0 is None
            else np.asarray(g0, dtype=float).tolist(),
            "g1_coefficients": None if g1 is None
            else np.asarray(g1, dtype=float).tolist(),
            "g2_coefficients": None if g2 is None
            else np.asarray(g2, dtype=float).tolist(),
        }
    return NonlinearityModel(kind="boundary-example",
                             lipschitz_L1=float(lipschitz_L1), fn=fn,
                             params=params, returns_boundary=True)


def build_example_problem(m: int = 4,
                          g0=None, g1=None, g2=None,
                          lipschitz_L1: Optional[float] = None,
                          noise: Optional[NoiseModel] = None,
                          alpha: Optional[float] = None,
                          beta: Optional[float] = None,
                          gamma: Optional[float] = None,
                          zeta: Optional[float] = None,
                          bound_K: float = 1.0) -> SpectralProblem:
    """Spectral truncation of the shifted Neumann example, ready to solve.

    Freezes the boundary-regularizer columns at their exact lambda -> infinity
    limit e_k(0), e_k(1), the limit of boundary_columns' closed form in every
    mode; meta keeps EXAMPLE_LADDER for the ladder study.  Defaults
    put the dichotomy rates at alpha = pi^2/2 (the lone unstable
    eigenvalue), beta = -pi^2/2, gamma = pi^2/4, zeta = 0.
    """
    if m < 2:
        raise ConfigError("need at least two modes (one unstable, one stable)")
    eigs = example_eigenvalues(m)
    alpha = OPERATOR_SHIFT if alpha is None else float(alpha)
    beta = -OPERATOR_SHIFT if beta is None else float(beta)
    gamma = math.pi ** 2 / 4.0 if gamma is None else float(gamma)
    zeta = 0.0 if zeta is None else float(zeta)

    nonlinearity = boundary_flux_nonlinearity(m, g0=g0, g1=g1, g2=g2,
                                              lipschitz_L1=lipschitz_L1)
    if noise is None:
        noise = zero_noise(m)

    regularizer = np.stack([endpoint_values(m, 0), endpoint_values(m, 1)], axis=1)
    meta = {
        "operator_shift": OPERATOR_SHIFT,
        "ladder": EXAMPLE_LADDER,
        "family": "neumann-flux-example",
    }
    return build_problem(eigs, [0], alpha, beta, gamma, zeta,
                         nonlinearity, noise, bound_K=bound_K,
                         boundary_regularizer=regularizer, meta=meta)
