"""Reference oracles and refinement harnesses.

Everything here produces expected values by routes that do not touch the
fixed-point solver module: closed forms, dense quadrature, and small
matrix algebra.  The integrator, the package's one step count of a span,
and the resolvent helpers needed by the refinement sweeps and by
boundary-valued forcing (mapped into modes in the lambda -> infinity
limit) are imported lazily, so the module itself stays on problem data
and numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, MaxIterExceeded, NoSeparation
from .problem import SpectralProblem, _normalize_anchor

__all__ = [
    "RefinementStudy",
    "linear_manifold_oracle",
    "deterministic_lp_oracle",
    "moment_oracle",
    "refinement_study",
]

_SEPARATION_FLOOR = 1e-8
_RESIDUAL_TOL = 1e-10


def _sylvester_solve(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve a@X - X@b = c by Kronecker assembly; blocks here are tiny."""
    p, q = c.shape
    lhs = np.kron(np.eye(q), a) - np.kron(b.T, np.eye(p))
    try:
        x = np.linalg.solve(lhs, c.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise NoSeparation(f"Sylvester operator singular: {exc}") from None
    return x.reshape(p, q, order="F")


def linear_manifold_oracle(a_u, a_s, b, tol: float = 1e-13,
                           max_iter: int = 500) -> np.ndarray:
    """Slope matrix M of the invariant graph s = M u for linear coupling.

    The state ordering is (primary block, secondary block) with the full
    linear forcing B partitioned accordingly.  M solves

        M (A_u + B_uu + B_us M) = A_s M + B_su + B_ss M

    by damped fixed point on the Sylvester form; the self-residual of
    the returned slope is below 1e-10.
    """
    a_u = np.atleast_2d(np.asarray(a_u, dtype=float))
    a_s = np.atleast_2d(np.asarray(a_s, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    k = a_u.shape[0]
    ms = a_s.shape[0]
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    if b.shape != (k + ms, k + ms):
        raise ConfigError(f"coupling must be {(k + ms, k + ms)}, got {b.shape}")
    b_uu, b_us = b[:k, :k], b[:k, k:]
    b_su, b_ss = b[k:, :k], b[k:, k:]

    eig_u = np.linalg.eigvals(a_u + b_uu)
    eig_s = np.linalg.eigvals(a_s)
    sep = np.min(np.abs(eig_u[:, None] - eig_s[None, :]))
    if sep < _SEPARATION_FLOOR:
        raise NoSeparation(f"spectral separation {sep:.3e} below "
                           f"{_SEPARATION_FLOOR:.0e}")

    def residual(m):
        return m @ (a_u + b_uu + b_us @ m) - (a_s @ m + b_su + b_ss @ m)

    m = np.zeros((ms, k))
    damping = 1.0
    prev = math.inf
    for _ in range(max_iter):
        # linear part solved exactly; the quadratic B_us M feedback is frozen
        rhs = b_su + b_ss @ m - m @ (b_uu + b_us @ m)
        m_new = _sylvester_solve(a_s, a_u, -rhs)
        step = float(np.max(np.abs(m_new - m)))
        if step > prev * 1.5:
            damping = max(damping * 0.5, 0.05)
        m = m + damping * (m_new - m)
        prev = step
        if step * damping <= tol:
            break
    else:
        last = prev * damping
        raise MaxIterExceeded(f"slope iteration stalled at damped step {last:.3e} > tol "
                              f"{tol:.0e} after {max_iter} iterations",
                              distance=last, tol=tol, max_iter=max_iter)
    res = float(np.max(np.abs(residual(m))))
    if res >= _RESIDUAL_TOL:
        raise MaxIterExceeded(f"slope residual {res:.3e} >= {_RESIDUAL_TOL:.0e}",
                              distance=res, tol=_RESIDUAL_TOL, max_iter=max_iter)
    return m


def _oracle_forcing(p: SpectralProblem, states: np.ndarray) -> np.ndarray:
    """Mode forcing at every node: one evaluation on the whole path, with
    boundary data mapped into modes in the lambda -> infinity limit, the
    problem's frozen regularizer columns (a boundary problem without them is
    refused with ConfigError)."""
    from .resolvent import forcing_modes

    return forcing_modes(p.nonlinearity(states), p.boundary_regularizer)


def _kernel_sum(rates: np.ndarray, times: np.ndarray, f: np.ndarray,
                lower: bool, block: int = 256) -> np.ndarray:
    """Trapezoid quadrature of the diagonal exponential convolution.

    lower=True integrates over r <= t_j (stable kernel), lower=False
    over r >= t_j (unstable kernel).  Outside its window a kernel's
    exponent can overflow on stiff rates, and inf times the zero weight
    there is NaN, so the exponent is zeroed wherever the weight is: the
    window's values are untouched, whatever the rates' signs.  Dense
    per-node sums, O(N^2), deliberately unlike the solver recurrences.
    """
    n = times.size
    dt = float(times[1] - times[0])
    out = np.zeros((n, rates.size))
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        rows = np.arange(j0, j1)
        wmat = np.zeros((j1 - j0, n))
        for r, j in enumerate(rows):
            if lower:
                if j == 0:
                    continue
                wmat[r, :j + 1] = dt
                wmat[r, 0] = wmat[r, j] = dt / 2.0
            else:
                if j == n - 1:
                    continue
                wmat[r, j:] = dt
                wmat[r, j] = wmat[r, n - 1] = dt / 2.0
        window = wmat > 0.0
        for i, lam in enumerate(rates):
            z = lam * (times[rows][:, None] - times[None, :])
            ker = np.exp(np.where(window, z, 0.0))
            out[j0:j1, i] = (ker * wmat) @ f[:, i]
    return out


def deterministic_lp_oracle(p: SpectralProblem, x, cfg) -> np.ndarray:
    """Single-path quadrature fixed point for the backward graph, sigma = 0.

    Dense trapezoid sums replace the solver's stepwise recurrences, so
    agreement with the Monte Carlo path is evidence, not tautology.
    Returns the stable coordinates of the graph at the anchor time.
    """
    if not p.noise.is_zero:
        raise ConfigError("deterministic oracle requires zero noise")
    u_idx = np.asarray(p.unstable_modes, dtype=int)
    s_idx = np.asarray(p.stable_modes, dtype=int)
    x = _normalize_anchor(x, u_idx, p.n_modes, 1)[0][0]
    from .stochastic import _span_steps

    n = _span_steps(cfg.t_back, cfg.dt, "t_back", at_least=2)
    times = cfg.tau - cfg.dt * np.arange(n, -1, -1.0)
    lam_u = p.eigenvalues[u_idx]
    lam_s = p.eigenvalues[s_idx]
    decay = np.exp(-p.gamma * (times - cfg.tau))

    pull = np.exp(lam_u[None, :] * (times[:, None] - cfg.tau)) * x[None, :]
    state = np.zeros((n + 1, p.eigenvalues.size))
    state[:, u_idx] = pull
    for it in range(cfg.max_iter):
        f = _oracle_forcing(p, state)
        new = np.zeros_like(state)
        new[:, u_idx] = pull - _kernel_sum(lam_u, times, f[:, u_idx],
                                           lower=False)
        new[:, s_idx] = _kernel_sum(lam_s, times, f[:, s_idx], lower=True)
        dist = float(np.max(decay * np.max(np.abs(new - state), axis=1)))
        state = new
        if dist <= cfg.tol:
            return state[-1, s_idx].copy()
    raise MaxIterExceeded(f"quadrature fixed point stalled at {dist:.3e} > tol "
                          f"{cfg.tol:.0e} after {cfg.max_iter} iterations",
                          distance=dist, tol=cfg.tol, max_iter=cfg.max_iter)


def moment_oracle(lam: float, s: float, u0: float, t: float) -> float:
    """Second moment of the linear scalar diffusion du = lam u dt + s u dW."""
    return u0 * u0 * math.exp((2.0 * lam + s * s) * t)


@dataclass(frozen=True)
class RefinementStudy:
    """One refinement sweep: rows of (parameter value, observable, error)."""

    parameter: str
    rows: Tuple[Tuple[float, float, float], ...]
    slope: float
    slope_kind: str
    monotone: bool

    def as_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "rows": [list(r) for r in self.rows],
            "slope": self.slope,
            "slope_kind": self.slope_kind,
            "monotone": self.monotone,
        }


def _fit_slope(values, errors, kind: str) -> float:
    x = np.log(np.asarray(values, dtype=float)) if kind == "loglog" \
        else np.asarray(values, dtype=float)
    y = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def refinement_study(p: SpectralProblem, cfg, parameter: str,
                     values: Optional[Sequence[float]] = None,
                     x=None) -> RefinementStudy:
    """Error-vs-parameter sweep for dt, n_samples, T_back, or lambda.

    dt and n_samples drive the mild integrator (imported lazily; the
    closed-form oracles above never touch it), T_back drives the dense
    quadrature oracle, and lambda measures the regularization defect on
    a smooth coefficient vector over the problem's own ladder
    (problem_ladder) unless ``values`` are given.  ``x`` is the flow's
    start, m entries, for dt and n_samples, and the unstable anchor for
    T_back; 0.1 in each of those modes when None.  Slopes are log-log
    except for T_back, whose truncation error is exponential and reported
    on a semilog fit.
    The error is monotone when it grows with dt and falls with the others.
    A sweep whose errors are not all positive and finite, such as an
    n_samples sweep without noise, has no slope and is refused with
    ConfigError; so is a dt sweep whose errors all lie within the
    reference's rounding budget, its step count times eps times its
    observable, as they do when the exponential step is exact.
    """
    if values is not None and len(tuple(values)) < 3:
        raise ConfigError("a refinement sweep needs at least 3 values")
    from . import stochastic as st

    u0 = np.asarray(x, dtype=float) if x is not None else np.full(p.eigenvalues.size, 0.1)
    obs, err = [], []
    if parameter == "dt":
        vals = tuple(values) if values is not None else (8e-3, 4e-3, 2e-3)
        vals = tuple(sorted(float(v) for v in vals))
        horizon = cfg.t_fwd
        # the swept steps first, so a horizon off their lattice is refused
        # naming a dt the request set, not the reference step
        sweep = [st._span_steps(horizon, dt, "t_fwd") for dt in vals]
        dt_ref = vals[0] / 4.0
        steps_ref = st._span_steps(horizon, dt_ref, "t_fwd")
        grid_ref = st.TimeGrid(t_start=0.0, dt=dt_ref, n_steps=steps_ref)
        wie_ref = st.sample_wiener(cfg.seed, grid_ref, p.noise,
                                   max(2, cfg.n_samples))
        ref = st.integrate_mild(p, u0, grid_ref, wie_ref).values[:, -1, :]
        budget = steps_ref * np.finfo(float).eps * st.ms_norm(ref)
        for dt, steps in zip(vals, sweep):
            ratio = st._span_steps(dt, dt_ref, "dt")
            grid = st.TimeGrid(t_start=0.0, dt=dt, n_steps=steps)
            # coarse increments are sums of the fine ones: coupled paths
            inc = wie_ref.increments[:, :steps * ratio, :]
            inc = inc.reshape(inc.shape[0], steps, ratio, inc.shape[2])
            inc = inc.sum(axis=2, dtype=float)      # float32 draws, summed in float64
            wie = st.WienerEnsemble(grid=grid, seed=wie_ref.seed,
                                    increments=inc, weights=wie_ref.weights,
                                    step0=0)
            end = st.integrate_mild(p, u0, grid, wie).values[:, -1, :]
            err.append(st.ms_norm(end - ref))
            obs.append(st.ms_norm(end))
        if all(e <= budget for e in err):
            raise ConfigError(f"the dt sweep's errors {err} all lie within the reference's "
                              f"rounding budget {budget:.3g} ({steps_ref} steps x eps x "
                              "observable), so it measures no discretization error")
    elif parameter == "n_samples":
        vals = tuple(values) if values is not None else (400, 1600, 6400)
        vals = tuple(sorted(int(v) for v in vals))
        steps = st._span_steps(cfg.t_fwd, cfg.dt, "t_fwd")
        grid = st.TimeGrid(t_start=0.0, dt=cfg.dt, n_steps=steps)
        for n in vals:
            wie = st.sample_wiener(cfg.seed, grid, p.noise, n)
            end = st.integrate_mild(p, u0, grid, wie).values[:, -1, :]
            sq = np.sum(end * end, axis=1)
            obs.append(float(np.mean(sq)))
            # Monte Carlo standard error of the mean from this run alone
            err.append(float(np.std(sq, ddof=1) / math.sqrt(n)))
    elif parameter == "T_back":
        vals = tuple(values) if values is not None else (4.0, 6.0, 8.0)
        vals = tuple(sorted(float(v) for v in vals))
        anchor = np.asarray(x, dtype=float) if x is not None else \
            np.full(len(p.unstable_modes), 0.1)
        ref = deterministic_lp_oracle(p, anchor, replace(cfg, t_back=vals[-1] * 1.5))
        for t_back in vals:
            g = deterministic_lp_oracle(p, anchor, replace(cfg, t_back=t_back))
            obs.append(float(np.linalg.norm(g)))
            err.append(float(np.max(np.abs(g - ref))))
    elif parameter == "lambda":
        from . import resolvent as rez

        vals = tuple(values) if values is not None else rez.problem_ladder(p)
        vals = tuple(sorted(float(v) for v in vals))
        m = p.eigenvalues.size
        g = 1.0 / (1.0 + np.arange(m, dtype=float) ** 2)
        for lam in vals:
            reg = rez.lambda_regularize(p, lam, g)
            obs.append(float(np.linalg.norm(reg)))
            err.append(float(np.linalg.norm(reg - g)))
    else:
        raise ConfigError(f"unknown refinement parameter {parameter!r}; "
                          "expected dt, n_samples, T_back, or lambda")
    if not all(0.0 < e < math.inf for e in err):
        raise ConfigError(f"the {parameter} sweep's errors {err} are not all positive "
                          "and finite, so it has no slope")
    # vals are sorted, so the rows are in the order of the parameter
    rows = tuple(zip(map(float, vals), obs, err))
    kind = "semilog" if parameter == "T_back" else "loglog"
    slope = _fit_slope(vals, err, kind)
    pairs = list(zip(err, err[1:]))
    mono = all(e0 <= e1 for e0, e1 in pairs) if parameter == "dt" \
        else all(e0 >= e1 for e0, e1 in pairs)
    return RefinementStudy(parameter, rows, slope, kind, mono)
