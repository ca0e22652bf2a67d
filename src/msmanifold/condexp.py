"""Conditional expectations E[.|F_t]: the martingale-zero rule for Ito
integrals and least-squares Monte Carlo regression for everything else."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement, product
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import hermite_e

from .errors import (AdaptednessViolation, ConfigError, IllConditionedDesign,
                     Underdetermined)
from .problem import SpectralProblem
from .stochastic import map_chunks, sample_chunks

COND_LIMIT = 1e12
RIDGE_SCALE = 1e-10
ALIAS_CORR = 1.0 - 1e-10    # correlation at which a column duplicates others


def _on_primary_graph(z: np.ndarray, keep: np.ndarray, basis: "RegressionBasis") -> np.ndarray:
    """Which standardized columns z[:, 1:] (raw basis columns ``keep``) are
    linear coordinates whose multiple correlation with the intercept and
    the primary features reaches ALIAS_CORR."""
    n_poly = len(basis._exponent_rows())
    linear = (keep >= n_poly) & (keep < n_poly + len(basis.linear_idx))
    if not linear.any():
        return linear
    features = z[:, np.concatenate(([0], 1 + np.flatnonzero(keep < n_poly)))]
    cols = z[:, 1 + np.flatnonzero(linear)]
    resid = cols - features @ np.linalg.lstsq(features, cols, rcond=None)[0]
    unexplained = np.einsum("nk,nk->k", resid, resid) / z.shape[0]
    linear[linear] = unexplained <= 1.0 - ALIAS_CORR ** 2
    return linear


def _varies(mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Which columns vary beyond rounding across the ensemble."""
    return sd > 1e-12 * np.maximum(np.abs(mean), 1.0)


def _hermite_column(x: np.ndarray, k: int) -> np.ndarray:
    """Probabilists' Hermite He_k, by recurrence."""
    if k == 0:
        return np.ones_like(x)
    prev, cur = np.ones_like(x), x.copy()
    for j in range(1, k):
        prev, cur = cur, x * cur - j * prev
    return cur


@dataclass(frozen=True, eq=False)
class RegressionBasis:
    """Polynomial (or tensor-Hermite) features of the conditioning coordinates.

    Primary coordinates enter with all monomials of total degree <= degree
    (cross terms included); linear coordinates enter at degree 1 only; Wiener
    values at the conditioning time enter linearly when include_wiener is set.
    """
    kind: str = "polynomial"
    degree: int = 2
    primary_idx: tuple = ()
    linear_idx: tuple = ()
    include_wiener: bool = False
    n_wiener: int = 0

    def __post_init__(self):
        if self.kind not in ("polynomial", "tensor-hermite"):
            raise ConfigError(f"unknown basis kind {self.kind!r}")
        if self.degree < 0:
            raise ConfigError("degree must be >= 0")
        if self.include_wiener and self.n_wiener < 1:
            raise ConfigError("include_wiener needs n_wiener >= 1")
        object.__setattr__(self, "primary_idx", tuple(int(i) for i in self.primary_idx))
        object.__setattr__(self, "linear_idx", tuple(int(i) for i in self.linear_idx))

    def _exponent_rows(self) -> list:
        rows = [()]
        for d in range(1, self.degree + 1):
            rows.extend(combinations_with_replacement(range(len(self.primary_idx)), d))
        return rows

    @property
    def size(self) -> int:
        return (len(self._exponent_rows()) + len(self.linear_idx)
                + (self.n_wiener if self.include_wiener else 0))

    def design(self, state: np.ndarray, wiener: Optional[np.ndarray] = None,
               shift=None, scale=None) -> np.ndarray:
        """Feature columns, (n_samples, size). With shift and scale the
        primary coordinates enter as (x - shift) / scale."""
        state = np.asarray(state, dtype=float)
        if state.ndim != 2:
            raise ConfigError("conditioning state must be (n_samples, n_coords)")
        n = state.shape[0]
        prim = state[:, list(self.primary_idx)] if self.primary_idx else np.empty((n, 0))
        if shift is not None:
            prim = (prim - shift) / scale
        cols = []
        for row in self._exponent_rows():
            if self.kind == "polynomial":
                c = np.ones(n)
                for i in row:
                    c = c * prim[:, i]
            else:
                counts = np.bincount(row, minlength=prim.shape[1]) if row else np.zeros(prim.shape[1], int)
                c = np.ones(n)
                for i, k in enumerate(counts):
                    if k:
                        c = c * _hermite_column(prim[:, i], int(k))
            cols.append(c)
        for i in self.linear_idx:
            cols.append(state[:, i])
        if self.include_wiener:
            if wiener is None:
                raise ConfigError("basis includes Wiener values but none were passed")
            wiener = np.asarray(wiener, dtype=float)
            if wiener.shape != (n, self.n_wiener):
                raise ConfigError(f"wiener values shape {wiener.shape} != ({n}, {self.n_wiener})")
            cols.extend(wiener[:, j] for j in range(self.n_wiener))
        return np.stack(cols, axis=1)

    @cached_property
    def _shift_terms(self) -> tuple:
        """Constant parts of raw_map: binomials, the 1-D changes of basis
        between powers and Hermite polynomials (None for the polynomial
        kind), and per term the (row, col) of T with the per-coordinate
        degrees gamma <= beta whose 1-D factors multiply into it."""
        k, d = len(self.primary_idx), self.degree
        counts = [tuple(np.bincount(row, minlength=k)) if row else (0,) * k
                  for row in self._exponent_rows()]
        index = {c: i for i, c in enumerate(counts)}
        terms = [(index[gamma], col, gamma, beta) for col, beta in enumerate(counts)
                 for gamma in product(*(range(b + 1) for b in beta))]
        rows, cols, gammas, betas = zip(*terms)
        shape = (len(terms), k)
        binom = np.array([[math.comb(l, j) for l in range(d + 1)] for j in range(d + 1)],
                         dtype=float)
        convert = None         # (powers -> Hermite, Hermite -> powers) for that kind
        if self.kind == "tensor-hermite":
            unit = np.eye(d + 1)
            convert = tuple(np.stack([np.pad(conv(unit[j]), (0, d - j)) for j in range(d + 1)],
                                     axis=1)
                            for conv in (hermite_e.poly2herme, hermite_e.herme2poly))
        return (np.array(rows), np.array(cols), np.array(gammas, dtype=int).reshape(shape),
                np.array(betas, dtype=int).reshape(shape), binom, convert)

    def raw_map(self, shift, scale) -> np.ndarray:
        """T with design(s, shift=shift, scale=scale) == design(s) @ T: maps
        coefficients on the shifted basis to the raw basis."""
        rows, cols, gammas, betas, binom, convert = self._shift_terms
        shift = np.asarray(shift, dtype=float)[:, None, None]
        scale = np.asarray(scale, dtype=float)[:, None, None]
        powers = np.arange(self.degree + 1)
        # c[i, j, l]: coefficient of x^j in ((x - shift_i) / scale_i)^l
        c = binom * (-shift) ** np.maximum(powers[None, :] - powers[:, None], 0) / scale ** powers
        if convert is not None:
            to_hermite, to_powers = convert
            c = to_hermite @ c @ to_powers
        n_poly = len(self._exponent_rows())
        t = np.eye(self.size)
        t[:n_poly, :n_poly] = 0.0
        t[rows, cols] = np.prod(c[np.arange(gammas.shape[1]), gammas, betas], axis=1)
        return t


def default_basis(p: SpectralProblem, degree: int = 2,
                  include_wiener: bool = False, kind: str = "polynomial") -> RegressionBasis:
    return RegressionBasis(kind=kind, degree=degree,
                           primary_idx=tuple(p.unstable_modes),
                           linear_idx=tuple(p.stable_modes),
                           include_wiener=include_wiener,
                           n_wiener=p.noise.n_noise_modes if include_wiener else 0)


@dataclass(frozen=True, eq=False)
class CondexpEstimate:
    fitted: np.ndarray              # (n_samples, k)
    coef: np.ndarray                # (basis_size, k)
    basis: Optional[RegressionBasis]
    gram_inv: Optional[np.ndarray]  # (B, B), post-ridge
    resid_var: Optional[np.ndarray]  # (k,)
    diagnostics: dict = field(default_factory=dict)

    def coef_se(self) -> np.ndarray:
        """Standard errors of the coefficients, shaped like coef."""
        if self.gram_inv is None:
            return np.zeros_like(self.coef)
        d = np.sqrt(np.clip(np.diag(self.gram_inv), 0.0, None))
        se = d[:, None] * np.sqrt(self.resid_var)[None, :]
        return se[:, 0] if self.coef.ndim == 1 else se


def _as_targets(target) -> tuple:
    y = np.asarray(target, dtype=float)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    if y.ndim != 2:
        raise ConfigError("target must be (n_samples,) or (n_samples, k)")
    return y, squeeze


def condexp_lsmc(target, state_at_t, basis: RegressionBasis,
                 wiener_at_t: Optional[np.ndarray] = None) -> CondexpEstimate:
    """Project target onto the basis evaluated at the conditioning state.

    Multi-column targets share one normal-equation factorization. Ridge of
    RIDGE_SCALE * trace(G)/B is always added and reported; the design
    condition number is checked before the ridge.
    """
    y, squeeze = _as_targets(target)
    n = y.shape[0]
    b_size = basis.size
    if n <= 3 * b_size:
        raise Underdetermined(f"{n} samples for basis size {b_size} (need > {3 * b_size})")

    state = np.asarray(state_at_t, dtype=float)
    # Centre and scale the varying primary coordinates before forming
    # monomials: raw powers of a coordinate that barely varies about a
    # nonzero mean are nearly collinear, and the polynomial span is the same.
    prim = state[:, list(basis.primary_idx)]
    shift, spread = prim.mean(axis=0), prim.std(axis=0)
    varies = _varies(shift, spread)
    shift = np.where(varies, shift, 0.0)
    scale = np.where(varies, spread, 1.0)
    phi = np.empty((n, b_size))

    def fill(a, b):
        phi[a:b] = basis.design(state[a:b], None if wiener_at_t is None else wiener_at_t[a:b],
                                shift, scale)

    map_chunks(fill, n)

    # Standardize, folding numerically constant columns into the intercept:
    # a coordinate that does not vary across the ensemble carries no
    # conditioning information, and deep in a backward window the unstable
    # features degenerate exactly this way.  The conditioning check then
    # measures true collinearity, not scale disparity.
    mean = phi.mean(axis=0)
    sd = phi.std(axis=0)
    keep = np.flatnonzero(_varies(mean, sd))
    nk = keep.size
    z = np.empty((n, nk + 1))
    z[:, 0] = 1.0
    z[:, 1:] = (phi[:, keep] - mean[keep]) / sd[keep]

    gram = np.zeros((nk + 1, nk + 1))
    rhs = np.zeros((nk + 1, y.shape[1]))
    for a, b in sample_chunks(n):  # fixed chunk order keeps the reduction deterministic
        gram += z[a:b].T @ z[a:b]
        rhs += z[a:b].T @ y[a:b]

    # Gram eigenvalues give cond reliably up to ~1/sqrt(eps); past that
    # fall back to an SVD of the standardized design itself.
    def _cond(g, design):
        ev = np.linalg.eigvalsh(g)
        c = np.inf if ev[0] <= 0.0 else float(np.sqrt(ev[-1] / ev[0]))
        if c > 1e7:
            svals = np.linalg.svd(design, compute_uv=False)
            c = np.inf if svals[-1] <= 0.0 else float(svals[0] / svals[-1])
        return ev, c

    eigs, cond = _cond(gram, z)
    n_aliased = 0
    if cond > COND_LIMIT and nk > 1:
        # A state ensemble pinned to a lower-dimensional set (anchored
        # samples sitting exactly on a graph, say) collapses distinct basis
        # features onto one another.  Duplicate columns, and linear
        # coordinates that are functions of the primary features, carry no
        # extra conditioning information: keep the first of each aliased
        # group, zero the rest, and refuse only designs that stay ambiguous
        # after the fold.  Early in a backward window the state is driven by
        # fewer noise channels than it has coordinates, so the stable
        # coordinates sit on such a graph over the unstable ones.
        norms = np.sqrt(np.clip(np.diag(gram)[1:], 1e-300, None))
        corr = gram[1:, 1:] / np.outer(norms, norms)
        on_graph = _on_primary_graph(z, keep, basis)
        kept: list = []
        for k in range(nk):
            if not on_graph[k] and not any(abs(corr[k, j]) >= ALIAS_CORR for j in kept):
                kept.append(k)
        if len(kept) < nk:
            n_aliased = nk - len(kept)
            sel = np.concatenate(([0], 1 + np.asarray(kept)))
            gram = gram[np.ix_(sel, sel)]
            rhs = rhs[sel]
            z = z[:, sel]
            keep = keep[kept]
            nk = len(kept)
            eigs, cond = _cond(gram, z)
    if cond > COND_LIMIT:
        raise IllConditionedDesign(f"design condition number {cond:.3e} > {COND_LIMIT:.1e}")

    ridge = RIDGE_SCALE * float(np.trace(gram)) / (nk + 1)
    gram_r = gram + ridge * np.eye(nk + 1)
    bcoef = np.linalg.solve(gram_r, rhs)
    gram_inv_std = np.linalg.inv(gram_r)
    normal_resid = float(np.linalg.norm(gram_r @ bcoef - rhs) / max(1.0, np.linalg.norm(rhs)))

    # map back to the raw basis: T takes standardized coefficients to
    # centred-basis ones, raw_map those to raw ones
    t_map = np.zeros((b_size, nk + 1))
    t_map[0, 0] = 1.0
    t_map[0, 1:] = -mean[keep] / sd[keep]
    t_map[keep, 1:] += np.diag(1.0 / sd[keep])
    t_map = basis.raw_map(shift, scale) @ t_map
    coef = t_map @ bcoef
    gram_inv = t_map @ gram_inv_std @ t_map.T

    fitted = z @ bcoef
    resid = y - fitted
    rss = np.einsum("nk,nk->k", resid, resid)
    tss = np.einsum("nk,nk->k", y - y.mean(axis=0), y - y.mean(axis=0))
    r2 = np.where(tss > 0, 1.0 - rss / np.where(tss > 0, tss, 1.0), 1.0)
    dof = max(n - (nk + 1), 1)
    est = CondexpEstimate(
        fitted=fitted[:, 0] if squeeze else fitted,
        coef=coef[:, 0] if squeeze else coef,
        basis=basis, gram_inv=gram_inv, resid_var=rss / dof,
        diagnostics={"n_samples": n, "basis_size": b_size, "cond": cond,
                     "ridge": ridge, "r2": r2.tolist(),
                     "rank": int(np.sum(eigs > eigs[-1] * 1e-28)),
                     "n_folded": int(b_size - 1 - nk - n_aliased),
                     "n_aliased": n_aliased,
                     "normal_resid": normal_resid})
    return est


def condexp_anchor(x, state_at_t, basis: RegressionBasis,
                   wiener_at_t: Optional[np.ndarray] = None) -> CondexpEstimate:
    """E[x|F_t] for an anchor value x: deterministic anchors pass through
    unchanged, random anchors go through the regression."""
    arr = np.asarray(x, dtype=float)
    n = np.asarray(state_at_t).shape[0]
    deterministic = arr.ndim == 1 or bool(np.all(arr == arr[0]))
    if deterministic:
        row = arr if arr.ndim == 1 else arr[0]
        fitted = np.broadcast_to(row, (n,) + row.shape).copy()
        return CondexpEstimate(fitted=fitted, coef=np.zeros((0,) + row.shape),
                               basis=None, gram_inv=None, resid_var=None,
                               diagnostics={"deterministic": True, "n_samples": n})
    return condexp_lsmc(arr, state_at_t, basis, wiener_at_t)


def condexp_ito_zero(increment_sums, window: tuple, adapted: bool = True,
                     mean_floor: float = 0.0) -> tuple:
    """E[int_t^T sigma dW | F_t] = 0 for adapted square-integrable integrands.

    increment_sums holds the realized integrals per sample (any trailing
    shape); the returned estimate is exact zeros, with a diagnostic check
    that the raw sample mean is within 4 standard errors of zero.
    """
    if not adapted:
        raise AdaptednessViolation("integrand flagged as not adapted on the window")
    t0, t1 = float(window[0]), float(window[1])
    if t1 < t0:
        raise ConfigError(f"window [{t0}, {t1}] is reversed")
    arr = np.asarray(increment_sums, dtype=float)
    zeros = np.zeros_like(arr)
    if t1 == t0 or arr.size == 0:
        return zeros, {"window": (t0, t1), "raw_mean": 0.0, "band": 0.0, "ok": True}
    n = arr.shape[0]
    raw_mean = float(np.max(np.abs(arr.mean(axis=0))))
    sd = float(np.max(arr.std(axis=0)))
    band = max(4.0 * sd / np.sqrt(n), mean_floor)
    return zeros, {"window": (t0, t1), "raw_mean": raw_mean, "band": band,
                   "ok": bool(raw_mean <= band), "n_samples": n}
