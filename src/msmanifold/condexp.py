"""Conditional expectations E[.|F_t]: the martingale-zero rule for Ito
integrals and least-squares Monte Carlo regression for everything else.

The regression conditions on the state at t alone: at the fixed point the
mild solution is Markov, so E[.|F_t] of a functional of the path after t
is a function of the state at t."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement, product
from typing import Optional

import numpy as np

from .errors import ConfigError, IllConditionedDesign, Underdetermined
from .problem import SpectralProblem

COND_LIMIT = 1e12
RIDGE_SCALE = 1e-10
ALIAS_CORR = 1.0 - 1e-10    # multiple correlation with earlier columns that drops a column


def _varies(mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Which columns vary beyond rounding across the ensemble."""
    return sd > 1e-12 * np.maximum(np.abs(mean), 1.0)


@dataclass(frozen=True, eq=False)
class RegressionBasis:
    """Polynomial features of the conditioning state.

    Primary coordinates enter with all monomials of total degree <= degree
    (cross terms included); linear coordinates enter at degree 1 only.
    """
    degree: int = 2
    primary_idx: tuple = ()
    linear_idx: tuple = ()

    def __post_init__(self):
        if self.degree < 0:
            raise ConfigError("degree must be >= 0")
        object.__setattr__(self, "primary_idx", tuple(int(i) for i in self.primary_idx))
        object.__setattr__(self, "linear_idx", tuple(int(i) for i in self.linear_idx))

    def _exponent_rows(self) -> list:
        rows = [()]
        for d in range(1, self.degree + 1):
            rows.extend(combinations_with_replacement(range(len(self.primary_idx)), d))
        return rows

    @cached_property
    def _n_poly(self) -> int:
        """The number of monomial rows, the intercept included."""
        return len(self._exponent_rows())

    @cached_property
    def _primary_rows(self):
        """The primary coordinates as an index of a state's coordinate axis:
        a slice, so their rows are a view, when they are consecutive and
        increasing; else the index list."""
        idx = self.primary_idx
        if idx and idx[0] >= 0 and idx == tuple(range(idx[0], idx[0] + len(idx))):
            return slice(idx[0], idx[0] + len(idx))
        return list(idx)

    @property
    def size(self) -> int:
        return self._n_poly + len(self.linear_idx)

    @cached_property
    def _row_plan(self) -> tuple:
        """How _write_design forms the monomial rows of degree >= 2, in row
        order, from earlier rows: (row, prefix, last), the row of its
        exponent tuple's prefix times the row of its last coordinate."""
        rows = self._exponent_rows()
        index = {row: r for r, row in enumerate(rows)}
        return tuple((r, index[row[:-1]], index[row[-1:]])
                     for r, row in enumerate(rows) if len(row) >= 2)

    def _write_design(self, coords: np.ndarray, out: np.ndarray, shift=None,
                      scale=None) -> None:
        """Write the size feature rows of a feature-major state coords
        (..., n_coords, n_samples) into out (..., size, n_samples), each in
        place: the intercept, the monomials of the primary coordinates, as
        (x - shift) / scale when shift and scale (..., n_primary) are given,
        then the linear coordinates. Every product is formed in the order of
        a left-to-right product over the exponent tuple."""
        out[..., 0, :] = 1.0
        if self.degree >= 1:
            for i, c in enumerate(self.primary_idx):
                row = out[..., 1 + i, :]
                if shift is None:
                    row[...] = coords[..., c, :]
                else:
                    np.subtract(coords[..., c, :], np.asarray(shift)[..., i, None], out=row)
                    row /= np.asarray(scale)[..., i, None]
        for r, prefix, last in self._row_plan:
            np.multiply(out[..., prefix, :], out[..., last, :], out=out[..., r, :])
        n_poly = self._n_poly
        for t, c in enumerate(self.linear_idx):
            out[..., n_poly + t, :] = coords[..., c, :]

    def design(self, state: np.ndarray, shift=None, scale=None) -> np.ndarray:
        """The size feature columns of a state (..., n_samples, n_coords),
        (..., n_samples, size), a view of feature-major storage; see
        ``_write_design`` for the rows and shift and scale."""
        state = np.asarray(state, dtype=float)
        if state.ndim < 2:
            raise ConfigError("conditioning state must be (..., n_samples, n_coords)")
        out = np.empty(state.shape[:-2] + (self.size, state.shape[-2]))
        self._write_design(np.swapaxes(state, -1, -2), out, shift, scale)
        return np.swapaxes(out, -1, -2)

    @cached_property
    def _shift_terms(self) -> tuple:
        """Constant parts of raw_map: binomials, and per term the (row, col)
        of T with the per-coordinate degrees gamma <= beta whose 1-D factors
        multiply into it."""
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
        return (np.array(rows), np.array(cols), np.array(gammas, dtype=int).reshape(shape),
                np.array(betas, dtype=int).reshape(shape), binom)

    def raw_map(self, shift, scale) -> np.ndarray:
        """T with design(s, shift=shift, scale=scale) == design(s) @ T: maps
        coefficients on the shifted basis to the raw basis. Shift and scale
        (..., n_primary) give T (..., size, size)."""
        rows, cols, gammas, betas, binom = self._shift_terms
        shift = np.asarray(shift, dtype=float)[..., None, None]
        scale = np.asarray(scale, dtype=float)[..., None, None]
        powers = np.arange(self.degree + 1)
        # c[..., i, j, l]: coefficient of x^j in ((x - shift_i) / scale_i)^l
        c = binom * (-shift) ** np.maximum(powers[None, :] - powers[:, None], 0) / scale ** powers
        n_poly = self._n_poly
        t = np.zeros(shift.shape[:-3] + (self.size, self.size))
        t[..., np.arange(n_poly, self.size), np.arange(n_poly, self.size)] = 1.0
        t[..., rows, cols] = np.prod(c[..., np.arange(gammas.shape[1]), gammas, betas], axis=-1)
        return t


def default_basis(p: SpectralProblem, degree: int = 2) -> RegressionBasis:
    return RegressionBasis(degree=degree,
                           primary_idx=tuple(p.unstable_modes),
                           linear_idx=tuple(p.stable_modes))


@dataclass(frozen=True)
class _RawPieces:
    """What a regression keeps to derive its raw-basis coef and gram_inv:
    the standardized coefficients bcoef (L, B, k), the ridged standardized
    Gram gram_r (L, B, B), the column means and inverse spreads (L, B; the
    spreads are zero for the intercept and for dropped and aliased
    columns), the primary shift and scale (L, n_primary), and whether the
    returned coef drops its column axis (squeeze) and keeps its node axis
    (stacked)."""
    bcoef: np.ndarray
    gram_r: np.ndarray
    mean: np.ndarray
    inv_sd: np.ndarray
    shift: np.ndarray
    scale: np.ndarray
    squeeze: bool
    stacked: bool


@dataclass(frozen=True, eq=False)
class CondexpEstimate:
    """A fit; with a leading node axis every array gains it, and each
    regression diagnostic holds one value (r2: one row) per node.

    A regression's coef (basis_size, k) and gram_inv (B, B), post-ridge,
    are on the raw basis. A map reads only the fit and its diagnostics, so
    both are derived on first read from the pieces the fit holds (_raw),
    with the same bits whenever they are read. An estimate without a
    regression (_raw None) has an empty coef and no gram_inv."""
    fitted: np.ndarray              # (n_samples, k)
    basis: Optional[RegressionBasis]
    resid_var: Optional[np.ndarray]  # (k,)
    diagnostics: dict = field(default_factory=dict)
    _raw: Optional[_RawPieces] = field(default=None, repr=False)

    @cached_property
    def _t_map(self) -> np.ndarray:
        """T (L, B, B) taking standardized coefficients to raw-basis ones:
        to centred-basis ones (zero rows and columns for dropped and aliased
        columns), then raw_map."""
        raw = self._raw
        t_map = raw.inv_sd[:, None, :] * np.eye(self.basis.size)
        t_map[:, 0, :] = -raw.mean * raw.inv_sd
        t_map[:, 0, 0] = 1.0
        return self.basis.raw_map(raw.shift, raw.scale) @ t_map

    @cached_property
    def coef(self) -> np.ndarray:
        if self._raw is None:
            return np.zeros((0,) + self.fitted.shape[1:])
        coef = self._t_map @ self._raw.bcoef
        if self._raw.squeeze:
            coef = coef[..., 0]
        return coef if self._raw.stacked else coef[0]

    @cached_property
    def gram_inv(self) -> Optional[np.ndarray]:
        if self._raw is None:
            return None
        t_map = self._t_map
        gram_inv = t_map @ np.linalg.inv(self._raw.gram_r) @ np.swapaxes(t_map, -1, -2)
        return gram_inv if self._raw.stacked else gram_inv[0]

    def coef_se(self) -> np.ndarray:
        """Standard errors of the coefficients, shaped like coef."""
        if self.gram_inv is None:
            return np.zeros_like(self.coef)
        d = np.sqrt(np.clip(np.diagonal(self.gram_inv, axis1=-2, axis2=-1), 0.0, None))
        se = d[..., :, None] * np.sqrt(self.resid_var)[..., None, :]
        return se.reshape(self.coef.shape)


def _cond(gram: np.ndarray, z: np.ndarray) -> tuple:
    """Eigenvalues of a Gram stack and the condition numbers of its designs.
    Gram eigenvalues give cond reliably up to ~1/sqrt(eps); past that the
    singular values of the design itself are used, taken from the R factor
    of its QR (the same values, at a fraction of the cost of an SVD of the
    long design). Returns (eigs, cond, slow, r): the nodes past that switch
    and their R factors (len(slow), B, B), None when there are none."""
    def ratio(hi, lo):
        out = np.full(lo.shape, np.inf)
        np.divide(hi, lo, out=out, where=lo > 0.0)
        return out

    eigs = np.linalg.eigvalsh(gram)
    cond = np.sqrt(ratio(eigs[:, -1], eigs[:, 0]))
    slow = np.flatnonzero(cond > 1e7)
    r = None
    if slow.size:
        r = np.linalg.qr(np.swapaxes(z[slow], -1, -2), mode="r")
        svals = np.linalg.svd(r, compute_uv=False)
        cond[slow] = ratio(svals[:, 0], svals[:, -1])
    return eigs, cond, slow, r


def _drop(z: np.ndarray, dropped: np.ndarray) -> None:
    """Replace the design rows of the dropped (node, column) pairs by
    orthogonal pads of norm sqrt(n): a dropped column then adds an
    eigenvalue n, inside the spread of the kept ones (their standardized
    diagonals are n), so cond, the ridge and the zero weight of the column
    come out as if it were removed."""
    n = z.shape[-1] - z.shape[-2]
    nodes, cols = np.nonzero(dropped)
    z[nodes, cols, :n] = 0.0
    z[nodes, cols, n + cols] = math.sqrt(n)


def _sum_squares(x: np.ndarray) -> np.ndarray:
    return np.einsum("...n,...n->...", x, x)


def _as_targets(target, stacked: bool) -> tuple:
    y = np.asarray(target, dtype=float)
    squeeze = y.ndim == 1 + stacked
    if squeeze:
        y = y[..., None]
    if y.ndim != 2 + stacked:
        raise ConfigError("target must be (..., n_samples) or (..., n_samples, k)")
    return y, squeeze


def condexp_lsmc(target, state_at_t, basis: RegressionBasis) -> CondexpEstimate:
    """Project target onto the basis evaluated at the conditioning state.

    A state (n_samples, n_coords) is one regression. A state (L, n_samples,
    n_coords), with target (L, n_samples[, k]), is L regressions solved as
    one stacked problem: the single regression is the case L = 1.
    Multi-column targets share one normal-equation factorization. Ridge of
    RIDGE_SCALE * trace(G)/B is always added and reported; the design
    condition number is checked before the ridge. A column that does not
    vary across the samples at a node spans only the intercept there: it
    is folded into it (n_folded counts them), and the fit is unchanged. A
    solve's maps leave out the modes that are so at every node before they
    call (lyapunov_perron.FrozenFeatures). A node past COND_LIMIT
    drops each column whose unexplained fraction off the columns before it
    is at most 1 - ALIAS_CORR^2 (n_aliased counts them), and the fit is
    unchanged. A design still past COND_LIMIT then raises
    IllConditionedDesign: its near-dependency is spread over several
    columns, each of which keeps more than that fraction of itself off the
    ones before it. A refused stack names the first refused node.

    A call computes the fit, its residual variance and the diagnostics;
    coef and gram_inv are derived from the fit on first read (see
    CondexpEstimate).
    """
    state = np.asarray(state_at_t, dtype=float)
    if state.ndim not in (2, 3):
        raise ConfigError("conditioning state must be (n_samples, n_coords) "
                          "or (n_nodes, n_samples, n_coords)")
    stacked = state.ndim == 3
    y, squeeze = _as_targets(target, stacked)
    if not stacked:
        state, y = state[None], y[None]
    n_nodes, n = y.shape[:2]
    b_size = basis.size
    if n <= 3 * b_size:
        raise Underdetermined(f"{n} samples for basis size {b_size} (need > {3 * b_size})")

    # Centre and scale the varying primary coordinates before forming
    # monomials: raw powers of a coordinate that barely varies about a
    # nonzero mean are nearly collinear, and the polynomial span is the same.
    # The state and the designs are feature-major, (L, m, n) and (L, B, n),
    # so every reduction runs along the contiguous sample axis, and the
    # moments of all primary rows are one reduction each.
    coords = np.ascontiguousarray(np.swapaxes(state, -1, -2))
    prim = coords[:, basis._primary_rows]
    shift = prim.mean(axis=-1, keepdims=True)
    spread = prim.std(axis=-1, mean=shift)
    shift = shift[..., 0]
    varies = _varies(shift, spread)
    shift = np.where(varies, shift, 0.0)
    scale = np.where(varies, spread, 1.0)
    del prim            # a copy unless the primary rows are one run
    z = np.empty((n_nodes, b_size, n + b_size))
    z[..., n:] = 0.0
    phi = z[..., :n]
    mean, sd = np.empty((2, n_nodes, b_size))
    mean[:, 0], sd[:, 0] = 1.0, 0.0     # the intercept row, all ones
    basis._write_design(coords, phi, shift, scale)

    # Standardize, folding numerically constant columns into the intercept
    # (row 0): a coordinate that does not vary across the ensemble carries
    # no conditioning information, and deep in a backward window the
    # unstable features degenerate exactly this way.  The conditioning check
    # then measures true collinearity, not scale disparity.  Dropped columns
    # stay in the stack as pads (see _drop), so nodes with different masks
    # share one solve.  The intercept is never centred or scaled.
    rows = phi[:, 1:]
    mean[:, 1:] = rows.mean(axis=-1)
    rows -= mean[:, 1:, None]
    sd[:, 1:] = np.sqrt(_sum_squares(rows) / n)
    keep = _varies(mean, sd)
    keep[:, 0] = False
    inv_sd = np.divide(1.0, sd, out=np.zeros_like(sd), where=keep)
    rows *= inv_sd[:, 1:, None]
    dropped = ~keep
    dropped[:, 0] = False
    _drop(z, dropped)
    n_kept = keep.sum(axis=1)

    gram = z @ np.swapaxes(z, -1, -2)
    eigs, cond, slow, r = _cond(gram, z)
    n_aliased = np.zeros(n_nodes, dtype=int)
    fold = np.flatnonzero((cond > COND_LIMIT) & (n_kept > 1))
    if fold.size:
        # A state ensemble pinned to a lower-dimensional set (anchored
        # samples sitting exactly on a graph, say) makes basis columns
        # linear combinations of others: duplicates, linear coordinates that
        # are functions of the primary features, or, on the stable side, a
        # primary coordinate that the previous map fitted on the linear
        # ones.  One rule folds them all: drop each kept column whose
        # unexplained fraction off the columns before it, R[j, j]^2 / n, is
        # at most 1 - ALIAS_CORR^2.  Standardized columns have norm sqrt(n)
        # and the pads are orthogonal to them; a dropped column lies in the
        # span of the kept ones, so the projection is unchanged.  Every
        # folded node is past _cond's QR switch, so its R factor is at hand.
        unexplained = np.diagonal(r[np.searchsorted(slow, fold)], axis1=1, axis2=2) ** 2 / n
        chosen = keep[fold] & (unexplained > 1.0 - ALIAS_CORR ** 2)
        n_aliased[fold] = n_kept[fold] - chosen.sum(axis=1)
        lost = n_aliased[fold] > 0
        changed = fold[lost]
        if changed.size:
            dropped = np.zeros_like(keep)
            dropped[changed] = keep[changed] & ~chosen[lost]
            _drop(z, dropped)
            keep[changed] = chosen[lost]
            gram[changed] = z[changed] @ np.swapaxes(z[changed], -1, -2)
            eigs[changed], cond[changed] = _cond(gram[changed], z[changed])[:2]
    refused = np.flatnonzero(cond > COND_LIMIT)
    if refused.size:
        j = int(refused[0])
        where = f"node {j} of {n_nodes}: " if stacked else ""
        raise IllConditionedDesign(
            f"{where}design condition number {cond[j]:.3e} > {COND_LIMIT:.1e}",
            node=j if stacked else None, cond=float(cond[j]), limit=COND_LIMIT)

    n_kept = keep.sum(axis=1)
    rhs = phi @ y
    ridge = RIDGE_SCALE * np.trace(gram, axis1=1, axis2=2) / b_size
    gram_r = gram + ridge[:, None, None] * np.eye(b_size)
    bcoef = np.linalg.solve(gram_r, rhs)
    normal_resid = (np.linalg.norm(gram_r @ bcoef - rhs, axis=(1, 2))
                    / np.maximum(1.0, np.linalg.norm(rhs, axis=(1, 2))))
    inv_sd[~keep] = 0.0     # aliased columns

    fitted = np.swapaxes(bcoef, -1, -2) @ phi             # (L, k, n)
    # (L, k, n), like fitted; for k = 1 the caller's own array, never
    # centred in place
    y = np.ascontiguousarray(np.swapaxes(y, -1, -2))
    rss = _sum_squares(y - fitted)
    tss = _sum_squares(y - y.mean(axis=-1, keepdims=True))
    r2 = np.where(tss > 0, 1.0 - rss / np.where(tss > 0, tss, 1.0), 1.0)
    dof = np.maximum(n - (n_kept + 1), 1)
    diagnostics = {"cond": cond, "ridge": ridge, "r2": r2,
                   # pads add eigenvalues n, all above the rank cut
                   "rank": (np.sum(eigs > eigs[:, -1:] * (b_size * np.finfo(float).eps), axis=1)
                            - (b_size - 1 - n_kept)),
                   "n_folded": b_size - 1 - n_kept - n_aliased,
                   "n_aliased": n_aliased,
                   "normal_resid": normal_resid}
    fitted = np.swapaxes(fitted, -1, -2)
    if squeeze:
        fitted = fitted[..., 0]
    resid_var = rss / dof[:, None]
    if not stacked:
        fitted, resid_var = fitted[0], resid_var[0]
        diagnostics = {key: val[0].tolist() for key, val in diagnostics.items()}
    return CondexpEstimate(
        fitted=fitted, basis=basis, resid_var=resid_var,
        diagnostics={"n_samples": n, "basis_size": b_size, **diagnostics},
        _raw=_RawPieces(bcoef, gram_r, mean, inv_sd, shift, scale, squeeze, stacked))


def condexp_anchor(x, state_at_t, basis: RegressionBasis) -> CondexpEstimate:
    """E[x|F_t] for an anchor value x: deterministic anchors pass through
    unchanged, random anchors go through the regression on the state at t.
    A 1-D x is one deterministic row, the same on every sample; per-sample
    anchors are (n, k), so a 1-D x as long as the state's n samples is
    refused with ConfigError rather than read as one row of length n."""
    arr = np.asarray(x, dtype=float)
    n = np.asarray(state_at_t).shape[0]
    if arr.ndim == 1 and len(arr) == n:
        raise ConfigError(f"a 1-D anchor of length {n} reads as one entry per sample: "
                          f"per-sample anchors are (n, k), so pass it as ({n}, 1)")
    deterministic = arr.ndim == 1 or bool(np.all(arr == arr[0]))
    if deterministic:
        row = arr if arr.ndim == 1 else arr[0]
        fitted = np.broadcast_to(row, (n,) + row.shape).copy()
        return CondexpEstimate(fitted=fitted, basis=None, resid_var=None,
                               diagnostics={"deterministic": True, "n_samples": n})
    return condexp_lsmc(arr, state_at_t, basis)


def condexp_ito_zero(increment_sums, window: tuple) -> tuple:
    """E[int_t^T sigma dW | F_t] = 0 for adapted square-integrable integrands.

    increment_sums holds the realized integrals per sample (any trailing
    shape); the returned estimate is exact zeros, with a diagnostic check
    that the raw sample mean is within 4 standard errors of zero.
    """
    t0, t1 = float(window[0]), float(window[1])
    if t1 < t0:
        raise ConfigError(f"window [{t0}, {t1}] is reversed")
    arr = np.asarray(increment_sums, dtype=float)
    zeros = np.zeros_like(arr)
    n = arr.shape[0]
    if t1 == t0 or arr.size == 0:
        return zeros, {"window": (t0, t1), "raw_mean": 0.0, "band": 0.0, "ok": True,
                       "n_samples": n}
    raw_mean = float(np.max(np.abs(arr.mean(axis=0))))
    sd = float(np.max(arr.std(axis=0)))
    band = 4.0 * sd / np.sqrt(n)
    return zeros, {"window": (t0, t1), "raw_mean": raw_mean, "band": band,
                   "ok": bool(raw_mean <= band), "n_samples": n}
