import math

import numpy as np
import pytest

from msmanifold.errors import (
    ConfigError,
    IllConditionedDesign,
    Underdetermined,
)
from msmanifold import (
    RegressionBasis,
    TimeGrid,
    build_problem,
    condexp_anchor,
    condexp_ito_zero,
    condexp_lsmc,
    default_basis,
    diagonal_linear_noise,
    sample_wiener,
    zero_noise,
    zero_nonlinearity,
)


def two_mode():
    return build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.0,
                         zeta=-0.5, nonlinearity=zero_nonlinearity(2),
                         noise=zero_noise(2))


def scalar_basis(degree=2):
    return RegressionBasis(degree=degree, primary_idx=(0,))


def wiener_pair(seed, t, tau, n):
    """(W(t), W(tau)) sampled jointly on a dt=0.01 lattice."""
    steps = round(tau / 0.01)
    g = TimeGrid(0.0, 0.01, steps)
    w = sample_wiener(seed, g, diagonal_linear_noise([1.0]), n)
    return w.value_at(g.index_of(t))[:, 0], w.value_at(steps)[:, 0]


# ------------------------------------------------------------------- basics

def test_default_basis_shape_for_two_mode_problem():
    p = two_mode()
    b = default_basis(p)
    # 1, u, u^2 over the unstable coordinate plus the stable coordinate
    assert b.size == 4
    state = np.array([[2.0, 3.0]])
    row = b.design(state)[0]
    assert np.allclose(row, [1.0, 2.0, 4.0, 3.0], atol=1e-15)


def test_basis_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        RegressionBasis(degree=-1)


def test_in_span_target_recovered_exactly():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((500, 1))
    target = 0.3 - 1.2 * u[:, 0] + 0.5 * u[:, 0] ** 2
    est = condexp_lsmc(target, u, scalar_basis())
    # exactness is limited by the ridge floor, not the solver
    assert np.max(np.abs(est.fitted - target)) < 1e-7
    assert est.diagnostics["r2"][0] > 1.0 - 1e-12


def test_lsmc_gaussian_conditional_mean():
    wt, wtau = wiener_pair(101, 0.5, 1.0, 100_000)
    est = condexp_lsmc(wtau, wt[:, None], scalar_basis(degree=1))
    # E[W(tau)|F_t] = W(t): slope 1, intercept 0 within 4 standard errors
    se = est.coef_se()
    assert abs(est.coef[1] - 1.0) <= 4 * se[1]
    assert abs(est.coef[0]) <= 4 * se[0]


def test_lsmc_gaussian_conditional_second_moment():
    t, tau = 0.5, 1.0
    wt, wtau = wiener_pair(103, t, tau, 100_000)
    est = condexp_lsmc(wtau ** 2, wt[:, None], scalar_basis(degree=2))
    se = est.coef_se()
    # E[W(tau)^2|F_t] = W(t)^2 + (tau - t)
    assert abs(est.coef[0] - (tau - t)) <= 4 * se[0]
    assert abs(est.coef[1]) <= 4 * se[1]
    assert abs(est.coef[2] - 1.0) <= 4 * se[2]


def test_lsmc_projection_is_idempotent():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((2000, 1))
    target = np.tanh(u[:, 0]) + 0.1 * rng.standard_normal(2000)
    first = condexp_lsmc(target, u, scalar_basis())
    second = condexp_lsmc(first.fitted, u, scalar_basis())
    assert np.max(np.abs(second.fitted - first.fitted)) < 1e-8


def test_lsmc_tower_property():
    n = 100_000
    steps = 100
    g = TimeGrid(0.0, 0.01, steps)
    w = sample_wiener(107, g, diagonal_linear_noise([1.0]), n)
    w25 = w.value_at(25)[:, 0]
    w50 = w.value_at(50)[:, 0]
    y = w.value_at(100)[:, 0] ** 2
    inner = condexp_lsmc(y, w50[:, None], scalar_basis())
    outer = condexp_lsmc(inner.fitted, w25[:, None], scalar_basis())
    direct = condexp_lsmc(y, w25[:, None], scalar_basis())
    gap = math.sqrt(np.mean((outer.fitted - direct.fitted) ** 2))
    scale = math.sqrt(np.mean(direct.fitted ** 2))
    assert gap <= 0.05 * scale


def test_lsmc_fitted_values_are_functions_of_state():
    rng = np.random.default_rng(6)
    u = rng.standard_normal((1000, 1))
    u[1] = u[0]   # duplicated conditioning state, distinct targets
    target = rng.standard_normal(1000)
    est = condexp_lsmc(target, u, scalar_basis())
    assert est.fitted[0] == est.fitted[1]


def test_lsmc_multi_column_targets_share_design():
    rng = np.random.default_rng(8)
    u = rng.standard_normal((800, 1))
    t1 = 1.0 + u[:, 0]
    t2 = u[:, 0] ** 2
    est = condexp_lsmc(np.stack([t1, t2], axis=1), u, scalar_basis())
    assert est.fitted.shape == (800, 2)
    assert np.max(np.abs(est.fitted[:, 0] - t1)) < 1e-8
    assert np.max(np.abs(est.fitted[:, 1] - t2)) < 1e-8


def test_lsmc_constant_columns_fold_into_intercept():
    # Degenerate coordinates (deep backward windows) must not masquerade as
    # ill-conditioning; they carry no information and fold away.
    rng = np.random.default_rng(10)
    n = 500
    state = np.zeros((n, 2))
    state[:, 0] = 1e-14 * rng.standard_normal(n) + 2.0   # numerically constant
    state[:, 1] = rng.standard_normal(n)
    basis = RegressionBasis(degree=2, primary_idx=(0,), linear_idx=(1,))
    target = 0.7 + 0.3 * state[:, 1]
    est = condexp_lsmc(target, state, basis)
    assert est.diagnostics["n_folded"] >= 2
    assert est.diagnostics["cond"] < 1e3
    assert np.max(np.abs(est.fitted - target)) < 1e-8


def test_lsmc_folds_duplicate_columns():
    rng = np.random.default_rng(12)
    n = 400
    u = rng.standard_normal(n)
    state = np.stack([u, u], axis=1)    # duplicated random column
    basis = RegressionBasis(degree=1, primary_idx=(0, 1))
    est = condexp_lsmc(0.7 + 0.3 * u, state, basis)
    assert est.diagnostics["n_aliased"] == 1
    assert est.diagnostics["cond"] < 1e3
    assert np.max(np.abs(est.fitted - (0.7 + 0.3 * u))) < 1e-7
    assert est.coef[2] == 0.0           # dropped column carries no weight


def test_lsmc_detects_true_collinearity():
    # x + y duplicates no single column, but it lies in the span of the
    # columns before it: the rank rule drops it, and the conditional
    # expectation given (x, y, x + y) is the one given (x, y)
    rng = np.random.default_rng(12)
    n = 400
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    target = x * y + 0.1 * rng.standard_normal(n)
    basis = RegressionBasis(degree=1, primary_idx=(0, 1, 2))
    est = condexp_lsmc(target, np.stack([x, y, x + y], axis=1), basis)
    pair = condexp_lsmc(target, np.stack([x, y], axis=1),
                        RegressionBasis(degree=1, primary_idx=(0, 1)))
    assert est.diagnostics["n_aliased"] == 1
    assert est.diagnostics["cond"] < 1e3
    assert est.coef[3] == 0.0
    assert np.max(np.abs(est.fitted - pair.fitted)) <= 1e-12 * np.max(np.abs(pair.fitted))


def test_lsmc_fits_ensembles_with_small_spread_about_a_nonzero_mean():
    # raw monomials of coordinates at 0.8 +- 1e-4 are nearly collinear;
    # centred and scaled coordinates span the same polynomials
    rng = np.random.default_rng(22)
    state = 0.8 + 1e-4 * rng.standard_normal((1024, 2))
    basis = RegressionBasis(degree=4, primary_idx=(0, 1))
    target = state[:, 0] + state[:, 1] ** 2
    est = condexp_lsmc(target, state, basis)
    assert est.diagnostics["cond"] < 1e3
    assert np.max(np.abs(est.fitted - target)) < 1e-9


def test_lsmc_folds_linear_coordinates_on_a_graph():
    # samples on a graph s = h(u) over a 2-D primary block: s carries no
    # information beyond u, though no single column duplicates it
    rng = np.random.default_rng(24)
    u = rng.standard_normal((600, 2))
    s = 0.3 * u[:, 0] - 0.2 * u[:, 1] + 0.1 * u[:, 0] * u[:, 1]
    state = np.column_stack([u, s])
    basis = RegressionBasis(degree=2, primary_idx=(0, 1), linear_idx=(2,))
    target = 1.0 + u[:, 0] - u[:, 1] ** 2
    est = condexp_lsmc(target, state, basis)
    assert est.diagnostics["n_aliased"] == 1
    assert est.coef[-1] == 0.0
    assert np.max(np.abs(est.fitted - target)) < 1e-8


def test_raw_map_takes_shifted_columns_to_raw_ones():
    basis = RegressionBasis(degree=3, primary_idx=(0, 2), linear_idx=(1,))
    state = np.random.default_rng(26).standard_normal((40, 3))
    shift, scale = np.array([0.4, -0.2]), np.array([1.7, 0.3])
    shifted = basis.design(state, shift=shift, scale=scale)
    assert np.max(np.abs(shifted - basis.design(state) @ basis.raw_map(shift, scale))) < 1e-11


def stacked_columns(basis, state, shift=None, scale=None):
    """The design as a stack of separately formed columns, each monomial a
    left-to-right product over its exponent tuple."""
    coords = np.swapaxes(state, -1, -2)
    prim = coords[..., list(basis.primary_idx), :]
    if shift is not None:
        prim -= np.asarray(shift)[..., None]
        prim /= np.asarray(scale)[..., None]
    cols = []
    for row in basis._exponent_rows():
        c = np.ones(state.shape[:-1])
        for i in row:
            c = c * prim[..., i, :]
        cols.append(c)
    cols.extend(coords[..., i, :] for i in basis.linear_idx)
    return np.stack(cols, axis=-1)


def widened(state, linear_idx, wide, rng):
    """With wide, the state gains two standard normal coordinates that
    enter the basis linearly, after its own linear ones."""
    if not wide:
        return state, linear_idx
    extra = rng.standard_normal(state.shape[:-1] + (2,))
    m = state.shape[-1]
    return np.concatenate([state, extra], axis=-1), linear_idx + (m, m + 1)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("wide", [False, True])
def test_design_rows_equal_the_stacked_columns(wide, shifted):
    rng = np.random.default_rng(27)
    state = rng.standard_normal((3, 200, 4)) * [0.5, 2.0, 1.0, 3.0] + [0.3, -1.0, 0.0, 2.0]
    state, linear_idx = widened(state, (1,), wide, rng)
    shift = rng.standard_normal((3, 3)) if shifted else None
    scale = rng.uniform(0.5, 2.0, (3, 3)) if shifted else None
    for degree in (0, 1, 2, 4):
        basis = RegressionBasis(degree=degree, primary_idx=(3, 0, 2), linear_idx=linear_idx)
        want = stacked_columns(basis, state, shift, scale)
        assert basis.design(state, shift, scale).tobytes() == want.tobytes()
        one = (None, None) if shift is None else (shift[1], scale[1])
        assert np.array_equal(basis.design(state[1], *one), want[1])


def test_lsmc_rejects_underdetermined_designs():
    u = np.random.default_rng(14).standard_normal((10, 1))
    with pytest.raises(Underdetermined):
        condexp_lsmc(u[:9, 0], u[:9], scalar_basis())   # 9 <= 3 * basis size
    with pytest.raises(Underdetermined):
        condexp_lsmc(u[:5, 0], u[:5], scalar_basis())
    condexp_lsmc(u[:, 0], u, scalar_basis())            # 10 samples is enough


def test_lsmc_diagnostics_reported():
    rng = np.random.default_rng(18)
    u = rng.standard_normal((600, 1))
    est = condexp_lsmc(u[:, 0] ** 2, u, scalar_basis())
    d = est.diagnostics
    for key in ("n_samples", "basis_size", "cond", "ridge", "r2", "normal_resid"):
        assert key in d
    assert d["n_samples"] == 600
    assert d["basis_size"] == 3
    assert d["normal_resid"] < 1e-8
    assert est.coef_se().shape == est.coef.shape


# ------------------------------------------------------------------- anchor

def test_condexp_anchor_deterministic_short_circuit():
    state = np.random.default_rng(20).standard_normal((100, 1))
    x = np.full((100, 1), 0.25)
    est = condexp_anchor(x, state, scalar_basis())
    assert np.array_equal(est.fitted, x)
    assert est.diagnostics["deterministic"]


def test_condexp_anchor_refuses_a_1d_anchor_with_one_entry_per_sample():
    # read as one row, (n,) would come back as an (n, n) broadcast
    rng = np.random.default_rng(21)
    state = rng.standard_normal((40, 1))
    x = 0.25 + 0.1 * state[:, 0] + 0.01 * rng.standard_normal(40)
    with pytest.raises(ConfigError, match=r"per-sample anchors are \(n, k\)"):
        condexp_anchor(x, state, scalar_basis())
    est = condexp_anchor(x[:, None], state, scalar_basis())
    assert est.fitted.shape == (40, 1)
    assert not est.diagnostics.get("deterministic", False)
    # a row of another length is one deterministic anchor
    est = condexp_anchor(np.array([0.25, -0.5]), state, scalar_basis())
    assert est.diagnostics["deterministic"]
    assert np.array_equal(est.fitted, np.tile([0.25, -0.5], (40, 1)))


def test_condexp_anchor_gaussian_oracle():
    t, tau, n = 0.5, 1.0, 50_000
    wt, wtau = wiener_pair(109, t, tau, n)
    est = condexp_anchor(wtau[:, None], wt[:, None], scalar_basis(degree=1))
    # E[W(tau)|F_t] = W(t); the fit deviates by the intercept/slope sampling
    # error, which scales with the regression noise sqrt(tau - t)
    resid = est.fitted[:, 0] - wt
    assert abs(resid.mean()) <= 4 * math.sqrt(tau - t) / math.sqrt(n)
    assert not est.diagnostics.get("deterministic", False)


def test_condexp_anchor_symmetric_sign_functional():
    # E[sign(W(tau)) | F_0] = 0: the conditioning state is constant, so the
    # design folds to the intercept and the fit is the raw mean.
    _, wtau = wiener_pair(111, 0.5, 1.0, 50_000)
    x = np.sign(wtau)[:, None]
    state = np.zeros((wtau.size, 1))
    est = condexp_anchor(x, state, scalar_basis())
    assert np.max(np.abs(est.fitted)) <= 4.0 / math.sqrt(wtau.size)


# ---------------------------------------------------------------- ito zeros

def test_ito_zero_plain_increment():
    n = 100_000
    g = TimeGrid(0.0, 0.01, 100)
    w = sample_wiener(113, g, diagonal_linear_noise([1.0]), n)
    sums = w.value_at(100)[:, 0]   # int_0^1 dW
    zeros, diag = condexp_ito_zero(sums, (0.0, 1.0))
    assert np.all(zeros == 0.0)
    assert diag["ok"]
    assert diag["raw_mean"] <= 4.0 / math.sqrt(n) * 1.05


def test_ito_zero_martingale_integrand():
    # int_0^1 W dW = (W(1)^2 - 1)/2 has mean zero
    n = 100_000
    g = TimeGrid(0.0, 0.01, 100)
    w = sample_wiener(115, g, diagonal_linear_noise([1.0]), n)
    vals = w.values()[:, :, 0]
    sums = np.sum(vals[:, :-1] * np.diff(vals, axis=1), axis=1)
    zeros, diag = condexp_ito_zero(sums, (0.0, 1.0))
    assert np.all(zeros == 0.0)
    assert diag["ok"]


def test_ito_zero_degenerate_window():
    zeros, diag = condexp_ito_zero(np.ones(10), (0.5, 0.5))
    assert np.all(zeros == 0.0)
    assert diag["ok"] and diag["raw_mean"] == 0.0
    assert diag["n_samples"] == 10
    # no integrand: an empty sum per sample
    _, diag = condexp_ito_zero(np.ones((10, 0)), (0.0, 1.0))
    assert diag["ok"] and diag["n_samples"] == 10


def test_ito_zero_guards():
    with pytest.raises(ConfigError):
        condexp_ito_zero(np.ones(10), (1.0, 0.0))


# ------------------------------------------------------------ stacked nodes

def mixed_stack(n=400, seed=30, k=2, wide=False):
    """Five nodes of (u0, u1, s) ensembles whose designs take every path of
    the solve: a plain node, a numerically constant coordinate (fold), a
    linear coordinate on a graph over the primary ones (alias), a design
    conditioned between the eigenvalue and the SVD routes' switch and the
    refusal limit, and a duplicated primary coordinate (alias); with wide,
    two more linear coordinates (widened)."""
    rng = np.random.default_rng(seed)
    state = rng.standard_normal((5, n, 3))
    state[1, :, 0] = 2.0 + 1e-14 * rng.standard_normal(n)
    u = state[2, :, :2]
    state[2, :, 2] = 0.3 * u[:, 0] - 0.2 * u[:, 1] + 0.1 * u[:, 0] * u[:, 1]
    state[3, :, 2] = state[3, :, 0] + 1e-8 * rng.standard_normal(n)
    state[4, :, 1] = state[4, :, 0]
    x0, x1 = state[..., 0], state[..., 1]
    target = np.stack([1.0 + x0 - x1 ** 2, np.sin(x0) * x1], axis=-1)[..., :k]
    target = target + 0.1 * rng.standard_normal(target.shape)
    state, linear_idx = widened(state, (2,), wide, rng)
    return target, state, RegressionBasis(degree=2, primary_idx=(0, 1), linear_idx=linear_idx)


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("k", [1, 2])
def test_stacked_nodes_equal_one_node_calls(wide, k):
    target, state, basis = mixed_stack(k=k, wide=wide)
    stacked = condexp_lsmc(target, state, basis)
    d = stacked.diagnostics
    assert d["n_folded"].tolist() == [0, 2, 0, 0, 0]     # u0 and u0^2
    assert d["n_aliased"].tolist() == [0, 1, 1, 0, 3]    # u0*u1 ~ u1; s; u1, u0*u1, u1^2
    assert 1e7 < d["cond"][3] <= 1e12
    for j in range(5):
        one = condexp_lsmc(target[j], state[j], basis)
        scale = np.max(np.abs(one.fitted))
        assert np.max(np.abs(stacked.fitted[j] - one.fitted)) <= 1e-12 * scale
        assert stacked.diagnostics["cond"][j] == pytest.approx(one.diagnostics["cond"], rel=1e-9)
        for key in ("n_folded", "n_aliased", "rank"):
            assert stacked.diagnostics[key][j] == one.diagnostics[key], (j, key)
        assert np.allclose(stacked.coef[j], one.coef, rtol=1e-9, atol=1e-12)
        assert np.allclose(stacked.diagnostics["r2"][j], one.diagnostics["r2"], rtol=1e-12)


@pytest.mark.parametrize("wide", [False, True])
def test_folded_nodes_reuse_the_condition_qr(monkeypatch, wide):
    # the alias check reads the R factor that _cond took: the same fold as
    # a fresh QR of the design, bit for bit downstream
    from msmanifold import condexp

    target, state, basis = mixed_stack(wide=wide)
    reused = condexp_lsmc(target, state, basis)
    real = condexp._cond
    qrs = []

    def fresh_second_qr(gram, z):
        eigs, cond, slow, r = real(gram, z)
        if slow.size:
            r = np.linalg.qr(np.swapaxes(z[slow], -1, -2), mode="r")
            qrs.append(len(slow))
        return eigs, cond, slow, r

    monkeypatch.setattr(condexp, "_cond", fresh_second_qr)
    fresh = condexp_lsmc(target, state, basis)
    assert qrs and reused.diagnostics["n_aliased"].tolist() == [0, 1, 1, 0, 3]
    for key in ("n_aliased", "n_folded", "cond", "rank"):
        assert reused.diagnostics[key].tobytes() == fresh.diagnostics[key].tobytes(), key
    assert reused.fitted.tobytes() == fresh.fitted.tobytes()


@pytest.mark.parametrize("k", [1, 2])
def test_stacked_fit_matches_naive_least_squares(k):
    rng = np.random.default_rng(32)
    state = rng.standard_normal((4, 500, 3)) * [0.5, 2.0, 1.0] + [0.3, -1.0, 0.0]
    x0, x1, s = state[..., 0], state[..., 1], state[..., 2]
    target = np.stack([np.exp(0.3 * x0) * x1 + s, x0 * s], axis=-1)[..., :k]
    target = target + 0.05 * rng.standard_normal(target.shape)
    basis = RegressionBasis(degree=2, primary_idx=(0, 1), linear_idx=(2,))
    est = condexp_lsmc(target, state, basis)
    assert est.fitted.shape == target.shape
    for j in range(4):
        design = basis.design(state[j])
        naive = design @ np.linalg.lstsq(design, target[j], rcond=None)[0]
        assert np.linalg.norm(est.fitted[j] - naive) <= 1e-9 * np.linalg.norm(naive)
        assert np.linalg.norm(design @ est.coef[j] - naive) <= 1e-9 * np.linalg.norm(naive)


def test_stacked_one_column_target_squeezes_like_a_single_call():
    target, state, basis = mixed_stack(k=1)
    est = condexp_lsmc(target[..., 0], state, basis)
    assert est.fitted.shape == target.shape[:2]
    assert est.coef.shape == (5, basis.size)
    assert est.coef_se().shape == est.coef.shape
    assert est.diagnostics["r2"].shape == (5, 1)


def test_stacked_refusal_names_the_node(monkeypatch):
    # with ALIAS_CORR at 1.0 the fold drops nothing, so the three-way
    # dependency stays past COND_LIMIT and the design is refused
    from msmanifold import condexp

    monkeypatch.setattr(condexp, "ALIAS_CORR", 1.0)
    target, state, basis = mixed_stack()
    state[2, :, 2] = state[2, :, 0] + state[2, :, 1]
    basis = RegressionBasis(degree=1, primary_idx=(0, 1, 2))   # three-way collinear at node 2
    with pytest.raises(IllConditionedDesign) as info:
        condexp_lsmc(target, state, basis)
    exc = info.value
    assert exc.node == 2
    assert exc.cond > exc.limit == 1e12
    assert "node 2 of 5" in str(exc) and "1.0e+12" in str(exc)
    with pytest.raises(IllConditionedDesign) as single:
        condexp_lsmc(target[2], state[2], basis)
    assert single.value.node is None and single.value.cond > 1e12


def rank_rule_stack(n=400, seed=33):
    """Four nodes of (u, s1, s2, s3) ensembles, u primary at degree 2 and
    the s linear: s3 = s1 - 2 s2 + 1, a joint dependency of two linear
    columns (no pair aliased, no function of u); s2 = 2 s1 + 1, a pairwise
    duplicate; a well-conditioned node; and a chain s1 ~ u, s2 ~ s1,
    s3 ~ s2, each column off the ones before it by a fraction 9e-10 of
    itself, above 1 - ALIAS_CORR^2, whose design stays past COND_LIMIT."""
    rng = np.random.default_rng(seed)
    state = rng.standard_normal((4, n, 4))
    state[0, :, 3] = state[0, :, 1] - 2.0 * state[0, :, 2] + 1.0
    state[1, :, 2] = 2.0 * state[1, :, 1] + 1.0
    e = state[3].copy()
    state[3, :, 1:] = e[:, :3] + 3e-5 * e[:, 1:]
    u, s1 = state[..., 0], state[..., 1]
    target = 1.0 + u - 0.5 * u ** 2 + s1 + 0.1 * rng.standard_normal(u.shape)
    return target, state, RegressionBasis(degree=2, primary_idx=(0,), linear_idx=(1, 2, 3))


def test_one_rank_rule_folds_joint_and_pairwise_dependencies():
    # each dependent column counts once, whatever kind of dependency put
    # it in the span of the columns before it, and the fold of a node does
    # not depend on its stack
    target, state, basis = rank_rule_stack()
    est = condexp_lsmc(target[:3], state[:3], basis)
    assert est.diagnostics["n_aliased"].tolist() == [1, 1, 0]
    assert est.diagnostics["n_folded"].tolist() == [0, 0, 0]
    assert np.all(est.diagnostics["cond"] < 1e3)
    assert est.coef[0, 5] == 0.0 and est.coef[1, 4] == 0.0
    for j in range(3):
        one = condexp_lsmc(target[j], state[j], basis)
        scale = np.max(np.abs(one.fitted))
        assert np.max(np.abs(est.fitted[j] - one.fitted)) <= 1e-12 * scale
        assert est.diagnostics["n_aliased"][j] == one.diagnostics["n_aliased"]
    # the dropped column lies in the span of the kept ones: the fit is the
    # one without it
    without = condexp_lsmc(target[0], state[0, :, :3],
                           RegressionBasis(degree=2, primary_idx=(0,), linear_idx=(1, 2)))
    assert np.max(np.abs(est.fitted[0] - without.fitted)) <= 1e-12 * np.max(np.abs(without.fitted))


def test_a_design_the_fold_cannot_clear_is_refused_by_node():
    # no column of the chain is within 1 - ALIAS_CORR^2 of the span of the
    # ones before it, so the fold drops none, and the design stays past
    # COND_LIMIT: refused, at the chain's node of the stack
    target, state, basis = rank_rule_stack()
    with pytest.raises(IllConditionedDesign) as info:
        condexp_lsmc(target, state, basis)
    assert info.value.node == 3 and info.value.cond > info.value.limit == 1e12
    assert "node 3 of 4" in str(info.value)
    with pytest.raises(IllConditionedDesign) as single:
        condexp_lsmc(target[3], state[3], basis)
    assert single.value.node is None and single.value.cond > 1e12


def constant_primary_stack(n=400, seed=31, wide=False):
    """Four nodes whose primary coordinates (u0, u1) are exactly the same
    on every sample, each node at its own values, with two linear
    coordinates (s0, s1): plain nodes, one whose s1 duplicates s0 up to an
    affine map (an aliased linear column, folded through the QR); with
    wide, two more linear coordinates (widened)."""
    rng = np.random.default_rng(seed)
    state = np.empty((4, n, 4))
    state[..., :2] = np.array([[0.3, 1.7], [-0.2, 0.05], [2.5, -0.4], [1e-3, -3.0]])[:, None]
    state[..., 2:] = rng.standard_normal((4, n, 2))
    state[1, :, 3] = 2.0 * state[1, :, 2] + 1.0
    s0, s1 = state[..., 2], state[..., 3]
    target = np.stack([1.0 + s0 - 0.5 * s1 ** 2, np.sin(s0) * s1], axis=-1)
    target = target + 0.1 * rng.standard_normal(target.shape)
    state, linear_idx = widened(state, (2, 3), wide, rng)
    return target, state, RegressionBasis(degree=2, primary_idx=(0, 1), linear_idx=linear_idx)


@pytest.mark.parametrize("wide", [False, True])
def test_constant_primaries_span_only_the_intercept(wide):
    # standardizing drops every monomial of primary coordinates that are the
    # same on every sample, so the full basis fits what the basis without
    # them fits: the same projection, up to the rounding of a larger solve,
    # and the same aliased linear column
    target, state, basis = constant_primary_stack(wide=wide)
    linear = RegressionBasis(degree=2, primary_idx=(), linear_idx=basis.linear_idx)
    full, restricted = condexp_lsmc(target, state, basis), condexp_lsmc(target, state, linear)
    assert full.diagnostics["n_folded"].tolist() == [5, 5, 5, 5]
    assert restricted.diagnostics["n_folded"].tolist() == [0, 0, 0, 0]
    assert full.diagnostics["n_aliased"].tolist() == [0, 1, 0, 0]
    assert restricted.diagnostics["n_aliased"].tolist() == [0, 1, 0, 0]
    for a, b in ((full.fitted, restricted.fitted), (full.resid_var, restricted.resid_var),
                 (full.diagnostics["r2"], restricted.diagnostics["r2"])):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_coef_and_gram_inv_keep_their_bits_in_any_order_of_reads():
    target, state, basis = mixed_stack(wide=True)
    first, second = (condexp_lsmc(target, state, basis) for _ in range(2))
    coef, gram_inv = first.coef, first.gram_inv
    fitted = second.fitted
    assert second.gram_inv.tobytes() == gram_inv.tobytes()
    assert second.coef.tobytes() == coef.tobytes()
    assert first.fitted.tobytes() == fitted.tobytes()
    assert first.coef is coef and first.gram_inv is gram_inv
