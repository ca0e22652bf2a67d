import math
from dataclasses import replace

import numpy as np
import pytest

from msmanifold.errors import (
    ConfigError,
    GapViolation,
    GridMismatch,
    IllConditionedDesign,
    MaxIterExceeded,
    NonfiniteState,
    TruncationTooShort,
)
import msmanifold.lyapunov_perron as lp
from msmanifold import (
    LPConfig,
    ProcessEnsemble,
    RegressionBasis,
    TimeGrid,
    build_problem,
    callable_nonlinearity,
    condexp_anchor,
    condexp_lsmc,
    diagonal_linear_noise,
    integrate_mild,
    invariance_residual,
    linear_manifold_oracle,
    linear_nonlinearity,
    lipschitz_bound,
    lipschitz_certify,
    lp_backward_map,
    lp_backward_solve,
    lp_forward_map,
    lp_forward_solve,
    ms_norm,
    sample_wiener,
    stable_graph,
    unstable_graph,
    zero_noise,
    zero_nonlinearity,
)


def decoupled(lam=(1.0, -1.0), noise=None):
    lam = list(lam)
    return build_problem(lam, [0], alpha=1.0, beta=lam[1], gamma=0.5,
                         zeta=-0.5, nonlinearity=zero_nonlinearity(2),
                         noise=zero_noise(2) if noise is None else noise)


def one_way(lam=(1.0, -2.0), eps=0.1, noise=None, gamma=0.5, zeta=-1.5):
    # stable coordinate forced by the unstable one, F_s = eps * u_1
    B = np.array([[0.0, 0.0], [eps, 0.0]])
    return build_problem(list(lam), [0], alpha=lam[0], beta=lam[1],
                         gamma=gamma, zeta=zeta,
                         nonlinearity=linear_nonlinearity(B),
                         noise=zero_noise(2) if noise is None else noise)


def cfg_back(**kw):
    base = dict(c_zeta=1.0, t_back=10.0, dt=2e-3, tol=1e-8, max_iter=30)
    base.update(kw)
    return LPConfig(**base)


# -------------------------------------------------------------- trivial cases

def test_zero_nonlinearity_unstable_graph_is_zero():
    p = decoupled()
    g = unstable_graph(p, [0.5], cfg_back(t_back=6.0, tol=1e-10))
    assert g.side == "unstable"
    assert np.all(g.h_value == 0.0)
    assert np.allclose(g.anchor, 0.5, atol=0.0)
    assert g.trace.converged
    assert g.trace.iterations == 1          # the pull-back is the fixed point
    assert g.consistency_gap == 0.0


def test_zero_nonlinearity_stable_graph_is_zero():
    p = decoupled()
    g = stable_graph(p, [0.5], LPConfig(c_zeta=1.0, t_fwd=6.0, dt=2e-3,
                                        tol=1e-10))
    assert g.side == "stable"
    assert np.all(g.h_value == 0.0)
    assert np.allclose(g.anchor, 0.5, atol=0.0)


def test_multiplicative_noise_keeps_origin_on_both_graphs():
    p = decoupled(noise=diagonal_linear_noise([0.2, 0.2]))
    g = unstable_graph(p, [0.0], cfg_back(t_back=6.0, tol=1e-10, n_samples=16))
    assert np.all(g.h_value == 0.0)
    # with F = 0 and diagonal noise the stable block stays identically zero
    # for any anchor, so h vanishes away from the origin too
    g2 = unstable_graph(p, [0.7], cfg_back(t_back=15.0, dt=1e-2, tol=1e-6,
                                           n_samples=16))
    assert np.all(g2.h_value == 0.0)


def test_backward_fixed_point_is_semigroup_pull_for_zero_forcing():
    p = decoupled(lam=(1.5, -1.0))
    cfg = cfg_back(t_back=4.0, dt=1e-2, tol=1e-10)
    ens, trace = lp_backward_solve(p, [0.3], cfg)
    assert trace.converged and trace.iterations == 1
    t = ens.grid.times
    expect = 0.3 * np.exp(1.5 * t)            # tau = 0
    assert np.max(np.abs(ens.values[:, :, 0] - expect)) < 1e-13
    assert np.all(ens.values[:, :, 1] == 0.0)


def test_forward_fixed_point_is_semigroup_push_for_zero_forcing():
    p = decoupled()
    cfg = LPConfig(c_zeta=1.0, t_fwd=4.0, dt=1e-2, tol=1e-10)
    ens, trace, member = lp_forward_solve(p, [0.2], cfg)
    assert member and trace.iterations == 1
    t = ens.grid.times
    expect = 0.2 * np.exp(-t)
    assert np.max(np.abs(ens.values[:, :, 1] - expect)) < 1e-13
    assert np.all(ens.values[:, :, 0] == 0.0)


def test_all_stable_problem_has_empty_graph_value():
    p = build_problem([-1.0, -2.0], [], alpha=1.0, beta=-1.0, gamma=0.0,
                      zeta=-0.5, nonlinearity=zero_nonlinearity(2),
                      noise=zero_noise(2))
    g = stable_graph(p, np.array([[0.2, -0.1]]), LPConfig(c_zeta=1.0,
                                                          t_fwd=3.0, dt=1e-2,
                                                          tol=1e-8))
    assert g.h_value.shape == (1, 0)
    assert g.trace.converged


# ------------------------------------------------------------ linear coupling

def test_one_way_coupling_matches_sylvester_slope():
    # s = M u with M solving M*1 = -2M + 0.1, i.e. M = 1/30
    p = one_way()
    g = unstable_graph(p, [0.3], cfg_back())
    slope = g.h_value[0, 0] / g.anchor[0, 0]
    assert abs(slope - 0.1 / 3.0) < 1e-6
    oracle = linear_manifold_oracle([[1.0]], [[-2.0]],
                                    [[0.0, 0.0], [0.1, 0.0]])
    assert abs(slope - oracle[0, 0]) < 1e-6
    assert g.anchor[0, 0] == 0.3
    assert g.trace.residual <= 2.0 * 1e-8
    assert g.consistency_gap <= 2.0 * 1e-8


def test_stable_graph_matches_sylvester_slope():
    # u = N s with -N = N + 0.01, i.e. N = -0.005
    B = np.array([[0.0, 0.01], [0.0, 0.0]])
    p = build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                      zeta=-0.5, nonlinearity=linear_nonlinearity(B),
                      noise=zero_noise(2))
    cfg = LPConfig(c_zeta=1.0, t_fwd=28.5, dt=1e-2, tol=1e-7, max_iter=30)
    g = stable_graph(p, [0.4], cfg)
    slope = g.h_value[0, 0] / g.anchor[0, 0]
    assert abs(slope + 0.005) < 1e-5
    oracle = linear_manifold_oracle([[-1.0]], [[1.0]],
                                    [[0.0, 0.0], [0.01, 0.0]])
    assert abs(slope - oracle[0, 0]) < 1e-5


def test_two_way_contraction_ratios_below_gap_bound():
    B = np.array([[0.0, 0.05], [0.05, 0.0]])
    p = build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.9,
                      zeta=-0.9, nonlinearity=linear_nonlinearity(B),
                      noise=zero_noise(2))
    cfg = LPConfig(c_zeta=1.0, t_back=15.0, dt=5e-3, tol=1e-11, max_iter=60)
    ens, trace = lp_backward_solve(p, [0.3], cfg)
    assert trace.converged
    assert trace.gap.eta == pytest.approx(0.55, abs=1e-12)
    assert len(trace.ratios) >= 5
    assert max(trace.ratios) <= 0.55 * 1.2


def test_graph_point_reassembles_blocks():
    p = one_way()
    g = unstable_graph(p, [0.3], cfg_back())
    pt = g.point()
    assert pt.shape == (g.n_samples, 2)
    assert np.array_equal(pt[:, g.anchor_idx], g.anchor)
    assert np.array_equal(pt[:, g.value_idx], g.h_value)


# ----------------------------------------------------------- stochastic runs

def stochastic_one_way():
    B = np.array([[0.0, 0.0], [0.1, 0.0]])
    return build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                         zeta=-0.5, nonlinearity=linear_nonlinearity(B),
                         noise=diagonal_linear_noise([0.1, 0.1]))


def test_stochastic_graph_value_stationary_in_tau():
    p = stochastic_one_way()
    cfg = LPConfig(c_zeta=1.0, t_back=10.0, dt=1e-2, tol=1e-4, max_iter=30,
                   n_samples=256, seed=11)
    a = ms_norm(unstable_graph(p, [0.3], cfg).h_value)
    b = ms_norm(unstable_graph(p, [0.3], replace(cfg, tau=0.5)).h_value)
    # autonomous coefficients: the graph law does not depend on tau
    assert abs(a - b) <= 0.1 * a


def test_ito_martingale_diagnostic_recorded():
    p = stochastic_one_way()
    cfg = LPConfig(c_zeta=1.0, t_back=10.0, dt=1e-2, tol=1e-4, max_iter=30,
                   n_samples=256, seed=11)
    g = unstable_graph(p, [0.3], cfg)
    chk = g.trace.ito_check
    assert chk["ok"]
    assert chk["n_samples"] == 256
    assert abs(chk["raw_mean"]) <= chk["band"]


def test_regression_diagnostics_aggregated():
    # two-way coupling: the unstable drift target is state-dependent, so the
    # fits cannot short-circuit to means
    B = np.array([[0.0, 0.05], [0.05, 0.0]])
    p = build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                      zeta=-0.5, nonlinearity=linear_nonlinearity(B),
                      noise=diagonal_linear_noise([0.1, 0.1]))
    cfg = LPConfig(c_zeta=1.0, t_back=10.0, dt=1e-2, tol=1e-4, max_iter=30,
                   n_samples=256, seed=11)
    g = unstable_graph(p, [0.3], cfg)
    reg = g.trace.regression
    assert reg and reg["n_regressions"] > 0
    assert reg["max_cond"] < 1e12
    assert reg["min_r2"] <= 1.0


def test_include_wiener_basis_smoke():
    p = stochastic_one_way()
    cfg = LPConfig(c_zeta=1.0, t_back=10.0, dt=1e-2, tol=1e-4, max_iter=30,
                   n_samples=128, seed=3, include_wiener=True)
    g = unstable_graph(p, [0.2], cfg)
    assert g.trace.converged


# ------------------------------------------------------------ time blocks

def counted_drift(p):
    calls = []
    fn = p.nonlinearity.fn

    def counting(v):
        calls.append(v.shape)
        return fn(v)

    return replace(p, nonlinearity=replace(p.nonlinearity, fn=counting)), calls


def test_maps_evaluate_drift_once_per_time_block(monkeypatch):
    p, calls = counted_drift(one_way())
    cfg = LPConfig(c_zeta=1.0, dt=1e-2, t_back=6.0, t_fwd=6.0, n_samples=2)
    vals = np.random.default_rng(0).standard_normal((2, 601, 2))

    def no_regression(*args, **kwargs):
        raise AssertionError("zero noise and a fixed anchor need no regression")

    # deterministic state, target and anchor: the masks fill whole blocks
    monkeypatch.setattr(lp, "condexp_lsmc", no_regression)
    same = np.broadcast_to(vals[:1], vals.shape)
    lp_backward_map(p, ProcessEnsemble(TimeGrid(-6.0, 1e-2, 600), same), [0.3], cfg)
    assert len(calls) <= 4, len(calls)
    calls.clear()
    lp_forward_map(p, ProcessEnsemble(TimeGrid(0.0, 1e-2, 600), same), [0.3], cfg)
    assert len(calls) <= 4, len(calls)


def test_maps_evaluate_drift_and_diffusion_once_per_time_block(monkeypatch):
    # noise and a random anchor: both sides of both maps need the forcing,
    # and every node is a regression
    p, drifts = counted_drift(two_way_noisy())
    diffusions = []
    sigma = p.noise.fn

    def counting(v):
        diffusions.append(v.shape)
        return sigma(v)

    p = replace(p, noise=replace(p.noise, fn=counting))
    n, N = 64, 100
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, t_fwd=1.0, dt=1e-2, n_samples=n)
    rng = np.random.default_rng(4)
    vals = 0.1 + 0.05 * rng.standard_normal((n, N + 1, 2))
    x = 0.3 + 0.1 * rng.standard_normal((n, 1))
    monkeypatch.setattr(lp, "_BLOCK_ROWS", 40 * n)   # blocks of 40, 40 and 21 nodes
    for step, start in ((lp_backward_map, -1.0), (lp_forward_map, 0.0)):
        grid = TimeGrid(start, 1e-2, N)
        drifts.clear()
        diffusions.clear()
        step(p, ProcessEnsemble(grid, vals), x, cfg, sample_wiener(3, grid, p.noise, n))
        assert len(drifts) == 3, drifts
        assert len(diffusions) == 3, diffusions


@pytest.mark.parametrize("step, start", [(lp_backward_map, -1.0), (lp_forward_map, 0.0)])
def test_maps_refuse_a_wiener_ensemble_of_the_wrong_size(step, start):
    # a map checks the driving noise's samples as a solve does, instead of
    # failing on a broadcast deep inside the forward pass
    p = two_way_noisy()
    n, N = 8, 100
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, t_fwd=1.0, dt=1e-2, n_samples=n)
    grid = TimeGrid(start, 1e-2, N)
    xi = ProcessEnsemble(grid, np.full((n, N + 1, 2), 0.1))
    with pytest.raises(GridMismatch, match="4 samples"):
        step(p, xi, [0.3], cfg, sample_wiener(3, grid, p.noise, 4))


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_ito_check_is_the_unstable_ito_sum_from_node_zero(side):
    # the martingale-zero check reads sum_j e^{-lambda_u j dt} sigma_u(x_j) dW_j
    p = two_way_noisy()
    n, N, dt = 3000, 20, 1e-2
    cfg = LPConfig(c_zeta=1.0, t_back=0.2, t_fwd=0.2, dt=dt, n_samples=n)
    grid = TimeGrid(-0.2 if side == "unstable" else 0.0, dt, N)
    wiener = sample_wiener(6, grid, p.noise, n)
    rng = np.random.default_rng(9)
    vals = 0.1 + 0.05 * rng.standard_normal((n, N + 1, 2))
    x = 0.3 + 0.1 * rng.standard_normal((n, 1))
    step = lp_backward_map if side == "unstable" else lp_forward_map
    chk = step(p, ProcessEnsemble(grid, vals), x, cfg, wiener).meta["ito_check"]
    total = sum(math.exp(-p.eigenvalues[0] * j * dt)
                * p.noise.diffusion(vals[:, j])[:, 0] * wiener.increments[:, j, 0]
                for j in range(N))
    assert chk["n_samples"] == n and chk["ok"]
    assert chk["raw_mean"] == pytest.approx(abs(total.mean()), rel=1e-12)
    assert chk["band"] == pytest.approx(4.0 * total.std() / math.sqrt(n), rel=1e-12)


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_maps_do_not_depend_on_the_block_length(monkeypatch, side):
    # two-way coupling and noise: every node is a regression, and the
    # recurrences carry scan values and Ito increments across blocks
    B = np.array([[0.0, 0.05], [0.05, 0.0]])
    p = build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                      zeta=-0.5, nonlinearity=linear_nonlinearity(B),
                      noise=diagonal_linear_noise([0.1, 0.1]))
    n = 64
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, t_fwd=1.0, dt=1e-2, n_samples=n)
    grid = TimeGrid(-1.0 if side == "unstable" else 0.0, 1e-2, 100)
    wiener = sample_wiener(3, grid, p.noise, n)
    xi = ProcessEnsemble(grid, 0.1 + 0.05 * np.random.default_rng(1).standard_normal((n, 101, 2)))
    step = lp_backward_map if side == "unstable" else lp_forward_map
    whole = step(p, xi, [0.3], cfg, wiener).values
    monkeypatch.setattr(lp, "_BLOCK_ROWS", 10 * n)   # the last block holds one node
    blocked = step(p, xi, [0.3], cfg, wiener).values
    assert np.max(np.abs(blocked - whole)) <= 1e-12 * np.max(np.abs(whole))


def two_way_noisy():
    B = np.array([[0.0, 0.05], [0.05, 0.0]])
    return build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                         zeta=-0.5, nonlinearity=linear_nonlinearity(B),
                         noise=diagonal_linear_noise([0.1, 0.1]))


@pytest.mark.parametrize("include_wiener", [False, True])
def test_random_anchor_is_one_regression_per_time_block(monkeypatch, include_wiener):
    # E[x pull - drift | F_t] = E[x pull | F_t] - E[drift | F_t]: one target,
    # one stacked regression per block, the same map as two regressions
    p = two_way_noisy()
    n, N = 64, 100
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, dt=1e-2, n_samples=n, include_wiener=include_wiener)
    grid = TimeGrid(-1.0, 1e-2, N)
    wiener = sample_wiener(3, grid, p.noise, n)
    rng = np.random.default_rng(5)
    xi = ProcessEnsemble(grid, 0.1 + 0.05 * rng.standard_normal((n, N + 1, 2)))
    x = 0.3 + 0.1 * rng.standard_normal((n, 1))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return condexp_lsmc(*args, **kwargs)

    monkeypatch.setattr(lp, "condexp_lsmc", counting)
    monkeypatch.setattr(lp, "_BLOCK_ROWS", 10 * n)   # 10-node blocks, node N alone in the last
    out = lp_backward_map(p, xi, x, cfg, wiener).values[:, :N, 0]
    assert len(calls) == 10 and all(c[0] == 10 for c in calls)

    basis = cfg.basis_for(p)
    pull = np.exp((np.arange(N + 1) - N) * 1e-2 * p.eigenvalues[0])
    ref = np.zeros_like(out)
    for a, v, drift, _ in lp._map_blocks(p, xi.values, np.zeros((N + 1, n, 2)),
                                         lp.solver_boundary_columns(p), 1e-2, wiener):
        for i in range(min(len(v), N - a)):
            w = wiener.value_at(a + i) if include_wiener else None
            ref[:, a + i] = (condexp_anchor(x * pull[a + i], v[i], basis, w).fitted
                             - condexp_lsmc(drift[i], v[i], basis, w).fitted)[:, 0]
    assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_stacked_wiener_values_equal_value_at():
    p = two_way_noisy()
    wiener = sample_wiener(4, TimeGrid(-0.5, 1e-2, 100), p.noise, 16)
    basis = RegressionBasis(primary_idx=(0,), include_wiener=True, n_wiener=2)
    block = lp._nodes(lp._wiener_values(wiener, basis), 45, 55)   # straddles W(0) = 0
    assert block.shape == (10, 16, 2)
    for i in range(10):
        assert np.allclose(block[i], wiener.value_at(45 + i), rtol=0.0, atol=1e-15)


def test_conditional_fit_refusal_names_grid_node_and_time():
    rng = np.random.default_rng(7)
    state = rng.standard_normal((4, 200, 3))
    state[2, :, 2] = state[2, :, 0] + state[2, :, 1]
    target = rng.standard_normal((4, 200, 1))
    basis = RegressionBasis(degree=1, primary_idx=(0, 1, 2))
    with pytest.raises(IllConditionedDesign) as info:
        lp._conditional_fit(target, state, basis, None, TimeGrid(-1.0, 1e-2, 100), 5, {})
    assert info.value.node == 7
    assert info.value.cond > info.value.limit
    assert "grid node 7 (t = -0.93)" in str(info.value)


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_maps_are_identical_across_worker_counts(monkeypatch, side):
    # 3000 samples: three sample chunks for the Wiener draw; regressions
    # use no threads
    p = two_way_noisy()
    n = 3000
    cfg = LPConfig(c_zeta=1.0, t_back=0.2, t_fwd=0.2, dt=1e-2, n_samples=n)
    grid = TimeGrid(-0.2 if side == "unstable" else 0.0, 1e-2, 20)
    rng = np.random.default_rng(9)
    xi = ProcessEnsemble(grid, 0.1 + 0.05 * rng.standard_normal((n, 21, 2)))
    x = 0.3 + 0.1 * rng.standard_normal((n, 1))
    step = lp_backward_map if side == "unstable" else lp_forward_map
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("MSMANIFOLD_WORKERS", workers)
        wiener = sample_wiener(6, grid, p.noise, n)
        runs.append(step(p, xi, x, cfg, wiener))
    assert np.array_equal(runs[0].values, runs[1].values)
    assert runs[0].meta["regression"]["n_regressions"] > 0


def is_node_major(values):
    return values.swapaxes(0, 1).flags.c_contiguous


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_maps_are_node_major_and_ignore_the_input_layout(side):
    # the same xi and Wiener values stored sample-major (as a caller builds
    # them) or node-major (as the package does) give the same bits
    p = two_way_noisy()
    n = 64
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, t_fwd=1.0, dt=1e-2, n_samples=n,
                   include_wiener=True)
    grid = TimeGrid(-1.0 if side == "unstable" else 0.0, 1e-2, 100)
    wiener = sample_wiener(3, grid, p.noise, n)
    rng = np.random.default_rng(2)
    vals = 0.1 + 0.05 * rng.standard_normal((n, 101, 2))
    x = 0.3 + 0.1 * rng.standard_normal((n, 1))
    node_major = np.ascontiguousarray(vals.swapaxes(0, 1)).swapaxes(0, 1)
    sample_major = replace(wiener, increments=np.ascontiguousarray(wiener.increments))
    step = lp_backward_map if side == "unstable" else lp_forward_map
    a = step(p, ProcessEnsemble(grid, vals), x, cfg, sample_major).values
    b = step(p, ProcessEnsemble(grid, node_major), x, cfg, wiener).values
    assert np.array_equal(a, b)
    assert is_node_major(a) and is_node_major(b)
    initial = lp._initial_guess(p, grid, x, side)
    assert initial.shape == (n, 101, 2) and is_node_major(initial)


def test_forcing_blocks_are_views_of_node_major_storage(monkeypatch):
    p = two_way_noisy()
    n = 64
    grid = TimeGrid(-1.0, 1e-2, 100)
    wiener = sample_wiener(3, grid, p.noise, n)
    ens = integrate_mild(p, np.full(2, 0.1), grid, wiener)
    monkeypatch.setattr(lp, "_BLOCK_ROWS", 10 * n)   # 10-node blocks
    blocks = list(lp._forcing_blocks(p, ens.values, lp.solver_boundary_columns(p), 1e-2,
                                     wiener))
    assert len(blocks) == 11
    for a, v, _, _ in blocks:
        assert np.shares_memory(v, ens.values)
        assert np.array_equal(v, ens.values[:, a:a + len(v)].swapaxes(0, 1))


@pytest.mark.parametrize("m", [1, 2, 4])
def test_weighted_gap_bits_do_not_depend_on_the_layout(monkeypatch, m):
    n = 3000
    rng = np.random.default_rng(m)
    a, b = rng.standard_normal((2, n, 41, m))
    times = np.linspace(-4.0, 0.0, 41)
    monkeypatch.setattr(lp, "_BLOCK_ROWS", 16 * n)   # blocks of 16, 16 and 9 nodes
    ref = lp._weighted_gap(a, b, times, 0.0, 0.5)

    def node_major(x):
        return np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)

    assert lp._weighted_gap(node_major(a), node_major(b), times, 0.0, 0.5) == ref
    worst = max(np.exp(-0.5 * times) * np.sqrt(np.mean(np.sum((a - b) ** 2, axis=2), axis=0)))
    assert ref == pytest.approx(worst, rel=1e-12)


def test_screened_masks_equal_the_full_pass():
    rng = np.random.default_rng(12)
    for shape in [(9, 50, 1), (9, 50, 2), (9, 50, 4), (9, 1, 2)]:
        x = rng.standard_normal(shape)
        x[0] = x[0, :1]                   # deterministic
        x[3] = x[3, :1]
        x[5] = x[5, :1]
        if shape[1] > 2:
            x[5, 7:, -1] = np.nextafter(x[5, 7:, -1], np.inf)   # first two agree, later ones not
            x[6, 1] = x[6, 0]             # first two samples agree, the rest vary
            x[8, 1:, 0] = x[8, 0, 0]      # one coordinate deterministic, another not
        full = ~np.all(x == x[:, :1], axis=(1, 2))
        for among in [np.ones(9, dtype=bool), full, ~full, np.arange(9) % 2 == 0]:
            assert np.array_equal(lp._varying_nodes(x, among), among & full)


def all_to_all_problem(m, unstable):
    eigs = {2: [1.0, -2.0], 4: [1.5, 1.0, -1.0, -2.0]}[m]
    return build_problem(eigs, unstable, alpha=1.0, beta=-1.0, gamma=0.5, zeta=-0.5,
                         nonlinearity=linear_nonlinearity(np.full((m, m), 0.03)),
                         noise=diagonal_linear_noise([0.1] * m))


@pytest.mark.parametrize("m, unstable", [(2, [0]), (4, [0, 1])])
def test_forward_pass_ito_sum_adds_the_nodes_in_order(monkeypatch, m, unstable):
    # the unstable Ito sum is the weighted increments added node by node,
    # the order of a sum over the leading axis
    p = all_to_all_problem(m, unstable)
    n, dt = 300, 2e-2
    grid = TimeGrid(-1.0, dt, 50)
    wiener = sample_wiener(8, grid, p.noise, n)
    vals = integrate_mild(p, np.full(m, 0.1), grid, wiener).values
    monkeypatch.setattr(lp, "_BLOCK_ROWS", 16 * n)   # blocks of 16 nodes
    ito0 = lp._forward_pass(p, vals, np.zeros((51, n, m)), None, dt, wiener, 0.0)
    weight = np.exp(-np.outer(np.arange(51) * dt, p.eigenvalues[unstable]))
    want = np.zeros((n, len(unstable)))
    for a, v, _, ito in lp._forcing_blocks(p, vals, None, dt, wiener):
        want += (ito[..., unstable] * weight[a:a + len(v), None, :]).sum(axis=0)
    assert np.array_equal(ito0, want)


@pytest.mark.parametrize("returned", ["input", "read-only"])
def test_forcing_blocks_leave_an_aliased_drift_alone(returned):
    # a drift that returns its input (or a read-only array) is not halved
    # in place: the state it aliases stays as it was
    def drift(v):
        return v if returned == "input" else np.broadcast_to(v[:1], v.shape)

    p = replace(two_way_noisy(), nonlinearity=callable_nonlinearity(drift, m=2,
                                                                    lipschitz_L1=0.1))
    grid = TimeGrid(-1.0, 1e-2, 100)
    vals = np.ascontiguousarray(0.1 + 0.05 * np.random.default_rng(4).standard_normal(
        (101, 8, 2))).swapaxes(0, 1)
    before = vals.copy()
    for a, v, half, _ in lp._forcing_blocks(p, vals, None, 1e-2, None):
        assert np.array_equal(half, 0.5 * 1e-2 * drift(v.reshape(-1, 2)).reshape(v.shape))
    assert np.array_equal(vals, before)


@pytest.mark.parametrize("side", ["unstable", "stable"])
@pytest.mark.parametrize("m, unstable", [(2, [0]), (4, [0, 1])])
def test_initial_guess_matches_the_broadcast_formula(side, m, unstable):
    p = all_to_all_problem(m, unstable)
    grid = TimeGrid(-1.0 if side == "unstable" else 0.0, 1e-2, 100)
    idx = np.asarray(unstable if side == "unstable" else
                     [i for i in range(m) if i not in unstable])
    rng = np.random.default_rng(5)
    anchor = rng.standard_normal((40, len(idx)))
    anchor[3] = -0.0                      # signed zeros keep their sign
    node = grid.n_steps if side == "unstable" else 0
    semigroup = np.exp(np.outer((np.arange(101) - node) * 1e-2, p.eigenvalues[idx]))
    want = np.zeros((101, 40, m))
    want[:, :, idx] = anchor[None, :, :] * semigroup[:, None, :]
    got = lp._initial_guess(p, grid, anchor, side)
    assert got.swapaxes(0, 1).flags.c_contiguous
    assert got.swapaxes(0, 1).tobytes() == want.tobytes()


# ---------------------------------------------------- gates and certificates

def test_truncation_gate_blocks_short_windows():
    p = stochastic_one_way()
    cfg = LPConfig(c_zeta=1.0, t_back=8.0, dt=1e-2, tol=1e-4, n_samples=64)
    with pytest.raises(TruncationTooShort):
        lp_backward_solve(p, [0.3], cfg)
    ens, trace = lp_backward_solve(p, [0.3], replace(cfg, force=True))
    assert trace.converged
    assert trace.tail_bound > 0.0


def saturated_mixing_problem():
    c, R = 50.0, 2.0

    def mix(v):
        u1 = np.clip(v[..., 0], -R, R)
        out = np.zeros_like(v)
        out[..., 0] = c * u1 ** 3 + 0.3 * v[..., 1]
        return out

    F = callable_nonlinearity(mix, m=2, lipschitz_L1=3 * c * R * R + 0.3)
    return build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                         zeta=-0.5, nonlinearity=F, noise=zero_noise(2))


def test_gap_violation_without_force():
    p = saturated_mixing_problem()
    with pytest.raises(GapViolation):
        lp_forward_solve(p, [0.05], LPConfig(c_zeta=1.0, t_fwd=6.0, dt=1e-2,
                                             tol=1e-6))


def test_membership_flips_with_anchor_size_under_force():
    p = saturated_mixing_problem()
    cfg = LPConfig(c_zeta=1.0, t_fwd=6.0, dt=1e-2, tol=1e-6, max_iter=15,
                   force=True)
    _, trace_small, member_small = lp_forward_solve(p, [0.05], cfg)
    assert member_small and trace_small.converged
    _, trace_big, member_big = lp_forward_solve(p, [5.0], cfg)
    assert not member_big
    assert trace_big.iterations == 15


def test_stable_graph_raises_for_nonmember():
    p = saturated_mixing_problem()
    cfg = LPConfig(c_zeta=1.0, t_fwd=6.0, dt=1e-2, tol=1e-6, max_iter=15,
                   force=True)
    with pytest.raises(MaxIterExceeded):
        stable_graph(p, [5.0], cfg)


def overflowing_problem():
    # F overflows to inf at every nonzero state; the declared Lipschitz
    # constant only lets the gates pass
    def blow_up(v):
        with np.errstate(over="ignore"):
            return 1e300 * (1e300 * v)

    F = callable_nonlinearity(blow_up, m=2, lipschitz_L1=0.1)
    return build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                         zeta=-0.5, nonlinearity=F, noise=zero_noise(2))


def test_nonfinite_map_raises_on_the_unstable_side_and_aborts_the_stable_one():
    p = overflowing_problem()
    cfg = LPConfig(c_zeta=1.0, t_back=2.0, t_fwd=2.0, dt=1e-2, tol=1e-6, force=True)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonfiniteState, match="backward map"):
            lp_backward_solve(p, [0.3], cfg)
        _, trace, member = lp_forward_solve(p, [0.3], cfg)
        assert not member and not trace.converged
        assert "forward map" in trace.regression["aborted"]
        with pytest.raises(MaxIterExceeded) as info:
            stable_graph(p, [0.3], cfg)
    assert trace.regression["aborted"] in str(info.value)
    assert info.value.side == "stable" and info.value.distance is None


def test_lipschitz_certificate_on_linear_problem():
    p = one_way()
    cfg = cfg_back()
    cert = lipschitz_certify(p, cfg, "unstable",
                             [([0.2], [0.4]), ([0.4], [-0.3]), ([0.2], [0.2])])
    # linear graph: every distinct pair realizes exactly the slope 1/30
    assert cert.empirical == pytest.approx(0.1 / 3.0, abs=1e-6)
    assert cert.ratios[2] == 0.0
    # eta = 0.1/0.5 + 0.1 = 0.3, bound = 0.1/(1 - 0.3)
    assert cert.theoretical == pytest.approx(0.1 / 0.7, rel=1e-12)
    assert cert.theoretical == pytest.approx(lipschitz_bound(p, cfg, "unstable"))
    assert cert.passed


def test_lipschitz_certificate_tells_anchor_shapes_apart():
    # [0.3] is an anchor for n_samples rows, [[0.3]] a one-row ensemble,
    # which a noisy solve refuses; a cache keyed by the bytes alone served
    # it the graph of [0.3].
    p = one_way(noise=diagonal_linear_noise([0.1, 0.1]))
    cfg = cfg_back(t_back=8.0, dt=1e-2, tol=1e-5, n_samples=16)
    pairs = [([0.3], [0.2]), ([[0.3]], [[0.2]])]
    assert lipschitz_certify(p, cfg, "unstable", pairs[:1]).passed
    with pytest.raises(ConfigError, match="n_samples must be >= 2"):
        lipschitz_certify(p, cfg, "unstable", pairs)


def test_invariance_residual_small_on_linear_manifold():
    p = one_way()
    r = invariance_residual(p, [0.3], cfg_back(), t0=0.5, side="unstable")
    assert r <= 1e-3


def test_invariance_residual_validates_t0():
    p = one_way()
    with pytest.raises(ConfigError):
        invariance_residual(p, [0.3], cfg_back(), t0=0.0003)


# ------------------------------------------------------------- config guards

def test_config_rejects_bad_rate_ordering():
    p = decoupled()
    with pytest.raises(ConfigError):
        LPConfig(c_zeta=1.0, gamma=-0.7, zeta=-0.5).validate(p)


def test_config_rejects_nonpositive_shapes():
    p = decoupled()
    with pytest.raises(ConfigError):
        LPConfig(c_zeta=0.0).validate(p)
    with pytest.raises(ConfigError):
        LPConfig(c_zeta=1.0, tol=0.0).validate(p)
    with pytest.raises(ConfigError):
        LPConfig(c_zeta=1.0, t_back=-1.0).validate(p)


def test_window_must_be_multiple_of_dt():
    p = decoupled()
    with pytest.raises(ConfigError):
        lp_backward_solve(p, [0.1], LPConfig(c_zeta=1.0, t_back=1.0005,
                                             dt=1e-2, tol=1e-8))
