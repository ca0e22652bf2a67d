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
import msmanifold.stochastic as st
from msmanifold import (
    LPConfig,
    ProcessEnsemble,
    RegressionBasis,
    TimeGrid,
    build_example_problem,
    build_problem,
    callable_nonlinearity,
    condexp_anchor,
    condexp_lsmc,
    convolve_diamond,
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
from msmanifold.problem import _normalize_anchor


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


def test_a_solve_without_unstable_modes_reports_its_ito_samples():
    # no unstable mode leaves no Ito sum to check; the noisy solve's verdict
    # still counts its samples, as the zero-noise one of the same problem does
    def problem(noise):
        return build_problem([-1.0, -2.0], [], alpha=1.0, beta=-1.0, gamma=0.0,
                             zeta=-0.5, nonlinearity=zero_nonlinearity(2), noise=noise)

    cfg = LPConfig(c_zeta=1.0, t_fwd=3.0, dt=1e-2, tol=1e-8, n_samples=64, force=True)
    noisy = stable_graph(problem(diagonal_linear_noise([0.1, 0.1])), [0.2, -0.1], cfg)
    quiet = stable_graph(problem(zero_noise(2)), [0.2, -0.1], cfg)
    assert noisy.trace.ito_check["n_samples"] == 64
    assert noisy.trace.ito_check == quiet.trace.ito_check


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
    # the frozen first map's output varies in the stable mode alone
    assert reg["basis_size"] == 2
    assert reg["max_cond"] < 1e12
    assert reg["min_r2"] <= 1.0


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


def test_random_anchor_is_one_regression_per_time_block(monkeypatch):
    # E[x pull - drift | F_t] = E[x pull | F_t] - E[drift | F_t]: one target,
    # one stacked regression per block, the same map as two regressions
    p = two_way_noisy()
    n, N = 64, 100
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, dt=1e-2, n_samples=n)
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
    for a, v, drift, _ in lp._map_blocks(p, xi.values, np.zeros((N + 1, 2, n)),
                                         lp.solver_boundary_columns(p), 1e-2, wiener):
        for i in range(min(len(v), N - a)):
            ref[:, a + i] = (condexp_anchor(x * pull[a + i], v[i].T, basis).fitted
                             - condexp_lsmc(drift[i].T, v[i].T, basis).fitted)[:, 0]
    assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_conditional_fit_refusal_names_grid_node_and_time(monkeypatch):
    # ALIAS_CORR at 1.0 turns the fold off, so the dependency is refused
    from msmanifold import condexp

    monkeypatch.setattr(condexp, "ALIAS_CORR", 1.0)
    rng = np.random.default_rng(7)
    state = rng.standard_normal((4, 200, 3))
    state[2, :, 2] = state[2, :, 0] + state[2, :, 1]
    target = np.ascontiguousarray(rng.standard_normal((4, 200, 1)).swapaxes(1, 2))
    basis = RegressionBasis(degree=1, primary_idx=(0, 1, 2))
    with pytest.raises(IllConditionedDesign) as info:
        lp._conditional_fit(target, np.ascontiguousarray(state.swapaxes(1, 2)), basis,
                            TimeGrid(-1.0, 1e-2, 100), 5, {}, target)
    assert info.value.node == 7
    assert info.value.cond > info.value.limit
    assert "grid node 7 (t = -0.93)" in str(info.value)


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_maps_are_identical_across_runs(side):
    # 3000 samples: three sample chunks for the Wiener draw
    p = two_way_noisy()
    n = 3000
    cfg = LPConfig(c_zeta=1.0, t_back=0.2, t_fwd=0.2, dt=1e-2, n_samples=n)
    grid = TimeGrid(-0.2 if side == "unstable" else 0.0, 1e-2, 20)
    rng = np.random.default_rng(9)
    xi = ProcessEnsemble(grid, 0.1 + 0.05 * rng.standard_normal((n, 21, 2)))
    x = 0.3 + 0.1 * rng.standard_normal((n, 1))
    step = lp_backward_map if side == "unstable" else lp_forward_map
    runs = []
    for _ in range(2):
        wiener = sample_wiener(6, grid, p.noise, n)
        runs.append(step(p, xi, x, cfg, wiener))
    assert np.array_equal(runs[0].values, runs[1].values)
    assert runs[0].meta["regression"]["n_regressions"] > 0


def is_node_major(values):
    """(n, N+1, m) values are the transposed view of (node, mode, sample)
    storage."""
    return values.transpose(1, 2, 0).flags.c_contiguous


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_maps_are_node_major_and_ignore_the_input_layout(side):
    # the same xi and Wiener values stored sample-major (as a caller builds
    # them), (node, sample, mode), or (node, mode, sample) (as the package
    # does) give the same bits
    p = two_way_noisy()
    n = 64
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, t_fwd=1.0, dt=1e-2, n_samples=n)
    grid = TimeGrid(-1.0 if side == "unstable" else 0.0, 1e-2, 100)
    wiener = sample_wiener(3, grid, p.noise, n)
    rng = np.random.default_rng(2)
    vals = 0.1 + 0.05 * rng.standard_normal((n, 101, 2))
    x = 0.3 + 0.1 * rng.standard_normal((n, 1))
    node_major = np.ascontiguousarray(vals.swapaxes(0, 1)).swapaxes(0, 1)
    mode_major = np.ascontiguousarray(vals.transpose(1, 2, 0)).transpose(2, 0, 1)
    sample_major = replace(wiener, increments=np.ascontiguousarray(wiener.increments))
    step = lp_backward_map if side == "unstable" else lp_forward_map
    a = step(p, ProcessEnsemble(grid, vals), x, cfg, sample_major).values
    b = step(p, ProcessEnsemble(grid, node_major), x, cfg, wiener).values
    c = step(p, ProcessEnsemble(grid, mode_major), x, cfg, wiener).values
    assert a.tobytes() == b.tobytes() == c.tobytes()
    assert is_node_major(a) and is_node_major(b) and is_node_major(c)
    initial = lp._initial_guess(p, grid, x, side)
    assert initial.shape == (n, 101, 2) and is_node_major(initial)


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_maps_take_mode_blocks_that_are_not_one_run(side):
    # unstable mode 1 between stable modes 0 and 2, and the unstable modes
    # [0, 2] of four: the blocks are index arrays, not slices, and the map
    # equals the one on the problem with its modes reordered so that each
    # block is one run, bit for bit (every model is elementwise and the
    # regression columns keep their order); with two unstable modes a fit
    # written through an index array would land in a copy
    from msmanifold import saturated_polynomial_nonlinearity

    def problem(eigs, unstable, slopes):
        return build_problem(eigs, unstable, alpha=1.0, beta=-1.0, gamma=0.5, zeta=-0.5,
                             nonlinearity=saturated_polynomial_nonlinearity([0.02, 0.02], 1.0),
                             noise=diagonal_linear_noise(slopes))

    n, N = 64, 100
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, t_fwd=1.0, dt=1e-2, n_samples=n)
    grid = TimeGrid(-1.0 if side == "unstable" else 0.0, 1e-2, N)
    step = lp_backward_map if side == "unstable" else lp_forward_map
    # (eigenvalues, unstable modes, slopes, the order that makes each block one run)
    for eigs, unstable, slopes, order in (
            ([-1.0, 1.0, -2.0], [1], [0.05, 0.1, 0.15], [1, 0, 2]),
            ([1.0, -1.0, 1.5, -2.0], [0, 2], [0.1, 0.05, 0.12, 0.15], [0, 2, 1, 3])):
        m = len(eigs)
        inner = problem(eigs, unstable, slopes)
        first = problem([eigs[i] for i in order], sorted(order.index(i) for i in unstable),
                        [slopes[i] for i in order])
        rng = np.random.default_rng(3)
        vals = 0.1 + 0.05 * rng.standard_normal((n, N + 1, m))
        drawn = sample_wiener(5, grid, inner.noise, n)
        permuted = replace(drawn, increments=drawn.increments[..., order])
        k = len(unstable) if side == "unstable" else m - len(unstable)
        x = 0.3 + 0.1 * rng.standard_normal((n, k))
        a = step(inner, ProcessEnsemble(grid, vals), x, cfg, drawn)
        b = step(first, ProcessEnsemble(grid, vals[..., order]), x, cfg, permuted)
        assert a.meta["regression"]["n_regressions"] == N, m
        assert a.values[..., order].tobytes() == b.values.tobytes(), m


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_a_one_sample_map_equals_each_sample_of_a_two_sample_map(side):
    # eight modes and one sample: a node's unstable row lies 8 elements from
    # the next node's, the stride at which numpy 2.4's in-place negative
    # reads the wrong elements; the maps write the fits and their signs
    # into the iterate without it (every model is elementwise, so the bits
    # do not depend on the sample count)
    from msmanifold import saturated_polynomial_nonlinearity

    m, N = 8, 100
    p = build_problem([1.0] + [-1.0 - i for i in range(m - 1)], [0], alpha=1.0, beta=-1.0,
                      gamma=0.5, zeta=-0.5,
                      nonlinearity=saturated_polynomial_nonlinearity([0.02, 0.02], 1.0),
                      noise=zero_noise(m))
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, t_fwd=1.0, dt=1e-2, n_samples=1)
    grid = TimeGrid(-1.0 if side == "unstable" else 0.0, 1e-2, N)
    vals = 0.1 + 0.05 * np.random.default_rng(8).standard_normal((1, N + 1, m))
    x = [0.3] if side == "unstable" else [0.1] * (m - 1)
    step = lp_backward_map if side == "unstable" else lp_forward_map
    one = step(p, ProcessEnsemble(grid, vals), x, cfg).values
    two = step(p, ProcessEnsemble(grid, np.repeat(vals, 2, axis=0)), x, cfg).values
    assert one[0].tobytes() == two[0].tobytes() == two[1].tobytes()


def saturated_three_mode():
    from msmanifold import saturated_polynomial_nonlinearity

    return build_problem([1.0, -1.0, -2.5], [0], alpha=1.0, beta=-1.0, gamma=0.5, zeta=-0.5,
                         nonlinearity=saturated_polynomial_nonlinearity([0.02, 0.02], 1.0),
                         noise=zero_noise(3))


@pytest.mark.parametrize("problem, dt", [
    (saturated_three_mode, 1e-2),
    (saturated_three_mode, 1e-3),
    (lambda: replace(all_to_all_problem(4, [0, 1]), noise=zero_noise(4)), 1e-2),
    (lambda: build_example_problem(m=4, g0=0.02 * np.eye(4), g1=[0.05] * 4, g2=[0.05] * 4),
     1e-2),
])
def test_forward_map_stable_block_is_convolve_diamond_bit_for_bit(problem, dt):
    # one zero-noise sample from a zero anchor: the stable block is the
    # regularized convolution of the drift along the path, by the very scan
    # delta(t) is tabulated with (a node holds fewer than 128 entries, so
    # both take doubling passes)
    p = problem()
    N = int(round(2.0 / dt))
    vals = 0.1 + 0.05 * np.random.default_rng(4).standard_normal((1, N + 1, p.n_modes))
    cfg = LPConfig(c_zeta=1.0, t_fwd=N * dt, dt=dt, n_samples=1)
    got = lp_forward_map(p, ProcessEnsemble(TimeGrid(0.0, dt, N), vals),
                         np.zeros(len(p.stable_modes)), cfg).values
    want = convolve_diamond(p, p.nonlinearity.fn(vals), (dt, N), "stable")
    s = p.stable_modes
    assert np.ascontiguousarray(got[..., s]).tobytes() == want[..., s].tobytes()


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
        assert np.shares_memory(v, ens.values) and v.flags.c_contiguous
        assert np.array_equal(v, ens.values[:, a:a + len(v)].transpose(1, 2, 0))


@pytest.mark.parametrize("m", [1, 2, 4])
def test_weighted_gap_bits_do_not_depend_on_the_layout(monkeypatch, m):
    n = 3000
    rng = np.random.default_rng(m)
    a, b = rng.standard_normal((2, n, 41, m))
    times = np.linspace(-4.0, 0.0, 41)
    monkeypatch.setattr(st, "_GAP_ELEMENTS", 16 * n * m)   # chunks of 16, 16 and 9 nodes
    ref = lp._weighted_gap(a, b, times, 0.0, 0.5)

    def node_major(x):
        return np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)

    assert lp._weighted_gap(node_major(a), node_major(b), times, 0.0, 0.5) == ref
    worst = max(np.exp(-0.5 * times) * np.sqrt(np.mean(np.sum((a - b) ** 2, axis=2), axis=0)))
    assert ref == pytest.approx(worst, rel=1e-12)


def test_weighted_norm_of_an_iterate_difference_is_the_solvers_distance():
    # tau = 0, so the solver's weight e^{-gamma (t - tau)} is weighted_norm's;
    # three modes, so each sample's squares take two adds in mode order
    B = 0.05 * (np.ones((3, 3)) - np.eye(3))
    p = build_problem([1.0, -1.0, -2.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                      zeta=-0.5, nonlinearity=linear_nonlinearity(B),
                      noise=diagonal_linear_noise([0.1, 0.1, 0.1]))
    n = 256
    cfg = cfg_back(t_back=4.0, dt=1e-2, n_samples=n, seed=3)
    x = 0.3 + 0.05 * np.random.default_rng(4).standard_normal((n, 1))
    grid = lp._solver_grid(cfg, "unstable")
    wiener = sample_wiener(cfg.seed, grid, p.noise, n)
    x0 = ProcessEnsemble(grid=grid, values=lp._initial_guess(p, grid, x, "unstable"))
    x1 = lp_backward_map(p, x0, x, cfg, wiener)
    x2 = lp_backward_map(p, x1, x, cfg, wiener)
    d = lp._weighted_gap(x1.values, x2.values, grid.times, cfg.tau, p.gamma)
    assert d > 0.0
    diff = ProcessEnsemble(grid=grid, values=x1.values - x2.values)
    assert st.weighted_norm(diff, p.gamma, "backward") == d


@pytest.mark.parametrize("n, m", [(1, 8), (3, 4), (3000, 2)])
def test_weighted_gap_bits_do_not_depend_on_the_chunk(monkeypatch, n, m):
    rng = np.random.default_rng(n + m)
    a, b = rng.standard_normal((2, n, 601, m))
    times = np.linspace(-6.0, 0.0, 601)
    ref = lp._weighted_gap(a, b, times, 0.0, 0.5)
    for elements in (1, 7 * n * m, 1 << 30):       # one node, 7 nodes, the whole window
        monkeypatch.setattr(st, "_GAP_ELEMENTS", elements)
        assert lp._weighted_gap(a, b, times, 0.0, 0.5) == ref


def flux_problem(noise=None):
    from msmanifold.example_pde import build_example_problem

    m = 4
    return build_example_problem(m=m, g0=0.02 * np.eye(m), g1=0.05 * np.ones(m),
                                 g2=0.05 * np.ones(m), noise=noise)


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_zero_noise_maps_equal_maps_with_zero_increments(side):
    # zero noise adds no Ito block; a noise that is zero only in value runs
    # the Ito path with zero increments and gives the same bits
    p = flux_problem()
    p_zero_slopes = replace(p, noise=diagonal_linear_noise([0.0] * 4))
    n, dt = 2, 1e-3
    grid = TimeGrid(-2.0 if side == "unstable" else 0.0, dt, 2000)
    cfg = LPConfig(c_zeta=0.5, t_back=2.0, t_fwd=2.0, dt=dt, n_samples=n)
    wiener = sample_wiener(3, grid, p_zero_slopes.noise, n)
    anchor = [0.2] if side == "unstable" else [0.1, -0.05, 0.02]
    xi = ProcessEnsemble(grid, lp._initial_guess(p, grid, np.array([anchor] * n), side))
    step = lp_backward_map if side == "unstable" else lp_forward_map
    lean = step(p, xi, anchor, cfg).values
    ito = step(p_zero_slopes, xi, anchor, cfg, wiener).values
    assert lean.tobytes() == ito.tobytes()


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_maps_write_into_a_given_output_bit_for_bit(side):
    p = flux_problem()
    grid = TimeGrid(-1.0 if side == "unstable" else 0.0, 1e-3, 1000)
    cfg = LPConfig(c_zeta=0.5, t_back=1.0, t_fwd=1.0, dt=1e-3, n_samples=2)
    anchor = [0.2] if side == "unstable" else [0.1, -0.05, 0.02]
    xi = ProcessEnsemble(grid, lp._initial_guess(p, grid, np.array([anchor] * 2), side))
    step = lp_backward_map if side == "unstable" else lp_forward_map
    fresh = step(p, xi, anchor, cfg).values
    spare = np.full((1001, 4, 2), np.nan).transpose(2, 0, 1)
    got = step(p, xi, anchor, cfg, out=spare).values
    assert np.shares_memory(got, spare) and got.tobytes() == fresh.tobytes()
    with pytest.raises(ConfigError, match="its own input"):
        step(p, xi, anchor, cfg, out=xi.values)
    with pytest.raises(ConfigError, match="node-major"):
        step(p, xi, anchor, cfg, out=np.empty((2, 1001, 4)))
    with pytest.raises(ConfigError, match="node-major"):
        step(p, xi, anchor, cfg, out=np.empty((1001, 2, 4)).swapaxes(0, 1))


def test_solves_reuse_the_dead_iterates_storage(monkeypatch):
    # every map after the first writes over the iterate two steps back
    p = flux_problem()
    cfg = LPConfig(c_zeta=0.5, t_back=6.0, dt=1e-2, n_samples=1, tol=1e-6)
    outs, inputs = [], []

    def recording(p, xi, x, cfg, wiener=None, *, out=None, features=None):
        inputs.append(xi.values)
        outs.append(out)
        return lp._lp_map("unstable", p, xi, x, cfg, wiener, out, features)

    monkeypatch.setattr(lp, "lp_backward_map", recording)
    ens, trace = lp.lp_backward_solve(p, [0.2], cfg)
    assert trace.converged and len(outs) == trace.iterations + 1 >= 3
    assert outs[0] is None
    for k in range(1, len(outs)):
        assert outs[k] is inputs[k - 1]


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
        blocks = np.ascontiguousarray(x.swapaxes(1, 2))     # (node, mode, sample)
        for among in [np.ones(9, dtype=bool), full, ~full, np.arange(9) % 2 == 0]:
            assert np.array_equal(lp._varying_nodes(blocks, among), among & full)


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
    ito0 = lp._forward_pass(p, vals, np.zeros((51, m, n)), None, dt, wiener, 0.0)
    weight = np.exp(-np.outer(np.arange(51) * dt, p.eigenvalues[unstable]))
    want = np.zeros((len(unstable), n))
    for a, v, _, ito in lp._forcing_blocks(p, vals, None, dt, wiener):
        want += (ito[:, unstable] * weight[a:a + len(v), :, None]).sum(axis=0)
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
        (101, 2, 8))).transpose(2, 0, 1)
    before = vals.copy()
    for a, v, half, _ in lp._forcing_blocks(p, vals, None, 1e-2, None):
        rows = v.swapaxes(1, 2)
        want = 0.5 * 1e-2 * drift(rows.reshape(-1, 2)).reshape(rows.shape)
        assert np.array_equal(half, want.swapaxes(1, 2))
    assert np.array_equal(vals, before)


@pytest.mark.parametrize("alias", ["own", "a", "b"])
def test_forcing_blocks_add_boundary_terms_into_an_unaliased_f_only(alias):
    # a triple's f takes the boundary terms in place unless a or b view it
    from msmanifold.resolvent import BoundaryTriple, forcing_modes

    def fn(v):
        f = 0.1 * v
        a = f[..., 0] if alias == "a" else 0.2 * v[..., 0]
        b = f[..., 1] if alias == "b" else -0.3 * v[..., 1]
        return BoundaryTriple(a=a, b=b, f=f)

    base = flux_problem()
    p = replace(base, nonlinearity=replace(base.nonlinearity, fn=fn))
    cols = lp.solver_boundary_columns(p)
    vals = 0.1 + 0.05 * np.random.default_rng(6).standard_normal((1, 201, 4))
    for a, v, half, _ in lp._forcing_blocks(p, vals, cols, 1e-2, None):
        t = fn(v.swapaxes(1, 2).reshape(-1, 4))
        fresh = BoundaryTriple(a=t.a.copy(), b=t.b.copy(), f=t.f.copy())
        want = forcing_modes(fresh, cols) * (0.5 * 1e-2)
        assert half.swapaxes(1, 2).reshape(want.shape).tobytes() == want.tobytes()


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
    assert got.transpose(1, 2, 0).flags.c_contiguous
    assert got.transpose(1, 2, 0).tobytes() == want.transpose(0, 2, 1).tobytes()


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


@pytest.mark.parametrize("step, start, direction", [(lp_backward_map, -1.0, "backward"),
                                                    (lp_forward_map, 0.0, "forward")])
def test_nonfinite_map_names_the_first_node_its_time_and_sample(step, start, direction):
    # F is infinite exactly where a coordinate of the state is nonzero: the
    # stable coordinate turns on at node 40 of sample 2 and at node 70 of
    # sample 1, and the stable value is the first to go non-finite there
    p = overflowing_problem()
    grid = TimeGrid(start, 1e-2, 100)
    vals = np.zeros((3, 101, 2))
    vals[2, 40:, 1] = 0.5
    vals[1, 70:, 1] = 0.5
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, t_fwd=1.0, dt=1e-2, force=True)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonfiniteState, match=f"{direction} map") as info:
            step(p, ProcessEnsemble(grid, vals), [0.3], cfg)
    assert (info.value.step, info.value.sample) == (40, 2)
    assert f"grid node 40 (t = {grid.times[40]:.6g}), sample 2" in str(info.value)


@pytest.mark.parametrize("step, side, direction", [(lp_backward_map, "unstable", "backward"),
                                                   (lp_forward_map, "stable", "forward")])
def test_an_overflowing_flux_drift_is_the_maps_nonfinite_state(step, side, direction):
    # the example's own flux model builds its triple unchecked, so a finite
    # state whose drift overflows is refused where the map checks its
    # output, naming the node, not as a ConfigError of the triple
    m = 4
    p = build_example_problem(m=m, g0=10.0 * np.eye(m), g1=0.05 * np.ones(m),
                              g2=0.05 * np.ones(m))
    cfg = LPConfig(c_zeta=0.5, t_back=1.0, t_fwd=1.0, dt=1e-2, force=True)
    grid = lp._solver_grid(cfg, side)
    vals = np.zeros((2, grid.n_nodes, m))
    vals[:, 30, 1] = 1e308
    x = [0.1] if side == "unstable" else [0.0] * (m - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonfiniteState, match=f"{direction} map") as info:
            step(p, ProcessEnsemble(grid, vals), x, cfg)
    assert (info.value.step, info.value.sample) == (30, 0)
    assert f"grid node 30 (t = {grid.times[30]:.6g}), sample 0" in str(info.value)


def numpy_state():
    return np.getbufsize(), np.geterr()


def lsmc_shaped_inputs(side, n=1024):
    # the lsmc_unstable benchmark's problem on a short window: a random
    # anchor and an iterate one map away from the semigroup guess, so
    # every node regresses
    p = all_to_all_problem(4, [0, 1])
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, t_fwd=1.0, dt=2e-2, tol=1e-4, n_samples=n)
    grid = lp._solver_grid(cfg, side)
    wiener = sample_wiener(3, grid, p.noise, n)
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (n, 2))
    idx = np.arange(2) if side == "unstable" else np.arange(2, 4)
    anchor, _ = _normalize_anchor(x, idx, 4, n)
    step = lp_backward_map if side == "unstable" else lp_forward_map
    xi = step(p, ProcessEnsemble(grid, lp._initial_guess(p, grid, anchor, side)),
              x, cfg, wiener)
    return p, cfg, xi, x, wiener, step


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_maps_and_regressions_keep_their_bits_under_any_ufunc_buffer(side):
    # a full-ensemble map lowers numpy's buffer to its sample rows; no bit
    # may depend on the buffer the caller runs with, and the caller's
    # buffer and error handling are restored
    p, cfg, xi, x, wiener, step = lsmc_shaped_inputs(side)
    nodes = st._by_node(xi.values)[:16]
    basis = cfg.basis_for(p)
    results = []
    for size in (8192, 1024, 64):
        with np.errstate(over="ignore"):
            np.setbufsize(size)
            before = numpy_state()
            out = step(p, xi, x, cfg, wiener).values
            fit = condexp_lsmc(nodes[:, :2].swapaxes(1, 2), nodes.swapaxes(1, 2), basis)
            assert numpy_state() == before
        results.append((out.tobytes(), fit.fitted.tobytes()))
    assert results[1] == results[0] and results[2] == results[0]


def test_a_map_runs_with_the_sample_row_buffer_and_the_callers_error_handling():
    # the drift sees the buffer lowered to the 1024-sample rows, and the
    # caller's np.errstate; a one-sample map keeps numpy's default buffer
    seen = []

    def drift(v):
        seen.append((np.getbufsize(), np.geterr()["over"]))
        return 0.03 * v

    p, cfg, xi, x, wiener, _ = lsmc_shaped_inputs("unstable")
    p = replace(p, nonlinearity=callable_nonlinearity(drift, m=4, lipschitz_L1=0.12))
    default = np.getbufsize()
    with np.errstate(over="ignore"):
        lp_backward_map(p, xi, x, cfg, wiener)
    assert seen and set(seen) == {(min(default, 1024), "ignore")}
    seen.clear()
    one = ProcessEnsemble(xi.grid, xi.values[:1])
    lp_backward_map(replace(p, noise=zero_noise(4)), one, x[0], cfg)
    assert seen and set(seen) == {(default, "warn")}


def test_numpy_state_is_restored_after_certified_and_refused_solves():
    p = all_to_all_problem(4, [0, 1])
    cfg = LPConfig(c_zeta=1.0, t_back=10.5, dt=5e-2, tol=1e-4, n_samples=256, seed=2)
    with np.errstate(over="ignore"):
        np.setbufsize(4096)
        before = numpy_state()
        graph = unstable_graph(p, np.array([0.3, -0.2]), cfg)
        assert graph.trace.converged and numpy_state() == before
        with pytest.raises(GapViolation):
            lp_forward_solve(saturated_mixing_problem(), [0.05],
                             LPConfig(c_zeta=1.0, t_fwd=6.0, dt=1e-2, tol=1e-6))
        assert numpy_state() == before
    # a map of 128 samples that overflows runs under the caller's
    # errstate (a RuntimeWarning is a test error here) and is refused as
    # the map's NonfiniteState, after which the state is the caller's
    vals = np.zeros((128, 101, 2))
    vals[2, 40:, 1] = 0.5
    ens = ProcessEnsemble(TimeGrid(-1.0, 1e-2, 100), vals)
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, dt=1e-2, force=True)
    with np.errstate(invalid="ignore"):
        before = numpy_state()
        with pytest.raises(NonfiniteState, match="backward map") as info:
            lp_backward_map(overflowing_problem(), ens, [0.3], cfg)
        assert numpy_state() == before
    assert (info.value.step, info.value.sample) == (40, 2)


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


def test_a_misspelt_side_is_refused():
    # read as the stable side before: lipschitz_bound returned its bound
    p = one_way(noise=diagonal_linear_noise([0.1, 0.1]))
    cfg = cfg_back(t_back=4.0, dt=1e-2, n_samples=16)
    with pytest.raises(ConfigError, match="unknown side 'unstabel'"):
        lp.gap_report_for(p, cfg).verdict("unstabel")
    with pytest.raises(ConfigError, match="unknown side"):
        lipschitz_bound(p, cfg, "unstabel")
    with pytest.raises(ConfigError, match="unknown side"):
        lipschitz_certify(p, cfg, "unstabel", [([0.2], [0.4])])


def test_invariance_residual_refuses_a_misspelt_side_before_drawing_noise(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("noise drawn for a refused request")

    monkeypatch.setattr(lp, "sample_wiener", no_draw)
    p = one_way(noise=diagonal_linear_noise([0.1, 0.1]))
    cfg = cfg_back(t_back=4.0, dt=1e-2, n_samples=16)
    with pytest.raises(ConfigError, match="unknown side"):
        invariance_residual(p, [0.3], cfg, t0=0.5, side="Stable")


def test_no_lipschitz_bound_past_the_gap():
    # eta = 9.1 and delta = 9.2: 1/(1 - contraction) made both bounds negative
    B = np.array([[0.0, 3.0], [3.0, 0.0]])
    p = build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                      zeta=-0.5, nonlinearity=linear_nonlinearity(B),
                      noise=diagonal_linear_noise([0.1, 0.1]))
    cfg = cfg_back()
    gap = lp.gap_report_for(p, cfg)
    assert gap.eta > 1.0 and gap.delta > 1.0
    assert lipschitz_bound(p, cfg, "unstable") == math.inf
    assert lipschitz_bound(p, cfg, "stable") == math.inf
    # forced past eta = 1.2 on a weak coupling that still converges: the
    # ratios are measured, and without a bound nothing is certified
    weak = one_way()
    forced = cfg_back(c_zeta=10.0, force=True)
    assert not lp.gap_report_for(weak, forced).pass_unstable
    cert = lipschitz_certify(weak, forced, "unstable", [([0.2], [0.4])])
    assert cert.theoretical == math.inf
    assert cert.empirical == pytest.approx(0.1 / 3.0, abs=1e-6)
    assert not cert.passed


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_a_map_applies_the_operator_past_the_gap(side):
    # eta = 9.1 and delta = 9.2: only the iteration needs the contraction,
    # so the solve refuses the request and the map is the same operator
    # with or without force
    B = np.array([[0.0, 3.0], [3.0, 0.0]])
    p = build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                      zeta=-0.5, nonlinearity=linear_nonlinearity(B),
                      noise=diagonal_linear_noise([0.1, 0.1]))
    n = 32
    cfg = LPConfig(c_zeta=1.0, t_back=1.0, t_fwd=1.0, dt=1e-2, n_samples=n)
    assert not lp.gap_report_for(p, cfg).verdict(side)[2]
    grid = lp._solver_grid(cfg, side)
    wiener = sample_wiener(4, grid, p.noise, n)
    rng = np.random.default_rng(8)
    xi = ProcessEnsemble(grid, 0.1 + 0.05 * rng.standard_normal((n, grid.n_nodes, 2)))
    x = 0.3 + 0.1 * rng.standard_normal((n, 1))
    step, solve = ((lp_backward_map, lp_backward_solve) if side == "unstable"
                   else (lp_forward_map, lp_forward_solve))
    free = step(p, xi, x, cfg, wiener)
    forced = step(p, xi, x, replace(cfg, force=True), wiener)
    assert free.values.tobytes() == forced.values.tobytes()
    with pytest.raises(GapViolation, match=f"{side} gap condition fails"):
        solve(p, x, cfg)


@pytest.mark.parametrize("eps, slope", [(0.1, 0.1), (0.07, 0.0), (0.013, 0.21), (0.0, 0.3)])
def test_gap_constants_and_lipschitz_bounds_keep_their_bits_at_unit_K(eps, slope):
    # the closed forms as they were written before the four gap terms were
    # spelled once; at K = 1 the terms add up to the same bits
    p = one_way(eps=eps, noise=diagonal_linear_noise([slope, slope]))
    K, L1, L2 = p.bound_K, p.nonlinearity.lipschitz_L1, p.noise.lipschitz_L2
    ag = p.alpha - p.gamma
    assert K == 1.0
    for c in (0.5, 1.0, 0.25, 0.3, 0.7):
        cfg = cfg_back(c_zeta=c)
        gap = lp.gap_report_for(p, cfg)
        eta = K * (L1 / ag + L1 * c + L2 * c)
        delta = K * (L1 / ag + L2 / np.sqrt(2.0 * ag) + L1 * c + L2 * c)
        assert (gap.eta, gap.delta) == (eta, delta)
        assert lipschitz_bound(p, cfg, "stable") == \
            K ** 2 * (L1 / ag + L2 / np.sqrt(2.0 * ag)) / (1.0 - delta)
        # K*C*(L1 + L2) is now K*L1*C + K*L2*C: the same bits when C is a
        # power of two, as in the shipped configs, else within rounding
        old = K * c * (L1 + L2) / (1.0 - eta)
        new = lipschitz_bound(p, cfg, "unstable")
        if math.frexp(c)[0] == 0.5:
            assert new == old
        else:
            assert new == pytest.approx(old, rel=1e-15, abs=0.0)


def test_invariance_residual_small_on_linear_manifold():
    p = one_way()
    r = invariance_residual(p, [0.3], cfg_back(), t0=0.5, side="unstable")
    assert r <= 1e-3


def test_invariance_residual_validates_t0():
    p = one_way()
    with pytest.raises(ConfigError):
        invariance_residual(p, [0.3], cfg_back(), t0=0.0003)


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_zero_noise_invariance_residual_is_second_order_in_dt(side):
    # the flow integrates by the maps' own quadrature rule, so the residual
    # measures the graph, not the gap between two integrators: it is small
    # and falls as dt^2 on the forced example
    p = flux_problem()
    anchor = np.full(1 if side == "unstable" else 3, 0.1)
    residuals = [invariance_residual(p, anchor,
                                     LPConfig(c_zeta=0.5, t_back=8.5, t_fwd=8.5, dt=dt,
                                              tol=1e-7, n_samples=2),
                                     t0=1.0, side=side)
                 for dt in (1e-2, 5e-3)]
    assert residuals[0] <= 1e-4, residuals
    assert residuals[0] >= 3.0 * residuals[1], residuals


# ------------------------------------------------------------- config guards

def test_config_rejects_nonpositive_shapes():
    with pytest.raises(ConfigError):
        LPConfig(c_zeta=0.0).validate()
    with pytest.raises(ConfigError):
        LPConfig(c_zeta=1.0, tol=0.0).validate()
    with pytest.raises(ConfigError):
        LPConfig(c_zeta=1.0, t_back=-1.0).validate()


def test_window_must_be_multiple_of_dt():
    p = decoupled()
    with pytest.raises(ConfigError):
        lp_backward_solve(p, [0.1], LPConfig(c_zeta=1.0, t_back=1.0005,
                                             dt=1e-2, tol=1e-8))


@pytest.mark.parametrize("field, value, says", [
    ("dt", math.nan, "dt must be a finite number, got nan"),
    ("tol", math.nan, "tol must be a finite number, got nan"),
    ("t_back", math.inf, "t_back must be a finite number, got inf"),
    ("n_samples", 2.5, "n_samples must be an integer, got 2.5"),
    ("max_iter", True, "max_iter must be an integer, got True"),
    ("c_zeta", None, "c_zeta must be a finite number, got None"),
])
def test_config_refuses_nonfinite_numbers_and_fractional_counts(field, value, says):
    # refused where the config is built, naming the field and its value
    with pytest.raises(ConfigError) as info:
        LPConfig(**{"c_zeta": 1.0, field: value})
    assert str(info.value) == says


def test_config_takes_numpy_counts_and_keeps_the_max_iter_message():
    assert LPConfig(c_zeta=1.0, n_samples=np.int64(3), max_iter=np.int32(2)).n_samples == 3
    with pytest.raises(ConfigError, match="max_iter must be >= 1"):
        LPConfig(c_zeta=1.0, max_iter=0)
    with pytest.raises(ConfigError, match="n_samples must be >= 1, got 0"):
        replace(LPConfig(c_zeta=1.0), n_samples=0)


def test_invariance_residual_refuses_a_nan_t0():
    with pytest.raises(ConfigError, match="t0 nan is not a whole number"):
        invariance_residual(one_way(), [0.3], cfg_back(t_back=2.0, dt=1e-2), t0=math.nan)


@pytest.mark.parametrize("anchor", [[math.nan], [[math.nan]], [math.inf, 0.0]])
def test_nonfinite_anchor_is_a_config_error(anchor):
    # zero noise: a NaN anchor once reached the regression and was refused
    # as underdetermined
    with pytest.raises(ConfigError, match="anchor has a non-finite entry"):
        unstable_graph(one_way(), anchor, cfg_back(t_back=2.0, dt=1e-2, n_samples=1))
