"""The certificates of a graph come from one residual map: the map applied
once more to the fixed point gives trace.residual over the window and the
consistency gap at the anchor node. A graph that does not converge is
refused with its side, last distance and limits, and an invariance request
draws its noise once."""
from dataclasses import replace

import numpy as np
import pytest

import msmanifold.lyapunov_perron as lp
from msmanifold.errors import ConsistencyFailure, MaxIterExceeded
from msmanifold import (
    LPConfig,
    RegressionBasis,
    TimeGrid,
    build_problem,
    condexp_lsmc,
    diagonal_linear_noise,
    integrate_mild,
    invariance_residual,
    linear_nonlinearity,
    lp_backward_map,
    lp_forward_map,
    ms_norm,
    sample_wiener,
    stable_graph,
    unstable_graph,
)

N_SAMPLES = 64


def two_way_noisy():
    B = np.array([[0.0, 0.05], [0.05, 0.0]])
    return build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                         zeta=-0.5, nonlinearity=linear_nonlinearity(B),
                         noise=diagonal_linear_noise([0.1, 0.1]))


def config():
    return LPConfig(c_zeta=1.0, t_back=12.0, t_fwd=25.0, dt=5e-2, tol=1e-5,
                    n_samples=N_SAMPLES, seed=5, max_iter=40)


def anchors():
    rng = np.random.default_rng(3)
    return {"deterministic": [0.3],
            "random": 0.3 + 0.05 * rng.standard_normal((N_SAMPLES, 1))}


SIDES = {"unstable": (unstable_graph, "lp_backward_map", lp_backward_map),
         "stable": (stable_graph, "lp_forward_map", lp_forward_map)}


@pytest.mark.parametrize("anchor", ["deterministic", "random"])
@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_graph_draws_the_noise_once_and_runs_one_residual_map(monkeypatch, side, anchor):
    graph_of, map_name, step = SIDES[side]
    draws, maps = [], []

    def counting_draw(*args, **kwargs):
        draws.append(args)
        return sample_wiener(*args, **kwargs)

    def counting_map(*args, **kwargs):
        maps.append(args)
        return step(*args, **kwargs)

    monkeypatch.setattr(lp, "sample_wiener", counting_draw)
    monkeypatch.setattr(lp, map_name, counting_map)
    g = graph_of(two_way_noisy(), anchors()[anchor], config())
    assert len(draws) == 1
    assert len(maps) == g.trace.iterations + 1


@pytest.mark.parametrize("anchor", ["deterministic", "random"])
@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_consistency_gap_is_the_residual_maps_anchor_node(side, anchor):
    graph_of, _, step = SIDES[side]
    p, cfg, x = two_way_noisy(), config(), anchors()[anchor]
    g = graph_of(p, x, cfg)
    grid = g.process.grid
    wiener = sample_wiener(cfg.seed, grid, p.noise, g.n_samples)
    again = step(p, g.process, x, cfg, wiener).values
    node = grid.n_steps if side == "unstable" else 0
    assert g.consistency_gap == ms_norm(g.h_value - again[:, node, g.value_idx])
    assert 0.0 < g.consistency_gap <= g.trace.residual <= cfg.tol


def test_consistency_failure_names_side_time_node_and_limit(monkeypatch):
    p, cfg, x = two_way_noisy(), config(), [0.3]
    residual_call = unstable_graph(p, x, cfg).trace.iterations + 1
    calls = []
    shift = 10.0 * cfg.tol

    def shifted(*args, **kwargs):
        out = lp_backward_map(*args, **kwargs)
        calls.append(None)
        if len(calls) == residual_call:
            out.values[:, -1, 1] += shift
        return out

    monkeypatch.setattr(lp, "lp_backward_map", shifted)
    with pytest.raises(ConsistencyFailure) as info:
        unstable_graph(p, x, cfg)
    exc = info.value
    assert exc.limit == 2.0 * cfg.tol
    assert exc.gap == pytest.approx(shift, rel=1e-2)
    n_steps = round(cfg.t_back / cfg.dt)
    assert "unstable graph at tau = 0" in str(exc)
    assert f"anchor node {n_steps}" in str(exc)


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_nonconvergence_names_side_distance_and_limits(side):
    graph_of = SIDES[side][0]
    cfg = replace(config(), max_iter=1)
    with pytest.raises(MaxIterExceeded) as info:
        graph_of(two_way_noisy(), [0.3], cfg)
    exc = info.value
    assert (exc.side, exc.tol, exc.max_iter) == (side, cfg.tol, 1)
    assert exc.distance == exc.trace.distances[-1] > cfg.tol
    assert str(exc).startswith(f"{side} side: ")
    assert f"{exc.distance:.3e}" in str(exc)


def three_draw_residual(p, x, cfg, t0, side):
    """invariance_residual with each graph and the flow drawing its own
    window of the noise."""
    graph_of = SIDES[side][0]
    steps = round(t0 / cfg.dt)
    g1 = graph_of(p, x, cfg)
    grid_f = TimeGrid(cfg.tau, cfg.dt, steps)
    flow = integrate_mild(p, g1.point(), grid_f,
                          sample_wiener(cfg.seed, grid_f, p.noise, g1.n_samples))
    end = flow.values[:, -1, :]
    anchor2 = end[:, g1.anchor_idx]
    g2 = graph_of(p, anchor2, replace(cfg, tau=cfg.tau + steps * cfg.dt,
                                      n_samples=g1.n_samples))
    basis = RegressionBasis(kind=cfg.basis_kind, degree=cfg.basis_degree,
                            primary_idx=tuple(range(anchor2.shape[1])))
    return ms_norm(condexp_lsmc(end[:, g1.value_idx] - g2.h_value, anchor2, basis).fitted)


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_invariance_draws_once_and_equals_three_draws(monkeypatch, side):
    p, cfg, t0 = two_way_noisy(), config(), 0.5
    want = three_draw_residual(p, [0.15], cfg, t0, side)
    draws = []

    def counting_draw(*args, **kwargs):
        draws.append(args)
        return sample_wiener(*args, **kwargs)

    monkeypatch.setattr(lp, "sample_wiener", counting_draw)
    assert invariance_residual(p, [0.15], cfg, t0, side) == want
    assert len(draws) == 1
