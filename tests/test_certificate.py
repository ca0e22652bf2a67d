"""The certificates of a graph come from one residual map: the map applied
once more to the fixed point gives trace.residual over the window and the
consistency gap at the anchor node. A graph that does not converge is
refused with its side, last distance and limits, and an invariance request
draws its noise once. A deterministic anchor's one-sample zero-noise
presolve runs its own maps on one sample, apart from the ensemble's: it is
the whole solve of a zero-noise request, and the first guess of a noisy
one."""
import math
import sys
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import msmanifold.lyapunov_perron as lp
from msmanifold.errors import ConsistencyFailure, GridMismatch, MaxIterExceeded, NonfiniteState
from msmanifold import (
    LPConfig,
    ProcessEnsemble,
    RegressionBasis,
    TimeGrid,
    build_example_problem,
    build_problem,
    condexp_lsmc,
    diagonal_linear_noise,
    gap_report,
    integrate_mild,
    invariance_residual,
    linear_nonlinearity,
    lp_backward_map,
    lp_backward_solve,
    lp_forward_map,
    lp_forward_solve,
    ms_norm,
    sample_wiener,
    saturated_noise,
    stable_graph,
    unstable_graph,
    zero_noise,
)

N_SAMPLES = 64


def two_way_noisy(slope=0.1):
    B = np.array([[0.0, 0.05], [0.05, 0.0]])
    return build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5,
                         zeta=-0.5, nonlinearity=linear_nonlinearity(B),
                         noise=diagonal_linear_noise([slope, slope]))


def config():
    return LPConfig(c_zeta=1.0, t_back=12.0, t_fwd=25.0, dt=5e-2, tol=1e-5,
                    n_samples=N_SAMPLES, seed=5, max_iter=40)


def anchors():
    rng = np.random.default_rng(3)
    return {"deterministic": [0.3],
            "random": 0.3 + 0.05 * rng.standard_normal((N_SAMPLES, 1))}


SIDES = {"unstable": (unstable_graph, "lp_backward_map", lp_backward_map),
         "stable": (stable_graph, "lp_forward_map", lp_forward_map)}


def solved_graph(side, p, x, cfg):
    """(graph, path) of one solve: the side's graph, as unstable_graph and
    stable_graph build it, and the fixed point's whole path, which the
    graph does not keep."""
    if side == "unstable":
        ens, trace = lp_backward_solve(p, x, cfg)
    else:
        ens, trace, membership = lp_forward_solve(p, x, cfg)
        assert membership
    return lp._graph(side, p, x, ens, trace, cfg.tau), ens


def held_arrays(obj):
    """The arrays that own the memory of every array obj holds, through
    dataclass fields, dicts, lists and tuples: a view counts as its base."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        yield obj
    elif is_dataclass(obj) and not isinstance(obj, type):
        for f in fields(obj):
            yield from held_arrays(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from held_arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from held_arrays(value)


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_a_noisy_graph_holds_no_array_of_its_paths_size(side):
    # the path is n (N+1) m floats; the graph holds n-row values, its
    # certificates and an (N+1)-row summary
    p, cfg, x = two_way_noisy(), config(), anchors()["random"]
    g, path = solved_graph(side, p, x, cfg)
    assert g.path.shape == (path.grid.n_nodes, p.n_modes + 2)
    held = {id(a): a.nbytes for a in held_arrays(g)}
    assert sum(held.values()) < path.values.nbytes / 10


def presolve_maps(side, anchor):
    """The maps of the zero-noise one-sample presolve of a deterministic
    anchor: its iterations, and no residual map; none for a random anchor."""
    if anchor == "random":
        return 0
    p = two_way_noisy()
    quiet = replace(p, noise=zero_noise(p.n_modes))
    g = SIDES[side][0](quiet, anchors()[anchor], replace(config(), n_samples=1))
    return g.trace.iterations


@pytest.mark.parametrize("anchor", ["deterministic", "random"])
@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_graph_draws_the_noise_once_and_runs_one_residual_map(monkeypatch, side, anchor):
    graph_of, map_name, step = SIDES[side]
    one_sample = presolve_maps(side, anchor)
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
    sizes = [args[1].n_samples for args in maps]
    assert sizes.count(N_SAMPLES) == g.trace.iterations + 1
    assert sizes.count(1) == one_sample
    assert len(sizes) == g.trace.iterations + 1 + one_sample


def counted(monkeypatch, fn):
    """The calls of ``fn``, wrapped at every module binding of the package."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "msmanifold" or name.startswith("msmanifold.")):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counting)
    return calls


@pytest.mark.parametrize("noise", ["noisy", "quiet"])
@pytest.mark.parametrize("anchor", ["deterministic", "random"])
@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_a_graph_checks_its_request_once(monkeypatch, side, anchor, noise):
    # the solve builds the gap report and bounds the truncation tail; its
    # maps, one-sample presolve and residual map check neither again
    p = two_way_noisy()
    if noise == "quiet":
        p = replace(p, noise=zero_noise(p.n_modes))
    reports = counted(monkeypatch, gap_report)
    tails = counted(monkeypatch, lp._truncation_check)
    g = SIDES[side][0](p, anchors()[anchor], config())
    assert g.trace.converged and g.trace.gap is not None
    assert (len(reports), len(tails)) == (1, 1)


def spied_features(monkeypatch, side):
    """The features each full-ensemble map of the side is given, in call
    order, recorded at the map's module binding."""
    _, map_name, step = SIDES[side]
    given = []

    def spying(*args, **kwargs):
        if args[1].n_samples == N_SAMPLES:
            given.append(kwargs.get("features"))
        return step(*args, **kwargs)

    monkeypatch.setattr(lp, map_name, spying)
    return given


@pytest.mark.parametrize("anchor", ["deterministic", "random"])
@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_consistency_gap_is_the_residual_maps_anchor_node(monkeypatch, side, anchor):
    step = SIDES[side][2]
    p, cfg, x = two_way_noisy(), config(), anchors()[anchor]
    given = spied_features(monkeypatch, side)
    g, path = solved_graph(side, p, x, cfg)
    grid = path.grid
    wiener = sample_wiener(cfg.seed, grid, p.noise, g.n_samples)
    # the residual map regresses on the solve's frozen features
    again = step(p, path, x, cfg, wiener, features=given[-1]).values
    node = grid.n_steps if side == "unstable" else 0
    assert g.consistency_gap == ms_norm(g.h_value - again[:, node, g.value_idx])
    assert 0.0 < g.consistency_gap <= g.trace.residual <= cfg.tol


@pytest.mark.parametrize("anchor", ["deterministic", "random"])
@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_a_solve_regresses_every_map_on_one_frozen_iterate(monkeypatch, side, anchor):
    # the first iterate that varies across the samples is frozen once: a
    # random anchor's guess, else the first map's output, where the noise
    # has entered the stable modes and the fitted ones are still constant.
    # Every later map, the residual map included, gets that one object; it
    # shares no memory with any iterate and holds the varying columns as
    # float32 and no constant column, which spans only the intercept
    _, map_name, step = SIDES[side]
    p, cfg, x = two_way_noisy(), config(), anchors()[anchor]
    given, iterates, first = [], [], []

    def spying(p, xi, *args, **kwargs):
        result = step(p, xi, *args, **kwargs)
        if xi.n_samples == N_SAMPLES:
            given.append(kwargs.get("features"))
            iterates.extend([xi.values, result.values])
            if not first:
                first.extend([np.array(xi.values), np.array(result.values)])
        return result

    monkeypatch.setattr(lp, map_name, spying)
    g = SIDES[side][0](p, x, cfg)
    assert len(given) == g.trace.iterations + 1
    frozen = given[-1]
    assert isinstance(frozen, lp.FrozenFeatures)
    set_at = 0 if anchor == "random" else 1
    assert given[:set_at] == [None] * set_at
    assert all(f is frozen for f in given[set_at:])
    assert not any(np.shares_memory(frozen.varying, it) for it in iterates)

    source = first[set_at]        # (n, N+1, m): the guess or the first output
    vary = tuple(g.anchor_idx) if anchor == "random" else tuple(p.stable_modes)
    const = tuple(k for k in range(p.n_modes) if k not in vary)
    for k in range(p.n_modes):
        assert np.all(source[:, :, k] == source[:1, :, k]) == (k in const)
    assert frozen.varying_modes == vary and frozen.shape == source.shape
    assert [f.name for f in fields(frozen)] == ["varying_modes", "varying", "shape"]
    n_nodes = source.shape[1]
    assert frozen.varying.dtype == np.float32
    assert frozen.varying.shape == (n_nodes, len(vary), N_SAMPLES)
    assert np.array_equal(frozen.varying,
                          source[:, :, list(vary)].transpose(1, 2, 0).astype(np.float32))
    # a map reads them as float64 (node, column, sample) blocks, and
    # regresses on its basis restricted to them
    block = frozen.block(3, 7)
    assert block.dtype == np.float64 and block.shape == (4, len(vary), N_SAMPLES)
    assert np.array_equal(block, frozen.varying[3:7])
    basis = frozen.basis(cfg.basis_for(p))
    primary = vary == tuple(p.unstable_modes)
    assert (basis.primary_idx, basis.linear_idx) == (((0,), ()) if primary else ((), (0,)))


def two_unstable_noisy():
    return build_problem([1.5, 1.0, -1.0, -2.0], [0, 1], alpha=1.0, beta=-1.0, gamma=0.5,
                         zeta=-0.5, nonlinearity=linear_nonlinearity(0.03 * np.ones((4, 4))),
                         noise=diagonal_linear_noise([0.1] * 4))


def test_a_column_constant_at_every_node_leaves_the_frozen_basis(monkeypatch):
    # a per-sample anchor whose first coordinate is the same on every
    # sample: the frozen guess varies in the second unstable mode alone, so
    # the solve's maps regress on one primary, whose monomials span what
    # the full basis spans on the same state
    p, cfg = two_unstable_noisy(), config()
    rng = np.random.default_rng(8)
    x = np.column_stack([np.full(N_SAMPLES, 0.1), 0.1 + 0.02 * rng.standard_normal(N_SAMPLES)])
    given = spied_features(monkeypatch, "unstable")
    g = unstable_graph(p, x, cfg)
    frozen = given[0]
    assert all(f is frozen for f in given) and frozen.varying_modes == (1,)
    basis = frozen.basis(cfg.basis_for(p))
    assert (basis.primary_idx, basis.linear_idx, basis.size) == ((0,), (), 3)
    assert g.trace.regression["basis_size"] == 3
    # one map from a guess already in float32, so the frozen state and the
    # guess are the same numbers: the map without features regresses on the
    # full basis of the guess
    grid = lp._solver_grid(cfg, "unstable")
    guess = lp._initial_guess(p, grid, x, "unstable").astype(np.float32).astype(float)
    xi = ProcessEnsemble(grid, guess)
    wiener = sample_wiener(cfg.seed, grid, p.noise, N_SAMPLES)
    restricted = lp_backward_map(p, xi, x, cfg, wiener, features=lp.FrozenFeatures.of(guess))
    full = lp_backward_map(p, xi, x, cfg, wiener)
    fits = full.meta["regression"], restricted.meta["regression"]
    assert (fits[0]["basis_size"], fits[1]["basis_size"]) == (8, 3)
    assert fits[0]["n_regressions"] == fits[1]["n_regressions"] > 0
    assert np.max(np.abs(full.values - restricted.values)) <= 1e-12


def test_a_map_refuses_features_of_another_shape():
    p, cfg, x = two_way_noisy(), config(), anchors()["random"]
    grid = lp._solver_grid(cfg, "unstable")
    guess = lp._initial_guess(p, grid, x, "unstable")
    wiener = sample_wiener(cfg.seed, grid, p.noise, N_SAMPLES)
    half = lp.FrozenFeatures.of(guess[:N_SAMPLES // 2])
    with pytest.raises(GridMismatch, match="features of shape"):
        lp_backward_map(p, ProcessEnsemble(grid, guess), x, cfg, wiener, features=half)


def test_consistency_failure_names_side_time_node_and_limit(monkeypatch):
    p, cfg, x = two_way_noisy(), config(), [0.3]
    residual_call = unstable_graph(p, x, cfg).trace.iterations + 1
    calls = []
    shift = 10.0 * cfg.tol

    def shifted(*args, **kwargs):
        out = lp_backward_map(*args, **kwargs)
        if args[1].n_samples != N_SAMPLES:    # the presolve's one-sample maps
            return out
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


def hand_run(side, p, x, cfg, guess, wiener=None, maps=None):
    """The public maps iterated from ``guess`` (n, N+1, m) as the solver's
    loop runs them: until a distance is at most tol, or ``maps`` times.
    The first iterate that varies across the samples, the guess or a map's
    output, is frozen as the features of every later map; until then each
    map regresses on its own input. The maps store in the guess's dtype.
    Returns the last iterate."""
    step = SIDES[side][2]
    grid = lp._solver_grid(cfg, side)
    cur = ProcessEnsemble(grid=grid, values=guess)
    features = lp.FrozenFeatures.of(guess) if np.any(guess != guess[:1]) else None
    for _ in range(cfg.max_iter if maps is None else maps):
        nxt = step(p, cur, x, cfg, wiener, features=features)
        if features is None and np.any(nxt.values != nxt.values[:1]):
            features = lp.FrozenFeatures.of(nxt.values)
        d = lp._weighted_gap(cur.values, nxt.values, grid.times, cfg.tau, p.gamma)
        cur = nxt
        if maps is None and d <= cfg.tol:
            break
    return cur


def semigroup_guess(side, p, x, cfg, n, dtype=float):
    grid = lp._solver_grid(cfg, side)
    return lp._initial_guess(p, grid, np.tile(np.asarray(x, dtype=float), (n, 1)), side, dtype)


def flux_problem():
    m = 4
    return build_example_problem(m=m, g0=0.02 * np.eye(m), g1=0.05 * np.ones(m),
                                 g2=0.05 * np.ones(m))


@pytest.mark.parametrize("m", [24, 32])
def test_wide_flux_example_builds_and_certifies(m):
    # the frozen columns are exact, so no ladder stands between a wide
    # example and its solve
    p = build_example_problem(m=m, g0=0.02 * np.eye(m), g1=0.05 * np.ones(m),
                              g2=0.05 * np.ones(m))
    cfg = LPConfig(c_zeta=0.5, t_back=6.0, dt=1e-3, tol=1e-6, n_samples=2)
    g = unstable_graph(p, [0.1], cfg)
    assert g.trace.converged and g.trace.residual <= cfg.tol
    assert g.consistency_gap <= 2.0 * cfg.tol and g.trace.ito_check["ok"]
    assert np.all(np.isfinite(g.h_value))


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_zero_noise_request_is_solved_on_one_sample(monkeypatch, side):
    _, map_name, step = SIDES[side]
    p, x = flux_problem(), ([0.1] if side == "unstable" else [0.05, -0.02, 0.01])
    cfg = LPConfig(c_zeta=0.5, t_back=6.0, t_fwd=6.0, dt=1e-2, tol=1e-6,
                   n_samples=2, max_iter=60)
    sizes = []

    def counting_map(*args, **kwargs):
        sizes.append(args[1].n_samples)
        return step(*args, **kwargs)

    monkeypatch.setattr(lp, map_name, counting_map)
    g, path = solved_graph(side, p, x, cfg)
    assert sizes == [1] * (g.trace.iterations + 1)
    assert g.trace.ito_check["n_samples"] == 2
    # the same maps on two identical samples, by hand
    want = hand_run(side, p, x, cfg, semigroup_guess(side, p, x, cfg, 2),
                    maps=g.trace.iterations)
    node = want.grid.n_steps if side == "unstable" else 0
    assert np.max(np.abs(g.h_value - want.values[:, node, g.value_idx])) <= 1e-14
    # the certificates of one sample are those of two identical ones
    assert np.array_equal(g.h_value[0], g.h_value[1])
    assert ms_norm(g.h_value) == ms_norm(g.h_value[:1])
    assert path.values.shape == (2, want.grid.n_nodes, p.n_modes)


# From the zero-noise fixed point, d_1 is the pathwise Ito response that no
# deterministic guess carries: about 0.004 * slope on the unstable side, where
# it enters only the small value block, and 0.1 * slope on the stable side,
# where it enters the anchor block. The cold start adds the deterministic
# error, 7.5e-3 on both sides.
@pytest.mark.parametrize("side, slope, factor", [("unstable", 0.1, 10.0),
                                                 ("stable", 0.003, 10.0),
                                                 ("stable", 0.1, 1.0)])
def test_noisy_solve_starts_from_the_zero_noise_fixed_point(side, slope, factor):
    step = SIDES[side][2]
    p, cfg, x = two_way_noisy(slope), config(), [0.3]
    g, path = solved_graph(side, p, x, cfg)
    grid = path.grid
    wiener = sample_wiener(cfg.seed, grid, p.noise, N_SAMPLES)
    cold = ProcessEnsemble(grid=grid, values=semigroup_guess(side, p, x, cfg, N_SAMPLES))
    cold_d1 = lp._weighted_gap(cold.values, step(p, cold, x, cfg, wiener).values,
                               grid.times, cfg.tau, p.gamma)
    assert factor * g.trace.distances[0] <= cold_d1


@pytest.mark.parametrize("failure", ["nonfinite", "unconverged"])
@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_failed_presolve_falls_back_to_the_cold_start(monkeypatch, side, failure):
    p, cfg, x = two_way_noisy(), config(), [0.3]
    presolve = lp._one_sample_solve

    def failing(side, p, grid, anchor, cfg, trace):
        if failure == "nonfinite":
            raise NonfiniteState("presolve overflowed")
        ens = presolve(side, p, grid, anchor, replace(cfg, max_iter=1), trace)
        assert not trace.converged
        return ens

    monkeypatch.setattr(lp, "_one_sample_solve", failing)
    _, path = solved_graph(side, p, x, cfg)
    grid = path.grid
    # the hand run stores its iterates as the solve does
    guess = semigroup_guess(side, p, x, cfg, N_SAMPLES, path.values.dtype)
    cold = hand_run(side, p, x, cfg, guess, sample_wiener(cfg.seed, grid, p.noise, N_SAMPLES))
    assert np.array_equal(path.values, cold.values)


def test_failed_presolve_still_regresses(monkeypatch):
    # under diagonal linear noise the semigroup guess's stable block is 0,
    # so the first map's output is the same on every sample; the solve
    # freezes the first output that varies, and its maps regress on it
    def failing(side, p, grid, anchor, cfg, trace):
        raise NonfiniteState("presolve overflowed")

    monkeypatch.setattr(lp, "_one_sample_solve", failing)
    g = unstable_graph(two_way_noisy(), [0.3], config())
    assert g.trace.regression["n_regressions"] > 0
    assert g.trace.residual <= g.trace.tol


def test_iterates_are_float32_only_where_their_rounding_floor_is_far_below_tol():
    # at tol 1e-4 the floor 2 u S / (1 - c), S about 0.1, is near 1e-8,
    # below tol/100, for a deterministic and a random anchor; at tol 1e-8
    # it is not, and a one-sample (zero-noise) solve keeps float64 at any
    # tol; the graph's anchor is the request's, never a rounded node
    p, cfg = two_way_noisy(), replace(config(), t_back=25.0)
    rows = 0.1 + 0.02 * np.random.default_rng(8).standard_normal((N_SAMPLES, 1))
    quiet = replace(p, noise=zero_noise(2))
    for problem, x, tol, want in ((p, [0.1], 1e-4, np.float32), (p, rows, 1e-4, np.float32),
                                  (p, [0.1], 1e-8, np.float64), (quiet, [0.1], 1e-4, np.float64)):
        graph, path = solved_graph("unstable", problem, x, replace(cfg, tol=tol))
        assert path.values.dtype == want, (x, tol)
        anchor = np.broadcast_to(np.asarray(x, dtype=float), (N_SAMPLES, 1))
        assert graph.anchor.dtype == np.float64 and graph.anchor.tobytes() == anchor.tobytes()
        assert graph.h_value.dtype == np.float64


def lsmc_problem():
    """The lsmc_unstable problem: 2-D unstable and stable blocks."""
    return build_problem([1.5, 1.0, -1.0, -2.0], [0, 1], alpha=1.0, beta=-1.0, gamma=0.5,
                         zeta=-0.5, nonlinearity=linear_nonlinearity(np.full((4, 4), 0.03)),
                         noise=diagonal_linear_noise([0.1] * 4))


@pytest.mark.parametrize("tau", [0.0, 0.7])
@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_the_semigroup_guess_has_the_weighted_norm_of_its_anchor(side, tau):
    # the solve reads S off the anchor: each mode's weighted factor
    # e^{(lambda_i - gamma)(t - tau)} is 1 at the anchor node and below 1
    # at every other one, on both sides
    p = lsmc_problem()
    cfg = LPConfig(c_zeta=1.0, tau=tau, t_back=12.0, t_fwd=12.0, dt=2e-2, n_samples=N_SAMPLES)
    grid = lp._solver_grid(cfg, side)
    rng = np.random.default_rng(4)
    for anchor in (np.tile([0.6, -0.4], (N_SAMPLES, 1)),
                   rng.uniform(-1.0, 1.0, (N_SAMPLES, 2))):
        guess = lp._initial_guess(p, grid, anchor, side)
        size = lp._weighted_gap(guess, None, grid.times, cfg.tau, p.gamma)
        assert size == pytest.approx(ms_norm(anchor), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("failure", ["nonfinite", "unconverged"])
def test_a_failed_presolve_picks_the_storage_from_the_anchors_norm(monkeypatch, failure):
    # S = ms_norm(anchor), about 0.3: float32 at tol 1e-4, float64 at 1e-8
    presolve = lp._one_sample_solve

    def failing(side, p, grid, anchor, cfg, trace):
        if failure == "nonfinite":
            raise NonfiniteState("presolve overflowed")
        return presolve(side, p, grid, anchor, replace(cfg, max_iter=1), trace)

    monkeypatch.setattr(lp, "_one_sample_solve", failing)
    cfg = replace(config(), t_back=25.0)
    for tol, want in ((1e-4, np.float32), (1e-8, np.float64)):
        graph, path = solved_graph("unstable", two_way_noisy(), [0.3], replace(cfg, tol=tol))
        assert path.values.dtype == want, tol
        assert graph.trace.residual <= tol


def test_float32_iterates_agree_with_float64_ones_on_the_same_noise(monkeypatch):
    # the lsmc_unstable problem on fewer samples and nodes, its iterates
    # stored each way: both graphs certify, each route repeats its bits,
    # and they differ by less than the rounding floor plus tol
    p = build_problem([1.5, 1.0, -1.0, -2.0], [0, 1], alpha=1.0, beta=-1.0, gamma=0.5,
                      zeta=-0.5, nonlinearity=linear_nonlinearity(np.full((4, 4), 0.03)),
                      noise=diagonal_linear_noise([0.1] * 4))
    cfg = LPConfig(c_zeta=1.0, t_back=12.0, dt=5e-2, tol=1e-4, n_samples=128, seed=3)
    x = [0.6, -0.4]
    graphs = {}
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(lp, "_iterate_dtype", lambda *args: dtype)
        runs = [solved_graph("unstable", p, x, cfg) for _ in range(2)]
        for g, path in runs:
            assert path.values.dtype == dtype
            assert g.trace.residual <= cfg.tol and g.consistency_gap <= 2.0 * cfg.tol
            assert g.trace.ito_check["ok"]
        (a, path_a), (b, path_b) = runs
        assert a.h_value.tobytes() == b.h_value.tobytes()
        assert path_a.values.tobytes() == path_b.values.tobytes()
        assert a.trace.distances == b.trace.distances
        graphs[dtype] = (a, path_a)
    g64, path64 = graphs[np.float64]
    c = lp.gap_report_for(p, cfg).verdict("unstable")[1]
    size = lp._weighted_gap(path64.values, None, path64.grid.times, cfg.tau, p.gamma)
    floor = 2.0 * 2.0 ** -24 * size / (1.0 - c)
    assert 0.0 < ms_norm(graphs[np.float32][0].h_value - g64.h_value) <= floor + cfg.tol


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
    basis = RegressionBasis(degree=lp.BASIS_DEGREE,
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


# ------------------------------------------- every sample against a recursion

def triangular(radius):
    """wide_invariance's problem: F_u reads nothing and F_s only u, so a
    deterministic anchor's fixed point is known sample by sample. Linear
    noise with slopes 0.1, clamped at ``radius`` when one is given."""
    noise = (diagonal_linear_noise([0.1, 0.1]) if radius is None
             else saturated_noise([0.1, 0.1], radius))
    return build_problem([1.0, -2.0], [0], alpha=1.0, beta=-1.0, gamma=0.5, zeta=-0.5,
                         nonlinearity=linear_nonlinearity([[0.0, 0.0], [0.1, 0.0]]),
                         noise=noise)


def stable_recursion(side, x, dt, dw, radius):
    """The stable coordinate at every node of the side's window, (n, N+1),
    for the problem of ``triangular`` on increments dw (n, N), by the maps'
    rule written out node by node:
    z <- e^{lam_s dt}(z + dt F_s(t_j)/2 + sigma_s(z) dW_j) + dt F_s(t_{j+1})/2
    with F_s = 0.1 u. On the unstable side u(t_j) = x e^{lam_u (t_j - tau)}
    and z starts from 0 at tau - T; on the stable side F_u = 0 gives u = 0,
    and z starts from the anchor at tau. Also returns the recursion's mean
    and, for linear noise, its variance V_{j+1} = e^{2 lam_s dt}(V_j + s^2
    dt (V_j + mu_j^2)), both (N+1,)."""
    n, N = dw.shape
    lam_u, lam_s, s = 1.0, -2.0, 0.1
    if side == "unstable":
        force = 0.1 * x * np.exp(lam_u * (np.arange(N + 1) - N) * dt)
        z0 = 0.0
    else:
        force, z0 = np.zeros(N + 1), x
    z = np.empty((n, N + 1))
    mu, var = np.empty(N + 1), np.empty(N + 1)
    z[:, 0], mu[0], var[0] = z0, z0, 0.0
    decay = math.exp(lam_s * dt)
    for j in range(N):
        state = z[:, j] if radius is None else np.clip(z[:, j], -radius, radius)
        z[:, j + 1] = (decay * (z[:, j] + 0.5 * dt * force[j] + s * state * dw[:, j])
                       + 0.5 * dt * force[j + 1])
        mu[j + 1] = decay * (mu[j] + 0.5 * dt * force[j]) + 0.5 * dt * force[j + 1]
        var[j + 1] = decay ** 2 * (var[j] + s ** 2 * dt * (var[j] + mu[j] ** 2))
    return z, mu, var


def sample_misses(h, z, var, tol):
    """What samples h (n,) of a graph's stable coordinate get wrong against
    the recursion's z (n,): a sample farther than 4 tol from its own, and,
    when var is given, a sample variance more than 4 standard errors from
    it."""
    misses = []
    worst = float(np.max(np.abs(h - z)))
    if worst > 4.0 * tol:
        misses.append(f"a sample misses the recursion by {worst:.3e}")
    if var is not None:
        dev = h - h.mean()
        se = math.sqrt(max(np.mean(dev ** 4) - np.mean(dev ** 2) ** 2, 0.0) / len(h))
        z_score = abs(float(np.var(h)) - var) / se if se > 0 else math.inf
        if z_score > 4.0:
            misses.append(f"sample variance {z_score:.1f} standard errors off")
    return misses


@pytest.mark.parametrize("radius", [None, 2e-3], ids=["linear", "saturated"])
@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_every_sample_of_the_graph_follows_the_exact_recursion(side, radius):
    # wide_invariance's settings at tol 1e-8; that tol needs force=True,
    # because the a-priori truncation check refuses it at this horizon
    # (its bound is far above the tail the solve actually cuts)
    p = triangular(radius)
    n, x = 8192, 0.1
    cfg = LPConfig(c_zeta=0.5, t_back=4.5, t_fwd=4.5, dt=2.5e-2, tol=1e-8, n_samples=n,
                   seed=11, force=True)
    graph, path = solved_graph(side, p, [x], cfg)
    wiener = sample_wiener(cfg.seed, lp._solver_grid(cfg, side), p.noise, n)
    z, mu, var = stable_recursion(side, x, cfg.dt, wiener.increments[..., 1], radius)
    # the path, in mean square at every node, as the certificate bounds it
    stable = path.values[..., 1]                    # (n, N+1)
    assert np.max(np.sqrt(np.mean((stable - z) ** 2, axis=0))) <= cfg.tol
    # the graph: the stable coordinate at tau, or u = 0 at tau while the
    # stable coordinate reaches the window's end
    h = graph.h_value[:, 0]
    end = stable[:, -1]
    if side == "unstable":
        assert h.tobytes() == end.tobytes()
    else:
        assert np.max(np.abs(h)) <= 4.0 * cfg.tol
    linear = radius is None
    assert not sample_misses(end, z[:, -1], var[-1] if linear else None, cfg.tol)
    assert abs(float(end.mean()) - mu[-1]) <= 4.0 * float(end.std()) / math.sqrt(n)
    # every sample replaced by the sample mean: the mean is right, the
    # samples are not, and with linear noise neither is the variance
    flat = np.full_like(end, end.mean())
    misses = sample_misses(flat, z[:, -1], var[-1] if linear else None, cfg.tol)
    assert len(misses) == (2 if linear else 1), misses
