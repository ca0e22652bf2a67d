import math
from dataclasses import replace

import numpy as np
import pytest

from msmanifold import stochastic
from msmanifold.stochastic import _BLOCK, _CHUNK, _node_ms, _path_moments
from msmanifold.errors import (
    ConfigError,
    GridMismatch,
    NonfiniteState,
)
from msmanifold import (
    LPConfig,
    TimeGrid,
    build_problem,
    diagonal_linear_noise,
    integrate_mild,
    linear_nonlinearity,
    lp_backward_solve,
    moment_oracle,
    ms_norm,
    resample_future,
    sample_wiener,
    weighted_norm,
    zero_noise,
    zero_nonlinearity,
)


def stable_scalar(slope=0.0):
    noise = diagonal_linear_noise([slope]) if slope else zero_noise(1)
    return build_problem([-1.0], [], alpha=1.0, beta=-1.0, gamma=0.0,
                         zeta=-0.5, nonlinearity=zero_nonlinearity(1),
                         noise=noise)


def unit_noise(m=1):
    return diagonal_linear_noise(np.ones(m))


# ------------------------------------------------------------------ TimeGrid

def test_time_grid_derives_end_and_validates():
    g = TimeGrid(0.0, 0.1, 10)
    assert g.t_end == pytest.approx(1.0)
    assert g.n_nodes == 11
    assert np.allclose(g.times, np.linspace(0, 1, 11))
    with pytest.raises(ConfigError):
        TimeGrid(0.0, -0.1, 10)
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 0.1, 0)


def test_time_grid_node_lookup_and_subgrid():
    g = TimeGrid(-0.5, 0.01, 100)
    assert g.index_of(-0.5) == 0
    assert g.index_of(0.0) == 50
    assert g.index_of(0.5) == 100
    with pytest.raises(GridMismatch):
        g.index_of(0.005)
    sub = g.subgrid(20, 80)
    assert sub.t_start == pytest.approx(-0.3)
    assert sub.n_steps == 60


# -------------------------------------------------------------------- Wiener

def test_sample_wiener_is_deterministic():
    g = TimeGrid(0.0, 0.01, 20)
    w1 = sample_wiener(42, g, unit_noise(), 64)
    w2 = sample_wiener(42, g, unit_noise(), 64)
    assert np.array_equal(w1.increments, w2.increments)
    w3 = sample_wiener(43, g, unit_noise(), 64)
    assert not np.array_equal(w1.increments, w3.increments)
    # negative seeds get distinct streams, not |seed| aliases
    w4 = sample_wiener(-42, g, unit_noise(), 64)
    assert not np.array_equal(w1.increments, w4.increments)


def test_sample_wiener_zero_covariance_degenerates():
    g = TimeGrid(0.0, 0.01, 10)
    w = sample_wiener(1, g, diagonal_linear_noise([0.3], covariance_weights=[0.0]), 16)
    assert np.all(w.increments == 0.0)


def test_sample_wiener_requires_two_samples():
    g = TimeGrid(0.0, 0.01, 10)
    with pytest.raises(ConfigError):
        sample_wiener(1, g, unit_noise(), 1)


def test_wiener_increment_moments():
    # q=1, dt=0.01, n=1e5: spec band for the per-step variance
    n, dt = 100_000, 0.01
    g = TimeGrid(0.0, dt, 10)
    w = sample_wiener(7, g, unit_noise(), n)
    var = w.increments[:, :, 0].var(axis=0)
    assert np.all(var >= 0.0095) and np.all(var <= 0.0105)
    mean_band = 4.0 * math.sqrt(dt / n)
    assert np.all(np.abs(w.increments[:, :, 0].mean(axis=0)) <= mean_band)


def test_wiener_steps_uncorrelated():
    n = 100_000
    g = TimeGrid(0.0, 0.01, 6)
    w = sample_wiener(11, g, unit_noise(), n)
    x = w.increments[:, :, 0]
    c = np.corrcoef(x.T)
    off = c[~np.eye(6, dtype=bool)]
    assert np.max(np.abs(off)) <= 4.0 / math.sqrt(n)


def test_wiener_modes_independent():
    n = 100_000
    g = TimeGrid(0.0, 0.01, 2)
    w = sample_wiener(13, g, unit_noise(3), n)
    x = w.increments[:, 0, :]
    c = np.corrcoef(x.T)
    off = c[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) <= 4.0 / math.sqrt(n)


def test_wiener_two_sided_anchor_at_time_zero():
    g = TimeGrid(-0.5, 0.01, 100)
    w = sample_wiener(3, g, unit_noise(), 32)
    vals = w.values()
    assert np.all(vals[:, 50, :] == 0.0)
    assert np.array_equal(w.value_at(50), np.zeros((32, 1)))
    # value_at agrees with values() on both sides of the anchor
    assert np.allclose(w.value_at(10), vals[:, 10, :], atol=1e-15)
    assert np.allclose(w.value_at(90), vals[:, 90, :], atol=1e-15)


def test_wiener_windows_are_coupled_across_grids():
    # The same lattice step gets the same increment no matter which grid
    # requested it: backward windows, sub-windows and fresh samples agree.
    noise = unit_noise()
    big = sample_wiener(5, TimeGrid(-0.5, 0.01, 100), noise, 16)
    sub = sample_wiener(5, TimeGrid(-0.3, 0.01, 60), noise, 16)
    assert np.array_equal(sub.increments, big.window(20, 80).increments)
    fwd = sample_wiener(5, TimeGrid(0.2, 0.01, 30), noise, 16)
    assert np.array_equal(fwd.increments, big.window(70, 100).increments)


def reference_increments(seed, step0, n_steps, n, d):
    """The stream drawn whole: every RNG block of _BLOCK lattice steps per
    chunk of _CHUNK samples, keyed by (seed, chunk, block)."""
    out = np.empty((n, n_steps, d))
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        for blk in range(step0 // _BLOCK, (step0 + n_steps - 1) // _BLOCK + 1):
            key = [abs(seed), a // _CHUNK, abs(blk), int(blk < 0), int(seed < 0)]
            g = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
            raw = g.standard_normal((_BLOCK, b - a, d)).transpose(1, 0, 2)
            lo, hi = max(step0, blk * _BLOCK), min(step0 + n_steps, (blk + 1) * _BLOCK)
            out[a:b, lo - step0:hi - step0] = raw[:, lo - blk * _BLOCK:hi - blk * _BLOCK]
    return out


def stored(increments):
    """Float64 increments as a draw stores them: each rounded to float32."""
    return increments.astype(np.float32)


STREAM_WINDOWS = {
    "ends_at_block_edge": (7, TimeGrid(-4.5, 2.5e-2, 180), 64, 1),
    "straddles_zero": (-3, TimeGrid(-0.5, 0.01, 100), 64, 2),
    "prefix_from_zero": (11, TimeGrid(0.0, 2.5e-2, 20), 64, 1),
    "three_positive_blocks": (5, TimeGrid(1.0, 1e-3, 1100), 16, 2),
    "partial_last_chunk": (9, TimeGrid(-0.1, 1e-2, 30), 3000, 1),
    "inside_one_block": (13, TimeGrid(0.03, 1e-2, 37), 64, 2),
    "mid_block_negative_to_positive": (4, TimeGrid(-0.37, 0.01, 50), 64, 1),
}


@pytest.mark.parametrize("window", sorted(STREAM_WINDOWS))
def test_wiener_stream_matches_whole_block_draws(window):
    seed, grid, n, d = STREAM_WINDOWS[window]
    scale = np.sqrt(np.ones(d) * grid.dt)
    w = sample_wiener(seed, grid, unit_noise(d), n)
    want = stored(reference_increments(seed, grid.step0, grid.n_steps, n, d) * scale)
    assert np.array_equal(w.increments, want)
    node = grid.n_steps // 3
    fresh = stored(reference_increments(seed + 100, grid.step0, grid.n_steps, n, d) * scale)
    w2 = resample_future(w, node, seed + 100)
    assert np.array_equal(w2.increments[:, :node], w.increments[:, :node])
    assert np.array_equal(w2.increments[:, node:], fresh[:, node:])


def test_wiener_increments_are_scaled_while_drawn():
    # one float64 product sqrt(q dt) * normal per element, zero weights too,
    # rounded to float32 when stored
    g = TimeGrid(-0.37, 0.01, 50)
    q = np.array([0.3, 2.0, 0.0])
    scale = np.sqrt(q * g.dt)
    w = sample_wiener(6, g, diagonal_linear_noise(np.ones(3), q), 1100)
    assert w.increments.dtype == np.float32
    assert np.array_equal(w.increments,
                          stored(reference_increments(6, g.step0, g.n_steps, 1100, 3) * scale))
    w2 = resample_future(w, 20, 60)
    assert w2.increments.dtype == np.float32
    fresh = stored(reference_increments(60, g.step0, g.n_steps, 1100, 3) * scale)
    assert np.array_equal(w2.increments[:, 20:], fresh[:, 20:])


@pytest.mark.parametrize("q", [[0.3, 0.3, 0.3], [0.0, -0.0, 0.0]])
def test_equal_noise_scales_give_the_vector_scales_bits(q):
    # equal scales are applied as one number, and zeros of either sign
    # keep their own: the bits of the (d,) scale vector's products
    g = TimeGrid(-0.37, 0.01, 50)
    scale = np.sqrt(np.array(q) * g.dt)
    w = sample_wiener(6, g, diagonal_linear_noise(np.ones(3), q), 1100)
    want = stored(reference_increments(6, g.step0, g.n_steps, 1100, 3) * scale)
    assert w.increments.tobytes() == want.tobytes()
    w2 = resample_future(w, 20, 60)
    fresh = stored(reference_increments(60, g.step0, g.n_steps, 1100, 3) * scale)
    assert w2.increments[:, 20:].tobytes() == fresh[:, 20:].tobytes()


def test_wiener_draw_generates_only_the_blocks_of_its_window(monkeypatch):
    # the union window of an invariance request: steps -180..19, 2048 samples,
    # and a resampled future from its step 0 on: steps 0..19
    rows = {}
    real = stochastic._block_generator

    class Counting:
        def __init__(self, seed, chunk, blk):
            self.g, self.key = real(seed, chunk, blk), (chunk, blk)

        def standard_normal(self, size=None, out=None):
            rows[self.key] = rows.get(self.key, 0) + (size if out is None else out.shape)[0]
            return self.g.standard_normal(size, out=out)

    def check(n_steps, last):
        assert {c for c, _ in rows} == {0, 1}
        for chunk in (0, 1):
            drawn = {blk: r for (c, blk), r in rows.items() if c == chunk}
            # at most 63 dropped rows ahead of the window, none after it
            assert sum(drawn.values()) <= n_steps + 63
            assert all(blk * _BLOCK + r - 1 <= last for blk, r in drawn.items())
        rows.clear()

    monkeypatch.setattr(stochastic, "_block_generator", Counting)
    g = TimeGrid(-4.5, 2.5e-2, 200)
    w = sample_wiener(7, g, unit_noise(), 2048)
    check(200, 19)
    resample_future(w, 180, 8)
    check(20, 19)
    assert np.array_equal(w.increments, stored(reference_increments(7, g.step0, g.n_steps,
                                                                    2048, 1) * np.sqrt(g.dt)))


def test_resample_future_preserves_past():
    g = TimeGrid(0.0, 0.01, 40)
    w = sample_wiener(21, g, unit_noise(), 64)
    w2 = resample_future(w, 25, new_seed=9001)
    assert np.array_equal(w2.increments[:, :25, :], w.increments[:, :25, :])
    assert not np.array_equal(w2.increments[:, 25:, :], w.increments[:, 25:, :])


def is_node_major(x):
    """x (n, N, d) is the transposed view of C-ordered (node, mode, sample)
    storage, or of a slice of such storage along the node axis."""
    return x.transpose(1, 2, 0).flags.c_contiguous


def test_ensembles_are_stored_node_major():
    # every consumer reads node by node, and works per mode on rows of
    # samples: the public sample-major arrays are transposed views of
    # (node, mode, sample) storage, and a window is a slice of it
    p = stable_scalar(slope=0.5)
    g = TimeGrid(-0.5, 0.01, 50)
    w = sample_wiener(3, g, unit_noise(), 3000)
    assert w.increments.shape == (3000, 50, 1) and not w.increments.flags.c_contiguous
    assert is_node_major(w.increments)
    win = w.window(10, 40)
    assert is_node_major(win.increments) and np.shares_memory(win.increments, w.increments)
    assert is_node_major(resample_future(w, 20, 4).increments)
    assert w.values().shape == (3000, 51, 1) and is_node_major(w.values())
    ens = integrate_mild(p, np.array([0.1]), g, w)
    assert ens.values.shape == (3000, 51, 1) and is_node_major(ens.values)
    assert ens.at(7).T.flags.c_contiguous


def test_sample_major_wiener_gives_the_same_bits():
    # an ensemble a caller builds sample-major runs through the same code
    p = stable_scalar(slope=0.5)
    g = TimeGrid(-0.5, 0.01, 50)
    w = sample_wiener(3, g, unit_noise(), 3000)
    sm = replace(w, increments=np.ascontiguousarray(w.increments))
    assert sm.increments.flags.c_contiguous
    assert np.array_equal(sm.values(), w.values())
    assert np.array_equal(sm.value_at(30), w.value_at(30))
    assert np.array_equal(resample_future(sm, 20, 4).increments,
                          resample_future(w, 20, 4).increments)
    assert np.array_equal(integrate_mild(p, np.array([0.1]), g, sm).values,
                          integrate_mild(p, np.array([0.1]), g, w).values)
    # and so does the solver on its window
    q = build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5, zeta=-0.5,
                      nonlinearity=linear_nonlinearity([[0.0, 0.05], [0.05, 0.0]]),
                      noise=diagonal_linear_noise([0.1, 0.1]))
    cfg = LPConfig(c_zeta=1.0, t_back=5.0, dt=2.5e-2, n_samples=64, tol=1e-2, seed=5)
    window = TimeGrid(-5.0, 2.5e-2, 200)
    drawn = sample_wiener(cfg.seed, window, q.noise, 64)
    caller = replace(drawn, increments=np.ascontiguousarray(drawn.increments))
    assert caller.increments.flags.c_contiguous
    x = 0.3 + 0.05 * np.random.default_rng(8).standard_normal((64, 1))
    ens_a, trace_a = lp_backward_solve(q, x, cfg, caller)
    ens_b, trace_b = lp_backward_solve(q, x, cfg, drawn)
    assert trace_a.converged and ens_a.values.tobytes() == ens_b.values.tobytes()
    assert trace_a.distances == trace_b.distances


@pytest.mark.parametrize("m", [1, 2, 4])
def test_node_ms_bits_do_not_depend_on_the_layout(m):
    # squares summed per sample over the modes in mode order, ((p0 + p1) +
    # p2) + ..., then over the samples pairwise, as numpy adds one
    # contiguous row: the same bits for sample-major, (node, sample, mode)
    # and (node, mode, sample) storage
    n = 3000
    rng = np.random.default_rng(m)
    sm = rng.standard_normal((n, 37, m)) * np.exp(3.0 * rng.standard_normal((n, 1, 1)))
    nm = np.ascontiguousarray(sm.swapaxes(0, 1))
    mm = np.ascontiguousarray(sm.transpose(1, 2, 0))
    ref = np.empty(37)
    for j in range(37):
        sq = sm[:, j, 0] * sm[:, j, 0]
        for k in range(1, m):
            sq = sq + sm[:, j, k] * sm[:, j, k]
        ref[j] = np.add.reduce(np.ascontiguousarray(sq))
    ref = np.sqrt(ref / n)
    assert np.array_equal(_node_ms(sm.swapaxes(0, 1)), ref)
    assert np.array_equal(_node_ms(nm), ref)
    assert np.array_equal(_node_ms(mm.swapaxes(1, 2)), ref)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_path_moments_bits_do_not_depend_on_the_chunk(monkeypatch, m):
    # each row: t, the mean of each mode and the ms-norm over the samples
    # in sample order from +0, computed on the whole path at once
    n = 300
    rng = np.random.default_rng(m)
    nodes = rng.standard_normal((41, n, m)) * np.exp(3.0 * rng.standard_normal((1, n, 1)))
    times = np.linspace(-4.0, 0.0, 41)
    ref = np.column_stack((times, stochastic._sample_sum(nodes) / n, _node_ms(nodes)))
    for elements in (1, 7 * n * m, 1 << 30):       # one node, 7 nodes, the whole path
        monkeypatch.setattr(stochastic, "_GAP_ELEMENTS", elements)
        assert np.array_equal(_path_moments(nodes.swapaxes(0, 1), times), ref)


# ---------------------------------------------------------------- integrator

def test_integrator_pure_semigroup_is_exact():
    p = stable_scalar()
    g = TimeGrid(0.0, 0.1, 10)
    ens = integrate_mild(p, np.array([[2.0]]), g)
    t = g.times
    assert np.allclose(ens.values[0, :, 0], 2.0 * np.exp(-t), rtol=1e-14)


def test_integrator_zero_noise_is_deterministic():
    p = stable_scalar()
    g = TimeGrid(0.0, 0.01, 50)
    u0 = np.full((8, 1), 1.5)
    ens = integrate_mild(p, u0, g)
    assert np.all(ens.values == ens.values[0:1])
    ens2 = integrate_mild(p, u0, g)
    assert np.array_equal(ens.values, ens2.values)


def test_integrator_flow_property_bit_identical():
    p = stable_scalar(slope=0.5)
    noise = p.noise
    g_full = TimeGrid(0.0, 0.01, 100)
    w = sample_wiener(17, g_full, noise, 128)
    full = integrate_mild(p, np.ones(1), g_full, w)

    first = integrate_mild(p, np.ones(1), g_full.subgrid(0, 50), w.window(0, 50))
    second = integrate_mild(p, first.values[:, -1, :], g_full.subgrid(50, 100),
                            w.window(50, 100))
    assert np.array_equal(first.values, full.values[:, :51, :])
    assert np.array_equal(second.values, full.values[:, 50:, :])


def test_integrator_adaptedness_under_future_resampling():
    p = stable_scalar(slope=0.5)
    g = TimeGrid(0.0, 0.01, 60)
    w = sample_wiener(23, g, p.noise, 64)
    base = integrate_mild(p, np.ones(1), g, w)
    shuffled = integrate_mild(p, np.ones(1), g, resample_future(w, 30, 555))
    assert np.array_equal(base.values[:, :31, :], shuffled.values[:, :31, :])
    assert not np.array_equal(base.values[:, 31:, :], shuffled.values[:, 31:, :])


def test_integrator_second_moment_matches_oracle_on_grid():
    lam, s, u0 = -1.0, 0.5, 1.0
    p = stable_scalar(slope=s)
    g = TimeGrid(0.0, 0.01, 100)
    n = 20_000
    w = sample_wiener(29, g, p.noise, n)
    ens = integrate_mild(p, np.array([u0]), g, w)
    sq = ens.values[:, :, 0] ** 2
    mean = sq.mean(axis=0)
    band = 4.0 * sq.std(axis=0) / math.sqrt(n)
    want = np.array([moment_oracle(lam, s, u0, t) for t in g.times])
    assert np.all(np.abs(mean - want) <= band + 1e-12)
    # spot value at t=1: e^{-1.75}
    assert want[-1] == pytest.approx(math.exp(-1.75), rel=1e-15)


def test_integrator_overflow_reports_step_and_sample():
    p = build_problem([30.0], [0], alpha=30.0, beta=-1.0, gamma=1.0, zeta=0.0,
                      nonlinearity=zero_nonlinearity(1), noise=zero_noise(1))
    g = TimeGrid(0.0, 0.01, 100)
    with pytest.raises(NonfiniteState) as exc:
        integrate_mild(p, np.array([[1.0]]), g)
    assert exc.value.step is not None and exc.value.step > 0
    assert exc.value.sample == 0


def test_integrator_overflow_reports_the_earliest_step():
    # sample 1500 crosses the limit at step 5, sample 10 only at step 10
    p = build_problem([30.0], [0], alpha=30.0, beta=-1.0, gamma=1.0, zeta=0.0,
                      nonlinearity=zero_nonlinearity(1), noise=zero_noise(1))
    u0 = np.zeros((2048, 1))
    u0[10], u0[1500] = 1.0, 1e6
    with pytest.raises(NonfiniteState) as exc:
        integrate_mild(p, u0, TimeGrid(0.0, 0.1, 20))
    assert (exc.value.step, exc.value.sample) == (5, 1500)


def test_integrator_rejects_mismatched_wiener():
    p = stable_scalar(slope=0.5)
    g = TimeGrid(0.0, 0.01, 50)
    w = sample_wiener(1, TimeGrid(0.0, 0.02, 25), p.noise, 8)
    with pytest.raises(GridMismatch):
        integrate_mild(p, np.ones(1), g, w)


# --------------------------------------------------------------------- norms

@pytest.mark.parametrize("shape", [(5,), (40, 1), (40, 2), (40, 5), (1, 3), (7, 0)])
def test_ms_norm_is_node_ms_at_one_node(shape):
    v = np.random.default_rng(len(shape) + shape[-1]).standard_normal(shape)
    rows = v if v.ndim == 2 else v[None]
    assert ms_norm(v) == _node_ms(rows[None])[0]


@pytest.mark.parametrize("t_start, dt", [(0.0, math.nan), (0.0, math.inf), (math.nan, 0.1),
                                         (-math.inf, 0.1), (0.0, 0.0)])
def test_time_grid_refuses_a_nonfinite_start_or_step(t_start, dt):
    # TimeGrid(0.0, nan, 3) once built a grid of NaN times
    with pytest.raises(ConfigError):
        TimeGrid(t_start, dt, 3)


def test_ms_norm_reference_values():
    unit = np.tile([1.0, 0.0], (50, 1))
    assert ms_norm(unit) == pytest.approx(1.0, rel=1e-15)
    assert ms_norm(np.zeros((10, 3))) == 0.0
    rng = np.random.default_rng(31)
    z = rng.standard_normal((200_000, 1))
    assert ms_norm(z) == pytest.approx(1.0, abs=0.02)


def test_weighted_norm_cancellation():
    gamma = 0.7
    g = TimeGrid(-1.0, 0.01, 100)
    t = g.times
    vals = np.exp(gamma * t)[None, :, None] * np.ones((4, 1, 1))
    from msmanifold import ProcessEnsemble
    ens = ProcessEnsemble(grid=g, values=vals)
    assert weighted_norm(ens, gamma, "backward") == pytest.approx(1.0, rel=1e-12)
    # overweighting by 0.3 puts the sup at the far end of the window
    assert weighted_norm(ens, 1.0, "backward") == pytest.approx(math.exp(0.3), rel=1e-12)
    zero = ProcessEnsemble(grid=g, values=np.zeros((4, 101, 1)))
    assert weighted_norm(zero, gamma, "backward") == 0.0


def test_weighted_norm_directions():
    g = TimeGrid(-0.5, 0.1, 10)   # nodes from -0.5 to 0.5
    vals = np.ones((2, 11, 1))
    from msmanifold import ProcessEnsemble
    ens = ProcessEnsemble(grid=g, values=vals)
    assert weighted_norm(ens, 1.0, "backward") == pytest.approx(math.exp(0.5), rel=1e-12)
    assert weighted_norm(ens, 1.0, "forward") == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ConfigError):
        weighted_norm(ens, 1.0, "sideways")


# ------------------------------------------------------------- ufunc buffer

@pytest.mark.parametrize("n", [1, 2, 15, 64, 127, 128, 625, 1000, 1024, 8192, 20000])
@pytest.mark.parametrize("caller", [8192, 1024, 64])
def test_sample_buffer_lowers_the_buffer_to_a_valid_size_and_restores_it(n, caller):
    # numpy takes only multiples of 16; the buffer is never raised, and
    # below the floor it is left as it is
    with np.errstate(over="ignore"):
        np.setbufsize(caller)
        before = np.getbufsize(), np.geterr()
        with stochastic._sample_buffer(n):
            inside = np.getbufsize()
            assert np.geterr() == before[1]
        assert (np.getbufsize(), np.geterr()) == before
    assert inside <= caller and inside % 16 == 0
    if n < stochastic._MIN_BUFFER_ROWS:
        assert inside == caller
    else:
        assert inside == min(caller, n - n % 16)


def test_sample_buffer_restores_the_callers_state_on_an_exception():
    before = np.getbufsize(), np.geterr()
    with pytest.raises(NonfiniteState):
        with stochastic._sample_buffer(1024):
            assert np.getbufsize() == min(before[0], 1024)
            raise NonfiniteState("inside")
    assert (np.getbufsize(), np.geterr()) == before


@pytest.mark.parametrize("noisy", [False, True])
def test_integrator_refuses_a_state_of_the_wrong_length(noisy):
    # one state for every sample must have one entry per mode: a block
    # anchor is not spread over the modes
    m = 4
    p = build_problem([1.5, 1.0, -1.0, -2.0], [0, 1], alpha=1.0, beta=-1.0, gamma=0.5,
                      zeta=-0.5, nonlinearity=linear_nonlinearity(np.full((m, m), 0.03)),
                      noise=diagonal_linear_noise([0.1] * m) if noisy else zero_noise(m))
    g = TimeGrid(0.0, 0.01, 10)
    w = sample_wiener(1, g, p.noise, 8) if noisy else None
    for u0 in ([0.1], [0.1, 0.2]):
        with pytest.raises(GridMismatch, match="u0 shape"):
            integrate_mild(p, u0, g, w)
