import math

import numpy as np
import pytest

from msmanifold.errors import (
    ConfigError,
    DegenerateGap,
    NonzeroAtOrigin,
    OrderingViolation,
    SpectralGapViolation,
    StableBackwardTime,
)
from msmanifold import (
    NoiseModel,
    build_problem,
    callable_nonlinearity,
    diagonal_linear_noise,
    gap_delta,
    gap_eta,
    gap_report,
    linear_nonlinearity,
    project,
    saturated_noise,
    saturated_polynomial_nonlinearity,
    semigroup_apply,
    zero_noise,
    zero_nonlinearity,
)

PI2 = math.pi ** 2


def minimal_problem(**kw):
    args = dict(eigenvalues=[1.0, -1.0], unstable_modes=[0],
                alpha=1.0, beta=-1.0, gamma=0.0, zeta=-0.5,
                nonlinearity=zero_nonlinearity(2), noise=zero_noise(2))
    args.update(kw)
    return build_problem(**args)


def test_build_accepts_shifted_neumann_spectrum():
    lam = [PI2 / 2, -PI2 / 2, -7 * PI2 / 2, -17 * PI2 / 2]
    p = build_problem(lam, [0], alpha=PI2 / 2, beta=-PI2 / 2,
                      gamma=PI2 / 4, zeta=0.0,
                      nonlinearity=zero_nonlinearity(4), noise=zero_noise(4))
    assert list(p.unstable_modes) == [0]
    assert list(p.stable_modes) == [1, 2, 3]
    assert p.n_modes == 4


def test_build_accepts_minimal_two_mode_dichotomy():
    p = minimal_problem()
    assert p.alpha == 1.0 and p.beta == -1.0
    assert np.array_equal(p.unstable_mask, [True, False])
    assert np.array_equal(p.stable_mask, [False, True])


def test_build_rejects_eigenvalue_inside_gap():
    with pytest.raises(SpectralGapViolation):
        build_problem([0.5], [0], alpha=1.0, beta=-1.0, gamma=0.0, zeta=-0.5,
                      nonlinearity=zero_nonlinearity(1), noise=zero_noise(1))
    with pytest.raises(SpectralGapViolation):
        minimal_problem(eigenvalues=[1.0, -0.2])


def test_build_rejects_bad_exponent_ordering():
    with pytest.raises(OrderingViolation):
        minimal_problem(zeta=0.5)   # zeta > gamma
    with pytest.raises(OrderingViolation):
        minimal_problem(beta=-0.3)  # beta > zeta


def test_build_rejects_nonzero_origin():
    shifted = callable_nonlinearity(lambda v: v + 0.1, m=2, lipschitz_L1=1.0)
    with pytest.raises(NonzeroAtOrigin):
        minimal_problem(nonlinearity=shifted)

    bad_noise = NoiseModel(kind="diagonal-linear",
                           fn=lambda v: np.ones_like(v),
                           lipschitz_L2=0.0, n_noise_modes=2,
                           covariance_weights=np.ones(2))
    with pytest.raises(NonzeroAtOrigin):
        minimal_problem(noise=bad_noise)


def test_build_rejects_K_below_one():
    with pytest.raises(ConfigError):
        minimal_problem(bound_K=0.5)


def test_semigroup_identity_at_time_zero():
    p = minimal_problem()
    v = np.array([0.3, -1.2])
    assert np.array_equal(semigroup_apply(p, 0.0, v, "full"), v)
    assert np.array_equal(semigroup_apply(p, 0.0, v, "unstable"), [0.3, 0.0])
    assert np.array_equal(semigroup_apply(p, 0.0, v, "stable"), [0.0, -1.2])


def test_semigroup_scalar_decay_rate():
    p = build_problem([-PI2 / 2], [], alpha=1.0, beta=-1.0, gamma=0.0,
                      zeta=-0.5, nonlinearity=zero_nonlinearity(1),
                      noise=zero_noise(1))
    out = semigroup_apply(p, 1.0, np.array([1.0]), "stable")
    assert out[0] == pytest.approx(math.exp(-PI2 / 2), abs=1e-15)
    assert out[0] == pytest.approx(7.192e-3, abs=5e-7)


def test_semigroup_rejects_backward_time_on_stable_block():
    p = minimal_problem()
    with pytest.raises(StableBackwardTime):
        semigroup_apply(p, -0.1, np.ones(2), "stable")
    # The unstable block is a group: any sign of t is fine.
    back = semigroup_apply(p, -2.0, np.ones(2), "unstable")
    assert back[0] == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_projectors_resolve_identity():
    p = minimal_problem()
    eu = np.array([1.0, 0.0])
    assert np.array_equal(project(p, eu, "u"), eu)
    assert np.array_equal(project(p, eu, "s"), [0.0, 0.0])

    rng = np.random.default_rng(7)
    v = rng.standard_normal(2)
    assert np.array_equal(project(p, v, "u") + project(p, v, "s"), v)
    assert np.array_equal(project(p, project(p, v, "u"), "u"), project(p, v, "u"))
    assert np.array_equal(project(p, project(p, v, "u"), "s"), np.zeros(2))


def test_projectors_commute_with_semigroup():
    p = minimal_problem()
    rng = np.random.default_rng(11)
    v = rng.standard_normal(2)
    for t in (0.0, 0.2, 1.7):
        a = project(p, semigroup_apply(p, t, v, "full"), "s")
        b = semigroup_apply(p, t, project(p, v, "s"), "full")
        assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_dichotomy_bound_is_exact_for_diagonal_model():
    p = minimal_problem()
    eu = np.array([1.0, 0.0])
    es = np.array([0.0, 1.0])
    for t in np.linspace(-3.0, 0.0, 13):
        grown = np.linalg.norm(semigroup_apply(p, t, eu, "unstable"))
        assert grown <= p.bound_K * math.exp(p.alpha * t) * (1 + 1e-12)
    for t in np.linspace(0.0, 3.0, 13):
        decayed = np.linalg.norm(semigroup_apply(p, t, es, "stable"))
        assert decayed <= p.bound_K * math.exp(p.beta * t) * (1 + 1e-12)


def test_gap_eta_reference_arithmetic():
    # K=1, L1=L2=0.01, alpha-gamma=1, C=0.5 -> 0.01*(1 + 0.5 + 0.5)
    assert gap_eta(1.0, 0.01, 0.01, 1.0, 0.5) == pytest.approx(0.02, abs=1e-15)
    assert gap_eta(1.0, 0.0, 0.0, 1.0, 0.5) == 0.0
    assert gap_eta(2.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(6.0, abs=1e-12)


def test_gap_delta_reference_arithmetic():
    assert gap_delta(1.0, 0.0, 0.0, 1.0, 0.5) == 0.0
    # K=1, L1=0, L2=0.1, alpha-gamma=2 -> 0.1/sqrt(4) + 0.1*0.5 = 0.1
    assert gap_delta(1.0, 0.0, 0.1, 2.0, 0.5) == pytest.approx(0.1, abs=1e-15)
    want = 0.02 + 0.01 / math.sqrt(2.0)
    assert gap_delta(1.0, 0.01, 0.01, 1.0, 0.5) == pytest.approx(want, abs=1e-15)


def test_gap_degenerate_when_alpha_not_above_gamma():
    with pytest.raises(DegenerateGap):
        gap_eta(1.0, 0.1, 0.1, 0.0, 0.5)
    with pytest.raises(DegenerateGap):
        gap_delta(1.0, 0.1, 0.1, -1.0, 0.5)


def test_gap_reports_from_problem_constants():
    b = np.array([[0.0, 0.01], [0.01, 0.0]])
    p = minimal_problem(nonlinearity=linear_nonlinearity(b),
                        noise=diagonal_linear_noise([0.01, 0.01]))
    rep = gap_report(p, 0.5)
    assert rep.eta == pytest.approx(0.02, abs=1e-14)
    assert rep.pass_unstable and rep.eta < 1.0
    assert rep.c_zeta == 0.5
    rep2 = gap_report(p, 0.5)
    assert rep2.delta == pytest.approx(0.02 + 0.01 / math.sqrt(2.0), abs=1e-14)
    assert rep2.pass_stable
    d = rep2.as_dict()
    assert d["pass_stable"] is True and "terms" in d


def test_gap_fail_flags_track_threshold():
    heavy = linear_nonlinearity(np.array([[0.0, 1.0], [1.0, 0.0]]))
    noisy = diagonal_linear_noise([1.0, 1.0])
    p = minimal_problem(nonlinearity=heavy, noise=noisy, bound_K=2.0)
    rep = gap_report(p, 1.0)
    assert rep.eta == pytest.approx(6.0, abs=1e-12)
    assert not rep.pass_unstable
    assert not gap_report(p, 1.0).pass_stable


def test_gap_eta_monotonicity():
    base = gap_eta(1.0, 0.1, 0.1, 1.0, 0.5)
    assert gap_eta(1.0, 0.2, 0.1, 1.0, 0.5) > base   # L1 up
    assert gap_eta(1.0, 0.1, 0.2, 1.0, 0.5) > base   # L2 up
    assert gap_eta(1.0, 0.1, 0.1, 1.0, 0.9) > base   # C up
    assert gap_eta(1.5, 0.1, 0.1, 1.0, 0.5) > base   # K up
    assert gap_eta(1.0, 0.1, 0.1, 2.0, 0.5) < base   # wider spectral gap


def test_linear_nonlinearity_constant_is_operator_norm():
    b = np.array([[0.0, 0.3], [0.0, 0.0]])
    nl = linear_nonlinearity(b)
    assert nl.lipschitz_L1 == pytest.approx(np.linalg.norm(b, 2), rel=1e-15)
    v = np.array([0.5, -2.0])
    assert np.allclose(nl(v), b @ v, atol=1e-15)


def test_saturated_polynomial_is_globally_lipschitz():
    nl = saturated_polynomial_nonlinearity([0.0, 0.0, 0.0, 0.2], radius=1.5)
    rng = np.random.default_rng(3)
    u = rng.uniform(-4, 4, size=(400, 2))
    v = rng.uniform(-4, 4, size=(400, 2))
    num = np.linalg.norm(nl(u) - nl(v), axis=-1)
    den = np.linalg.norm(u - v, axis=-1)
    assert np.all(num <= nl.lipschitz_L1 * den * (1 + 1e-12))
    assert np.all(nl(np.zeros((1, 2))) == 0.0)


def test_callable_nonlinearity_sampled_constant_inflated():
    b = np.array([[0.0, 0.1], [0.0, 0.0]])
    nl = callable_nonlinearity(lambda v: v @ b.T, m=2)
    # Sampled estimate carries the 10% safety factor over the true norm.
    assert nl.lipschitz_L1 >= 0.1
    assert nl.lipschitz_L1 <= 0.1 * 1.1 * (1 + 1e-9)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_diagonal_diffusion_is_the_broadcast_product_bit_for_bit(m):
    # one multiply per mode: the same products as v * s, signed zeros and
    # NaNs included
    rng = np.random.default_rng(m)
    s = rng.standard_normal(m)
    s[0] = -0.0
    rows = rng.standard_normal((300, m)) * np.exp(5.0 * rng.standard_normal((300, m)))
    rows[:2, -1] = [-0.0, np.nan]
    # a (node, sample, mode) block (L, n, m) and its swapped view; the
    # (node, mode, sample) view the solver hands a model is covered by
    # test_package_models_keep_a_mode_major_layout
    block = rows.reshape(30, 10, m)
    for v in (rows, block, block.swapaxes(0, 1), rows[0]):
        for noise in (diagonal_linear_noise(s), saturated_noise(s, 2.0)):
            want = (np.clip(v, -2.0, 2.0) if noise.kind == "saturated" else v) * s
            got = noise.diffusion(v)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def mode_major(rows, nodes):
    """rows (nodes * n, m) as the (nodes, n, m) view of (node, mode, sample)
    storage, the view the solver hands a model."""
    block = rows.reshape(nodes, -1, rows.shape[-1])
    return np.ascontiguousarray(block.swapaxes(1, 2)).swapaxes(1, 2)


def is_mode_major(x):
    return x.swapaxes(-1, -2).flags.c_contiguous and not x.flags.c_contiguous


@pytest.mark.parametrize("m", [2, 4])
def test_package_models_keep_a_mode_major_layout(m):
    # elementwise models give their row form's bits; a matrix on the mode
    # axis is one BLAS product per node, within one ulp of the row form
    from msmanifold.example_pde import build_example_problem

    rng = np.random.default_rng(m)
    rows = rng.standard_normal((6 * 50, m)) * np.exp(rng.standard_normal((300, m)))
    rows[:2, -1] = [-0.0, 0.0]
    v = mode_major(rows, 6)
    assert is_mode_major(v) and np.array_equal(v.reshape(-1, m), rows)
    s = rng.standard_normal(m)
    exact = [zero_nonlinearity(m).fn,
             saturated_polynomial_nonlinearity([0.3, -0.2, 0.1], 1.5).fn,
             zero_noise(m).diffusion, diagonal_linear_noise(s).diffusion,
             saturated_noise(s, 1.5).diffusion]
    for fn in exact:
        got = fn(v)
        assert is_mode_major(got)
        assert got.reshape(-1, m).tobytes() == fn(rows).tobytes()
    B = rng.standard_normal((m, m))
    got, want = linear_nonlinearity(B).fn(v), linear_nonlinearity(B).fn(rows)
    assert is_mode_major(got)
    assert np.all(np.abs(got.reshape(-1, m) - want) <= np.spacing(np.abs(want)))
    triple = build_example_problem(m=m, g0=B, g1=s, g2=-s).nonlinearity.fn
    got, want = triple(v), triple(rows)
    assert is_mode_major(got.f)
    assert np.all(np.abs(got.f.reshape(-1, m) - want.f) <= np.spacing(np.abs(want.f)))
    assert got.a.reshape(-1).tobytes() == want.a.tobytes()
    assert got.b.reshape(-1).tobytes() == want.b.tobytes()


def test_callable_nonlinearity_hands_the_user_contiguous_rows():
    # whatever layout the solver and the flow call a model with, the user's
    # function sees C-contiguous (rows, m) arrays
    from msmanifold import (LPConfig, TimeGrid, integrate_mild, sample_wiener,
                            stable_graph, unstable_graph)

    seen = []

    def drift(v):
        assert v.ndim == 2 and v.flags.c_contiguous
        seen.append(v.shape)
        return 0.05 * v[:, ::-1]

    p = build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.5, zeta=-0.5,
                      nonlinearity=callable_nonlinearity(drift, m=2, lipschitz_L1=0.05),
                      noise=diagonal_linear_noise([0.1, 0.1]))
    cfg = LPConfig(c_zeta=1.0, t_back=6.0, t_fwd=10.0, dt=2.5e-2, n_samples=64, tol=1e-2)
    assert unstable_graph(p, [0.2], cfg).trace.converged
    assert stable_graph(p, [0.2], cfg).trace.converged
    grid = TimeGrid(0.0, 2e-2, 50)
    ens = integrate_mild(p, np.array([0.2, -0.1]), grid, sample_wiener(3, grid, p.noise, 64))
    assert np.isfinite(ens.values).all()
    assert (64, 2) in seen and any(rows > 64 for rows, _ in seen)
