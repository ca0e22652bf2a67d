import math

import numpy as np
import pytest

from msmanifold.errors import (
    ConfigError,
    KappaBelowVartheta,
    LadderNotConverged,
    LambdaInSpectrum,
    NonpositiveLambda,
)
from msmanifold import (
    BoundaryTriple,
    DEFAULT_LADDER,
    boundary_columns,
    build_problem,
    c_kappa,
    convolve_diamond,
    estimate_delta,
    extend_projection,
    lambda_regularize,
    project,
    resolvent_boundary,
    richardson_pair,
    semigroup_apply,
    zero_noise,
    zero_nonlinearity,
)
from msmanifold.example_pde import (EXAMPLE_LADDER, OPERATOR_SHIFT,
                                    boundary_flux_nonlinearity, example_eigenvalues)
from msmanifold.resolvent import hille_yosida_data, linear_scan

PI = math.pi


def two_mode():
    return build_problem([1.0, -1.0], [0], alpha=1.0, beta=-1.0, gamma=0.0,
                         zeta=-0.5, nonlinearity=zero_nonlinearity(2),
                         noise=zero_noise(2))


def single_stable():
    return build_problem([-1.0], [], alpha=1.0, beta=-1.0, gamma=0.0,
                         zeta=-0.5, nonlinearity=zero_nonlinearity(1),
                         noise=zero_noise(1))


# ---------------------------------------------------------------- BVP solver

def test_resolvent_boundary_zero_data_is_zero():
    x, phi, diag = resolvent_boundary(1.0, a=0.0, b=0.0)
    assert np.all(phi == 0.0)
    assert diag["weak_residual"] == pytest.approx(0.0, abs=1e-14)


def test_resolvent_boundary_left_flux_closed_form():
    # lam=1, phi'' = phi, phi'(0) = -1, phi'(1) = 0  ->  phi = cosh(1-x)/sinh(1)
    x, phi, diag = resolvent_boundary(1.0, a=1.0, b=0.0, n_x=4001)
    assert phi[0] == pytest.approx(1.0 / math.tanh(1.0), rel=1e-10)
    assert phi[0] == pytest.approx(1.3130, abs=5e-5)
    exact = np.cosh(1.0 - x) / math.sinh(1.0)
    assert np.max(np.abs(phi - exact)) < 1e-10
    # weak residual is trapezoid-limited: h^2/12 * var(phi') ~ 5e-9 at n_x=4001
    assert abs(diag["weak_residual"]) < 1e-7
    assert diag["bc_residual"] < 1e-5


def test_resolvent_boundary_neumann_eigenfunction_identity():
    # (lam - d^2/dx^2)^{-1} cos(pi x) = cos(pi x)/(lam + pi^2)
    x, phi, _ = resolvent_boundary(1.0, f=lambda s: np.cos(PI * s), n_x=8001)
    exact = np.cos(PI * x) / (1.0 + PI ** 2)
    assert np.max(np.abs(phi - exact)) < 1e-7


def test_resolvent_boundary_interior_residual_small():
    x, phi, diag = resolvent_boundary(4.0, a=0.3, b=-0.2,
                                      f=lambda s: np.sin(2 * s), n_x=8001)
    assert diag["pointwise_residual"] < 1e-5
    assert diag["bc_residual"] < 1e-5


def test_resolvent_boundary_rejects_nonpositive_lambda():
    with pytest.raises(NonpositiveLambda):
        resolvent_boundary(0.0, a=1.0)
    with pytest.raises(NonpositiveLambda):
        resolvent_boundary(-2.0, a=1.0)


# ------------------------------------------------------------ mode machinery

def test_hille_yosida_bound_holds_for_diagonal_model():
    p = two_mode()
    hy = hille_yosida_data(p)
    assert hy.M == 1.0 and hy.vartheta == 1.0
    g = np.array([0.8, -0.5])
    for lam in (5.0, 50.0, 500.0):
        out = lambda_regularize(p, lam, g)
        assert np.linalg.norm(out) <= hy.M * lam / (lam - hy.vartheta) * np.linalg.norm(g) * (1 + 1e-12)
    assert hille_yosida_data(p, "stable").vartheta == -1.0


def test_lambda_regularize_scalar_coefficient():
    p = build_problem([-PI ** 2 / 2], [], alpha=1.0, beta=-1.0, gamma=0.0,
                      zeta=-0.5, nonlinearity=zero_nonlinearity(1),
                      noise=zero_noise(1))
    out = lambda_regularize(p, 1e3, np.array([1.0]))
    want = 1e3 / (1e3 + PI ** 2 / 2)
    assert out[0] == pytest.approx(want, rel=1e-14)
    assert out[0] == pytest.approx(0.99509, abs=5e-6)


def test_lambda_regularize_rejects_spectrum_hit():
    p = two_mode()
    with pytest.raises(LambdaInSpectrum):
        lambda_regularize(p, 1.0, np.ones(2))
    with pytest.raises(NonpositiveLambda):
        lambda_regularize(p, -3.0, np.ones(2))


def test_lambda_regularize_first_order_in_inverse_lambda():
    p = two_mode()
    g = np.array([1.0, 0.7])
    lams = np.array([1e2, 1e3, 1e4])
    errs = [np.linalg.norm(lambda_regularize(p, lam, g) - g) for lam in lams]
    slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.2)


def test_lambda_regularize_commutes_with_projection():
    p = two_mode()
    rng = np.random.default_rng(5)
    g = rng.standard_normal(2)
    for lam in (1e2, 1e4):
        a = project(p, lambda_regularize(p, lam, g), "u")
        b = lambda_regularize(p, lam, project(p, g, "u"))
        assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_richardson_pair_eliminates_first_order_term():
    v = lambda lam: 2.0 + 3.0 / lam
    out = richardson_pair(100.0, v(100.0), 1000.0, v(1000.0))
    assert out == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------- boundary columns

def endpoint_value(k: int, end: int) -> float:
    if k == 0:
        return 1.0
    v = math.sqrt(2.0)
    return v if end == 0 else v * (-1.0) ** k


def test_boundary_columns_match_separated_closed_form():
    # Projecting the flux BVP solution onto the cosine basis gives
    # lam * e_k(end) / (lam - lam_k) exactly (integrate by parts twice).
    m = 4
    lam_k = example_eigenvalues(m)
    for lam in (1e2, 1e4):
        cols = boundary_columns(lam, m, OPERATOR_SHIFT)
        for k in range(m):
            want_a = lam / (lam - lam_k[k]) * endpoint_value(k, 0)
            want_b = lam / (lam - lam_k[k]) * endpoint_value(k, 1)
            assert cols[k, 0] == pytest.approx(want_a, abs=1e-7)
            assert cols[k, 1] == pytest.approx(want_b, abs=1e-7)


def test_boundary_columns_converge_to_endpoint_traces(example_problem):
    # lam -> inf limit of the k-th column entry is e_k at the endpoint.
    reg = example_problem.boundary_regularizer
    want0 = np.array([endpoint_value(k, 0) for k in range(4)])
    want1 = np.array([endpoint_value(k, 1) for k in range(4)])
    assert np.max(np.abs(reg[:, 0] - want0)) < 1e-8
    assert np.max(np.abs(reg[:, 1] - want1)) < 1e-8
    diag = example_problem.meta["ladder_diagnostic"]
    assert diag["converged"] and diag["cauchy_gap"] < 1e-6


@pytest.mark.parametrize("coefficients", ["benchmark", "random"])
def test_boundary_triple_rows_do_not_depend_on_the_batch(coefficients):
    # the m = 8 flux example of the benchmark: a state's triple has the same
    # bits alone and in a 6001- or 12002-row batch (the last row of a
    # 6001-row batch included)
    m = 8
    rng = np.random.default_rng(8)
    if coefficients == "benchmark":
        g0, g1, g2 = 0.02 * np.eye(m), 0.05 * np.ones(m), 0.05 * np.ones(m)
    else:
        g0, g1, g2 = np.diag(rng.standard_normal(m)), rng.standard_normal(m), rng.standard_normal(m)
    fn = boundary_flux_nonlinearity(m, g0=g0, g1=g1, g2=g2).fn
    states = 0.1 * rng.standard_normal((12002, m)) * np.exp(rng.standard_normal((12002, 1)))
    alone = [fn(states[i:i + 1]) for i in range(12002)]
    for rows in (6001, 12002):
        batch = fn(states[:rows])
        for part in ("f", "a", "b"):
            got = getattr(batch, part)
            want = np.concatenate([getattr(t, part) for t in alone[:rows]])
            assert got.tobytes() == want.tobytes(), (rows, part)


def test_default_ladder_too_short_for_boundary_data():
    # Boundary data converges like 1/lam with large constants; the 3-rung
    # default ladder honestly reports non-convergence at rtol 1e-6.
    p = build_problem([PI ** 2 / 2, -PI ** 2 / 2], [0], alpha=PI ** 2 / 2,
                      beta=-PI ** 2 / 2, gamma=PI ** 2 / 4, zeta=0.0,
                      nonlinearity=zero_nonlinearity(2), noise=zero_noise(2),
                      meta={"operator_shift": OPERATOR_SHIFT})
    g = BoundaryTriple(a=1.0, b=0.0, f=np.zeros(2))
    with pytest.raises(LadderNotConverged):
        extend_projection(p, g, "full", ladder=DEFAULT_LADDER, rtol=1e-6)
    # The taller example ladder resolves the same datum.
    out, _ = extend_projection(p, g, "full", ladder=EXAMPLE_LADDER, rtol=1e-6)
    assert out[0] == pytest.approx(1.0, abs=1e-6)
    assert out[1] == pytest.approx(math.sqrt(2.0), abs=1e-6)


@pytest.mark.parametrize("lam", [1e3, 1e5])
def test_lambda_regularize_triple_matches_the_three_term_formula(example_problem, lam):
    # f * lam/(lam - lam_k) + a (x) col_a + b (x) col_b, added in that order
    p = example_problem
    rng = np.random.default_rng(3)
    triples = [BoundaryTriple(a=rng.standard_normal(7), b=rng.standard_normal(7),
                              f=rng.standard_normal((7, 4))),
               BoundaryTriple(a=1.0, b=-0.5, f=rng.standard_normal(4))]
    cols = p.meta["boundary_columns"][repr(lam)]
    for g in triples:
        want = g.f * (lam / (lam - p.eigenvalues))
        want = want + np.multiply.outer(g.a, cols[:, 0])
        want = want + np.multiply.outer(g.b, cols[:, 1])
        got = lambda_regularize(p, lam, g)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_extend_projection_is_exact_on_core_vectors():
    p = two_mode()
    g = np.array([0.4, -2.5])
    out, diag = extend_projection(p, g, "u")
    assert np.array_equal(out, project(p, g, "u"))
    assert diag["exact_on_core"]
    out0, _ = extend_projection(p, np.zeros(2), "u")
    assert np.all(out0 == 0.0)


def test_extend_projection_boundary_datum_ladder_cauchy(example_problem):
    g = BoundaryTriple(a=1.0, b=0.0, f=np.zeros(4))
    out, diag = extend_projection(example_problem, g, "u",
                                  ladder=EXAMPLE_LADDER, rtol=1e-6)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0, abs=1e-6)
    assert np.all(out[1:] == 0.0)
    assert diag["converged"] and diag["cauchy_gap"] < 1e-6


# ------------------------------------------------------------- convolutions

def test_convolve_diamond_zero_forcing():
    p = two_mode()
    f = np.zeros((11, 2))
    out = convolve_diamond(p, f, (0.1, 10))
    assert np.all(out == 0.0)


def test_convolve_diamond_constant_forcing_closed_form():
    p = single_stable()
    dt, n = 1e-3, 1000
    f = np.ones((n + 1, 1))
    out = convolve_diamond(p, f, (dt, n), block="stable")
    t = dt * np.arange(n + 1)
    exact = 1.0 - np.exp(-t)    # (e^{lam t} - 1)/lam at lam = -1
    assert np.max(np.abs(out[:, 0] - exact)) < 1e-6


def test_convolve_diamond_matches_cumulative_semigroup_quadrature():
    # S(t)x = int_0^t T(s)x ds, trapezoid on the same grid.
    p = two_mode()
    dt, n = 0.01, 200
    x = np.array([0.3, 1.4])
    f = np.tile(x, (n + 1, 1))
    out = convolve_diamond(p, f, (dt, n), block="stable")
    vals = np.stack([semigroup_apply(p, s, x, "stable")
                     for s in dt * np.arange(n + 1)])
    quad = np.zeros_like(vals)
    quad[1:] = np.cumsum(0.5 * dt * (vals[1:] + vals[:-1]), axis=0)
    assert np.max(np.abs(out - quad)) < 1e-12


def _naive_scan(x, decay, reverse):
    y = np.array(x)
    order = range(len(y) - 2, -1, -1) if reverse else range(1, len(y))
    for j in order:
        y[j] = decay * y[j + 1 if reverse else j - 1] + y[j]
    return y


# stiff (the pde_flux m=8 stable mode 7 at dt=1e-3: lambda*dt = -0.48),
# mild and near-1 decays
SCAN_DECAYS = np.exp(np.array([-0.48, -0.05, -1e-4, -1e-9]))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n, length, block", [
    (2, 6001, 1000),      # narrow nodes: doubling passes
    (2, 1, 1),
    (10000, 7, 3),        # wide nodes: node-by-node sweep
    (10000, 1, 1),
])
def test_linear_scan_matches_sequential_loop(n, length, block, reverse):
    x = np.random.default_rng(n + length).standard_normal((length, n, SCAN_DECAYS.size))
    ref = _naive_scan(x, SCAN_DECAYS, reverse)
    # blocks whose length does not divide the window, carried in scan order
    starts = range(0, length, block)
    y = np.empty_like(x)
    carry = None
    for a in (reversed(starts) if reverse else starts):
        b = min(a + block, length)
        y[a:b] = linear_scan(x[a:b].copy(), SCAN_DECAYS, carry, reverse)
        carry = y[a] if reverse else y[b - 1]
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_linear_scan_zero_width_and_length():
    for shape in ((5, 3, 0), (0, 3, 2)):
        x = np.zeros(shape)
        assert linear_scan(x, np.ones(shape[-1])) is x


def test_convolve_diamond_respects_delta_bound(example_problem):
    dt, n = 0.01, 100
    table = estimate_delta(example_problem, (dt, n), block="stable")
    ones = np.ones(n + 1)
    zeros = np.zeros(n + 1)
    probe = BoundaryTriple(a=ones, b=zeros, f=np.zeros((n + 1, 4)))
    path = convolve_diamond(example_problem, probe, (dt, n), block="stable")
    norms = np.linalg.norm(path, axis=-1)
    # sup||f|| = 1 for the unit flux probe
    assert np.all(norms <= table.values * 1.0 + 1e-12)


# ------------------------------------------------------------------ C_kappa

def test_c_kappa_reference_value():
    got = c_kappa(0.1, 1.0, -1.0, 0.0)
    want = 0.2 / (1.0 - math.exp(-1.0))
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(0.31639534137386534, rel=1e-15)


def test_c_kappa_large_kappa_limit():
    assert c_kappa(0.1, 1.0, -1.0, 50.0) == pytest.approx(0.2, abs=1e-12)


def test_c_kappa_rejects_kappa_at_or_below_vartheta():
    with pytest.raises(KappaBelowVartheta):
        c_kappa(0.1, 1.0, -1.0, -1.0)
    with pytest.raises(KappaBelowVartheta):
        c_kappa(0.1, 1.0, 0.5, 0.0)
    with pytest.raises(ConfigError):
        c_kappa(-0.1, 1.0, -1.0, 0.0)


# -------------------------------------------------------------- delta table

def test_estimate_delta_single_stable_mode():
    p = single_stable()
    dt, n = 0.01, 300
    probe = np.ones((n + 1, 1))
    table = estimate_delta(p, (dt, n), probes=[probe])
    t = table.times
    assert np.max(np.abs(table.values - (1.0 - np.exp(-t)))) < 1e-4
    assert np.all(np.diff(table.values) >= -1e-15)
    assert table.vanishes_at_zero
    # 1 - e^{-t} <= 0.1  <=>  t <= 0.10536
    assert table.rho(0.1) == pytest.approx(0.10536, abs=dt)


def test_estimate_delta_rejects_degenerate_probes():
    p = single_stable()
    dt, n = 0.01, 50
    table = estimate_delta(p, (dt, n), probes=[np.zeros((n + 1, 1))])
    assert table.meta["n_probes"] >= 1
    assert float(np.max(table.values)) > 0.0


def test_delta_table_rho_is_nan_when_no_node_qualifies():
    # delta(t) = 1 - e^{-t} on the single stable mode: M*delta(dt) is about
    # 0.02 at M = 2, so eps = 0.01 admits no node and eps = 0.2 admits some
    p = single_stable()
    dt = 0.01
    table = estimate_delta(p, (dt, 50), M=2.0)
    assert math.isnan(table.rho(0.01))
    assert math.isnan(table.rho(0.0))
    # 2 (1 - e^{-t}) <= 0.2  <=>  t <= 0.10536
    assert table.rho(0.2) == pytest.approx(0.10536, abs=dt)
