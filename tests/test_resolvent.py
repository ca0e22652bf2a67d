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
    semigroup_apply,
    zero_noise,
    zero_nonlinearity,
)
from msmanifold.example_pde import (EXAMPLE_LADDER, OPERATOR_SHIFT,
                                    boundary_flux_nonlinearity, build_example_problem,
                                    endpoint_values, example_eigenvalues)
from msmanifold.resolvent import (_neville_at_infinity, _sweeps, boundary_ladder,
                                  hille_yosida_data, linear_scan, scan_layout, trapezoid_scan)

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


@pytest.mark.parametrize("n_x, lam", [(5, 2.0), (601, 1.0), (513, 30.0)])
def test_resolvent_boundary_quadrature_in_row_blocks_is_the_dense_one(n_x, lam):
    # the Green kernel in blocks of rows gives the bits of the dense
    # n_x x n_x kernel and its trapezoid rule
    a, b, f = 0.3, -0.2, lambda s: np.cos(3.0 * s) + s * s
    x, phi, _ = resolvent_boundary(lam, a=a, b=b, f=f, n_x=n_x)
    r = np.sqrt(lam)
    lo, hi = np.minimum.outer(x, x), np.maximum.outer(x, x)
    G = (np.exp(-r * (hi - lo)) + np.exp(-r * (2.0 - hi - lo)) + np.exp(-r * (hi + lo))
         + np.exp(-r * (2.0 + lo - hi))) / (2.0 * r * (1.0 - np.exp(-2.0 * r)))
    denom = r * (1.0 - np.exp(-2.0 * r))
    left = (np.exp(-r * x) + np.exp(-r * (2.0 - x))) / denom
    right = (np.exp(-r * (1.0 - x)) + np.exp(-r * (1.0 + x))) / denom
    dense = a * left + b * right + np.trapezoid(G * f(x), x, axis=1)
    assert phi.tobytes() == dense.tobytes()


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


def test_lambda_regularize_copies_boundary_forcing_once():
    # f * scale is the only full-size array made; the boundary terms are
    # added into it, where a second copy took the peak to 2.13 x f.nbytes
    import tracemalloc

    p = build_example_problem(m=8)
    rng = np.random.default_rng(3)
    n = 100_000
    g = BoundaryTriple(a=rng.standard_normal(n), b=rng.standard_normal(n),
                       f=rng.standard_normal((n, 8)))
    lam = 1e3
    tracemalloc.start()
    try:
        out = lambda_regularize(p, lam, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * g.f.nbytes
    scale = lam / (lam - p.eigenvalues)
    cols = boundary_columns(lam, 8, OPERATOR_SHIFT)
    want = g.f * scale + g.a[:, None] * cols[:, 0] + g.b[:, None] * cols[:, 1]
    assert np.array_equal(out, want)


def test_richardson_pair_eliminates_first_order_term():
    v = lambda lam: 2.0 + 3.0 / lam
    out = _neville_at_infinity((100.0, 1000.0), (v(100.0), v(1000.0)))[1]
    assert out == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------- boundary columns

def endpoint_value(k: int, end: int) -> float:
    if k == 0:
        return 1.0
    v = math.sqrt(2.0)
    return v if end == 0 else v * (-1.0) ** k


def bvp_projected_columns(lam, m, shift):
    """The columns by quadrature: solve the flux BVP at mu = lam - shift on a
    grid of 120 nodes per sqrt(mu)-wide boundary layer (at least 8001, at
    most 200001, odd) and project it on the cosine modes by Simpson's rule."""
    mu = lam - shift
    n_x = min(max(8001, int(120.0 * np.sqrt(mu))), 200001)
    n_x += 1 - n_x % 2
    x, phi_a, _ = resolvent_boundary(mu, a=1.0, b=0.0, n_x=n_x)
    _, phi_b, _ = resolvent_boundary(mu, a=0.0, b=1.0, n_x=n_x)
    E = np.sqrt(2.0) * np.cos(np.arange(m)[:, None] * PI * x[None, :])
    E[0] = 1.0
    w = np.ones(n_x)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (x[1] - x[0]) / 3.0
    return np.stack([lam * (E * phi_a) @ w, lam * (E * phi_b) @ w], axis=1)


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
    # and the quadrature of the BVP solution agrees at every example rung
    # (by 3.8e-11 at m = 8)
    for lam in EXAMPLE_LADDER:
        cols = boundary_columns(lam, 8, OPERATOR_SHIFT)
        assert np.max(np.abs(cols - bvp_projected_columns(lam, 8, OPERATOR_SHIFT))) < 1e-9


def test_boundary_columns_refuse_lambda_at_or_below_the_shift():
    with pytest.raises(NonpositiveLambda):
        boundary_columns(OPERATOR_SHIFT, 4, OPERATOR_SHIFT)


def test_boundary_columns_converge_to_endpoint_traces(example_problem):
    # lam -> inf limit of the k-th column entry is e_k at the endpoint.
    reg = example_problem.boundary_regularizer
    want0 = np.array([endpoint_value(k, 0) for k in range(4)])
    want1 = np.array([endpoint_value(k, 1) for k in range(4)])
    assert np.max(np.abs(reg[:, 0] - want0)) < 1e-8
    assert np.max(np.abs(reg[:, 1] - want1)) < 1e-8


@pytest.mark.parametrize("m", [2, 4, 8, 24])
def test_example_regularizer_is_the_exact_endpoint_values(m):
    reg = build_example_problem(m=m).boundary_regularizer
    assert reg.shape == (m, 2)
    assert reg[:, 0].tobytes() == endpoint_values(m, 0).tobytes()
    assert reg[:, 1].tobytes() == endpoint_values(m, 1).tobytes()


@pytest.mark.parametrize("m, converged", [(4, True), (8, True), (24, False)])
def test_boundary_ladder_reports_the_extrapolants_miss_of_the_exact_limit(m, converged):
    # the study walks the closed-form rungs; it reports, never refuses, and
    # its limit_miss shows what cauchy_gap understates (3.9e-8 against
    # 5.8e-9 at m = 8)
    p = build_example_problem(m=m)
    rungs, diag = boundary_ladder(p)
    assert [lam for lam, _ in rungs] == list(EXAMPLE_LADDER)
    for lam, cols in rungs:
        assert cols.tobytes() == boundary_columns(lam, m, OPERATOR_SHIFT).tobytes()
    assert diag["converged"] is converged
    assert diag["limit_miss"] > 0.0
    if m == 4:
        assert diag["limit_miss"] < 1e-10
    if m == 8:
        assert diag["limit_miss"] > diag["cauchy_gap"]


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
    cols = boundary_columns(lam, 4, OPERATOR_SHIFT)
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


def test_extend_projection_defaults_to_the_problems_frozen_ladder(example_problem):
    # DEFAULT_LADDER is too short for this datum (see above); the example's
    # frozen ladder reaches the solver's exact regularizer column to within
    # its extrapolation error (2.9e-11 at m = 4)
    p = example_problem
    out, diag = extend_projection(p, BoundaryTriple(a=1.0, b=0.0, f=np.zeros(4)), "u")
    assert diag["ladder"] == list(p.meta["ladder"]) and diag["cauchy_gap"] < 1e-12
    assert abs(out[0] - p.boundary_regularizer[0, 0]) < 1e-10


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


def _nodewise_doubling(x, decay, carry):
    # the doubling passes as node-major storage took them, whole nodes a pass
    y = np.array(x)
    y[0] += decay * carry
    shift = 1
    while shift < len(y):
        y[shift:] += np.power(decay, shift) * y[:-shift]
        shift *= 2
    return y


@pytest.mark.parametrize("layout", ["node-major", "lanes"])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("shape", [(6001, 1, 4), (6001, 1, 1), (1000, 3, 4), (5, 2, 4)])
def test_linear_scan_doubling_matches_nodewise_passes_bit_for_bit(shape, reverse, layout):
    # narrow blocks, the pde_flux one-sample scans among them, stored
    # node-major or with each entry's nodes contiguous
    rng = np.random.default_rng(shape[0])
    x, carry = rng.standard_normal(shape), rng.standard_normal(shape[1:])
    decay = SCAN_DECAYS[:shape[-1]]
    want = _nodewise_doubling(x[::-1] if reverse else x, decay, carry)
    if layout == "lanes":
        got = np.moveaxis(np.moveaxis(x, 0, -1).copy(), -1, 0)
    else:
        got = x.copy()
    assert linear_scan(got, decay, carry, reverse) is got
    assert np.ascontiguousarray(got[::-1] if reverse else got).tobytes() == want.tobytes()


def test_linear_scan_zero_width_and_length():
    for shape in ((5, 3, 0), (0, 3, 2)):
        x = np.zeros(shape)
        assert linear_scan(x, np.ones(shape[-1])) is x


def _naive_trapezoid(h, extra, decay, start, reverse):
    # y_j = decay * (y_{j-1} + h_{j-1}) + h_j + extra_j node by node (j + 1
    # when reverse), from y = start at the window's edge node
    order = range(len(h) - 1, -1, -1) if reverse else range(len(h))
    y = np.empty_like(h)
    prev = None
    for j in order:
        y[j] = start if prev is None else decay * (y[prev] + h[prev]) + h[j] + extra[j]
        prev = j
    return y


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n, length, block", [
    (2, 1000, 300),       # narrow nodes: doubling passes, on lanes (scan_layout)
    (64, 50, 16),         # wide nodes: node-by-node sweep
])
def test_trapezoid_scan_matches_the_rule_node_by_node(n, length, block, reverse):
    rng = np.random.default_rng(n + length)
    h, extra = rng.standard_normal((2, length, n, SCAN_DECAYS.size))
    start = rng.standard_normal((n, SCAN_DECAYS.size))
    ref = _naive_trapezoid(h, extra, SCAN_DECAYS, start, reverse)
    # blocks whose length does not divide the window, carried in scan order,
    # each laid out as the maps lay theirs out; the edge node's extra term
    # is dropped, as a window starts from ``start`` alone
    starts = range(0, length, block)
    y = np.empty_like(h)
    carry = None
    for a in (reversed(starts) if reverse else starts):
        b = min(a + block, length)
        hb = scan_layout(h[a:b].copy())
        assert _sweeps(hb) == (n == 64)
        z = hb + hb + extra[a:b]
        carry = trapezoid_scan(z, hb, SCAN_DECAYS, carry, start, reverse)
        # the carry is the z = y + h of the last node scanned
        assert np.allclose(carry, z[0] + hb[0] if reverse else z[-1] + hb[-1], rtol=1e-13, atol=0)
        y[a:b] = z
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["a", "b", "f"])
def test_a_caller_built_boundary_triple_with_a_nonfinite_entry_is_refused(name, bad):
    fields = {"a": np.ones(3), "b": np.zeros(3), "f": np.zeros((3, 2))}
    fields[name] = fields[name].copy()
    fields[name].flat[-1] = bad
    with pytest.raises(ConfigError, match=f"boundary triple field {name} not finite"):
        BoundaryTriple(**fields)
    BoundaryTriple(**{**fields, name: np.zeros_like(fields[name])})
