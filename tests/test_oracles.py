import ast
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

import msmanifold.oracles
from msmanifold.errors import ConfigError, MaxIterExceeded, NoSeparation
from msmanifold import (
    BoundaryTriple,
    LPConfig,
    build_example_problem,
    build_problem,
    callable_nonlinearity,
    convolve_diamond,
    deterministic_lp_oracle,
    diagonal_linear_noise,
    estimate_delta,
    linear_manifold_oracle,
    linear_nonlinearity,
    moment_oracle,
    refinement_study,
    unstable_graph,
    zero_noise,
    zero_nonlinearity,
)


def problem(lam, B=None, noise=None, gamma=0.5, zeta=-0.5, F=None):
    lam = list(lam)
    if F is None:
        F = zero_nonlinearity(2) if B is None else linear_nonlinearity(B)
    return build_problem(lam, [0], alpha=lam[0], beta=lam[1], gamma=gamma,
                         zeta=zeta, nonlinearity=F,
                         noise=zero_noise(2) if noise is None else noise)


# --------------------------------------------------------- sylvester slopes

def test_slope_oracle_zero_coupling():
    M = linear_manifold_oracle([[1.0]], [[-1.0]], np.zeros((2, 2)))
    assert M.shape == (1, 1)
    assert M[0, 0] == 0.0


def test_slope_oracle_one_way_closed_form():
    # M * 1 = -2 M + 0.05  =>  M = 0.05 / 3
    M = linear_manifold_oracle([[1.0]], [[-2.0]], [[0.0, 0.0], [0.05, 0.0]])
    assert M[0, 0] == pytest.approx(0.05 / 3.0, abs=1e-12)


def test_slope_oracle_two_way_quadratic_root():
    # M (1 + 0.1 M) = -M + 0.1  =>  0.1 M^2 + 2 M - 0.1 = 0
    b = np.array([[0.0, 0.1], [0.1, 0.0]])
    M = linear_manifold_oracle([[1.0]], [[-1.0]], b)
    root = (math.sqrt(4.04) - 2.0) / 0.2
    assert M[0, 0] == pytest.approx(root, abs=1e-11)
    resid = M @ (np.eye(1) + 0.1 * M) - (-M + 0.1)
    assert np.max(np.abs(resid)) < 1e-10


def test_slope_oracle_block_case():
    # diagonal A_u, scalar A_s = -1: M = B_su (A_u + I)^{-1}
    a_u = [[1.0, 0.0], [0.0, 1.5]]
    b = np.zeros((3, 3))
    b[2, 0], b[2, 1] = 0.1, 0.05
    M = linear_manifold_oracle(a_u, [[-1.0]], b)
    assert np.allclose(M, [[0.05, 0.02]], atol=1e-12)


def test_slope_oracle_stall_reports_distance_and_limits():
    b = np.array([[0.0, 0.1], [0.1, 0.0]])
    with pytest.raises(MaxIterExceeded) as info:
        linear_manifold_oracle([[1.0]], [[-1.0]], b, tol=1e-13, max_iter=1)
    exc = info.value
    assert (exc.tol, exc.max_iter) == (1e-13, 1)
    assert exc.distance > exc.tol
    assert f"{exc.distance:.3e}" in str(exc)


def test_slope_oracle_residual_refusal_reports_residual_and_limit():
    # a loose tol stops after one step, before the quadratic feedback settles
    b = np.array([[0.0, 0.1], [0.1, 0.0]])
    with pytest.raises(MaxIterExceeded) as info:
        linear_manifold_oracle([[1.0]], [[-1.0]], b, tol=1.0, max_iter=7)
    exc = info.value
    assert (exc.tol, exc.max_iter) == (msmanifold.oracles._RESIDUAL_TOL, 7)
    assert exc.distance >= exc.tol
    assert f"{exc.distance:.3e}" in str(exc)


def test_slope_oracle_refuses_max_iter_below_one():
    with pytest.raises(ConfigError, match="max_iter must be >= 1"):
        linear_manifold_oracle([[1.0]], [[-1.0]], [[0.0, 0.0], [0.1, 0.0]], max_iter=0)


def test_slope_oracle_requires_separation():
    with pytest.raises(NoSeparation):
        linear_manifold_oracle([[1.0]], [[1.0]], np.zeros((2, 2)))


def test_slope_oracle_checks_coupling_shape():
    with pytest.raises(ConfigError):
        linear_manifold_oracle([[1.0]], [[-1.0]], np.zeros((3, 3)))


# --------------------------------------------------- quadrature fixed point

def test_quadrature_oracle_zero_forcing():
    p = problem((1.0, -1.0))
    h = deterministic_lp_oracle(p, [0.4], LPConfig(c_zeta=1.0, t_back=4.0,
                                                   dt=1e-2, tol=1e-10))
    assert np.all(h == 0.0)


def test_quadrature_oracle_linear_closed_form():
    # F_s = 0.1 u: h(x) = 0.1 x / (1 - (-1)) = 0.05 x
    p = problem((1.0, -1.0), B=np.array([[0.0, 0.0], [0.1, 0.0]]))
    cfg = LPConfig(c_zeta=1.0, t_back=10.0, dt=2e-3, tol=1e-9, max_iter=60)
    h = deterministic_lp_oracle(p, [0.4], cfg)
    assert h[0] == pytest.approx(0.02, abs=2e-7)


def test_quadrature_oracle_cubic_closed_form_and_solver_agreement():
    # F_s = 0.05 u + 0.05 u^3 on rates (1, -1):
    # h(x) = 0.05 x / 2 + 0.05 x^3 / 4
    def fs(v):
        out = np.zeros_like(v)
        out[..., 1] = 0.05 * v[..., 0] + 0.05 * v[..., 0] ** 3
        return out

    F = callable_nonlinearity(fs, m=2, lipschitz_L1=0.2)
    p = problem((1.0, -1.0), F=F)
    cfg = LPConfig(c_zeta=1.0, t_back=18.5, dt=2e-3, tol=1e-7, max_iter=60)
    x = 0.6
    h = deterministic_lp_oracle(p, [x], cfg)
    exact = 0.025 * x + 0.0125 * x ** 3
    assert abs(h[0] - exact) < 5e-7
    g = unstable_graph(p, [x], cfg)
    assert abs(g.h_value[0, 0] - h[0]) < 1e-8


def test_quadrature_oracle_agrees_with_solver_linear():
    p = problem((1.0, -2.0), B=np.array([[0.0, 0.0], [0.1, 0.0]]), zeta=-1.5)
    cfg = LPConfig(c_zeta=1.0, t_back=12.0, dt=2e-3, tol=1e-9, max_iter=60)
    h = deterministic_lp_oracle(p, [0.3], cfg)
    g = unstable_graph(p, [0.3], cfg)
    assert abs(h[0] - g.h_value[0, 0]) < 1e-8


def test_quadrature_oracle_mixing_nonlinearity():
    # genuine fixed point: the unstable forcing depends on the stable block
    def mix(v):
        out = np.zeros_like(v)
        out[..., 0] = 0.05 * np.tanh(v[..., 1])
        out[..., 1] = 0.1 * v[..., 0]
        return out

    F = callable_nonlinearity(mix, m=2, lipschitz_L1=0.15)
    p = problem((1.0, -1.0), F=F)
    cfg = LPConfig(c_zeta=1.0, t_back=16.0, dt=4e-3, tol=1e-6, max_iter=60)
    base = deterministic_lp_oracle(p, [0.5], cfg)
    fine = deterministic_lp_oracle(p, [0.5], replace(cfg, dt=2e-3))
    assert abs(base[0] - fine[0]) < 5e-6
    g = unstable_graph(p, [0.5], replace(cfg, dt=2e-3))
    assert abs(g.h_value[0, 0] - fine[0]) < 1e-8


def _flux_problem_and_slope(m):
    # boundary-valued forcing reaches the modes through the regularizer;
    # the same linear drift in mode space gives the Sylvester slope
    p = build_example_problem(m=m, g0=0.02 * np.eye(m), g1=0.05 * np.ones(m),
                              g2=0.05 * np.ones(m))
    cols = p.boundary_regularizer
    drift = (0.02 * np.eye(m) + np.outer(cols[:, 0], 0.05 * np.ones(m))
             + np.outer(cols[:, 1], 0.05 * np.ones(m)))
    lam = p.eigenvalues
    return p, linear_manifold_oracle(np.diag(lam[:1]), np.diag(lam[1:]), drift)


def test_quadrature_oracle_on_boundary_flux_problem():
    p, slope = _flux_problem_and_slope(4)
    x, dt = 0.1, 4e-3
    h = deterministic_lp_oracle(p, [x], LPConfig(c_zeta=0.5, t_back=2.0, dt=dt,
                                                 tol=1e-10, max_iter=60))
    assert np.all(np.isfinite(h))
    assert np.max(np.abs(h - x * slope[:, 0])) <= 0.01 * dt * x


@pytest.mark.parametrize("m, t_back", [(8, 6.0), (4, 12.0)])
def test_quadrature_oracle_survives_stiff_windows(m, t_back):
    # exp(lam (t_j - t_r)) outside a kernel's window overflows for the
    # stiff stable modes; the zero weights there must not turn it into NaN
    p, slope = _flux_problem_and_slope(m)
    x, dt = 0.2, 1e-2
    with np.errstate(over="raise", invalid="raise"):
        h = deterministic_lp_oracle(p, [x], LPConfig(c_zeta=0.5, t_back=t_back,
                                                     dt=dt, tol=1e-10, max_iter=60))
    assert np.all(np.isfinite(h))
    assert np.max(np.abs(h - x * slope[:, 0])) <= 0.1 * dt * abs(x)


def test_quadrature_oracle_with_a_positive_stable_rate():
    # rates (3, 1): the stable kernel grows on its window, where it must be
    # kept as is. F_s = 0.1 u gives h(x) = 0.1 x / (3 - 1) = 0.05 x
    p = problem((3.0, 1.0), B=np.array([[0.0, 0.0], [0.1, 0.0]]), gamma=2.0, zeta=1.5)
    cfg = LPConfig(c_zeta=1.0, t_back=10.0, dt=2e-3, tol=1e-9, max_iter=60)
    h = deterministic_lp_oracle(p, [0.4], cfg)
    assert h[0] == pytest.approx(0.02, abs=2e-7)


def test_boundary_problem_without_frozen_columns_is_refused_everywhere():
    # one column source: with no regularizer frozen, the solver, the
    # quadrature oracle, the convolution and the delta table refuse alike
    p = replace(build_example_problem(m=2, g1=0.05 * np.ones(2), g2=0.05 * np.ones(2)),
                boundary_regularizer=None)
    cfg = LPConfig(c_zeta=0.5, t_back=8.0, dt=1e-2, tol=1e-9)
    n = 800
    probe = BoundaryTriple(a=np.ones(n + 1), b=np.zeros(n + 1), f=np.zeros((n + 1, 2)))
    calls = (lambda: unstable_graph(p, [0.2], cfg),
             lambda: deterministic_lp_oracle(p, [0.2], cfg),
             lambda: convolve_diamond(p, probe, (cfg.dt, n)),
             lambda: estimate_delta(p, (cfg.dt, n)))
    messages = []
    for call in calls:
        with pytest.raises(ConfigError) as exc:
            call()
        messages.append(str(exc.value))
    assert set(messages) == {"boundary-valued forcing needs a boundary regularizer"}


def test_solver_and_quadrature_oracle_share_the_boundary_regularizer():
    # both map boundary data through the lambda -> infinity columns, so on
    # a linear flux problem they agree to rounding
    p, _ = _flux_problem_and_slope(8)
    cfg = LPConfig(c_zeta=0.5, t_back=10.0, dt=1e-2, tol=1e-9)
    h = deterministic_lp_oracle(p, [0.2], cfg)
    g = unstable_graph(p, [0.2], cfg)
    assert np.max(np.abs(g.h_value - h)) <= 1e-12


def test_quadrature_oracle_guards():
    noisy = problem((1.0, -1.0), noise=diagonal_linear_noise([0.1, 0.1]))
    cfg = LPConfig(c_zeta=1.0, t_back=2.0, dt=1e-2, tol=1e-8)
    with pytest.raises(ConfigError):
        deterministic_lp_oracle(noisy, [0.1], cfg)
    p = problem((1.0, -1.0))
    with pytest.raises(ConfigError):
        deterministic_lp_oracle(p, [0.1, 0.2], cfg)


def test_quadrature_oracle_refuses_max_iter_below_one():
    p = problem((1.0, -1.0), B=[[0.0, 0.0], [0.1, 0.0]])
    with pytest.raises(ConfigError, match="max_iter must be >= 1"):
        deterministic_lp_oracle(p, [0.3], LPConfig(c_zeta=1.0, t_back=2.0, dt=1e-2,
                                                   max_iter=0))


def test_quadrature_oracle_reports_stall():
    def mix(v):
        out = np.zeros_like(v)
        out[..., 0] = 0.05 * np.tanh(v[..., 1])
        out[..., 1] = 0.1 * v[..., 0]
        return out

    F = callable_nonlinearity(mix, m=2, lipschitz_L1=0.15)
    p = problem((1.0, -1.0), F=F)
    with pytest.raises(MaxIterExceeded):
        deterministic_lp_oracle(p, [0.5], LPConfig(c_zeta=1.0, t_back=2.0,
                                                   dt=1e-2, tol=1e-10,
                                                   max_iter=1))


def test_quadrature_oracle_stall_reports_distance_and_limits():
    # two-way coupling: no finite number of sweeps is exact
    p = problem((1.0, -1.0), B=[[0.0, 0.05], [0.1, 0.0]])
    with pytest.raises(MaxIterExceeded) as info:
        deterministic_lp_oracle(p, [0.3], LPConfig(c_zeta=1.0, t_back=2.0, dt=1e-2,
                                                   tol=1e-12, max_iter=2))
    exc = info.value
    assert (exc.tol, exc.max_iter) == (1e-12, 2)
    assert exc.distance > exc.tol
    assert f"{exc.distance:.3e}" in str(exc)


# ------------------------------------------------------------ scalar moment

def test_moment_oracle_frozen_value():
    # exponent 2*(-1) + 0.25 = -1.75 at u0 = 2
    assert moment_oracle(-1.0, 0.5, 2.0, 1.0) == pytest.approx(
        0.6950957738017806, rel=1e-14)


def test_moment_oracle_degenerate_cases():
    assert moment_oracle(0.3, 0.0, 1.5, 2.0) == pytest.approx(
        2.25 * math.exp(1.2), rel=1e-14)
    assert moment_oracle(-0.7, 0.4, 3.0, 0.0) == 9.0


# ------------------------------------------------------- refinement studies

def stochastic_problem():
    B = np.array([[0.0, 0.0], [0.1, 0.0]])
    return problem((1.0, -1.0), B=B, noise=diagonal_linear_noise([0.1, 0.1]))


def test_refinement_dt_has_positive_strong_order():
    p = stochastic_problem()
    cfg = LPConfig(c_zeta=1.0, t_fwd=1.0, dt=1e-2, tol=1e-6, n_samples=512,
                   seed=7)
    st = refinement_study(p, cfg, "dt")
    assert st.slope_kind == "loglog"
    assert 0.3 <= st.slope <= 1.2
    assert st.monotone
    assert len(st.rows) == 3


def test_refinement_n_samples_is_root_n():
    p = stochastic_problem()
    cfg = LPConfig(c_zeta=1.0, t_fwd=1.0, dt=1e-2, tol=1e-6, seed=7)
    st = refinement_study(p, cfg, "n_samples", values=(400, 1600, 6400))
    assert -0.7 <= st.slope <= -0.3
    assert st.monotone


def test_refinement_T_back_decays_exponentially():
    p = problem((1.0, -2.0), B=np.array([[0.0, 0.0], [0.1, 0.0]]), zeta=-1.5)
    cfg = LPConfig(c_zeta=1.0, t_back=8.0, dt=5e-3, tol=1e-10, max_iter=60)
    st = refinement_study(p, cfg, "T_back", values=(4.0, 6.0, 8.0), x=[0.3])
    assert st.slope_kind == "semilog"
    assert st.slope < -1.5
    assert st.monotone


def test_refinement_lambda_defect_is_first_order():
    p = stochastic_problem()
    cfg = LPConfig(c_zeta=1.0)
    st = refinement_study(p, cfg, "lambda", values=(1e2, 1e3, 1e4))
    assert -1.2 <= st.slope <= -0.8
    assert st.monotone


def test_refinement_rejects_short_sweeps_and_unknown_parameters():
    p = stochastic_problem()
    cfg = LPConfig(c_zeta=1.0)
    with pytest.raises(ConfigError):
        refinement_study(p, cfg, "lambda", values=(1e2, 1e3))
    with pytest.raises(ConfigError):
        refinement_study(p, cfg, "n_modes")


def test_refinement_csv_rows_format():
    p = stochastic_problem()
    cfg = LPConfig(c_zeta=1.0)
    st = refinement_study(p, cfg, "lambda", values=(1e2, 1e3, 1e4))
    rows = list(st.csv_rows())
    assert rows[0] == ("lambda", "observable", "error")
    assert len(rows) == 4
    assert rows[1][0] == "%.17g" % 100.0
    assert float(rows[1][2]) > float(rows[3][2])


# -------------------------------------------------------------- independence

def test_oracles_never_import_the_solver():
    src = inspect.getsource(msmanifold.oracles)
    assert "lyapunov_perron" not in src


def test_oracle_module_level_imports_are_minimal():
    src = inspect.getsource(msmanifold.oracles)
    allowed_abs = {"numpy", "math", "dataclasses", "typing", "__future__"}
    allowed_rel = {"errors", "problem"}
    for node in ast.parse(src).body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in allowed_abs, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.module in allowed_rel, node.module
            else:
                assert node.module.split(".")[0] in allowed_abs, node.module
