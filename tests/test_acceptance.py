"""Acceptance gate: one test per release criterion, each printing a visible
PASS/FAIL verdict line even under captured output."""
import json
import math
import time

import numpy as np

from msmanifold import (LPConfig, build_example_problem, diagonal_linear_noise,
                        saturated_noise)
from msmanifold.cli import main
from msmanifold.condexp import RegressionBasis, condexp_lsmc
from msmanifold.config import (SCHEMA, lp_config_from_run, problem_from_config,
                               validate_config)
from msmanifold.lyapunov_perron import (gap_report_for, invariance_residual,
                                        lipschitz_bound, lp_backward_solve,
                                        stable_graph, unstable_graph)
from msmanifold.oracles import linear_manifold_oracle, refinement_study


def two_mode(eigs, rates, matrix, noise, run):
    cfg = validate_config({
        "schema": SCHEMA,
        "problem": {
            "eigenvalues": eigs,
            "unstable_modes": [0],
            "rates": rates,
            "nonlinearity": {"kind": "linear", "matrix": matrix},
            "noise": noise,
        },
        "run": run,
    })
    p = problem_from_config(cfg)
    return p, lp_config_from_run(cfg["run"]), cfg


ZERO = {"kind": "zero"}


def verdict(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    return ok


def test_acceptance_01_gap_arithmetic(capsys):
    p, c, _ = two_mode(
        [1.0, -1.0],
        {"alpha": 1.0, "beta": -1.0, "gamma": 0.0, "zeta": -0.5},
        [[0.0, 0.01], [0.01, 0.0]],
        {"kind": "diagonal_linear", "slopes": [0.01, 0.01]},
        {"c_zeta": 0.5},
    )
    start = time.monotonic()
    g = gap_report_for(p, c)
    elapsed = time.monotonic() - start
    err_eta = abs(g.eta - 0.02)
    err_delta = abs(g.delta - (0.01 + 0.01 / math.sqrt(2.0) + 0.01))
    ok = err_eta <= 1e-12 and err_delta <= 1e-12 and elapsed < 1.0
    assert verdict(capsys, 1, "gap constants match the closed-form values", ok)
    assert err_eta <= 1e-12 and err_delta <= 1e-12
    assert elapsed < 1.0


def test_acceptance_02_trivial_manifold(capsys):
    p, c, _ = two_mode(
        [1.0, -1.0],
        {"alpha": 1.0, "beta": -1.0, "gamma": 0.5, "zeta": -0.5},
        [[0.0, 0.0], [0.0, 0.0]], ZERO,
        {"c_zeta": 0.5, "t_back": 5.0, "t_fwd": 5.0, "dt": 1e-2, "tol": 1e-9},
    )
    gu = unstable_graph(p, np.array([[0.3]]), c)
    gs = stable_graph(p, np.array([[0.3]]), c)
    ok = (np.max(np.abs(gu.h_value)) <= 1e-15
          and np.max(np.abs(gs.h_value)) <= 1e-15
          and gu.trace.iterations == 1 and gs.trace.iterations == 1)
    assert verdict(capsys, 2, "zero forcing gives the zero graph in one sweep", ok)
    assert np.max(np.abs(gu.h_value)) <= 1e-15
    assert np.max(np.abs(gs.h_value)) <= 1e-15
    assert gu.trace.iterations == 1
    assert gs.trace.iterations == 1


def test_acceptance_03_linear_oracle_equivalence(capsys):
    p, c, _ = two_mode(
        [1.0, -1.0],
        {"alpha": 1.0, "beta": -1.0, "gamma": 0.5, "zeta": -0.5},
        [[0.0, 0.0], [0.1, 0.0]], ZERO,
        {"c_zeta": 0.5, "t_back": 13.0, "dt": 2e-3, "tol": 1e-6},
    )
    start = time.monotonic()
    graph = unstable_graph(p, np.array([[0.1]]), c)
    elapsed = time.monotonic() - start
    slope = graph.h_value[0, 0] / 0.1
    m = linear_manifold_oracle([[1.0]], [[-1.0]], [[0.0, 0.0], [0.1, 0.0]])
    ok = abs(slope - m[0, 0]) <= 1e-3 and abs(m[0, 0] - 0.05) <= 1e-10 \
        and elapsed < 10.0
    assert verdict(capsys, 3, "solved graph slope matches the linear oracle", ok)
    assert abs(m[0, 0] - 0.05) <= 1e-10
    assert abs(slope - m[0, 0]) <= 1e-3
    assert elapsed < 10.0


def test_acceptance_04_contraction_certificate(capsys):
    p, c, _ = two_mode(
        [1.0, -1.0],
        {"alpha": 1.0, "beta": -1.0, "gamma": 0.9, "zeta": -0.9},
        [[0.0, 0.05], [0.05, 0.0]], ZERO,
        {"c_zeta": 0.5, "t_back": 15.0, "dt": 5e-3, "tol": 1e-11,
         "max_iter": 60},
    )
    g = gap_report_for(p, c)
    _, trace = lp_backward_solve(p, np.array([[0.1]]), c)
    ok = (g.eta < 1.0 and len(trace.ratios) >= 5
          and max(trace.ratios) <= g.eta * 1.2)
    assert verdict(capsys, 4, "iteration contracts within the certified rate", ok)
    assert g.eta < 1.0
    assert len(trace.ratios) >= 5
    assert max(trace.ratios) <= g.eta * 1.2


def test_acceptance_05_invariance_refinement(capsys):
    start = time.monotonic()
    residuals = []
    for dt, n in ((5e-3, 100), (4e-3, 625), (1e-3, 10000)):
        p, c, _ = two_mode(
            [1.0, -2.0],
            {"alpha": 1.0, "beta": -2.0, "gamma": 0.5, "zeta": -1.5},
            [[0.0, 0.0], [0.1, 0.0]],
            {"kind": "diagonal_linear", "slopes": [0.1, 0.1]},
            {"c_zeta": 0.5, "t_back": 4.5, "dt": dt, "tol": 1e-4,
             "n_samples": n, "seed": 2, "t0": 0.5},
        )
        residuals.append(invariance_residual(p, np.array([0.1]), c,
                                             t0=0.5, side="unstable"))
    elapsed = time.monotonic() - start
    ok = (residuals[-1] <= 5e-2
          and residuals[0] > residuals[1] > residuals[2]
          and elapsed < 300.0)
    assert verdict(capsys, 5, "invariance residual refines under dt and n", ok)
    assert residuals[-1] <= 5e-2
    assert residuals[0] > residuals[1] > residuals[2], residuals
    assert elapsed < 300.0


def test_acceptance_06_lipschitz_certificates(capsys):
    anchors = np.linspace(0.05, 0.25, 21)

    p_u, c_u, _ = two_mode(
        [1.0, -2.0],
        {"alpha": 1.0, "beta": -2.0, "gamma": 0.5, "zeta": -1.5},
        [[0.0, 0.0], [0.1, 0.0]], ZERO,
        {"c_zeta": 0.5, "t_back": 10.0, "dt": 5e-3, "tol": 1e-8},
    )
    vals_u = np.array([unstable_graph(p_u, np.array([[a]]), c_u).h_value[0, 0]
                       for a in anchors])
    emp_u = np.abs(np.diff(vals_u)) / np.diff(anchors)
    theo_u = lipschitz_bound(p_u, c_u, "unstable")

    p_s, c_s, _ = two_mode(
        [1.0, -1.0],
        {"alpha": 1.0, "beta": -1.0, "gamma": 0.5, "zeta": -0.5},
        [[0.0, 0.01], [0.0, 0.0]], ZERO,
        {"c_zeta": 0.5, "t_fwd": 28.5, "dt": 1e-2, "tol": 1e-7,
         "side": "stable"},
    )
    vals_s = np.array([stable_graph(p_s, np.array([[a]]), c_s).h_value[0, 0]
                       for a in anchors])
    emp_s = np.abs(np.diff(vals_s)) / np.diff(anchors)
    theo_s = lipschitz_bound(p_s, c_s, "stable")

    ok = (len(emp_u) >= 20 and len(emp_s) >= 20
          and emp_u.max() <= theo_u * 1.25 and emp_s.max() <= theo_s * 1.25)
    assert verdict(capsys, 6, "graph slopes stay inside the certified bounds", ok)
    assert len(emp_u) >= 20 and len(emp_s) >= 20
    assert emp_u.max() <= theo_u * 1.25
    assert emp_s.max() <= theo_s * 1.25


def test_acceptance_07_regularization_order(capsys):
    p, c, _ = two_mode(
        [1.0, -1.0],
        {"alpha": 1.0, "beta": -1.0, "gamma": 0.5, "zeta": -0.5},
        [[0.0, 0.0], [0.1, 0.0]], ZERO,
        {"c_zeta": 0.5},
    )
    study = refinement_study(p, c, "lambda", values=(1e2, 1e3, 1e4))
    ok = -1.2 <= study.slope <= -0.8
    assert verdict(capsys, 7, "regularization defect decays at first order", ok)
    assert -1.2 <= study.slope <= -0.8


def test_acceptance_08_example_spectrum(capsys, tmp_path):
    out = tmp_path / "pde"
    code = main(["example-pde", "--out", str(out)])
    emitted = json.loads((out / "example_problem.json").read_text())
    eigs = emitted["problem"]["eigenvalues"]
    expected = [np.pi ** 2 / 2 - k * k * np.pi ** 2 for k in range(4)]
    ok = code == 0 and len(eigs) == 4 and all(
        float(a) == float(b) for a, b in zip(eigs, expected))
    assert verdict(capsys, 8, "example surface-flux spectrum is exact", ok)
    assert code == 0
    assert eigs == expected
    capsys.readouterr()


def test_acceptance_09_conditional_expectation_oracles(capsys):
    n = 100_000
    t, tau = 0.5, 1.0
    rng = np.random.default_rng(np.random.SeedSequence(77))
    w_t = math.sqrt(t) * rng.standard_normal(n)
    w_tau = w_t + math.sqrt(tau - t) * rng.standard_normal(n)
    basis = RegressionBasis(degree=2, primary_idx=(0,))

    est1 = condexp_lsmc(w_tau, w_t[:, None], basis)
    dev1 = np.abs(est1.coef - np.array([0.0, 1.0, 0.0]))
    est2 = condexp_lsmc(w_tau ** 2, w_t[:, None], basis)
    dev2 = np.abs(est2.coef - np.array([tau - t, 0.0, 1.0]))

    ok = bool(np.all(dev1 <= 4.0 * est1.coef_se())
              and np.all(dev2 <= 4.0 * est2.coef_se()))
    assert verdict(capsys, 9, "projected Wiener moments match the Gaussian law", ok)
    assert np.all(dev1 <= 4.0 * est1.coef_se()), (est1.coef, est1.coef_se())
    assert np.all(dev2 <= 4.0 * est2.coef_se()), (est2.coef, est2.coef_se())


def test_acceptance_10_martingale_zero_check(capsys):
    p, c, _ = two_mode(
        [1.0, -1.0],
        {"alpha": 1.0, "beta": -1.0, "gamma": 0.5, "zeta": -0.5},
        [[0.0, 0.0], [0.1, 0.0]],
        {"kind": "diagonal_linear", "slopes": [0.1, 0.1]},
        {"c_zeta": 1.0, "t_back": 10.0, "dt": 1e-2, "tol": 1e-4,
         "n_samples": 256, "seed": 11},
    )
    _, trace = lp_backward_solve(p, np.array([0.1]), c)
    check = trace.ito_check
    ok = bool(check.get("ok")) and check["raw_mean"] <= check["band"]
    assert verdict(capsys, 10, "noise integrals average to zero in band", ok)
    assert check["ok"], check
    assert check["raw_mean"] <= check["band"]


def test_acceptance_11_refinement_slopes(capsys):
    p, c, _ = two_mode(
        [1.0, -1.0],
        {"alpha": 1.0, "beta": -1.0, "gamma": 0.5, "zeta": -0.5},
        [[0.0, 0.0], [0.1, 0.0]],
        {"kind": "diagonal_linear", "slopes": [0.1, 0.1]},
        {"c_zeta": 0.5, "t_fwd": 1.0, "dt": 1e-2, "n_samples": 512,
         "seed": 7},
    )
    s_dt = refinement_study(p, c, "dt")
    s_n = refinement_study(p, c, "n_samples")
    ok = (0.3 <= s_dt.slope <= 0.7) and (-0.7 <= s_n.slope <= -0.3)
    assert verdict(capsys, 11, "strong and sampling orders sit in band", ok)
    assert 0.3 <= s_dt.slope <= 0.7, s_dt.slope
    assert -0.7 <= s_n.slope <= -0.3, s_n.slope


def test_acceptance_12_reproducibility(capsys, tmp_path):
    cfg = {
        "schema": SCHEMA,
        "problem": {
            "eigenvalues": [1.0, -1.0],
            "unstable_modes": [0],
            "rates": {"alpha": 1.0, "beta": -1.0, "gamma": 0.5, "zeta": -0.5},
            "nonlinearity": {"kind": "linear",
                             "matrix": [[0.0, 0.0], [0.1, 0.0]]},
            "noise": {"kind": "diagonal_linear", "slopes": [0.1, 0.1]},
        },
        "run": {"c_zeta": 1.0, "t_back": 10.0, "dt": 1e-2, "tol": 1e-4,
                "n_samples": 64, "seed": 5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        code = main(["solve-unstable", "--config", str(cfg_path),
                     "--out", str(out)])
        assert code == 0
        payloads.append((out / "graph.csv").read_bytes()
                        + (out / "trace.json").read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    assert verdict(capsys, 12, "identical inputs give byte-identical outputs", ok)
    assert payloads[0] == payloads[1]
    assert payloads[0] == payloads[2]
    capsys.readouterr()


def test_acceptance_13_noisy_example_both_sides(capsys):
    # the paper's example with boundary forcing and noise, linear and
    # saturated: each side's graph converges, with its martingale-zero check,
    # a consistency gap within the solve's 2 * tol and a residual within tol.
    # The stable residual needs the solve's frozen regression features:
    # with each map regressing on its own iterate, the distances hovered
    # near tol, and diagonal noise at seed 1 read 1.8e-7 > 1e-7
    m = 4
    failures = []
    for noise in (diagonal_linear_noise([0.05] * m), saturated_noise([0.1] * m, 0.02)):
        p = build_example_problem(m=m, g0=0.02 * np.eye(m), g1=0.05 * np.ones(m),
                                  g2=0.05 * np.ones(m), noise=noise)
        for seed in (1, 2):
            c = LPConfig(c_zeta=0.5, t_back=6.5, t_fwd=6.5, dt=1e-2, tol=1e-7,
                         n_samples=64, seed=seed)
            for side, graph, x in (("unstable", unstable_graph, [0.1]),
                                   ("stable", stable_graph, [0.1] * 3)):
                g = graph(p, x, c)
                t = g.trace
                checks = {"converged": t.converged, "ito_check": t.ito_check["ok"],
                          "consistency_gap": g.consistency_gap <= 2.0 * c.tol,
                          "residual": t.residual <= c.tol}
                failures += [(noise.kind, seed, side, key) for key, ok in checks.items() if not ok]
    ok = not failures
    assert verdict(capsys, 13, "noisy example certifies on both sides", ok)
    assert not failures, failures
