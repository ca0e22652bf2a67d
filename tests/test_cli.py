import json

import numpy as np
import pytest

from msmanifold.cli import main
from msmanifold.config import SCHEMA


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def solve_cfg(run_extra=None, big_coupling=False):
    run = {
        "c_zeta": 1.0,
        "t_back": 10.0,
        "t_fwd": 10.0,
        "dt": 1e-2,
        "tol": 1e-4,
        "n_samples": 64,
        "seed": 5,
    }
    run.update(run_extra or {})
    eps = 3.0 if big_coupling else 0.0
    return {
        "schema": SCHEMA,
        "problem": {
            "eigenvalues": [1.0, -1.0],
            "unstable_modes": [0],
            "rates": {"alpha": 1.0, "beta": -1.0, "gamma": 0.5, "zeta": -0.5},
            "nonlinearity": {"kind": "linear",
                             "matrix": [[0.0, eps], [max(eps, 0.1), 0.0]]},
            "noise": {"kind": "diagonal_linear", "slopes": [0.1, 0.1]},
        },
        "run": run,
    }


def det_cfg():
    return {
        "schema": SCHEMA,
        "problem": {
            "eigenvalues": [1.0, -2.0],
            "unstable_modes": [0],
            "rates": {"alpha": 1.0, "beta": -2.0, "gamma": 0.5, "zeta": -1.5},
            "nonlinearity": {"kind": "linear",
                             "matrix": [[0.0, 0.0], [0.1, 0.0]]},
            "noise": {"kind": "zero"},
        },
        "run": {"c_zeta": 1.0, "t_back": 10.0, "dt": 2e-3, "tol": 1e-8,
                "anchor": [0.3], "t0": 0.5},
    }


# -------------------------------------------------------------- example-pde

def test_example_pde_emits_valid_problem_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["example-pde", "--out", str(out)]) == 0
    cfg = json.loads((out / "example_problem.json").read_text())
    assert cfg["problem"]["kind"] == "neumann-flux-example"
    eigs = cfg["problem"]["eigenvalues"]
    assert len(eigs) == 4
    assert eigs[0] == pytest.approx(np.pi ** 2 / 2, rel=1e-14)
    assert eigs[1] == pytest.approx(np.pi ** 2 / 2 - np.pi ** 2, rel=1e-14)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "example_problem.json" in manifest["outputs"]
    assert manifest["subcommand"] == "example-pde"
    assert "eigenvalues:" in capsys.readouterr().out


def test_example_pde_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["example-pde", "--out", str(a)]) == 0
    assert main(["example-pde", "--out", str(b)]) == 0
    assert (a / "example_problem.json").read_bytes() == \
        (b / "example_problem.json").read_bytes()


def test_example_pde_applies_run_overrides_once(tmp_path):
    overrides = ["--seed", "17", "--samples", "96", "--dt", "0.005"]
    want = {"seed": 17, "n_samples": 96, "dt": 0.005}
    plain = tmp_path / "plain"
    assert main(["example-pde", "--out", str(plain), *overrides]) == 0
    emitted = plain / "example_problem.json"
    run = json.loads(emitted.read_text())["run"]
    assert {k: run[k] for k in want} == want
    again = tmp_path / "again"
    assert main(["example-pde", "--config", str(emitted), "--out", str(again),
                 "--seed", "23", "--samples", "48"]) == 0
    run = json.loads((again / "example_problem.json").read_text())["run"]
    assert {k: run[k] for k in want} == {**want, "seed": 23, "n_samples": 48}


def test_example_pde_config_keeps_its_coefficients_and_noise(tmp_path):
    # an edited example file: g0/g1/g2 and a diagonal_linear noise block
    # must reach the emitted problem as given
    base = tmp_path / "base"
    assert main(["example-pde", "--out", str(base)]) == 0
    cfg = json.loads((base / "example_problem.json").read_text())
    g0 = (0.02 * np.eye(4)).tolist()
    g1, g2 = [0.05, 0.01, 0.0, -0.02], [0.03, 0.0, 0.04, 0.0]
    noise = {"kind": "diagonal_linear", "slopes": [0.1, 0.05, 0.05, 0.02],
             "covariance_weights": [1.0, 0.5, 0.25, 0.125]}
    cfg["problem"]["nonlinearity"] = {"kind": "boundary-linear", "g0_matrix": g0,
                                      "g1_coefficients": g1, "g2_coefficients": g2}
    cfg["problem"]["noise"] = noise
    edited = write_cfg(tmp_path / "edited.json", cfg)
    out = tmp_path / "out"
    assert main(["example-pde", "--config", edited, "--out", str(out)]) == 0
    emitted = json.loads((out / "example_problem.json").read_text())["problem"]
    assert emitted["nonlinearity"] == cfg["problem"]["nonlinearity"]
    assert emitted["noise"] == noise
    # the same operator, so the same frozen columns
    assert emitted["boundary"]["regularizer"] == cfg["problem"]["boundary"]["regularizer"]


# ---------------------------------------------------------------- check-gap

def test_check_gap_pass_and_fail(tmp_path, capsys):
    ok = write_cfg(tmp_path / "ok.json", solve_cfg())
    out = tmp_path / "g1"
    assert main(["check-gap", "--config", ok, "--out", str(out)]) == 0
    report = json.loads((out / "gap_report.json").read_text())
    assert report["gap_report"]["pass_unstable"]
    assert "eta" in capsys.readouterr().out

    bad = write_cfg(tmp_path / "bad.json", solve_cfg(big_coupling=True))
    out2 = tmp_path / "g2"
    assert main(["check-gap", "--config", bad, "--out", str(out2)]) == 2
    report2 = json.loads((out2 / "gap_report.json").read_text())
    assert not report2["gap_report"]["pass_unstable"]


# -------------------------------------------------------------------- solve

def test_solve_unstable_writes_artifacts(tmp_path):
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg())
    out = tmp_path / "run"
    assert main(["solve-unstable", "--config", cfgp, "--out", str(out)]) == 0
    for name in ("graph.csv", "trajectory.csv", "trace.json", "manifest.json"):
        assert (out / name).exists(), name

    raw = (out / "graph.csv").read_bytes()
    lines = raw.split(b"\r\n")
    assert raw.endswith(b"\r\n")
    assert lines[0] == b"sample,anchor_mode_0,graph_mode_1"
    assert len(lines) == 66          # header + 64 samples + trailing newline
    cells = lines[1].split(b",")
    assert float(cells[1]) == 0.1    # default anchor
    float(cells[2])                  # parses as %.17g

    trace = json.loads((out / "trace.json").read_text())
    assert trace["trace"]["converged"]
    assert trace["side"] == "unstable"
    assert not trace["uncertified"]
    assert trace["consistency_gap"] <= 2e-4
    assert len(trace["config_hash"]) == 64
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) >= {"graph.csv", "trajectory.csv",
                                        "trace.json"}
    assert manifest["config_hash"] == trace["config_hash"]


def test_solve_blocks_on_gap_without_force(tmp_path):
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg(big_coupling=True))
    out = tmp_path / "run"
    assert main(["solve-unstable", "--config", cfgp, "--out", str(out)]) == 2
    assert not (out / "graph.csv").exists()
    # the same shape check-gap writes, keyed to the run's config
    report = json.loads((out / "gap_report.json").read_text())
    assert not report["gap_report"]["pass_unstable"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert report["config_hash"] == manifest["config_hash"]
    assert manifest["outputs"] == ["gap_report.json"]


def test_solve_force_runs_and_reports_nonconvergence(tmp_path, capsys):
    cfg = solve_cfg(run_extra={"max_iter": 8}, big_coupling=True)
    cfgp = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    code = main(["solve-unstable", "--config", cfgp, "--out", str(out),
                 "--force"])
    captured = capsys.readouterr()
    assert code == 3
    assert "uncertified" in captured.out
    assert any(name in captured.err for name in
               ("MaxIterExceeded", "NonfiniteState", "IllConditionedDesign"))


def test_solve_reproducible_across_runs_and_workers(tmp_path, monkeypatch):
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg())
    outs = []
    for name, workers in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        monkeypatch.setenv("MSMANIFOLD_WORKERS", workers)
        out = tmp_path / name
        assert main(["solve-unstable", "--config", cfgp,
                     "--out", str(out)]) == 0
        outs.append((out / "graph.csv").read_bytes())
    assert outs[0] == outs[1]        # same config, same bytes
    assert outs[0] == outs[2]        # worker count is not part of the law

    out5 = tmp_path / "seeded"
    assert main(["solve-unstable", "--config", cfgp, "--out", str(out5),
                 "--seed", "99"]) == 0
    assert (out5 / "graph.csv").read_bytes() != outs[0]


def test_solve_samples_override(tmp_path):
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg())
    out = tmp_path / "run"
    assert main(["solve-unstable", "--config", cfgp, "--out", str(out),
                 "--samples", "32"]) == 0
    raw = (out / "graph.csv").read_bytes()
    assert len(raw.split(b"\r\n")) == 34     # header + 32 + trailing


# --------------------------------------------------------- other subcommands

def test_invariance_subcommand(tmp_path, capsys):
    cfgp = write_cfg(tmp_path / "cfg.json", det_cfg())
    out = tmp_path / "inv"
    assert main(["invariance-test", "--config", cfgp, "--out", str(out)]) == 0
    payload = json.loads((out / "invariance.json").read_text())
    assert payload["t0"] == 0.5
    assert payload["residual"] <= 1e-3
    assert "invariance residual" in capsys.readouterr().out


def test_refine_subcommand(tmp_path):
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg())
    out = tmp_path / "ref"
    assert main(["refine", "lambda", "--config", cfgp, "--out", str(out)]) == 0
    payload = json.loads((out / "refine_lambda.json").read_text())
    assert -1.2 <= payload["study"]["slope"] <= -0.8
    rows = (out / "refine_lambda.csv").read_bytes().split(b"\r\n")
    assert rows[0] == b"lambda,observable,error"


def test_resolvent_study_on_example_problem(tmp_path):
    emitted = tmp_path / "pde"
    assert main(["example-pde", "--out", str(emitted)]) == 0
    out = tmp_path / "study"
    assert main(["resolvent-study", "--config",
                 str(emitted / "example_problem.json"),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "resolvent_study.json").read_text())
    assert -1.2 <= payload["defect_slope"] <= -0.8
    assert payload["ladder_diagnostic"]["converged"]
    cols = (out / "boundary_columns.csv").read_text()
    assert "extrapolated" in cols
    study_rows = (out / "resolvent_study.csv").read_bytes().split(b"\r\n")
    assert study_rows[0] == b"lambda,regularized_norm,defect"
    assert len(study_rows) == len(payload["ladder"]) + 2


# ----------------------------------------------------------------- failures

def test_exit_code_4_on_usage_and_config_errors(tmp_path, capsys):
    assert main([]) == 4
    assert main(["solve-unstable", "--out", str(tmp_path / "x")]) == 4
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["check-gap", "--config", str(broken),
                 "--out", str(tmp_path / "y")]) == 4
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 4
    capsys.readouterr()
