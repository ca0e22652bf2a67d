import json

import numpy as np
import pytest

from msmanifold import build_example_problem, condexp_ito_zero
from msmanifold.cli import _write_json, main
from msmanifold.config import (SCHEMA, anchor_from_run, config_hash, example_problem_config,
                               lp_config_from_run, problem_from_config, validate_config)
from msmanifold.lyapunov_perron import lp_backward_solve, stable_graph
from msmanifold.oracles import refinement_study


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


def test_example_pde_config_keeps_an_edited_ladder(tmp_path):
    # the problem is read from the file, never rebuilt: the ladder it pins
    # comes back as written
    base = tmp_path / "base"
    assert main(["example-pde", "--out", str(base)]) == 0
    cfg = json.loads((base / "example_problem.json").read_text())
    cfg["problem"]["boundary"]["ladder"] = [1e3, 1e4]
    out = tmp_path / "out"
    assert main(["example-pde", "--config", write_cfg(tmp_path / "edited.json", cfg),
                 "--out", str(out)]) == 0
    emitted = json.loads((out / "example_problem.json").read_text())
    assert emitted["problem"]["boundary"] == cfg["problem"]["boundary"]


@pytest.mark.parametrize("boundary", [True, False])
def test_example_pde_config_round_trips_a_zero_nonlinearity(tmp_path, boundary):
    base = tmp_path / "base"
    assert main(["example-pde", "--out", str(base)]) == 0
    cfg = json.loads((base / "example_problem.json").read_text())
    cfg["problem"]["nonlinearity"] = {"kind": "zero"}
    if not boundary:
        cfg["problem"]["boundary"] = None
    out = tmp_path / "out"
    assert main(["example-pde", "--config", write_cfg(tmp_path / "zero.json", cfg),
                 "--out", str(out)]) == 0
    assert json.loads((out / "example_problem.json").read_text()) == cfg


def test_example_pde_config_refuses_another_problem_kind(tmp_path):
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg())
    assert main(["example-pde", "--config", cfgp, "--out", str(tmp_path / "out")]) == 4


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


@pytest.mark.parametrize("argv", [["check-gap"], ["resolvent-study"], ["example-pde"],
                                  ["refine", "lambda"]])
def test_force_is_a_usage_error_where_nothing_reads_it(tmp_path, capsys, argv):
    # only the solves and the invariance test pass a gap gate to force
    bad = write_cfg(tmp_path / "bad.json", solve_cfg(big_coupling=True))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", bad, "--out", str(out), "--force"])
    assert exc.value.code == 4
    assert "unrecognized arguments: --force" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------------- solve

def test_solve_unstable_writes_artifacts(tmp_path):
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg())
    out = tmp_path / "run"
    assert main(["solve-unstable", "--config", cfgp, "--out", str(out)]) == 0
    for name in ("graph.csv", "trajectory.npy", "trace.json", "manifest.json"):
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
    assert set(manifest["outputs"]) >= {"graph.csv", "trajectory.npy",
                                        "trace.json"}
    assert manifest["config_hash"] == trace["config_hash"]


def test_solve_trajectory_holds_the_fixed_points_strided_moments(tmp_path):
    # 4001 nodes, so every second one is written
    cfg = solve_cfg({"dt": 2.5e-3, "n_samples": 32})
    cfgp = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["solve-unstable", "--config", cfgp, "--out", str(out)]) == 0
    traj = np.load(out / "trajectory.npy", allow_pickle=False)
    assert traj.dtype.names == ("t", "mean_mode_0", "mean_mode_1", "ms_norm")

    cfg = validate_config(cfg)
    p = problem_from_config(cfg)
    ens, _ = lp_backward_solve(p, anchor_from_run(cfg["run"], p), lp_config_from_run(cfg["run"]))
    assert np.array_equal(traj["t"], ens.grid.times[::2])
    # each node's sample sums pairwise over one contiguous float64 row, and
    # the squares added mode by mode first: the orders of the written path
    # (the solve stores its path float32 at this tol, and the sums widen it)
    path = ens.values[:, ::2].astype(float)
    total = np.add.reduce(np.ascontiguousarray(path.transpose(1, 2, 0)), axis=-1)
    sq = path[..., 0] ** 2 + path[..., 1] ** 2
    sq_total = np.add.reduce(np.ascontiguousarray(sq.T), axis=-1)
    assert np.array_equal(traj["mean_mode_0"], total[:, 0] / 32)
    assert np.array_equal(traj["mean_mode_1"], total[:, 1] / 32)
    assert np.array_equal(traj["ms_norm"], np.sqrt(sq_total / 32))


def test_solve_stable_writes_the_graphs_path_summary(tmp_path):
    # 4001 nodes, so the summary and the file hold every second one
    cfg = solve_cfg({"t_fwd": 20.0, "dt": 5e-3, "n_samples": 32})
    cfgp = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["solve-stable", "--config", cfgp, "--out", str(out)]) == 0
    traj = np.load(out / "trajectory.npy", allow_pickle=False)
    assert traj.dtype.names == ("t", "mean_mode_0", "mean_mode_1", "ms_norm")

    cfg = validate_config(cfg)
    p = problem_from_config(cfg)
    graph = stable_graph(p, anchor_from_run(cfg["run"], p), lp_config_from_run(cfg["run"]))
    assert graph.path.shape == (2001, 4)
    assert np.array_equal(np.column_stack([traj[name] for name in traj.dtype.names]),
                          graph.path)


@pytest.mark.parametrize("command, window", [("solve-unstable", [-6.0, 0.0]),
                                             ("solve-stable", [0.0, 6.0])])
def test_a_zero_noise_solve_writes_the_zero_ito_sums_verdict(tmp_path, command, window):
    # the forced example without noise, as the pde_flux workload solves it:
    # its maps add no Ito sums, and trace.json carries the verdict
    # condexp_ito_zero gives on all-zero sums over the window
    m = 4
    p = build_example_problem(m=m, g0=0.02 * np.eye(m), g1=0.05 * np.ones(m),
                              g2=0.05 * np.ones(m))
    cfg = example_problem_config(p, run={"dt": 1e-2, "t_back": 6.0, "t_fwd": 6.0,
                                         "tol": 1e-6, "c_zeta": 0.5})
    out = tmp_path / "run"
    assert main([command, "--config", write_cfg(tmp_path / "cfg.json", cfg),
                 "--out", str(out)]) == 0
    ito = json.loads((out / "trace.json").read_text())["trace"]["ito_check"]
    n = cfg["run"].get("n_samples", 2)
    zeros = np.zeros((n, len(p.unstable_modes)))
    assert ito == json.loads(json.dumps(condexp_ito_zero(zeros, window)[1]))
    assert ito == {"window": window, "raw_mean": 0.0, "band": 0.0, "ok": True,
                   "n_samples": n}


def test_solve_hashes_its_config_once(tmp_path, monkeypatch):
    from msmanifold import cli

    calls = []

    def counting(cfg, _hash=cli.config_hash):
        calls.append(cfg)
        return _hash(cfg)

    monkeypatch.setattr(cli, "config_hash", counting)
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg())
    out = tmp_path / "run"
    assert main(["solve-unstable", "--config", cfgp, "--out", str(out)]) == 0
    assert len(calls) == 1
    trace = json.loads((out / "trace.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert trace["config_hash"] == manifest["config_hash"] == config_hash(calls[0])


def test_solve_validates_its_config_once(tmp_path, monkeypatch):
    # the overrides go into the file's run block before its one validation
    from msmanifold import cli, config

    calls = []

    def counting(cfg, _validate=config.validate_config):
        calls.append(cfg)
        return _validate(cfg)

    monkeypatch.setattr(config, "validate_config", counting)
    monkeypatch.setattr(cli, "validate_config", counting)
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg())
    out = tmp_path / "run"
    assert main(["solve-unstable", "--config", cfgp, "--out", str(out),
                 "--seed", "3", "--samples", "32"]) == 0
    assert len(calls) == 1
    assert {k: calls[0]["run"][k] for k in ("seed", "n_samples")} == {"seed": 3, "n_samples": 32}
    assert json.loads((out / "manifest.json").read_text())["seed"] == 3


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


def test_a_request_removes_the_files_of_the_last_one_in_its_out_dir(tmp_path):
    # a solve refused on the gap, then a passing one, into one directory:
    # only the second request's files are left, and files that no manifest
    # lists are kept
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    bad = write_cfg(tmp_path / "bad.json", solve_cfg(big_coupling=True))
    ok = write_cfg(tmp_path / "ok.json", solve_cfg({"n_samples": 16}))
    assert main(["solve-unstable", "--config", bad, "--out", str(out)]) == 2
    assert (out / "gap_report.json").exists()
    assert main(["solve-unstable", "--config", ok, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(e.name for e in out.iterdir()) == sorted(
        ["manifest.json", "notes.txt"] + manifest["outputs"])
    assert "gap_report.json" not in manifest["outputs"]


def test_a_manifest_removes_only_plain_names_in_its_out_dir(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    outside = tmp_path / "outside.txt"
    outside.write_text("kept")
    (out / "sub").mkdir()
    (out / "sub" / "x.txt").write_text("kept")
    (out / "manifest.json").write_text(json.dumps(
        {"outputs": ["../outside.txt", str(outside), "sub", "sub/x.txt", 3]}))
    ok = write_cfg(tmp_path / "ok.json", solve_cfg())
    assert main(["check-gap", "--config", ok, "--out", str(out)]) == 0
    assert outside.read_text() == "kept"
    assert (out / "sub" / "x.txt").read_text() == "kept"
    assert json.loads((out / "manifest.json").read_text())["outputs"] == ["gap_report.json"]


def test_a_request_keeps_its_own_config_in_its_out_dir(tmp_path):
    out = tmp_path / "ex"
    assert main(["example-pde", "--out", str(out)]) == 0
    cfgp = str(out / "example_problem.json")
    assert main(["check-gap", "--config", cfgp, "--out", str(out)]) == 0
    assert (out / "example_problem.json").exists()
    assert sorted(e.name for e in out.iterdir()) == [
        "example_problem.json", "gap_report.json", "manifest.json"]


def test_a_request_that_fails_while_writing_lists_its_files(tmp_path, monkeypatch):
    # the manifest names each file before it is written, so the next
    # request removes what a failed one left
    from msmanifold import cli

    write_json = cli._write_json

    def failing(path, payload):
        if path.endswith("trace.json"):
            raise OSError("disk full")
        write_json(path, payload)

    out = tmp_path / "run"
    ok = write_cfg(tmp_path / "ok.json", solve_cfg({"n_samples": 16}))
    monkeypatch.setattr(cli, "_write_json", failing)
    with pytest.raises(OSError):
        main(["solve-unstable", "--config", ok, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["graph.csv", "trajectory.npy", "trace.json"]
    assert "wallclock_s" not in manifest
    assert (out / "graph.csv").exists() and (out / "trajectory.npy").exists()
    monkeypatch.setattr(cli, "_write_json", write_json)
    assert main(["check-gap", "--config", ok, "--out", str(out)]) == 0
    assert sorted(e.name for e in out.iterdir()) == ["gap_report.json", "manifest.json"]
    assert "wallclock_s" in json.loads((out / "manifest.json").read_text())


def test_a_config_error_after_validation_leaves_the_out_dir_alone(tmp_path):
    # rates out of order pass validate_config and are refused by
    # build_problem (exit 4), before the request writes anything
    out = tmp_path / "run"
    ok = write_cfg(tmp_path / "ok.json", solve_cfg())
    assert main(["check-gap", "--config", ok, "--out", str(out)]) == 0
    before = {e.name: e.read_bytes() for e in out.iterdir()}
    cfg = solve_cfg()
    cfg["problem"]["rates"]["gamma"] = 2.0
    bad = write_cfg(tmp_path / "bad.json", cfg)
    validate_config(json.loads(open(bad).read()))
    assert main(["solve-unstable", "--config", bad, "--out", str(out)]) == 4
    assert {e.name: e.read_bytes() for e in out.iterdir()} == before


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


def test_solve_reproducible_across_runs(tmp_path):
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg())
    outs = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        assert main(["solve-unstable", "--config", cfgp,
                     "--out", str(out)]) == 0
        outs.append((out / "graph.csv").read_bytes())
    assert outs[0] == outs[1]        # same config, same bytes
    assert outs[0] == outs[2]

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


def test_invariance_test_shares_the_solves_gap_gate(tmp_path, capsys):
    # refused on the gap as solve-unstable is refused: gap_report.json and
    # a manifest that lists it
    bad = write_cfg(tmp_path / "bad.json", solve_cfg({"t0": 0.5}, big_coupling=True))
    for sub in ("solve-unstable", "invariance-test"):
        out = tmp_path / sub
        assert main([sub, "--config", bad, "--out", str(out)]) == 2
        report = json.loads((out / "gap_report.json").read_text())
        assert not report["gap_report"]["pass_unstable"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["subcommand"], manifest["outputs"]) == (sub, ["gap_report.json"])
        said = capsys.readouterr()
        assert "rerun with --force" in said.out + said.err
    # C_zeta = 10 fails the gap (eta = 1.2) on a weak coupling that still
    # converges: forced, the request warns and marks its output
    cfg = det_cfg()
    cfg["run"]["c_zeta"] = 10.0
    forced = write_cfg(tmp_path / "forced.json", cfg)
    out = tmp_path / "forced"
    assert main(["invariance-test", "--config", forced, "--out", str(out), "--force"]) == 0
    assert "WARNING: gap condition fails" in capsys.readouterr().out
    payload = json.loads((out / "invariance.json").read_text())
    assert payload["uncertified"] and not payload["gap_report"]["pass_unstable"]
    passing = write_cfg(tmp_path / "ok.json", det_cfg())
    assert main(["invariance-test", "--config", passing, "--out", str(out)]) == 0
    assert json.loads((out / "invariance.json").read_text())["uncertified"] is False


def test_forced_solve_past_the_gap_writes_no_lipschitz_bound(tmp_path):
    # eta = 1.2 with C_zeta = 10: the gap bounds nothing, so trace.json
    # carries null where it wrote a negative number
    cfg = det_cfg()
    cfg["run"]["c_zeta"] = 10.0
    cfgp = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["solve-unstable", "--config", cfgp, "--out", str(out), "--force"]) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["uncertified"] and trace["lipschitz_bound"] is None
    cert = tmp_path / "cert"
    assert main(["solve-unstable", "--config", write_cfg(tmp_path / "ok.json", det_cfg()),
                 "--out", str(cert)]) == 0
    assert json.loads((cert / "trace.json").read_text())["lipschitz_bound"] > 0


def test_refine_refuses_a_sweep_without_error(tmp_path, capsys):
    # the example has no noise, so every n_samples error is 0: the log-log
    # fit warned and wrote "slope": NaN, which is not JSON
    emitted = tmp_path / "pde"
    assert main(["example-pde", "--out", str(emitted)]) == 0
    out = tmp_path / "ref"
    assert main(["refine", "n_samples", "--config", str(emitted / "example_problem.json"),
                 "--out", str(out)]) == 4
    assert "n_samples sweep" in capsys.readouterr().err
    assert not (out / "refine_n_samples.json").exists()
    with pytest.raises(ValueError):
        _write_json(str(tmp_path / "nan.json"), {"slope": float("nan")})


def test_refine_dt_refuses_a_sweep_at_rounding_level(tmp_path, capsys):
    # the example has no forcing, so its exponential step is exact: the
    # errors (about 3e-12) are rounding, and once gave slope -0.011
    emitted = tmp_path / "pde"
    assert main(["example-pde", "--out", str(emitted)]) == 0
    out = tmp_path / "ref"
    assert main(["refine", "dt", "--config", str(emitted / "example_problem.json"),
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "dt sweep's errors [" in err and "rounding budget" in err
    assert not (out / "refine_dt.json").exists()


def test_refine_dt_on_the_forced_example_has_a_positive_slope(tmp_path):
    emitted = tmp_path / "pde"
    assert main(["example-pde", "--out", str(emitted)]) == 0
    cfg = json.loads((emitted / "example_problem.json").read_text())
    m = len(cfg["problem"]["eigenvalues"])
    cfg["problem"]["nonlinearity"].update(
        g0_matrix=[[0.02 * (i == j) for j in range(m)] for i in range(m)],
        g1_coefficients=[0.05] * m, g2_coefficients=[0.05] * m)
    out = tmp_path / "ref"
    assert main(["refine", "dt", "--config", write_cfg(tmp_path / "forced.json", cfg),
                 "--out", str(out)]) == 0
    study = json.loads((out / "refine_dt.json").read_text())["study"]
    # the exponential trapezoid step is second order: the errors fall as
    # dt^2, yet stay far above the sweep's rounding budget (about 6e-12)
    assert study["slope"] > 1.5 and study["monotone"]
    assert min(row[2] for row in study["rows"]) > 1e-5


def test_refine_subcommand(tmp_path):
    cfgp = write_cfg(tmp_path / "cfg.json", solve_cfg())
    out = tmp_path / "ref"
    assert main(["refine", "lambda", "--config", cfgp, "--out", str(out)]) == 0
    payload = json.loads((out / "refine_lambda.json").read_text())
    assert -1.2 <= payload["study"]["slope"] <= -0.8
    rows = (out / "refine_lambda.csv").read_bytes().split(b"\r\n")
    assert rows[0] == b"lambda,observable,error"


def test_refine_lambda_sweeps_the_problems_own_ladder(tmp_path):
    # the example pins five rungs; refine lambda sweeps them, as the
    # resolvent study does, not the three of the default ladder
    emitted = tmp_path / "pde"
    assert main(["example-pde", "--out", str(emitted)]) == 0
    cfgp = str(emitted / "example_problem.json")
    assert main(["refine", "lambda", "--config", cfgp, "--out", str(tmp_path / "ref")]) == 0
    assert main(["resolvent-study", "--config", cfgp, "--out", str(tmp_path / "rs")]) == 0
    refine_rows = (tmp_path / "ref" / "refine_lambda.csv").read_bytes().split(b"\r\n")[1:]
    study_rows = (tmp_path / "rs" / "resolvent_study.csv").read_bytes().split(b"\r\n")[1:]
    assert len(refine_rows) == 6 and refine_rows == study_rows


def two_unstable_cfg(run_extra):
    # eigenvalues [1.5, 1, -1, -2], unstable modes [0, 1], all-to-all coupling
    m = 4
    cfg = solve_cfg({"t_fwd": 1.0, "n_samples": 32, **run_extra})
    cfg["problem"].update(
        eigenvalues=[1.5, 1.0, -1.0, -2.0], unstable_modes=[0, 1],
        nonlinearity={"kind": "linear", "matrix": [[0.03] * m] * m},
        noise={"kind": "diagonal_linear", "slopes": [0.1] * m})
    return cfg


@pytest.mark.parametrize("parameter", ["dt", "n_samples"])
def test_refine_starts_the_flow_from_the_run_anchor_in_its_block(tmp_path, parameter):
    # a two-entry unstable anchor on four modes: the flow starts from
    # [0.1, 0.2, 0, 0], where numpy once failed to broadcast it
    cfg = two_unstable_cfg({"anchor": [0.1, 0.2]})
    out = tmp_path / "ref"
    assert main(["refine", parameter, "--config", write_cfg(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 0
    study = json.loads((out / f"refine_{parameter}.json").read_text())["study"]
    valid = validate_config(cfg)
    want = refinement_study(problem_from_config(valid), lp_config_from_run(valid["run"]),
                            parameter, x=[0.1, 0.2, 0.0, 0.0])
    assert study["rows"] == [list(r) for r in want.rows] and len(want.rows) == 3


def test_refine_T_back_reads_the_run_anchor_as_the_solve_does(tmp_path, capsys):
    # a full-width unstable anchor with a zero stable block is the solve's
    # [0.1]; a stable-side anchor is no unstable one, and is refused
    cfg = solve_cfg({"t_back": 8.0, "tol": 1e-8, "anchor": [0.3, 0.0]})
    cfg["problem"]["noise"] = {"kind": "zero"}
    out = tmp_path / "ref"
    assert main(["refine", "T_back", "--config", write_cfg(tmp_path / "u.json", cfg),
                 "--out", str(out)]) == 0
    rows = json.loads((out / "refine_T_back.json").read_text())["study"]["rows"]
    cfg["run"].update(anchor=[0.3])
    assert main(["refine", "T_back", "--config", write_cfg(tmp_path / "u1.json", cfg),
                 "--out", str(out)]) == 0
    assert json.loads((out / "refine_T_back.json").read_text())["study"]["rows"] == rows
    cfg["run"].update(side="stable")
    assert main(["refine", "T_back", "--config", write_cfg(tmp_path / "s.json", cfg),
                 "--out", str(tmp_path / "s")]) == 4
    assert "unstable-side run anchor" in capsys.readouterr().err


def test_resolvent_study_on_example_problem(tmp_path):
    emitted = tmp_path / "pde"
    assert main(["example-pde", "--out", str(emitted)]) == 0
    out = tmp_path / "study"
    assert main(["resolvent-study", "--config",
                 str(emitted / "example_problem.json"),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "resolvent_study.json").read_text())
    assert -1.2 <= payload["defect_slope"] <= -0.8
    diag = payload["ladder_diagnostic"]
    assert diag["converged"] and diag["limit_miss"] < 1e-10
    # the rungs, then the frozen exact limit
    labels = [row.split(",")[0]
              for row in (out / "boundary_columns.csv").read_text().splitlines()[1:]]
    assert labels == [repr(lam) for lam in payload["ladder"] for _ in range(4)] + ["limit"] * 4
    study_rows = (out / "resolvent_study.csv").read_bytes().split(b"\r\n")
    assert study_rows[0] == b"lambda,regularized_norm,defect"
    assert len(study_rows) == len(payload["ladder"]) + 2


@pytest.mark.parametrize("retired", ["columns", "diagnostic"])
def test_example_output_with_retired_boundary_keys_is_refused(tmp_path, capsys, retired):
    emitted = tmp_path / "pde"
    assert main(["example-pde", "--out", str(emitted)]) == 0
    cfg = json.loads((emitted / "example_problem.json").read_text())
    cfg["problem"]["boundary"][retired] = {}
    old = write_cfg(tmp_path / "old.json", cfg)
    assert main(["resolvent-study", "--config", old, "--out", str(tmp_path / "s")]) == 4
    assert f"unknown boundary keys: ['{retired}']" in capsys.readouterr().err


def test_example_output_with_the_retired_include_wiener_key_is_refused(tmp_path, capsys):
    # every example-pde file written while the key existed carries it as false
    emitted = tmp_path / "pde"
    assert main(["example-pde", "--out", str(emitted)]) == 0
    cfg = json.loads((emitted / "example_problem.json").read_text())
    assert "include_wiener" not in cfg["run"]
    cfg["run"]["include_wiener"] = False
    old = write_cfg(tmp_path / "old.json", cfg)
    capsys.readouterr()
    out = tmp_path / "s"
    assert main(["solve-unstable", "--config", old, "--out", str(out)]) == 4
    assert "unknown run keys: ['include_wiener']" in capsys.readouterr().err
    assert not out.exists()


RUN_KEYS = {"side", "anchor", "t0", "c_zeta", "tau", "t_back", "t_fwd", "dt", "n_samples",
            "seed", "tol", "max_iter"}


@pytest.mark.parametrize("key, value", [("slack", 0.25), ("basis_degree", 2)])
def test_example_output_with_a_retired_constant_key_is_refused(tmp_path, capsys, key, value):
    # the basis degree and the Lipschitz slack are constants: example-pde
    # writes neither key, and a file written while they were settings
    # carries both at these values
    emitted = tmp_path / "pde"
    assert main(["example-pde", "--out", str(emitted)]) == 0
    cfg = json.loads((emitted / "example_problem.json").read_text())
    assert set(cfg["run"]) == RUN_KEYS
    cfg["run"][key] = value
    old = write_cfg(tmp_path / "old.json", cfg)
    capsys.readouterr()
    out = tmp_path / "s"
    assert main(["solve-unstable", "--config", old, "--out", str(out)]) == 4
    assert f"unknown run keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def test_ladder_rung_at_or_below_the_operator_shift_is_a_config_error(tmp_path, capsys):
    emitted = tmp_path / "pde"
    assert main(["example-pde", "--out", str(emitted)]) == 0
    cfg = json.loads((emitted / "example_problem.json").read_text())
    shift = cfg["problem"]["boundary"]["operator_shift"]
    cfg["problem"]["boundary"]["ladder"] = [1.0, 1e3, 1e4]
    low = write_cfg(tmp_path / "low.json", cfg)
    out = tmp_path / "s"
    assert main(["resolvent-study", "--config", low, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "config error" in err and "rung 1.0" in err and repr(shift) in err
    assert not out.exists()


# ----------------------------------------------------------------- failures

def test_exit_code_4_on_usage_and_config_errors(tmp_path, capsys):
    assert main([]) == 4
    assert main(["solve-unstable", "--out", str(tmp_path / "x")]) == 4
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["check-gap", "--config", str(broken),
                 "--out", str(tmp_path / "y")]) == 4
    retired = write_cfg(tmp_path / "retired.json", solve_cfg({"gamma": 0.5}))
    assert main(["check-gap", "--config", retired, "--out", str(tmp_path / "z")]) == 4
    assert "unknown run keys: ['gamma']" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 4
    capsys.readouterr()


@pytest.mark.parametrize("key, value, says", [("dt", 0.0, "dt must be positive, got 0.0"),
                                              ("max_iter", 0, "max_iter must be >= 1")])
@pytest.mark.parametrize("command", [["check-gap"], ["resolvent-study"], ["refine", "lambda"]])
def test_requests_that_solve_nothing_refuse_a_bad_run_block(tmp_path, capsys, command,
                                                           key, value, says):
    # these built the solver settings without checking them, and exited 0
    assert main(["example-pde", "--out", str(tmp_path / "ex")]) == 0
    cfg = json.loads((tmp_path / "ex" / "example_problem.json").read_text())
    cfg["run"][key] = value
    path = write_cfg(tmp_path / "bad.json", cfg)
    capsys.readouterr()
    assert main(command + ["--config", path, "--out", str(tmp_path / "out")]) == 4
    assert says in capsys.readouterr().err


def test_refine_dt_refuses_a_horizon_off_the_dt_lattice(tmp_path, capsys):
    # once integrated to t = 1.0 and exited 0
    assert main(["example-pde", "--out", str(tmp_path / "ex")]) == 0
    cfg = json.loads((tmp_path / "ex" / "example_problem.json").read_text())
    cfg["run"]["t_fwd"] = 1.0001
    path = write_cfg(tmp_path / "off.json", cfg)
    capsys.readouterr()
    assert main(["refine", "dt", "--config", path, "--out", str(tmp_path / "out")]) == 4
    # named against the sweep's own finest dt, not the reference step dt/4
    assert "t_fwd 1.0001 is not a whole number (>= 1) of dt 0.002 steps" \
        in capsys.readouterr().err


def test_out_of_range_problem_numbers_are_config_errors(tmp_path, capsys):
    # 1e999 reads as inf: refused as a config error, before any JSON payload
    # would fail to encode it
    huge = json.dumps(solve_cfg()).replace('"alpha": 1.0', '"alpha": 1.0, "bound_K": 1e999')
    (tmp_path / "huge.json").write_text(huge)
    assert main(["check-gap", "--config", str(tmp_path / "huge.json"),
                 "--out", str(tmp_path / "h")]) == 4
    assert "rates.bound_K must be a finite number" in capsys.readouterr().err
