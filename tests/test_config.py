import json

import numpy as np
import pytest

from msmanifold.errors import ConfigError
from msmanifold import (
    LPConfig,
    canonical_json,
    config_hash,
    load_config,
    problem_from_config,
    saturated_noise,
    saturated_polynomial_nonlinearity,
    validate_config,
)
from msmanifold.config import (
    SCHEMA,
    anchor_from_run,
    example_problem_config,
    jsonable,
    lp_config_from_run,
)


def minimal_cfg(run=None):
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
    }
    if run is not None:
        cfg["run"] = run
    return cfg


# ----------------------------------------------------------------- validate

def test_validate_normalizes_and_fills_run_defaults():
    out = validate_config(minimal_cfg(run={"c_zeta": 1.0, "t_back": 4.0}))
    run = out["run"]
    assert run["side"] == "unstable"
    assert run["tol"] == 1e-6
    assert run["dt"] == 1e-3
    assert run["t_back"] == 4.0
    assert run["anchor"] is None
    assert out["problem"]["kind"] == "custom"
    assert out["problem"]["rates"]["bound_K"] == 1.0


def test_validate_is_idempotent():
    once = validate_config(minimal_cfg(run={"c_zeta": 1.0}))
    twice = validate_config(once)
    assert config_hash(once) == config_hash(twice)


def test_validate_rejects_unknown_keys_everywhere():
    cfg = minimal_cfg()
    cfg["extra"] = 1
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = minimal_cfg()
    cfg["problem"]["spurious"] = 1
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = minimal_cfg()
    cfg["problem"]["rates"]["mystery"] = 1.0
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = minimal_cfg(run={"c_zeta": 1.0, "warp": 9})
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_refuses_the_retired_check_residual_key():
    # the residual map always runs: both certificates come from it
    for value in (True, False):
        with pytest.raises(ConfigError, match="check_residual"):
            validate_config(minimal_cfg(run={"c_zeta": 1.0, "check_residual": value}))


def test_validate_rejects_wrong_schema_and_shapes():
    cfg = minimal_cfg()
    cfg["schema"] = "msmanifold/0"
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = minimal_cfg()
    cfg["problem"]["nonlinearity"] = {"kind": "linear", "matrix": [[0.0]]}
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = minimal_cfg()
    cfg["problem"]["noise"] = {"kind": "diagonal_linear", "slopes": [0.1]}
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = minimal_cfg()
    cfg["problem"]["unstable_modes"] = [5]
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_basis_kind_vocabulary():
    ok = minimal_cfg(run={"c_zeta": 1.0, "basis_kind": "tensor-hermite"})
    assert validate_config(ok)["run"]["basis_kind"] == "tensor-hermite"
    bad = minimal_cfg(run={"c_zeta": 1.0, "basis_kind": "hermite"})
    with pytest.raises(ConfigError):
        validate_config(bad)


def test_validate_boundary_ladder_must_increase():
    cfg = minimal_cfg()
    cfg["problem"]["boundary"] = {
        "operator_shift": 1.0,
        "ladder": [1e3, 1e2],
        "regularizer": [[0.0, 0.0], [0.0, 0.0]],
    }
    with pytest.raises(ConfigError):
        validate_config(cfg)


# -------------------------------------------------------- canonical payload

def test_canonical_json_is_key_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [np.float64(0.5), np.int64(2)]})
    assert s == '{"a":[0.5,2],"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_jsonable_handles_numpy_scalars_and_rejects_objects():
    out = jsonable({"flag": np.bool_(True), "arr": np.arange(3.0)})
    assert out == {"flag": True, "arr": [0.0, 1.0, 2.0]}
    with pytest.raises(ConfigError):
        jsonable({"bad": object()})


def test_config_hash_is_order_independent_and_frozen():
    assert config_hash({}) == ("44136fa355b3678a1146ad16f7e8649e"
                               "94fb4fc21fe77e8310c060f61caaff8a")
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)


def test_load_config_roundtrip_and_errors(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(minimal_cfg(run={"c_zeta": 1.0})))
    out = load_config(path)
    assert out["problem"]["eigenvalues"] == [1.0, -1.0]
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(broken)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


# ------------------------------------------------------------ reconstruction

def test_problem_from_config_reconstructs_models():
    p = problem_from_config(validate_config(minimal_cfg()))
    assert np.array_equal(p.eigenvalues, [1.0, -1.0])
    assert list(p.unstable_modes) == [0]
    assert p.alpha == 1.0 and p.zeta == -0.5
    assert p.nonlinearity.kind == "linear"
    assert p.nonlinearity.lipschitz_L1 == pytest.approx(0.1)
    assert p.noise.kind == "diagonal-linear"
    state = np.array([[1.0, 2.0]])
    assert np.allclose(p.nonlinearity.fn(state), [[0.0, 0.1]])


def test_saturated_models_round_trip_through_a_config_file(tmp_path):
    cfg = minimal_cfg(run={"c_zeta": 1.0})
    cfg["problem"]["nonlinearity"] = {"kind": "saturated_polynomial",
                                      "coefficients": [0.0, 0.1, -0.2], "radius": 2}
    cfg["problem"]["noise"] = {"kind": "saturated", "slopes": [0.1, 0.2],
                               "radius": 1.5, "covariance_weights": [1.0, 0.5]}
    path = tmp_path / "saturated.json"
    path.write_text(canonical_json(validate_config(cfg)))
    out = load_config(path)
    assert config_hash(out) == config_hash(validate_config(cfg))
    assert out["problem"]["nonlinearity"] == {
        "kind": "saturated_polynomial", "coefficients": [0.0, 0.1, -0.2], "radius": 2.0}
    assert out["problem"]["noise"] == {
        "kind": "saturated", "slopes": [0.1, 0.2], "radius": 1.5,
        "covariance_weights": [1.0, 0.5]}

    p = problem_from_config(out)
    nl = saturated_polynomial_nonlinearity([0.0, 0.1, -0.2], 2.0)
    noise = saturated_noise([0.1, 0.2], 1.5, [1.0, 0.5])
    assert p.nonlinearity.kind == "saturated-polynomial"
    assert p.nonlinearity.lipschitz_L1 == nl.lipschitz_L1
    assert p.noise.kind == "saturated"
    assert p.noise.lipschitz_L2 == noise.lipschitz_L2
    assert np.array_equal(p.noise.covariance_weights, [1.0, 0.5])
    state = np.array([[0.5, -3.0], [4.0, 1.0]])     # -3 and 4 lie past both radii
    assert np.array_equal(p.nonlinearity.fn(state), nl.fn(state))
    assert np.array_equal(p.noise.diffusion(state), noise.diffusion(state))
    assert np.array_equal(p.noise.diffusion(state), [[0.5, -1.5], [1.5, 1.0]] * np.array([0.1, 0.2]))


def test_lp_config_from_run_maps_fields():
    out = validate_config(minimal_cfg(run={"c_zeta": 1.0, "dt": 5e-3,
                                           "seed": 9, "max_iter": 12}))
    cfg = lp_config_from_run(out["run"], force=True)
    assert isinstance(cfg, LPConfig)
    assert cfg.c_zeta == 1.0 and cfg.dt == 5e-3
    assert cfg.seed == 9 and cfg.max_iter == 12
    assert cfg.force is True
    assert cfg.c_zeta_source == "config"


def test_anchor_from_run_defaults_and_checks():
    out = validate_config(minimal_cfg(run={"c_zeta": 1.0}))
    p = problem_from_config(out)
    a = anchor_from_run(out["run"], p)
    assert a.shape == (1,) and a[0] == 0.1
    out2 = validate_config(minimal_cfg(run={"c_zeta": 1.0, "side": "stable",
                                            "anchor": [0.3]}))
    a2 = anchor_from_run(out2["run"], p)
    assert np.array_equal(a2, [0.3])
    bad = dict(out["run"])
    bad["anchor"] = [0.1, 0.2, 0.3]
    with pytest.raises(ConfigError):
        anchor_from_run(bad, p)


# ------------------------------------------------------------ example export

def test_example_problem_config_roundtrip(example_problem):
    cfg = example_problem_config(example_problem,
                                 run={"c_zeta": 0.5, "side": "unstable"})
    assert cfg["problem"]["kind"] == "neumann-flux-example"
    rebuilt = problem_from_config(cfg)
    assert np.array_equal(rebuilt.eigenvalues, example_problem.eigenvalues)
    assert np.array_equal(rebuilt.boundary_regularizer,
                          example_problem.boundary_regularizer)
    # frozen column blocks survive the round trip bit for bit
    for key, block in example_problem.meta["boundary_columns"].items():
        assert np.array_equal(rebuilt.meta["boundary_columns"][key], block)
    # the emitted config is deterministic, so its hash is a run key
    again = example_problem_config(example_problem,
                                   run={"c_zeta": 0.5, "side": "unstable"})
    assert config_hash(cfg) == config_hash(again)
