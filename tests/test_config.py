import json
import re

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


@pytest.mark.parametrize("key, value", [("gamma", 0.4), ("zeta", -0.4),
                                        ("basis_kind", "polynomial")])
def test_validate_refuses_the_retired_rate_and_basis_keys(key, value):
    # gamma and zeta are the problem's own rates; the basis is polynomial
    with pytest.raises(ConfigError, match=key):
        validate_config(minimal_cfg(run={"c_zeta": 1.0, key: value}))


@pytest.mark.parametrize("key, value", [
    ("n_samples", True), ("seed", 2.0),
    ("tol", True), ("dt", False), ("c_zeta", "0.5"), ("t0", None),
    ("t_back", float("inf")), ("tol", float("nan"))])
def test_validate_checks_the_json_type_of_each_run_value(key, value):
    with pytest.raises(ConfigError, match=f"run.{key}"):
        validate_config(minimal_cfg(run={"c_zeta": 1.0, key: value}))


def test_validate_refuses_a_run_block_that_is_not_an_object():
    with pytest.raises(ConfigError, match="run must be an object"):
        validate_config(minimal_cfg(run=[["c_zeta", 1.0]]))


def test_validate_boundary_ladder_must_increase():
    cfg = minimal_cfg()
    cfg["problem"]["boundary"] = {
        "operator_shift": 1.0,
        "ladder": [1e3, 1e2],
        "regularizer": [[0.0, 0.0], [0.0, 0.0]],
    }
    with pytest.raises(ConfigError):
        validate_config(cfg)


def boundary_cfg():
    cfg = minimal_cfg()
    cfg["problem"]["boundary"] = {
        "operator_shift": 1.0,
        "ladder": [1e2, 1e3],
        "regularizer": [[0.0, 0.0], [0.0, 0.0]],
    }
    return cfg


INF, NAN = float("inf"), float("nan")


BAD_PROBLEM_NUMBERS = [
    (("rates", "alpha"), True, "rates.alpha"),
    (("rates", "zeta"), NAN, "rates.zeta"),
    (("rates", "bound_K"), True, "rates.bound_K"),
    (("rates", "bound_K"), INF, "rates.bound_K"),
    (("rates", "bound_K"), 10 ** 400, "rates.bound_K"),
    (("unstable_modes", 0), True, "unstable_modes"),
    (("nonlinearity", "matrix", 1, 0), INF, "linear matrix"),
    (("nonlinearity", "matrix", 0, 1), False, "linear matrix"),
    (("nonlinearity",), {"kind": "saturated_polynomial", "coefficients": [0.0, 0.1],
                         "radius": True}, "saturation radius"),
    (("noise",), {"kind": "saturated", "slopes": [0.1, 0.1], "radius": INF},
     "noise radius"),
    (("nonlinearity",), {"kind": "boundary-linear",
                         "g0_matrix": [[0.0, -INF], [0.0, 0.0]]}, "g0_matrix"),
    (("eigenvalues", 1), True, "eigenvalues"),
    (("boundary", "operator_shift"), True, "boundary.operator_shift"),
    (("boundary", "operator_shift"), NAN, "boundary.operator_shift"),
    (("boundary", "regularizer", 0, 0), True, "boundary.regularizer"),
]


@pytest.mark.parametrize("path, value, where", BAD_PROBLEM_NUMBERS,
                         ids=[where if isinstance(value, dict) else f"{where}={str(value)[:8]}"
                              for _, value, where in BAD_PROBLEM_NUMBERS])
def test_validate_refuses_booleans_and_nonfinite_problem_numbers(path, value, where):
    cfg = boundary_cfg()
    block = cfg["problem"]
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be"):
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



def test_anchor_from_run_reads_the_anchor_by_the_solves_rule():
    # a full-width run anchor passes only with its other block zero, and
    # is returned in its side's block coordinates, as a solve reads it
    out = validate_config(minimal_cfg(run={"c_zeta": 1.0, "anchor": [0.1, 0.5]}))
    p = problem_from_config(out)
    with pytest.raises(ConfigError, match="nonzero components outside its block"):
        anchor_from_run(out["run"], p)
    out["run"]["anchor"] = [0.1, 0.0]
    assert np.array_equal(anchor_from_run(out["run"], p), [0.1])
    out["run"].update(side="stable", anchor=[0.0, 0.3])
    assert np.array_equal(anchor_from_run(out["run"], p), [0.3])

# ------------------------------------------------------------ example export

def test_example_problem_config_roundtrip(example_problem):
    cfg = example_problem_config(example_problem,
                                 run={"c_zeta": 0.5, "side": "unstable"})
    assert cfg["problem"]["kind"] == "neumann-flux-example"
    rebuilt = problem_from_config(cfg)
    assert np.array_equal(rebuilt.eigenvalues, example_problem.eigenvalues)
    assert np.array_equal(rebuilt.boundary_regularizer,
                          example_problem.boundary_regularizer)
    # the emitted config is deterministic, so its hash is a run key
    again = example_problem_config(example_problem,
                                   run={"c_zeta": 0.5, "side": "unstable"})
    assert config_hash(cfg) == config_hash(again)
