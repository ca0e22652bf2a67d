"""JSON problem and run configuration.

One file describes one problem plus, optionally, one run recipe.  The
config is the reproducibility key: reports embed its canonical sha256,
and two runs with equal hash and seed must produce byte-identical
numeric payloads.  Reconstruction is purely from the file contents;
nothing is recomputed that the file already pins (in particular the
frozen boundary-regularizer columns of the example problem).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, fields
from typing import Optional

import numpy as np

from .errors import ConfigError
from .lyapunov_perron import LPConfig, _is_finite_number
from .problem import (NoiseModel, NonlinearityModel, SpectralProblem,
                      _normalize_anchor, build_problem, diagonal_linear_noise,
                      linear_nonlinearity, saturated_polynomial_nonlinearity,
                      saturated_noise, zero_noise, zero_nonlinearity)

__all__ = [
    "SCHEMA",
    "canonical_json",
    "config_hash",
    "jsonable",
    "load_config",
    "read_config_json",
    "validate_config",
    "problem_from_config",
    "lp_config_from_run",
    "anchor_from_run",
    "example_problem_config",
]

SCHEMA = "msmanifold/1"

_RATE_KEYS = {"alpha", "beta", "gamma", "zeta", "bound_K"}
_PROBLEM_KEYS = {"kind", "eigenvalues", "unstable_modes", "rates",
                 "nonlinearity", "noise", "boundary"}
# The solver keys of a run block: every LPConfig field but the two that
# the front end sets itself.
_SOLVER_KEYS = tuple(f.name for f in fields(LPConfig)
                     if f.name not in ("c_zeta_source", "force"))

# Every run key with its default: the front end's own keys and its default
# for c_zeta, which LPConfig requires, then LPConfig's field defaults. An
# int or float default also fixes its key's JSON type.
_RUN_DEFAULTS = {"side": "unstable", "anchor": None, "t0": 1.0, "c_zeta": 0.5,
                 **{f.name: f.default for f in fields(LPConfig)
                    if f.name in _SOLVER_KEYS and f.default is not MISSING}}


def jsonable(obj):
    """Recursively convert numpy containers to plain JSON types."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "as_dict"):
        return jsonable(obj.as_dict())
    raise ConfigError(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_json(obj) -> str:
    """Sorted keys, minimal separators; repr-exact floats."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")


def _number(value, where: str) -> float:
    """A finite number, not a boolean, as a float."""
    _require(_is_finite_number(value), f"{where} must be a finite number")
    return float(value)


def _run_value(key: str, value, default):
    """A run value of the JSON type of its default; a number comes back as
    a float, and must be finite. No boolean passes for a number."""
    if isinstance(default, int):
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"run.{key} must be an integer")
    elif isinstance(default, float):
        return _number(value, f"run.{key}")
    return value


def _float_array(x, where: str, shape: Optional[tuple] = None) -> np.ndarray:
    """x as a float array whose entries are all finite numbers, none a
    boolean: nonempty and 1-D, or of the given (rows, cols) shape."""
    entries = np.asarray(x, dtype=object)
    if shape is None:
        ok, what = entries.ndim == 1 and entries.size > 0, "a nonempty finite list"
    else:
        ok, what = entries.shape == shape, "a finite {}x{} matrix".format(*shape)
    _require(ok and all(map(_is_finite_number, entries.flat)), f"{where} must be {what}")
    return entries.astype(float)


def _float_list(x, where: str) -> list:
    return _float_array(x, where).tolist()


def validate_config(cfg: dict) -> dict:
    """Structural validation; returns a normalized deep copy.

    Physics-level checks (rate ordering, spectral gaps, F(0)=0) belong to
    build_problem and run there, not here.
    """
    _require(isinstance(cfg, dict), "config must be a JSON object")
    _check_keys(cfg, {"schema", "problem", "run"}, "top-level")
    _require(cfg.get("schema") == SCHEMA,
             f"schema must be {SCHEMA!r}, got {cfg.get('schema')!r}")
    _require(isinstance(cfg.get("problem"), dict), "missing problem block")

    prob = dict(cfg["problem"])
    _check_keys(prob, _PROBLEM_KEYS, "problem")
    kind = prob.get("kind", "custom")
    _require(kind in ("custom", "neumann-flux-example"),
             f"unknown problem kind {kind!r}")
    eigs = _float_list(prob.get("eigenvalues"), "eigenvalues")
    m = len(eigs)
    u_modes = prob.get("unstable_modes", [])
    _require(isinstance(u_modes, list)
             and all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < m
                     for i in u_modes),
             "unstable_modes must be a list of in-range mode indices")

    rates = prob.get("rates")
    _require(isinstance(rates, dict), "missing rates block")
    _check_keys(rates, _RATE_KEYS, "rates")
    rates = {"bound_K": 1.0, **rates}
    rates = {key: _number(rates.get(key), f"rates.{key}") for key in sorted(_RATE_KEYS)}

    nl = _validate_nonlinearity(prob.get("nonlinearity", {"kind": "zero"}), m)
    noise = _validate_noise(prob.get("noise", {"kind": "zero"}), m)
    boundary = _validate_boundary(prob.get("boundary"), m)
    _require(not (nl["kind"] == "boundary-linear" and boundary is None),
             "boundary-linear nonlinearity needs a boundary block")

    out = {
        "schema": SCHEMA,
        "problem": {
            "kind": kind,
            "eigenvalues": eigs,
            "unstable_modes": [int(i) for i in u_modes],
            "rates": rates,
            "nonlinearity": nl,
            "noise": noise,
            "boundary": boundary,
        },
    }
    if cfg.get("run") is not None:
        _require(isinstance(cfg["run"], dict), "run must be an object")
        _check_keys(cfg["run"], _RUN_DEFAULTS.keys(), "run")
        run = {**_RUN_DEFAULTS, **cfg["run"]}
        _require(run["side"] in ("unstable", "stable"),
                 "run.side must be unstable or stable")
        for key, default in _RUN_DEFAULTS.items():
            run[key] = _run_value(key, run[key], default)
        if run["anchor"] is not None:
            run["anchor"] = _float_list(run["anchor"], "run.anchor")
        out["run"] = run
    return out


def _validate_nonlinearity(nl, m: int) -> dict:
    _require(isinstance(nl, dict) and "kind" in nl,
             "nonlinearity must be an object with a kind")
    kind = nl["kind"]
    if kind == "zero":
        _check_keys(nl, {"kind"}, "nonlinearity")
        return {"kind": "zero"}
    if kind == "linear":
        _check_keys(nl, {"kind", "matrix"}, "nonlinearity")
        mat = _float_array(nl.get("matrix"), "linear matrix", (m, m))
        return {"kind": "linear", "matrix": mat.tolist()}
    if kind == "saturated_polynomial":
        _check_keys(nl, {"kind", "coefficients", "radius"}, "nonlinearity")
        coeffs = _float_list(nl.get("coefficients"), "coefficients")
        radius = _number(nl.get("radius"), "saturation radius")
        _require(radius > 0, "saturation radius must be positive")
        return {"kind": "saturated_polynomial", "coefficients": coeffs,
                "radius": radius}
    if kind == "boundary-linear":
        _check_keys(nl, {"kind", "g0_matrix", "g1_coefficients",
                         "g2_coefficients"}, "nonlinearity")
        out = {"kind": "boundary-linear"}
        g0 = nl.get("g0_matrix")
        out["g0_matrix"] = None if g0 is None else \
            _float_array(g0, "g0_matrix", (m, m)).tolist()
        for key in ("g1_coefficients", "g2_coefficients"):
            val = nl.get(key)
            out[key] = None if val is None else _float_list(val, key)
        return out
    raise ConfigError(f"unknown nonlinearity kind {kind!r}")


def _validate_noise(noise, m: int) -> dict:
    _require(isinstance(noise, dict) and "kind" in noise,
             "noise must be an object with a kind")
    kind = noise["kind"]
    if kind == "zero":
        _check_keys(noise, {"kind"}, "noise")
        return {"kind": "zero"}
    if kind in ("diagonal_linear", "saturated"):
        allowed = {"kind", "slopes", "covariance_weights"}
        if kind == "saturated":
            allowed.add("radius")
        _check_keys(noise, allowed, "noise")
        slopes = _float_list(noise.get("slopes"), "noise.slopes")
        _require(len(slopes) == m, f"noise.slopes must have length {m}")
        out = {"kind": kind, "slopes": slopes}
        cw = noise.get("covariance_weights")
        out["covariance_weights"] = None if cw is None else \
            _float_list(cw, "covariance_weights")
        if out["covariance_weights"] is not None:
            _require(len(out["covariance_weights"]) == m,
                     f"covariance_weights must have length {m}")
        if kind == "saturated":
            radius = _number(noise.get("radius"), "noise radius")
            _require(radius > 0, "noise radius must be positive")
            out["radius"] = radius
        return out
    raise ConfigError(f"unknown noise kind {kind!r}")


def _validate_boundary(boundary, m: int):
    if boundary is None:
        return None
    _require(isinstance(boundary, dict), "boundary must be an object")
    _check_keys(boundary, {"operator_shift", "ladder", "regularizer"}, "boundary")
    shift = _number(boundary.get("operator_shift"), "boundary.operator_shift")
    ladder = _float_list(boundary.get("ladder"), "boundary.ladder")
    _require(all(b > a for a, b in zip(ladder, ladder[1:])),
             "boundary.ladder must increase strictly")
    for lam in ladder:
        # lambda*R_lambda(A) needs lambda above the operator shift
        _require(lam > shift, f"boundary.ladder rung {lam!r} is not above "
                              f"boundary.operator_shift {shift!r}")
    reg = _float_array(boundary.get("regularizer"), "boundary.regularizer", (m, 2))
    return {
        "operator_shift": shift,
        "ladder": ladder,
        "regularizer": reg.tolist(),
    }


def read_config_json(path):
    """The parsed, not yet validated, JSON of a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def load_config(path) -> dict:
    return validate_config(read_config_json(path))


def _nonlinearity_from(nl: dict, m: int, boundary) -> NonlinearityModel:
    kind = nl["kind"]
    if kind == "zero":
        return zero_nonlinearity(m)
    if kind == "linear":
        return linear_nonlinearity(np.asarray(nl["matrix"]))
    if kind == "saturated_polynomial":
        return saturated_polynomial_nonlinearity(nl["coefficients"],
                                                 nl["radius"])
    if kind == "boundary-linear":
        from .example_pde import boundary_flux_nonlinearity

        g0 = nl.get("g0_matrix")
        return boundary_flux_nonlinearity(
            m,
            g0=None if g0 is None else np.asarray(g0, dtype=float),
            g1=None if nl.get("g1_coefficients") is None
            else np.asarray(nl["g1_coefficients"], dtype=float),
            g2=None if nl.get("g2_coefficients") is None
            else np.asarray(nl["g2_coefficients"], dtype=float))
    raise ConfigError(f"unknown nonlinearity kind {kind!r}")


def _noise_from(noise: dict, m: int) -> NoiseModel:
    kind = noise["kind"]
    if kind == "zero":
        return zero_noise(m)
    if kind == "diagonal_linear":
        return diagonal_linear_noise(noise["slopes"],
                                     noise.get("covariance_weights"))
    if kind == "saturated":
        return saturated_noise(noise["slopes"], noise["radius"],
                               noise.get("covariance_weights"))
    raise ConfigError(f"unknown noise kind {kind!r}")


def problem_from_config(cfg: dict) -> SpectralProblem:
    """Build the problem pinned by a validated config."""
    prob = cfg["problem"]
    m = len(prob["eigenvalues"])
    rates = prob["rates"]
    boundary = prob.get("boundary")
    nonlinearity = _nonlinearity_from(prob["nonlinearity"], m, boundary)
    noise = _noise_from(prob["noise"], m)

    regularizer = None
    meta = {"family": prob["kind"]}
    if boundary is not None:
        regularizer = np.asarray(boundary["regularizer"], dtype=float)
        meta.update({
            "operator_shift": boundary["operator_shift"],
            "ladder": tuple(boundary["ladder"]),
        })
    return build_problem(prob["eigenvalues"], prob["unstable_modes"],
                         rates["alpha"], rates["beta"], rates["gamma"],
                         rates["zeta"], nonlinearity, noise,
                         bound_K=rates.get("bound_K", 1.0),
                         boundary_regularizer=regularizer, meta=meta)


def lp_config_from_run(run: dict, force: bool = False) -> LPConfig:
    """Translate a validated run block into the solver configuration."""
    return LPConfig(**{key: run[key] for key in _SOLVER_KEYS},
                    c_zeta_source="config", force=force)


def anchor_from_run(run: dict, p: SpectralProblem) -> np.ndarray:
    """The run block's anchor in its side's block coordinates, read by the
    solves' rule (problem._normalize_anchor); 0.1 in each block mode when
    the run sets none."""
    idx = p.unstable_modes if run["side"] == "unstable" else p.stable_modes
    anchor = run.get("anchor")
    if anchor is None:
        return np.full(len(idx), 0.1)
    return _normalize_anchor(anchor, idx, p.n_modes, 1)[0][0]


def example_problem_config(p: SpectralProblem, run: Optional[dict] = None) -> dict:
    """Emit the fully explicit config for a problem built by
    build_example_problem or read from an example config, frozen limit
    columns included; a zero nonlinearity as {"kind": "zero"}."""
    nl = p.nonlinearity
    if nl.kind != "zero" and not nl.returns_boundary:
        raise ConfigError("not a boundary-forced example problem")
    params = {"kind": "zero"} if nl.kind == "zero" else nl.params.get("config")
    if params is None:
        raise ConfigError("nonlinearity does not carry its config form; "
                          "build it from linear coefficient arrays")
    noise = p.noise
    if noise.is_zero:
        noise_cfg = {"kind": "zero"}
    else:
        kind = {"diagonal-linear": "diagonal_linear",
                "saturated": "saturated"}.get(noise.kind)
        if kind is None:
            raise ConfigError(f"noise kind {noise.kind!r} has no config form")
        noise_cfg = {
            "kind": kind,
            "slopes": jsonable(noise.params.get("slopes")),
            "covariance_weights": jsonable(noise.covariance_weights),
        }
        if kind == "saturated":
            noise_cfg["radius"] = float(noise.params["radius"])
    cfg = {
        "schema": SCHEMA,
        "problem": {
            "kind": "neumann-flux-example",
            "eigenvalues": jsonable(p.eigenvalues),
            "unstable_modes": [int(i) for i in p.unstable_modes],
            "rates": {"alpha": p.alpha, "beta": p.beta, "gamma": p.gamma,
                      "zeta": p.zeta, "bound_K": p.bound_K},
            "nonlinearity": params,
            "noise": noise_cfg,
            "boundary": None if p.boundary_regularizer is None else {
                "operator_shift": p.meta["operator_shift"],
                "ladder": list(p.meta["ladder"]),
                "regularizer": jsonable(p.boundary_regularizer),
            },
        },
    }
    if run is not None:
        cfg["run"] = dict(run)
    return validate_config(cfg)
