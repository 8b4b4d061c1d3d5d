"""JSON problem configurations for the command-line front end.

Validation here is structural: key sets, types, and array lengths.
Value ranges (Hurst index, quadrature order, weight signs, box bounds)
are enforced by the domain constructors so the rules live in one place.
Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .bsde import DriverSpec
from .dynamics import Box, ModelSpec, Unconstrained, sin_drift_model
from .errors import ConfigError
from .lattice import NoiseLattice, _noise
from .lq import LqSpec, as_model

__all__ = [
    "BsdeConfig",
    "LqConfig",
    "ModelConfig",
    "load_bsde_config",
    "load_json",
    "load_lq_config",
    "load_model_config",
]


def load_json(path: str):
    """Parse a JSON file; malformed content reports line and column."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: malformed JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None


def _expect_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, required: frozenset, optional: frozenset, where: str) -> None:
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _number(obj: dict, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: {key} must be a number, got {value!r}")
    return float(value)


def _integer(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def _number_list(obj: dict, key: str, length: int, where: str) -> np.ndarray:
    value = obj[key]
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{where}: {key} must be a list of {length} numbers")
    out = np.empty(length)
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{where}: {key}[{i}] must be a number, got {v!r}")
        out[i] = float(v)
    return out


def _parse_control_set(value, where: str):
    if value == "unconstrained":
        return Unconstrained()
    if isinstance(value, dict):
        _check_keys(value, frozenset({"box"}), frozenset(), f"{where}.control_set")
        bounds = value["box"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ConfigError(f"{where}.control_set: box must be [lower, upper]")
        for i, v in enumerate(bounds):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{where}.control_set: box[{i}] must be a number")
        return Box(float(bounds[0]), float(bounds[1]))
    raise ConfigError(
        f'{where}: control_set must be "unconstrained" or {{"box": [lo, hi]}}'
    )


_LQ_COEFFS = ("A", "B", "C", "D", "Q", "R")


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Controlled-dynamics problem: which model, on which lattice."""

    horizon: int
    initial_state: float
    hurst: float
    quadrature_order: int
    control_set: object
    kind: str
    params: dict

    def build_model(self) -> ModelSpec:
        if self.kind == "sin_drift":
            return sin_drift_model(
                self.horizon,
                initial_state=self.initial_state,
                noise_gain=self.params["c"],
                control_set=self.control_set,
            )
        spec = LqSpec(
            horizon=self.horizon,
            x=self.initial_state,
            G=self.params["G"],
            **{name: self.params[name] for name in _LQ_COEFFS},
        )
        model = as_model(spec)
        if isinstance(self.control_set, Box):
            model = dataclasses.replace(model, control_set=self.control_set)
        return model


def parse_model_config(obj, where: str = "config", order_override: int | None = None) -> ModelConfig:
    obj = _expect_mapping(obj, where)
    _check_keys(
        obj,
        frozenset({"horizon", "initial_state", "hurst", "quadrature_order", "control_set", "model"}),
        frozenset(),
        where,
    )
    horizon = _integer(obj, "horizon", where)
    model_obj = _expect_mapping(obj["model"], f"{where}.model")
    if "type" not in model_obj:
        raise ConfigError(f"{where}.model: missing key 'type'")
    kind = model_obj["type"]
    if kind == "sin_drift":
        _check_keys(model_obj, frozenset({"type"}), frozenset({"c"}), f"{where}.model")
        params = {"c": _number(model_obj, "c", f"{where}.model") if "c" in model_obj else 0.5}
    elif kind == "lq":
        _check_keys(
            model_obj,
            frozenset({"type", "G", *_LQ_COEFFS}),
            frozenset(),
            f"{where}.model",
        )
        params = {
            name: _number_list(model_obj, name, horizon, f"{where}.model")
            for name in _LQ_COEFFS
        }
        params["G"] = _number(model_obj, "G", f"{where}.model")
    else:
        raise ConfigError(f'{where}.model: type must be "sin_drift" or "lq", got {kind!r}')
    order = _integer(obj, "quadrature_order", where)
    return ModelConfig(
        horizon=horizon,
        initial_state=_number(obj, "initial_state", where),
        hurst=_number(obj, "hurst", where),
        quadrature_order=order_override if order_override is not None else order,
        control_set=_parse_control_set(obj["control_set"], where),
        kind=kind,
        params=params,
    )


def load_model_config(path: str, order_override: int | None = None) -> ModelConfig:
    return parse_model_config(load_json(path), where=path, order_override=order_override)


@dataclasses.dataclass(frozen=True)
class LqConfig:
    spec: LqSpec
    hurst: float
    quadrature_order: int


def parse_lq_config(obj, where: str = "config", order_override: int | None = None) -> LqConfig:
    obj = _expect_mapping(obj, where)
    _check_keys(
        obj,
        frozenset({"horizon", "hurst", "quadrature_order", "G", "x", *_LQ_COEFFS}),
        frozenset(),
        where,
    )
    horizon = _integer(obj, "horizon", where)
    spec = LqSpec(
        horizon=horizon,
        G=_number(obj, "G", where),
        x=_number(obj, "x", where),
        **{name: _number_list(obj, name, horizon, where) for name in _LQ_COEFFS},
    )
    order = _integer(obj, "quadrature_order", where)
    return LqConfig(
        spec=spec,
        hurst=_number(obj, "hurst", where),
        quadrature_order=order_override if order_override is not None else order,
    )


def load_lq_config(path: str, order_override: int | None = None) -> LqConfig:
    return parse_lq_config(load_json(path), where=path, order_override=order_override)


_STAGE_KEYS = ("f_constant", "f_y", "f_z", "g_constant", "g_y", "g_z")


@dataclasses.dataclass(frozen=True)
class BsdeConfig:
    """Affine-driver backward equation.

    Terminal value c0 + sum_k coeff[k] xi_k; at stage s in 1..N the
    drivers are f = f_constant + f_y y + f_z z and likewise for g.  It is
    solved on a depth-N lattice whatever the stage-N g coefficients.
    """

    horizon: int
    hurst: float
    quadrature_order: int
    terminal_constant: float
    terminal_coefficients: np.ndarray
    stages: tuple[dict, ...]

    def build_driver(self, lat: NoiseLattice) -> DriverSpec:
        acc = np.full(1, float(self.terminal_constant))
        for k in range(self.horizon):
            acc = (acc[:, None] + self.terminal_coefficients[k] * _noise(lat, k)).reshape(-1)
        terminal = lat.from_values(self.horizon, acc)

        def f(s, y, z):
            coeff = self.stages[s - 1]
            return coeff["f_constant"] + coeff["f_y"] * y + coeff["f_z"] * z

        def g(s, y, z):
            coeff = self.stages[s - 1]
            return coeff["g_constant"] + coeff["g_y"] * y + coeff["g_z"] * z

        return DriverSpec(horizon=self.horizon, terminal=terminal, f=f, g=g)


def parse_bsde_config(obj, where: str = "config", order_override: int | None = None) -> BsdeConfig:
    obj = _expect_mapping(obj, where)
    _check_keys(
        obj,
        frozenset({"horizon", "hurst", "quadrature_order", "terminal", "driver"}),
        frozenset(),
        where,
    )
    horizon = _integer(obj, "horizon", where)
    if horizon < 1:
        raise ConfigError(f"{where}: horizon must be >= 1, got {horizon}")
    terminal = _expect_mapping(obj["terminal"], f"{where}.terminal")
    _check_keys(
        terminal,
        frozenset({"constant", "noise_coefficients"}),
        frozenset(),
        f"{where}.terminal",
    )
    driver = obj["driver"]
    if not isinstance(driver, list) or len(driver) != horizon:
        raise ConfigError(f"{where}: driver must be a list of {horizon} stage objects")
    stages = []
    for s, stage_obj in enumerate(driver, start=1):
        stage_where = f"{where}.driver[{s - 1}]"
        stage_obj = _expect_mapping(stage_obj, stage_where)
        _check_keys(stage_obj, frozenset(_STAGE_KEYS), frozenset(), stage_where)
        stages.append({k: _number(stage_obj, k, stage_where) for k in _STAGE_KEYS})
    if stages[-1]["f_z"] != 0.0 or stages[-1]["g_z"] != 0.0:
        raise ConfigError(
            f"{where}: stage {horizon} z-coefficients must be 0 (Z at the final stage is fixed to zero)"
        )
    order = _integer(obj, "quadrature_order", where)
    return BsdeConfig(
        horizon=horizon,
        hurst=_number(obj, "hurst", where),
        quadrature_order=order_override if order_override is not None else order,
        terminal_constant=_number(terminal, "constant", f"{where}.terminal"),
        terminal_coefficients=_number_list(
            terminal, "noise_coefficients", horizon, f"{where}.terminal"
        ),
        stages=tuple(stages),
    )


def load_bsde_config(path: str, order_override: int | None = None) -> BsdeConfig:
    return parse_bsde_config(load_json(path), where=path, order_override=order_override)
