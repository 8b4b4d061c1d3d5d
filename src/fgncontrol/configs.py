"""JSON problem configurations for the command-line front end.

Each config is the problem on its own lattice: a parser reads the
fields, then builds the lattice from `hurst`, `quadrature_order` and
`horizon`, then the model, spec or driver on it.  A lattice over the
path cap thus exits 2 when the config is read, before any model guard
runs or any leaf-sized table is built.

Validation here is structural: key sets, types, and array lengths.
Value ranges (Hurst index, quadrature order, weight signs, box bounds)
are enforced by the domain constructors so the rules live in one place;
`_naming` prefixes a fault they raise with the file (and key) it came from.
The one exception is the horizon: it is checked against `MAX_DEPTH`
first, because whitening and a model's guards cost O(horizon) or more.
Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json

import numpy as np

from .bsde import DriverSpec
from .dynamics import Box, ModelSpec, Unconstrained, sin_drift_model
from .errors import ConfigError, NonFiniteValue
from .lattice import MAX_DEPTH, NoiseLattice, _children, lattice_for_hurst
from .lq import LqSpec, _lq_model
from .reporting import _utf8_text

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
    """Parse a UTF-8 JSON file; malformed content reports line and column."""
    with _utf8_text(path) as fh:
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


def _finite(value, key: str, where: str) -> float:
    """`value` as a finite float, else ConfigError naming key and value.

    Python's json reads NaN, Infinity and 1e999 as non-finite floats and
    integers of any size, which `float` may overflow; a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: {key} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = np.inf
    if not np.isfinite(out):
        raise ConfigError(f"{where}: {key} must be a finite number, got {value!r}")
    return out


def _number(obj: dict, key: str, where: str) -> float:
    return _finite(obj[key], key, where)


def _integer(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def _horizon(obj: dict, where: str) -> int:
    """The config's `horizon`, an integer in [1, MAX_DEPTH]."""
    horizon = _integer(obj, "horizon", where)
    if not 1 <= horizon <= MAX_DEPTH:
        raise ConfigError(f"{where}: horizon must be in [1, {MAX_DEPTH}], got {horizon}")
    return horizon


@contextlib.contextmanager
def _naming(where: str):
    """A domain fault raised inside, a ValueError of any class or a
    NonFiniteValue, keeps its class and its message, prefixed with `where`
    as every config fault is; a ConfigError names its place already and
    passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, NonFiniteValue) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _lattice(obj: dict, horizon: int, where: str) -> NoiseLattice:
    """The depth-`horizon` lattice of the config's `hurst` and `quadrature_order`;
    a lattice fault (Hurst index, order, path cap) names `where`."""
    hurst, order = _number(obj, "hurst", where), _integer(obj, "quadrature_order", where)
    with _naming(where):
        return lattice_for_hurst(hurst, horizon, order)


def _number_list(obj: dict, key: str, length: int, where: str) -> np.ndarray:
    value = obj[key]
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{where}: {key} must be a list of {length} numbers")
    return np.array([_finite(v, f"{key}[{i}]", where) for i, v in enumerate(value)])


def _parse_control_set(value, where: str):
    if value == "unconstrained":
        return Unconstrained()
    if isinstance(value, dict):
        _check_keys(value, frozenset({"box"}), frozenset(), f"{where}.control_set")
        bounds = value["box"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ConfigError(f"{where}.control_set: box must be [lower, upper]")
        with _naming(f"{where}.control_set"):
            return Box(*(
                _finite(v, f"box[{i}]", f"{where}.control_set") for i, v in enumerate(bounds)
            ))
    raise ConfigError(
        f'{where}: control_set must be "unconstrained" or {{"box": [lo, hi]}}'
    )


_LQ_COEFFS = ("A", "B", "C", "D", "Q", "R")


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Controlled-dynamics problem: a built model and the lattice it runs on.

    Both are built when the config is parsed, the lattice first, so an
    oversized lattice, then a model the constructors refuse (bad LQ
    weights, a stated derivative that disagrees with its value), fails at
    load.
    """

    model: ModelSpec
    lattice: NoiseLattice


def parse_model_config(obj, where: str = "config") -> ModelConfig:
    obj = _expect_mapping(obj, where)
    _check_keys(
        obj,
        frozenset({"horizon", "initial_state", "hurst", "quadrature_order", "control_set", "model"}),
        frozenset(),
        where,
    )
    horizon = _horizon(obj, where)
    model_obj = _expect_mapping(obj["model"], f"{where}.model")
    if "type" not in model_obj:
        raise ConfigError(f"{where}.model: missing key 'type'")
    kind = model_obj["type"]
    if kind == "sin_drift":
        _check_keys(model_obj, frozenset({"type"}), frozenset({"c"}), f"{where}.model")
        gain = _number(model_obj, "c", f"{where}.model") if "c" in model_obj else 0.5

        def build(x0, control_set):
            return sin_drift_model(horizon, x0, noise_gain=gain, control_set=control_set)

    elif kind == "lq":
        _check_keys(
            model_obj,
            frozenset({"type", "G", *_LQ_COEFFS}),
            frozenset(),
            f"{where}.model",
        )
        coeffs = {
            name: _number_list(model_obj, name, horizon, f"{where}.model")
            for name in _LQ_COEFFS
        }
        coeffs["G"] = _number(model_obj, "G", f"{where}.model")

        def build(x0, control_set):
            return _lq_model(LqSpec(horizon=horizon, x=x0, **coeffs), control_set)

    else:
        raise ConfigError(f'{where}.model: type must be "sin_drift" or "lq", got {kind!r}')
    initial_state = _number(obj, "initial_state", where)
    control_set = _parse_control_set(obj["control_set"], where)
    lattice = _lattice(obj, horizon, where)
    with _naming(where):
        return ModelConfig(model=build(initial_state, control_set), lattice=lattice)


def load_model_config(path: str) -> ModelConfig:
    return parse_model_config(load_json(path), where=path)


@dataclasses.dataclass(frozen=True)
class LqConfig:
    spec: LqSpec
    lattice: NoiseLattice


def parse_lq_config(obj, where: str = "config") -> LqConfig:
    obj = _expect_mapping(obj, where)
    _check_keys(
        obj,
        frozenset({"horizon", "hurst", "quadrature_order", "G", "x", *_LQ_COEFFS}),
        frozenset(),
        where,
    )
    horizon = _horizon(obj, where)
    fields = dict(
        G=_number(obj, "G", where),
        x=_number(obj, "x", where),
        **{name: _number_list(obj, name, horizon, where) for name in _LQ_COEFFS},
    )
    lattice = _lattice(obj, horizon, where)
    with _naming(where):
        return LqConfig(spec=LqSpec(horizon=horizon, **fields), lattice=lattice)


def load_lq_config(path: str) -> LqConfig:
    return parse_lq_config(load_json(path), where=path)


_STAGE_KEYS = ("f_constant", "f_y", "f_z", "g_constant", "g_y", "g_z")


@dataclasses.dataclass(frozen=True)
class BsdeConfig:
    """Affine-driver backward equation and the lattice it is solved on.

    Terminal value c0 + sum_k coeff[k] xi_k; at stage s in 1..N the
    drivers are f = f_constant + f_y y + f_z z and likewise for g.  It is
    solved on a depth-N lattice whatever the stage-N g coefficients.
    """

    driver: DriverSpec
    lattice: NoiseLattice


def _build_driver(lat: NoiseLattice, constant: float, coefficients, stages) -> DriverSpec:
    """The terminal value and the affine stage drivers; the terminal's
    overflow raises NonFiniteValue, without numpy's warnings."""
    horizon = len(stages)
    acc = np.full(1, constant)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            acc = _children(lat, k, acc, coefficients[k], "terminal")
    terminal = lat.from_values(horizon, acc)

    def affine(c, a, b, y, z):
        """(c + a y) + b z on the tables of y and z; a term whose coefficient
        is 0 is dropped, so with a = b = 0 it is the scalar c."""
        out = c if a == 0.0 else a * y.values + c
        return out if b == 0.0 else out + b * z.values

    def f(s, y, z):
        coeff = stages[s - 1]
        return affine(coeff["f_constant"], coeff["f_y"], coeff["f_z"], y, z)

    def g(s, y, z):
        coeff = stages[s - 1]
        return affine(coeff["g_constant"], coeff["g_y"], coeff["g_z"], y, z)

    return DriverSpec(horizon=horizon, terminal=terminal, f=f, g=g)


def parse_bsde_config(obj, where: str = "config") -> BsdeConfig:
    obj = _expect_mapping(obj, where)
    _check_keys(
        obj,
        frozenset({"horizon", "hurst", "quadrature_order", "terminal", "driver"}),
        frozenset(),
        where,
    )
    horizon = _horizon(obj, where)
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
    constant = _number(terminal, "constant", f"{where}.terminal")
    coefficients = _number_list(terminal, "noise_coefficients", horizon, f"{where}.terminal")
    lattice = _lattice(obj, horizon, where)
    with _naming(where):
        driver = _build_driver(lattice, constant, coefficients, tuple(stages))
    return BsdeConfig(driver=driver, lattice=lattice)


def load_bsde_config(path: str) -> BsdeConfig:
    return parse_bsde_config(load_json(path), where=path)
