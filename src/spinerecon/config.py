"""Pipeline configuration: defaults, JSON loading, and key=value overrides."""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass

import numpy as np

from .anatomy import AxesEstimate
from .registration import MODES
from .spine import LEVELS, _read_json, pair_name

_AXIS_VECTORS = {
    "+x": (1.0, 0.0, 0.0), "-x": (-1.0, 0.0, 0.0),
    "+y": (0.0, 1.0, 0.0), "-y": (0.0, -1.0, 0.0),
    "+z": (0.0, 0.0, 1.0), "-z": (0.0, 0.0, -1.0),
}
_PAIR_NAMES = tuple(pair_name(upper, lower) for upper, lower in zip(LEVELS, LEVELS[1:]))

DEFAULTS = {
    "axes": {"lateral": "+x", "anterior": "+y", "longitudinal": "+z"},
    "anatomy": {
        "cos_threshold": 0.8,
        "use_spine_curve": False,
    },
    "registration": {"mode": "ours", "seed": 0},
    "icp": {"max_iterations": 50},
    "facet": {"target_width_mm": 1.5},  # or a map from each of "L1-L2" .. "L4-L5" to a width
    "output": {"format": "ply"},
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every value parsed and checked once by `build_config`; `raw` is the merged JSON."""

    raw: dict
    orientation_hint: AxesEstimate
    cos_threshold: float
    use_spine_curve: bool
    mode: str
    seed: int
    icp_max_iterations: int
    facet_target_width: float | dict[str, float]
    mesh_format: str


def _merge(base: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise ValueError(f"unknown config key {path + key!r}")
        if isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value, path + key + ".")
        else:
            out[key] = value
    return out


def _reject(key: str, requirement: str, value) -> ValueError:
    return ValueError(f"{key} must be {requirement}, got {json.dumps(value)}")


def _boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise _reject(key, "true or false", value)
    return value


def _integer(value, key: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise _reject(key, f"an integer >= {minimum}", value)
    return value


def _number(value, key: str, requirement="a positive number", ok=lambda v: v > 0) -> float:
    # abs(v) <= float max also rejects nan, +-inf and ints too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max or not ok(value)):
        raise _reject(key, requirement, value)
    return float(value)


def _choice(value, key: str, choices) -> str:
    if not isinstance(value, str) or value not in choices:
        raise _reject(key, f"one of {', '.join(choices)}", value)
    return value


def _orientation_hint(axes: dict) -> AxesEstimate:
    vectors = {role: np.array(_AXIS_VECTORS[_choice(name, f"axes.{role}", _AXIS_VECTORS)])
               for role, name in axes.items()}
    try:
        return AxesEstimate(**vectors)
    except ValueError:
        raise _reject("axes.lateral, axes.anterior and axes.longitudinal",
                      "perpendicular with lateral x anterior = longitudinal", axes) from None


def _target_width(value) -> float | dict[str, float]:
    key = "facet.target_width_mm"
    if not isinstance(value, dict):
        return _number(value, key, "a positive number or a per-pair map")
    if sorted(value) != sorted(_PAIR_NAMES):
        raise _reject(key, f"a map with exactly the keys {', '.join(_PAIR_NAMES)}", sorted(value))
    return {pair: _number(width, f"{key}.{pair}") for pair, width in value.items()}


def _parse(raw: dict) -> PipelineConfig:
    for name, section in raw.items():
        if not isinstance(section, dict):
            raise _reject(name, "a JSON object", section)
    anatomy, registration, icp, facet = (raw[s] for s in ("anatomy", "registration", "icp", "facet"))
    return PipelineConfig(
        raw=raw,
        orientation_hint=_orientation_hint(raw["axes"]),
        cos_threshold=_number(anatomy["cos_threshold"], "anatomy.cos_threshold",
                              "a number in (0, 1)", lambda v: 0 < v < 1),
        use_spine_curve=_boolean(anatomy["use_spine_curve"], "anatomy.use_spine_curve"),
        mode=_choice(registration["mode"], "registration.mode", MODES),
        seed=_integer(registration["seed"], "registration.seed", 0),
        icp_max_iterations=_integer(icp["max_iterations"], "icp.max_iterations", 1),
        facet_target_width=_target_width(facet["target_width_mm"]),
        mesh_format=_choice(raw["output"]["format"], "output.format", ("ply", "stl", "obj")),
    )


def build_config(config_path: str | None = None,
                 overrides: list[str] | None = None, *,
                 base: dict | None = None) -> PipelineConfig:
    """Merge the defaults, `base`, a JSON config file and "section.key=value" overrides.

    `base` is a partial config that replaces defaults but not what the
    file or the overrides name. Override values are parsed as JSON when
    possible, otherwise taken as strings. Every value is checked once; a
    rejection names the dotted key.
    """
    raw = _merge(DEFAULTS, base or {})
    if config_path:
        loaded = _read_json(config_path, "--config")
        if not isinstance(loaded, dict):
            raise ValueError(
                f"config file {config_path} must hold a JSON object, got {json.dumps(loaded)}")
        raw = _merge(raw, loaded)
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        dotted, value = item.split("=", 1)
        try:
            override = json.loads(value)
        except json.JSONDecodeError:
            override = value
        for key in reversed(dotted.split(".")):
            override = {key: override}
        raw = _merge(raw, override)
    return _parse(raw)
