"""Spine model container and the landmark/transform JSON schemas."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

import numpy as np

from .anatomy import AxesEstimate, LandmarkSet, VertebraFrame, compute_frame
from .mesh import TriangleMesh

LEVELS = ("L1", "L2", "L3", "L4", "L5")

_LEVEL_RE = re.compile(r"L[1-5]")


@dataclass(frozen=True)
class Vertebra:
    """One vertebra: mesh plus (optionally) its derived anatomy."""

    level: str
    mesh: TriangleMesh
    landmarks: LandmarkSet | None = None
    axes: AxesEstimate | None = None

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"unknown vertebra level {self.level!r}; expected one of {LEVELS}")

    @property
    def frame(self) -> VertebraFrame | None:
        """The frame of the landmarks; None without landmarks."""
        return None if self.landmarks is None else compute_frame(self.landmarks)

    def with_(self, **changes) -> "Vertebra":
        return replace(self, **changes)


@dataclass(frozen=True)
class SpineModel:
    """Ordered lumbar vertebrae, most superior (L1) first."""

    vertebrae: tuple[Vertebra, ...]

    def __post_init__(self):
        vs = tuple(self.vertebrae)
        if not vs:
            raise ValueError("spine model has no vertebrae")
        levels = [v.level for v in vs]
        if len(set(levels)) != len(levels):
            raise ValueError(f"duplicate vertebra levels: {levels}")
        if levels != sorted(levels):
            raise ValueError(f"vertebrae must be ordered L1..L5, got {levels}")
        object.__setattr__(self, "vertebrae", vs)

    @property
    def levels(self) -> list[str]:
        return [v.level for v in self.vertebrae]

    def __len__(self) -> int:
        return len(self.vertebrae)

    def __getitem__(self, i: int) -> Vertebra:
        return self.vertebrae[i]

    def pairs(self) -> list[tuple[Vertebra, Vertebra]]:
        """Adjacent (upper, lower) vertebra pairs, superior first."""
        return list(zip(self.vertebrae[:-1], self.vertebrae[1:]))


def pair_name(upper_level: str, lower_level: str) -> str:
    return f"{upper_level}-{lower_level}"


def level_from_filename(name: str) -> str:
    """Extract an 'L1'..'L5' tag from a filename."""
    found = _LEVEL_RE.findall(name)
    if not found:
        raise ValueError(f"cannot infer vertebra level from filename {name!r}")
    if len(set(found)) > 1:
        raise ValueError(f"ambiguous vertebra level in filename {name!r}: {sorted(set(found))}")
    return found[0]


# ---------------------------------------------------------------------------
# JSON files

def write_json(path: str, payload) -> None:
    """Write payload as JSON indented by two spaces, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _read_json(path: str, role: str):
    """Parsed JSON of a file; a syntax error names the role, the file and the position."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{role} {path}: invalid JSON at line {e.lineno} "
                             f"column {e.colno}: {e.msg}") from None


def save_landmarks(path: str, level: str, landmarks: LandmarkSet) -> None:
    """Write the landmark file schema: {"level": ..., "l1": [x,y,z], ...}."""
    write_json(path, {"level": level, **landmarks.to_dict()})


def load_landmarks(path: str) -> tuple[str, LandmarkSet]:
    payload = _read_json(path, "landmark file")
    if not isinstance(payload, dict) or "level" not in payload:
        raise ValueError(f"landmark file {path} must hold a JSON object with a 'level' key")
    try:
        return payload["level"], LandmarkSet.from_dict(payload)
    except ValueError as e:
        raise ValueError(f"landmark file {path}: {e}") from None


def save_transforms(path: str, levels: list[str], transforms: list[np.ndarray]) -> None:
    """Write per-vertebra transforms: a list of {"level", "matrix"} objects (row-major)."""
    if len(levels) != len(transforms):
        raise ValueError("levels and transforms differ in length")
    payload = [
        {"level": lvl, "matrix": [[float(x) for x in row] for row in np.asarray(T)]}
        for lvl, T in zip(levels, transforms)
    ]
    write_json(path, payload)


def load_transforms(path: str) -> dict[str, np.ndarray]:
    """Level -> 4x4 matrix from a file written by `save_transforms`."""
    payload = _read_json(path, "transforms file")
    if not isinstance(payload, list):
        raise ValueError(f"transforms file {path} must hold a JSON list")
    out = {}
    for i, entry in enumerate(payload):
        try:
            level, matrix = entry["level"], np.asarray(entry["matrix"], dtype=np.float64)
        except (KeyError, TypeError, ValueError):
            matrix = None
        if matrix is None or matrix.shape != (4, 4):
            raise ValueError(f"transforms file {path}: entry {i} must be an object with "
                             "a 'level' and a 4x4 'matrix' of numbers")
        out[level] = matrix
    return out
