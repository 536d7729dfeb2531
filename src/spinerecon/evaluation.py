"""Registration metrics: point-to-model distance, landmark MAE, morphometrics.

Morphometric conventions (the measurements are defined on landmark
sets, so they can be evaluated identically for detected, registered,
and ground-truth landmarks):

* body width/depth/height are the frame basis magnitudes;
* disc height is measured between the facing plate centroids along
  the mean longitudinal axis of the two vertebrae;
* the segmental (functional-unit) angle is the signed angle between
  the facing endplate lines projected onto the sagittal plane,
  positive when the joint opens anteriorly (lordotic).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .anatomy import LandmarkSet, VertebraFrame, compute_frame
from .mesh import LABEL_VERTEBRAL_BODY, SurfaceIndex, TriangleMesh
from .spine import SpineModel, pair_name, write_json

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("mode", "level", "p2m_vb_mm", "p2m_full_mm", "landmark_mae_mm",
               "width_mae_mm", "depth_mae_mm", "height_mae_mm", "ivd_mae_mm",
               "fsu_mae_deg", "time_s")


def point_to_model_distance(source: TriangleMesh, target_index: SurfaceIndex,
                            vertex_mask=None) -> float:
    """Mean distance from source vertices to the nearest target surface point."""
    verts = source.vertices
    if vertex_mask is not None:
        verts = verts[vertex_mask]
    if len(verts) == 0:
        raise ValueError("no source vertices to measure")
    _, dist = target_index.query(verts)
    return float(dist.mean())


def landmark_mae(registered: LandmarkSet, ground_truth: LandmarkSet) -> float:
    """Mean Euclidean distance over the eight label-matched landmark pairs."""
    return float(np.linalg.norm(registered.points() - ground_truth.points(), axis=1).mean())


def vb_dimensions(frame: VertebraFrame) -> tuple[float, float, float]:
    """(width, depth, height) of the vertebral body: the frame magnitudes."""
    w, d, h = frame.scales
    return float(w), float(d), float(h)


def ivd_height(upper: LandmarkSet, lower: LandmarkSet, axis) -> float:
    """Disc height between the facing plate centroids, projected on `axis`.

    `upper` is the superior vertebra of the pair; `axis` must point
    inferior-to-superior (typically the mean of the two normalized
    longitudinal basis vectors). A non-positive value is returned with
    a warning: it indicates interpenetrating segmentations.
    """
    axis = np.asarray(axis, dtype=np.float64).reshape(3)
    axis = axis / np.linalg.norm(axis)
    gap = upper.inferior_points().mean(axis=0) - lower.superior_points().mean(axis=0)
    value = float(gap @ axis)
    if value <= 0:
        logger.warning("non-positive disc height %.3f mm (interpenetrating plates?)", value)
    return value


def fsu_angle(upper: LandmarkSet, lower: LandmarkSet, sagittal_normal) -> float:
    """Signed sagittal angle of a functional spinal unit, in degrees.

    The angle between the upper vertebra's inferior endplate line
    (l7 -> l8) and the lower vertebra's superior endplate line
    (l5 -> l6), both projected onto the plane orthogonal to
    sagittal_normal (the mean lateral axis). Positive angles open
    anteriorly (lordotic).
    """
    n = np.asarray(sagittal_normal, dtype=np.float64).reshape(3)
    n = n / np.linalg.norm(n)
    u = upper.l8 - upper.l7
    w = lower.l6 - lower.l5
    u = u - (u @ n) * n
    w = w - (w @ n) * n
    if np.linalg.norm(u) < 1e-9 or np.linalg.norm(w) < 1e-9:
        raise ValueError("endplate line is degenerate after sagittal projection")
    return float(np.degrees(np.arctan2(np.cross(w, u) @ n, w @ u)))


@dataclass(frozen=True)
class MorphometricRecord:
    """Per-vertebra body dimensions and per-pair disc height / unit angle."""

    levels: tuple[str, ...]
    vb_width: dict[str, float]
    vb_depth: dict[str, float]
    vb_height: dict[str, float]
    ivd_height: dict[str, float]
    fsu_angle: dict[str, float]

    def __post_init__(self):
        for name in ("vb_width", "vb_depth", "vb_height", "ivd_height"):
            if any(v <= 0 for v in getattr(self, name).values()):
                raise ValueError(f"{name} values must be positive")
        if any(not -90.0 < v < 90.0 for v in self.fsu_angle.values()):
            raise ValueError("fsu angles must lie in (-90, 90) degrees")

    def pair_names(self) -> list[str]:
        return [pair_name(a, b) for a, b in zip(self.levels[:-1], self.levels[1:])]

    def to_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "vb_width_mm": self.vb_width,
            "vb_depth_mm": self.vb_depth,
            "vb_height_mm": self.vb_height,
            "ivd_height_mm": self.ivd_height,
            "fsu_angle_deg": self.fsu_angle,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MorphometricRecord":
        return cls(
            levels=tuple(d["levels"]),
            vb_width=dict(d["vb_width_mm"]),
            vb_depth=dict(d["vb_depth_mm"]),
            vb_height=dict(d["vb_height_mm"]),
            ivd_height=dict(d["ivd_height_mm"]),
            fsu_angle=dict(d["fsu_angle_deg"]),
        )


def _measure_raw(levels, landmark_sets) -> dict[str, dict[str, float]]:
    """Unvalidated measurement tables; a bad registration may yield
    non-positive disc heights (the measurement still carries meaning
    for error reporting)."""
    levels = list(levels)
    sets = list(landmark_sets)
    if len(levels) != len(sets):
        raise ValueError("levels and landmark sets differ in length")
    frames = [compute_frame(lms) for lms in sets]
    width, depth, height = {}, {}, {}
    for level, frame in zip(levels, frames):
        width[level], depth[level], height[level] = vb_dimensions(frame)
    ivd, fsu = {}, {}
    for i in range(len(levels) - 1):
        upper, lower = sets[i], sets[i + 1]
        fu, fl = frames[i], frames[i + 1]
        axis = fu.z_g / np.linalg.norm(fu.z_g) + fl.z_g / np.linalg.norm(fl.z_g)
        lateral = fu.x_g / np.linalg.norm(fu.x_g) + fl.x_g / np.linalg.norm(fl.x_g)
        name = pair_name(levels[i], levels[i + 1])
        ivd[name] = ivd_height(upper, lower, axis)
        fsu[name] = fsu_angle(upper, lower, lateral)
    return {"levels": levels, "width": width, "depth": depth, "height": height,
            "ivd": ivd, "fsu": fsu}


def measure_morphometrics(levels, landmark_sets) -> MorphometricRecord:
    """All morphometric measurements from one landmark set per level."""
    raw = _measure_raw(levels, landmark_sets)
    return MorphometricRecord(tuple(raw["levels"]), raw["width"], raw["depth"],
                              raw["height"], raw["ivd"], raw["fsu"])


@dataclass(frozen=True)
class RegistrationReport:
    """Table-style comparison record for one registration mode."""

    mode: str
    levels: tuple[str, ...]
    p2m_vb: dict[str, float]
    p2m_full: dict[str, float]
    landmark_mae_per_level: dict[str, float] | None = None
    width_mae: float | None = None
    depth_mae: float | None = None
    height_mae: float | None = None
    ivd_mae: float | None = None
    fsu_mae: float | None = None
    elapsed_s: float | None = None

    @property
    def p2m_vb_mean(self) -> float:
        return float(np.mean([self.p2m_vb[l] for l in self.levels]))

    @property
    def p2m_full_mean(self) -> float:
        return float(np.mean([self.p2m_full[l] for l in self.levels]))

    @property
    def landmark_mae_mean(self) -> float | None:
        if self.landmark_mae_per_level is None:
            return None
        return float(np.mean([self.landmark_mae_per_level[l] for l in self.levels]))

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "levels": list(self.levels),
            "p2m_vb_mm": self.p2m_vb,
            "p2m_full_mm": self.p2m_full,
            "p2m_vb_mean_mm": self.p2m_vb_mean,
            "p2m_full_mean_mm": self.p2m_full_mean,
            "landmark_mae_mm": self.landmark_mae_per_level,
            "landmark_mae_mean_mm": self.landmark_mae_mean,
            "width_mae_mm": self.width_mae,
            "depth_mae_mm": self.depth_mae,
            "height_mae_mm": self.height_mae,
            "ivd_mae_mm": self.ivd_mae,
            "fsu_mae_deg": self.fsu_mae,
            "time_s": self.elapsed_s,
        }


def evaluate_reconstruction(registered: SpineModel, ground_truth: SpineModel,
                            gt_landmarks=None, mode: str = "ours",
                            elapsed_s: float | None = None) -> RegistrationReport:
    """Compare a registered spine against complete ground-truth vertebrae.

    Point-to-model distance is reported twice per level, over the whole
    vertebra and restricted to vertebral-body-labeled source vertices
    (the whole vertebra when no vertex carries the body label); both
    means come from one surface query of the registered vertices.
    When ground-truth landmark sets are given (ordered like the
    levels), landmark MAE and morphometric MAEs are filled in from the
    registered spine's mapped landmarks; otherwise those fields stay
    None.
    """
    if registered.levels != ground_truth.levels:
        raise ValueError(
            f"level mismatch: registered {registered.levels} vs ground truth {ground_truth.levels}"
        )
    p2m_vb: dict[str, float] = {}
    p2m_full: dict[str, float] = {}
    for reg_v, gt_v in zip(registered.vertebrae, ground_truth.vertebrae):
        if reg_v.mesh.n_vertices == 0:
            raise ValueError("no source vertices to measure")
        # a point's nearest-surface result does not depend on the rest of
        # its batch, so one query serves both means bit for bit
        _, dist = SurfaceIndex(gt_v.mesh).query(reg_v.mesh.vertices)
        labels = reg_v.mesh.labels
        mask = None if labels is None else labels == LABEL_VERTEBRAL_BODY
        body = dist[mask] if mask is not None and mask.any() else dist
        p2m_full[reg_v.level] = float(dist.mean())
        p2m_vb[reg_v.level] = float(body.mean())

    lmk_mae = None
    width_mae = depth_mae = height_mae = ivd_mae = fsu_mae = None
    if gt_landmarks is not None:
        gt_sets = list(gt_landmarks)
        if len(gt_sets) != len(registered):
            raise ValueError("ground-truth landmark count does not match level count")
        reg_sets = [v.landmarks for v in registered.vertebrae]
        if any(s is None for s in reg_sets):
            raise ValueError("registered spine lacks landmarks; register before evaluating")
        lmk_mae = {
            v.level: landmark_mae(reg, gt)
            for v, reg, gt in zip(registered.vertebrae, reg_sets, gt_sets)
        }
        # raw tables: a misregistered baseline may measure a negative
        # disc height (warned), which still contributes to its error
        reg_raw = _measure_raw(registered.levels, reg_sets)
        gt_raw = _measure_raw(registered.levels, gt_sets)

        def mae(key: str) -> float:
            a, b = reg_raw[key], gt_raw[key]
            return float(np.mean([abs(a[k] - b[k]) for k in a]))

        width_mae = mae("width")
        depth_mae = mae("depth")
        height_mae = mae("height")
        ivd_mae = mae("ivd")
        fsu_mae = mae("fsu")

    return RegistrationReport(
        mode=mode,
        levels=tuple(registered.levels),
        p2m_vb=p2m_vb,
        p2m_full=p2m_full,
        landmark_mae_per_level=lmk_mae,
        width_mae=width_mae,
        depth_mae=depth_mae,
        height_mae=height_mae,
        ivd_mae=ivd_mae,
        fsu_mae=fsu_mae,
        elapsed_s=elapsed_s,
    )


def write_report_json(report: RegistrationReport, path: str, extras: dict | None = None) -> None:
    payload = report.to_dict()
    if extras:
        payload.update(extras)
    write_json(path, payload)


def write_report_csv(reports, path: str) -> None:
    """One row per mode and level plus a mean row per mode."""
    def fmt(x):
        return "" if x is None else f"{x:.6g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            for level in report.levels:
                lmk = (report.landmark_mae_per_level or {}).get(level)
                writer.writerow([
                    report.mode, level,
                    fmt(report.p2m_vb[level]), fmt(report.p2m_full[level]),
                    fmt(lmk), "", "", "", "", "", "",
                ])
            writer.writerow([
                report.mode, "mean",
                fmt(report.p2m_vb_mean), fmt(report.p2m_full_mean),
                fmt(report.landmark_mae_mean),
                fmt(report.width_mae), fmt(report.depth_mae), fmt(report.height_mae),
                fmt(report.ivd_mae), fmt(report.fsu_mae), fmt(report.elapsed_s),
            ])
