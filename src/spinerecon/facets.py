"""Facet-joint spacing: gap measurement and elastic adjustment.

After registration the articular processes of adjacent vertebrae can
interpenetrate or gape. Each facet pair (inferior facet of the upper
vertebra against the superior facet of the lower one) is measured and
both sides are warped toward the configured joint-space width with a
smooth Gaussian falloff, splitting the correction equally between the
two surfaces.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .mesh import (
    LABEL_FACET_INFERIOR_LEFT,
    LABEL_FACET_INFERIOR_RIGHT,
    LABEL_FACET_SUPERIOR_LEFT,
    LABEL_FACET_SUPERIOR_RIGHT,
    SurfaceIndex,
    TriangleMesh,
    center_of_mass,
)
from .spine import SpineModel, pair_name

logger = logging.getLogger(__name__)

_SIDE_LABELS = {
    "left": (LABEL_FACET_INFERIOR_LEFT, LABEL_FACET_SUPERIOR_LEFT),
    "right": (LABEL_FACET_INFERIOR_RIGHT, LABEL_FACET_SUPERIOR_RIGHT),
}


@dataclass(frozen=True)
class FacetPair:
    """Facing facet regions of two adjacent vertebrae.

    upper_region indexes vertices on the inferior facet of the upper
    vertebra, lower_region vertices on the superior facet of the lower
    one. contact_normal points along the region-centroid axis, oriented
    from the lower vertebra toward the upper one so that
    interpenetration measures negative.
    """

    upper_region: np.ndarray
    lower_region: np.ndarray
    side: str
    contact_normal: np.ndarray

    def __post_init__(self):
        up = np.asarray(self.upper_region, dtype=np.int64)
        lo = np.asarray(self.lower_region, dtype=np.int64)
        if len(up) == 0 or len(lo) == 0:
            raise ValueError("facet regions must be nonempty")
        n = np.asarray(self.contact_normal, dtype=np.float64).reshape(3)
        n = n / np.linalg.norm(n)
        for a in (up, lo, n):
            a.flags.writeable = False
        object.__setattr__(self, "upper_region", up)
        object.__setattr__(self, "lower_region", lo)
        object.__setattr__(self, "contact_normal", n)


@dataclass(frozen=True)
class GapReport:
    """Signed joint-space statistics; negative gaps mean interpenetration."""

    mean_gap: float
    min_gap: float
    max_gap: float
    sample_count: int

    def __post_init__(self):
        if not self.min_gap <= self.mean_gap <= self.max_gap:
            raise ValueError("gap report violates min <= mean <= max")

    def to_dict(self) -> dict:
        return {
            "mean_gap_mm": self.mean_gap,
            "min_gap_mm": self.min_gap,
            "max_gap_mm": self.max_gap,
            "sample_count": self.sample_count,
        }


def identify_facet_pairs(upper: TriangleMesh, lower: TriangleMesh) -> list[FacetPair]:
    """Facet pairs between two adjacent vertebrae, one per labeled side."""
    if upper.labels is None or lower.labels is None:
        raise ValueError(
            "facet alignment needs per-vertex region labels on both meshes; "
            "use labeled atlas meshes"
        )
    axis_hint = center_of_mass(upper) - center_of_mass(lower)
    pairs = []
    for side, (upper_label, lower_label) in _SIDE_LABELS.items():
        up_idx = np.nonzero(upper.labels == upper_label)[0]
        lo_idx = np.nonzero(lower.labels == lower_label)[0]
        if len(up_idx) == 0 or len(lo_idx) == 0:
            continue
        raw = upper.vertices[up_idx].mean(axis=0) - lower.vertices[lo_idx].mean(axis=0)
        # centroid axis flips under interpenetration; anchor the sign to
        # the inter-vertebra direction
        if np.linalg.norm(raw) < 1e-9:
            raw = axis_hint
        elif raw @ axis_hint < 0:
            raw = -raw
        pairs.append(FacetPair(up_idx, lo_idx, side, raw))
    return pairs


def _region_surface(mesh: TriangleMesh, region: np.ndarray) -> SurfaceIndex:
    member = np.zeros(mesh.n_vertices, dtype=bool)
    member[region] = True
    keep = np.nonzero(np.all(member[mesh.triangles], axis=1))[0]
    if len(keep) == 0:
        raise ValueError("facet region has no triangles")
    return SurfaceIndex(mesh.submesh(keep))


def measure_gap(pair: FacetPair, upper: TriangleMesh, lower: TriangleMesh) -> GapReport:
    """Signed distances from upper-region vertices to the lower facet surface."""
    surface = _region_surface(lower, pair.lower_region)
    queries = upper.vertices[pair.upper_region]
    closest, dist = surface.query(queries)
    side = np.sign(np.einsum("ij,j->i", queries - closest, pair.contact_normal))
    signed = dist * np.where(side == 0.0, 1.0, side)
    lo, hi = float(signed.min()), float(signed.max())
    # the float mean of equal values can round past them
    return GapReport(mean_gap=min(max(float(signed.mean()), lo), hi),
                     min_gap=lo, max_gap=hi, sample_count=len(signed))


def elastic_warp(mesh: TriangleMesh, region, displacement,
                 falloff_radius: float) -> TriangleMesh:
    """Displace a vertex region, dragging nearby vertices smoothly along.

    Region vertices move by their own displacement. Every other vertex
    moves by the region's mean displacement attenuated by
    exp(-(d / falloff_radius)^2) of its distance d to the nearest
    region vertex, so the warp decays smoothly and is negligible a few
    radii away. Connectivity and labels are unchanged.
    """
    if falloff_radius <= 0:
        raise ValueError("falloff_radius must be positive")
    region = np.asarray(region, dtype=np.int64)
    disp = np.asarray(displacement, dtype=np.float64)
    if disp.ndim == 1:
        disp = np.broadcast_to(disp.reshape(1, 3), (len(region), 3))
    if disp.shape != (len(region), 3):
        raise ValueError(f"displacement shape {disp.shape} does not match region size {len(region)}")
    if not np.all(np.isfinite(disp)):
        raise ValueError("displacements must be finite")

    verts = mesh.vertices.copy()
    others = np.flatnonzero(np.bincount(region, minlength=mesh.n_vertices) == 0)
    if len(others) and len(region):
        d, _ = cKDTree(verts[region]).query(verts[others])
        weight = np.exp(-((d / falloff_radius) ** 2))
        verts[others] += weight[:, None] * disp.mean(axis=0)
    verts[region] += disp
    return TriangleMesh(verts, mesh.triangles, mesh.labels)


def align_facets(spine: SpineModel, target_width: float | dict = 1.5,
                 falloff_radius: float = 5.0, max_passes: int = 5) -> SpineModel:
    """Warp facet pairs of a registered spine to the target joint width.

    target_width is a scalar in millimeters or a per-pair map keyed
    like "L1-L2". Each pass moves both facets of a pair toward or away
    from each other along the contact normal by half the measured
    error; passes repeat until the mean gap is on target and positive,
    or max_passes is reached (then a warning is logged, not raised).
    """
    names = [pair_name(upper_v.level, lower_v.level) for upper_v, lower_v in spine.pairs()]
    widths = target_width if isinstance(target_width, dict) else dict.fromkeys(names, target_width)
    for name in names:
        if name not in widths:
            raise ValueError(f"target_width map is missing pair {name!r}")
        if not 0 < float(widths[name]) < np.inf:
            raise ValueError(f"target_width for {name} must be positive and finite, got {widths[name]}")

    meshes = {v.level: v.mesh for v in spine.vertebrae}
    for (upper_v, lower_v), name in zip(spine.pairs(), names):
        want = float(widths[name])
        pairs = identify_facet_pairs(meshes[upper_v.level], meshes[lower_v.level])
        for pair in pairs:
            for _ in range(max_passes):
                upper_mesh = meshes[upper_v.level]
                lower_mesh = meshes[lower_v.level]
                report = measure_gap(pair, upper_mesh, lower_mesh)
                error = report.mean_gap - want
                if abs(error) <= 0.05 and report.min_gap > 0:
                    break
                shift = 0.5 * error * pair.contact_normal
                meshes[upper_v.level] = elastic_warp(
                    upper_mesh, pair.upper_region, -shift, falloff_radius)
                meshes[lower_v.level] = elastic_warp(
                    lower_mesh, pair.lower_region, shift, falloff_radius)
            else:
                final = measure_gap(pair, meshes[upper_v.level], meshes[lower_v.level])
                logger.warning(
                    "facet pair %s (%s) did not converge in %d passes: %s",
                    name, pair.side, max_passes, final.to_dict(),
                )
    return SpineModel(tuple(
        v.with_(mesh=meshes[v.level]) for v in spine.vertebrae
    ))


def facet_gap_summary(spine: SpineModel) -> dict[str, dict[str, dict]]:
    """Measured gap reports for every labeled facet pair, keyed pair -> side."""
    out: dict[str, dict[str, dict]] = {}
    for upper_v, lower_v in spine.pairs():
        name = pair_name(upper_v.level, lower_v.level)
        try:
            pairs = identify_facet_pairs(upper_v.mesh, lower_v.mesh)
        except ValueError:
            continue
        out[name] = {
            p.side: measure_gap(p, upper_v.mesh, lower_v.mesh).to_dict() for p in pairs
        }
    return out
