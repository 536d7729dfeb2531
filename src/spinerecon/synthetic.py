"""Parametric labeled vertebra and spine generators with analytic ground truth.

The vertebral body is an elliptical cylinder (optionally with a wedge
between its endplates), so landmark positions, plate normals, and all
morphometric quantities are known exactly. Posterior elements are
deliberately schematic: pedicle and spinous bars plus four planar,
pairwise-parallel facet patches whose joint gaps are analytic. That is
enough to exercise every pipeline stage without any proprietary
anatomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .anatomy import AxesEstimate, LandmarkSet, PATIENT_AXES
from .evaluation import MorphometricRecord
from .mesh import (
    LABEL_FACET_INFERIOR_LEFT,
    LABEL_FACET_INFERIOR_RIGHT,
    LABEL_FACET_SUPERIOR_LEFT,
    LABEL_FACET_SUPERIOR_RIGHT,
    LABEL_UNLABELED,
    LABEL_VERTEBRAL_BODY,
    TriangleMesh,
    submesh_by_label,
    transform_mesh,
)
from .spine import SpineModel, Vertebra, pair_name

# Posterior-element layout (mm). The facet patches sit on a fixed
# posterior column (so stacked patches align level to level) far enough
# behind the body that a default 5 mm warp falloff cannot measurably
# move body-labeled vertices (> 5 radii away).
POSTERIOR_OFFSET_MM = 30.0
FACET_Y_MM = -55.0
FACET_DROP_MM = 3.0
FACET_X_OFFSET_MM = 12.0
FACET_PATCH_HALF_MM = 4.0


@dataclass(frozen=True)
class VertebraParams:
    vb_width: float = 46.0
    vb_depth: float = 32.0
    vb_height: float = 28.0
    endplate_tilt_deg: float = 0.0
    tessellation_edge: float = 2.0
    with_posterior: bool = True
    facet_gap_offset: float = 0.0
    level: str = "L3"

    def __post_init__(self):
        if min(self.vb_width, self.vb_depth, self.vb_height) <= 0:
            raise ValueError("body dimensions must be positive")
        if abs(self.endplate_tilt_deg) >= 30.0:
            raise ValueError("endplate tilt must stay below 30 degrees")
        if self.tessellation_edge <= 0:
            raise ValueError("tessellation edge must be positive")
        if self.tessellation_edge >= min(self.vb_width, self.vb_depth, self.vb_height) / 4.0:
            raise ValueError("tessellation edge must be below a quarter of the smallest dimension")


_DEFAULT_DIMS = {
    "L1": (42.0, 30.0, 26.0),
    "L2": (44.0, 31.0, 27.0),
    "L3": (46.0, 32.0, 28.0),
    "L4": (48.0, 33.0, 28.5),
    "L5": (50.0, 34.0, 27.5),
}


def default_vertebra_params(level: str, **overrides) -> VertebraParams:
    w, d, h = _DEFAULT_DIMS[level]
    kwargs = dict(vb_width=w, vb_depth=d, vb_height=h, level=level)
    kwargs.update(overrides)
    return VertebraParams(**kwargs)


@dataclass(frozen=True)
class SpineParams:
    vertebrae: tuple[VertebraParams, ...] = field(
        default_factory=lambda: tuple(default_vertebra_params(l) for l in _DEFAULT_DIMS))
    ivd_heights: tuple[float, ...] = (5.0, 5.5, 6.0, 6.5)
    fsu_angles: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0)
    seed: int | None = None

    def __post_init__(self):
        n = len(self.vertebrae)
        if n < 2:
            raise ValueError("a spine needs at least 2 vertebrae")
        if len(self.ivd_heights) != n - 1 or len(self.fsu_angles) != n - 1:
            raise ValueError("ivd_heights and fsu_angles need one value per adjacent pair")
        if any(v <= 0 for v in self.ivd_heights):
            raise ValueError("disc heights must be positive")
        if any(not -90.0 < v < 90.0 for v in self.fsu_angles):
            raise ValueError("fsu angles must lie in (-90, 90) degrees")


def _ellipse_ring(a: float, b: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    theta = 2.0 * np.pi * np.arange(count) / count
    cos = np.cos(theta)
    sin = np.sin(theta)
    # exact cardinal points so the analytic landmarks are mesh vertices
    for j, (c, s) in ((0, (1.0, 0.0)), (count // 4, (0.0, 1.0)),
                      (count // 2, (-1.0, 0.0)), (3 * count // 4, (0.0, -1.0))):
        cos[j], sin[j] = c, s
    return a * cos, b * sin


def _body_mesh(params: VertebraParams) -> TriangleMesh:
    a = params.vb_width / 2.0
    b = params.vb_depth / 2.0
    h = params.vb_height
    tilt = math.tan(math.radians(params.endplate_tilt_deg) / 2.0)
    edge = params.tessellation_edge

    perimeter = math.pi * (3.0 * (a + b) - math.sqrt((3.0 * a + b) * (a + 3.0 * b)))
    ring_n = max(8, 4 * math.ceil(perimeter / edge / 4.0))
    rows = max(1, math.ceil(h / edge))
    rings = max(1, math.ceil(min(a, b) / edge))

    x, y = _ellipse_ring(a, b, ring_n)
    # cap planes: z = +/-(h/2 + y * tilt); wall rows interpolate between them
    cap = h / 2.0 + y * tilt

    verts = []
    for r in range(rows + 1):
        s = 2.0 * r / rows - 1.0
        verts.append(np.column_stack([x, y, s * cap]))

    def wall(r, j):
        return r * ring_n + (j % ring_n)

    tris = []
    for r in range(rows):
        for j in range(ring_n):
            v00, v01 = wall(r, j), wall(r, j + 1)
            v10, v11 = wall(r + 1, j), wall(r + 1, j + 1)
            tris.append((v00, v01, v11))
            tris.append((v00, v11, v10))

    def add_cap(rim_row: int, z_sign: float, flip: bool):
        start = sum(len(v) for v in verts)
        ring_ids = []
        for i in range(1, rings):
            f = i / rings
            verts.append(np.column_stack([f * x, f * y, z_sign * (h / 2.0 + f * y * tilt)]))
            ring_ids.append(start + (i - 1) * ring_n)
        center_id = start + (rings - 1) * ring_n
        verts.append(np.array([[0.0, 0.0, z_sign * h / 2.0]]))

        def ring_vertex(i, j):
            if i == 0:
                return center_id
            if i == rings:
                return wall(rim_row, j)
            return ring_ids[i - 1] + (j % ring_n)

        for j in range(ring_n):
            tri = (center_id, ring_vertex(1, j), ring_vertex(1, j + 1))
            tris.append(tri[::-1] if flip else tri)
        for i in range(1, rings):
            for j in range(ring_n):
                t1 = (ring_vertex(i, j), ring_vertex(i + 1, j), ring_vertex(i + 1, j + 1))
                t2 = (ring_vertex(i, j), ring_vertex(i + 1, j + 1), ring_vertex(i, j + 1))
                tris.append(t1[::-1] if flip else t1)
                tris.append(t2[::-1] if flip else t2)

    add_cap(rim_row=rows, z_sign=+1.0, flip=False)
    add_cap(rim_row=0, z_sign=-1.0, flip=True)

    vertices = np.concatenate(verts)
    labels = np.full(len(vertices), LABEL_VERTEBRAL_BODY, dtype=np.int64)
    return TriangleMesh(vertices, np.asarray(tris, dtype=np.int64), labels)


_BOX_TRIS = np.array([
    (0, 1, 3), (0, 3, 2), (4, 6, 7), (4, 7, 5),
    (0, 4, 5), (0, 5, 1), (2, 3, 7), (2, 7, 6),
    (0, 2, 6), (0, 6, 4), (1, 5, 7), (1, 7, 3),
], dtype=np.int64)


def _box_mesh(center, half_sizes, label: int) -> TriangleMesh:
    center = np.asarray(center, dtype=np.float64)
    half = np.asarray(half_sizes, dtype=np.float64)
    signs = np.array([(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                     dtype=np.float64)
    verts = center + signs * half
    labels = np.full(8, label, dtype=np.int64)
    return TriangleMesh(verts, _BOX_TRIS, labels)


def _patch_mesh(center, half_x, half_y, label: int) -> TriangleMesh:
    """Planar horizontal facet patch: a 3x3 vertex grid of 8 triangles."""
    cx, cy, cz = center
    xs = cx + np.linspace(-half_x, half_x, 3)
    ys = cy + np.linspace(-half_y, half_y, 3)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel(), np.full(9, cz)])
    tris = []
    for i in range(2):
        for j in range(2):
            v00 = i * 3 + j
            v01 = i * 3 + j + 1
            v10 = (i + 1) * 3 + j
            v11 = (i + 1) * 3 + j + 1
            tris.append((v00, v11, v01))
            tris.append((v00, v10, v11))
    labels = np.full(9, label, dtype=np.int64)
    return TriangleMesh(verts, np.asarray(tris, dtype=np.int64), labels)


def _merge(meshes: list[TriangleMesh]) -> TriangleMesh:
    verts = []
    tris = []
    labels = []
    offset = 0
    for m in meshes:
        verts.append(m.vertices)
        tris.append(m.triangles + offset)
        labels.append(m.labels if m.labels is not None
                      else np.full(m.n_vertices, LABEL_UNLABELED, dtype=np.int64))
        offset += m.n_vertices
    return TriangleMesh(np.concatenate(verts), np.concatenate(tris), np.concatenate(labels))


def generate_vertebra(params: VertebraParams) -> tuple[TriangleMesh, LandmarkSet, AxesEstimate]:
    """Labeled vertebra mesh with exact landmark and axes ground truth."""
    a = params.vb_width / 2.0
    b = params.vb_depth / 2.0
    h = params.vb_height
    t = math.tan(math.radians(params.endplate_tilt_deg) / 2.0)

    parts = [_body_mesh(params)]
    if params.with_posterior:
        y_f = FACET_Y_MM
        z_sup = h / 2.0
        z_inf = -h / 2.0 - FACET_DROP_MM - params.facet_gap_offset
        bar_half = (abs(y_f) - b) / 2.0
        for x_sign, sup_label, inf_label in (
            (-1.0, LABEL_FACET_SUPERIOR_LEFT, LABEL_FACET_INFERIOR_LEFT),
            (+1.0, LABEL_FACET_SUPERIOR_RIGHT, LABEL_FACET_INFERIOR_RIGHT),
        ):
            x_c = x_sign * FACET_X_OFFSET_MM
            parts.append(_patch_mesh((x_c, y_f, z_sup), FACET_PATCH_HALF_MM,
                                     FACET_PATCH_HALF_MM, sup_label))
            parts.append(_patch_mesh((x_c, y_f, z_inf), FACET_PATCH_HALF_MM,
                                     FACET_PATCH_HALF_MM, inf_label))
            parts.append(_box_mesh((x_c, -b - bar_half, 0.0),
                                   (2.0, bar_half, h / 4.0), LABEL_UNLABELED))
        parts.append(_box_mesh((0.0, y_f - 8.0, 0.0), (2.0, 8.0, h / 6.0), LABEL_UNLABELED))

    mesh = _merge(parts) if len(parts) > 1 else parts[0]
    landmarks = LandmarkSet(
        l1=np.array([-a, 0.0, h / 2.0]),
        l2=np.array([a, 0.0, h / 2.0]),
        l3=np.array([-a, 0.0, -h / 2.0]),
        l4=np.array([a, 0.0, -h / 2.0]),
        l5=np.array([0.0, -b, h / 2.0 - b * t]),
        l6=np.array([0.0, b, h / 2.0 + b * t]),
        l7=np.array([0.0, -b, -h / 2.0 + b * t]),
        l8=np.array([0.0, b, -h / 2.0 - b * t]),
    )
    return mesh, landmarks, PATIENT_AXES


def _rot_x(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rotvec_matrix(rotvec: np.ndarray) -> np.ndarray:
    """Rotation matrix of a rotation vector (axis times angle in radians)."""
    # imported here, so that importing the package loads no SciPy
    from scipy.spatial.transform import Rotation

    return Rotation.from_rotvec(rotvec).as_matrix()


def _rigid(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = rotation
    out[:3, 3] = translation
    return out


def generate_spine(params: SpineParams) -> tuple[SpineModel, MorphometricRecord]:
    """Stack vertebrae along a lordotic chain with exact disc heights and unit angles.

    The relative pitch between adjacent vertebrae is chosen so that the
    measured functional-unit angle equals fsu_angles exactly (endplate
    wedges included), and centers are spaced so the measured disc
    height equals ivd_heights exactly. Deterministic per seed; the seed
    only drives a small global pose perturbation (none when seed is
    None).
    """
    local = [generate_vertebra(p) for p in params.vertebrae]
    n = len(local)

    orientations = [np.eye(3)]
    for i in range(n - 1):
        pitch = math.radians(params.fsu_angles[i]) + 0.5 * (
            math.radians(params.vertebrae[i].endplate_tilt_deg)
            + math.radians(params.vertebrae[i + 1].endplate_tilt_deg))
        orientations.append(orientations[-1] @ _rot_x(-pitch))

    centers = [np.zeros(3)]
    for i in range(n - 1):
        z_u = orientations[i][:, 2]
        z_l = orientations[i + 1][:, 2]
        axis = (z_u + z_l) / np.linalg.norm(z_u + z_l)
        h_u = params.vertebrae[i].vb_height
        h_l = params.vertebrae[i + 1].vb_height
        centers.append(centers[i] - (h_u / 2.0) * z_u
                       - params.ivd_heights[i] * axis - (h_l / 2.0) * z_l)

    pose = np.eye(4)
    if params.seed is not None:
        rng = np.random.default_rng(params.seed)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, math.radians(8.0))
        pose = _rigid(_rotvec_matrix(angle * axis), rng.uniform(-15.0, 15.0, 3))

    vertebrae = []
    for i, (p, (mesh, lms, axes)) in enumerate(zip(params.vertebrae, local)):
        placement = pose @ _rigid(orientations[i], centers[i])
        vertebrae.append(Vertebra(
            level=p.level,
            mesh=transform_mesh(mesh, placement),
            landmarks=lms.transformed(placement),
            axes=axes.rotated(placement[:3, :3]),
        ))
    spine = SpineModel(tuple(vertebrae))

    levels = [p.level for p in params.vertebrae]
    record = MorphometricRecord(
        levels=tuple(levels),
        vb_width={p.level: p.vb_width for p in params.vertebrae},
        vb_depth={p.level: p.vb_depth for p in params.vertebrae},
        vb_height={p.level: p.vb_height for p in params.vertebrae},
        ivd_height={pair_name(levels[i], levels[i + 1]): params.ivd_heights[i]
                    for i in range(n - 1)},
        fsu_angle={pair_name(levels[i], levels[i + 1]): params.fsu_angles[i]
                   for i in range(n - 1)},
    )
    return spine, record


def make_registration_case(spine: SpineModel, *, rotation_deg: float = 0.0,
                           translation_mm: float = 0.0,
                           scale_range: tuple[float, float] = (1.0, 1.0),
                           noise_sd: float = 0.0,
                           seed: int = 0) -> tuple[SpineModel, SpineModel, list[np.ndarray]]:
    """Perturbed registration case: body-only targets, ground truth, true transforms.

    Each level gets an independent affine of the family the landmark
    registration represents exactly: anisotropic scaling along the
    vertebra's own axes about its landmark centroid, then a rotation of
    at most rotation_deg, then a translation of at most translation_mm.
    Optional Gaussian jitter of noise_sd is added to target vertices.
    The ground truth is each complete vertebra and its landmarks under
    its affine, unjittered; its axes are the input axes rotated.
    """
    lo, hi = scale_range
    if not 0 < lo <= hi:
        raise ValueError("scale_range must satisfy 0 < lo <= hi")
    rng = np.random.default_rng(seed)

    targets = []
    truth = []
    true_transforms = []
    for vertebra in spine.vertebrae:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = math.radians(rng.uniform(0.0, rotation_deg))
        r3 = _rotvec_matrix(angle * axis)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        translation = rng.uniform(0.0, translation_mm) * direction
        scales = rng.uniform(lo, hi, 3)

        if vertebra.axes is None or vertebra.landmarks is None:
            raise ValueError(f"{vertebra.level}: spine lacks ground-truth axes/landmarks")
        f = vertebra.axes.as_matrix()
        c = vertebra.frame.c_g
        linear = r3 @ (f @ np.diag(scales) @ f.T)
        affine = np.eye(4)
        affine[:3, :3] = linear
        affine[:3, 3] = r3 @ c - linear @ c + translation

        body = submesh_by_label(vertebra.mesh, LABEL_VERTEBRAL_BODY) \
            if vertebra.mesh.labels is not None else vertebra.mesh
        moved = transform_mesh(body, affine)
        if noise_sd > 0:
            jitter = rng.normal(0.0, noise_sd, moved.vertices.shape)
            moved = TriangleMesh(moved.vertices + jitter, moved.triangles, moved.labels)
        targets.append(Vertebra(level=vertebra.level, mesh=moved))
        truth.append(vertebra.with_(mesh=transform_mesh(vertebra.mesh, affine),
                                    landmarks=vertebra.landmarks.transformed(affine),
                                    axes=vertebra.axes.rotated(r3)))
        true_transforms.append(affine)
    return SpineModel(tuple(targets)), SpineModel(tuple(truth)), true_transforms
