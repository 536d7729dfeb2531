"""Shared test geometry and independent oracles.

The closest-point oracle here deliberately uses a different
formulation (normal-equations solve plus edge clamping) than the
library kernel so the two can check each other. The brute-force scan
uses the library kernel on every triangle, so spatial-index queries
can be compared with it bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import spinerecon.spine as spine_module
from spinerecon.mesh import (
    LABEL_FACET_SUPERIOR_LEFT,
    TriangleMesh,
    _as_points,
    closest_points_on_triangles,
)
from spinerecon.registration import register_spine
from spinerecon.spine import SpineModel
from spinerecon.synthetic import (
    FACET_DROP_MM,
    SpineParams,
    default_vertebra_params,
    generate_spine,
    make_registration_case,
)


def bits(a) -> np.ndarray:
    """The float64 values of a as raw 64-bit patterns, for bit-for-bit comparison."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def count_executors(monkeypatch) -> list[int]:
    """Sizes of the executors `spine.map_levels` builds, appended as they are built."""
    workers = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(spine_module, "ThreadPoolExecutor", Counted)
    return workers


def random_rigid(rng, max_angle_deg=180.0, max_translation=100.0) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = np.radians(rng.uniform(0.0, max_angle_deg))
    T = np.eye(4)
    T[:3, :3] = Rotation.from_rotvec(angle * axis).as_matrix()
    T[:3, 3] = rng.uniform(-max_translation, max_translation, 3)
    return T


def box_mesh(width, depth, height, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Box surface with a center vertex per face (4 triangles per face).

    The symmetric tessellation keeps the vertex covariance exactly
    diagonal, so principal axes are the world axes.
    """
    hx, hy, hz = width / 2.0, depth / 2.0, height / 2.0
    c = np.asarray(center, dtype=np.float64)
    corners = np.array([(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                       dtype=np.float64) * (hx, hy, hz)
    # corner index: 4*(x>0) + 2*(y>0) + (z>0)
    faces = {
        "-x": ((0, 1, 3, 2), (-hx, 0, 0)),
        "+x": ((4, 6, 7, 5), (hx, 0, 0)),
        "-y": ((0, 4, 5, 1), (0, -hy, 0)),
        "+y": ((2, 3, 7, 6), (0, hy, 0)),
        "-z": ((0, 2, 6, 4), (0, 0, -hz)),
        "+z": ((1, 5, 7, 3), (0, 0, hz)),
    }
    verts = [corners]
    tris = []
    for loop, face_center in faces.values():
        center_id = 8 + len(tris) // 4
        verts.append(np.asarray(face_center, dtype=np.float64).reshape(1, 3))
        for k in range(4):
            tris.append((loop[k], loop[(k + 1) % 4], center_id))
    vertices = np.concatenate(verts) + c
    return TriangleMesh(vertices, np.asarray(tris, dtype=np.int64))


def sheet_mesh(width, depth, nx=8, ny=8, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Flat rectangular sheet in the z=const plane, normal +z."""
    cx, cy, cz = center
    xs = cx + np.linspace(-width / 2.0, width / 2.0, nx)
    ys = cy + np.linspace(-depth / 2.0, depth / 2.0, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel(), np.full(nx * ny, float(cz))])
    tris = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            v00 = i * ny + j
            v01 = i * ny + j + 1
            v10 = (i + 1) * ny + j
            v11 = (i + 1) * ny + j + 1
            tris.append((v00, v11, v01))
            tris.append((v00, v10, v11))
    return TriangleMesh(verts, np.asarray(tris, dtype=np.int64))


def ellipse_disk(a, b, edge=2.0, z=0.0, rotate_z_deg=0.0) -> TriangleMesh:
    """Flat elliptical disk in the z-plane; cardinal rim vertices exact.

    rotate_z_deg spins the tessellation about z (the geometry stays the
    same ellipse only for 0/90/180/270; other values just reposition
    vertices away from the cardinal axes, handy for slab edge cases).
    """
    per = np.pi * (3 * (a + b) - np.sqrt((3 * a + b) * (a + 3 * b)))
    count = max(16, 4 * int(np.ceil(per / edge / 4.0)))
    theta = 2 * np.pi * np.arange(count) / count + np.radians(rotate_z_deg)
    cos, sin = np.cos(theta), np.sin(theta)
    if rotate_z_deg == 0.0:
        for j, (c, s) in ((0, (1.0, 0.0)), (count // 4, (0.0, 1.0)),
                          (count // 2, (-1.0, 0.0)), (3 * count // 4, (0.0, -1.0))):
            cos[j], sin[j] = c, s
    rings = max(1, int(np.ceil(min(a, b) / edge)))
    verts = [np.array([[0.0, 0.0, z]])]
    for i in range(1, rings + 1):
        f = i / rings
        verts.append(np.column_stack([f * a * cos, f * b * sin, np.full(count, z)]))
    tris = []
    for j in range(count):
        tris.append((0, 1 + j, 1 + (j + 1) % count))
    for i in range(1, rings):
        base_in = 1 + (i - 1) * count
        base_out = 1 + i * count
        for j in range(count):
            jn = (j + 1) % count
            tris.append((base_in + j, base_out + j, base_out + jn))
            tris.append((base_in + j, base_out + jn, base_in + jn))
    return TriangleMesh(np.concatenate(verts), np.asarray(tris, dtype=np.int64))


def _closest_on_segment(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return a + t * ab


def oracle_closest_point(mesh: TriangleMesh, point) -> tuple[np.ndarray, float]:
    """Independent nearest-point reference: per-triangle QP solve + edge clamping."""
    p = np.asarray(point, dtype=np.float64)
    best_p = None
    best_d = np.inf
    for tri in mesh.triangle_points():
        a, b, c = tri
        e1, e2 = b - a, c - a
        g11, g12, g22 = e1 @ e1, e1 @ e2, e2 @ e2
        det = g11 * g22 - g12 * g12
        candidates = []
        if det > 0:
            r1, r2 = (p - a) @ e1, (p - a) @ e2
            s = (g22 * r1 - g12 * r2) / det
            t = (g11 * r2 - g12 * r1) / det
            if s >= 0 and t >= 0 and s + t <= 1:
                candidates.append(a + s * e1 + t * e2)
        candidates.append(_closest_on_segment(p, a, b))
        candidates.append(_closest_on_segment(p, b, c))
        candidates.append(_closest_on_segment(p, c, a))
        for q in candidates:
            d = float(np.linalg.norm(q - p))
            if d < best_d:
                best_d = d
                best_p = q
    return best_p, best_d


def closest_point_brute_force(mesh: TriangleMesh, points) -> tuple[np.ndarray, np.ndarray]:
    """Reference nearest-point query scanning every triangle.

    Returns (closest_points (q, 3), distances (q,)). Ties resolve to the
    smallest triangle index.
    """
    pts = _as_points(points)
    tri = mesh.triangle_points()
    out_p = np.empty_like(pts)
    out_d = np.empty(len(pts))
    for qi, p in enumerate(pts):
        cand = closest_points_on_triangles(tri, np.broadcast_to(p, (len(tri), 3)))
        d = np.linalg.norm(cand - p, axis=1)
        best = int(np.argmin(d))
        out_p[qi] = cand[best]
        out_d[qi] = d[best]
    return out_p, out_d


def expected_facet_gap(params: SpineParams, pair_index: int) -> float:
    """Analytic stacked facet gap for a straight (zero-angle) stack."""
    upper = params.vertebrae[pair_index]
    return params.ivd_heights[pair_index] - FACET_DROP_MM - upper.facet_gap_offset


def fsu_with_gap(gap_mm: float, ivd: float = 5.0, levels: int = 2):
    """Straight stack whose facet gaps all equal gap_mm by construction."""
    offset = ivd - FACET_DROP_MM - gap_mm
    params = SpineParams(
        vertebrae=tuple(default_vertebra_params(f"L{i}", facet_gap_offset=offset)
                        for i in range(1, levels)) + (default_vertebra_params(f"L{levels}"),),
        ivd_heights=(ivd,) * (levels - 1),
        fsu_angles=(0.0,) * (levels - 1),
    )
    for i in range(levels - 1):
        assert abs(expected_facet_gap(params, i) - gap_mm) < 1e-9
    return generate_spine(params)[0]


def readme_case():
    """The README quick start's registered spine (seed-1 spine; 6 deg, 6 mm, scales 0.95-1.1, seed 7)."""
    spine, _ = generate_spine(SpineParams(seed=1))
    targets, _, _ = make_registration_case(
        spine, rotation_deg=6, translation_mm=6, scale_range=(0.95, 1.1), seed=7)
    return register_spine(spine, targets, mode="ours").spine


def spine_with_unmeshed_facet() -> SpineModel:
    """The seed-1 spine with L2's superior-left facet label on every other patch vertex only.

    The label stays on five of the nine patch vertices, and no triangle
    has all three corners labeled.
    """
    spine, _ = generate_spine(SpineParams(seed=1))
    mesh = spine[1].mesh
    labels = mesh.labels.copy()
    labels[np.flatnonzero(labels == LABEL_FACET_SUPERIOR_LEFT)[1::2]] = 0
    assert not np.all(labels[mesh.triangles] == LABEL_FACET_SUPERIOR_LEFT, axis=1).any()
    broken = spine[1].with_(mesh=TriangleMesh(mesh.vertices, mesh.triangles, labels))
    return SpineModel((spine[0], broken, *spine.vertebrae[2:]))


def rotation_angle_deg(r: np.ndarray) -> float:
    return float(np.degrees(np.arccos(np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0))))


def points_on_edges(vertices, triangles, rng, n):
    tri = vertices[triangles[rng.integers(0, len(triangles), n)]]
    k = rng.integers(0, 3, n)
    start, end = tri[np.arange(n), k], tri[np.arange(n), (k + 1) % 3]
    t = np.where(rng.random(n) < 0.5, 0.5, rng.random(n))
    return start + t[:, None] * (end - start)


@st.composite
def mixed_meshes(draw):
    """Shared-vertex meshes of small and large triangles plus zero-area slivers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pool = draw(st.integers(6, 40))
    verts = rng.uniform(-10.0, 10.0, (n_pool, 3))
    if draw(st.booleans()):
        # a coarse grid gives axis-aligned faces and exact distance ties
        verts = np.round(verts * 0.5) * 2.0
        verts = np.unique(verts, axis=0)
        n_pool = len(verts)
    gap = np.linalg.norm(verts[:, None] - verts[None], axis=2)
    tris = [np.argsort(gap[i])[:3] for i in rng.integers(0, n_pool, draw(st.integers(1, 30)))]
    tris += [rng.choice(n_pool, 3, replace=False) for _ in range(draw(st.integers(0, 6)))]
    extra = []
    for _ in range(draw(st.integers(0, 6))):
        i, j, _k = tris[rng.integers(0, len(tris))]
        new = n_pool + len(extra)
        if rng.random() < 0.5:
            extra.append(0.5 * (verts[i] + verts[j]))  # collinear corners
        else:
            extra.append(verts[i])  # coincident corners
        tris.append(np.array([i, j, new]))
    verts = np.vstack([verts, *extra]) if extra else verts
    return TriangleMesh(verts, np.array(tris)), rng
