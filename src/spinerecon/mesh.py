"""Triangle-mesh core: geometry type, spatial queries, and transforms.

All coordinates are in millimeters. Meshes are immutable after
construction; every operation returns a new mesh.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _graph_components
from scipy.spatial import cKDTree

# Per-vertex region labels.
LABEL_UNLABELED = 0
LABEL_VERTEBRAL_BODY = 1
LABEL_FACET_SUPERIOR_LEFT = 2
LABEL_FACET_SUPERIOR_RIGHT = 3
LABEL_FACET_INFERIOR_LEFT = 4
LABEL_FACET_INFERIOR_RIGHT = 5


def _as_points(a, name="points"):
    out = np.asarray(a, dtype=np.float64)
    if out.ndim == 1 and out.size == 3:
        out = out.reshape(1, 3)
    if out.ndim != 2 or out.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {out.shape}")
    return out


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle surface with optional per-vertex region labels.

    Vertex coordinates must be finite. labels, when present, hold one
    integer per vertex: 0 unlabeled, 1 vertebral body, 2-5 facet
    surfaces (superior-left, superior-right, inferior-left,
    inferior-right).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"vertices must have shape (n, 3), got {verts.shape}")
        if not np.isfinite(verts).all():
            bad = int(np.argwhere(~np.isfinite(verts))[0, 0])
            raise ValueError(f"vertex {bad} has a non-finite coordinate")
        if tris.size == 0:
            tris = tris.reshape(0, 3)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError(f"triangles must have shape (m, 3), got {tris.shape}")
        if tris.size:
            if tris.min() < 0 or tris.max() >= len(verts):
                raise ValueError(
                    f"triangle index out of range (vertex count {len(verts)})"
                )
            if np.any(
                (tris[:, 0] == tris[:, 1])
                | (tris[:, 1] == tris[:, 2])
                | (tris[:, 0] == tris[:, 2])
            ):
                raise ValueError("triangle repeats a vertex index")
        labels = self.labels
        if labels is not None:
            labels = np.ascontiguousarray(np.asarray(labels, dtype=np.int64))
            if labels.shape != (len(verts),):
                raise ValueError(
                    f"labels length {labels.shape} does not match vertex count {len(verts)}"
                )
            labels.flags.writeable = False
        verts.flags.writeable = False
        tris.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "labels", labels)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_points(self) -> np.ndarray:
        """Triangle corner coordinates, shape (m, 3, 3)."""
        return self.vertices.take(self.triangles, axis=0)

    @functools.cached_property
    def _face_cross(self) -> np.ndarray:
        """(b - a) x (c - a) per triangle, computed once for normals and areas."""
        a, b, c = (self.vertices.take(k, axis=0) for k in self.triangles.T)
        cross = np.cross(b - a, c - a)
        cross.flags.writeable = False
        return cross

    def submesh(self, triangle_indices) -> "TriangleMesh":
        """Mesh restricted to the given triangles, vertices re-indexed compactly."""
        tri = self.triangles[np.asarray(triangle_indices, dtype=np.int64)]
        used = np.flatnonzero(np.bincount(tri.ravel(), minlength=self.n_vertices))
        remap = np.full(self.n_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        labels = self.labels[used] if self.labels is not None else None
        return TriangleMesh(self.vertices[used], remap[tri], labels)


def submesh_by_label(mesh: TriangleMesh, label: int) -> TriangleMesh:
    """Sub-mesh of triangles whose three vertices all carry `label`."""
    if mesh.labels is None:
        raise ValueError("mesh has no labels")
    keep = np.all(mesh.labels[mesh.triangles] == label, axis=1)
    if not np.any(keep):
        raise ValueError(f"no triangles with all vertices labeled {label}")
    return mesh.submesh(np.nonzero(keep)[0])


def face_normals(mesh: TriangleMesh) -> np.ndarray:
    """Unit outward normals per triangle (counter-clockwise winding).

    Zero-area triangles yield a zero normal, which marks them as
    degenerate; they are never fatal.
    """
    n = mesh._face_cross
    length = np.linalg.norm(n, axis=1)
    safe = np.where(length > 0.0, length, 1.0)
    out = n / safe[:, None]
    out[length == 0.0] = 0.0
    return out


def face_areas(mesh: TriangleMesh) -> np.ndarray:
    return 0.5 * np.linalg.norm(mesh._face_cross, axis=1)


def center_of_mass(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted mean of triangle centroids (surface center of mass)."""
    areas = face_areas(mesh)
    total = areas.sum()
    if total <= 0.0:
        raise ValueError("mesh has no triangles with positive area")
    return (areas[:, None] * _centroids(mesh.triangle_points())).sum(axis=0) / total


def _centroids(tri: np.ndarray) -> np.ndarray:
    # mean(axis=1) over three corners adds a + b, then c, and divides by 3;
    # the same two additions and division give the same bits without the reduction
    return (tri[:, 0] + tri[:, 1] + tri[:, 2]) / 3.0


def median_edge_length(mesh: TriangleMesh) -> float:
    """Median length over the unique undirected edges of the mesh."""
    keys = np.sort(_edge_keys(mesh))
    first, second = np.divmod(keys[np.diff(keys, prepend=-1) != 0], mesh.n_vertices)
    lengths = np.linalg.norm(mesh.vertices[first] - mesh.vertices[second], axis=1)
    return float(np.median(lengths))


def _edge_keys(mesh: TriangleMesh) -> np.ndarray:
    """Key i * n + j (i < j) per edge 0-1, 1-2, 2-0 of each triangle; sorts like (i, j) rows."""
    tri, nxt = mesh.triangles, mesh.triangles[:, [1, 2, 0]]
    return (np.minimum(tri, nxt) * mesh.n_vertices + np.maximum(tri, nxt)).ravel()


def triangle_adjacency(mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) of triangle indices sharing an edge (two vertex indices)."""
    keys = _edge_keys(mesh)
    # a stable sort keeps equal edges in triangle order, as lexsort on (i, j) rows did
    order = np.argsort(keys, kind="stable")
    same = np.diff(keys[order]) == 0
    # consecutive identical edges belong to adjacent triangles; edge k lies on triangle k // 3
    return order[:-1][same] // 3, order[1:][same] // 3


def pair_component_labels(n_triangles: int, i, j) -> tuple[int, np.ndarray]:
    """Component count and a label per triangle of the graph with edges (i[k], j[k])."""
    graph = coo_matrix((np.ones(len(i)), (i, j)), shape=(n_triangles, n_triangles))
    return _graph_components(graph, directed=False)


def triangle_component_labels(mesh: TriangleMesh) -> tuple[int, np.ndarray]:
    """Edge-connected component count and a label per triangle."""
    return pair_component_labels(mesh.n_triangles, *triangle_adjacency(mesh))


def connected_components(mesh: TriangleMesh) -> list[TriangleMesh]:
    """Partition into edge-connected triangle components.

    Two triangles are connected iff they share an edge (two vertex
    indices); sharing a single vertex does not connect them. Components
    are re-indexed compactly and sorted by triangle count descending.
    """
    m = mesh.n_triangles
    if m == 0:
        return []
    n_comp, comp = triangle_component_labels(mesh)
    sizes = np.bincount(comp, minlength=n_comp)
    first_tri = np.full(n_comp, m, dtype=np.int64)
    np.minimum.at(first_tri, comp, np.arange(m))
    comp_order = np.lexsort((first_tri, -sizes))
    return [mesh.submesh(np.nonzero(comp == c)[0]) for c in comp_order]


def _vertex_area_weights(mesh: TriangleMesh) -> np.ndarray:
    # bincount adds the weights of column 0, then 1, then 2, each in row order:
    # the additions of np.add.at once per column, so every sum keeps its bits
    return np.bincount(mesh.triangles.T.ravel(), np.tile(face_areas(mesh) / 3.0, 3), mesh.n_vertices)


def principal_axes(mesh: TriangleMesh) -> np.ndarray:
    """Principal axes of the area-weighted vertex covariance, as the columns of a 3x3.

    Columns are ordered by the mesh's extent along them, largest first,
    and form a right-handed set. Signs are chosen deterministically: the
    right-handed flip combination with the smallest rotation from the
    world axes (maximal trace).
    """
    verts = mesh.vertices
    if len(verts) < 3:
        raise ValueError("need at least 3 vertices for principal axes")
    w = _vertex_area_weights(mesh)
    if w.sum() <= 0.0:
        w = np.ones(len(verts))
    w = w / w.sum()
    mu = w @ verts
    centered = verts - mu
    cov = (centered * w[:, None]).T @ centered
    evals, evecs = np.linalg.eigh(cov)  # ascending eigenvalues
    scale = float(evals[-1])
    if scale <= 0.0:
        raise ValueError("degenerate geometry: all vertices coincident")
    if evals[1] <= 1e-12 * scale:
        raise ValueError("degenerate geometry: vertices are collinear")

    proj = (verts @ evecs).T.copy()  # a contiguous row reduces faster than a column
    extents = 0.5 * (proj.max(axis=1) - proj.min(axis=1))
    order = np.argsort(-extents, kind="stable")
    axes = evecs[:, order]
    if np.linalg.det(axes) < 0:
        axes[:, 2] = -axes[:, 2]
    # deterministic signs: right-handed flip pair with maximal trace
    flips = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    traces = [np.trace(axes * np.array(f)) for f in flips]
    return axes * np.array(flips[int(np.argmax(traces))])


def validate_transform(T) -> np.ndarray:
    """Check a 4x4 homogeneous transform: exact affine bottom row, invertible."""
    T = np.asarray(T, dtype=np.float64)
    if T.shape != (4, 4):
        raise ValueError(f"transform must be 4x4, got {T.shape}")
    if not np.array_equal(T[3], [0.0, 0.0, 0.0, 1.0]):
        raise ValueError("transform bottom row must be (0, 0, 0, 1)")
    if abs(np.linalg.det(T[:3, :3])) <= 1e-12:
        raise ValueError("transform is singular")
    return T


def apply_transform(T, points) -> np.ndarray:
    """Map points (n, 3) through a homogeneous 4x4 transform."""
    T = validate_transform(T)
    pts = _as_points(points)
    return pts @ T[:3, :3].T + T[:3, 3]


def transform_mesh(mesh: TriangleMesh, T) -> TriangleMesh:
    """Apply a homogeneous transform to every vertex; connectivity and labels unchanged."""
    return TriangleMesh(apply_transform(T, mesh.vertices), mesh.triangles, mesh.labels)


def _pair_dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def closest_points_on_triangles(tri: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Exact closest point on triangle i to point i, vectorized over pairs.

    Region classification follows Ericson's ClosestPtPointTriangle: each
    pair is assigned the first Voronoi region whose test it passes, and
    only that region's formula is evaluated on it. Degenerate (zero-area)
    triangles pass no test and are resolved as the closest point over
    their three edges.
    """
    tri = np.asarray(tri, dtype=np.float64).reshape(-1, 3, 3)
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab = b - a
    ac = c - a
    ap = pts - a
    d1 = _pair_dot(ab, ap)
    d2 = _pair_dot(ac, ap)
    bp = pts - b
    d3 = _pair_dot(ab, bp)
    d4 = _pair_dot(ac, bp)
    cp = pts - c
    d5 = _pair_dot(ab, cp)
    d6 = _pair_dot(ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    d43 = d4 - d3
    d56 = d5 - d6
    # Voronoi region of each pair; the first condition that holds wins
    region = np.select(
        [(d1 <= 0.0) & (d2 <= 0.0),
         (d3 >= 0.0) & (d4 <= d3),
         (d6 >= 0.0) & (d5 <= d6),
         (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0) & (d1 - d3 != 0.0),
         (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0) & (d2 - d6 != 0.0),
         (va <= 0.0) & (d43 >= 0.0) & (d56 >= 0.0) & (d43 + d56 != 0.0),
         va + vb + vc != 0.0],
        np.arange(7, dtype=np.int8), default=np.int8(7))

    out = np.empty_like(pts)
    for r, corner in enumerate((a, b, c)):
        rows = np.flatnonzero(region == r)
        out[rows] = corner[rows]

    rows = np.flatnonzero(region == 3)
    v = d1[rows] / (d1[rows] - d3[rows])
    out[rows] = a[rows] + v[:, None] * ab[rows]

    rows = np.flatnonzero(region == 4)
    v = d2[rows] / (d2[rows] - d6[rows])
    out[rows] = a[rows] + v[:, None] * ac[rows]

    rows = np.flatnonzero(region == 5)
    v = d43[rows] / (d43[rows] + d56[rows])
    out[rows] = b[rows] + v[:, None] * (c[rows] - b[rows])

    rows = np.flatnonzero(region == 6)
    den = va[rows] + vb[rows] + vc[rows]
    v = vb[rows] / den
    w = vc[rows] / den
    out[rows] = a[rows] + v[:, None] * ab[rows] + w[:, None] * ac[rows]

    rem = np.flatnonzero(region == 7)
    if len(rem):
        # degenerate triangles: closest point over the three edges
        best_d = np.full(len(rem), np.inf)
        best_p = np.empty((len(rem), 3))
        corners = tri[rem]
        for k0, k1 in ((0, 1), (1, 2), (2, 0)):
            e0, e1 = corners[:, k0], corners[:, k1]
            seg = e1 - e0
            seg_len2 = _pair_dot(seg, seg)
            t = _pair_dot(pts[rem] - e0, seg) / np.where(seg_len2 > 0, seg_len2, 1.0)
            t = np.clip(np.where(seg_len2 > 0, t, 0.0), 0.0, 1.0)
            cand = e0 + t[:, None] * seg
            d = np.linalg.norm(cand - pts[rem], axis=1)
            better = d < best_d
            best_d[better] = d[better]
            best_p[better] = cand[better]
        out[rem] = best_p
    return out


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


class SurfaceIndex:
    """Spatial acceleration structure for exact nearest-point queries.

    Triangles are grouped into two strata by bounding radius (fine
    surface triangles versus coarse ones), each with a k-d tree over
    its centroids and every triangle's axis-aligned box. A query takes
    an exact upper bound U, the distance to the nearest-centroid
    triangle of each stratum, then makes one radius search per stratum
    for centroids within U + max_radius + eps and keeps a triangle only
    if its box lies within U + eps. A triangle at distance D <= U has
    its centroid within D + max_radius and its box within D, so neither
    step drops the nearest triangle or one tied with it (eps absorbs
    round-off). The exact kernel runs on the kept pairs; each query takes
    the least distance, ties to the smallest triangle index, exactly as
    a brute-force scan. Read-only queries are safe from multiple threads.
    """

    _CHUNK = 8192

    def __init__(self, mesh: TriangleMesh):
        if mesh.n_triangles == 0:
            raise ValueError("cannot index a mesh with no triangles")
        self._tri = mesh.triangle_points()
        centroids = _centroids(self._tri)
        a, b, c = self._tri[:, 0], self._tri[:, 1], self._tri[:, 2]
        radii = np.sqrt(np.max([_pair_dot(x - centroids, x - centroids) for x in (a, b, c)], axis=0))
        lo = np.minimum(np.minimum(a, b), c)
        hi = np.maximum(np.maximum(a, b), c)
        # within this reach of a corner, per axis, no square or product the kernel forms overflows
        self._reach = 1e150 / max(1.0, float(hi.max() - lo.min()))
        threshold = 2.0 * float(np.median(radii))
        strata_masks = [radii <= threshold]
        if np.any(~strata_masks[0]):
            strata_masks.append(~strata_masks[0])
        self._strata = []
        for mask in strata_masks:
            ids = np.nonzero(mask)[0]
            self._strata.append({
                "ids": ids,
                "tree": cKDTree(centroids[ids]),
                "lo": lo[ids],
                "hi": hi[ids],
                "max_radius": float(radii[ids].max()),
            })

    def query(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Exact nearest surface points and distances for a batch of queries."""
        pts = _as_points(points)
        near = np.abs(pts - self._tri[0, 0]) <= self._reach  # False for NaN
        if not near.all():
            raise ValueError(f"query point {np.argmin(near.all(axis=1))} is not finite or lies "
                             f"more than {self._reach:.3g} mm from the mesh along an axis")
        out_p = np.empty_like(pts)
        out_d = np.empty(len(pts))
        for start in range(0, len(pts), self._CHUNK):
            chunk = pts[start : start + self._CHUNK]
            p, d = self._query_chunk(chunk)
            out_p[start : start + self._CHUNK] = p
            out_d[start : start + self._CHUNK] = d
        return out_p, out_d

    def _upper_bound(self, pts) -> np.ndarray:
        """Exact distance to the nearest-centroid triangle of each stratum (an upper bound)."""
        upper = np.full(len(pts), np.inf)
        for stratum in self._strata:
            _, near = stratum["tree"].query(pts)
            cand = closest_points_on_triangles(self._tri.take(stratum["ids"][near], axis=0), pts)
            upper = np.minimum(upper, np.linalg.norm(cand - pts, axis=1))
        return upper

    def _query_chunk(self, pts):
        upper = self._upper_bound(pts)
        eps = 1e-9 * (1.0 + upper)
        pair_q: list[np.ndarray] = []
        pair_t: list[np.ndarray] = []
        for stratum in self._strata:
            near = stratum["tree"].query_ball_point(
                pts, upper + stratum["max_radius"] + eps, return_sorted=False)
            counts = np.fromiter(map(len, near), dtype=np.int64, count=len(pts))
            local = np.fromiter(itertools.chain.from_iterable(near),
                                dtype=np.int64, count=int(counts.sum()))
            qi = np.repeat(np.arange(len(pts)), counts)
            p = pts.take(qi, axis=0)  # take gathers rows faster than pts[qi]
            # per-axis gap from the point to the triangle's box, 0 inside it
            gap = np.maximum(stratum["lo"].take(local, axis=0) - p,
                             p - stratum["hi"].take(local, axis=0))
            np.maximum(gap, 0.0, out=gap)
            keep = _pair_dot(gap, gap) <= ((upper + eps) ** 2).take(qi)
            pair_q.append(qi[keep])
            pair_t.append(stratum["ids"].take(local[keep]))
        qi = np.concatenate(pair_q)
        ti = np.concatenate(pair_t)
        if len(pair_q) > 1:
            # each stratum's pairs are grouped by query; timsort merges the two runs
            order = np.argsort(qi, kind="stable")
            qi = qi[order]
            ti = ti[order]
        p = pts.take(qi, axis=0)
        cand = closest_points_on_triangles(self._tri.take(ti, axis=0), p)
        d = np.linalg.norm(cand - p, axis=1)
        # per query: least distance, ties to the smallest triangle index
        starts = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
        nearest = d == np.minimum.reduceat(d, starts)[qi]
        first = np.minimum.reduceat(np.where(nearest, ti, len(self._tri)), starts)
        best = np.flatnonzero(nearest & (ti == first[qi]))
        return cand[best], d[best]

