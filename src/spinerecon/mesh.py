"""Triangle-mesh core: geometry type, spatial queries, and transforms.

All coordinates are in millimeters. Meshes are immutable after
construction; every operation returns a new mesh.
"""

from __future__ import annotations

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
        return self.vertices[self.triangles]

    def submesh(self, triangle_indices) -> "TriangleMesh":
        """Mesh restricted to the given triangles, vertices re-indexed compactly."""
        tri = self.triangles[np.asarray(triangle_indices, dtype=np.int64)]
        used = np.unique(tri)
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
    n = _face_cross(mesh)
    length = np.linalg.norm(n, axis=1)
    safe = np.where(length > 0.0, length, 1.0)
    out = n / safe[:, None]
    out[length == 0.0] = 0.0
    return out


def face_areas(mesh: TriangleMesh) -> np.ndarray:
    return 0.5 * np.linalg.norm(_face_cross(mesh), axis=1)


def _face_cross(mesh: TriangleMesh) -> np.ndarray:
    tri = mesh.triangle_points()
    return np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])


def center_of_mass(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted mean of triangle centroids (surface center of mass)."""
    areas = face_areas(mesh)
    total = areas.sum()
    if total <= 0.0:
        raise ValueError("mesh has no triangles with positive area")
    centroids = mesh.triangle_points().mean(axis=1)
    return (areas[:, None] * centroids).sum(axis=0) / total


def median_edge_length(mesh: TriangleMesh) -> float:
    """Median length over the unique undirected edges of the mesh."""
    edges = _undirected_edges(mesh.triangles)
    # i * n + j with i < j < n sorts like the rows of np.unique(axis=0)
    n = mesh.n_vertices
    first, second = np.divmod(np.unique(edges[:, 0] * n + edges[:, 1]), n)
    lengths = np.linalg.norm(mesh.vertices[first] - mesh.vertices[second], axis=1)
    return float(np.median(lengths))


def _undirected_edges(triangles: np.ndarray) -> np.ndarray:
    edges = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    return np.sort(edges, axis=1)


def triangle_adjacency(mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) of triangle indices sharing an edge (two vertex indices)."""
    m = mesh.n_triangles
    edges = _undirected_edges(mesh.triangles)
    tri_of_edge = np.repeat(np.arange(m, dtype=np.int64), 3)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges = edges[order]
    tri_of_edge = tri_of_edge[order]
    same = np.all(edges[1:] == edges[:-1], axis=1)
    # consecutive identical edges belong to adjacent triangles
    return tri_of_edge[:-1][same], tri_of_edge[1:][same]


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


@dataclass(frozen=True)
class OrientedBoundingBox:
    """PCA-based oriented bounding box.

    axes are mutually orthogonal unit vectors forming a right-handed
    set, ordered so half_extents are sorted descending. Signs are
    chosen deterministically: the right-handed flip combination with
    the smallest rotation from the world axes (maximal trace).
    """

    center: np.ndarray
    axes: np.ndarray  # (3, 3), columns are the box axes
    half_extents: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64).reshape(3)
        axes = np.asarray(self.axes, dtype=np.float64).reshape(3, 3)
        ext = np.asarray(self.half_extents, dtype=np.float64).reshape(3)
        if np.max(np.abs(axes.T @ axes - np.eye(3))) > 1e-6:
            raise ValueError("OBB axes are not orthonormal")
        if np.linalg.det(axes) <= 0:
            raise ValueError("OBB axes are not right-handed")
        if np.any(ext <= 0):
            raise ValueError("OBB half extents must be positive")
        for a in (center, axes, ext):
            a.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "half_extents", ext)


def _vertex_area_weights(mesh: TriangleMesh) -> np.ndarray:
    areas = face_areas(mesh)
    w = np.zeros(mesh.n_vertices)
    for k in range(3):
        np.add.at(w, mesh.triangles[:, k], areas / 3.0)
    return w


def oriented_bounding_box(mesh: TriangleMesh) -> OrientedBoundingBox:
    """OBB from the area-weighted vertex covariance (principal axes)."""
    verts = mesh.vertices
    if len(verts) < 3:
        raise ValueError("need at least 3 vertices for an oriented bounding box")
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

    proj = verts @ evecs
    extents = 0.5 * (proj.max(axis=0) - proj.min(axis=0))
    order = np.argsort(-extents, kind="stable")
    axes = evecs[:, order]
    if np.linalg.det(axes) < 0:
        axes[:, 2] = -axes[:, 2]
    # deterministic signs: right-handed flip pair with maximal trace
    flips = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    traces = [np.trace(axes * np.array(f)) for f in flips]
    axes = axes * np.array(flips[int(np.argmax(traces))])

    proj = verts @ axes
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    center = axes @ ((lo + hi) / 2.0)
    half = np.maximum((hi - lo) / 2.0, 1e-9)
    return OrientedBoundingBox(center, axes, half)


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

    Region classification follows Ericson's ClosestPtPointTriangle.
    Degenerate (zero-area) triangles fall through the cascade and are
    resolved as the closest point over their three edges.
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

    out = np.empty_like(pts)
    done = np.zeros(len(pts), dtype=bool)

    def take(mask, value):
        m = mask & ~done
        if np.any(m):
            out[m] = value[m]
            done[m] = True

    take((d1 <= 0.0) & (d2 <= 0.0), a)
    take((d3 >= 0.0) & (d4 <= d3), b)
    take((d6 >= 0.0) & (d5 <= d6), c)

    den = d1 - d3
    v = d1 / np.where(den != 0.0, den, 1.0)
    take((vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0) & (den != 0.0), a + v[:, None] * ab)

    den = d2 - d6
    v = d2 / np.where(den != 0.0, den, 1.0)
    take((vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0) & (den != 0.0), a + v[:, None] * ac)

    den = (d4 - d3) + (d5 - d6)
    v = (d4 - d3) / np.where(den != 0.0, den, 1.0)
    take(
        (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0) & (den != 0.0),
        b + v[:, None] * (c - b),
    )

    den = va + vb + vc
    safe = np.where(den != 0.0, den, 1.0)
    v = vb / safe
    w = vc / safe
    take(den != 0.0, a + v[:, None] * ab + w[:, None] * ac)

    if not np.all(done):
        # degenerate triangles: closest point over the three edges
        rem = np.nonzero(~done)[0]
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
    surface triangles versus coarse ones) with a k-d tree over the
    centroids of each. A query first computes an exact upper bound from
    a few nearest centroids, then widens each stratum's neighbor set
    until the k-th centroid provably exceeds upper_bound + radius, and
    finally evaluates the exact point-triangle kernel on the surviving
    candidates. The bound guarantees the result equals a brute-force
    scan over all triangles, including the smallest-triangle-index tie
    break. Read-only queries are safe from multiple threads.
    """

    _CHUNK = 8192

    def __init__(self, mesh: TriangleMesh):
        if mesh.n_triangles == 0:
            raise ValueError("cannot index a mesh with no triangles")
        self._mesh = mesh
        self._tri = mesh.triangle_points()
        centroids = self._tri.mean(axis=1)
        radii = np.linalg.norm(self._tri - centroids[:, None, :], axis=2).max(axis=1)
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
                "radii": radii[ids],
                "max_radius": float(radii[ids].max()),
            })

    @property
    def mesh(self) -> TriangleMesh:
        return self._mesh

    def query(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Exact nearest surface points and distances for a batch of queries."""
        pts = _as_points(points)
        out_p = np.empty_like(pts)
        out_d = np.empty(len(pts))
        for start in range(0, len(pts), self._CHUNK):
            chunk = pts[start : start + self._CHUNK]
            p, d = self._query_chunk(chunk)
            out_p[start : start + self._CHUNK] = p
            out_d[start : start + self._CHUNK] = d
        return out_p, out_d

    def query_one(self, point) -> tuple[np.ndarray, float]:
        p, d = self.query(np.asarray(point, dtype=np.float64).reshape(1, 3))
        return p[0], float(d[0])

    def _upper_bound(self, pts) -> np.ndarray:
        """Exact distance to some triangle near each query (a valid upper bound)."""
        upper = np.full(len(pts), np.inf)
        for stratum in self._strata:
            k = min(4, len(stratum["ids"]))
            _, near = stratum["tree"].query(pts, k=k)
            near = near.reshape(len(pts), -1)
            qi = np.repeat(np.arange(len(pts)), near.shape[1])
            tids = stratum["ids"][near.ravel()]
            cand = closest_points_on_triangles(self._tri[tids], pts[qi])
            d = np.linalg.norm(cand - pts[qi], axis=1).reshape(len(pts), -1)
            upper = np.minimum(upper, d.min(axis=1))
        return upper

    def _stratum_candidates(self, stratum, pts, upper, eps):
        """(query, triangle) candidate pairs that could beat the upper bound."""
        n = len(stratum["ids"])
        tree = stratum["tree"]
        pending = np.arange(len(pts))
        pair_q: list[np.ndarray] = []
        pair_t: list[np.ndarray] = []
        k = min(8, n)
        while len(pending):
            d_c, near = tree.query(pts[pending], k=k)
            d_c = d_c.reshape(len(pending), -1)
            near = near.reshape(len(pending), -1)
            settled = (d_c[:, -1] >= upper[pending] + stratum["max_radius"] + eps[pending]) \
                | (k >= n)
            rows = np.nonzero(settled)[0]
            if len(rows):
                qq = pending[rows]
                d_sel = d_c[rows]
                n_sel = near[rows]
                valid = n_sel < n  # cKDTree pads missing neighbors with index n
                local = np.where(valid, n_sel, 0)
                bound = upper[qq][:, None] + stratum["radii"][local] + eps[qq][:, None]
                keep = valid & (d_sel <= bound)
                r, c = np.nonzero(keep)
                pair_q.append(qq[r])
                pair_t.append(stratum["ids"][local[r, c]])
            pending = pending[~settled]
            k = min(n, k * 4)
        return pair_q, pair_t

    def _query_chunk(self, pts):
        upper = self._upper_bound(pts)
        eps = 1e-9 * (1.0 + upper)
        pair_q: list[np.ndarray] = []
        pair_t: list[np.ndarray] = []
        for stratum in self._strata:
            q, t = self._stratum_candidates(stratum, pts, upper, eps)
            pair_q.extend(q)
            pair_t.extend(t)
        qi = np.concatenate(pair_q)
        ti = np.concatenate(pair_t)
        cand = closest_points_on_triangles(self._tri[ti], pts[qi])
        d = np.linalg.norm(cand - pts[qi], axis=1)
        # per query: min distance, ties to the smallest triangle index
        order = np.lexsort((ti, d, qi))
        first = np.unique(qi[order], return_index=True)[1]
        best = order[first]
        return cand[best], d[best]


def closest_point_on_surface(index: SurfaceIndex, query) -> tuple[np.ndarray, float]:
    """Exact nearest point on the indexed surface and its distance."""
    return index.query_one(query)
