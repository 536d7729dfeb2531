"""Triangle-mesh core: geometry type, spatial queries, and transforms.

All coordinates are in millimeters. Meshes are immutable after
construction; every operation returns a new mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u x v of (n, 3) arrays: np.cross's products and differences, without its axes."""
    (u0, u1, u2), (v0, v1, v2) = u.T, v.T
    out = np.empty(u.shape)
    x, y, z = out.T
    np.subtract(u1 * v2, u2 * v1, out=x)
    np.subtract(u2 * v0, u0 * v2, out=y)
    np.subtract(u0 * v1, u1 * v0, out=z)
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
                bad = int(np.argmax(((tris < 0) | (tris >= len(verts))).any(axis=1)))
                raise ValueError(f"triangle {bad} has a vertex index out of range: "
                                 f"{tris[bad].tolist()} (vertex count {len(verts)})")
            repeats = ((tris[:, 0] == tris[:, 1])
                       | (tris[:, 1] == tris[:, 2])
                       | (tris[:, 0] == tris[:, 2]))
            if repeats.any():
                bad = int(np.argmax(repeats))
                raise ValueError(f"triangle {bad} repeats a vertex index: {tris[bad].tolist()}")
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

    @property
    def _face_cross(self) -> np.ndarray:
        """(b - a) x (c - a) per triangle, computed once for normals and areas.

        Cached on the instance without a lock: before Python 3.12,
        functools.cached_property holds one lock for every mesh, which
        serialises threads detecting different levels. Two threads that
        race on one mesh compute the same bits.
        """
        cross = self.__dict__.get("_face_cross_cache")
        if cross is None:
            a, b, c = (self.vertices.take(k, axis=0) for k in self.triangles.T)
            cross = _cross(b - a, c - a)
            cross.flags.writeable = False
            object.__setattr__(self, "_face_cross_cache", cross)
        return cross

    def submesh(self, triangle_indices) -> "TriangleMesh":
        """Mesh restricted to the given triangles, vertices re-indexed compactly."""
        kept = np.asarray(triangle_indices, dtype=np.int64)
        tri = self.triangles[kept]
        used = np.flatnonzero(np.bincount(tri.ravel(), minlength=self.n_vertices))
        remap = np.full(self.n_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        labels = self.labels[used] if self.labels is not None else None
        sub = TriangleMesh(self.vertices[used], remap[tri], labels)
        cross = self.__dict__.get("_face_cross_cache")
        if cross is not None:  # a kept triangle keeps its corners, so its cross product
            cross = cross[kept]
            cross.flags.writeable = False
            object.__setattr__(sub, "_face_cross_cache", cross)
        return sub


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
    """Component count and a label per triangle of the graph with edges (i[k], j[k]).

    Components are numbered in the order of their smallest node, as
    scipy.sparse.csgraph.connected_components numbers them. Each round
    hooks the larger root of every edge that joins two trees onto the
    smaller root, then pointer-jumps until every node points at its root.
    A parent is never larger than its child, so each root is its tree's
    smallest node; where a root is hooked by several edges at once, the
    one assignment that lands is as good as any other.
    """
    parent = np.arange(n_triangles)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    while True:
        ri = parent.take(i)
        rj = parent.take(j)
        split = ri != rj
        if not split.any():
            break
        i, j, ri, rj = i[split], j[split], ri[split], rj[split]
        parent[np.maximum(ri, rj)] = np.minimum(ri, rj)
        while True:
            grand = parent.take(parent)
            if np.array_equal(grand, parent):
                break
            parent = grand
    root = parent == np.arange(n_triangles)
    return int(root.sum()), (np.cumsum(root) - 1).take(parent)


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


def _triangle_boxes(tri: np.ndarray, starts=(0,)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triangle axis-aligned boxes (lo, hi) of corners (m, 3, 3), and a reach per run.

    A run begins at each of starts. Within its reach of its first corner,
    per axis, no square or product the kernel forms on the run overflows.
    """
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    runs = 3 * np.asarray(starts)  # lo and hi are C-ordered: a run's coordinates are one flat span
    extent = np.maximum.reduceat(hi.ravel(), runs) - np.minimum.reduceat(lo.ravel(), runs)
    return lo, hi, 1e150 / np.maximum(1.0, extent)


def _check_reach(pts: np.ndarray, origin: np.ndarray, reach) -> None:
    """Reject query points that are not finite or lie beyond reach of origin (shared or per row)."""
    near = np.abs(pts - origin) <= np.reshape(reach, (-1, 1))  # False for NaN
    if not near.all():
        row = int(np.argmin(near.all(axis=1)))
        reach = np.broadcast_to(reach, len(pts))[row]
        raise ValueError(f"query point {row} is not finite or lies "
                         f"more than {reach:.3g} mm from the mesh along an axis")


# Query-triangle pairs per kernel call in _nearest_per_query, and per box
# test in SurfaceIndex._candidates. The kernel costs 272-282 ns per pair at
# 4k-16k pairs but 401-451 ns at 32k-128k, once its pair-length temporaries
# outgrow the cache; the first chunks of an ICP run, far off the surface,
# carry 20k-63k kernel pairs and up to ~140k box tests. With these blocks
# such a chunk peaks at about 7 MB of numpy arrays (6.1-8.5 MB under
# tracemalloc on 2 mm levels).
_KERNEL_PAIRS = 16_384


def _nearest_per_query(tri: np.ndarray, pts: np.ndarray, qi: np.ndarray, ti: np.ndarray):
    """Exact closest points over candidate pairs (query qi[k], triangle ti[k]).

    qi must be grouped by query in ascending order, with at least one pair
    per query and no pair repeated. Each query takes the least distance,
    ties to the smallest triangle index, exactly as a brute-force scan.
    The kernel runs on blocks of whole queries holding at most
    _KERNEL_PAIRS pairs; a query with more pairs forms its own block.
    Returns (closest_points, distances), one row per query.
    """
    new_query = np.empty(len(qi), dtype=bool)
    new_query[:1] = True
    np.not_equal(qi[1:], qi[:-1], out=new_query[1:])
    bounds = np.append(np.flatnonzero(new_query), len(qi))  # pairs of query k: bounds[k:k + 2]
    count = len(bounds) - 1
    out_p = np.empty((count, 3))
    out_d = np.empty(count)
    k0 = 0
    while k0 < count:
        k1 = max(k0 + 1, int(np.searchsorted(bounds, bounds[k0] + _KERNEL_PAIRS, "right")) - 1)
        lo, hi = bounds[k0], bounds[k1]
        q = qi[lo:hi] - k0
        t = ti[lo:hi]
        starts = bounds[k0:k1] - lo
        p = pts.take(qi[lo:hi], axis=0)
        cand = closest_points_on_triangles(tri.take(t, axis=0), p)
        d = np.linalg.norm(cand - p, axis=1)
        nearest = d == np.minimum.reduceat(d, starts)[q]
        first = np.minimum.reduceat(np.where(nearest, t, len(tri)), starts)
        best = np.flatnonzero(nearest & (t == first[q]))
        out_p[k0:k1] = cand[best]
        out_d[k0:k1] = d[best]
        k0 = k1
    return out_p, out_d


# Query-triangle pairs that _nearest_on_triangles holds at once. A pair
# costs about 180 bytes at the peak, so one chunk stays near 12 MB.
_DIRECT_PAIRS_PER_CHUNK = 1 << 16


def _nearest_on_triangles(tri: np.ndarray, points, sizes=None) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest points on triangles given as corners (m, 3, 3), without an index.

    sizes, one (point count, triangle count >= 1) per group, splits points
    and triangles into consecutive groups; a point searches only its own
    group (by default all form one). Each query's upper bound U is its
    distance to its group's nearest corner, which lies on the surface. A
    triangle is kept only if its box lies within U + eps (the eps of
    SurfaceIndex), and the exact kernel runs once per chunk over the kept
    pairs. The nearest triangle and any tied with it lie within U, so a
    group's rows are bit for bit those of its own call, of SurfaceIndex
    and of a brute-force scan. Time grows as the sum of each group's
    points x triangles; chunks of at most _DIRECT_PAIRS_PER_CHUNK pairs
    (or one point) bound the memory.
    """
    pts = _as_points(points)
    n_pts, n_tri = np.reshape(sizes if sizes is not None else (len(pts), len(tri)), (-1, 2)).T
    first = np.cumsum(n_tri) - n_tri  # first triangle of each group
    lo, hi, reach = _triangle_boxes(tri, first)
    group = np.repeat(np.arange(len(n_pts)), n_pts)
    _check_reach(pts, tri[first, 0].take(group, axis=0), reach.take(group))
    first = first.take(group)  # now per point
    count = n_tri.take(group)
    ends = np.cumsum(count)  # pairs of point k end at ends[k]
    out_p = np.empty_like(pts)
    out_d = np.empty(len(pts))
    start = 0
    while start < len(pts):
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - count[start] + _DIRECT_PAIRS_PER_CHUNK, "right")))
        chunk = pts[start:stop]
        per = count[start:stop]
        starts = np.cumsum(per) - per  # first pair of each point of the chunk
        qi = np.repeat(np.arange(stop - start), per)
        ti = np.arange(len(qi)) + np.repeat(first[start:stop] - starts, per)
        p = chunk.take(qi, axis=0)
        offset = tri.take(ti, axis=0)
        np.subtract(p[:, None, :], offset, out=offset)
        # a point's pairs are consecutive: one reduceat takes the least over their corners
        upper = np.sqrt(np.minimum.reduceat(
            np.einsum("pkj,pkj->pk", offset, offset).ravel(), 3 * starts))
        del offset
        eps = 1e-9 * (1.0 + upper)
        # per-axis gap from each point to each triangle's box, 0 inside it
        gap = np.maximum(lo.take(ti, axis=0) - p, p - hi.take(ti, axis=0))
        np.maximum(gap, 0.0, out=gap)
        keep = np.flatnonzero(np.einsum("pj,pj->p", gap, gap) <= ((upper + eps) ** 2).take(qi))
        out_p[start:stop], out_d[start:stop] = _nearest_per_query(tri, chunk, qi[keep], ti[keep])
        start = stop
    return out_p, out_d


class SurfaceIndex:
    """Spatial acceleration structure for exact nearest-point queries.

    Triangles are grouped into two strata by bounding radius (fine
    surface triangles versus coarse ones), each with a k-d tree over
    its centroids and every triangle's axis-aligned box. A query takes
    an exact upper bound U, the distance to the nearest-centroid
    triangle of each stratum. A triangle is a candidate if its centroid
    lies within U + max_radius + eps of the query and its box within
    U + eps. A triangle at distance D <= U has its centroid within
    D + max_radius and its box within D, so neither test drops the
    nearest triangle or one tied with it (eps absorbs round-off). The
    exact kernel runs on the candidates; each query takes the least
    distance, ties to the smallest triangle index, exactly as a
    brute-force scan.

    The centroid test runs as one dual-tree search per band of queries
    with similar radii, each pair cut back to its own query's radius
    (`_candidates`): the kernel sees the pairs of a radius search per
    query, and no Python list is built per query.

    An index is never changed after it is built, so queries are safe from
    several threads at once; `registration.register_spine` and
    `evaluation.evaluate_reconstruction` rely on it, building one index
    per level on the level pool (`spine.map_levels`). Box tests and the
    kernel run on blocks of at most _KERNEL_PAIRS (16,384) pairs: the
    kernel costs 272-282 ns per pair at 4k-16k pairs but 401-451 ns at
    32k-128k. A far-off 2,048-point chunk on a 2 mm level (20.8k-61.4k
    kernel pairs) peaks at 6.1-8.5 MB of numpy arrays under tracemalloc,
    which does not see the tree search's own result buffer: 24 bytes per
    pair of the largest band, up to 235k pairs (5.6 MB) in such a chunk.
    """

    # Queries per chunk. Chunks of 512-4,096 points time within 6% of each
    # other on ICP queries. On a 20.8k-triangle level, 10.4k on-surface
    # points peak at 5.7 MB of numpy arrays (tracemalloc) in chunks of
    # 2,048 and at 7.5 MB in chunks of 8,192.
    _CHUNK = 2048

    def __init__(self, mesh: TriangleMesh):
        # imported here, so that only code that builds an index loads SciPy
        from scipy.spatial import cKDTree

        if mesh.n_triangles == 0:
            raise ValueError("cannot index a mesh with no triangles")
        self._tri = mesh.triangle_points()
        centroids = _centroids(self._tri)
        a, b, c = self._tri[:, 0], self._tri[:, 1], self._tri[:, 2]
        radii = np.sqrt(np.max([_pair_dot(x - centroids, x - centroids) for x in (a, b, c)], axis=0))
        lo, hi, (self._reach,) = _triangle_boxes(self._tri)
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
        _check_reach(pts, self._tri[0, 0], self._reach)
        out_p = np.empty_like(pts)
        out_d = np.empty(len(pts))
        for start in range(0, len(pts), self._CHUNK):
            chunk = pts[start : start + self._CHUNK]
            p, d = _nearest_per_query(self._tri, chunk, *self._candidates(chunk))
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

    def _candidates(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """Pairs (query, triangle) whose centroid and box pass the class's tests, grouped by query.

        Per stratum, each query's search radius is U + max_radius + eps.
        The queries, sorted by radius, go into bands whose radii differ by
        less than max_radius; a stratum whose triangles are all points
        (max_radius 0) is one band. Each band makes one dual-tree search,
        a k-d tree over its points against the stratum's centroid tree,
        out to the band's largest radius, so no query's search is cut
        short. A pair is kept only within its own query's radius, so the
        box test sees exactly the pairs of a radius search per query,
        without a Python list per query, which would be built and
        flattened holding the interpreter lock. A band finds more pairs
        than it keeps (1.6-1.9x on 0.85 and 2 mm levels), which makes it
        slower than a radius search per query only for far-off queries on
        fine levels. Boxes are tested in blocks of _KERNEL_PAIRS pairs,
        and the kept pairs of all strata are sorted by query once.
        """
        from scipy.spatial import cKDTree

        upper = self._upper_bound(pts)
        eps = 1e-9 * (1.0 + upper)
        limit = (upper + eps) ** 2
        pair_q: list[np.ndarray] = []
        pair_t: list[np.ndarray] = []
        for stratum in self._strata:
            radius = upper + stratum["max_radius"] + eps
            order = np.argsort(radius, kind="stable")
            sorted_radius = radius[order]
            width = stratum["max_radius"] or np.inf  # a stratum of points is one band
            band_q: list[np.ndarray] = []
            band_t: list[np.ndarray] = []
            start = 0
            while start < len(pts):
                # max() moves on where width is below the radius's last bit
                stop = max(start + 1, int(np.searchsorted(
                    sorted_radius, sorted_radius[start] + width, "left")))
                band = order[start:stop]
                found = cKDTree(pts.take(band, axis=0)).sparse_distance_matrix(
                    stratum["tree"], sorted_radius[stop - 1], output_type="ndarray")
                q = band.take(found["i"])
                within = found["v"] <= radius.take(q)
                band_q.append(q[within])
                band_t.append(found["j"][within])
                start = stop
            qi = np.concatenate(band_q)
            local = np.concatenate(band_t)
            del band_q, band_t
            keep = np.empty(len(qi), dtype=bool)
            for start in range(0, len(qi), _KERNEL_PAIRS):
                block = slice(start, start + _KERNEL_PAIRS)
                p = pts.take(qi[block], axis=0)  # take gathers rows faster than pts[qi]
                # per-axis gap from the point to the triangle's box, 0 inside it
                gap = stratum["lo"].take(local[block], axis=0)
                gap -= p
                beyond = stratum["hi"].take(local[block], axis=0)
                np.subtract(p, beyond, out=beyond)
                np.maximum(gap, beyond, out=gap)
                np.maximum(gap, 0.0, out=gap)
                keep[block] = _pair_dot(gap, gap) <= limit.take(qi[block])
            pair_q.append(qi[keep])
            pair_t.append(stratum["ids"].take(local[keep]))
        qi = np.concatenate(pair_q)
        # the narrowest key that holds a chunk's query indices: on 16-bit
        # keys numpy's stable sort is a radix sort
        order = np.argsort(qi.astype(np.min_scalar_type(len(pts))), kind="stable")
        return qi.take(order), np.concatenate(pair_t).take(order)
