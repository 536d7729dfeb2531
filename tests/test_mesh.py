import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import box_mesh, oracle_closest_point, random_rigid, sheet_mesh
from spinerecon.mesh import (
    SurfaceIndex,
    TriangleMesh,
    apply_transform,
    center_of_mass,
    closest_point_brute_force,
    closest_points_on_triangles,
    connected_components,
    face_normals,
    median_edge_length,
    principal_axes,
    submesh_by_label,
    transform_mesh,
)
from spinerecon.synthetic import default_vertebra_params, generate_vertebra


def tetrahedron(offset=(0.0, 0.0, 0.0)):
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float) + offset
    t = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return v, t


class TestTriangleMesh:
    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            TriangleMesh(np.zeros((3, 3)), [[0, 1, 3]])

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            TriangleMesh(np.eye(3), [[0, 1, 1]])

    def test_non_finite_vertex_rejected(self):
        v = np.eye(3)
        v[1, 2] = np.nan
        v[2, 0] = np.inf
        with pytest.raises(ValueError, match="vertex 1 has a non-finite coordinate"):
            TriangleMesh(v, [[0, 1, 2]])

    def test_label_length_checked(self):
        with pytest.raises(ValueError, match="labels"):
            TriangleMesh(np.eye(3), [[0, 1, 2]], labels=[1, 1])

    def test_immutable(self):
        m = TriangleMesh(np.eye(3), [[0, 1, 2]])
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 5.0

    def test_submesh_by_label(self):
        v, t = tetrahedron()
        m = TriangleMesh(v, t, labels=[1, 1, 1, 0])
        sub = submesh_by_label(m, 1)
        assert sub.n_triangles == 1
        assert sub.n_vertices == 3


class TestFaceNormals:
    def test_ccw_triangle_points_up(self):
        m = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        np.testing.assert_allclose(face_normals(m), [[0, 0, 1]])

    def test_reversed_winding_points_down(self):
        m = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 2, 1]])
        np.testing.assert_allclose(face_normals(m), [[0, 0, -1]])

    def test_degenerate_triangle_flagged_zero(self):
        m = TriangleMesh([[0, 0, 0], [0, 0, 0], [1, 0, 0]], [[0, 1, 2]])
        np.testing.assert_array_equal(face_normals(m), [[0, 0, 0]])


class TestConnectedComponents:
    def test_two_disjoint_triangles(self):
        m = TriangleMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 0, 0], [11, 0, 0], [10, 1, 0]],
            [[0, 1, 2], [3, 4, 5]],
        )
        comps = connected_components(m)
        assert [c.n_triangles for c in comps] == [1, 1]

    def test_tetrahedron_single_component(self):
        v, t = tetrahedron()
        assert len(connected_components(TriangleMesh(v, t))) == 1

    def test_tet_plus_far_triangle_sizes(self):
        v, t = tetrahedron()
        verts = np.vstack([v, [[50, 0, 0], [51, 0, 0], [50, 1, 0]]])
        tris = np.vstack([t, [[4, 5, 6]]])
        comps = connected_components(TriangleMesh(verts, tris))
        assert [c.n_triangles for c in comps] == [4, 1]

    def test_vertex_pinch_does_not_connect(self):
        # two triangles sharing exactly one vertex stay separate components
        m = TriangleMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]],
            [[0, 1, 2], [0, 3, 4]],
        )
        assert len(connected_components(m)) == 2

    def test_partition_covers_input(self):
        rng = np.random.default_rng(0)
        from spinerecon.synthetic import default_vertebra_params, generate_vertebra
        mesh, _, _ = generate_vertebra(default_vertebra_params("L1", tessellation_edge=5.0))
        comps = connected_components(mesh)
        assert sum(c.n_triangles for c in comps) == mesh.n_triangles
        assert all(comps[i].n_triangles >= comps[i + 1].n_triangles
                   for i in range(len(comps) - 1))


class TestCenterOfMass:
    def test_cube_at_origin(self):
        np.testing.assert_allclose(center_of_mass(box_mesh(2, 2, 2)), [0, 0, 0], atol=1e-12)

    def test_translated_cube(self):
        com = center_of_mass(box_mesh(2, 2, 2, center=(5, 0, 0)))
        np.testing.assert_allclose(com, [5, 0, 0], atol=1e-12)

    def test_l_shaped_sheet_hand_value(self):
        # rectangle A [0,4]x[0,1] area 4 centroid (2, 0.5);
        # rectangle B [0,1]x[1,3] area 2 centroid (0.5, 2)
        # weighted centroid: ((4*2 + 2*0.5)/6, (4*0.5 + 2*2)/6) = (1.5, 1.0)
        verts = np.array([
            [0, 0, 0], [4, 0, 0], [4, 1, 0], [0, 1, 0],
            [1, 1, 0], [1, 3, 0], [0, 3, 0],
        ], float)
        tris = np.array([[0, 1, 2], [0, 2, 3], [3, 4, 5], [3, 5, 6]])
        np.testing.assert_allclose(
            center_of_mass(TriangleMesh(verts, tris)), [1.5, 1.0, 0.0], atol=1e-12)

    def test_all_degenerate_errors(self):
        m = TriangleMesh([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 2]])
        with pytest.raises(ValueError, match="positive area"):
            center_of_mass(m)

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(7)
        m = box_mesh(4, 3, 2, center=(1, -2, 3))
        for _ in range(20):
            T = random_rigid(rng)
            lhs = center_of_mass(transform_mesh(m, T))
            rhs = apply_transform(T, center_of_mass(m).reshape(1, 3))[0]
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def extents(mesh, axes):
    """Half extents of the mesh along each column of axes."""
    proj = mesh.vertices @ axes
    return 0.5 * (proj.max(axis=0) - proj.min(axis=0))


class TestOrientedBoundingBox:
    """principal_axes gives the axes of the oriented bounding box, longest extent first."""

    def test_axis_aligned_box(self):
        m = box_mesh(40, 30, 20)
        axes = principal_axes(m)
        np.testing.assert_allclose(extents(m, axes), [20, 15, 10], atol=1e-9)
        np.testing.assert_allclose(np.abs(axes), np.eye(3), atol=1e-9)

    def test_rotated_box_recovers_rotation(self):
        ang = np.radians(30.0)
        R = np.array([
            [np.cos(ang), -np.sin(ang), 0],
            [np.sin(ang), np.cos(ang), 0],
            [0, 0, 1],
        ])
        T = np.eye(4)
        T[:3, :3] = R
        m = transform_mesh(box_mesh(40, 30, 20), T)
        axes = principal_axes(m)
        np.testing.assert_allclose(extents(m, axes), [20, 15, 10], atol=1e-6)
        expected = R @ np.eye(3)
        for k in range(3):
            assert abs(abs(axes[:, k] @ expected[:, k]) - 1.0) < 1e-6

    def test_coincident_vertices_error(self):
        m = TriangleMesh(np.zeros((3, 3)) + 2.0, [[0, 1, 2]])
        with pytest.raises(ValueError, match="degenerate"):
            principal_axes(m)

    def test_extents_rigid_invariant(self):
        # the axes turn with the mesh, so the extents along them do not change
        rng = np.random.default_rng(11)
        m = box_mesh(40, 30, 20)
        base = extents(m, principal_axes(m))
        for _ in range(10):
            moved = transform_mesh(m, random_rigid(rng))
            np.testing.assert_allclose(extents(moved, principal_axes(moved)), base, atol=1e-6)

    def test_right_handed_and_sorted(self):
        rng = np.random.default_rng(3)
        m = box_mesh(13, 29, 7, center=(4, 5, 6))
        for _ in range(10):
            moved = transform_mesh(m, random_rigid(rng))
            axes = principal_axes(moved)
            ext = extents(moved, axes)
            assert np.linalg.det(axes) > 0
            assert ext[0] >= ext[1] >= ext[2]


class TestClosestPoint:
    def test_query_on_vertex_is_zero(self):
        v, t = tetrahedron()
        index = SurfaceIndex(TriangleMesh(v, t))
        _, d = index.query(v[2])
        assert d[0] == 0.0

    def test_point_above_triangle_interior(self):
        m = TriangleMesh([[-10, -10, 0], [10, -10, 0], [0, 10, 0]], [[0, 1, 2]])
        index = SurfaceIndex(m)
        p, d = index.query([0.5, 0.25, 1.0])
        assert d[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p[0], [0.5, 0.25, 0.0], atol=1e-12)

    def test_matches_brute_force_exactly(self):
        from spinerecon.synthetic import default_vertebra_params, generate_vertebra
        rng = np.random.default_rng(42)
        mesh, _, _ = generate_vertebra(
            default_vertebra_params("L3", tessellation_edge=6.0, with_posterior=False))
        assert mesh.n_triangles <= 500
        index = SurfaceIndex(mesh)
        queries = rng.uniform(-60, 60, (1000, 3))
        p_idx, d_idx = index.query(queries)
        p_ref, d_ref = closest_point_brute_force(mesh, queries)
        np.testing.assert_array_equal(p_idx, p_ref)
        np.testing.assert_array_equal(d_idx, d_ref)

    def test_matches_brute_force_on_mixed_triangle_sizes(self):
        # posterior boxes give a second, coarse radius stratum
        from spinerecon.synthetic import default_vertebra_params, generate_vertebra
        rng = np.random.default_rng(43)
        mesh, _, _ = generate_vertebra(default_vertebra_params("L3", tessellation_edge=6.0))
        index = SurfaceIndex(mesh)
        queries = rng.uniform(-80, 80, (300, 3))
        p_idx, d_idx = index.query(queries)
        p_ref, d_ref = closest_point_brute_force(mesh, queries)
        np.testing.assert_array_equal(p_idx, p_ref)
        np.testing.assert_array_equal(d_idx, d_ref)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(9)
        m = box_mesh(6, 4, 3, center=(1, 2, -1))
        index = SurfaceIndex(m)
        queries = rng.uniform(-8, 8, (100, 3))
        p_idx, d_idx = index.query(queries)
        for q, p, d in zip(queries, p_idx, d_idx):
            p_ref, d_ref = oracle_closest_point(m, q)
            assert d == pytest.approx(d_ref, abs=1e-9)
            np.testing.assert_allclose(p, p_ref, atol=1e-9)

    def test_degenerate_triangles_handled(self):
        # sliver with two coincident corners plus a proper triangle
        m = TriangleMesh(
            [[0, 0, 0], [0, 0, 0.0], [2, 0, 0], [0, 5, 5], [1, 5, 5], [0, 6, 5]],
            [[0, 1, 2], [3, 4, 5]],
        )
        index = SurfaceIndex(m)
        p, d = index.query([1.0, 0.5, 0.0])
        assert d[0] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(p[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_concurrent_queries_match_sequential(self):
        from concurrent.futures import ThreadPoolExecutor
        rng = np.random.default_rng(17)
        index = SurfaceIndex(box_mesh(10, 8, 6))
        batches = [rng.uniform(-12, 12, (200, 3)) for _ in range(8)]
        sequential = [index.query(b) for b in batches]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(index.query, batches))
        for (p_seq, d_seq), (p_thr, d_thr) in zip(sequential, threaded):
            np.testing.assert_array_equal(p_seq, p_thr)
            np.testing.assert_array_equal(d_seq, d_thr)


class TestTransformMesh:
    def test_identity(self):
        m = box_mesh(2, 3, 4)
        out = transform_mesh(m, np.eye(4))
        np.testing.assert_array_equal(out.vertices, m.vertices)

    def test_translation(self):
        m = box_mesh(2, 3, 4)
        T = np.eye(4)
        T[:3, 3] = [1, 2, 3]
        np.testing.assert_allclose(transform_mesh(m, T).vertices, m.vertices + [1, 2, 3])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        m = box_mesh(2, 3, 4)
        T = random_rigid(rng)
        back = transform_mesh(transform_mesh(m, T), np.linalg.inv(T))
        np.testing.assert_allclose(back.vertices, m.vertices, atol=1e-9)

    def test_singular_rejected(self):
        T = np.eye(4)
        T[0, 0] = 0.0
        with pytest.raises(ValueError, match="singular"):
            transform_mesh(box_mesh(1, 1, 1), T)

    def test_labels_preserved(self):
        v, t = tetrahedron()
        m = TriangleMesh(v, t, labels=[1, 2, 3, 4])
        T = np.eye(4)
        T[:3, 3] = [1, 0, 0]
        np.testing.assert_array_equal(transform_mesh(m, T).labels, m.labels)


def test_median_edge_length_unit_grid():
    m = sheet_mesh(4, 4, nx=5, ny=5)
    # grid spacing 1: edges of length 1 and sqrt(2); median is 1
    assert median_edge_length(m) == pytest.approx(1.0)


def test_median_edge_length_irregular_mesh_matches_row_unique():
    mesh, _, _ = generate_vertebra(default_vertebra_params("L4", tessellation_edge=2.0))
    rng = np.random.default_rng(3)
    noisy = TriangleMesh(mesh.vertices + rng.normal(0.0, 0.3, mesh.vertices.shape),
                         mesh.triangles)
    edges = np.sort(noisy.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges = np.unique(edges, axis=0)
    lengths = np.linalg.norm(noisy.vertices[edges[:, 0]] - noisy.vertices[edges[:, 1]], axis=1)
    assert median_edge_length(noisy) == float(np.median(lengths))


def test_surface_index_single_triangle():
    m = TriangleMesh([[0, 0, 0], [4, 0, 0], [0, 4, 0]], [[0, 1, 2]])
    index = SurfaceIndex(m)
    p, d = index.query([1.0, 1.0, 2.0])
    assert d[0] == pytest.approx(2.0)
    np.testing.assert_allclose(p[0], [1, 1, 0], atol=1e-12)


def test_obb_of_planar_sheet():
    # planar geometry is allowed; the flat direction comes last (the
    # asymmetric diagonal split tilts the principal axes a fraction of a
    # degree, so in-plane extents are only approximate)
    m = sheet_mesh(20, 10, nx=9, ny=9)
    axes = principal_axes(m)
    ext = extents(m, axes)
    np.testing.assert_allclose(ext[:2], [10, 5], atol=0.2)
    assert ext[2] <= 1e-9
    np.testing.assert_allclose(np.abs(axes[:, 2]), [0, 0, 1], atol=1e-9)


def _points_on_edges(vertices, triangles, rng, n):
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


@settings(max_examples=150, deadline=None)
@given(mixed_meshes())
def test_surface_index_matches_brute_force_bit_for_bit(case):
    mesh, rng = case
    center = mesh.vertices.mean(axis=0)
    size = float(np.ptp(mesh.vertices, axis=0).max()) or 1.0
    far = rng.normal(size=(20, 3))
    far *= 10.0 * size / np.linalg.norm(far, axis=1, keepdims=True)
    queries = np.vstack([
        mesh.vertices,
        _points_on_edges(mesh.vertices, mesh.triangles, rng, 40),
        rng.uniform(-12.0, 12.0, (40, 3)),
        center + far,
    ])
    p_idx, d_idx = SurfaceIndex(mesh).query(queries)
    p_ref, d_ref = closest_point_brute_force(mesh, queries)
    np.testing.assert_array_equal(p_idx, p_ref)
    np.testing.assert_array_equal(d_idx, d_ref)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.125, 4.0))
def test_equidistant_parallel_triangles_resolve_to_smaller_index(seed, height):
    # mirror images in z = +h and z = -h are exactly equidistant from z = 0;
    # 20 congruent copies far above and below split the k-d tree (16
    # points per leaf) at z = 0, so the radius search meets the twins in
    # z order, and one of the two index orders disagrees with it
    rng = np.random.default_rng(seed)
    corners = np.c_[rng.uniform(-5.0, 5.0, (3, 2)), np.zeros(3)]
    shifts = np.c_[rng.uniform(-3.0, 3.0, (10, 2)), height + rng.uniform(25.0, 35.0, 10)]
    filler = [corners + shift * sign for shift in shifts for sign in (1.0, -1.0)]
    queries = np.c_[rng.uniform(-7.0, 7.0, (30, 2)), np.zeros(30)]
    queries[:3] = corners
    queries[3] = corners.mean(axis=0)
    for first in (height, -height):
        verts = np.vstack([corners + [0.0, 0.0, first], corners - [0.0, 0.0, first], *filler])
        mesh = TriangleMesh(verts, np.arange(len(verts)).reshape(-1, 3))
        p_idx, d_idx = SurfaceIndex(mesh).query(queries)
        p_ref, d_ref = closest_point_brute_force(mesh, queries)
        np.testing.assert_array_equal(p_idx, p_ref)
        np.testing.assert_array_equal(d_idx, d_ref)
        assert np.all(p_idx[:, 2] == first)


def reference_closest_points_on_triangles(tri, pts):
    """The take-cascade form of the kernel: each region in turn claims its pairs."""
    tri = np.asarray(tri, dtype=np.float64).reshape(-1, 3, 3)
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab = b - a
    ac = c - a
    ap = pts - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = pts - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = pts - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
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
        rem = np.nonzero(~done)[0]
        best_d = np.full(len(rem), np.inf)
        best_p = np.empty((len(rem), 3))
        corners = tri[rem]
        for k0, k1 in ((0, 1), (1, 2), (2, 0)):
            e0, e1 = corners[:, k0], corners[:, k1]
            seg = e1 - e0
            seg_len2 = np.einsum("ij,ij->i", seg, seg)
            t = np.einsum("ij,ij->i", pts[rem] - e0, seg) / np.where(seg_len2 > 0, seg_len2, 1.0)
            t = np.clip(np.where(seg_len2 > 0, t, 0.0), 0.0, 1.0)
            cand = e0 + t[:, None] * seg
            d = np.linalg.norm(cand - pts[rem], axis=1)
            better = d < best_d
            best_d[better] = d[better]
            best_p[better] = cand[better]
        out[rem] = best_p
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_kernel_matches_take_cascade_bit_for_bit(seed, on_grid):
    rng = np.random.default_rng(seed)
    n = 400
    tri = rng.uniform(-5.0, 5.0, (n, 3, 3))
    if on_grid:
        tri = np.round(tri)
    # degenerate rows: collinear corners, two coincident corners, a point
    tri[:40, 2] = tri[:40, 0] + rng.uniform(-2.0, 2.0, (40, 1)) * (tri[:40, 1] - tri[:40, 0])
    tri[40:60, 1] = tri[40:60, 0]
    tri[60:70, 1:] = tri[60:70, :1]
    pts = rng.uniform(-8.0, 8.0, (n, 3))
    if on_grid:
        pts = np.round(pts)
    corner = rng.integers(0, 3, n)
    rows = np.arange(n)
    pts[100:200] = tri[rows, corner][100:200]
    t = np.where(rng.random(n) < 0.5, 0.5, rng.random(n))[:, None]
    on_edge = tri[rows, corner] + t * (tri[rows, (corner + 1) % 3] - tri[rows, corner])
    pts[200:300] = on_edge[200:300]
    np.testing.assert_array_equal(closest_points_on_triangles(tri, pts),
                                  reference_closest_points_on_triangles(tri, pts))


def test_face_cross_is_cached_and_read_only():
    mesh = TriangleMesh(np.eye(3), [[0, 1, 2]])
    assert mesh._face_cross is mesh._face_cross
    with pytest.raises(ValueError):
        mesh._face_cross[0, 0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e160, 1e300, -1e300])
def test_surface_query_rejects_unanswerable_points_naming_the_row(bad):
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2], [1, 3, 2]])
    index = SurfaceIndex(mesh)
    points = np.zeros((5, 3))
    points[3, 1] = bad
    points[4, 0] = bad
    with pytest.raises(ValueError, match="query point 3 is not finite or lies more than"):
        index.query(points)
    # the largest distances that stay finite still answer exactly
    _, dist = index.query([[0.5, 0.5, 1e148]])
    assert dist[0] == 1e148
