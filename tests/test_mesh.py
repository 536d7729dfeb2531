import numpy as np
import pytest

from helpers import box_mesh, oracle_closest_point, random_rigid, sheet_mesh
from spinerecon.mesh import (
    SurfaceIndex,
    TriangleMesh,
    apply_transform,
    center_of_mass,
    closest_point_brute_force,
    closest_point_on_surface,
    connected_components,
    face_normals,
    median_edge_length,
    oriented_bounding_box,
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


class TestOrientedBoundingBox:
    def test_axis_aligned_box(self):
        obb = oriented_bounding_box(box_mesh(40, 30, 20))
        np.testing.assert_allclose(obb.half_extents, [20, 15, 10], atol=1e-9)
        np.testing.assert_allclose(np.abs(obb.axes), np.eye(3), atol=1e-9)
        np.testing.assert_allclose(obb.center, [0, 0, 0], atol=1e-9)

    def test_rotated_box_recovers_rotation(self):
        ang = np.radians(30.0)
        R = np.array([
            [np.cos(ang), -np.sin(ang), 0],
            [np.sin(ang), np.cos(ang), 0],
            [0, 0, 1],
        ])
        T = np.eye(4)
        T[:3, :3] = R
        obb = oriented_bounding_box(transform_mesh(box_mesh(40, 30, 20), T))
        np.testing.assert_allclose(obb.half_extents, [20, 15, 10], atol=1e-6)
        expected = R @ np.eye(3)
        for k in range(3):
            assert abs(abs(obb.axes[:, k] @ expected[:, k]) - 1.0) < 1e-6

    def test_coincident_vertices_error(self):
        m = TriangleMesh(np.zeros((3, 3)) + 2.0, [[0, 1, 2]])
        with pytest.raises(ValueError, match="degenerate"):
            oriented_bounding_box(m)

    def test_extents_rigid_invariant(self):
        rng = np.random.default_rng(11)
        m = box_mesh(40, 30, 20)
        base = oriented_bounding_box(m).half_extents
        for _ in range(10):
            obb = oriented_bounding_box(transform_mesh(m, random_rigid(rng)))
            np.testing.assert_allclose(obb.half_extents, base, atol=1e-6)

    def test_right_handed_and_sorted(self):
        rng = np.random.default_rng(3)
        m = box_mesh(13, 29, 7, center=(4, 5, 6))
        for _ in range(10):
            obb = oriented_bounding_box(transform_mesh(m, random_rigid(rng)))
            assert np.linalg.det(obb.axes) > 0
            assert obb.half_extents[0] >= obb.half_extents[1] >= obb.half_extents[2]


class TestClosestPoint:
    def test_query_on_vertex_is_zero(self):
        v, t = tetrahedron()
        index = SurfaceIndex(TriangleMesh(v, t))
        _, d = closest_point_on_surface(index, v[2])
        assert d == 0.0

    def test_point_above_triangle_interior(self):
        m = TriangleMesh([[-10, -10, 0], [10, -10, 0], [0, 10, 0]], [[0, 1, 2]])
        index = SurfaceIndex(m)
        p, d = closest_point_on_surface(index, [0.5, 0.25, 1.0])
        assert d == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p, [0.5, 0.25, 0.0], atol=1e-12)

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
        p, d = closest_point_on_surface(index, [1.0, 0.5, 0.0])
        assert d == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-12)

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
    p, d = closest_point_on_surface(index, [1.0, 1.0, 2.0])
    assert d == pytest.approx(2.0)
    np.testing.assert_allclose(p, [1, 1, 0], atol=1e-12)


def test_obb_of_planar_sheet():
    # planar geometry is allowed; the flat direction gets a tiny positive
    # extent (the asymmetric diagonal split tilts the principal axes a
    # fraction of a degree, so in-plane extents are only approximate)
    obb = oriented_bounding_box(sheet_mesh(20, 10, nx=9, ny=9))
    np.testing.assert_allclose(obb.half_extents[:2], [10, 5], atol=0.2)
    assert 0 < obb.half_extents[2] <= 1e-9
    np.testing.assert_allclose(np.abs(obb.axes[:, 2]), [0, 0, 1], atol=1e-9)
