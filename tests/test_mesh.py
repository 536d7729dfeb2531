import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinerecon.mesh as mesh_module
from helpers import (
    box_mesh,
    closest_point_brute_force,
    mixed_meshes,
    oracle_closest_point,
    points_on_edges,
    random_rigid,
    sheet_mesh,
)
from spinerecon.mesh import (
    SurfaceIndex,
    TriangleMesh,
    _nearest_on_triangles,
    apply_transform,
    center_of_mass,
    closest_points_on_triangles,
    face_normals,
    median_edge_length,
    pair_component_labels,
    principal_axes,
    submesh_by_label,
    transform_mesh,
    triangle_adjacency,
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

    def test_triangle_errors_name_the_first_bad_triangle(self):
        verts = np.eye(4, 3)
        with pytest.raises(ValueError, match=re.escape(
                "triangle 1 has a vertex index out of range: [0, 4, 1] (vertex count 4)")):
            TriangleMesh(verts, [[0, 1, 2], [0, 4, 1], [-1, 1, 2]])
        with pytest.raises(ValueError, match=re.escape(
                "triangle 2 has a vertex index out of range: [-1, 1, 2] (vertex count 4)")):
            TriangleMesh(verts, [[0, 1, 2], [0, 3, 1], [-1, 1, 2]])
        with pytest.raises(ValueError, match=re.escape(
                "triangle 1 repeats a vertex index: [3, 1, 3]")):
            TriangleMesh(verts, [[0, 1, 2], [3, 1, 3], [2, 2, 0]])

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


def component_sizes(mesh: TriangleMesh) -> list[int]:
    """Triangle counts of the edge-connected components, in label order."""
    count, labels = pair_component_labels(mesh.n_triangles, *triangle_adjacency(mesh))
    return np.bincount(labels, minlength=count).tolist()


class TestConnectedComponents:
    def test_two_disjoint_triangles(self):
        m = TriangleMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 0, 0], [11, 0, 0], [10, 1, 0]],
            [[0, 1, 2], [3, 4, 5]],
        )
        assert component_sizes(m) == [1, 1]

    def test_tetrahedron_single_component(self):
        v, t = tetrahedron()
        assert component_sizes(TriangleMesh(v, t)) == [4]

    def test_tet_plus_far_triangle_sizes(self):
        v, t = tetrahedron()
        verts = np.vstack([v, [[50, 0, 0], [51, 0, 0], [50, 1, 0]]])
        tris = np.vstack([t, [[4, 5, 6]]])
        assert component_sizes(TriangleMesh(verts, tris)) == [4, 1]

    def test_vertex_pinch_does_not_connect(self):
        # two triangles sharing exactly one vertex stay separate components
        m = TriangleMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]],
            [[0, 1, 2], [0, 3, 4]],
        )
        assert component_sizes(m) == [1, 1]

    def test_partition_covers_input(self):
        mesh, _, _ = generate_vertebra(default_vertebra_params("L1", tessellation_edge=5.0))
        sizes = component_sizes(mesh)
        assert sum(sizes) == mesh.n_triangles
        # the body, four facet patches, two pedicle bars and the spinous bar
        assert len(sizes) == 8 and sizes[0] == max(sizes)


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
        # each batch holds points on, near and far off the surface, so
        # every chunk builds a tree per band while other threads do too
        from concurrent.futures import ThreadPoolExecutor
        rng = np.random.default_rng(17)
        mesh, _, _ = generate_vertebra(default_vertebra_params("L3", tessellation_edge=3.0))
        index = SurfaceIndex(mesh)
        batches = [np.vstack([
            mesh.vertices[rng.integers(0, mesh.n_vertices, 150)],
            mesh.vertices[rng.integers(0, mesh.n_vertices, 150)] + rng.normal(0.0, 2.0, (150, 3)),
            rng.uniform(-60.0, 60.0, (150, 3)),
            rng.normal(0.0, 300.0, (50, 3)),
        ]) for _ in range(8)]
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


@settings(max_examples=150, deadline=None)
@given(mixed_meshes())
def test_surface_index_matches_brute_force_bit_for_bit(case):
    mesh, rng = case
    center = mesh.vertices.mean(axis=0)
    size = float(np.ptp(mesh.vertices, axis=0).max()) or 1.0
    far = rng.normal(size=(20, 3))
    far *= 10.0 * size / np.linalg.norm(far, axis=1, keepdims=True)
    # one chunk on, near and far off the surface: its search radii span
    # many of the bands that _candidates searches at once
    queries = np.vstack([
        mesh.vertices,
        points_on_edges(mesh.vertices, mesh.triangles, rng, 40),
        mesh.vertices + rng.normal(0.0, 0.05 * size, mesh.vertices.shape),
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
    # 20 congruent copies far above and below split the centroid tree (16
    # points per leaf) at z = 0, so the dual-tree search of a band meets
    # the twins in z order, and one of the two index orders disagrees with it
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


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=20, deadline=None)
@given(mixed_meshes())
def test_surface_query_chunk_seams_match_brute_force_bit_for_bit(case):
    # more queries than one chunk, points on and off the surface; the
    # rows repeat, so the brute-force scan runs once per distinct point
    mesh, rng = case
    base = np.vstack([
        mesh.vertices,
        points_on_edges(mesh.vertices, mesh.triangles, rng, 20),
        rng.uniform(-12.0, 12.0, (20, 3)),
    ])
    rows = np.arange(SurfaceIndex._CHUNK + 13) % len(base)
    queries = base[rows]
    p_ref, d_ref = closest_point_brute_force(mesh, base)
    index = SurfaceIndex(mesh)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SurfaceIndex, "_CHUNK", len(queries))
        p_one, d_one = index.query(queries)
    np.testing.assert_array_equal(_bits(p_one), _bits(p_ref[rows]))
    np.testing.assert_array_equal(_bits(d_one), _bits(d_ref[rows]))
    for chunk in (1, 7, SurfaceIndex._CHUNK):
        count = min(len(queries), 9 * chunk + 4)  # several seams, the last chunk partial
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SurfaceIndex, "_CHUNK", chunk)
            p, d = index.query(queries[:count])
        np.testing.assert_array_equal(_bits(p), _bits(p_one[:count]))
        np.testing.assert_array_equal(_bits(d), _bits(d_one[:count]))


def uv_sphere(radius, n_lat, n_lon) -> TriangleMesh:
    """Latitude-longitude sphere about the origin, two poles and n_lat - 1 rings."""
    theta = np.pi * np.arange(1, n_lat) / n_lat
    phi = 2.0 * np.pi * np.arange(n_lon) / n_lon
    rings = np.stack([np.outer(np.sin(theta), np.cos(phi)),
                      np.outer(np.sin(theta), np.sin(phi)),
                      np.repeat(np.cos(theta)[:, None], n_lon, axis=1)], axis=-1)
    verts = radius * np.vstack([[0.0, 0.0, 1.0], rings.reshape(-1, 3), [0.0, 0.0, -1.0]])
    j = np.arange(n_lon)
    k = (j + 1) % n_lon
    south = len(verts) - 1
    tris = [np.c_[np.zeros(n_lon, dtype=int), 1 + j, 1 + k]]
    for ring in range(n_lat - 2):
        a, b = 1 + ring * n_lon, 1 + (ring + 1) * n_lon
        tris += [np.c_[a + j, b + j, b + k], np.c_[a + j, b + k, a + k]]
    last = 1 + (n_lat - 2) * n_lon
    tris.append(np.c_[last + j, np.full(n_lon, south), last + k])
    return TriangleMesh(verts, np.vstack(tris))


def assert_kernel_blocks_match(mesh, queries, blocks):
    """SurfaceIndex.query at each kernel block size against one unblocked call and brute force.

    Returns the candidate pair count of each query.
    """
    p_ref, d_ref = closest_point_brute_force(mesh, queries)
    index = SurfaceIndex(mesh)
    pairs = np.bincount(index._candidates(queries)[0], minlength=len(queries))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_KERNEL_PAIRS", int(pairs.sum()))
        p_one, d_one = index.query(queries)
    np.testing.assert_array_equal(_bits(p_one), _bits(p_ref))
    np.testing.assert_array_equal(_bits(d_one), _bits(d_ref))
    for block in blocks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesh_module, "_KERNEL_PAIRS", block)
            p, d = index.query(queries)
        np.testing.assert_array_equal(_bits(p), _bits(p_one))
        np.testing.assert_array_equal(_bits(d), _bits(d_one))
    return pairs


@settings(max_examples=20, deadline=None)
@given(mixed_meshes())
def test_kernel_blocks_match_brute_force_bit_for_bit(case):
    # points on and off the surface and one far off it, whose candidate
    # pairs outnumber a block of 1 whenever two triangles tie for it
    mesh, rng = case
    queries = np.vstack([
        mesh.vertices,
        points_on_edges(mesh.vertices, mesh.triangles, rng, 20),
        rng.uniform(-12.0, 12.0, (20, 3)),
        [[300.0, -400.0, 500.0]],
    ])
    assert_kernel_blocks_match(mesh, queries, (1, 7, mesh_module._KERNEL_PAIRS))


def test_kernel_blocks_split_at_queries_past_the_default_block():
    # from the center of a fine sphere every triangle's box is a candidate,
    # so that query forms its own block, larger than the default, between
    # a block of the queries before it and one of those after it
    mesh = uv_sphere(10.0, 60, 150)
    rng = np.random.default_rng(8)
    queries = np.vstack([
        mesh.vertices[::997],
        points_on_edges(mesh.vertices, mesh.triangles, rng, 6),
        [[0.0, 0.0, 0.0], [0.3, -0.2, 0.1]],
        rng.uniform(-14.0, 14.0, (6, 3)),
        [[60.0, 0.0, 0.0]],
    ])
    pairs = assert_kernel_blocks_match(mesh, queries, (7, mesh_module._KERNEL_PAIRS))
    center = len(mesh.vertices[::997]) + 6
    assert pairs[center] == mesh.n_triangles > mesh_module._KERNEL_PAIRS


def ball_search_candidates(index, pts):
    """The pairs the kernel must see: a radius search per query and stratum, then the box test.

    Returns (query, triangle) pairs sorted by query, then triangle.
    """
    upper = index._upper_bound(pts)
    eps = 1e-9 * (1.0 + upper)
    pairs = []
    for stratum in index._strata:
        near = stratum["tree"].query_ball_point(pts, upper + stratum["max_radius"] + eps)
        for q, local in enumerate(near):
            local = np.asarray(local, dtype=np.int64)
            gap = np.maximum(stratum["lo"][local] - pts[q], pts[q] - stratum["hi"][local])
            gap = np.maximum(gap, 0.0)
            keep = np.einsum("ij,ij->i", gap, gap) <= (upper[q] + eps[q]) ** 2
            pairs += [(q, t) for t in stratum["ids"][local[keep]]]
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def assert_bands_match_ball_search(mesh, queries):
    """The banded candidates equal the ball search's, and queries equal brute force, bit for bit."""
    index = SurfaceIndex(mesh)
    qi, ti = index._candidates(queries)
    assert np.all(np.diff(qi) >= 0)
    got = np.c_[qi, ti][np.lexsort((ti, qi))]
    np.testing.assert_array_equal(got, ball_search_candidates(index, queries))
    p_idx, d_idx = index.query(queries)
    p_ref, d_ref = closest_point_brute_force(mesh, queries)
    np.testing.assert_array_equal(_bits(p_idx), _bits(p_ref))
    np.testing.assert_array_equal(_bits(d_idx), _bits(d_ref))
    return index


def point_triangles(points):
    """Zero-area triangles whose three corners all sit on one point (distinct vertex indices)."""
    verts = np.repeat(np.asarray(points, dtype=np.float64), 3, axis=0)
    return verts, np.arange(len(verts)).reshape(-1, 3)


def _vertebra_with_posterior():
    return generate_vertebra(default_vertebra_params("L3", tessellation_edge=6.0))[0]


def _points_and_facets():
    # integer points average to themselves exactly, so their radius is 0;
    # they outnumber the facets, so the median radius is 0 and the facets
    # form a second stratum
    verts, tris = point_triangles(np.random.default_rng(4).integers(-20, 21, (40, 3)))
    box = box_mesh(12, 9, 7)
    return TriangleMesh(np.vstack([verts, box.vertices]),
                        np.vstack([tris, box.triangles + len(verts)]))


@pytest.mark.parametrize("make, zero_radius", [
    (lambda: uv_sphere(10.0, 12, 16), [False]),
    (_vertebra_with_posterior, [False, False]),
    (lambda: TriangleMesh(*point_triangles(np.random.default_rng(3).integers(-20, 21, (30, 3)))),
     [True]),
    (_points_and_facets, [True, False]),
], ids=["one stratum", "two strata", "radius 0", "radius 0 and a second stratum"])
def test_banded_candidates_match_ball_search_on_mixed_distances(make, zero_radius):
    # one chunk of queries on, near and far (10x the mesh size) off the
    # surface, whose search radii span several bands of every stratum
    mesh = make()
    rng = np.random.default_rng(11)
    size = float(np.ptp(mesh.vertices, axis=0).max())
    far = rng.normal(size=(30, 3))
    far *= 10.0 * size / np.linalg.norm(far, axis=1, keepdims=True)
    queries = np.vstack([
        mesh.vertices,
        mesh.vertices + rng.normal(0.0, 0.05 * size, mesh.vertices.shape),
        rng.uniform(-size, size, (60, 3)),
        mesh.vertices.mean(axis=0) + far,
    ])
    index = assert_bands_match_ball_search(mesh, queries)
    max_radii = [stratum["max_radius"] for stratum in index._strata]
    assert [r == 0.0 for r in max_radii] == zero_radius
    upper = index._upper_bound(queries)
    assert all(np.ptp(upper) > 3 * r for r in max_radii)  # several bands wide


def test_search_radius_exactly_on_a_band_edge():
    # queries above the centroid of one triangle; the heights are nudged
    # until a query's search radius is exactly the first radius plus the
    # band width, the edge where the next band starts
    mesh = TriangleMesh([[-3.0, -3.0, 0.0], [3.0, -3.0, 0.0], [0.0, 6.0, 0.0]], [[0, 1, 2]])
    index = SurfaceIndex(mesh)
    width = index._strata[0]["max_radius"]

    def radius(height):
        upper = index._upper_bound(np.array([[0.0, 0.0, height]]))[0]
        return upper + width + 1e-9 * (1.0 + upper)

    base = 0.5  # the smallest radius, where the first band starts
    heights = [base]
    for _ in range(3):
        edge = radius(base) + width
        height = (edge - width - 1e-9) / (1.0 + 1e-9)
        for _ in range(100):
            if radius(height) == edge:
                break
            height = np.nextafter(height, np.inf if radius(height) < edge else -np.inf)
        assert radius(height) == edge
        heights += [np.nextafter(height, -np.inf), height, np.nextafter(height, np.inf)]
        base = height  # the query on the edge starts the next band
    queries = np.array([[x, y, h] for h in heights for x, y in ((0.0, 0.0), (0.5, -0.25))])
    assert_bands_match_ball_search(mesh, queries)


def assert_direct_search_matches(mesh, queries):
    """_nearest_on_triangles against SurfaceIndex and brute force, bit patterns."""
    p_dir, d_dir = _nearest_on_triangles(mesh.triangle_points(), queries)
    for p_ref, d_ref in (SurfaceIndex(mesh).query(queries),
                         closest_point_brute_force(mesh, queries)):
        np.testing.assert_array_equal(_bits(p_dir), _bits(p_ref))
        np.testing.assert_array_equal(_bits(d_dir), _bits(d_ref))
    return p_dir


@settings(max_examples=150, deadline=None)
@given(mixed_meshes(), st.integers(1, 4096))
def test_direct_search_matches_index_and_brute_force_bit_for_bit(case, chunk_pairs):
    # zero-area slivers, coincident corners, grid ties; queries on corners,
    # on edges, off the surface and far away; one chunk of queries or many
    mesh, rng = case
    center = mesh.vertices.mean(axis=0)
    size = float(np.ptp(mesh.vertices, axis=0).max()) or 1.0
    far = rng.normal(size=(10, 3))
    far *= 1e3 * size / np.linalg.norm(far, axis=1, keepdims=True)
    queries = np.vstack([
        mesh.vertices,
        points_on_edges(mesh.vertices, mesh.triangles, rng, 20),
        rng.uniform(-12.0, 12.0, (20, 3)),
        center + far,
    ])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_DIRECT_PAIRS_PER_CHUNK", chunk_pairs)
        assert_direct_search_matches(mesh, queries)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.125, 4.0))
def test_direct_search_resolves_mirror_twins_to_smaller_index(seed, height):
    # twins in z = +h and z = -h are exactly equidistant from z = 0
    rng = np.random.default_rng(seed)
    corners = np.c_[rng.uniform(-5.0, 5.0, (3, 2)), np.zeros(3)]
    queries = np.c_[rng.uniform(-7.0, 7.0, (30, 2)), np.zeros(30)]
    queries[:3] = corners
    queries[3] = corners.mean(axis=0)
    for first in (height, -height):
        verts = np.vstack([corners + [0.0, 0.0, first], corners - [0.0, 0.0, first]])
        p = assert_direct_search_matches(TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]]), queries)
        assert np.all(p[:, 2] == first)


def test_direct_search_rejects_queries_as_the_index_does():
    mesh = TriangleMesh(np.eye(3), [[0, 1, 2]])
    for bad in ([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, 1e200, 0.0]]):
        with pytest.raises(ValueError) as want:
            SurfaceIndex(mesh).query(bad)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            _nearest_on_triangles(mesh.triangle_points(), bad)
    assert "query point 1 " in str(want.value)


@st.composite
def triangle_groups(draw):
    """1-8 groups: (corners, queries) each, of different sizes, some of one or only zero-area triangles."""
    groups = []
    for _ in range(draw(st.integers(1, 8))):
        mesh, rng = draw(mixed_meshes())
        tri = mesh.triangle_points()
        shape = draw(st.sampled_from(["whole", "one", "slivers"]))
        if shape == "one":
            tri = tri[rng.integers(0, len(tri)):][:1]
        elif shape == "slivers":
            # coincident and collinear corners: every triangle has zero area
            tri = tri.copy()
            tri[::2, 2] = tri[::2, 0]
            tri[1::2, 2] = 0.5 * (tri[1::2, 0] + tri[1::2, 1])
        corners = tri.reshape(-1, 3)
        size = float(np.ptp(corners, axis=0).max()) or 1.0
        far = rng.normal(size=(3, 3))
        far *= 1e3 * size / np.linalg.norm(far, axis=1, keepdims=True)
        queries = np.vstack([corners[:draw(st.integers(0, 12))],
                             rng.uniform(-12.0, 12.0, (draw(st.integers(0, 12)), 3)),
                             corners.mean(axis=0) + far[:draw(st.integers(0, 3))]])
        groups.append((tri, queries))
    return groups


@settings(max_examples=150, deadline=None)
@given(triangle_groups(), st.integers(1, 4096))
def test_grouped_direct_search_matches_each_group_bit_for_bit(groups, chunk_pairs):
    # each group's rows of one grouped call against the group's own call
    tri = np.concatenate([t for t, _ in groups])
    queries = np.concatenate([q for _, q in groups])
    sizes = [(len(q), len(t)) for t, q in groups]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_DIRECT_PAIRS_PER_CHUNK", chunk_pairs)
        p_all, d_all = _nearest_on_triangles(tri, queries, sizes)
    start = 0
    for t, q in groups:
        p, d = _nearest_on_triangles(t, q)
        np.testing.assert_array_equal(_bits(p_all[start:start + len(q)]), _bits(p))
        np.testing.assert_array_equal(_bits(d_all[start:start + len(q)]), _bits(d))
        start += len(q)


def test_grouped_direct_search_refuses_a_point_by_its_row_and_group_reach():
    unit = np.eye(3)[None]
    wide = 1e10 * unit  # reach 1e140 along an axis, against 1e150 for the unit triangle
    tri = np.concatenate([unit, wide])
    inside = np.zeros((2, 3))
    far = [[0.0, 1e145, 0.0]]
    _nearest_on_triangles(tri, np.r_[far, inside], [(1, 1), (2, 1)])  # within the unit group's reach
    for bad in (far, [[np.nan, 0.0, 0.0]]):
        with pytest.raises(ValueError) as want:
            _nearest_on_triangles(wide, np.r_[inside[:1], bad])
        assert "query point 1 " in str(want.value)
        with pytest.raises(ValueError, match=re.escape(
                str(want.value).replace("query point 1 ", "query point 3 "))):
            _nearest_on_triangles(tri, np.r_[inside, inside[:1], bad], [(2, 1), (2, 1)])


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
    mesh, _, _ = generate_vertebra(default_vertebra_params("L3"))
    cross = mesh._face_cross
    assert mesh._face_cross is cross
    with pytest.raises(ValueError):
        cross[0, 0] = 1.0
    tri = mesh.triangle_points()
    want = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    np.testing.assert_array_equal(_bits(cross), _bits(want))


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
