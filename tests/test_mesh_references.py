"""Whole-mesh passes against the implementations they replaced.

Each reference below is the earlier form of a library function (np.unique,
lexsort, mean(axis=1), np.add.at, column min/max, np.setdiff1d, a k-d tree,
a per-call triangle scan, a SurfaceIndex per facet, scipy's csgraph, a
facet sweep that searches and warps one level pair at a time, a direct
search that pruned triangles by box before the kernel). The
library must match it bit for bit, on meshes with unreferenced vertices,
zero-area triangles and edges shared by three or more triangles.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components

import spinerecon as sr
import spinerecon.facets as facets_module
import spinerecon.mesh as mesh_module
from helpers import ellipse_disk, fsu_with_gap, readme_case, sheet_mesh, triangle_groups
from spinerecon.anatomy import PATIENT_AXES, _BRIDGE_HOPS, estimate_axes, extract_endplates
from spinerecon.facets import GapReport, elastic_warp, measure_gap
from spinerecon.mesh import (
    LABEL_FACET_INFERIOR_LEFT,
    LABEL_FACET_SUPERIOR_LEFT,
    LABEL_VERTEBRAL_BODY,
    SurfaceIndex,
    TriangleMesh,
    center_of_mass,
    face_normals,
    median_edge_length,
    pair_component_labels,
    submesh_by_label,
    triangle_adjacency,
)
from spinerecon.spine import SpineModel, pair_name
from spinerecon.synthetic import default_vertebra_params, generate_vertebra


def reference_submesh(mesh, triangle_indices):
    tri = mesh.triangles[np.asarray(triangle_indices, dtype=np.int64)]
    used = np.unique(tri)
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    labels = mesh.labels[used] if mesh.labels is not None else None
    return TriangleMesh(mesh.vertices[used], remap[tri], labels)


def _reference_undirected_edges(triangles):
    edges = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    return np.sort(edges, axis=1)


def reference_triangle_adjacency(mesh):
    m = mesh.n_triangles
    edges = _reference_undirected_edges(mesh.triangles)
    tri_of_edge = np.repeat(np.arange(m, dtype=np.int64), 3)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges = edges[order]
    tri_of_edge = tri_of_edge[order]
    same = np.all(edges[1:] == edges[:-1], axis=1)
    return tri_of_edge[:-1][same], tri_of_edge[1:][same]


def reference_median_edge_length(mesh):
    edges = _reference_undirected_edges(mesh.triangles)
    n = mesh.n_vertices
    first, second = np.divmod(np.unique(edges[:, 0] * n + edges[:, 1]), n)
    lengths = np.linalg.norm(mesh.vertices[first] - mesh.vertices[second], axis=1)
    return float(np.median(lengths))


def _reference_face_areas(mesh):
    tri = mesh.vertices[mesh.triangles]
    return 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)


def reference_center_of_mass(mesh):
    areas = _reference_face_areas(mesh)
    total = areas.sum()
    if total <= 0.0:
        raise ValueError("mesh has no triangles with positive area")
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    return (areas[:, None] * centroids).sum(axis=0) / total


def reference_elastic_warp(mesh, region, displacement, falloff_radius):
    from scipy.spatial import cKDTree

    region = np.asarray(region, dtype=np.int64)
    disp = np.asarray(displacement, dtype=np.float64)
    if disp.ndim == 1:
        disp = np.broadcast_to(disp.reshape(1, 3), (len(region), 3))
    verts = mesh.vertices.copy()
    others = np.setdiff1d(np.arange(mesh.n_vertices), region, assume_unique=False)
    if len(others) and len(region):
        d, _ = cKDTree(verts[region]).query(verts[others])
        weight = np.exp(-((d / falloff_radius) ** 2))
        verts[others] += weight[:, None] * disp.mean(axis=0)
    verts[region] += disp
    return TriangleMesh(verts, mesh.triangles, mesh.labels)


@st.composite
def messy_meshes(draw):
    """Meshes with unreferenced vertices, zero-area triangles and fans on one edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 40))
    verts = rng.uniform(-10.0, 10.0, (n, 3))
    if draw(st.booleans()):
        # a coarse grid makes coincident and collinear corners (zero-area triangles)
        verts = np.round(verts / 5.0) * 5.0
    pool = rng.choice(n, draw(st.integers(3, n)), replace=False)  # the rest stay unreferenced
    tris = [rng.choice(pool, 3, replace=False) for _ in range(draw(st.integers(1, 40)))]
    for _ in range(draw(st.integers(0, 3))):
        # three or more triangles on one edge, some of them repeats
        i, j = rng.choice(pool, 2, replace=False)
        for k in rng.choice(pool, draw(st.integers(2, 4))):
            if k not in (i, j):
                tris.append(rng.permutation([i, j, k]))
    tris = np.array(tris)[rng.permutation(len(tris))]
    return TriangleMesh(verts, tris, rng.integers(0, 6, n)), rng


@settings(max_examples=150, deadline=None)
@given(messy_meshes())
def test_submesh_matches_unique_reference(case):
    mesh, rng = case
    # unsorted triangle indices with repeats
    picked = rng.integers(0, mesh.n_triangles, rng.integers(0, 2 * mesh.n_triangles + 1))
    got, want = mesh.submesh(picked), reference_submesh(mesh, picked)
    np.testing.assert_array_equal(got.vertices, want.vertices)
    np.testing.assert_array_equal(got.triangles, want.triangles)
    np.testing.assert_array_equal(got.labels, want.labels)


@settings(max_examples=150, deadline=None)
@given(messy_meshes())
def test_triangle_adjacency_matches_lexsort_reference(case):
    mesh, _ = case
    got, want = triangle_adjacency(mesh), reference_triangle_adjacency(mesh)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def reference_pair_component_labels(n_triangles, i, j):
    graph = coo_matrix((np.ones(len(i)), (i, j)), shape=(n_triangles, n_triangles))
    return csgraph_components(graph, directed=False)


@st.composite
def edge_lists(draw):
    """Graphs with isolated nodes, self-loops, repeated edges, or no nodes or edges."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    edges += [(k, k) for k in draw(st.lists(node, max_size=3))]  # self-loops
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []  # repeats
    i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return n, i, j


@settings(max_examples=500, deadline=None)
@given(edge_lists())
def test_pair_component_labels_match_csgraph(graph):
    n, i, j = graph
    count, labels = pair_component_labels(n, i, j)
    want_count, want_labels = reference_pair_component_labels(n, i, j)
    assert count == want_count
    np.testing.assert_array_equal(labels, want_labels)


def reference_extract_endplates(mesh, axes, cos_threshold=0.8):
    """Endplates with every triangle of the mesh labelled by csgraph."""
    dots = face_normals(mesh) @ axes.longitudinal
    adj_i, adj_j = triangle_adjacency(mesh)
    plates = []
    for sign in (1.0, -1.0):
        candidate = sign * dots >= cos_threshold
        member = candidate.copy()
        for _ in range(_BRIDGE_HOPS):
            grown = member.copy()
            grown[adj_j[member[adj_i]]] = True
            grown[adj_i[member[adj_j]]] = True
            member = grown
        inside = member[adj_i] & member[adj_j]
        _, comp = reference_pair_component_labels(mesh.n_triangles, adj_i[inside], adj_j[inside])
        winner = int(np.argmax(np.bincount(comp[candidate])))
        plates.append(mesh.submesh(np.nonzero(candidate & (comp == winner))[0]))
    return plates


@pytest.mark.parametrize("seed", range(6))
def test_extract_endplates_matches_all_triangle_labelling(seed):
    # noisy bodies split each plate into up to a dozen candidate regions
    rng = np.random.default_rng(seed)
    level = ("L1", "L2", "L3", "L4", "L5", "L3")[seed]
    mesh, _, _ = generate_vertebra(default_vertebra_params(level, tessellation_edge=3.0))
    body = submesh_by_label(mesh, LABEL_VERTEBRAL_BODY)
    body = TriangleMesh(body.vertices + rng.normal(0.0, 0.3 + 0.1 * seed, body.vertices.shape),
                        body.triangles)
    axes = estimate_axes(*extract_endplates(body, PATIENT_AXES), PATIENT_AXES)
    for cos_threshold in (0.8, 0.95):
        for got, want in zip(extract_endplates(body, axes, cos_threshold),
                             reference_extract_endplates(body, axes, cos_threshold)):
            np.testing.assert_array_equal(got.vertices, want.vertices)
            np.testing.assert_array_equal(got.triangles, want.triangles)


@pytest.mark.parametrize("seed", range(8))
def test_extract_endplates_tie_goes_to_the_component_of_the_smallest_triangle(seed):
    # two equal disks face each way; the triangle order is shuffled, so either
    # disk may hold the smallest triangle of its plate
    rng = np.random.default_rng(seed)
    disks = [ellipse_disk(6.0, 4.0, edge=2.0, z=z) for z in (0.0, 30.0, -20.0, -50.0)]
    n = disks[0].n_vertices  # the same tessellation each time
    tris = np.vstack([(d.triangles[:, ::-1] if k >= 2 else d.triangles) + k * n
                      for k, d in enumerate(disks)])
    tris = tris[rng.permutation(len(tris))]
    mesh = TriangleMesh(np.vstack([d.vertices for d in disks]), tris)
    got = extract_endplates(mesh, PATIENT_AXES)
    for g, w in zip(got, reference_extract_endplates(mesh, PATIENT_AXES)):
        np.testing.assert_array_equal(g.vertices, w.vertices)
        np.testing.assert_array_equal(g.triangles, w.triangles)
    first_up = tris[np.flatnonzero(tris.max(axis=1) < 2 * n)[0]]  # of disk 0 or disk 1
    assert got[0].vertices[0, 2] == (0.0 if first_up.max() < n else 30.0)


def test_triangle_adjacency_chains_an_edge_shared_by_three_triangles():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]], float)
    mesh = TriangleMesh(verts, [[0, 1, 2], [1, 0, 3], [4, 1, 0]])
    i, j = triangle_adjacency(mesh)
    np.testing.assert_array_equal(i, [0, 1])
    np.testing.assert_array_equal(j, [1, 2])


@settings(max_examples=150, deadline=None)
@given(messy_meshes())
def test_median_edge_length_matches_unique_reference(case):
    mesh, _ = case
    assert median_edge_length(mesh) == reference_median_edge_length(mesh)


@settings(max_examples=150, deadline=None)
@given(messy_meshes())
def test_center_of_mass_matches_mean_reference(case):
    mesh, _ = case
    try:
        want = reference_center_of_mass(mesh)
    except ValueError:
        with pytest.raises(ValueError, match="no triangles with positive area"):
            center_of_mass(mesh)
        return
    np.testing.assert_array_equal(center_of_mass(mesh), want)


@settings(max_examples=150, deadline=None)
@given(messy_meshes(), st.booleans())
def test_elastic_warp_matches_setdiff_reference(case, per_vertex):
    mesh, rng = case
    # unsorted region with repeated vertices, sometimes the whole mesh
    size = rng.integers(1, 2 * mesh.n_vertices + 1)
    region = rng.integers(0, mesh.n_vertices, size)
    disp = rng.normal(size=(size, 3) if per_vertex else 3)
    got = elastic_warp(mesh, region, disp, 3.0)
    np.testing.assert_array_equal(got.vertices, reference_elastic_warp(mesh, region, disp, 3.0).vertices)


def reference_facet_triangles(mesh, region):
    member = np.zeros(mesh.n_vertices, dtype=bool)
    member[region] = True
    return np.nonzero(np.all(member[mesh.triangles], axis=1))[0]


def reference_signed_gaps(pair, points, lower):
    """The facet search with the facet triangles scanned on every call and a SurfaceIndex per call."""
    lower_triangles = reference_facet_triangles(lower, pair.lower_region)
    if len(lower_triangles) == 0:
        raise ValueError("facet region has no triangles")
    surface = SurfaceIndex(lower.submesh(lower_triangles))
    closest, dist = surface.query(points)
    side = np.sign(np.einsum("ij,j->i", points - closest, pair.contact_normal))
    return closest, dist * np.where(side == 0.0, 1.0, side)


def reference_measure_gap(pair, upper, lower):
    signed = reference_signed_gaps(pair, upper.vertices[pair.upper_region], lower)[1]
    lo, hi = float(signed.min()), float(signed.max())
    return GapReport(mean_gap=min(max(float(signed.mean()), lo), hi),
                     min_gap=lo, max_gap=hi, sample_count=len(signed))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_warp_matches_reference(mesh, region, disp, falloff_radius=5.0):
    got = elastic_warp(mesh, region, disp, falloff_radius).vertices
    want = reference_elastic_warp(mesh, region, disp, falloff_radius).vertices
    # bit patterns, so that 0.0 and -0.0 count as different
    np.testing.assert_array_equal(_bits(got), _bits(want))
    return got


@pytest.mark.parametrize("per_vertex", [False, True])
def test_elastic_warp_keeps_signed_zeros_of_reference(per_vertex):
    rng = np.random.default_rng(3)
    verts = rng.choice([0.0, -0.0, 1.5, -2.0, 40.0, 200.0], size=(300, 3))
    mesh = TriangleMesh(verts, [[0, 1, 2]])
    region = rng.choice(300, 12, replace=False)
    if per_vertex:
        disp = rng.choice([0.0, -0.0, -1.0, 2.0], size=(12, 3))
        disp[:, 0] = -0.0
    else:
        disp = np.array([-0.0, 0.0, -1.0])
    got = assert_warp_matches_reference(mesh, region, disp)
    # x = -0.0 plus a -0.0 shift stays -0.0
    assert np.any((got[:, 0] == 0.0) & np.signbit(got[:, 0]))


def test_elastic_warp_matches_reference_where_the_weight_underflows():
    # x = 0.0 exactly, so even a subnormal weight changes the bits; the
    # weight exp(-(d / 5)^2) underflows to 0 at d of about 136.5 mm
    d = np.linspace(0.0, 300.0, 3001)
    verts = np.column_stack([np.zeros_like(d), d, np.zeros_like(d)])
    mesh = TriangleMesh(verts, [[0, 1, 2]])
    got = assert_warp_matches_reference(mesh, [0], np.array([1.0, 0.0, 0.0]))
    moved = got[:, 0] != 0.0
    assert moved[(d > 130.0) & (d < 136.0)].all()  # subnormal weights still move x = 0.0
    assert not moved[d > 137.0].any()


@pytest.mark.parametrize("per_vertex", [False, True])
def test_elastic_warp_one_vertex_region_matches_reference(per_vertex):
    rng = np.random.default_rng(5)
    mesh = TriangleMesh(rng.uniform(-60.0, 60.0, (2000, 3)), [[0, 1, 2]])
    disp = rng.normal(size=(1, 3) if per_vertex else 3)
    assert_warp_matches_reference(mesh, [1234], disp)


@pytest.mark.parametrize("size", [200, 1500])
def test_elastic_warp_large_region_matches_reference(size):
    # the per-region-vertex loop over hundreds of vertices, against a
    # tree with many leaves; repeated region entries included
    rng = np.random.default_rng(size)
    mesh = TriangleMesh(rng.uniform(-60.0, 60.0, (4000, 3)), [[0, 1, 2]])
    region = rng.integers(0, mesh.n_vertices, size)
    assert_warp_matches_reference(mesh, region, rng.normal(size=(size, 3)))
    assert_warp_matches_reference(mesh, region, rng.normal(size=3))


@pytest.mark.parametrize("scatter", [False, True])
def test_facet_pair_triangles_match_per_call_scan(scatter):
    spine, _ = sr.generate_spine(sr.SpineParams(seed=1))
    rng = np.random.default_rng(2)
    for upper, lower in spine.pairs():
        lower_mesh = lower.mesh
        if scatter:
            # facet labels on scattered vertices: many triangles are partly in the region
            labels = lower_mesh.labels.copy()
            scattered = (labels <= 1) & (rng.random(len(labels)) < 0.5)
            labels[scattered] = mesh_module.LABEL_FACET_SUPERIOR_LEFT
            lower_mesh = TriangleMesh(lower_mesh.vertices, lower_mesh.triangles, labels)
        for pair in facets_module.identify_facet_pairs(upper.mesh, lower_mesh):
            want = reference_facet_triangles(lower_mesh, pair.lower_region)
            assert len(want) > 0
            np.testing.assert_array_equal(pair.lower_triangles, want)


def reference_spacing_step(pair, queries, lower, want):
    """One side's step with its own searches, as each side was stepped before the sweep was batched."""
    n = pair.contact_normal
    offset = lower.vertices[pair.lower_region].mean(axis=0) - queries.mean(axis=0)
    slide = offset - (offset @ n) * n
    slid = queries + slide
    rel = slid - reference_signed_gaps(pair, slid, lower)[0]
    height = rel @ n
    overhang_sq = np.maximum(np.einsum("ij,ij->i", rel, rel) - height * height, 0.0)
    land = facets_module._landing_distance(np.sqrt(overhang_sq), want)
    target = np.maximum(np.sqrt(np.maximum(land * land - overhang_sq, 0.0)),
                        facets_module._PLANE_CLEARANCE_MM)
    return slide + (target - height)[:, None] * n


def reference_align_facets(spine, want, falloff_radius, max_passes=5):
    """The sequential sweep: level pairs superior first, one search per side and
    step, and each pair's upper level warped before the next pair is measured.

    Returns the aligned spine, the gap reports and the count of sides off target.
    """
    meshes = {v.level: v.mesh for v in spine.vertebrae}
    jobs = [(pair_name(u.level, lo.level), u.level, lo.level,
             facets_module.identify_facet_pairs(u.mesh, lo.mesh)) for u, lo in spine.pairs()]
    reports = {name: {} for name, *_ in jobs}
    unconverged = 0
    for _ in range(max_passes):
        moved = False
        for name, upper_level, lower_level, pairs in jobs:
            upper, lower = meshes[upper_level], meshes[lower_level]
            regions, steps = [], []
            for pair in pairs:
                report = reports[name][pair.side] = reference_measure_gap(pair, upper, lower)
                if not facets_module._on_target(report, want):
                    regions.append(pair.upper_region)
                    steps.append(reference_spacing_step(
                        pair, upper.vertices[pair.upper_region], lower, want))
            if regions:
                meshes[upper_level] = reference_elastic_warp(
                    upper, np.concatenate(regions), np.concatenate(steps), falloff_radius)
                moved = True
        if not moved:
            break
    else:
        for name, upper_level, lower_level, pairs in jobs:
            for pair in pairs:
                report = reports[name][pair.side] = reference_measure_gap(
                    pair, meshes[upper_level], meshes[lower_level])
                unconverged += not facets_module._on_target(report, want)
    aligned = SpineModel(tuple(v.with_(mesh=meshes[v.level]) for v in spine.vertebrae))
    return aligned, {name: {side: r.to_dict() for side, r in sides.items()}
                     for name, sides in reports.items()}, unconverged


def sliding_case():
    """10 degrees and 10 mm per level: at L3-L4 the left inferior facet slides past the right one."""
    spine, _ = sr.generate_spine(sr.SpineParams(seed=1))
    targets, _, _ = sr.make_registration_case(
        spine, rotation_deg=10, translation_mm=10, scale_range=(0.9, 1.1), seed=101)
    return sr.register_spine(spine, targets, mode="ours").spine


def test_align_facets_and_gap_summary_match_reference_loop(caplog):
    # the README case (the first sweep lands every pair, the second moves
    # nothing); a 5-level stack whose 20 mm falloff drags each landed pair
    # off again, over five passes and cut at one; sides sliding past each other
    stack = fsu_with_gap(4.0, levels=5)
    cases = [(readme_case(), 5.0, 5, 0), (stack, 20.0, 5, 0), (stack, 20.0, 1, 6),
             (sliding_case(), 5.0, 5, 0)]
    for spine, falloff_radius, max_passes, unconverged in cases:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="spinerecon.facets"):
            got, got_gaps = facets_module.align_facets(spine, 1.5, falloff_radius, max_passes)
        want, want_gaps, want_unconverged = reference_align_facets(
            spine, 1.5, falloff_radius, max_passes)
        assert sum("did not converge" in r.getMessage() for r in caplog.records) \
            == want_unconverged == unconverged
        assert got_gaps == want_gaps == facets_module.facet_gap_summary(want)
        for a, b in zip(got.vertebrae, want.vertebrae):
            np.testing.assert_array_equal(_bits(a.mesh.vertices), _bits(b.mesh.vertices))


def _sheet_facet(label, nx, ny, z, rng, tilt=0.0):
    sheet = sheet_mesh(12.0, 10.0, nx=nx, ny=ny, center=(0.0, 0.0, z))
    # bumpy and tilted, so the gap varies over the patch
    verts = sheet.vertices + np.c_[np.zeros((sheet.n_vertices, 2)),
                                   tilt * sheet.vertices[:, 0]
                                   + rng.uniform(-0.3, 0.3, sheet.n_vertices)]
    return TriangleMesh(verts, sheet.triangles, np.full(sheet.n_vertices, label))


# upper vertices x lower triangles: 108, 3024 and 14400 pairs
_SHEET_FACETS = [(3, 3), (6, 7), (10, 9)]


@pytest.mark.parametrize("chunk_pairs", [1, 500, mesh_module._DIRECT_PAIRS_PER_CHUNK])
@pytest.mark.parametrize("nx, ny", _SHEET_FACETS)
def test_measure_gap_matches_reference_on_sheet_facets(nx, ny, chunk_pairs, monkeypatch):
    # from one query per chunk to the whole patch in one chunk
    monkeypatch.setattr(mesh_module, "_DIRECT_PAIRS_PER_CHUNK", chunk_pairs)
    rng = np.random.default_rng(nx * ny)
    upper = _sheet_facet(LABEL_FACET_INFERIOR_LEFT, nx, ny, 0.3, rng, tilt=0.2)
    lower = _sheet_facet(LABEL_FACET_SUPERIOR_LEFT, nx + 1, ny, 0.0, rng)
    (pair,) = facets_module.identify_facet_pairs(upper, lower)
    got = measure_gap(pair, upper, lower)
    assert got.min_gap < 0.0 < got.max_gap  # the tilt takes part of the patch through the other
    assert got == reference_measure_gap(pair, upper, lower)


def reference_nearest_on_triangles(tri, points, sizes=None):
    """The direct search that pruned before the kernel.

    Each query's upper bound U is its distance to its group's nearest
    corner; a triangle reaches the kernel only if its box lies within
    U + eps of the query.
    """
    pts = mesh_module._as_points(points)
    n_pts, n_tri = np.reshape(sizes if sizes is not None else (len(pts), len(tri)), (-1, 2)).T
    first = np.cumsum(n_tri) - n_tri
    lo, hi, reach = mesh_module._triangle_boxes(tri, first)
    group = np.repeat(np.arange(len(n_pts)), n_pts)
    mesh_module._check_reach(pts, tri[first, 0].take(group, axis=0), reach.take(group))
    first = first.take(group)
    count = n_tri.take(group)
    ends = np.cumsum(count)
    corners = mesh_module._corner_rows(tri)
    out_p = np.empty_like(pts)
    out_d = np.empty(len(pts))
    start = 0
    while start < len(pts):
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - count[start] + mesh_module._DIRECT_PAIRS_PER_CHUNK, "right")))
        chunk = pts[start:stop]
        per = count[start:stop]
        starts = np.cumsum(per) - per
        qi = np.repeat(np.arange(stop - start), per)
        ti = np.arange(len(qi)) + np.repeat(first[start:stop] - starts, per)
        p = chunk.take(qi, axis=0)
        offset = tri.take(ti, axis=0)
        np.subtract(p[:, None, :], offset, out=offset)
        upper = np.sqrt(np.minimum.reduceat(
            np.einsum("pkj,pkj->pk", offset, offset).ravel(), 3 * starts))
        eps = 1e-9 * (1.0 + upper)
        gap = np.maximum(lo.take(ti, axis=0) - p, p - hi.take(ti, axis=0))
        np.maximum(gap, 0.0, out=gap)
        keep = np.flatnonzero(np.einsum("pj,pj->p", gap, gap) <= ((upper + eps) ** 2).take(qi))
        out_p[start:stop], out_d[start:stop] = mesh_module._nearest_per_query(
            corners, chunk, qi[keep], ti[keep])
        start = stop
    return out_p, out_d


@pytest.mark.parametrize("chunk_pairs", [1, 500, mesh_module._DIRECT_PAIRS_PER_CHUNK])
@settings(max_examples=100, deadline=None)
@given(triangle_groups())
def test_direct_search_matches_pruned_reference(chunk_pairs, groups):
    # ties on shared corners, zero-area slivers, points 10 and 1,000 times a group's size away
    tri = np.concatenate([t for t, _ in groups])
    queries = np.concatenate([q for _, q in groups])
    sizes = [(len(q), len(t)) for t, q in groups]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_DIRECT_PAIRS_PER_CHUNK", chunk_pairs)
        got = mesh_module._nearest_on_triangles(tri, queries, sizes)
        want = reference_nearest_on_triangles(tri, queries, sizes)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(_bits(a), _bits(b))
