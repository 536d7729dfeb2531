"""Whole-mesh passes against the implementations they replaced.

Each reference below is the earlier form of a library function (np.unique,
lexsort, mean(axis=1), np.add.at, column min/max, np.setdiff1d, a k-d tree,
a per-call triangle scan, a SurfaceIndex per facet). The library must
match it bit for bit, on meshes with unreferenced vertices, zero-area
triangles and edges shared by three or more triangles.
"""

import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinerecon as sr
import spinerecon.facets as facets_module
import spinerecon.mesh as mesh_module
from helpers import sheet_mesh
from spinerecon.facets import GapReport, elastic_warp, measure_gap
from spinerecon.mesh import (
    LABEL_FACET_INFERIOR_LEFT,
    LABEL_FACET_SUPERIOR_LEFT,
    SurfaceIndex,
    TriangleMesh,
    center_of_mass,
    median_edge_length,
    principal_axes,
    triangle_adjacency,
)


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


def reference_vertex_area_weights(mesh):
    areas = _reference_face_areas(mesh)
    w = np.zeros(mesh.n_vertices)
    for k in range(3):
        np.add.at(w, mesh.triangles[:, k], areas / 3.0)
    return w


def reference_principal_axes(mesh):
    """The axes of the oriented bounding box, ordered by its column min/max extents."""
    verts = mesh.vertices
    if len(verts) < 3:
        raise ValueError("need at least 3 vertices for principal axes")
    w = reference_vertex_area_weights(mesh)
    if w.sum() <= 0.0:
        w = np.ones(len(verts))
    w = w / w.sum()
    mu = w @ verts
    centered = verts - mu
    cov = (centered * w[:, None]).T @ centered
    evals, evecs = np.linalg.eigh(cov)
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
    flips = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    traces = [np.trace(axes * np.array(f)) for f in flips]
    return axes * np.array(flips[int(np.argmax(traces))])


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
@given(messy_meshes())
def test_area_weights_and_obb_match_add_at_reference(case):
    mesh, _ = case
    np.testing.assert_array_equal(mesh_module._vertex_area_weights(mesh),
                                  reference_vertex_area_weights(mesh))
    try:
        want = reference_principal_axes(mesh)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            principal_axes(mesh)
        return
    np.testing.assert_array_equal(principal_axes(mesh), want)


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


def reference_measure_gap(pair, upper, lower):
    """measure_gap with the facet triangles scanned on every call and a SurfaceIndex per call."""
    lower_triangles = reference_facet_triangles(lower, pair.lower_region)
    if len(lower_triangles) == 0:
        raise ValueError("facet region has no triangles")
    surface = SurfaceIndex(lower.submesh(lower_triangles))
    queries = upper.vertices[pair.upper_region]
    closest, dist = surface.query(queries)
    side = np.sign(np.einsum("ij,j->i", queries - closest, pair.contact_normal))
    signed = dist * np.where(side == 0.0, 1.0, side)
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


def test_align_facets_and_gap_summary_match_reference_loop(monkeypatch, caplog):
    # the README quick-start case, where three pairs run all five passes
    spine, _ = sr.generate_spine(sr.SpineParams(seed=1))
    targets, _, _ = sr.make_registration_case(
        spine, rotation_deg=6, translation_mm=6, scale_range=(0.95, 1.1), seed=7)
    registered = sr.register_spine(spine, targets, mode="ours").spine

    def align_and_measure():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="spinerecon.facets"):
            aligned = facets_module.align_facets(registered, target_width=1.5)
        unconverged = sum("did not converge in 5 passes" in r.getMessage()
                          for r in caplog.records)
        return aligned, facets_module.facet_gap_summary(aligned), unconverged

    got, got_gaps, got_unconverged = align_and_measure()
    monkeypatch.setattr(facets_module, "elastic_warp", reference_elastic_warp)
    monkeypatch.setattr(facets_module, "measure_gap", reference_measure_gap)
    want, want_gaps, want_unconverged = align_and_measure()

    assert got_unconverged == want_unconverged == 3
    assert got_gaps == want_gaps
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
