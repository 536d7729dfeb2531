"""Whole-mesh passes against the implementations they replaced.

Each reference below is the earlier form of a library function (np.unique,
lexsort, mean(axis=1), np.add.at, column min/max, np.setdiff1d). The
library must match it bit for bit, on meshes with unreferenced vertices,
zero-area triangles and edges shared by three or more triangles.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinerecon.mesh as mesh_module
from spinerecon.facets import elastic_warp
from spinerecon.mesh import (
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
