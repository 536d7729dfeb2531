import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinerecon.mesh import TriangleMesh
from spinerecon.meshio import (
    _PLY_TYPES,
    MeshParseError,
    _ply_faces_binary,
    _weld_vertices,
    load_mesh,
    save_mesh,
)
from spinerecon.synthetic import default_vertebra_params, generate_vertebra


@pytest.fixture
def labeled_mesh():
    mesh, _, _ = generate_vertebra(default_vertebra_params("L2", tessellation_edge=5.0))
    return mesh


def tet_first_reference_order():
    # triangles reference vertices in index order, so STL welding
    # reproduces the original vertex order
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    t = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    return TriangleMesh(v, t)


class TestStl:
    def test_single_triangle_ascii(self, tmp_path):
        path = tmp_path / "tri.stl"
        path.write_text(
            "solid one\n"
            " facet normal 0 0 1\n"
            "  outer loop\n"
            "   vertex 0 0 0\n"
            "   vertex 1 0 0\n"
            "   vertex 0 1 0\n"
            "  endloop\n"
            " endfacet\n"
            "endsolid one\n"
        )
        mesh = load_mesh(str(path))
        assert mesh.n_vertices == 3
        assert mesh.n_triangles == 1

    def test_binary_round_trip_exact(self, tmp_path):
        mesh = tet_first_reference_order()
        path = str(tmp_path / "m.stl")
        save_mesh(mesh, path)
        back = load_mesh(path)
        np.testing.assert_array_equal(back.vertices, mesh.vertices)
        np.testing.assert_array_equal(back.triangles, mesh.triangles)

    def test_ascii_round_trip_tolerance(self, tmp_path, labeled_mesh):
        path = str(tmp_path / "m.stl")
        save_mesh(labeled_mesh, path, binary=False)
        back = load_mesh(path)
        # STL welds duplicate coordinates; compare the vertex sets
        a = np.unique(back.vertices.round(9), axis=0)
        b = np.unique(labeled_mesh.vertices.round(9), axis=0)
        assert len(a) == len(b)
        assert np.abs(a - b).max() < 1e-5

    def test_truncated_binary_reports_byte(self, tmp_path):
        path = tmp_path / "bad.stl"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(MeshParseError, match="byte 80"):
            load_mesh(str(path))

    def test_bad_ascii_vertex_reports_line(self, tmp_path):
        path = tmp_path / "bad.stl"
        path.write_text(
            "solid x\n facet normal 0 0 1\n  outer loop\n"
            "   vertex 0 0 oops\n   vertex 1 0 0\n   vertex 0 1 0\n"
            "  endloop\n endfacet\nendsolid x\n"
        )
        with pytest.raises(MeshParseError, match=":4:"):
            load_mesh(str(path))


class TestPly:
    def test_binary_round_trip_exact_with_labels(self, tmp_path, labeled_mesh):
        path = str(tmp_path / "m.ply")
        save_mesh(labeled_mesh, path)
        back = load_mesh(path)
        np.testing.assert_array_equal(back.vertices, labeled_mesh.vertices)
        np.testing.assert_array_equal(back.triangles, labeled_mesh.triangles)
        np.testing.assert_array_equal(back.labels, labeled_mesh.labels)

    def test_ascii_round_trip(self, tmp_path, labeled_mesh):
        path = str(tmp_path / "m.ply")
        save_mesh(labeled_mesh, path, binary=False)
        back = load_mesh(path)
        assert np.abs(back.vertices - labeled_mesh.vertices).max() < 1e-5
        np.testing.assert_array_equal(back.labels, labeled_mesh.labels)

    def test_region_property_read_from_foreign_file(self, tmp_path):
        path = tmp_path / "regions.ply"
        path.write_text(
            "ply\nformat ascii 1.0\n"
            "element vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar region\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n"
            "0 0 0 1\n1 0 0 2\n0 1 0 5\n"
            "3 0 1 2\n"
        )
        mesh = load_mesh(str(path))
        np.testing.assert_array_equal(mesh.labels, [1, 2, 5])

    def test_out_of_range_face_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 2\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 9\n"
        )
        with pytest.raises(MeshParseError) as exc:
            load_mesh(str(path))
        assert str(exc.value) == (f"{path}: triangle 1 has a vertex index out of range: "
                                  "[0, 1, 9] (vertex count 3)")

    @pytest.mark.parametrize("vertices, faces, message", [
        ("0 0 0\n1 abc 0\n0 1 0\n", "3 0 1 2\n", "vertex row 1 has a bad number in '1 abc 0'"),
        ("0 0 0\n1 0 0\n0 1 0\n", "3 0 1 x\n", "face row 0 has a bad integer in '3 0 1 x'"),
        ("0 0 0\n1 0 0\n0 1 0\n", "3.0 0 1 2\n",
         "face row 0 has a bad integer in '3.0 0 1 2'"),
    ])
    def test_bad_ascii_number_names_the_row(self, tmp_path, vertices, faces, message):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n" + vertices + faces
        )
        with pytest.raises(MeshParseError) as exc:
            load_mesh(str(path))
        assert str(exc.value) == f"{path}: {message}"

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat binary_big_endian 1.0\nend_header\n")
        with pytest.raises(MeshParseError, match="unsupported PLY format"):
            load_mesh(str(path))

    @pytest.mark.parametrize("line, lineno", [
        ("format", 2),
        ("element vertex", 3),
        ("property", 4),
        ("property list uchar", 10),
        ("element vertex 3.5", 3),
    ])
    def test_malformed_header_line_names_file_and_line(self, tmp_path, line, lineno):
        lines = ("ply\nformat ascii 1.0\nelement vertex 3\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "element face 1\ncomment faces\ncomment follow\n"
                 "property list uchar int vertex_indices\n"
                 "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n").split("\n")
        lines[lineno - 1] = line
        path = tmp_path / "bad.ply"
        path.write_text("\n".join(lines))
        with pytest.raises(MeshParseError, match=rf"bad\.ply:{lineno}: .*'{line}'"):
            load_mesh(str(path))

    def test_truncated_binary_rejected(self, tmp_path, labeled_mesh):
        path = tmp_path / "m.ply"
        save_mesh(labeled_mesh, str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(MeshParseError, match="truncated"):
            load_mesh(str(path))

    def test_foreign_binary_file_with_extra_properties(self, tmp_path):
        # float coordinates, normals to skip, uchar region
        import struct
        header = (
            "ply\nformat binary_little_endian 1.0\n"
            "element vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float nx\nproperty float ny\nproperty float nz\n"
            "property uchar region\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n"
        ).encode()
        body = b""
        for i, (x, y, z) in enumerate([(0, 0, 0), (1, 0, 0), (0, 1, 0)]):
            body += struct.pack("<6fB", x, y, z, 0, 0, 1, i + 1)
        body += struct.pack("<B3i", 3, 0, 1, 2)
        path = tmp_path / "foreign.ply"
        path.write_bytes(header + body)
        mesh = load_mesh(str(path))
        np.testing.assert_array_equal(mesh.labels, [1, 2, 3])
        np.testing.assert_allclose(mesh.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


class TestObj:
    def test_round_trip(self, tmp_path, labeled_mesh):
        path = str(tmp_path / "m.obj")
        save_mesh(labeled_mesh, path)
        back = load_mesh(path)
        np.testing.assert_array_equal(back.vertices, labeled_mesh.vertices)
        np.testing.assert_array_equal(back.triangles, labeled_mesh.triangles)
        assert back.labels is None  # OBJ carries no region labels

    def test_face_referencing_missing_vertex(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99\n")
        with pytest.raises(MeshParseError, match="99"):
            load_mesh(str(path))

    def test_quad_face_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n")
        with pytest.raises(MeshParseError, match=":5:"):
            load_mesh(str(path))

    def test_slash_face_indices(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//1\n")
        mesh = load_mesh(str(path))
        np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2]])


@st.composite
def random_meshes(draw):
    n = draw(st.integers(3, 30))
    coords = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=3 * n, max_size=3 * n))
    tris = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True),
                         min_size=1, max_size=40))
    int32 = np.iinfo(np.int32)
    labels = draw(st.lists(st.integers(int(int32.min), int(int32.max)), min_size=n, max_size=n))
    return TriangleMesh(np.reshape(coords, (n, 3)), tris, labels)


@settings(max_examples=100, deadline=None)
@given(random_meshes(), st.sampled_from(["ply", "obj"]))
def test_ascii_round_trip_is_exact(mesh, fmt):
    # the text writers use %.17g, which reads back to the same double
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"m.{fmt}")
        save_mesh(mesh, path, binary=False)
        back = load_mesh(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    if fmt == "ply":
        np.testing.assert_array_equal(back.labels, mesh.labels)
    else:
        assert back.labels is None


def test_non_finite_vertex_raises_parse_error_naming_file(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 inf\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshParseError, match=r"bad\.obj: vertex 1 has a non-finite"):
        load_mesh(str(path))


def test_unwritable_path_raises_oserror(labeled_mesh, tmp_path):
    target = tmp_path / "missing_dir" / "m.ply"
    with pytest.raises(OSError):
        save_mesh(labeled_mesh, str(target))


def test_unknown_extension_needs_explicit_format(tmp_path, labeled_mesh):
    path = str(tmp_path / "mesh.dat")
    with pytest.raises(ValueError, match="cannot infer"):
        save_mesh(labeled_mesh, path)
    save_mesh(labeled_mesh, path, format="ply")
    back = load_mesh(path, format="ply")
    np.testing.assert_array_equal(back.vertices, labeled_mesh.vertices)


# ---------------------------------------------------------------------------
# Binary PLY face block

_TRI_PLY_VERTS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]


def binary_ply(faces, count_type="uchar", index_type="int", counts=None) -> bytes:
    """Binary PLY over four float vertices; counts[i] overrides face i's count."""
    count_t = np.dtype("<" + _PLY_TYPES[count_type])
    index_t = np.dtype("<" + _PLY_TYPES[index_type])
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(_TRI_PLY_VERTS)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"element face {len(faces)}\n"
        f"property list {count_type} {index_type} vertex_indices\n"
        "end_header\n"
    ).encode()
    body = np.asarray(_TRI_PLY_VERTS, dtype="<f4").tobytes()
    for i, face in enumerate(faces):
        n = len(face) if counts is None else counts[i]
        body += np.array([n], dtype=count_t).tobytes()
        body += np.asarray(face, dtype=index_t).tobytes()
    return header + body


def reference_faces_binary(path, count_t, index_t, count, data, offset):
    """The per-face reader the vectorised parser must agree with."""
    tris = np.empty((count, 3), dtype=np.int64)
    for i in range(count):
        if offset + count_t.itemsize > len(data):
            raise MeshParseError(f"{path}: face data truncated at byte {offset}")
        n = int(np.frombuffer(data, dtype=count_t, count=1, offset=offset)[0])
        offset += count_t.itemsize
        if n != 3:
            raise MeshParseError(
                f"{path}: face {i} at byte {offset} has {n} vertices; only triangles supported"
            )
        if offset + 3 * index_t.itemsize > len(data):
            raise MeshParseError(f"{path}: face data truncated at byte {offset}")
        tris[i] = np.frombuffer(data, dtype=index_t, count=3, offset=offset)
        offset += 3 * index_t.itemsize
    return tris, offset


def _face_block_start(data: bytes) -> int:
    body = data.find(b"\n", data.find(b"end_header")) + 1
    return body + 12 * len(_TRI_PLY_VERTS)


class TestPlyBinaryFaces:
    def test_quad_face_names_index_and_byte(self, tmp_path):
        data = binary_ply([(0, 1, 2), (0, 1, 2, 3), (1, 3, 2)])
        path = tmp_path / "quad.ply"
        path.write_bytes(data)
        # face 1 starts after one 13-byte record; its indices follow the count byte
        byte = _face_block_start(data) + 13 + 1
        with pytest.raises(MeshParseError,
                           match=rf"face 1 at byte {byte} has 4 vertices; only triangles"):
            load_mesh(str(path))

    @pytest.mark.parametrize("cut, inside", [(1, "indices"), (13, "count")])
    def test_cut_inside_face_block_reports_truncation(self, tmp_path, cut, inside):
        data = binary_ply([(0, 1, 2), (1, 3, 2)])
        start = _face_block_start(data)
        # cut=1 leaves face 0's count byte; cut=13 leaves exactly face 0
        path = tmp_path / "cut.ply"
        path.write_bytes(data[: start + cut])
        byte = start + 1 if inside == "indices" else start + 13
        with pytest.raises(MeshParseError, match=rf"face data truncated at byte {byte}$"):
            load_mesh(str(path))

    def test_uint8_uint32_list_round_trip(self, tmp_path):
        faces = [(0, 1, 2), (1, 3, 2)]
        path = tmp_path / "u8u32.ply"
        path.write_bytes(binary_ply(faces, count_type="uint8", index_type="uint32"))
        mesh = load_mesh(str(path))
        assert mesh.triangles.dtype == np.int64
        np.testing.assert_array_equal(mesh.triangles, faces)
        np.testing.assert_array_equal(mesh.vertices, _TRI_PLY_VERTS)
        save_mesh(mesh, str(tmp_path / "again.ply"))
        np.testing.assert_array_equal(load_mesh(str(tmp_path / "again.ply")).triangles, faces)

    def test_float_list_types_rejected(self, tmp_path):
        path = tmp_path / "float.ply"
        path.write_bytes(binary_ply([(0, 1, 2)], index_type="float"))
        with pytest.raises(MeshParseError, match="face list types must be integers"):
            load_mesh(str(path))

    def test_negative_element_count_rejected(self, tmp_path):
        data = binary_ply([(0, 1, 2)]).replace(b"element face 1", b"element face -1")
        path = tmp_path / "neg.ply"
        path.write_bytes(data)
        with pytest.raises(MeshParseError, match="negative element count -1"):
            load_mesh(str(path))


_LIST_TYPES = [("uchar", "int"), ("uint8", "uint32"), ("char", "ushort"),
               ("ushort", "uint"), ("int", "int16"), ("uint", "uchar")]


@st.composite
def face_blocks(draw):
    count_type, index_type = draw(st.sampled_from(_LIST_TYPES))
    count_t = np.dtype("<" + _PLY_TYPES[count_type])
    index_t = np.dtype("<" + _PLY_TYPES[index_type])
    info = np.iinfo(count_t)
    n_faces = draw(st.integers(0, 40))
    counts = [3] * n_faces
    if n_faces and draw(st.booleans()):
        # one face with any count the type holds, written with that many
        # indices (at most 6) so later records shift as in a real file
        counts[draw(st.integers(0, n_faces - 1))] = draw(
            st.integers(int(info.min), min(int(info.max), 300)))
    prefix = draw(st.binary(max_size=7))
    block = prefix
    for n in counts:
        block += np.array([n], dtype=count_t).tobytes()
        k = min(max(n, 0), 6)
        idx = draw(st.lists(st.integers(0, 100), min_size=k, max_size=k))
        block += np.asarray(idx, dtype=index_t).tobytes()
    block += draw(st.binary(max_size=7))  # bytes of a following element
    cut = draw(st.one_of(st.just(len(block)), st.integers(len(prefix), len(block))))
    elem = {"name": "face", "count": n_faces,
            "props": [("list", count_type, index_type, "vertex_indices")]}
    return elem, block[:cut], len(prefix), count_t, index_t


@settings(max_examples=300, deadline=None)
@given(face_blocks())
def test_vectorised_faces_match_reference_loop(case):
    elem, data, offset, count_t, index_t = case
    try:
        expected = reference_faces_binary("f.ply", count_t, index_t, elem["count"],
                                          data, offset)
    except MeshParseError as exc:
        with pytest.raises(MeshParseError) as got:
            _ply_faces_binary("f.ply", elem, data, offset)
        assert str(got.value) == str(exc)
        return
    tris, end = _ply_faces_binary("f.ply", elem, data, offset)
    assert tris.dtype == np.int64
    np.testing.assert_array_equal(tris, expected[0])
    assert end == expected[1]


def reference_weld(flat):
    """The weld as np.unique(axis=0) with first indices and inverse, put in first-occurrence order."""
    uniq, first, inverse = np.unique(flat, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return uniq[order], rank[inverse.ravel()].reshape(-1, 3)


def assert_weld_matches_reference(flat):
    got_v, got_t = _weld_vertices(flat)
    want_v, want_t = reference_weld(flat)
    # bit patterns, so that 0.0 and -0.0 count as different
    assert got_v.shape == want_v.shape
    np.testing.assert_array_equal(got_v.view(np.uint64), want_v.view(np.uint64))
    assert got_t.dtype == want_t.dtype
    np.testing.assert_array_equal(got_t, want_t)


@st.composite
def corner_rows(draw):
    """STL corner rows from a small pool: repeats, signed zeros, sometimes NaN and inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [0.0, -0.0, 1.0, -1.0, 0.5, 3.25, 5e-324, -7.0]
    if draw(st.booleans()):
        pool += [np.nan, np.inf, -np.inf]
    return rng.choice(pool, size=(3 * draw(st.integers(0, 40)), 3))


@settings(max_examples=300, deadline=None)
@given(corner_rows())
def test_weld_matches_unique_reference(flat):
    assert_weld_matches_reference(flat)


def test_weld_keeps_the_first_signed_zero():
    flat = np.array([[-0.0, 1.0, 0.0], [0.0, 1.0, -0.0], [1.0, 1.0, 1.0]])
    verts, tris = _weld_vertices(flat)
    assert_weld_matches_reference(flat)
    assert len(verts) == 2 and np.signbit(verts[0, 0]) and not np.signbit(verts[0, 2])
    np.testing.assert_array_equal(tris, [[0, 0, 1]])


def _write_binary_stl(path, corners):
    corners = np.asarray(corners, dtype="<f4").reshape(-1, 3, 3)
    dtype = np.dtype([("normal", "<f4", 3), ("verts", "<f4", (3, 3)), ("attr", "<u2")])
    records = np.zeros(len(corners), dtype=dtype)
    records["verts"] = corners
    with open(path, "wb") as fh:
        fh.write(b"test".ljust(80, b"\0") + struct.pack("<I", len(corners)) + records.tobytes())


def _write_ascii_stl(path, corners):
    lines = ["solid test"]
    for tri in np.asarray(corners, dtype=float).reshape(-1, 3, 3):
        lines += [" facet normal 0 0 1", "  outer loop"]
        lines += ["   vertex " + " ".join(repr(float(c)) for c in corner) for corner in tri]
        lines += ["  endloop", " endfacet"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines + ["endsolid test", ""]))


def test_weld_of_no_rows_and_the_empty_binary_stl(tmp_path):
    assert_weld_matches_reference(np.empty((0, 3)))
    path = str(tmp_path / "empty.stl")
    _write_binary_stl(path, np.empty((0, 3)))
    mesh = load_mesh(path)
    assert mesh.vertices.shape == (0, 3) and mesh.triangles.shape == (0, 3)


@pytest.mark.parametrize("binary", [True, False])
def test_stl_weld_matches_unique_reference(tmp_path, binary):
    rng = np.random.default_rng(4)
    tri = rng.choice([0.0, -0.0, 1.0, 2.5, -3.0], size=(40, 3, 3))
    distinct = ((tri[:, 0] != tri[:, 1]).any(axis=1) & (tri[:, 1] != tri[:, 2]).any(axis=1)
                & (tri[:, 0] != tri[:, 2]).any(axis=1))
    flat = tri[distinct].reshape(-1, 3)  # no facet repeats a corner
    path = str(tmp_path / "m.stl")
    (_write_binary_stl if binary else _write_ascii_stl)(path, flat)
    mesh = load_mesh(path)
    want_v, want_t = reference_weld(flat)
    np.testing.assert_array_equal(mesh.vertices.view(np.uint64), want_v.view(np.uint64))
    np.testing.assert_array_equal(mesh.triangles, want_t)


@pytest.mark.parametrize("binary", [True, False])
def test_stl_nan_coordinate_error_is_unchanged(tmp_path, binary):
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                     [1, 0, 0], [0, 0, 0], [0, 0, 1],
                     [0, 1, 0], [np.nan, 0, 1], [0, 0, 1]], float)
    with pytest.raises(ValueError) as want:
        TriangleMesh(*reference_weld(flat))
    path = str(tmp_path / "nan.stl")
    (_write_binary_stl if binary else _write_ascii_stl)(path, flat)
    with pytest.raises(MeshParseError, match=re.escape(f"{path}: {want.value}")):
        load_mesh(path)
    assert str(want.value) == "vertex 4 has a non-finite coordinate"


@pytest.mark.parametrize("fmt", ["binary stl", "ascii stl", "ply"])
def test_repeated_corner_names_the_facet(tmp_path, fmt):
    # marching cubes often emits a facet with two equal corners
    corners = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                        [1, 0, 0], [2, 0, 0], [1, 0, 0],
                        [0, 1, 0], [1, 0, 0], [1, 1, 0]], float)
    if fmt == "ply":
        path = str(tmp_path / "m.ply")
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\nelement vertex 4\nproperty float x\n"
                     "property float y\nproperty float z\nelement face 3\n"
                     "property list uchar int vertex_indices\nend_header\n"
                     "0 0 0\n1 0 0\n0 1 0\n2 0 0\n3 0 1 2\n3 1 3 1\n3 2 1 0\n")
    else:
        path = str(tmp_path / "m.stl")
        (_write_binary_stl if fmt == "binary stl" else _write_ascii_stl)(path, corners)
    with pytest.raises(MeshParseError, match=re.escape(
            f"{path}: triangle 1 repeats a vertex index: [1, 3, 1]")):
        load_mesh(path)

