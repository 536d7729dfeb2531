"""Mesh file I/O: STL (ASCII/binary), PLY (ASCII/binary little-endian), OBJ.

PLY carries an optional per-vertex integer property named "region"
that maps to TriangleMesh.labels; STL and OBJ drop labels. Units are
millimeters by convention; no unit metadata is read or written.

Binary blocks (STL facets, PLY vertices and PLY faces) are read with one
structured-dtype np.frombuffer each; a binary PLY face list must use
integer types and hold exactly three indices per face. ASCII formats
are parsed line by line, and errors name the line or byte at fault.
"""

from __future__ import annotations

import os
import re
import struct

import numpy as np

from .mesh import TriangleMesh, face_normals

_FORMATS = ("stl", "ply", "obj")

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}
_PLY_INT_TYPES = {"char", "int8", "uchar", "uint8", "short", "int16",
                  "ushort", "uint16", "int", "int32", "uint", "uint32"}
# the header ends at the first line holding only this keyword (and trailing blanks)
_PLY_END_HEADER = re.compile(rb"^end_header[ \t\r]*$", re.M)


class MeshParseError(ValueError):
    """Malformed mesh file; the message names the offending line or byte."""


def _resolve_format(path: str, format: str | None) -> str:
    if format is not None:
        fmt = format.lower()
        if fmt not in _FORMATS:
            raise ValueError(f"unknown mesh format {format!r}; expected one of {_FORMATS}")
        return fmt
    ext = os.path.splitext(path)[1].lower().lstrip(".")
    if ext in _FORMATS:
        return ext
    raise ValueError(f"cannot infer mesh format from {path!r}; pass format explicitly")


def load_mesh(path: str, format: str | None = None) -> TriangleMesh:
    """Load a triangle mesh, auto-detecting the format from the extension."""
    fmt = _resolve_format(path, format)
    loader = {"stl": _load_stl, "ply": _load_ply, "obj": _load_obj}[fmt]
    try:
        return loader(path)
    except MeshParseError:
        raise
    except ValueError as e:
        raise MeshParseError(f"{path}: {e}") from e


def save_mesh(mesh: TriangleMesh, path: str, format: str | None = None,
              binary: bool = True) -> None:
    """Write a mesh; labels survive only in PLY ("region" property)."""
    fmt = _resolve_format(path, format)
    if fmt == "stl":
        _save_stl(mesh, path, binary=binary)
    elif fmt == "ply":
        _save_ply(mesh, path, binary=binary)
    else:
        _save_obj(mesh, path)


# ---------------------------------------------------------------------------
# STL

def _weld_vertices(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge equal coordinate rows (-0.0 equals 0.0), keeping first-occurrence order.

    One stable lexsort puts equal rows next to each other in file order,
    so a row that differs from the one before starts a vertex, and that
    row is the vertex's first occurrence. The same arrays as
    np.unique(axis=0) with its first indices and inverse, without the
    structured-dtype sort.
    """
    order = np.lexsort((flat[:, 2], flat[:, 1], flat[:, 0]))
    ordered = flat.take(order, axis=0)
    starts = np.empty(len(flat), dtype=bool)
    starts[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    first = order[starts]  # each vertex's first occurrence, in sorted order
    leader = np.zeros(len(flat), dtype=bool)
    leader[first] = True
    number = np.cumsum(leader) - 1  # vertex number of each first occurrence, in file order
    inverse = np.empty(len(flat), dtype=np.int64)
    inverse[order] = number[first][np.cumsum(starts) - 1]
    return flat[leader], inverse.reshape(-1, 3)


def _load_stl(path: str) -> TriangleMesh:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) >= 84:
        (count,) = struct.unpack_from("<I", data, 80)
        if len(data) == 84 + 50 * count:
            return _parse_stl_binary(data, count)
    if data.lstrip()[:5].lower() == b"solid":
        return _parse_stl_ascii(path, data)
    raise MeshParseError(
        f"{path}: not a valid STL (binary size mismatch at byte 80 and no 'solid' header)"
    )


def _parse_stl_binary(data: bytes, count: int) -> TriangleMesh:
    dtype = np.dtype([("normal", "<f4", 3), ("verts", "<f4", (3, 3)), ("attr", "<u2")])
    records = np.frombuffer(data, dtype=dtype, count=count, offset=84)
    flat = records["verts"].reshape(-1, 3).astype(np.float64)
    verts, tris = _weld_vertices(flat)
    return TriangleMesh(verts, tris)


def _parse_stl_ascii(path: str, data: bytes) -> TriangleMesh:
    flat = []
    in_tri = 0
    for lineno, raw in enumerate(data.decode("ascii", errors="replace").splitlines(), 1):
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0].lower()
        if head == "vertex":
            if len(tokens) != 4:
                raise MeshParseError(f"{path}:{lineno}: vertex line needs 3 coordinates")
            try:
                flat.append([float(t) for t in tokens[1:]])
            except ValueError:
                raise MeshParseError(f"{path}:{lineno}: bad vertex coordinate") from None
            in_tri += 1
        elif head == "endloop":
            if in_tri != 3:
                raise MeshParseError(f"{path}:{lineno}: facet has {in_tri} vertices, expected 3")
            in_tri = 0
    if not flat:
        raise MeshParseError(f"{path}: no facets found in ASCII STL")
    if len(flat) % 3 != 0:
        raise MeshParseError(f"{path}: facet with incomplete vertex list at end of file")
    verts, tris = _weld_vertices(np.asarray(flat, dtype=np.float64).reshape(-1, 3))
    return TriangleMesh(verts, tris)


def _save_stl(mesh: TriangleMesh, path: str, binary: bool) -> None:
    tri = mesh.triangle_points()
    normals = face_normals(mesh)
    if binary:
        header = b"spinerecon binary STL".ljust(80, b"\0")
        dtype = np.dtype([("normal", "<f4", 3), ("verts", "<f4", (3, 3)), ("attr", "<u2")])
        records = np.zeros(len(tri), dtype=dtype)
        records["normal"] = normals.astype(np.float32)
        records["verts"] = tri.astype(np.float32)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(struct.pack("<I", len(tri)))
            fh.write(records.tobytes())
    else:
        with open(path, "w") as fh:
            fh.write("solid spinerecon\n")
            for n, t in zip(normals, tri):
                fh.write(f"  facet normal {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}\n")
                fh.write("    outer loop\n")
                for v in t:
                    fh.write(f"      vertex {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
                fh.write("    endloop\n  endfacet\n")
            fh.write("endsolid spinerecon\n")


# ---------------------------------------------------------------------------
# PLY

def _load_ply(path: str) -> TriangleMesh:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"ply"):
        raise MeshParseError(f"{path}: missing 'ply' magic at byte 0")

    # header
    end = _PLY_END_HEADER.search(data)
    if end is None:
        raise MeshParseError(f"{path}: no end_header")
    if end.end() == len(data):
        raise MeshParseError(f"{path}: data truncated after end_header at byte {len(data)}")
    body_start = end.end() + 1
    header_lines = data[:end.start()].decode("ascii", errors="replace").splitlines()

    fmt = None
    elements: list[dict] = []
    for lineno, line in enumerate(header_lines, 1):
        tokens = line.split()
        if not tokens or tokens[0] == "comment" or tokens[0] == "ply":
            continue
        # "format F", "element NAME N", "property T NAME", "property list N_T I_T NAME"
        needed = {"format": 2, "element": 3,
                  "property": 5 if tokens[1:2] == ["list"] else 3}.get(tokens[0], 0)
        if len(tokens) < needed:
            raise MeshParseError(f"{path}:{lineno}: incomplete {tokens[0]} line {line!r}")
        if tokens[0] == "format":
            if tokens[1] not in ("ascii", "binary_little_endian"):
                raise MeshParseError(f"{path}:{lineno}: unsupported PLY format {tokens[1]!r}")
            fmt = tokens[1]
        elif tokens[0] == "element":
            try:
                count = int(tokens[2])
            except ValueError:
                raise MeshParseError(
                    f"{path}:{lineno}: element count is not an integer in {line!r}") from None
            if count < 0:
                raise MeshParseError(f"{path}:{lineno}: negative element count {count}")
            elements.append({"name": tokens[1], "count": count, "props": []})
        elif tokens[0] == "property":
            if not elements:
                raise MeshParseError(f"{path}:{lineno}: property before any element")
            if tokens[1] == "list":
                elements[-1]["props"].append(("list", tokens[2], tokens[3], tokens[4]))
            else:
                if tokens[1] not in _PLY_TYPES:
                    raise MeshParseError(f"{path}:{lineno}: unknown PLY type {tokens[1]!r}")
                elements[-1]["props"].append(("scalar", tokens[1], tokens[2]))
    if fmt is None:
        raise MeshParseError(f"{path}: PLY header has no format line")

    verts = tris = labels = None
    if fmt == "ascii":
        text_rows = data[body_start:].decode("ascii", errors="replace").splitlines()
        row = 0
        body_line = data.count(b"\n", 0, body_start) + 1  # 1-based file line of body row 0
        for elem in elements:
            rows = text_rows[row : row + elem["count"]]
            if len(rows) < elem["count"]:
                raise MeshParseError(
                    f"{path}: element {elem['name']} expects {elem['count']} rows, "
                    f"found {len(rows)}"
                )
            if elem["name"] == "vertex":
                verts, labels = _ply_vertices_ascii(path, elem, rows, body_line + row)
            elif elem["name"] == "face":
                tris = _ply_faces_ascii(path, elem, rows, body_line + row)
            row += elem["count"]
        if verts is None or tris is None:
            raise MeshParseError(f"{path}: PLY is missing vertex or face element")
    else:
        offset = body_start
        for elem in elements:
            if elem["name"] == "vertex":
                verts, labels, offset = _ply_vertices_binary(path, elem, data, offset)
            elif elem["name"] == "face":
                tris, offset = _ply_faces_binary(path, elem, data, offset)
            else:
                raise MeshParseError(
                    f"{path}: cannot skip unknown binary element {elem['name']!r}"
                )
        if verts is None or tris is None:
            raise MeshParseError(f"{path}: PLY is missing vertex or face element")
    return TriangleMesh(verts, tris, labels)


def _ply_vertices_ascii(path, elem, rows, first_line):
    names = []
    for p in elem["props"]:
        if p[0] != "scalar":
            raise MeshParseError(f"{path}: list property in vertex element is unsupported")
        names.append(p[2])
    for need in ("x", "y", "z"):
        if need not in names:
            raise MeshParseError(f"{path}: vertex element lacks property {need!r}")
    table = np.empty((elem["count"], len(names)))
    for i, row in enumerate(rows):
        tokens = row.split()
        if len(tokens) != len(names):
            raise MeshParseError(f"{path}:{first_line + i}: vertex row has {len(tokens)} values, "
                                 f"expected {len(names)}")
        try:
            table[i] = [float(t) for t in tokens]
        except ValueError:
            raise MeshParseError(
                f"{path}:{first_line + i}: vertex row has a bad number in {row!r}") from None
    verts = table[:, [names.index("x"), names.index("y"), names.index("z")]]
    labels = None
    if "region" in names:
        k = names.index("region")
        bad = _first_bad_region(table[:, k])
        if bad is not None:
            raise MeshParseError(f"{path}:{first_line + bad}: region value "
                                 f"{rows[bad].split()[k]!r} is not a 64-bit integer")
        labels = table[:, k].astype(np.int64)
    return verts, labels


def _first_bad_region(values: np.ndarray) -> int | None:
    """Index of the first region value that is not an integer in the int64 range."""
    if values.dtype.kind != "f":
        return None
    ok = (np.floor(values) == values) & (values >= -2.0**63) & (values < 2.0**63)
    return None if ok.all() else int(np.argmin(ok))


def _ply_faces_ascii(path, elem, rows, first_line):
    tris = np.empty((elem["count"], 3), dtype=np.int64)
    for i, row in enumerate(rows):
        tokens = row.split()
        if not tokens:
            raise MeshParseError(f"{path}:{first_line + i}: empty face row")
        try:
            n, *corners = (int(t) for t in tokens[:4])
        except ValueError:
            raise MeshParseError(
                f"{path}:{first_line + i}: face row has a bad integer in {row!r}") from None
        if n != 3:
            raise MeshParseError(
                f"{path}:{first_line + i}: face row has {n} vertices; only triangles supported")
        if len(corners) < 3:
            raise MeshParseError(f"{path}:{first_line + i}: face row is truncated")
        tris[i] = corners
    return tris


def _ply_vertices_binary(path, elem, data, offset):
    fields = []
    for k, p in enumerate(elem["props"]):
        if p[0] != "scalar":
            raise MeshParseError(f"{path}: list property in vertex element is unsupported")
        fields.append((f"f{k}", "<" + _PLY_TYPES[p[1]]))
    names = [p[2] for p in elem["props"]]
    dtype = np.dtype(fields)
    nbytes = dtype.itemsize * elem["count"]
    if offset + nbytes > len(data):
        raise MeshParseError(f"{path}: vertex data truncated at byte {len(data)}")
    table = np.frombuffer(data, dtype=dtype, count=elem["count"], offset=offset)
    def col(name):
        return table[f"f{names.index(name)}"]
    for need in ("x", "y", "z"):
        if need not in names:
            raise MeshParseError(f"{path}: vertex element lacks property {need!r}")
    verts = np.column_stack([col("x"), col("y"), col("z")]).astype(np.float64)
    labels = None
    if "region" in names:
        bad = _first_bad_region(col("region"))
        if bad is not None:
            raise MeshParseError(f"{path}: vertex {bad}: region value "
                                 f"{float(col('region')[bad])!r} is not a 64-bit integer")
        labels = col("region").astype(np.int64)
    return verts, labels, offset + nbytes


def _ply_faces_binary(path, elem, data, offset):
    props = elem["props"]
    if len(props) != 1 or props[0][0] != "list":
        raise MeshParseError(f"{path}: face element must have a single list property")
    if not {props[0][1], props[0][2]} <= _PLY_INT_TYPES:
        raise MeshParseError(
            f"{path}: face list types must be integers, got {props[0][1]!r} {props[0][2]!r}"
        )
    count_t = np.dtype("<" + _PLY_TYPES[props[0][1]])
    index_t = np.dtype("<" + _PLY_TYPES[props[0][2]])
    # Only triangles are supported, so every record has the same packed
    # layout and the whole block is one structured array. Errors report
    # the first bad or incomplete record at the byte a sequential reader
    # would have reached.
    record = np.dtype([("n", count_t), ("idx", index_t, 3)])
    count = elem["count"]
    complete = min(count, (len(data) - offset) // record.itemsize)
    faces = np.frombuffer(data, dtype=record, count=complete, offset=offset)
    bad = np.flatnonzero(faces["n"] != 3)
    if len(bad):
        i = int(bad[0])
        raise _non_triangle(path, i, int(faces["n"][i]),
                            offset + i * record.itemsize + count_t.itemsize)
    if complete < count:
        at = offset + complete * record.itemsize
        if at + count_t.itemsize <= len(data):
            n = int(np.frombuffer(data, dtype=count_t, count=1, offset=at)[0])
            at += count_t.itemsize
            if n != 3:
                raise _non_triangle(path, complete, n, at)
        raise MeshParseError(f"{path}: face data truncated at byte {at}")
    return faces["idx"].astype(np.int64), offset + count * record.itemsize


def _non_triangle(path, i, n, byte) -> MeshParseError:
    return MeshParseError(
        f"{path}: face {i} at byte {byte} has {n} vertices; only triangles supported"
    )


def _save_ply(mesh: TriangleMesh, path: str, binary: bool) -> None:
    has_labels = mesh.labels is not None
    if has_labels:
        # "property int region" is 32-bit, and PLY has no 64-bit integer type
        wide = (mesh.labels < -2**31) | (mesh.labels > 2**31 - 1)
        if wide.any():
            bad = int(np.argmax(wide))
            raise ValueError(f"vertex {bad}: label {int(mesh.labels[bad])} does not fit "
                             f"the PLY int region property [-2**31, 2**31 - 1]")
    header = ["ply"]
    header.append("format binary_little_endian 1.0" if binary else "format ascii 1.0")
    header.append(f"element vertex {mesh.n_vertices}")
    header.append("property double x")
    header.append("property double y")
    header.append("property double z")
    if has_labels:
        header.append("property int region")
    header.append(f"element face {mesh.n_triangles}")
    header.append("property list uchar int vertex_indices")
    header.append("end_header")
    if binary:
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            if has_labels:
                vdtype = np.dtype([("xyz", "<f8", 3), ("region", "<i4")])
                vrec = np.empty(mesh.n_vertices, dtype=vdtype)
                vrec["xyz"] = mesh.vertices
                vrec["region"] = mesh.labels.astype(np.int32)
            else:
                vrec = mesh.vertices.astype("<f8")
            fh.write(vrec.tobytes())
            fdtype = np.dtype([("n", "u1"), ("idx", "<i4", 3)])
            frec = np.empty(mesh.n_triangles, dtype=fdtype)
            frec["n"] = 3
            frec["idx"] = mesh.triangles.astype(np.int32)
            fh.write(frec.tobytes())
    else:
        with open(path, "w") as fh:
            fh.write("\n".join(header) + "\n")
            for i, v in enumerate(mesh.vertices):
                line = f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}"
                if has_labels:
                    line += f" {int(mesh.labels[i])}"
                fh.write(line + "\n")
            for t in mesh.triangles:
                fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


# ---------------------------------------------------------------------------
# OBJ

def _load_obj(path: str) -> TriangleMesh:
    verts: list[list[float]] = []
    tris: list[list[int]] = []
    with open(path, "r", errors="replace") as fh:
        for lineno, raw in enumerate(fh, 1):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if tokens[0] == "v":
                if len(tokens) < 4:
                    raise MeshParseError(f"{path}:{lineno}: vertex line needs 3 coordinates")
                try:
                    verts.append([float(t) for t in tokens[1:4]])
                except ValueError:
                    raise MeshParseError(f"{path}:{lineno}: bad vertex coordinate") from None
            elif tokens[0] == "f":
                refs = tokens[1:]
                if len(refs) != 3:
                    raise MeshParseError(
                        f"{path}:{lineno}: face has {len(refs)} vertices; only triangles supported"
                    )
                idx = []
                for r in refs:
                    first = r.split("/")[0]
                    try:
                        k = int(first)
                    except ValueError:
                        raise MeshParseError(f"{path}:{lineno}: bad face index {r!r}") from None
                    if k <= 0:
                        raise MeshParseError(
                            f"{path}:{lineno}: non-positive face index {k} is unsupported"
                        )
                    idx.append(k - 1)
                tris.append(idx)
    if not verts:
        raise MeshParseError(f"{path}: no vertices found")
    varr = np.asarray(verts, dtype=np.float64)
    tarr = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    if tarr.size and tarr.max() >= len(varr):
        bad = int(tarr.max())
        raise MeshParseError(
            f"{path}: face references vertex {bad + 1} but only {len(varr)} vertices exist"
        )
    return TriangleMesh(varr, tarr)


def _save_obj(mesh: TriangleMesh, path: str) -> None:
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
