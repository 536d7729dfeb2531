"""In-memory span tracer wired around spinerecon's public functions.

The library itself carries no tracing: `install` rebinds each traced
function at every `spinerecon.*` module attribute that aliases it (the
CLI and several modules import functions by name), and patches
`SurfaceIndex.__init__` / `SurfaceIndex.query` on the class. `uninstall`
restores every original binding. Spans are kept in memory as
[name, start, end, parent_index, attrs] and written out at the end of a
run; per-layer metrics are derived from them by `layer_metrics`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager


def _loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path") or args[0])}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path") or args[1])}


def _plate_tris(args, kwargs, result):
    superior, inferior = result
    return {"plate_tris": superior.n_triangles + inferior.n_triangles}


def _icp_history(args, kwargs, result):
    history = result.history
    return {"iterations": result.iterations,
            "monotone": all(b <= a for a, b in zip(history, history[1:]))}


def _pairs(args, kwargs, result):
    return {"pairs": len(result)}


def _points(args, kwargs, result):
    return {"points": len(result[1])}


# (spinerecon module, function, attrs from (args, kwargs, result)); the span
# is named module.function.
FUNCTIONS = (
    ("meshio", "load_mesh", _loaded_bytes),
    ("meshio", "save_mesh", _saved_bytes),
    ("anatomy", "detect_vertebra_landmarks", None),
    ("anatomy", "estimate_axes", None),
    ("anatomy", "extract_endplates", _plate_tris),
    ("anatomy", "detect_landmarks", None),
    ("mesh", "median_edge_length", None),
    ("mesh", "closest_points_on_triangles", _pairs),
    ("registration", "register_spine", None),
    ("registration", "compute_registration", None),
    ("registration", "icp_rigid", _icp_history),
    ("facets", "align_facets", None),
    ("facets", "measure_gap", None),
    ("facets", "elastic_warp", None),
    ("facets", "facet_gap_summary", None),
    ("evaluation", "evaluate_reconstruction", None),
    ("evaluation", "point_to_model_distance", None),
    ("spine", "save_landmarks", None),
    ("spine", "load_landmarks", None),
    ("spine", "save_transforms", None),
    ("synthetic", "generate_spine", None),
)

# (span name, attribute on SurfaceIndex, attrs)
SURFACE_INDEX_METHODS = (
    ("mesh.SurfaceIndex.build", "__init__", None),
    ("mesh.SurfaceIndex.query", "query", _points),
)


class Tracer:
    """Nested wall-clock spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.spans = []

    @contextmanager
    def span(self, name: str):
        """Record [name, start, end, parent, attrs] around the block; yields the record."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                record[4] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a spinerecon module holds it."""
        import spinerecon.cli  # noqa: F401  (the package loads every other module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spinerecon" or n.startswith("spinerecon.")]
        for module_name, attr, attrs in FUNCTIONS:
            original = getattr(sys.modules[f"spinerecon.{module_name}"], attr)
            traced = self.wrap(f"{module_name}.{attr}", original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))
        cls = sys.modules["spinerecon.mesh"].SurfaceIndex
        for name, attr, attrs in SURFACE_INDEX_METHODS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, attrs))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")


# A query span is attributed to the first of these found among its ancestors.
_QUERY_CONTEXTS = (
    ("registration.icp_rigid", "icp"),
    ("evaluation.", "eval"),
    ("facets.", "facets"),
)


def layer_metrics(spans: list[list], n_spines: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per spine iteration (times in s, counts) from raw spans."""
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[3] is not None:
            child_time[s[3]] += d

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr: dict[str, float] = {}
    query_split = {"icp": 0.0, "eval": 0.0, "facets": 0.0}
    for i, s in enumerate(spans):
        name = s[0]
        total[name] = total.get(name, 0.0) + duration[i]
        self_time[name] = self_time.get(name, 0.0) + duration[i] - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (s[4] or {}).items():
            if key != "monotone":
                attr[f"{name}.{key}"] = attr.get(f"{name}.{key}", 0.0) + value
        if name == "mesh.SurfaceIndex.query":
            parent = s[3]
            while parent is not None:
                context = next((c for prefix, c in _QUERY_CONTEXTS
                                if spans[parent][0].startswith(prefix)), None)
                if context is not None:
                    query_split[context] += duration[i]
                    break
                parent = spans[parent][3]

    def per(value):
        return value / n_spines

    def t(name):
        return per(total.get(name, 0.0))

    def selfs(name):
        return per(self_time.get(name, 0.0))

    def n(name):
        return per(calls.get(name, 0))

    def a(key):
        return per(attr.get(key, 0.0))

    mb = 1e-6
    load_mb = a("meshio.load_mesh.bytes") * mb
    icp_iters = a("registration.icp_rigid.iterations")
    points = a("mesh.SurfaceIndex.query.points")
    pairs = a("mesh.closest_points_on_triangles.pairs")
    query_s = t("mesh.SurfaceIndex.query")
    extract_calls = calls.get("anatomy.extract_endplates", 0)
    json_names = [k for k in total if k.startswith("spine.")]
    out = {
        "meshio.load_mesh.s": (t("meshio.load_mesh"), "s"),
        "meshio.load_mesh.calls": (n("meshio.load_mesh"), "count"),
        "meshio.load_mesh.mb": (load_mb, "MB"),
        "meshio.load_mesh.mb_per_s": (load_mb / t("meshio.load_mesh")
                                      if t("meshio.load_mesh") else 0.0, "MB/s"),
        "meshio.save_mesh.s": (t("meshio.save_mesh"), "s"),
        "meshio.save_mesh.calls": (n("meshio.save_mesh"), "count"),
        "meshio.save_mesh.mb": (a("meshio.save_mesh.bytes") * mb, "MB"),
        "anatomy.detect_vertebra_landmarks.s": (t("anatomy.detect_vertebra_landmarks"), "s"),
        "anatomy.detect_vertebra_landmarks.calls": (
            n("anatomy.detect_vertebra_landmarks"), "count"),
        "anatomy.estimate_axes.s": (t("anatomy.estimate_axes"), "s"),
        "anatomy.extract_endplates.s": (t("anatomy.extract_endplates"), "s"),
        "anatomy.detect_landmarks.s": (t("anatomy.detect_landmarks"), "s"),
        "anatomy.plate_tris": (attr.get("anatomy.extract_endplates.plate_tris", 0.0)
                               / extract_calls if extract_calls else 0.0, "count"),
        "mesh.median_edge_length.s": (t("mesh.median_edge_length"), "s"),
        "registration.register_spine.self_s": (selfs("registration.register_spine"), "s"),
        "registration.compute_registration.s": (t("registration.compute_registration"), "s"),
        "registration.icp_rigid.s": (t("registration.icp_rigid"), "s"),
        "registration.icp_rigid.calls": (n("registration.icp_rigid"), "count"),
        "registration.icp_rigid.iterations": (icp_iters, "count"),
        "registration.icp_rigid.ms_per_iter": (1e3 * t("registration.icp_rigid") / icp_iters
                                               if icp_iters else 0.0, "ms"),
        "mesh.SurfaceIndex.build.s": (t("mesh.SurfaceIndex.build"), "s"),
        "mesh.SurfaceIndex.build.calls": (n("mesh.SurfaceIndex.build"), "count"),
        "mesh.SurfaceIndex.query.icp.s": (per(query_split["icp"]), "s"),
        "mesh.SurfaceIndex.query.eval.s": (per(query_split["eval"]), "s"),
        "mesh.SurfaceIndex.query.facets.s": (per(query_split["facets"]), "s"),
        "mesh.SurfaceIndex.query.calls": (n("mesh.SurfaceIndex.query"), "count"),
        "mesh.SurfaceIndex.query.points": (points, "count"),
        "mesh.SurfaceIndex.query.us_per_point": (1e6 * query_s / points if points else 0.0, "us"),
        "mesh.closest_points_on_triangles.pairs": (pairs, "count"),
        "mesh.SurfaceIndex.candidates_per_point": (pairs / points if points else 0.0, "count"),
        "mesh.SurfaceIndex.useful_ratio": (points / pairs if pairs else 0.0, "ratio"),
        "facets.align_facets.self_s": (selfs("facets.align_facets"), "s"),
        "facets.measure_gap.calls": (n("facets.measure_gap"), "count"),
        "facets.elastic_warp.s": (t("facets.elastic_warp"), "s"),
        "facets.elastic_warp.calls": (n("facets.elastic_warp"), "count"),
        "facets.facet_gap_summary.s": (t("facets.facet_gap_summary"), "s"),
        "evaluation.evaluate_reconstruction.self_s": (
            selfs("evaluation.evaluate_reconstruction"), "s"),
        "evaluation.point_to_model_distance.calls": (
            n("evaluation.point_to_model_distance"), "count"),
        "cli.landmarks.self_s": (selfs("cli.landmarks"), "s"),
        "cli.reconstruct.self_s": (selfs("cli.reconstruct"), "s"),
        "cli.evaluate.self_s": (selfs("cli.evaluate"), "s"),
        "spine.json.s": (per(sum(total[k] for k in json_names)), "s"),
        "spine.json.calls": (per(sum(calls[k] for k in json_names)), "count"),
    }
    return out


def icp_histories_monotone(spans: list[list]) -> tuple[int, int]:
    """(icp_rigid results seen, those whose history is non-increasing)."""
    seen = [s for s in spans if s[0] == "registration.icp_rigid"]
    return len(seen), sum(1 for s in seen if s[4] and s[4]["monotone"])
