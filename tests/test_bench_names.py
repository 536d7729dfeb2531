"""Every spinerecon name the benchmark harness uses must exist.

`bench/tracing.py` wraps library functions by module and name, and
`bench/run.py` imports modules and calls into them; a deleted or
renamed function would otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import os

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_py_names() -> list[tuple[str, str]]:
    """(spinerecon module, attribute) pairs that bench/run.py imports or reads."""
    with open(os.path.join(BENCH, "run.py")) as fh:
        tree = ast.parse(fh.read())
    names, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spinerecon"):
            for alias in node.names:
                names.append((node.module, alias.name))
                if node.module == "spinerecon":  # a submodule, read as alias.attr below
                    aliases[alias.asname or alias.name] = f"spinerecon.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.append((aliases[node.value.id], node.attr))
    return sorted(set(names))


def resolves(module: str, attr: str) -> bool:
    """Whether `from module import attr` works: an attribute or a submodule."""
    parent = importlib.import_module(module)
    if hasattr(parent, attr):
        return True
    return hasattr(parent, "__path__") and importlib.util.find_spec(f"{module}.{attr}") is not None


def test_traced_functions_resolve():
    tracing = load_tracing()
    missing = [f"spinerecon.{module}.{attr}" for module, attr, _ in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"spinerecon.{module}"),
                                       attr, None))]
    from spinerecon.mesh import SurfaceIndex
    missing += [f"SurfaceIndex.{attr}" for _, attr, _ in tracing.SURFACE_INDEX_METHODS
                if attr not in SurfaceIndex.__dict__]
    assert missing == []


def test_run_py_names_resolve():
    names = run_py_names()
    # the harness drives the CLI and builds its cases from these modules
    assert ("spinerecon.cli", "main") in names
    assert ("spinerecon.synthetic", "generate_spine") in names
    missing = [f"{module}.{attr}" for module, attr in names if not resolves(module, attr)]
    assert missing == []


def test_vertebra_axes_and_frame_read_by_perturb():
    # bench/run.py perturb() scales each level along vertebra.axes about vertebra.frame.c_g
    from spinerecon.spine import Vertebra
    from spinerecon.synthetic import default_vertebra_params, generate_vertebra
    mesh, landmarks, axes = generate_vertebra(default_vertebra_params("L3", tessellation_edge=5.0))
    vertebra = Vertebra("L3", mesh, landmarks, axes)
    assert vertebra.axes.as_matrix().shape == (3, 3)
    assert vertebra.frame.c_g.shape == (3,)
