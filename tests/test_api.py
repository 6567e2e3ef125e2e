"""The names the package root exports, and the callers that read them."""

import ast
from pathlib import Path

import latticesep

REPO = Path(__file__).resolve().parents[1]

ROOT_NAMES = [
    "BatchDecoder",
    "BudgetError",
    "ConvergenceError",
    "Curve",
    "Decoder",
    "DminMethod",
    "FiniteConstellation",
    "InternalCheckError",
    "JSource",
    "Lattice",
    "LatticeSepError",
    "SepEstimate",
    "SepMethod",
    "SimPlan",
    "SnrGrid",
    "__version__",
    "catalog_lattice",
    "catalog_names",
    "closest_point",
    "enumerate_within_radius",
    "exact_sep_theorem1",
    "facet_count",
    "facet_weights",
    "is_integer_orthonormal",
    "load_lattice",
    "minimum_distance",
    "mslb",
    "msub",
    "points_per_facet",
    "q_function",
    "read_lattice_file",
    "simulate_sep",
    "slb",
    "stream",
    "sub",
    "voronoi_test_vectors",
    "write_lattice_file",
]

# Names bound to the package itself: bench/child.py imports it as `ls`.
_PACKAGE_ALIASES = {"latticesep", "ls"}


def _names_read_from_root(path: Path) -> set[str]:
    # Names imported with `from latticesep import ...`, and attributes read
    # from the package object (module dunders such as __file__ aside).
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "latticesep" and not node.level:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in _PACKAGE_ALIASES
            and not (node.attr.startswith("__") and node.attr != "__version__")
        ):
            names.add(node.attr)
    return names


def test_all_is_the_pinned_list():
    assert sorted(latticesep.__all__) == ROOT_NAMES


def test_every_exported_name_resolves():
    for name in latticesep.__all__:
        assert getattr(latticesep, name) is not None


def test_callers_read_only_exported_names():
    callers = [REPO / "tests" / "test_acceptance.py", REPO / "bench" / "child.py"]
    callers += sorted((REPO / "demos").glob("*.py"))
    read = {path.name: _names_read_from_root(path) for path in callers}
    # The scan finds what these files are known to read.
    assert {"SimPlan", "simulate_sep", "stream"} <= read["test_acceptance.py"]
    assert {"BatchDecoder", "voronoi_test_vectors"} <= read["child.py"]
    for name, names in read.items():
        assert names <= set(latticesep.__all__), name
