"""The third-party packages that src/poseact imports are exactly its declared
dependencies, and its numpy calls exist at the declared numpy floor."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def top_level_imports(package: Path) -> set[str]:
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_match_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
    imported = top_level_imports(ROOT / "src" / "poseact") - set(sys.stdlib_module_names)
    assert imported - {"poseact"} == declared


# numpy names that first appeared in numpy 2.0, relative to the numpy
# namespace; pyproject.toml declares numpy>=1.24, so src/poseact may use none
NUMPY_2_ONLY = frozenset(
    {
        "vecdot",
        "matvec",
        "vecmat",
        "unstack",
        "cumulative_sum",
        "cumulative_prod",
        "permute_dims",
        "concat",
        "pow",
        "linalg.vecdot",
        "linalg.vector_norm",
        "linalg.matrix_norm",
    }
)


def numpy_names(source: str) -> set[str]:
    """Every numpy name source refers to, as a dotted path under the numpy
    namespace ("linalg.norm" for np.linalg.norm), whether it is imported
    (import numpy.linalg, from numpy._core import umath) or reached as an
    attribute of an imported numpy name (np.vecdot, la.vector_norm)."""
    tree = ast.parse(source)
    bound, names = {}, set()  # local name -> the numpy path it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    names.add(alias.name)
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "numpy":
                for alias in node.names:
                    path = f"{node.module}.{alias.name}"
                    names.add(path)
                    bound[alias.asname or alias.name] = path
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            path = bound[node.id]
            for attr in reversed(attrs):
                path = f"{path}.{attr}"
                names.add(path)
    return {name.removeprefix("numpy").removeprefix(".") for name in names}


def below_the_numpy_floor(names: set[str]) -> set[str]:
    """The names that numpy 1.24 lacks: numpy 2's private numpy._core
    (numpy.core before it) and the numpy 2.0 additions."""
    return {n for n in names if n in NUMPY_2_ONLY or n == "_core" or n.startswith("_core.")}


def test_numpy_floor_scan_finds_numpy_2_names():
    source = """
import math
import numpy as np
import numpy.linalg as la
import numpy._core.multiarray
from numpy import _core, concat as join
from numpy.linalg import vector_norm
x = np.vecdot(a, b) + la.matrix_norm(m) + np.linalg.vecdot(a, b) + join([a])
y = np.vdot(a, b) + np.linalg.norm(a) + pow(2, 3) + math.pow(2, 3) + np.power(a, 2)
"""
    assert below_the_numpy_floor(numpy_names(source)) == {
        "vecdot",
        "concat",
        "linalg.vecdot",
        "linalg.vector_norm",
        "linalg.matrix_norm",
        "_core",
        "_core.multiarray",
    }
    assert {"vdot", "linalg.norm", "power"} <= numpy_names(source)


def test_src_uses_no_numpy_name_above_the_declared_floor():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    assert "numpy>=1.24" in requirements  # the floor NUMPY_2_ONLY is written against
    found = {
        f"{path.relative_to(ROOT)}: numpy.{name}"
        for path in (ROOT / "src" / "poseact").rglob("*.py")
        for name in below_the_numpy_floor(numpy_names(path.read_text(encoding="utf-8")))
    }
    assert not found, sorted(found)
