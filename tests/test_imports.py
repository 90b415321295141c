"""The package imports only the standard library, numpy and itself, the
per-object Subspace stays out of the array pipeline, every public name
resolves, and every name the benchmark imports from it exists."""

import ast
import importlib
import sys
from pathlib import Path

import qsteiner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qsteiner"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qsteiner"}


def test_runtime_imports_are_stdlib_numpy_or_the_package():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in ALLOWED
            ]
    assert not foreign, foreign


def test_the_package_imports_no_test_oracle():
    # a slow kernel replaced by a fast one survives only under tests/
    oracles = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            oracles += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[-1].endswith("_reference")
            ]
    assert not oracles, oracles


# modules that may import the per-object Subspace or span: where they are
# defined, and SingerEngine.orbit_size and expand_orbit, which the
# benchmark calls; the package's __init__ only re-exports them
SUBSPACE_USERS = {"subspace.py", "singer.py", "__init__.py"}


def test_only_the_edges_import_subspace_or_span():
    users = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                "subspace"
            ):
                users += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name in ("Subspace", "span", "*")
                    and path.name not in SUBSPACE_USERS
                ]
    assert not users, users


def test_public_names_resolve_once_in_sorted_order():
    names = qsteiner.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(qsteiner, name)]
    assert not missing, missing


def test_benchmark_imports_resolve():
    sources = sorted((ROOT / "bench").rglob("*.py"))
    assert sources
    missing = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                pairs = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                pairs = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in pairs:
                if module.split(".")[0] != "qsteiner":
                    continue
                found = importlib.import_module(module)
                if name is not None and not hasattr(found, name):
                    try:
                        importlib.import_module(f"{module}.{name}")
                    except ModuleNotFoundError:
                        missing.append(f"{path.name}:{node.lineno}: {module}.{name}")
    assert not missing, missing
