"""The package imports only the standard library, numpy and itself, and
every name the benchmark imports from it exists."""

import ast
import importlib
import sys
from pathlib import Path

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
