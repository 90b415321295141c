"""The package imports only the standard library, numpy and itself, the
per-object Subspace stays out of the array pipeline, no module reaches
another's private names, one reader opens
every input file, only the orbit partitions build orbit tables, every
counter increment takes numpy's fast path, every public name resolves,
and every name the benchmark imports from it exists and takes the
arguments the benchmark passes."""

import ast
import importlib
import inspect
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


def test_no_module_reaches_a_private_name_of_another():
    # a module's underscore names are its own: another module imports
    # them neither by name nor through the module
    private = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # names bound to package modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "qsteiner":
                private += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
                if node.level and not node.module:
                    modules.update(alias.asname or alias.name for alias in node.names)
        private += [
            f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ]
    assert not private, private


def test_only_the_reader_opens_files_for_reading():
    # gf2.reading names the file in every fault it turns into a FormatError;
    # an open() in a read mode anywhere else would be a loader around it
    inner, outer = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reader = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "reading"
            for sub in ast.walk(node)
        }
        for call in ast.walk(tree):
            if getattr(getattr(call, "func", None), "id", None) != "open":
                continue
            modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
            mode = (call.args[1:2] or modes or [ast.Constant("r")])[0]
            if not isinstance(mode, ast.Constant) or "r" in mode.value:
                where = f"{path.name}:{call.lineno}"
                (inner if id(call) in reader else outer).append(where)
    assert len(inner) == 1 and not outer, outer


def test_only_the_partitions_build_orbit_tables():
    # an orbit table is the whole partition of the k-subspaces under its
    # group, so the two partition functions are the only places that build
    # one: by name, or as cls() or type(self)() in a method of the class
    builders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # each node's innermost enclosing function
        for func in ast.walk(tree):  # breadth first: inner functions last
            if isinstance(func, (ast.FunctionDef, ast.Lambda)):
                owner.update((id(node), func) for node in ast.walk(func))
        in_class = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "OrbitTable"
            for node in ast.walk(cls)
        }
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if isinstance(callee, ast.Call):  # type(self)(...)
                callee = callee.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            own = name in ("cls", "type") and id(call) in in_class
            if name == "OrbitTable" or own:
                func = getattr(owner.get(id(call)), "name", "<module>")
                builders.append(f"{path.name}:{func}")
    assert sorted(builders) == [
        "groups.py:_partition_engine",
        "groups.py:_partition_full",
    ]


def test_every_add_at_increment_is_a_scalar_of_the_counter_dtype(monkeypatch):
    # np.add.at takes its fast path only for a value of the counter's own
    # dtype; a Python 1 made the paper's recount about 30 times slower
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.add.at":
                users.add(path.stem)
    assert users == {"verify"}, "run each new np.add.at caller below"

    import numpy as np

    from qsteiner import verify
    from qsteiner.groups import orbit_partition, singer_normalizer

    increments = []

    class Add:
        """np.add, with the value of each np.add.at recorded."""

        def __call__(self, *args, **kwargs):
            return np.add(*args, **kwargs)

        def at(self, target, index, value):
            increments.append((target.dtype, value))
            return np.add.at(target, index, value)

    class Numpy:
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(verify, "np", Numpy())
    group = singer_normalizer(6)
    blocks, _ = verify.expand_orbits(group, orbit_partition(group, 3).rows)
    for t in (1, 2, 3):
        verify.verify_design(blocks, t, 1)
    lines, _ = verify.expand_orbits(group, orbit_partition(group, 2).rows)
    report = verify.verify_design(lines, 2, 1)
    verify.derived_steiner_sample_check(lines, report, samples=100)
    assert len(increments) == 5
    for dtype, value in increments:
        assert isinstance(value, np.generic) and value.dtype == dtype, (dtype, value)


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


def package_names(tree: ast.Module) -> dict:
    """Name -> object for every name a module binds by importing qsteiner."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qsteiner":
                    module = alias.name if alias.asname else alias.name.split(".")[0]
                    names[alias.asname or module] = importlib.import_module(module)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == "qsteiner":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):  # a submodule
                        importlib.import_module(f"{node.module}.{alias.name}")
                    names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def resolve(node: ast.expr, names: dict):
    """The package object an expression of names and attributes reaches."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(resolve(node.value, names), node.attr, None)
    return None


def unbound_package_calls(sources) -> tuple[set, list]:
    """(package callables called, calls whose arguments do not bind).

    A call is fn(*args, **kw) or tracer.call(name, fn, *args, **kw); only
    fn from the package counts, and positional arguments count when none
    is starred.
    """
    called, unbound = set(), []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = package_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and func.attr == "call" and args[1:]:
                func, args = args[1], args[2:]
            fn = resolve(func, names)
            module = getattr(fn, "__module__", None) or ""
            if not callable(fn) or module.split(".")[0] != "qsteiner":
                continue
            called.add(fn.__qualname__)
            if any(isinstance(arg, ast.Starred) for arg in args):
                args = []
            keywords = {kw.arg: None for kw in node.keywords if kw.arg}
            try:
                inspect.signature(fn).bind_partial(*[None] * len(args), **keywords)
            except TypeError as exc:
                unbound.append(f"{path.name}:{node.lineno}: {fn.__qualname__}: {exc}")
    return called, unbound


def test_benchmark_calls_bind_to_the_package_signatures():
    called, unbound = unbound_package_calls(sorted((ROOT / "bench").glob("*.py")))
    assert not unbound, unbound
    # the sampled certificates take samples= and seed= keywords
    assert {"min_distance_certificate", "derived_steiner_sample_check"} <= called
