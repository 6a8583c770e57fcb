"""Static checks over the package's own source files."""
from __future__ import annotations

import ast
import math
import sys
from pathlib import Path

import lfbp

PACKAGE = Path(lfbp.__file__).parent


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name a module imports and never reads,
    leaving out ``__future__`` imports and names re-exported in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_flagged(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as load\n"
        "from math import lcm\n"
        "__all__ = ['lcm']\n"
        "load(dumps(1))\n"
    )
    assert unused_imports(probe) == ["probe.py:2 os"]


def test_no_unused_imports_in_package():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in unused_imports(path)]
    assert found == []


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, module)`` for each absolute import; a relative import is the
    package's own."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def non_stdlib_imports(path: Path) -> list[str]:
    """``file:line module`` for each absolute import of a module outside the
    standard library (``sys.stdlib_module_names``)."""
    return [f"{path.name}:{line} {module}" for line, module in absolute_imports(path)
            if module.partition(".")[0] not in sys.stdlib_module_names]


def test_non_stdlib_imports_flagged(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path, numpy\n"
        "from json import dumps\n"
        "from . import graph\n"
        "from .flow import max_flow\n"
        "from networkx.algorithms import flow\n"
        "import graphlib\n"
    )
    assert non_stdlib_imports(probe) == ["probe.py:2 numpy", "probe.py:6 networkx.algorithms"]


def test_package_imports_only_the_standard_library():
    """``dependencies = []`` in ``pyproject.toml`` promises that the package
    runs on the standard library alone."""
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in non_stdlib_imports(path)]
    assert found == []


def test_package_does_not_import_dataclasses():
    """The value types derive from ``graph.Value``: importing ``dataclasses``
    would load ``inspect``, ``ast`` and ``dis`` and more than double the cost
    of ``import lfbp`` plus a scenario load."""
    found = [f"{path.name}:{line} {module}" for path in sorted(PACKAGE.glob("*.py"))
             for line, module in absolute_imports(path) if module.partition(".")[0] == "dataclasses"]
    assert found == []


def function_imports(path: Path) -> list[str]:
    """``file owner module`` for each module imported inside a function,
    where ``owner`` is the top-level function or class holding it."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Import):
                        found += [f"{path.name} {top.name} {alias.name}" for alias in inner.names]
                    elif isinstance(inner, ast.ImportFrom):
                        found.append(f"{path.name} {top.name} {inner.module}")
    return sorted(set(found))


def test_function_imports_flagged(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\ndef load():\n    from math import lcm\n    def inner():\n        import os\n")
    assert function_imports(probe) == ["probe.py load math", "probe.py load os"]


# Imports inside a function, each with its reason.
FUNCTION_IMPORTS_ALLOWED = {
    "cli.py sweep concurrent.futures": "only a sweep with jobs above 1 pays for the package and the logging it loads",
    "cli.py main argparse": "only the command line pays for argparse and the gettext it loads, not import or load",
    "cli.py main csv": "only run's summary row on stdout pays for csv there, not import or load",
    "cli.py _write_csv csv": "only a verb that writes a CSV file pays for csv, not import or load",
    "graph.py orient_explicit graphlib": "only an explicit pair list pays for graphlib, not import or another orientation",
}


def test_no_imports_inside_functions_in_package():
    """Every module imports at its top, so the import graph is what the
    module headers say: graph, flow, overload, reversal, protocol, sim, cli.
    The exceptions are ``FUNCTION_IMPORTS_ALLOWED``."""
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in function_imports(path)]
    assert found == sorted(FUNCTION_IMPORTS_ALLOWED)


# Calls that run code built from strings, each with its reason.
DYNAMIC_CODE_ALLOWED = {
    "sim.py _kernel compile": "compiles the forwarding kernel that _kernel_source writes",
    "sim.py _kernel exec": "defines that kernel's function",
}


def dynamic_code_calls(path: Path) -> list[str]:
    """``file owner name`` for each call of the builtin ``exec``, ``eval`` or
    ``compile``, where ``owner`` is the top-level function or class holding
    the call, or ``<module>``.  A method such as ``re.compile`` is not one."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", "<module>")
        found += [
            f"{path.name} {owner} {node.func.id}"
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval", "compile")
        ]
    return found


def test_dynamic_code_flagged(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import re\n"
        "exec('x = 1')\n"
        "def build(src):\n"
        "    return eval(compile(src, '<s>', 'eval'))\n"
        "class Box:\n"
        "    pattern = re.compile('x')\n"
    )
    assert dynamic_code_calls(probe) == ["probe.py <module> exec", "probe.py build eval", "probe.py build compile"]


def test_no_code_built_from_strings_outside_the_kernel_generator():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in dynamic_code_calls(path)]
    assert sorted(found) == sorted(DYNAMIC_CODE_ALLOWED)


def json_parses_without_hook(path: Path) -> list[str]:
    """``file:line`` for each ``json.load`` or ``json.loads`` call that passes
    no ``object_pairs_hook``: without one, a key given twice keeps its last
    value silently."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("load", "loads")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and not any(keyword.arg == "object_pairs_hook" for keyword in node.keywords)
    ]


def test_json_parses_without_hook_flagged(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json, pickle\n"
        "json.loads('{}')\n"
        "data = json.load(open('f'), object_pairs_hook=dict)\n"
        "def read(text):\n"
        "    return json.loads(text, parse_float=float)\n"
        "pickle.loads(b'')\n"
    )
    assert json_parses_without_hook(probe) == ["probe.py:2", "probe.py:5"]


def test_every_json_parse_in_package_rejects_repeated_keys():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in json_parses_without_hook(path)]
    assert found == []


# Definitions kept although nothing in the package or the benchmark reads
# them, each with its reason.
UNREAD_ALLOWED = {
    "reversal.py reversal_step": "the only reader of reversal's smallest_min_cut import, "
    "the name the benchmark's tracer patches; without it that import goes unused",
}


def unread_definitions(defining: list[Path], reading: list[Path]) -> list[tuple[str, int, str]]:
    """``(file, line, name)`` for each top-level function, class or assigned
    name in ``defining`` never read as a name in ``reading``, and each method
    or property of such a class never read as an attribute there.  A module
    attribute such as ``sim.bp_step`` counts as a read of the name; dunder
    names and methods are left out."""
    names: set[str] = set()
    attributes: set[str] = set()
    for path in reading:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    read = names | attributes
    found = []
    for path in defining:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [
                    (path.name, node.lineno, name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name) and not name.id.startswith("__") and name.id not in read
                ]
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in read:
                found.append((path.name, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (path.name, item.lineno, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__")
                    and item.name not in attributes
                ]
    return found


def test_unread_definitions_flagged(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def used(): pass\n"
        "def unused(): pass\n"
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def read(self): pass\n"
        "    @property\n"
        "    def size(self): pass\n"
        "    def dropped(self): pass\n"
        "__version__ = '1'\n"
        "LIMIT, SPARE = 1, 2\n"
        "kept: int = LIMIT\n"
        "ORPHAN = 3\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("import module\nmodule.used()\nbox = module.Box()\nbox.read()\nbox.size\ndropped = 1\nmodule.kept\n")
    assert unread_definitions([module], [module, reader]) == [
        ("module.py", 2, "unused"),
        ("module.py", 8, "dropped"),
        ("module.py", 10, "SPARE"),
        ("module.py", 12, "ORPHAN"),
    ]


def test_package_defines_only_what_it_or_the_benchmark_reads():
    """Every function, class, method and module-level constant in the package
    has a reader in the package or the benchmark: code and limits that only
    tests use live in ``tests/``."""
    package = sorted(PACKAGE.glob("*.py"))
    bench = sorted((PACKAGE.parents[1] / "bench").glob("*.py"))
    found = unread_definitions(package, package + bench)
    assert sorted(f"{file} {name}" for file, _line, name in found) == sorted(UNREAD_ALLOWED)


# Defaulted parameters kept although no call in the package or the benchmark
# passes them, each with its reason.
UNPASSED_ALLOWED: dict[str, str] = {}


def unpassed_parameters(defining: list[Path], reading: list[Path]) -> list[tuple[str, int, str]]:
    """``(file, line, "function.parameter")`` for each defaulted parameter of a
    top-level function or method in ``defining`` that no call in ``reading``
    passes, by position or by keyword.

    Calls are matched by name: ``f(...)`` and ``x.f(...)`` call ``f``, and
    ``C(...)`` calls class ``C``'s ``__init__``.  A call that hands ``f`` to
    another callable, as ``tracer.call(name, f, *args)`` does, also passes
    ``f`` the arguments after it and the keywords.  A starred or ``**``
    argument passes everything."""
    passes: dict[str, list[tuple[float, set]]] = {}

    def record(func, args, keywords) -> None:
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        count = math.inf if any(isinstance(arg, ast.Starred) for arg in args) else len(args)
        passes.setdefault(name, []).append((count, {keyword.arg for keyword in keywords}))

    for path in reading:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                record(node.func, node.args, node.keywords)
                for pos, arg in enumerate(node.args):
                    record(arg, node.args[pos + 1 :], node.keywords)
    found = []
    for path in defining:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                functions = [
                    (node.name if item.name == "__init__" else item.name, f"{node.name}.{item.name}", item, 1)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
            else:
                continue
            for called, qualname, func, bound in functions:
                spec = func.args
                positional = spec.posonlyargs + spec.args
                first = len(positional) - len(spec.defaults)
                defaulted = [(param, pos - bound) for pos, param in enumerate(positional[first:], first)]
                defaulted += [(param, math.inf) for param, default in zip(spec.kwonlyargs, spec.kw_defaults) if default]
                for param, pos in defaulted:
                    if not any(
                        pos < count or param.arg in names or None in names for count, names in passes.get(called, ())
                    ):
                        found.append((path.name, param.lineno, f"{qualname}.{param.arg}"))
    return found


def test_unpassed_parameters_flagged(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(a=1): pass\n"
        "def h(a=1, b=2): pass\n"
        "class Box:\n"
        "    def __init__(self, size=1, kind=None): pass\n"
        "    def put(self, item, where=0): pass\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text(
        "f(0, 1, e=5)\n"
        "run(label, g, *args)\n"
        "h(**options)\n"
        "box = Box(2)\n"
        "box.put(3)\n"
    )
    assert unpassed_parameters([module], [reader]) == [
        ("module.py", 1, "f.c"),
        ("module.py", 1, "f.d"),
        ("module.py", 5, "Box.__init__.kind"),
        ("module.py", 6, "Box.put.where"),
    ]


def test_package_parameters_are_all_passed():
    """Every defaulted parameter in the package is passed by some call in the
    package or the benchmark: an option no caller sets is a constant."""
    package = sorted(PACKAGE.glob("*.py"))
    bench = sorted((PACKAGE.parents[1] / "bench").glob("*.py"))
    found = unpassed_parameters(package, package + bench)
    assert sorted(f"{file} {name}" for file, _line, name in found) == sorted(UNPASSED_ALLOWED)


# The engine's checks and validating constructors that ``cli`` uses.  Each
# owns its rule and raises ``ValueError`` without a field path, which
# ``cli._build`` adds.
ENGINE_CHECKS = ("check_load", "startup_packets", "CommoditySpec", "TopologyProcess", "LfbpParams", "Network.build")


def unrouted_engine_checks(path: Path) -> list[str]:
    """``file:line name`` for each call of a name in ``ENGINE_CHECKS``, and
    each time one is handed to a callable other than ``_build``."""

    def named(node) -> str | None:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return f"{node.value.id}.{node.attr}"
        return node.id if isinstance(node, ast.Name) else None

    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        handed = [] if named(node.func) == "_build" else node.args + [keyword.value for keyword in node.keywords]
        found += [
            f"{path.name}:{node.lineno} {named(arg)}" for arg in [node.func, *handed] if named(arg) in ENGINE_CHECKS
        ]
    return found


def test_unrouted_engine_checks_flagged(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "_build('x', check_load, commodities, rho)\n"
        "spec = CommoditySpec(0, 1, 2, 1.0)\n"
        "_build('y', Network.build, nodes, edges, 0, 1)\n"
        "net = Network.build(nodes, edges, 0, 1)\n"
        "specs = list(map(CommoditySpec, ids))\n"
        "params = defaults(make=LfbpParams)\n"
        "graph.build(nodes)\n"
    )
    assert sorted(unrouted_engine_checks(probe)) == [
        "probe.py:2 CommoditySpec",
        "probe.py:4 Network.build",
        "probe.py:5 CommoditySpec",
        "probe.py:6 LfbpParams",
    ]


def test_cli_routes_every_engine_check_through_build():
    """``cli`` never calls an engine check itself and hands each only to
    ``_build``, so every owner's ``ValueError`` reaches the user prefixed with
    its field path, and a second copy of a rule in ``cli`` has no reason to
    exist."""
    assert unrouted_engine_checks(PACKAGE / "cli.py") == []
