"""Every name a module of the package imports is used in that module, every
private module-level name of the package is read somewhere in it, the CLI
reports usage errors in ``main`` alone, no decider reads another's
modules, every module imports the package's modules at its top, where
``flow`` imports only ``exact`` and ``homology`` nothing of ``surfaces``,
and the quotient kernels read no ``Fraction``.

The package ``__init__`` is left out of the import check: importing names to
re-export them is its purpose.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mucube"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, isqrt\nprint(gcd)\n") == [
        "isqrt (line 2)", "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants named ``_x`` that no
    module of ``sources`` (name -> source text) reads."""
    defined = []  # (module, name, line)
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [
                (module, name, node.lineno)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{m}.{name} (line {line})" for m, name, line in defined if name not in read)


def test_detects_an_unreferenced_private_name():
    sources = {
        "a": "_K = 1\n_USED = 2\ndef _f():\n    return _USED\nclass _C:\n    pass\n",
        "b": "from .a import _f\nprint(_f())\n",
    }
    assert unreferenced_private_names(sources) == ["a._C (line 5)", "a._K (line 1)"]


def test_private_names_are_referenced():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def usage_error_sites(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each ``return USAGE_ERROR`` and of each
    string that starts with ``error:`` in ``source``."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            if node.value.id == "USAGE_ERROR":
                sites.append((scope, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("error:"):
                sites.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sites


def test_detects_a_usage_error_site():
    source = (
        'def f(x):\n    print(f"error: {x}")\n    return USAGE_ERROR\n'
        'def main():\n    return USAGE_ERROR\n'
    )
    assert usage_error_sites(source) == [("f", 2), ("f", 3), ("main", 5)]


def test_usage_errors_are_reported_in_main_only():
    sites = usage_error_sites((SRC / "cli.py").read_text())
    assert sites and {scope for scope, _ in sites} == {"main"}


def sibling_imports(source: str) -> dict[str, str]:
    """Per name that ``source`` imports from a module of the package, at any
    depth, that module's name."""
    names = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mucube.")):
            for alias in node.names:
                # ``from . import flow`` binds the module itself.
                module = node.module.rsplit(".", 1)[-1] if node.module else alias.name
                names[alias.asname or alias.name] = module
    return names


def sibling_reads(source: str, function: str) -> list[tuple[str, str]]:
    """(module, name) of each name ``function`` reads that ``source``
    imports from a module of the package."""
    imported = sibling_imports(source)
    node = next(
        n for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.FunctionDef) and n.name == function
    )
    read = {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted((imported[name], name) for name in read if name in imported)


def test_detects_a_read_of_another_module():
    source = (
        "from .flow import trace_surface\nfrom . import mucube3d\n"
        "def f():\n    from .mucube3d import seed_start\n"
        "    return trace_surface, seed_start(1, 0)\n"
        "def g():\n    return mucube3d\n"
    )
    assert sibling_reads(source, "f") == [("flow", "trace_surface"), ("mucube3d", "seed_start")]
    assert sibling_reads(source, "g") == [("mucube3d", "mucube3d")]


# The deciders stay independent: their agreement is the cross-check.
_NOT_READ = {
    "classify_oracle": {"flow", "homology", "surfaces"},
    "classify_x": {"mucube3d"},
    "classify_y": {"mucube3d"},
}


@pytest.mark.parametrize("function", sorted(_NOT_READ))
def test_deciders_read_nothing_of_each_other(function):
    reads = sibling_reads((SRC / "classify.py").read_text(), function)
    assert [r for r in reads if r[0] in _NOT_READ[function]] == []


def test_grouptheory_imports_no_sibling_module():
    assert sibling_imports((SRC / "grouptheory.py").read_text()) == {}


def function_imports(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each import of a package module made
    inside a function of ``source``."""
    sites = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                package = node.level or (node.module or "").split(".")[0] == "mucube"
            elif isinstance(node, ast.Import):
                package = any(a.name.split(".")[0] == "mucube" for a in node.names)
            else:
                continue
            if package:
                sites.append((fn.name, node.lineno))
    return sorted(set(sites))


def test_detects_an_import_inside_a_function():
    source = (
        "from .flow import L\nimport os\n"
        "def f():\n    from .homology import gamma0_intersection\n    import json\n"
        "def g():\n    import mucube.flow\n    from mucube import surfaces\n"
    )
    assert function_imports(source) == [("f", 4), ("g", 7), ("g", 8)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_are_imported_at_the_top(path):
    assert function_imports(path.read_text()) == []


def test_flow_imports_only_exact():
    assert set(sibling_imports((SRC / "flow.py").read_text()).values()) == {"exact"}


def test_homology_imports_nothing_of_surfaces():
    assert "surfaces" not in sibling_imports((SRC / "homology.py").read_text()).values()


def name_reads(source: str, name: str) -> dict[str, bool]:
    """Per module-level function of ``source``, whether its body reads
    ``name``, as a bare name or as an attribute."""
    return {
        fn.name: any(
            (isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))
            or (isinstance(n, ast.Attribute) and n.attr == name)
            for n in ast.walk(fn)
        )
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef)
    }


def test_detects_a_read_of_a_name():
    source = (
        "from fractions import Fraction\nimport fractions\n"
        "def f(x):\n    return Fraction(x)\n"
        "def g(x):\n    def inner():\n        return fractions.Fraction(x)\n    return inner\n"
        "def h(x):\n    Fraction = int\n    return x\n"
    )
    assert name_reads(source, "Fraction") == {"f": True, "g": True, "h": False}


# The quotient kernels step in integers only (ROADMAP aim 2).
_INTEGER_KERNELS = {
    "flow": (
        "_unit_word", "_pieces", "_exit_sides", "_sheet_tables", "_walk", "_cycles",
        "_after_power", "cylinder_count",
    ),
    "homology": ("_mid_letters", "_pass_weights", "_walk_passes"),
}


@pytest.mark.parametrize("module", sorted(_INTEGER_KERNELS))
def test_quotient_kernels_read_no_fraction(module):
    reads = name_reads((SRC / f"{module}.py").read_text(), "Fraction")
    kernels = _INTEGER_KERNELS[module]
    assert {fn: reads.get(fn) for fn in kernels} == dict.fromkeys(kernels, False)
