"""Source hygiene of the package, checked with the standard ``ast`` module."""

import ast
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sl2cox"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement anywhere in the module and never
    read as a name in it (``from __future__`` imports excepted)."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from math import gcd, lcm\nimport json\nx = lcm(2, 3)\n")
    assert _unused_imports(tree) == ["gcd", "json"]


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules imported anywhere in the module,
    nested imports included (relative imports excepted)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_random(path):
    # outputs depend on the input alone: no check draws random numbers
    assert "random" not in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))


def test_the_check_sees_a_nested_import():
    tree = ast.parse("def f():\n    import random.abc\n    from os import path\n")
    assert _imported_modules(tree) == {"random", "os"}


def _nested_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(enclosing function or class, module) for each import statement
    below module level; a relative module keeps its leading dots."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if owner is not None and isinstance(child, ast.Import):
                found.extend((owner, a.name) for a in child.names)
            elif owner is not None and isinstance(child, ast.ImportFrom):
                found.append((owner, "." * child.level + (child.module or "")))
            visit(child, owner)

    visit(tree, None)
    return found


# hashlib costs about 5 ms to import, and only reading an input file needs it
NESTED_IMPORTS_ALLOWED = {"embedding.py": [("read_input", "hashlib")]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    found = _nested_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert found == NESTED_IMPORTS_ALLOWED.get(path.name, [])


def test_the_check_sees_an_import_below_module_level():
    tree = ast.parse("import sys\nif sys:\n    import json\ndef f():\n    from .x import y\n"
                     "    for _ in y:\n        import os.path\n"
                     "class C:\n    def g(self):\n        from math import gcd\n")
    assert _nested_imports(tree) == [("f", ".x"), ("f", "os.path"), ("g", "math")]


def _load_spans():
    """perfbench/spans.py as a module, loaded without writing bytecode next
    to it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_name_resolves():
    # the benchmark's --trace 1 wraps these library functions by name
    spans = _load_spans()
    assert len(spans.TRACED) > 30
    for name in spans.TRACED:
        owner, attr, fn = spans._resolve(name)
        assert callable(getattr(owner, attr)), name


LABEL_PREFIXES = ("E[", "X[")
LABEL_CONSTANTS = {"Xdom", "Dxd"}


def _label_literals(tree: ast.Module) -> list[str]:
    """String constants and f-strings that begin a class-group generator
    label (``E[k]``, ``X[k,j]``) or are one of the constant labels; an
    f-string counts by its leading literal part only."""
    found = []
    inside_fstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            inside_fstrings |= {id(v) for v in node.values}
            head = node.values[0] if node.values else None
            if isinstance(head, ast.Constant) and head.value.startswith(LABEL_PREFIXES):
                found.append(head.value)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in inside_fstrings
                and (node.value.startswith(LABEL_PREFIXES) or node.value in LABEL_CONSTANTS)):
            found.append(node.value)
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "classgroup.py"],
                         ids=lambda p: p.name)
def test_only_classgroup_formats_generator_labels(path):
    # every other module reads the labels from the class group's generator table
    assert _label_literals(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_sees_a_formatted_label():
    tree = ast.parse('a = f"E[{k}]"\nb = {"X[x0,0]": 1}\nc = "Xdom" in d\ne = ["Dxd"]\n'
                     'f = f"V(E^{k})"\ng = f"{k}E["\nh = "XDom"\n')
    assert _label_literals(tree) == ["E[", "X[x0,0]", "Xdom", "Dxd"]
