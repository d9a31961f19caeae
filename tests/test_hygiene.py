"""Source hygiene of the package, checked with the standard ``ast`` module."""

import ast
import importlib.util
import inspect
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
    # the benchmark's --trace 1 wraps these library functions by name: each
    # module.qualname must name a function of that sl2cox module (a method
    # may be inherited, as GPoly's __mul__ is)
    spans = _load_spans()
    assert len(spans.TRACED) > 30
    for name in spans.TRACED:
        owner, attr, fn = spans._resolve(name)
        assert inspect.isfunction(fn), name
        assert (fn.__module__, fn.__name__) == (f"sl2cox.{name.split('.')[0]}", attr), name


def _dotted(node) -> str | None:
    """"a.b.c" for a chain of attribute reads on a name, None otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _library_names(tree: ast.Module) -> list[str]:
    """The dotted sl2cox names that a module needs: each name that a ``from
    sl2cox... import`` binds, and each attribute read of a name bound to an
    sl2cox module or object (``coxring.verify_full_cox``, ``sl2cox.cli.main``)."""
    names, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "sl2cox":
                    bound[a.asname or "sl2cox"] = a.name if a.asname else "sl2cox"
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "sl2cox"):
            names += [f"{node.module}.{a.name}" for a in node.names]
            bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        if dotted is not None and (head := dotted.split(".")[0]) in bound:
            names.append(bound[head] + dotted[len(head):])
    return names


def _resolves(dotted: str) -> bool:
    """Whether the longest importable prefix of ``dotted`` has the rest as
    attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_name_the_benchmark_imports_resolves():
    # the benchmark's children import these names: a library change that
    # drops or renames one breaks every benchmark run, so it fails here
    files = sorted((ROOT / "perfbench").glob("*.py"))
    names = {n for p in files for n in _library_names(ast.parse(p.read_text(encoding="utf-8")))}
    assert {"sl2cox.cli.main", "sl2cox.presentation.poly_to_json"} <= names
    assert sorted(n for n in names if not _resolves(n)) == []


def test_the_check_sees_an_unresolved_library_name():
    tree = ast.parse("import sl2cox.cli\nfrom sl2cox import coxring\n"
                     "from sl2cox.presentation import pretty_name, no_such\n"
                     "coxring.verify_full_cox(x.nope)\nsl2cox.cli.nope()\ncoxring.gone\n")
    names = _library_names(tree)
    assert sorted(names) == sorted([
        "sl2cox.presentation.pretty_name", "sl2cox.presentation.no_such", "sl2cox.coxring",
        "sl2cox.coxring.verify_full_cox", "sl2cox.cli", "sl2cox.cli.nope", "sl2cox.coxring.gone"])
    assert sorted(n for n in names if not _resolves(n)) == [
        "sl2cox.cli.nope", "sl2cox.coxring.gone", "sl2cox.presentation.no_such"]


def _uncalled(modules: dict[str, ast.Module]) -> set[str]:
    """module.qualname of each function, class and method (dunders excepted)
    that nothing in the modules reads outside its own definition.  A method,
    a definition in a class body, is read only by an attribute access of its
    name; a function or class also by a name read.  So a local variable or a
    parameter that shares a method's name does not hide the method."""
    defs, reads = [], []

    def visit(node, module, qual, owners, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((".".join([module, *qual, child.name]), child.name, id(child),
                             in_class))
                visit(child, module, [*qual, child.name], owners | {id(child)},
                      isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Name):
                reads.append((child.id, False, owners))
            elif isinstance(child, ast.Attribute):
                reads.append((child.attr, True, owners))
            visit(child, module, qual, owners, in_class)

    for module, tree in modules.items():
        visit(tree, module, [], frozenset(), False)
    return {qualname for qualname, name, node, method in defs
            if not (name.startswith("__") and name.endswith("__"))
            and not any(read == name and (attribute or not method) and node not in owners
                        for read, attribute, owners in reads)}


# Definitions that nothing in src calls, kept for a reason; the names the
# benchmark's tracer wraps (perfbench/spans.py TRACED) are allowed besides.
UNCALLED_ALLOWED = {
    "embedding.affine_embedding": "imported by perfbench/workloads.py",
    "embedding.embedding_to_dict": "imported by perfbench/workloads.py",
    "exactmath.IntMatrix.identity": "test oracle: the reference algebra of "
                                    "test_exactmath.py::TestSmithNormalForm",
    "exactmath.SmithDecomposition.U": "test oracle: the dense U of test_exactmath.py::"
                                      "TestSmithNormalForm::test_same_operations_as_the_dense_oracle",
    "iteration.IterationReport.m": "test accessor: the length of a determined report, read by "
                                   "test_iteration.py and test_acceptance.py",
    "iteration.torsion_characters": "test oracle: test_classgroup.py::TestRestriction::"
                                    "test_torsion_injects_into_Fhat",
    "presentation.GradedPresentation.var_order": "test accessor: the generator names in "
                                                 "order, read by test_coxring.py and "
                                                 "test_acceptance.py",
    "presentation.poly_to_json": "imported by perfbench/content.py until that benchmark "
                                 "reads the reports' text (ROADMAP item 1B); the tests' "
                                 "oracle for the JSON writer's polynomial text",
    "presentation.SparsePoly.substitute": "test oracle: test_coxring.py::TestEliminate::"
                                          "test_substitution_roundtrip",
}


def test_every_definition_is_called_in_src():
    # a definition nothing in src reads is dead code unless allowed above; an
    # allowed one that gains a caller must leave the list (the package's
    # __init__ only re-exports, so its reads do not count)
    traced = set(_load_spans().TRACED)
    uncalled = _uncalled({p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES})
    assert not traced & UNCALLED_ALLOWED.keys()
    assert sorted(uncalled - traced) == sorted(UNCALLED_ALLOWED)


def test_the_check_sees_an_uncalled_definition():
    a = ast.parse("def f(n):\n    return f(n - 1)\n"
                  "class C:\n    def m(self):\n        return self.n\n"
                  "    def n(self):\n        pass\n    def __len__(self):\n        return 0\n"
                  "def g():\n    def h():\n        pass\n    return C\n")
    b = ast.parse("from .a import f, g\nx = g\n")
    assert _uncalled({"a": a, "b": b}) == {"a.f", "a.C.m", "a.g.h"}


def test_a_local_name_does_not_call_a_method():
    # the parameter m and the local n share the methods' names; only the
    # attribute access C().n reads a method
    a = ast.parse("class C:\n    def m(self):\n        pass\n    def n(self):\n        pass\n"
                  "def f(m):\n    n = m\n    return n, C().n\n")
    b = ast.parse("from .a import f\nf(0)\n")
    assert _uncalled({"a": a, "b": b}) == {"a.C.m"}


def _unread_fields(modules: dict[str, ast.Module]) -> set[str]:
    """module.Class.field of each annotated field in a class body that no
    attribute read in the modules names: state that nothing reads.  The
    function of a call (``cg.class_group(E)``) reads no field."""
    fields, reads = [], set()
    for module, tree in modules.items():
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields += [(f"{module}.{node.name}.{stmt.target.id}", stmt.target.id)
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and id(node) not in called):
                reads.add(node.attr)
    return {qualname for qualname, name in fields if name not in reads}


# Fields that nothing in src reads, kept for a reason.
UNREAD_FIELDS_ALLOWED = {
    "classgroup.ClassGroupResult.basis_rows": "test oracle: the cokernel's U, made dense by "
                                              "test_classgroup.py::dense_u",
    "coxring.FullCoxResult.class_group": "read by perfbench/content.py `full_cox_digest` and "
                                         "by tests",
    "coxring.FullCoxResult.embedding": "test accessor: the embedding after augmentation, read "
                                       "by test_coxring.py",
}


def test_every_field_is_read_in_src():
    # a field nothing in src reads is dead state unless allowed above; an
    # allowed one that gains a reader must leave the list
    uncalled = _unread_fields({p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES})
    assert sorted(uncalled) == sorted(UNREAD_FIELDS_ALLOWED)


def test_the_check_sees_an_unread_field():
    # b only writes C.w and calls a function named like C.t, and the
    # annotation in f and the name x read no field
    a = ast.parse("class C:\n    x: int\n    y: int = 0\n    w: int\n    t: int\n    z = 1\n"
                  "    def f(self) -> int:\n        v: int = self.y\n        return x\n")
    b = ast.parse("from .a import C\nc = C(0)\nc.w = 2\nprint(c.z)\nm.t(c)\n")
    assert _unread_fields({"a": a, "b": b}) == {"a.C.x", "a.C.w", "a.C.t"}


def _private_imports(tree: ast.Module) -> list[str]:
    """module.name of each underscore name of another package module that
    the module imports (``from .m import _f``) or reads through a module
    alias (``from . import m as a`` and then ``a._f``); dunders excepted."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            else:
                found += [f"{node.module}.{a.name}" for a in node.names if private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and private(node.attr)):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


# Underscore names a module imports from another, each with its reason; none
# is kept: a test that counts a routine counts a public one.
PRIVATE_IMPORTS_ALLOWED: dict[str, list[str]] = {}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    found = _private_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert found == PRIVATE_IMPORTS_ALLOWED.get(path.name, [])


def test_the_check_sees_a_private_import():
    tree = ast.parse("from .presentation import _SUB, pretty_name\nfrom . import coxring as cx\n"
                     "from math import _x\nx = cx._augment(cx.__doc__, cx.full)\n")
    assert _private_imports(tree) == ["presentation._SUB", "coxring._augment"]


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
