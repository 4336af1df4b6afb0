"""Every module of the package and of the tests uses each name it
imports, so that a deletion cannot leave a dead import behind; and every
function and class of the package is named by the package or by the
benchmark, so that a deletion cannot leave a dead definition behind."""

import ast
import glob
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MODULES = sorted(
    os.path.relpath(path, ROOT)
    for pattern in ("src/liepairs/*.py", "tests/*.py")
    for path in glob.glob(os.path.join(ROOT, pattern)))
PACKAGE = [path for path in MODULES if path.startswith("src")]
BENCH = sorted(os.path.relpath(path, ROOT) for path in
               glob.glob(os.path.join(ROOT, "perfbench", "*.py")))


def unused_imports(source):
    """The names that source imports (`import a.b` binds a) and never
    reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_names():
    assert unused_imports("import os\nimport os.path\n") == ["os"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["c"]
    assert unused_imports("import os.path\nos.path.join()\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(ROOT, module), encoding="utf-8") as f:
        assert unused_imports(f.read()) == []


def defined(tree):
    """The functions and classes that tree defines, at any depth, but
    the dunder methods."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__")}


def named(tree):
    """The names that tree reads: names, attributes, and each part of a
    string that is a dotted name (the benchmark's tracer patches
    "Class.method" by string).  A definition does not name itself, and
    prose in a docstring names nothing."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            out.update(node.value.split("."))
    return out


def dead_definitions(sources):
    """The functions and classes defined in sources (a dict path ->
    source) that no source names, each as (path, name)."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    used = set().union(*map(named, trees.values()))
    return sorted((path, name) for path, tree in trees.items()
                  for name in defined(tree) - used)


def test_definition_scan_finds_dead_names():
    sources = {
        "a.py": "def f():\n    return g()\n\n\ndef g():\n    pass\n",
        "b.py": "class C:\n    def m(self):\n        'f and g'\n",
        "c.py": "SPANS = [('b', 'C.m')]\n",
    }
    assert dead_definitions(sources) == [("a.py", "f")]


def test_no_dead_definitions():
    # the package's definitions, named from the package or the benchmark
    sources = {}
    for path in PACKAGE + BENCH:
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            sources[path] = f.read()
    assert [(path, name) for path, name in dead_definitions(sources)
            if path in PACKAGE] == []


def package_imports(module):
    """The package modules that src/liepairs/<module>.py imports, directly
    or through other package modules."""
    seen, todo = set(), [module]
    while todo:
        path = os.path.join(ROOT, "src", "liepairs", todo.pop() + ".py")
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module not in seen):
                seen.add(node.module)
                todo.append(node.module)
    return seen


def test_matched_oracle_shares_no_code_with_the_resolution():
    # matched.py checks the transferred brackets from outside: it may not
    # reach the resolution side, even through another module
    assert package_imports("matched") & {
        "dpoly", "tpoly", "weyl", "contraction"} == set()
