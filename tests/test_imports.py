"""Every module of the package and of the tests uses each name it
imports, so that a deletion cannot leave a dead import behind."""

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MODULES = sorted(
    os.path.relpath(path, ROOT)
    for pattern in ("src/liepairs/*.py", "tests/*.py")
    for path in glob.glob(os.path.join(ROOT, pattern)))


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
