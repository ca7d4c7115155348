"""Every name a module of the package imports is read somewhere in that module.

No linter is a test dependency, so this walks each module's syntax tree:
an import binds names, and a name the module never loads is a stray import.
``__init__.py`` is left out, since its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import parasitometrics

MODULES = sorted(p for p in Path(parasitometrics.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_finds_a_stray_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from a.b import c, d\nnp.zeros(d)\n")
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
