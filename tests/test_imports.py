"""Every name a module of the package imports is read somewhere in that module,
and every function, class, dataclass field or property a module defines is
read somewhere in the package.

No linter is a test dependency, so this walks each module's syntax tree:
an import binds names, and a name the module never loads is a stray import.
``__init__.py`` is checked like any other module: it re-exports nothing, so
each library name is imported from the module that defines it.
"""

import ast
from pathlib import Path

import pytest

import parasitometrics

MODULES = sorted(Path(parasitometrics.__file__).parent.glob("*.py"))


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


def test_package_reads_every_function_and_class_it_defines():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}
    unread = {f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
              # a click command is reached through its group, not by name
              and not any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                          and d.func.attr == "command" for d in node.decorator_list)}
    assert sorted(unread) == []


def _decorators(node) -> set[str]:
    """The names of ``node``'s decorators, called (``@dataclass(...)``) or not."""
    return {(d.func if isinstance(d, ast.Call) else d).id for d in node.decorator_list
            if isinstance(d.func if isinstance(d, ast.Call) else d, ast.Name)}


def test_package_reads_every_field_and_property_it_defines():
    """Every dataclass field and @property is read as an attribute somewhere in the package."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    defined = {f"{module}.{cls.name}.{node.target.id}" if isinstance(node, ast.AnnAssign)
               else f"{module}.{cls.name}.{node.name}"
               for module, tree in trees.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if (isinstance(node, ast.AnnAssign) and "dataclass" in _decorators(cls))
               or (isinstance(node, ast.FunctionDef) and "property" in _decorators(node))}
    unread = {name for name in defined if name.rsplit(".", 1)[1] not in read}
    assert sorted(unread) == []
