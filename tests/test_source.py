"""Checks on the package source that need no linter: every name a
`semibrace` module imports is used in that module, every name a module
defines at top level and every method or property of its classes is read
somewhere (in the package, the tests or the scripts, and in the package
itself when the name is private), and the modules `import semibrace.cli`
loads define no dataclass but `SemiBrace`."""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "semibrace"


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the imports anywhere in `tree`, other than
    `from __future__`, that no name expression in it reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _definitions(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment stores."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _names_read(tree: ast.Module) -> set[str]:
    """The names `tree` reads: loaded names, attribute names and the names
    a `from` import takes.  A top-level definition reading its own name, as
    a recursion does, does not count."""
    read = set()
    for top in tree.body:
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
        read |= found - _definitions(top)
    return read


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unread_definitions(module: ast.Module, readers: list[ast.Module]) -> list[str]:
    """The top-level names `module` defines, dunder names aside, that no
    tree in `readers` reads."""
    defined = set().union(*map(_definitions, module.body))
    defined = {name for name in defined if not _is_dunder(name)}
    return sorted(defined - set().union(*map(_names_read, readers)))


def _methods(module: ast.Module) -> set[str]:
    """The methods and properties the classes in `module` define, dunder
    names aside."""
    return {
        item.name
        for node in ast.walk(module)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name)
    }


def _attributes_read(tree: ast.Module) -> set[str]:
    """The attribute names `tree` loads.  A function loading its own name
    as an attribute, as a recursive method does, does not count."""
    read = set()

    def walk(node: ast.AST, own: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr != own:
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, own)

    walk(tree, None)
    return read


def _unread_methods(module: ast.Module, readers: list[ast.Module]) -> list[str]:
    """The methods and properties of `module`'s classes that no tree in
    `readers` reads as an attribute."""
    return sorted(_methods(module) - set().union(*map(_attributes_read, readers)))


def _dataclasses(tree: ast.Module) -> list[str]:
    """The classes in `tree` that a `dataclass` decorator, called or not,
    decorates."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
                    names.append(node.name)
    return sorted(names)


@lru_cache(maxsize=None)
def _trees(*dirs: str) -> tuple[ast.Module, ...]:
    paths = sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))
    return tuple(ast.parse(p.read_text()) for p in paths)


def test_unused_import_check_finds_an_unused_name():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom typing import Optional, Sequence\n"
        "def f(x: Optional[int]):\n    import json\n    return os.sep, np.pi\n"
    )
    assert _unused_imports(tree) == ["Sequence", "json"]


def test_unread_definition_check_finds_unread_names():
    module = ast.parse(
        "__version__ = '1'\nLIMIT, _SLACK = 3, 4\nTABLE: dict = {}\n"
        "def used():\n    return LIMIT + _SLACK\n"
        "def _for_tests():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class Unused:\n    pass\n"
    )
    tests = ast.parse("from pkg import used, _for_tests\nimport pkg\nprint(pkg.TABLE)\n")
    assert _unread_definitions(module, [module, tests]) == ["Unused", "_recursive"]
    assert _unread_definitions(module, [module]) == ["TABLE", "Unused", "_for_tests", "_recursive", "used"]


def test_unread_method_check_finds_unread_methods():
    module = ast.parse(
        "class A:\n"
        "    def __init__(self):\n        self.stored = self._helper()\n"
        "    def used(self):\n        return self.stored\n"
        "    def _helper(self):\n        return 1\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def _recursive(self, n):\n        return self._recursive(n - 1) if n else 0\n"
        "    def _for_tests(self):\n        pass\n"
        "    def stored_over(self):\n        pass\n"
        "def top_level():\n    pass\n"
    )
    tests = ast.parse("a = A()\na.used()\nprint(a.size)\na._for_tests()\na.stored_over = 1\n")
    assert _unread_methods(module, [module, tests]) == ["_recursive", "stored_over"]
    assert _unread_methods(module, [module]) == [
        "_for_tests", "_recursive", "size", "stored_over", "used"
    ]


def test_dataclass_check_finds_decorated_classes():
    tree = ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass\nfrom typing import NamedTuple\n"
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True)\nclass B:\n    x: int\n"
        "@dataclasses.dataclass(eq=False)\nclass C:\n    x: int\n"
        "class D(NamedTuple):\n    x: int\n"
        "@staticmethod\nclass E:\n    pass\n"
    )
    assert _dataclasses(tree) == ["A", "B", "C"]


# What `import semibrace.cli` loads (see test_cli).  A dataclass generates
# and compiles its methods when its module is imported, so on the start-up
# path a record is a NamedTuple; `SemiBrace` caches its signatures in
# cached_property, which needs a class.
@pytest.mark.parametrize("name, allowed", [
    ("cli.py", []),
    ("core.py", ["SemiBrace"]),
    ("tables.py", []),
])
def test_start_up_modules_define_no_other_dataclass(name, allowed):
    assert _dataclasses(ast.parse((SRC / name).read_text())) == allowed


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_name_is_read(path):
    # a public name may serve the tests or the scripts; a private helper
    # that only the tests need belongs in tests/full_scans.py
    module = ast.parse(path.read_text())
    assert _unread_definitions(module, list(_trees("src", "tests", "scripts"))) == []
    private = _unread_definitions(module, list(_trees("src")))
    assert [name for name in private if name.startswith("_")] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_method_is_read(path):
    module = ast.parse(path.read_text())
    assert _unread_methods(module, list(_trees("src", "tests", "scripts"))) == []
    private = _unread_methods(module, list(_trees("src")))
    assert [name for name in private if name.startswith("_")] == []
