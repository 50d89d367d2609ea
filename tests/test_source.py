"""Checks on the package source that need no linter: every name a
`semibrace` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "semibrace"


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


def test_unused_import_check_finds_an_unused_name():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom typing import Optional, Sequence\n"
        "def f(x: Optional[int]):\n    import json\n    return os.sep, np.pi\n"
    )
    assert _unused_imports(tree) == ["Sequence", "json"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
