"""verify and the CLI reach the package through public names only, so verify checks the doors users run;
verify reports every failure as a verdict, never through an assert that python -O strips."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "landaudelta"


def private_package_imports(path: Path) -> list[str]:
    """Every underscore-prefixed module or name imported from the package (relative or as landaudelta)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "landaudelta"):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [p for alias in node.names if alias.name.split(".")[0] == "landaudelta" for p in alias.name.split(".")]
        else:
            continue
        found += [p for p in parts if p.startswith("_")]
    return found


@pytest.mark.parametrize("module", ["verify", "cli"])
def test_no_private_package_import(module):
    assert private_package_imports(SRC / f"{module}.py") == []


def test_detects_private_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from __future__ import annotations\n"
        "from numpy import _globals\n"
        "from .toeplitz import assemble, _compress\n"
        "from . import _hidden\n"
        "from landaudelta._x import y\n"
        "import landaudelta._y\n"
    )
    assert private_package_imports(path) == ["_compress", "_hidden", "_x", "_y"]


def test_verify_has_no_assert():
    tree = ast.parse((SRC / "verify.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
