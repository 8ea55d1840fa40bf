"""One eigensolver door per need: eigenvectors from toeplitz.spectrum, eigenvalues from toeplitz.eigenvalues."""

import ast
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from landaudelta import galerkin, toeplitz
from landaudelta.basis import MagneticField
from landaudelta.curves import load_weight, make_circle, make_ellipse

SRC = Path(__file__).resolve().parents[1] / "src" / "landaudelta"

# Every reference to a LAPACK Hermitian solver in src/, by enclosing function.
# laguerre.positive_zeros solves the Jacobi matrices of the Laguerre weight.
DOORS = {
    "eigh": {"toeplitz.spectrum"},
    "eigvalsh": {"toeplitz.eigenvalues", "laguerre.positive_zeros"},
}


def solver_references() -> dict[str, set[str]]:
    found = defaultdict(set)

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name in DOORS:
            found[name].add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def test_solvers_referenced_only_inside_their_doors():
    # Attribute, name and import references all count, so a solver passed
    # around or imported under another name is caught as well as a call.
    assert solver_references() == DOORS


def test_eigenvalue_readers_make_no_eigenvector_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvector solver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    field = MagneticField(2.0)
    m = toeplitz.assemble(field, 1, load_weight(make_circle(1.0, n=256), 1.0), K=6, N=256)
    assert toeplitz.kernel_dim_estimate(m).count == 1
    wc = load_weight(make_ellipse(1.4, 0.9, n=256), lambda t: 1.0 + 0.3 * np.sin(t))
    report = galerkin.cluster_report(galerkin.assemble_model(field, 2, 8, wc, -1, N=256))
    assert sum(c.count for c in report.clusters) == 27
    assert galerkin.persistence_check(field, 2, math.sqrt(2.0), weight=lambda t: 2.0 + np.sin(t)).persists
