"""One door per decision: eigenvectors from toeplitz.spectrum, eigenvalues from toeplitz.eigenvalues,
the level-major row order from toeplitz.RowLayout, basis rows from its row blocks, the default cuts
from toeplitz._level_cuts, the sample-table rule from curves._periodic_rows and t = b|x|^2/2 of points
from basis._moduli."""

import ast
import math
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

# Every reference in src/ to a name that spells out the row order.  flat_index
# reads RowLayout.index, the one (j, k) -> row map, and is only re-exported by
# galerkin (the bench reads galerkin.flat_index); no row arrays come from
# meshgrid; np.repeat spreads per-level values onto rows in RowLayout alone,
# and census builds its zero table with it.
ROW_ORDER = {
    "flat_index": {"galerkin"},
    "meshgrid": set(),
    "repeat": {"toeplitz.RowLayout.spread", "census._LevelZeros.__init__", "census._LevelZeros.upto"},
}


# Every reference in src/ to a per-level basis evaluation that an interaction
# kernel could stack: the quadrature fills one basis array in row blocks of the
# layout, so basis_matrix is only re-exported and read by two verify checks,
# and vstack only stacks verify's translated rows.
BASIS_ROWS = {
    "basis_matrix": {"__init__", "verify", "verify.check_basis_phase", "verify.check_toeplitz_nodal_characterization"},
    "vstack": {"verify._translated_assembly"},
}


# Every reference in src/ to the default-cut rule: _level_cuts picks every
# level's default K from one sweep, and no second spelling of it remains.
CUTS = {
    "_level_cuts": {"toeplitz.default_truncation", "galerkin", "galerkin.model_truncation", "galerkin.persistence_check"},
    "_model_cuts": set(),
}


# Every reference in curves.py to a test of sampled parameters or values:
# finiteness, order, range, the closing row and the grid are checked in
# _periodic_rows alone, which load_curve, the JordanCurve constructor and
# the weight table type _Table (built by load_weight and the WeightedCurve
# constructor) call.  The one other finiteness test is WeightedCurve._sample's, of the
# values a weight source gives; no np.diff orders a parameter column.
SAMPLE_TABLES = {
    "_periodic_rows": {"curves.JordanCurve.__post_init__", "curves._Table.__new__", "curves.load_curve"},
    "_require_uniform_grid": set(),
    "_CLOSURE_TOL": {"curves", "curves._periodic_rows"},
    "isfinite": {"curves._periodic_rows", "curves.WeightedCurve._sample"},
    "diff": set(),
}
SAMPLE_REFUSALS = ("non-finite", "strictly increasing", "[0, 2pi)", "closing row", "uniform grid", "1-D of equal length")


# Every reference in the basis and the kernels (basis.py, toeplitz.py, galerkin.py) to the one
# spelling of t of points, and every product of an expression with itself there: t = b|x|^2/2 is
# formed from coordinates in basis._moduli alone (np.hypot names the radius of its refusal), and from
# a radius in MagneticField.modulus.
MODULI = {
    "_moduli": {"basis.magnetic_phase", "basis._parts_arrays", "toeplitz", "toeplitz._node_moduli"},
    "hypot": {"basis._moduli"},
}
SQUARES = {"basis.MagneticField.modulus", "basis._moduli"}
KERNEL_MODULES = ("basis", "toeplitz", "galerkin")


def references(allowed: dict[str, set[str]]) -> dict[str, set[str]]:
    """For each name in allowed, the enclosing functions (or modules) in src/ that reference it."""
    found = {name: set() for name in allowed}

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
        if name in found:
            found[name].add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def test_solvers_referenced_only_inside_their_doors():
    # Attribute, name and import references all count, so a solver passed
    # around or imported under another name is caught as well as a call.
    assert references(DOORS) == DOORS


def test_row_order_spelled_out_only_in_the_row_layout():
    assert references(ROW_ORDER) == ROW_ORDER


def test_basis_rows_never_stacked_per_level():
    assert references(BASIS_ROWS) == BASIS_ROWS


def test_default_cuts_picked_only_by_the_one_sweep():
    assert references(CUTS) == CUTS


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


def test_sample_tables_checked_only_by_the_one_rule():
    in_curves = {name: {w for w in where if w.split(".")[0] == "curves"} for name, where in references(SAMPLE_TABLES).items()}
    assert in_curves == SAMPLE_TABLES
    # Every raise in curves.py whose message names a table rule sits in that function too.
    tree = ast.parse((SRC / "curves.py").read_text())
    raisers = {
        func.name
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Raise) and any(phrase in ast.unparse(node.exc) for phrase in SAMPLE_REFUSALS)
    }
    assert raisers == {"_periodic_rows"}


def test_t_of_points_formed_in_one_function():
    in_kernels = {name: {w for w in where if w.split(".")[0] in KERNEL_MODULES} for name, where in references(MODULI).items()}
    assert in_kernels == MODULI
    squares = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and ast.dump(node.left) == ast.dump(node.right):
            squares.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for module in KERNEL_MODULES:
        visit(ast.parse((SRC / f"{module}.py").read_text()), module)
    assert squares == SQUARES


def test_kernels_rerun_nothing_to_name_an_overflow():
    # basis._log_abs names the first level past the double range, so no kernel catches a refusal to rename it.
    tree = ast.parse((SRC / "toeplitz.py").read_text())
    kernels = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("_quadrature_sums", "_circle_sums", "_compress"):
        assert not any(isinstance(node, ast.Try) for node in ast.walk(kernels[name])), name
