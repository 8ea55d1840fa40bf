"""The integer-argument contract: every door that takes a level, cut, degree or count refuses alike.

Each door refuses 2.0, 2.5, True, "2", None (where None is not its
default) and a value below its bound with a ValueError that names the
argument and the value, in the words of laguerre._index; a numpy integer
gives the bytes and repr of the int's answer.
"""

import dataclasses
import re

import numpy as np
import pytest

from landaudelta.basis import BasisIndex, MagneticField, basis_matrix, gram_rule, stacked_parts
from landaudelta.census import coupling_lower_bounds, eta_curve, explicit_D12, gap_constants
from landaudelta.curves import load_weight, make_circle, make_ellipse
from landaudelta.galerkin import assemble_model, model_truncation, persistence_check
from landaudelta.laguerre import LaguerreSpec, gauss_laguerre_log_rule, orthogonality_defect, positive_zeros
from landaudelta.toeplitz import RowLayout, assemble, circle_diagonal_log, default_truncation

F2 = MagneticField(2.0)
WC = load_weight(make_circle(1.0, n=64), lambda t: 1.0 + 0.5 * np.sin(t))
PTS = np.array([[0.3, -0.2], [1.1, 0.4], [-0.7, 0.9]])

# (door id, argument name, lowest accepted value, call(x), whether None is the argument's default)
DOORS = [
    ("LaguerreSpec-degree", "degree", 0, lambda x: LaguerreSpec(x, 0.5), False),
    ("positive_zeros-q", "degree q", 0, lambda x: positive_zeros(x, 0.5), False),
    ("gauss_laguerre_log_rule-n", "node count n", 1, lambda x: gauss_laguerre_log_rule(x, 0.0), False),
    ("landau_level-q", "level q", 0, lambda x: F2.landau_level(x), False),
    ("BasisIndex-k", "angular index k", 0, lambda x: BasisIndex(x, 1), False),
    ("BasisIndex-q", "level q", 0, lambda x: BasisIndex(1, x), False),
    ("basis_matrix-q", "level q", 0, lambda x: basis_matrix(F2, x, range(3), PTS), False),
    ("basis_matrix-k", "angular index k", 0, lambda x: basis_matrix(F2, 1, [0, x], PTS), False),
    ("stacked_parts-q", "level q", 0, lambda x: stacked_parts(F2, x, range(3))(PTS), False),
    ("stacked_parts-k", "angular index k", 0, lambda x: stacked_parts(F2, 1, [0, x])(PTS), False),
    ("stacked_parts-scalar-k", "angular index k", 0, lambda x: stacked_parts(F2, 1, x, (0.2, -0.1))(PTS), False),
    ("gram_rule-kq_max", "kq_max", 0, lambda x: gram_rule(x, 1), False),
    ("gram_rule-dk_max", "dk_max", 0, lambda x: gram_rule(4, x), False),
    ("RowLayout-K", "truncation K", 0, lambda x: RowLayout(range(2), x), False),
    ("RowLayout-cut", "truncation K", 0, lambda x: RowLayout(range(2), (3, x)), False),
    ("circle_diagonal_log-q", "level q", 0, lambda x: circle_diagonal_log(F2, x, 1, 1.0), False),
    ("circle_diagonal_log-k", "angular index k", 0, lambda x: circle_diagonal_log(F2, 1, x, 1.0), False),
    ("default_truncation-q", "level q", 0, lambda x: default_truncation(F2, x, make_circle(1.0)), False),
    ("assemble-q", "level q", 0, lambda x: assemble(F2, x, WC, K=4, N=64), False),
    ("assemble-K", "truncation K", 0, lambda x: assemble(F2, 1, WC, K=x, N=64), True),
    ("assemble_model-Q", "level cutoff Q", 0, lambda x: assemble_model(F2, x, 3, WC, 1, N=64), False),
    ("assemble_model-K", "truncation K", 0, lambda x: assemble_model(F2, 1, x, WC, 1, N=64), False),
    ("assemble_model-cut", "truncation K", 0, lambda x: assemble_model(F2, 1, (3, x), WC, 1, N=64), False),
    ("model_truncation-Q", "level cutoff Q", 0, lambda x: model_truncation(F2, x, make_circle(1.0)), False),
    ("persistence_check-q", "level q", 1, lambda x: persistence_check(F2, x, 1.0, K=6), False),
    ("persistence_check-Q", "level cutoff Q", 1, lambda x: persistence_check(F2, 1, 1.0, K=6, Q=x), True),
    ("persistence_check-K", "truncation K", 0, lambda x: persistence_check(F2, 1, 1.0, K=x, Q=2), True),
    ("gap_constants-q", "level q", 1, lambda x: gap_constants(F2, x, 0.3), False),
    ("coupling_lower_bounds-q", "level q", 0, lambda x: coupling_lower_bounds(F2, x, 1.0), False),
    ("explicit_D12-n_max", "n_max", 1, lambda x: explicit_D12(F2, x), False),
    ("eta_curve-ell", "curve index ell", 1, lambda x: eta_curve(F2, 2, x, 0.5), False),
]


def fingerprint(x):
    """Bytes of every array and repr of every other leaf, through dataclasses, tuples, lists and dicts."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [(f.name, fingerprint(getattr(x, f.name))) for f in dataclasses.fields(x)]
    if isinstance(x, (tuple, list)):
        return type(x).__name__, [fingerprint(v) for v in x]
    if isinstance(x, dict):
        return [(k, fingerprint(v)) for k, v in x.items()]
    return repr(x)


@pytest.mark.parametrize("name, low, call, none_is_default", [door[1:] for door in DOORS], ids=[door[0] for door in DOORS])
def test_integer_argument_contract(name, low, call, none_is_default):
    refusals = [(x, f"{name} must be an integer, got {x!r}") for x in (2.0, 2.5, True, "2", None)]
    refusals.append((low - 1, f"{name} must be >= {low}, got {low - 1}"))
    for x, message in refusals:
        if x is None and none_is_default:
            continue
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(x)
    assert fingerprint(call(np.int64(2))) == fingerprint(call(2))


# Node counts: (door id, argument name, call(x)); None is each count's default.  A count below
# MIN_NODES = 16 keeps the message "need at least 16 nodes, got <x>" that the CLI prints.
NODE_COUNTS = [
    ("make_circle-n", "node count n", lambda x: make_circle(1.0, n=x)),
    ("make_ellipse-n", "node count n", lambda x: make_ellipse(1.0, 0.7, n=x)),
    ("assemble-N", "node count N", lambda x: assemble(F2, 1, WC, K=4, N=x)),
    ("assemble_model-N", "node count N", lambda x: assemble_model(F2, 1, 3, WC, 1, N=x)),
    ("persistence_check-N", "node count N", lambda x: persistence_check(F2, 1, 1.0, K=6, N=x)),
]


@pytest.mark.parametrize("name, call", [door[1:] for door in NODE_COUNTS], ids=[door[0] for door in NODE_COUNTS])
def test_node_count_contract(name, call):
    for x in (64.0, 64.5, True, "64"):
        with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be an integer, got {x!r}") + "$"):
            call(x)
    with pytest.raises(ValueError, match="^need at least 16 nodes, got 15$"):
        call(15)
    assert fingerprint(call(np.int64(64))) == fingerprint(call(64))


def test_orthogonality_defect_names_its_degree():
    # Not the Gauss rule size it would derive from the degrees.
    for q, p, message in ((1.5, 1, "degree q must be an integer, got 1.5"), (1, [0, 2.5], "degree p must be an integer, got 2.5"),
                          (True, 1, "degree q must be an integer, got True"), ("2", 1, "degree q must be an integer, got '2'")):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            orthogonality_defect(q, p, 0.0)
    assert orthogonality_defect(np.int64(3), np.array([1, 3], dtype=np.uint8), 0.5).tobytes() == orthogonality_defect(3, [1, 3], 0.5).tobytes()
