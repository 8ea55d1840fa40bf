"""The real-argument contract: every door that takes a field strength, radius, semi-axis, weight,
Laguerre parameter or cutoff refuses alike.

Each door refuses True, "2", None and 2+0j with "<name> must be a real number, got <x!r>", in the
words of laguerre.finite_real.  nan and -inf fail every lower bound, so they take the door's range
words ("<name> must be finite" where it has none); +inf takes them where the door has an upper
bound and "<name> must be finite, got inf" otherwise.  np.float64, np.int64 and np.float32 inputs
give the bytes and repr of the Python float's answer (a float32 is widened exactly).
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from landaudelta.basis import MagneticField
from landaudelta.census import (
    census,
    coupling_lower_bounds,
    eta_curve,
    eta_table_to_csv,
    gap_constants,
    multiplicities,
    multiplicity,
)
from landaudelta.curves import load_weight, make_circle, make_ellipse
from landaudelta.galerkin import persistence_check
from landaudelta.laguerre import (
    LaguerreSpec,
    gauss_laguerre_log_rule,
    gauss_laguerre_rule,
    orthogonality_defect,
    positive_zeros,
)
from landaudelta.toeplitz import assemble, circle_diagonal, circle_diagonal_log, default_truncation, matrix_to_json

F2 = MagneticField(2.0)
POSITIVE_AND_FINITE = "{} must be positive and finite"
# A census radius of level 2 at b = 2: t = 3.5505... is a zero of L_2^(4), witness k = 6.
R_CENSUS = 1.8842797714821498

# (door id, argument name, range words or None, whether the door bounds x above, a valid x exact in float32, call(x))
DOORS = [
    ("MagneticField-b", "field strength", POSITIVE_AND_FINITE.format("field strength"), True, 2.0, MagneticField),
    ("make_circle-r", "radius", POSITIVE_AND_FINITE.format("radius"), True, 1.25, make_circle),
    ("load_weight-constant", "weight", None, False, -1.5, lambda x: load_weight(make_circle(1.0, n=64), x)),
    ("circle_diagonal-r", "radius", "radius must be positive", False, 1.25, lambda x: circle_diagonal(F2, 1, 2, x)),
    ("circle_diagonal_log-r", "radius", "radius must be positive", False, 1.25,
     lambda x: circle_diagonal_log(F2, 1, 2, x)),
    ("default_truncation-tail_rel", "tail_rel", "tail_rel must lie in (0, 1)", True, 0.5,
     lambda x: default_truncation(F2, 1, make_circle(1.0), tail_rel=x)),
    ("multiplicity-r", "radius", POSITIVE_AND_FINITE.format("radius"), True, 2.0, lambda x: multiplicity(F2, 2, x)),
    ("multiplicities-radii", "radius", POSITIVE_AND_FINITE.format("radius"), True, 2.0,
     lambda x: multiplicities(F2, 2, [1.0, x])),
    ("census-r_max", "r_max", POSITIVE_AND_FINITE.format("r_max"), True, 2.0, lambda x: census(F2, 2, x)),
    ("gap_constants-lambda", "lambda", "lambda must exceed -b = -2.0", False, 0.5, lambda x: gap_constants(F2, 1, x)),
    ("coupling_lower_bounds-c", "trace constant", "trace constant must be positive", False, 2.0,
     lambda x: coupling_lower_bounds(F2, 1, x)),
    ("eta_curve-alpha", "alpha", None, False, -0.5, lambda x: eta_curve(F2, 2, 1, x)),
    ("eta_table_to_csv-alpha", "alpha", None, False, 2.0, lambda x: eta_table_to_csv(F2, 2, [-1.0, x])),
    ("LaguerreSpec-alpha", "alpha", None, False, -2.0, lambda x: LaguerreSpec(3, x)),
    ("positive_zeros-alpha", "alpha", "positive_zeros requires alpha > -1", False, 2.0, lambda x: positive_zeros(3, x)),
    ("positive_zeros-alphas", "alpha", "positive_zeros requires alpha > -1", False, 0.5,
     lambda x: positive_zeros(3, [0.0, x])),
    ("gauss_laguerre_log_rule-alpha", "alpha", "Gauss-Laguerre rule requires alpha > -1", False, 2.0,
     lambda x: gauss_laguerre_log_rule(5, x)),
    ("gauss_laguerre_rule-alpha", "alpha", "Gauss-Laguerre rule requires alpha > -1", False, 0.5,
     lambda x: gauss_laguerre_rule(5, x)),
    ("orthogonality_defect-alpha", "alpha", "orthogonality requires alpha > -1", False, 2.0,
     lambda x: orthogonality_defect([1, 2], 2, x)),
    ("persistence_check-r", "radius", POSITIVE_AND_FINITE.format("radius"), True, 1.0,
     lambda x: persistence_check(F2, 1, x, K=6)),
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


def refused(call, x, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(x)


@pytest.mark.parametrize("name, words, bounded_above, valid, call", [door[1:] for door in DOORS], ids=[door[0] for door in DOORS])
def test_real_argument_contract(name, words, bounded_above, valid, call):
    for x in (True, "2", None, 2 + 0j, np.complex128(2.0)):
        if x == "2" and name == "weight":
            continue  # a str is a weight file path
        refused(call, x, f"{name} must be a real number, got {x!r}")
    for x in (math.nan, -math.inf):
        refused(call, x, f"{words or name + ' must be finite'}, got {x}")
    refused(call, math.inf, f"{words if bounded_above else name + ' must be finite'}, got inf")
    reference = fingerprint(call(valid))
    for x in (np.float64(valid), np.float32(valid)):
        assert fingerprint(call(x)) == reference
    if valid == int(valid) and name != "weight":
        assert fingerprint(call(np.int64(valid))) == fingerprint(call(int(valid))) == reference


def test_weight_keeps_an_integer_constant_as_an_int():
    # describe() prints the constant, so 2 stays "constant(2)"; its samples are those of 2.0.
    curve = make_circle(1.0, n=64)
    ref = load_weight(curve, 2)
    assert fingerprint(load_weight(curve, np.int64(2))) == fingerprint(ref)
    assert ref.source == 2 and type(ref.source) is int
    assert ref.values.tobytes() == load_weight(curve, 2.0).values.tobytes()


@pytest.mark.parametrize("a, b, message", [
    (math.inf, 1.0, "semi-axes must be positive and finite, got a=inf, b=1.0"),
    (1.0, math.nan, "semi-axes must be positive and finite, got a=1.0, b=nan"),
    (-math.inf, 1.0, "semi-axes must be positive and finite, got a=-inf, b=1.0"),
    (0, 2.0, "semi-axes must be positive and finite, got a=0, b=2.0"),
    (True, 1.0, "semi-axis a must be a real number, got True"),
    (1.0, "2", "semi-axis b must be a real number, got '2'"),
    (None, 1.0, "semi-axis a must be a real number, got None"),
    (1.0, 2 + 0j, "semi-axis b must be a real number, got (2+0j)"),
])
def test_ellipse_refusals_name_both_semi_axes(a, b, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make_ellipse(a, b)


def test_ellipse_numpy_semi_axes():
    reference = fingerprint(make_ellipse(1.25, 0.5, n=64))
    for cast in (np.float64, np.float32):
        assert fingerprint(make_ellipse(cast(1.25), cast(0.5), n=64)) == reference
    assert fingerprint(make_ellipse(np.int64(2), np.int64(1), n=64)) == fingerprint(make_ellipse(2.0, 1.0, n=64))


def test_real_arrays_are_checked_as_a_whole():
    # A real ndarray is read by its extremes, so the refusal names the smallest (or a nan, or the inf).
    for door, bad, message in (
        (lambda x: multiplicities(F2, 1, x), [1.0, -2.0, 0.0], "radius must be positive and finite, got -2.0"),
        (lambda x: multiplicities(F2, 1, x), [1.0, math.inf], "radius must be positive and finite, got inf"),
        (lambda x: positive_zeros(2, x), [0.5, math.nan], "positive_zeros requires alpha > -1, got nan"),
        (lambda x: positive_zeros(2, x), [0.5, math.inf], "alpha must be finite, got inf"),
        (lambda x: eta_table_to_csv(F2, 2, x), [0.5, math.inf], "alpha must be finite, got inf"),
    ):
        for array in (np.array(bad), np.array(bad, dtype=np.float32)):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                door(array)
    # An integer array is a real one; a bool array is read entry by entry, as a list is.
    assert multiplicities(F2, 1, np.array([1, 2])).tolist() == multiplicities(F2, 1, [1.0, 2.0]).tolist()
    with pytest.raises(ValueError, match=r"^radius must be a real number, got True$"):
        multiplicities(F2, 1, np.array([True]))
    assert positive_zeros(3, np.array([0.5, 2.0], dtype=np.float32)).tobytes() == positive_zeros(3, [0.5, 2.0]).tobytes()


def test_float32_field_answers_as_the_float_field():
    # Read as a float32, b would form t in float32, and the census radius would miss its zero.
    f32 = MagneticField(np.float32(2.0))
    assert type(f32.b) is float and f32 == F2
    assert multiplicity(f32, 2, R_CENSUS) == multiplicity(F2, 2, R_CENSUS)
    assert [k for k, _ in multiplicity(f32, 2, R_CENSUS)[1]] == [6]
    assert persistence_check(f32, 2, R_CENSUS).persists
    wc = load_weight(make_circle(1.3, n=64), lambda t: 1.0 + 0.5 * np.cos(t))
    m32, m64 = assemble(f32, 2, wc), assemble(F2, 2, wc)
    assert m32.entries.tobytes() == m64.entries.tobytes()
    assert matrix_to_json(m32) == matrix_to_json(m64)
