"""The coordinate contract: every door that takes points reads them through basis._as_points and refuses alike.

A coordinate is read as laguerre.finite_real reads a real scalar: None, True, a complex and a str are refused
with "coordinate must be a real number, got <x!r>", nan and +-inf with "coordinate must be finite, got <x>",
and a trailing axis other than 2 with "points must have a trailing axis of size 2, got shape <shape>".  A
point whose t = b|x|^2/2 is past the double range is refused by basis._moduli, the one spelling of t of
points, naming b and |x|.  Every refusal comes without a numpy warning.  Lists, tuples, ints and float32
arrays of valid points give the bytes of the float64 array's answer.
"""

import math
import re
import warnings

import numpy as np
import pytest

from landaudelta.basis import (
    BasisIndex,
    MagneticField,
    annihilation_residual,
    basis_eval,
    basis_eval_parts,
    basis_matrix,
    magnetic_phase,
    magnetic_translate,
    stacked_parts,
    translated_parts,
)

F2 = MagneticField(2.0)
I10 = BasisIndex(1, 0)
Y = [0.5, -0.25]


def phi10(p):
    return basis_eval(F2, I10, p)


# Each door called on points as given; basis_matrix takes an (N, 2) array, so the contract hands it [point].
DOORS = {
    "basis_eval": lambda p: basis_eval(F2, BasisIndex(3, 1), p),
    "basis_eval_parts": lambda p: basis_eval_parts(F2, I10, p),
    "basis_matrix": lambda p: basis_matrix(F2, 1, [0, 2], p),
    "magnetic_phase": lambda p: magnetic_phase(F2, p),
    "magnetic_translate-x": lambda p: magnetic_translate(F2, Y, phi10, p),
    "magnetic_translate-y": lambda p: magnetic_translate(F2, p, phi10, Y),
    "annihilation_residual": lambda p: annihilation_residual(F2, I10, p),
    "stacked_parts-points": lambda p: stacked_parts(F2, 1, [0, 2])(p),
    "stacked_parts-y": lambda p: stacked_parts(F2, 1, [0, 2], p)(np.array(Y)),
    "translated_parts-y": lambda p: translated_parts(F2, I10, p)(np.array(Y)),
    "translated_parts-points": lambda p: translated_parts(F2, I10, Y)(p),
}

REFUSALS = [
    ([math.nan, 0.0], "coordinate must be finite, got nan"),
    ([0.0, math.inf], "coordinate must be finite, got inf"),
    ([-math.inf, 0.0], "coordinate must be finite, got -inf"),
    ([None, 0.0], "coordinate must be a real number, got None"),
    ([True, False], "coordinate must be a real number, got True"),
    ([0.5, 2 + 0j], "coordinate must be a real number, got (2+0j)"),
    (["1", 0.0], "coordinate must be a real number, got '1'"),
    ([1.0, 2.0, 3.0], "points must have a trailing axis of size 2, got shape {}"),
    ([1e160, 0.0], "t = b r^2 / 2 is past the double range at b = 2, r = 1e+160"),
]


def fingerprint(x):
    """Bytes of every array and repr of every other leaf, through tuples."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, tuple):
        return tuple(fingerprint(v) for v in x)
    return repr(x)


def refused(call, x, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(x)


@pytest.mark.parametrize("door", DOORS)
def test_point_argument_contract(door):
    matrix = door == "basis_matrix"
    call = (lambda p: DOORS[door]([p])) if matrix else DOORS[door]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point, message in REFUSALS:
            refused(call, point, message.format((1, 3) if matrix else (3,)))
        reference = fingerprint(call(np.array([0.75, -1.25])))
        for same in ([0.75, -1.25], (0.75, -1.25), np.array([0.75, -1.25], dtype=np.float32)):
            assert fingerprint(call(same)) == reference
        assert fingerprint(call([2, -1])) == fingerprint(call(np.array([2.0, -1.0])))


@pytest.mark.parametrize("array, message", [
    (np.array([True, False]), "coordinate must be a real number, got True"),
    (np.array([[0.5, 1 + 0j]]), "coordinate must be a real number, got (0.5+0j)"),
    (np.array([[0.5, None]], dtype=object), "coordinate must be a real number, got None"),
    (np.array([["0.5", "1"]]), "coordinate must be a real number, got '0.5'"),
    (np.array([[0.5, 0.25], [math.nan, 1.0]]), "coordinate must be finite, got nan"),
    (np.array([[0.5, 0.25], [1.0, -math.inf]], dtype=np.float32), "coordinate must be finite, got -inf"),
    (np.zeros((2, 3)), "points must have a trailing axis of size 2, got shape (2, 3)"),
    (np.float64(0.5), "points must have a trailing axis of size 2, got shape ()"),
])
def test_arrays_of_points_refused_by_dtype_value_and_shape(array, message):
    # A bool, complex, object or str array is read entry by entry, so its first entry is named; a real
    # array by its extremes.  Every door checks before it reads a shape, so each refuses every array
    # alike, with no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in DOORS.values():
            refused(call, array, message)


def test_valid_points_keep_their_shape_and_empty_arrays_pass():
    # The door reads an empty array by no entry and the t function refuses nothing in it.
    grid = np.random.default_rng(3).normal(size=(3, 4, 2))
    assert basis_eval(F2, I10, grid).shape == (3, 4)
    assert stacked_parts(F2, 1, [0, 2, 5])(grid)[0].shape == (3, 3, 4)
    assert magnetic_phase(F2, grid).shape == (3, 4)
    assert basis_matrix(F2, 1, [0, 2], np.zeros((0, 2))).shape == (2, 0)
    assert magnetic_phase(F2, np.zeros((0, 2))).shape == (0,)


def test_far_field_degrades_to_zero_until_t_leaves_the_double_range():
    # Values underflow to zero without a warning while t = b|x|^2/2 and the Laguerre factor stay in the
    # double range; past it t is refused by name, at b = 2 from |x| = 1.35e154 on (x x overflows).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (40.0, 1e3, 1e100, 1.3e154):
            assert basis_eval(F2, I10, [r, 0.0]) == 0
            assert basis_eval(F2, BasisIndex(5, 0), [0.0, -r]) == 0
        refused(DOORS["basis_eval_parts"], [1.35e154, 0.0], "t = b r^2 / 2 is past the double range at b = 2, r = 1.35e+154")
        refused(lambda p: magnetic_phase(MagneticField(1e300), p), [[0.5, 0.0], [3e4, 4e4]],
                "t = b r^2 / 2 is past the double range at b = 1e+300, r = 50000")
        # A Laguerre factor of degree min(k, q) >= 1 leaves the double range first at a large t: refused by name.
        refused(lambda p: basis_eval(F2, BasisIndex(3, 2), p), [1e120, 0.0],
                "Laguerre factor of phi_(k,q) is not finite at q = 2, t = 1e+240: past the double range")
