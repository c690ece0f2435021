"""Input checks of the library, each given one bad input: the error class it raises."""

import numpy as np
import pytest

from triwit import (
    BiLinearMap,
    DimMismatch,
    NotHermitian,
    Permutation3,
    TriDims,
    TriOperator,
    TriVector,
    elementary,
    flip,
    from_choi,
    from_function,
    ghz_value,
    permute_dual,
)
from triwit.linalg import hermitize

QUBITS = TriDims(2, 2, 2)
_NAN_AT_3 = np.where(np.arange(8) == 3, np.nan, 1.0)
_XI = TriVector(QUBITS, np.arange(8))
_PHI = from_choi(np.eye(8), QUBITS)


@pytest.mark.parametrize(
    "build,error,match",
    [
        (lambda: TriVector(QUBITS, _NAN_AT_3), ValueError, "finite"),
        (lambda: TriOperator(QUBITS, np.eye(7)), DimMismatch, "shape"),
        (lambda: TriOperator(QUBITS, np.diag(_NAN_AT_3)), ValueError, "finite"),
        (lambda: Permutation3((0, 0, 1)), ValueError, "permutation"),
        (lambda: flip(np.eye(8), Permutation3((1, 0, 2))), TypeError, "TriVector or TriOperator"),
        # a plain tuple is not a party order, even one that Permutation3 would take
        (lambda: flip(_XI, (1, 0, 2)), TypeError, "sigma"),
        (lambda: permute_dual(_PHI, (1, 0, 2)), TypeError, "sigma"),
        (lambda: hermitize(np.ones((2, 3))), NotHermitian, "square"),
        (lambda: BiLinearMap(QUBITS, TriOperator(TriDims(2, 2, 1), np.eye(4))), DimMismatch, "dimensions"),
        (lambda: from_function(lambda x, y: np.zeros((3, 3)), QUBITS), DimMismatch, "shape"),
        (lambda: elementary(np.ones((2, 2)), QUBITS), DimMismatch, "shape"),
        (lambda: ghz_value(1.0, (1, 0, 0, 1), 0.0), ValueError, "5 coefficients"),
        (lambda: ghz_value(1.0, (1, 0, -0.5, 0, 1), 0.0), ValueError, "nonnegative"),
    ],
    ids=["vector-nan", "operator-shape", "operator-nan", "permutation-repeat", "flip-matrix", "flip-tuple",
         "permute-dual-tuple", "hermitize-non-square", "map-dims", "callback-shape", "elementary-shape",
         "ghz-four", "ghz-negative"],
)
def test_each_input_check_raises_its_class(build, error, match):
    with pytest.raises(error, match=match):
        build()
