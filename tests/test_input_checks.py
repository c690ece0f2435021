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
    all_admissible,
    apply,
    contract_a,
    contract_ab,
    construct_state_with_sr,
    elementary,
    flip,
    from_choi,
    from_function,
    ghz_value,
    is_completely_positive,
    kraus_decompose,
    pair,
    permute_dual,
    sample_sr_vector,
    sample_state,
    schmidt_rank,
    schmidt_rank_by_definition,
    sr_leq,
    svd_rank,
    violation_search,
)
from triwit.linalg import hermitize

QUBITS = TriDims(2, 2, 2)
_NAN_AT_3 = np.where(np.arange(8) == 3, np.nan, 1.0)
_XI = TriVector(QUBITS, np.arange(8))
_PHI = from_choi(np.eye(8), QUBITS)
_NAN_2X2 = np.array([[1.0, np.nan], [0.0, 1.0]])
_INF_2X2 = np.array([[np.inf, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize(
    "build,error,match",
    [
        (lambda: TriVector(QUBITS, _NAN_AT_3), ValueError, "finite"),
        # the shape is checked before the entries
        (lambda: TriVector(QUBITS, _NAN_AT_3[:7]), DimMismatch, "shape"),
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
        (lambda: elementary(np.full((2, 4), np.nan), QUBITS), ValueError, "elementary"),
        (lambda: from_function(lambda x, y: np.full((2, 2), np.nan), QUBITS), ValueError, "callback"),
        (lambda: apply(_PHI, _NAN_2X2, np.eye(2)), ValueError, "finite"),
        (lambda: apply(_PHI, np.eye(2), _INF_2X2), ValueError, "finite"),
        (lambda: contract_a(_PHI, _NAN_2X2), ValueError, "finite"),
        (lambda: contract_ab(_PHI, np.diag(_NAN_AT_3[:4])), ValueError, "finite"),
        (lambda: svd_rank(np.ones(3)), DimMismatch, "2-D"),
        (lambda: svd_rank(np.ones((2, 2, 2))), DimMismatch, "2-D"),
        (lambda: svd_rank(_NAN_2X2), ValueError, "finite"),
        (lambda: svd_rank(_INF_2X2), ValueError, "finite"),
        (lambda: sample_sr_vector(QUBITS, (1, 1, 1), 0), TypeError, "rng"),
        (lambda: sample_state(QUBITS, (1, 1, 1), 1, 0), TypeError, "rng"),
        (lambda: ghz_value(1.0, (1, 0, 0, 1), 0.0), ValueError, "5 coefficients"),
        (lambda: ghz_value(1.0, (1, 0, -0.5, 0, 1), 0.0), ValueError, "nonnegative"),
        # a bare array or tuple where a triwit type is expected
        (lambda: pair(np.eye(8), _PHI), TypeError, "rho"),
        (lambda: kraus_decompose(np.eye(8)), TypeError, "phi"),
        (lambda: violation_search(np.eye(8), (1, 1, 1)), TypeError, "w must"),
        (lambda: from_choi(np.eye(8), (2, 2, 2)), TypeError, "dims"),
        (lambda: schmidt_rank(np.ones(8)), TypeError, "xi"),
        (lambda: is_completely_positive(np.eye(8)), TypeError, "phi"),
        (lambda: permute_dual(np.eye(8), Permutation3((1, 0, 2))), TypeError, "phi"),
        (lambda: apply(np.eye(8), np.eye(2), np.eye(2)), TypeError, "phi"),
        (lambda: contract_a(np.eye(8), np.eye(2)), TypeError, "phi"),
        (lambda: contract_ab(np.eye(8), np.eye(4)), TypeError, "phi"),
        (lambda: schmidt_rank_by_definition(np.ones(8)), TypeError, "xi"),
        (lambda: sr_leq(np.ones(8), (1, 1, 1)), TypeError, "xi"),
        (lambda: construct_state_with_sr((1, 1, 1), (2, 2, 2)), TypeError, "dims"),
        (lambda: all_admissible((2, 2, 2)), TypeError, "dims"),
    ],
    ids=["vector-nan", "vector-size-nan", "operator-shape", "operator-nan", "permutation-repeat", "flip-matrix",
         "flip-tuple", "permute-dual-tuple", "hermitize-non-square", "map-dims", "callback-shape", "elementary-shape",
         "elementary-nan", "callback-nan", "apply-x-nan", "apply-y-inf", "contract-a-nan", "contract-ab-nan",
         "svd-rank-1d", "svd-rank-3d", "svd-rank-nan", "svd-rank-inf", "sr-vector-int-rng", "state-int-rng",
         "ghz-four", "ghz-negative", "pair-array", "kraus-array", "search-array", "choi-tuple-dims",
         "schmidt-rank-array", "cp-array", "permute-dual-array", "apply-array", "contract-a-array",
         "contract-ab-array", "sr-by-definition-array", "sr-leq-array", "construct-tuple-dims",
         "all-admissible-tuple-dims"],
)
def test_each_input_check_raises_its_class(build, error, match):
    with pytest.raises(error, match=match):
        build()
