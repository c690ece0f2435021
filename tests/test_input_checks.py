"""Input checks of the library, each given one bad input: the error class it raises.

Each row is keyed by the name it calls, and every callable that ``triwit`` exports has a row
unless it sits in ``NO_ROW`` with the reason it takes no input to check.
"""

import numpy as np
import pytest

import triwit
from triwit import (
    AlphaGrid,
    BiLinearMap,
    DegeneratePencil,
    DimMismatch,
    NonPositive,
    NotHermitian,
    Permutation3,
    QubitWitnessParams,
    SeesawConfig,
    Tolerance,
    TriDims,
    TriOperator,
    TriVector,
    admissible,
    all_admissible,
    alpha_slack,
    apply,
    check_111,
    check_222,
    check_pair_class,
    classify,
    contract_a,
    contract_ab,
    construct_state_with_sr,
    elementary,
    family_choi,
    flip,
    from_choi,
    from_function,
    genuine_witness,
    ghz_value,
    hermitian_eig,
    is_completely_positive,
    kraus_decompose,
    min_gen_eig,
    pair,
    permute_dual,
    product_vector,
    sample_sr_vector,
    sample_state,
    schmidt_rank,
    schmidt_rank_by_definition,
    seesaw_minimize,
    sr_leq,
    svd_rank,
    triple_leq,
    unfold,
    violation_search,
)
from triwit.linalg import hermitize

QUBITS = TriDims(2, 2, 2)
_NAN_AT_3 = np.where(np.arange(8) == 3, np.nan, 1.0)
_XI = TriVector(QUBITS, np.arange(8))
_PHI = from_choi(np.eye(8), QUBITS)
_W = TriOperator(QUBITS, np.eye(8))
_NAN_2X2 = np.array([[1.0, np.nan], [0.0, 1.0]])
_INF_2X2 = np.array([[np.inf, 1.0], [1.0, 1.0]])
_MEMBER = QubitWitnessParams(s=(1, 1, 1, 1), t=(1, 1, 1, 1), u=(0, 0, 0, 0))
# the member's s, t and u as a bare tuple, where a QubitWitnessParams is expected
_BARE = ((1, 1, 1, 1), (1, 1, 1, 1), (0, 0, 0, 0))

# (id, name called, build, error class, message fragment)
ROWS = [
    ("vector-nan", "TriVector", lambda: TriVector(QUBITS, _NAN_AT_3), ValueError, "finite"),
    # the shape is checked before the entries
    ("vector-size-nan", "TriVector", lambda: TriVector(QUBITS, _NAN_AT_3[:7]), DimMismatch, "shape"),
    ("operator-shape", "TriOperator", lambda: TriOperator(QUBITS, np.eye(7)), DimMismatch, "shape"),
    ("operator-nan", "TriOperator", lambda: TriOperator(QUBITS, np.diag(_NAN_AT_3)), ValueError, "finite"),
    ("permutation-repeat", "Permutation3", lambda: Permutation3((0, 0, 1)), ValueError, "permutation"),
    ("flip-matrix", "flip", lambda: flip(np.eye(8), Permutation3((1, 0, 2))), TypeError, "TriVector or TriOperator"),
    # a plain tuple is not a party order, even one that Permutation3 would take
    ("flip-tuple", "flip", lambda: flip(_XI, (1, 0, 2)), TypeError, "sigma"),
    ("permute-dual-tuple", "permute_dual", lambda: permute_dual(_PHI, (1, 0, 2)), TypeError, "sigma"),
    ("hermitize-non-square", "hermitize", lambda: hermitize(np.ones((2, 3))), NotHermitian, "square"),
    ("callback-shape", "from_function", lambda: from_function(lambda x, y: np.zeros((3, 3)), QUBITS), DimMismatch,
     "shape"),
    ("elementary-shape", "elementary", lambda: elementary(np.ones((2, 2)), QUBITS), DimMismatch, "shape"),
    ("elementary-nan", "elementary", lambda: elementary(np.full((2, 4), np.nan), QUBITS), ValueError, "elementary"),
    ("callback-nan", "from_function", lambda: from_function(lambda x, y: np.full((2, 2), np.nan), QUBITS),
     ValueError, "callback"),
    ("apply-x-nan", "apply", lambda: apply(_PHI, _NAN_2X2, np.eye(2)), ValueError, "finite"),
    ("apply-y-inf", "apply", lambda: apply(_PHI, np.eye(2), _INF_2X2), ValueError, "finite"),
    ("contract-a-nan", "contract_a", lambda: contract_a(_PHI, _NAN_2X2), ValueError, "finite"),
    ("contract-ab-nan", "contract_ab", lambda: contract_ab(_PHI, np.diag(_NAN_AT_3[:4])), ValueError, "finite"),
    ("svd-rank-1d", "svd_rank", lambda: svd_rank(np.ones(3)), DimMismatch, "2-D"),
    ("svd-rank-3d", "svd_rank", lambda: svd_rank(np.ones((2, 2, 2))), DimMismatch, "2-D"),
    ("svd-rank-nan", "svd_rank", lambda: svd_rank(_NAN_2X2), ValueError, "finite"),
    ("svd-rank-inf", "svd_rank", lambda: svd_rank(_INF_2X2), ValueError, "finite"),
    ("sr-vector-int-rng", "sample_sr_vector", lambda: sample_sr_vector(QUBITS, (1, 1, 1), 0), TypeError, "rng"),
    ("state-int-rng", "sample_state", lambda: sample_state(QUBITS, (1, 1, 1), 1, 0), TypeError, "rng"),
    ("ghz-four", "ghz_value", lambda: ghz_value(1.0, (1, 0, 0, 1), 0.0), ValueError, "5 coefficients"),
    ("ghz-negative", "ghz_value", lambda: ghz_value(1.0, (1, 0, -0.5, 0, 1), 0.0), ValueError, "nonnegative"),
    # a bare array or tuple where a triwit type is expected
    ("pair-array", "pair", lambda: pair(np.eye(8), _PHI), TypeError, "rho"),
    ("kraus-array", "kraus_decompose", lambda: kraus_decompose(np.eye(8)), TypeError, "phi"),
    ("search-array", "violation_search", lambda: violation_search(np.eye(8), (1, 1, 1)), TypeError, "w must"),
    ("choi-tuple-dims", "from_choi", lambda: from_choi(np.eye(8), (2, 2, 2)), TypeError, "dims"),
    ("schmidt-rank-array", "schmidt_rank", lambda: schmidt_rank(np.ones(8)), TypeError, "xi"),
    ("cp-array", "is_completely_positive", lambda: is_completely_positive(np.eye(8)), TypeError, "phi"),
    ("permute-dual-array", "permute_dual", lambda: permute_dual(np.eye(8), Permutation3((1, 0, 2))), TypeError,
     "phi"),
    ("apply-array", "apply", lambda: apply(np.eye(8), np.eye(2), np.eye(2)), TypeError, "phi"),
    ("contract-a-array", "contract_a", lambda: contract_a(np.eye(8), np.eye(2)), TypeError, "phi"),
    ("contract-ab-array", "contract_ab", lambda: contract_ab(np.eye(8), np.eye(4)), TypeError, "phi"),
    ("sr-by-definition-array", "schmidt_rank_by_definition", lambda: schmidt_rank_by_definition(np.ones(8)),
     TypeError, "xi"),
    ("sr-leq-array", "sr_leq", lambda: sr_leq(np.ones(8), (1, 1, 1)), TypeError, "xi"),
    ("construct-tuple-dims", "construct_state_with_sr", lambda: construct_state_with_sr((1, 1, 1), (2, 2, 2)),
     TypeError, "dims"),
    ("all-admissible-tuple-dims", "all_admissible", lambda: all_admissible((2, 2, 2)), TypeError, "dims"),
    ("vector-tuple-dims", "TriVector", lambda: TriVector((2, 2, 2), np.ones(8)), TypeError, "dims"),
    ("operator-tuple-dims", "TriOperator", lambda: TriOperator((2, 2, 2), np.eye(8)), TypeError, "dims"),
    ("map-array", "BiLinearMap", lambda: BiLinearMap(np.eye(8)), TypeError, "choi"),
    ("callback-tuple-dims", "from_function", lambda: from_function(lambda x, y: np.eye(2), (2, 2, 2)), TypeError,
     "dims"),
    ("elementary-tuple-dims", "elementary", lambda: elementary(np.ones((2, 4)), (2, 2, 2)), TypeError, "dims"),
    ("admissible-tuple-dims", "admissible", lambda: admissible((1, 1, 1), (2, 2, 2)), TypeError, "dims"),
    ("sr-vector-tuple-dims", "sample_sr_vector",
     lambda: sample_sr_vector((2, 2, 2), (1, 1, 1), np.random.default_rng(0)), TypeError, "dims"),
    ("state-tuple-dims", "sample_state", lambda: sample_state((2, 2, 2), (1, 1, 1), 1, np.random.default_rng(0)),
     TypeError, "dims"),
    ("seesaw-tuple-dims", "seesaw_minimize",
     lambda: seesaw_minimize(np.eye(8), (2, 2, 2), (1, 1, 1), np.random.default_rng(0)), TypeError, "dims"),
    ("unfold-array", "unfold", lambda: unfold(np.ones(8), 0), TypeError, "xi"),
    ("family-tuple-params", "family_choi", lambda: family_choi(_BARE), TypeError, "params"),
    ("classify-tuple-params", "classify", lambda: classify(_BARE), TypeError, "params"),
    ("check-111-tuple-params", "check_111", lambda: check_111(_BARE), TypeError, "params"),
    ("check-222-tuple-params", "check_222", lambda: check_222(_BARE), TypeError, "params"),
    ("alpha-slack-tuple-params", "alpha_slack", lambda: alpha_slack(_BARE, 1.0), TypeError, "params"),
    ("search-tuple-cfg", "violation_search", lambda: violation_search(_W, (1, 1, 1), (20, 200, 0)), TypeError,
     "cfg"),
    # a bare float where a Tolerance is expected
    ("classify-float-tol", "classify", lambda: classify(_MEMBER, 1e-9), TypeError, "tol"),
    ("kraus-float-tol", "kraus_decompose", lambda: kraus_decompose(_PHI, 1e-9), TypeError, "tol"),
    ("hermitize-float-tol", "hermitize", lambda: hermitize(np.eye(2), 1e-9), TypeError, "tol"),
    ("hermitian-eig-float-tol", "hermitian_eig", lambda: hermitian_eig(np.eye(2), 1e-9), TypeError, "tol"),
    ("cp-float-tol", "is_completely_positive", lambda: is_completely_positive(_PHI, 1e-9), TypeError, "tol"),
    ("svd-rank-float-tol", "svd_rank", lambda: svd_rank(np.eye(2), 1e-9), TypeError, "tol"),
    ("schmidt-rank-float-tol", "schmidt_rank", lambda: schmidt_rank(_XI, 1e-9), TypeError, "tol"),
    ("sr-leq-float-tol", "sr_leq", lambda: sr_leq(_XI, (1, 1, 1), 1e-9), TypeError, "tol"),
    ("sr-by-definition-float-tol", "schmidt_rank_by_definition", lambda: schmidt_rank_by_definition(_XI, 1e-9),
     TypeError, "tol"),
    ("search-float-tol", "violation_search", lambda: violation_search(_W, (1, 1, 1), SeesawConfig(), 1e-9),
     TypeError, "tol"),
    # a grid as a bare (radii, angles) tuple; the member is certified before any grid is read
    ("check-111-tuple-grid", "check_111", lambda: check_111(_MEMBER, (64, 64)), TypeError, "grid"),
    ("classify-tuple-grid", "classify", lambda: classify(_MEMBER, grid=(64, 64)), TypeError, "grid"),
    # exported callables whose other rows live in their own test modules
    ("dims-zero", "TriDims", lambda: TriDims(0, 2, 2), DimMismatch, "dimension a"),
    ("tolerance-one", "Tolerance", lambda: Tolerance(rank_rel=1.0), ValueError, "below 1"),
    ("config-no-restarts", "SeesawConfig", lambda: SeesawConfig(restarts=0), ValueError, "restarts"),
    ("grid-no-radii", "AlphaGrid", lambda: AlphaGrid(radii=0), ValueError, "radii"),
    ("params-three", "QubitWitnessParams", lambda: QubitWitnessParams(s=(1, 1, 1), t=(1, 1, 1, 1), u=(0, 0, 0, 0)),
     ValueError, "4 entries"),
    ("pair-class-not-a-pair", "check_pair_class", lambda: check_pair_class(_MEMBER, (1, 1, 1)), ValueError,
     "pair class"),
    ("genuine-zero", "genuine_witness", lambda: genuine_witness(0.0), NonPositive, "scale"),
    ("triple-leq-two", "triple_leq", lambda: triple_leq((1, 1), (1, 1, 1)), ValueError, "three integral"),
    ("product-vector-nan", "product_vector", lambda: product_vector([1.0, np.nan], [1.0], [1.0]), ValueError,
     "finite"),
    ("min-gen-eig-zero-rhs", "min_gen_eig", lambda: min_gen_eig(np.eye(2), np.zeros((2, 2))), DegeneratePencil,
     "no numerically positive"),
]

# exported callables with no row, each set for the reason it takes no input to check
NO_ROW = {
    # exception classes: the library raises them, with messages it builds
    "raised": {"ConsistencyError", "DegeneratePencil", "DimMismatch", "NonPositive", "NotAdmissible", "NotHermitian",
               "NotPSD", "TriwitError", "ZeroVector"},
    # result records: the library builds them from inputs already checked
    "records": {"ClassVerdict", "NoViolation", "PositivityReport", "SchmidtRank", "SeesawRun", "ViolationCertificate"},
    # the enum of verdicts: its members are fixed, and its lookup by value raises its own ValueError
    "enum": {"Verdict"},
}


@pytest.mark.parametrize("name,build,error,match", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_each_input_check_raises_its_class(name, build, error, match):
    assert name in build.__code__.co_names
    with pytest.raises(error, match=match):
        build()


def test_every_exported_callable_has_a_row_or_a_reason():
    exported = {name for name, value in vars(triwit).items() if not name.startswith("_") and callable(value)}
    keyed = {row[1] for row in ROWS}
    excused = set().union(*NO_ROW.values())
    assert excused <= exported
    assert not keyed & excused
    assert exported - excused <= keyed, f"no row for {sorted(exported - excused - keyed)}"
