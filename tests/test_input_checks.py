"""Input checks of the library, each given one bad input: the error class it raises.

Each row is keyed by the name it calls, and every callable that ``triwit`` exports has a row
unless it sits in ``NO_ROW`` with the reason it takes no input to check. The wrong-kind cases
are generated from the annotations: each parameter annotated with a triwit class or
``numpy.random.Generator`` refuses a value of another kind with a TypeError naming it, unless
``BY_DESIGN`` gives the reason it does not.
"""

import inspect
from typing import get_type_hints

import numpy as np
import pytest

import triwit
from triwit import (
    DEFAULT_TOL,
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
    apply,
    check_pair_class,
    contract_a,
    contract_ab,
    elementary,
    flip,
    from_choi,
    from_function,
    genuine_witness,
    ghz_value,
    min_gen_eig,
    product_vector,
    sr_leq,
    svd_rank,
    triple_leq,
)
from triwit.linalg import hermitize

QUBITS = TriDims(2, 2, 2)
_NAN_AT_3 = np.where(np.arange(8) == 3, np.nan, 1.0)
_XI = TriVector(QUBITS, np.arange(8))
_PHI = from_choi(np.eye(8), QUBITS)
_NAN_2X2 = np.array([[1.0, np.nan], [0.0, 1.0]])
_INF_2X2 = np.array([[np.inf, 1.0], [1.0, 1.0]])
_MEMBER = QubitWitnessParams(s=(1, 1, 1, 1), t=(1, 1, 1, 1), u=(0, 0, 0, 0))

# (id, name called, build, error class, message fragment)
ROWS = [
    ("vector-nan", "TriVector", lambda: TriVector(QUBITS, _NAN_AT_3), ValueError, "finite"),
    # the shape is checked before the entries
    ("vector-size-nan", "TriVector", lambda: TriVector(QUBITS, _NAN_AT_3[:7]), DimMismatch, "shape"),
    ("operator-shape", "TriOperator", lambda: TriOperator(QUBITS, np.eye(7)), DimMismatch, "shape"),
    ("operator-nan", "TriOperator", lambda: TriOperator(QUBITS, np.diag(_NAN_AT_3)), ValueError, "finite"),
    ("permutation-repeat", "Permutation3", lambda: Permutation3((0, 0, 1)), ValueError, "permutation"),
    ("flip-matrix", "flip", lambda: flip(np.eye(8), Permutation3((1, 0, 2))), TypeError, "TriVector or TriOperator"),
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
    ("ghz-four", "ghz_value", lambda: ghz_value(1.0, (1, 0, 0, 1), 0.0), ValueError, "5 coefficients"),
    ("ghz-negative", "ghz_value", lambda: ghz_value(1.0, (1, 0, -0.5, 0, 1), 0.0), ValueError, "nonnegative"),
    # hermitize is not exported, so no case is generated for its tol
    ("hermitize-float-tol", "hermitize", lambda: hermitize(np.eye(2), 1e-9), TypeError, "tol"),
    # tol's kind is checked before the early return of an empty matrix or of the zero vector
    ("svd-rank-empty-float-tol", "svd_rank", lambda: svd_rank(np.zeros((0, 3)), 1e-9), TypeError, "tol"),
    ("sr-leq-zero-float-tol", "sr_leq", lambda: sr_leq(TriVector(QUBITS, np.zeros(8)), (1, 1, 1), 1e-9), TypeError,
     "tol"),
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

# each kind a parameter is annotated with: a valid value, and the near-miss of another kind a caller might pass
KINDS = {
    TriDims: (QUBITS, (2, 2, 2)),
    Permutation3: (Permutation3((1, 0, 2)), (1, 0, 2)),
    QubitWitnessParams: (_MEMBER, ((1, 1, 1, 1), (1, 1, 1, 1), (0, 0, 0, 0))),
    AlphaGrid: (AlphaGrid(4, 4), (4, 4)),
    SeesawConfig: (SeesawConfig(restarts=1), (1, 200, 0)),
    TriVector: (_XI, np.arange(8)),
    TriOperator: (TriOperator(QUBITS, np.eye(8)), np.eye(8)),
    BiLinearMap: (_PHI, np.eye(8)),
    Tolerance: (DEFAULT_TOL, 1e-9),
    np.random.Generator: (np.random.default_rng(0), 0),
}
# a valid value for each other parameter without a default, by name, or by (callable, name) to override one
ARGS = {
    "a": np.eye(2), "b": np.eye(2), "m": np.eye(2), "x": np.eye(2), "y": np.eye(2), "z": np.eye(4),
    "mat": np.eye(8), "wmat": np.eye(8), "data": np.arange(8), "v": np.ones((2, 4)), "f": lambda x, y: np.eye(2),
    "t": (1, 1, 1), "target": (1, 1, 1), "cls": (1, 2, 2), "alpha": 1.0, "n_terms": 1, "mode": 0,
    ("flip", "x"): _XI,
}
# annotated parameters that take a value of another kind unchecked, each with the reason
BY_DESIGN = {("seesaw_minimize", "rng"): "seesaw_minimize runs once a restart, so a check there would cost each one"}

EXPORTED = {name: value for name, value in vars(triwit).items() if not name.startswith("_") and callable(value)}


def _is_kind(hint) -> bool:
    return hint is np.random.Generator or isinstance(hint, type) and hint.__module__.startswith("triwit.")


ANNOTATED = [
    (name, param)
    for name, f in sorted(EXPORTED.items()) if name not in set().union(*NO_ROW.values())
    for param in inspect.signature(f).parameters if _is_kind(get_type_hints(f).get(param))
]
CASES = [case for case in ANNOTATED if case not in BY_DESIGN]


@pytest.mark.parametrize("name,build,error,match", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_each_input_check_raises_its_class(name, build, error, match):
    assert name in build.__code__.co_names
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("name,param", CASES, ids=[f"{name}-{param}" for name, param in CASES])
def test_each_annotated_kind_refuses_another(name, param):
    f, kwargs = EXPORTED[name], {}
    hints = get_type_hints(f)
    for p, arg in inspect.signature(f).parameters.items():
        if _is_kind(hints.get(p)):
            kwargs[p] = KINDS[hints[p]][0]
        elif arg.default is inspect.Parameter.empty:
            kwargs[p] = ARGS[name, p] if (name, p) in ARGS else ARGS[p]
    f(**kwargs)
    with pytest.raises(TypeError, match=f"^{param} must be a "):
        f(**{**kwargs, param: KINDS[hints[param]][1]})


def test_every_exported_callable_has_a_row_or_a_reason():
    keyed = {row[1] for row in ROWS} | {name for name, _ in CASES}
    excused = set().union(*NO_ROW.values())
    assert set(BY_DESIGN) <= set(ANNOTATED)
    assert excused <= set(EXPORTED)
    assert not keyed & excused
    assert set(EXPORTED) - excused <= keyed, f"no row for {sorted(set(EXPORTED) - excused - keyed)}"
