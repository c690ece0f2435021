"""Schmidt-rank triplets, bi-linear-map witnesses and tri-partite entanglement tools."""

__version__ = "0.1.0"

from .choi import (
    BiLinearMap,
    apply,
    contract_a,
    contract_ab,
    elementary,
    from_choi,
    from_function,
    is_completely_positive,
    kraus_decompose,
    pair,
    permute_dual,
)
from .errors import (
    ConsistencyError,
    DegeneratePencil,
    DimMismatch,
    NonPositive,
    NotAdmissible,
    NotHermitian,
    NotPSD,
    TriwitError,
    ZeroVector,
)
from .linalg import DEFAULT_TOL, Tolerance, hermitian_eig, min_gen_eig, svd_rank
from .schmidt import (
    SchmidtRank,
    admissible,
    all_admissible,
    construct_state_with_sr,
    schmidt_rank,
    schmidt_rank_by_definition,
    sr_leq,
    triple_leq,
)
from .search import (
    NoViolation,
    SeesawConfig,
    SeesawRun,
    ViolationCertificate,
    sample_sr_vector,
    sample_state,
    seesaw_minimize,
    violation_search,
)
from .tensor import (
    ALL_PERMUTATIONS,
    MODE_A,
    MODE_B,
    MODE_C,
    Permutation3,
    TriDims,
    TriOperator,
    TriVector,
    flip,
    product_vector,
    unfold,
)
from .witness import (
    AlphaGrid,
    ClassVerdict,
    PositivityReport,
    QubitWitnessParams,
    Verdict,
    alpha_slack,
    check_111,
    check_222,
    check_pair_class,
    classify,
    family_choi,
    genuine_witness,
    ghz_value,
)
