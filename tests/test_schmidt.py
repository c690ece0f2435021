import math

import numpy as np
import pytest

from triwit import (
    ALL_PERMUTATIONS,
    NotAdmissible,
    Permutation3,
    SchmidtRank,
    TriDims,
    TriVector,
    ZeroVector,
    admissible,
    all_admissible,
    construct_state_with_sr,
    flip,
    product_vector,
    schmidt_rank,
    schmidt_rank_by_definition,
    sr_leq,
    triple_leq,
)
from triwit.schmidt import _construct_ascending

QUBITS = TriDims(2, 2, 2)


def _rand_vector(rng, dims):
    data = rng.standard_normal(dims.total) + 1j * rng.standard_normal(dims.total)
    return TriVector(dims, data)


def _basis(n, i):
    e = np.zeros(n, dtype=complex)
    e[i] = 1.0
    return e


def _diag_sum(n):
    data = np.zeros(n**3, dtype=complex)
    for i in range(n):
        data[(i * n + i) * n + i] = 1.0
    return TriVector(TriDims(n, n, n), data)


def test_schmidt_rank_product_vector():
    xi = product_vector(_basis(2, 0), _basis(2, 0), _basis(2, 0))
    assert schmidt_rank(xi) == SchmidtRank(1, 1, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_schmidt_rank_diagonal_sum(n):
    assert schmidt_rank(_diag_sum(n)) == SchmidtRank(n, n, n)


def test_schmidt_rank_generated_223():
    xi = construct_state_with_sr((2, 2, 3), TriDims(2, 2, 3))
    assert schmidt_rank(xi) == SchmidtRank(2, 2, 3)
    assert schmidt_rank_by_definition(xi) == SchmidtRank(2, 2, 3)


def test_schmidt_rank_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        schmidt_rank(TriVector(QUBITS, np.zeros(8)))


def test_by_definition_agrees_on_random_qubit_vectors():
    rng = np.random.default_rng(30)
    for _ in range(500):
        xi = _rand_vector(rng, QUBITS)
        assert schmidt_rank(xi) == schmidt_rank_by_definition(xi)


def test_by_definition_agrees_on_generator_outputs():
    for t in all_admissible(QUBITS):
        xi = construct_state_with_sr(t, QUBITS)
        assert schmidt_rank(xi) == schmidt_rank_by_definition(xi) == t


def test_one_component_rank_one_forces_equality():
    # e0 x (e0 x e0 + e1 x e1) has ranks (1, 2, 2)
    eta = np.zeros(4, dtype=complex)
    eta[0] = eta[3] = 1.0
    xi = TriVector(QUBITS, np.kron(_basis(2, 0), eta))
    assert schmidt_rank(xi) == SchmidtRank(1, 2, 2)
    assert schmidt_rank_by_definition(xi) == SchmidtRank(1, 2, 2)


def test_sr_leq_product_vector():
    rng = np.random.default_rng(31)
    u, v, w = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2)
    assert sr_leq(product_vector(u, v, w), (1, 1, 1))


def test_sr_leq_ghz():
    ghz = TriVector(QUBITS, _basis(8, 0) + _basis(8, 7))
    assert not sr_leq(ghz, (1, 2, 2))
    assert sr_leq(ghz, (2, 2, 2))


@pytest.mark.parametrize(
    "t",
    [(1.5, 2, 2), (2.9, 1, 1), (2, 2), (2, 2, 2, 1), ("2", 2, 2), (True, 2, 2), (2, np.True_, 1), (None, 2, 2),
     (math.nan, 2, 2)],
)
def test_triplets_need_three_integral_entries(t):
    # a fractional entry is not truncated, a missing or extra one is not dropped, a bool does not count as 1
    # (admissible((True, 2, 2), QUBITS) was True), and an entry int() refuses is refused
    ghz = TriVector(QUBITS, _basis(8, 0) + _basis(8, 7))
    with pytest.raises(ValueError):
        admissible(t, QUBITS)
    with pytest.raises(ValueError):
        construct_state_with_sr(t, QUBITS)
    with pytest.raises(ValueError):
        triple_leq(t, (2, 1, 1))
    with pytest.raises(ValueError):
        triple_leq((1, 1, 1), t)
    for xi in (ghz, TriVector(QUBITS, np.zeros(8, dtype=complex))):
        with pytest.raises(ValueError):
            sr_leq(xi, t)
    # integral floats and numpy integers still count
    exact = (2.0, np.int64(2), 2)
    assert admissible(exact, QUBITS) and triple_leq((1, 2, 2), exact) and sr_leq(ghz, exact)
    assert schmidt_rank(construct_state_with_sr((1.0, np.int32(2), 2), QUBITS)) == SchmidtRank(1, 2, 2)


def test_admissible_examples():
    assert admissible((1, 2, 2), QUBITS)
    assert not admissible((1, 2, 3), TriDims(3, 3, 3))  # third component exceeds 1*2
    assert admissible((2, 2, 4), TriDims(2, 2, 4))  # boundary: 4 == 2*2


def test_all_admissible_counts():
    assert len(all_admissible(QUBITS)) == 5
    assert len(all_admissible(TriDims(3, 3, 3))) == 15
    assert len(all_admissible(TriDims(4, 4, 4))) == 37


def test_construct_trivial_target():
    xi = construct_state_with_sr((1, 1, 1), QUBITS)
    assert schmidt_rank(xi) == SchmidtRank(1, 1, 1)
    assert np.count_nonzero(xi.data) == 1


def test_construct_full_qubit_target():
    xi = construct_state_with_sr((2, 2, 2), QUBITS)
    assert schmidt_rank(xi) == SchmidtRank(2, 2, 2)


def test_construct_exhaustive_333():
    dims = TriDims(3, 3, 3)
    for t in all_admissible(dims):
        xi = construct_state_with_sr(t, dims)
        assert schmidt_rank(xi) == t


@pytest.mark.parametrize("d", [(1, 2, 3), (2, 3, 4), (3, 3, 2), (4, 2, 3), (4, 4, 4)])
def test_construct_equals_flipping_the_sorted_vector_back(d):
    # the direct transpose must give, bit for bit, the vector built on the
    # stably sorted dims and flipped back by the inverse order; ties included
    dims = TriDims(*d)
    for t in all_admissible(dims):
        order = Permutation3(tuple(int(i) for i in np.argsort(t, kind="stable")))
        ds = order.apply(d)
        want = flip(TriVector(TriDims(*ds), _construct_ascending(*order.apply(t), ds).ravel()), order.inverse())
        got = construct_state_with_sr(t, dims)
        assert got.dims == want.dims == dims
        assert got.data.tobytes() == want.data.tobytes(), t


def test_construct_rejects_inadmissible():
    with pytest.raises(NotAdmissible):
        construct_state_with_sr((1, 2, 3), TriDims(3, 3, 3))


def test_construct_in_larger_dims():
    dims = TriDims(4, 3, 5)
    for t in all_admissible(TriDims(2, 2, 4)):
        xi = construct_state_with_sr(t, dims)
        assert xi.dims == dims
        assert schmidt_rank(xi) == t


def test_permutation_covariance():
    rng = np.random.default_rng(33)
    dims = TriDims(2, 3, 4)
    for _ in range(40):
        xi = _rand_vector(rng, dims)
        base = tuple(schmidt_rank(xi))
        for sigma in ALL_PERMUTATIONS:
            assert tuple(schmidt_rank(flip(xi, sigma))) == sigma.apply(base)


def test_rank_triplet_always_admissible():
    rng = np.random.default_rng(34)
    for dims in (QUBITS, TriDims(2, 3, 4), TriDims(4, 4, 4)):
        for _ in range(40):
            assert admissible(schmidt_rank(_rand_vector(rng, dims)), dims)
    # low-rank inputs as well, via the generator in bigger ambient dims
    for t in all_admissible(TriDims(2, 2, 3)):
        xi = construct_state_with_sr(t, TriDims(3, 4, 4))
        assert admissible(schmidt_rank(xi), TriDims(3, 4, 4))


def test_scaling_invariance():
    rng = np.random.default_rng(35)
    xi = _rand_vector(rng, TriDims(3, 2, 3))
    base = schmidt_rank(xi)
    for lam in (2.0, -0.5, 1e-4 + 3j):
        assert schmidt_rank(TriVector(xi.dims, lam * xi.data)) == base


# powers of two scale every float exactly, so a scale-free rule must give identical results
SCALES = [pytest.param(2.0**e, id=f"2^{e}") for e in (40, -40, 400, -400)]


@pytest.mark.parametrize("lam", SCALES)
def test_rank_triplet_does_not_depend_on_scale(lam):
    dims = TriDims(3, 3, 3)
    rng = np.random.default_rng(36)
    vectors = [construct_state_with_sr(t, dims) for t in all_admissible(dims)]
    vectors += [_rand_vector(rng, dims) for _ in range(3)] + [_diag_sum(3), product_vector(*(_basis(3, 1),) * 3)]
    for xi in vectors:
        scaled = TriVector(dims, lam * xi.data)
        assert schmidt_rank(scaled) == schmidt_rank(xi)
        assert schmidt_rank_by_definition(scaled) == schmidt_rank_by_definition(xi)
        assert [sr_leq(scaled, t) for t in all_admissible(dims)] == [sr_leq(xi, t) for t in all_admissible(dims)]


def test_only_the_zero_vector_is_zero():
    # a GHZ-class vector keeps its triplet however small or large it is scaled
    xi = construct_state_with_sr((2, 2, 2), QUBITS)
    for scale in 10.0 ** np.arange(-300, 201, 25):
        scaled = TriVector(QUBITS, scale * xi.data)
        assert schmidt_rank(scaled) == schmidt_rank_by_definition(scaled) == SchmidtRank(2, 2, 2), scale
        assert not sr_leq(scaled, (1, 1, 1))
    zero = TriVector(QUBITS, np.zeros(8))
    with pytest.raises(ZeroVector):
        schmidt_rank_by_definition(zero)
    assert sr_leq(zero, (1, 1, 1))
