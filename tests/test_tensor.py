import numpy as np
import pytest

from triwit import (
    ALL_PERMUTATIONS,
    AlphaGrid,
    DimMismatch,
    MODE_A,
    MODE_B,
    MODE_C,
    Permutation3,
    TriDims,
    TriOperator,
    TriVector,
    flip,
    product_vector,
    sample_state,
    seesaw_minimize,
    unfold,
)

QUBITS = TriDims(2, 2, 2)


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_vector(rng, dims):
    return TriVector(dims, _rand_complex(rng, dims.total))


def _basis(n, i):
    e = np.zeros(n, dtype=complex)
    e[i] = 1.0
    return e


def test_tridims_rejects_zero():
    with pytest.raises(DimMismatch):
        TriDims(2, 0, 2)


def _sample(n_terms):
    return sample_state(QUBITS, (1, 1, 1), n_terms, np.random.default_rng(0))


def _seesaw(max_sweeps):
    # no generator: the count is checked before one is read
    return seesaw_minimize(np.eye(8), QUBITS, (1, 2, 2), None, max_sweeps)


_XI = TriVector(QUBITS, np.arange(8))


# every count follows SeesawConfig's rule when it is built: numpy integers
# count, bools and integral floats do not.  Before, TriDims(2.5, 2, 2) built
# with total 10.0 and failed later, AlphaGrid(radii=2.5) built and check_111
# raised TypeError, and True passed as 1; unfold(xi, 1.0) raised TypeError
# and unfold(xi, True) unfolded mode 1, Permutation3((0, 1, 2.0)) built and
# failed in apply, and a see-saw ran max_sweeps=2.5, or 0 sweeps for -3
@pytest.mark.parametrize(
    "build,error,name,least",
    [
        (lambda: TriDims(2.5, 2, 2), DimMismatch, "dimension a", 1),
        (lambda: TriDims(2, True, 2), DimMismatch, "dimension b", 1),
        (lambda: TriDims(2, 2, 3.0), DimMismatch, "dimension c", 1),
        (lambda: AlphaGrid(radii=2.5), ValueError, "radii", 1),
        (lambda: AlphaGrid(angles=True), ValueError, "angles", 1),
        (lambda: AlphaGrid(radii=-2000), ValueError, "radii", 1),
        (lambda: _sample(2.5), ValueError, "n_terms", 1),
        (lambda: _sample(True), ValueError, "n_terms", 1),
        (lambda: _sample(0), ValueError, "n_terms", 1),
        (lambda: unfold(_XI, 1.0), DimMismatch, "mode", 0),
        (lambda: unfold(_XI, True), DimMismatch, "mode", 0),
        (lambda: Permutation3((0, 1, 2.0)), ValueError, "permutation entry", 0),
        (lambda: _seesaw(-3), ValueError, "max_sweeps", 0),
        (lambda: _seesaw(2.5), ValueError, "max_sweeps", 0),
    ],
    ids=["dims-float", "dims-bool", "dims-integral-float", "radii-float", "angles-bool", "radii-negative",
         "terms-float", "terms-bool", "terms-zero", "mode-float", "mode-bool", "permutation-float",
         "sweeps-negative", "sweeps-float"],
)
def test_counts_are_checked_when_built(build, error, name, least):
    with pytest.raises(error, match=f"{name} must be an integer >= {least}"):
        build()


def test_counts_take_numpy_integers():
    assert TriDims(np.int64(2), np.uint8(2), 2).total == 8
    assert TriDims(np.uint8(16), np.uint8(16), np.uint8(16)).total == 4096
    assert AlphaGrid(np.int32(3), np.int64(5)).radii == 3
    assert _sample(np.int64(2)).mat.shape == (8, 8)
    np.testing.assert_array_equal(unfold(_XI, np.int64(1)), unfold(_XI, MODE_B))
    # a list or numpy image is stored as a tuple of ints, so it hashes and equals the tuple's permutation
    for image in ([1, 0, 2], np.array([1, 0, 2]), (np.int64(1), np.uint8(0), 2)):
        sigma = Permutation3(image)
        assert sigma.image == (1, 0, 2) and all(type(x) is int for x in sigma.image)
        assert sigma == Permutation3((1, 0, 2)) and hash(sigma) == hash(Permutation3((1, 0, 2)))


def test_trivector_length_check():
    with pytest.raises(DimMismatch):
        TriVector(QUBITS, np.zeros(7))


def test_product_vector_basis():
    v = product_vector(_basis(2, 0), _basis(2, 0), _basis(2, 0))
    np.testing.assert_allclose(v.data, _basis(8, 0))


def test_product_vector_lexicographic():
    v = product_vector(_basis(2, 1), _basis(2, 1), _basis(2, 1))
    np.testing.assert_allclose(v.data, _basis(8, 7))


def test_product_vector_norm_multiplicative():
    rng = np.random.default_rng(10)
    u, v, w = _rand_complex(rng, 3), _rand_complex(rng, 2), _rand_complex(rng, 4)
    out = product_vector(u, v, w)
    expected = np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
    assert abs(out.norm() - expected) <= 1e-12 * expected


def test_unfold_basis_vector_rank_one():
    xi = product_vector(_basis(2, 0), _basis(2, 0), _basis(2, 0))
    for mode in (MODE_A, MODE_B, MODE_C):
        m = unfold(xi, mode)
        assert m.shape[0] == 2
        assert np.count_nonzero(m) == 1
    for mode in (3, -1):
        with pytest.raises(DimMismatch):
            unfold(xi, mode)


def test_unfold_diagonal_sum_explicit():
    # |000> + |111>: every unfolding is the explicit 2x4 matrix with two ones
    xi = TriVector(QUBITS, _basis(8, 0) + _basis(8, 7))
    expected = np.zeros((2, 4), dtype=complex)
    expected[0, 0] = 1.0
    expected[1, 3] = 1.0
    for mode in (MODE_A, MODE_B, MODE_C):
        np.testing.assert_allclose(unfold(xi, mode), expected)
        assert np.linalg.matrix_rank(unfold(xi, mode)) == 2


def test_flip_identity_is_noop():
    rng = np.random.default_rng(12)
    xi = _rand_vector(rng, TriDims(2, 3, 4))
    out = flip(xi, Permutation3((0, 1, 2)))
    np.testing.assert_allclose(out.data, xi.data)
    assert out.dims == xi.dims


def test_flip_bca_basis_order():
    # (A,B,C) -> (B,C,A) sends the standard ordered basis to
    # e0, e2, e4, e6, e1, e3, e5, e7 (0-based), i.e. images below per ket
    sigma = Permutation3((1, 2, 0))
    images = [0, 2, 4, 6, 1, 3, 5, 7]
    for src, dst in enumerate(images):
        out = flip(TriVector(QUBITS, _basis(8, src)), sigma)
        np.testing.assert_allclose(out.data, _basis(8, dst))


def test_flip_cab_basis_order():
    sigma = Permutation3((2, 0, 1))
    images = [0, 4, 1, 5, 2, 6, 3, 7]
    for src, dst in enumerate(images):
        out = flip(TriVector(QUBITS, _basis(8, src)), sigma)
        np.testing.assert_allclose(out.data, _basis(8, dst))


def test_flip_inverse_round_trip_vectors():
    rng = np.random.default_rng(13)
    xi = _rand_vector(rng, TriDims(2, 3, 4))
    for sigma in ALL_PERMUTATIONS:
        back = flip(flip(xi, sigma), sigma.inverse())
        assert back.dims == xi.dims
        np.testing.assert_allclose(back.data, xi.data)


def test_flip_inverse_round_trip_operators():
    rng = np.random.default_rng(14)
    dims = TriDims(2, 3, 2)
    op = TriOperator(dims, _rand_complex(rng, (dims.total, dims.total)))
    for sigma in ALL_PERMUTATIONS:
        back = flip(flip(op, sigma), sigma.inverse())
        np.testing.assert_allclose(back.mat, op.mat)


def test_flip_preserves_norm_and_spectrum():
    rng = np.random.default_rng(15)
    dims = TriDims(2, 2, 3)
    xi = _rand_vector(rng, dims)
    h = _rand_complex(rng, (dims.total, dims.total))
    h = (h + h.conj().T) / 2
    op = TriOperator(dims, h)
    for sigma in ALL_PERMUTATIONS:
        assert abs(flip(xi, sigma).norm() - xi.norm()) <= 1e-12
        got = np.linalg.eigvalsh(flip(op, sigma).mat)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(h), atol=1e-10)


def test_flip_relabels_unfoldings_up_to_column_order():
    rng = np.random.default_rng(16)
    xi = _rand_vector(rng, TriDims(2, 3, 4))
    ref = unfold(xi, MODE_A)
    for sigma in ALL_PERMUTATIONS:
        slot_of_a = sigma.inverse().image[MODE_A]
        got = unfold(flip(xi, sigma), slot_of_a)
        assert got.shape == ref.shape
        key = lambda m: sorted(tuple(np.round(col, 10)) for col in m.T.tolist())
        assert key(got) == key(ref)


def test_simultaneous_flip_preserves_hs_pairing():
    rng = np.random.default_rng(17)
    dims = TriDims(2, 2, 2)
    x = TriOperator(dims, _rand_complex(rng, (8, 8)))
    y = TriOperator(dims, _rand_complex(rng, (8, 8)))
    ref = np.trace(x.mat.conj().T @ y.mat)
    for sigma in ALL_PERMUTATIONS:
        got = np.trace(flip(x, sigma).mat.conj().T @ flip(y, sigma).mat)
        assert abs(got - ref) <= 1e-12 * abs(ref)
