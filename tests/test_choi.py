import numpy as np
import pytest

from triwit import (
    ALL_PERMUTATIONS,
    BiLinearMap,
    DimMismatch,
    NotPSD,
    Permutation3,
    QubitWitnessParams,
    TriDims,
    TriOperator,
    apply,
    contract_a,
    contract_ab,
    elementary,
    family_choi,
    flip,
    from_choi,
    from_function,
    is_completely_positive,
    kraus_decompose,
    pair,
    permute_dual,
)

QUBITS = TriDims(2, 2, 2)


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hadamard_map(n=2):
    """Choi matrix of the entrywise-product map: rank one onto sum_i |iii>."""
    vec = np.zeros(n**3, dtype=complex)
    for i in range(n):
        vec[(i * n + i) * n + i] = 1.0
    return from_choi(np.outer(vec, vec.conj()), TriDims(n, n, n))


def _rand_params(rng):
    return QubitWitnessParams(
        s=tuple(rng.uniform(0, 2, 4)),
        t=tuple(rng.uniform(0, 2, 4)),
        u=tuple(_rand_complex(rng, 4)),
    )


def test_apply_hadamard_is_entrywise_product():
    rng = np.random.default_rng(40)
    phi = _hadamard_map()
    x, y = _rand_complex(rng, (2, 2)), _rand_complex(rng, (2, 2))
    np.testing.assert_allclose(apply(phi, x, y), x * y, atol=1e-12)


def test_apply_identity_elementary_is_kron():
    rng = np.random.default_rng(41)
    dims = TriDims(2, 2, 4)
    phi = elementary(np.eye(4), dims)
    x, y = _rand_complex(rng, (2, 2)), _rand_complex(rng, (2, 2))
    np.testing.assert_allclose(apply(phi, x, y), np.kron(x, y), atol=1e-12)


def test_apply_family_closed_form():
    rng = np.random.default_rng(42)
    p = _rand_params(rng)
    s, t, u = p.s, p.t, p.u
    uc = [np.conj(ui) for ui in u]
    x, y = _rand_complex(rng, (2, 2)), _rand_complex(rng, (2, 2))
    expected = np.array(
        [
            [
                s[0] * x[0, 0] * y[0, 0] + s[2] * x[0, 0] * y[1, 1]
                + t[3] * x[1, 1] * y[0, 0] + t[1] * x[1, 1] * y[1, 1],
                u[0] * x[0, 1] * y[0, 1] + u[2] * x[0, 1] * y[1, 0]
                + uc[3] * x[1, 0] * y[0, 1] + uc[1] * x[1, 0] * y[1, 0],
            ],
            [
                u[1] * x[0, 1] * y[0, 1] + u[3] * x[0, 1] * y[1, 0]
                + uc[2] * x[1, 0] * y[0, 1] + uc[0] * x[1, 0] * y[1, 0],
                s[1] * x[0, 0] * y[0, 0] + s[3] * x[0, 0] * y[1, 1]
                + t[2] * x[1, 1] * y[0, 0] + t[0] * x[1, 1] * y[1, 1],
            ],
        ]
    )
    np.testing.assert_allclose(apply(family_choi(p), x, y), expected, atol=1e-12)


def test_apply_dim_mismatch():
    phi = _hadamard_map()
    with pytest.raises(DimMismatch):
        apply(phi, np.eye(3), np.eye(2))


def test_from_function_reproduces_hadamard():
    phi = from_function(lambda x, y: x * y, QUBITS)
    np.testing.assert_allclose(phi.choi.mat, _hadamard_map().choi.mat)


def test_elementary_zero():
    phi = elementary(np.zeros((2, 4)), QUBITS)
    assert np.count_nonzero(phi.choi.mat) == 0


def test_elementary_single_entry_gives_basis_projector():
    v = np.zeros((2, 4))
    v[1, 2] = 1.0  # column (i,k) = (1,0), row m = 1 -> flat ket (1,0,1) = 5
    phi = elementary(v, QUBITS)
    expected = np.zeros((8, 8))
    expected[5, 5] = 1.0
    np.testing.assert_allclose(phi.choi.mat, expected)


def test_elementary_matches_direct_formula():
    rng = np.random.default_rng(43)
    dims = TriDims(2, 3, 2)
    v = _rand_complex(rng, (2, 6))
    phi = elementary(v, dims)
    for _ in range(10):
        x, y = _rand_complex(rng, (2, 2)), _rand_complex(rng, (3, 3))
        np.testing.assert_allclose(
            apply(phi, x, y), v @ np.kron(x, y) @ v.conj().T, atol=1e-10
        )


def test_kraus_hadamard_single_factor():
    phi = _hadamard_map()
    factors = kraus_decompose(phi)
    assert len(factors) == 1
    rng = np.random.default_rng(44)
    x, y = _rand_complex(rng, (2, 2)), _rand_complex(rng, (2, 2))
    v = factors[0]
    np.testing.assert_allclose(v @ np.kron(x, y) @ v.conj().T, x * y, atol=1e-12)


def test_kraus_rank_one_round_trip():
    rng = np.random.default_rng(45)
    dims = TriDims(2, 2, 3)
    v = _rand_complex(rng, (3, 4))
    factors = kraus_decompose(elementary(v, dims))
    assert len(factors) == 1
    w = factors[0]
    phase = np.vdot(w.ravel(), v.ravel())
    phase /= abs(phase)
    np.testing.assert_allclose(w * phase, v, atol=1e-10)


def test_kraus_family_boundary_case():
    p = QubitWitnessParams(s=(1, 1, 1, 1), t=(1, 1, 1, 1), u=(1, 1, 1, 1))
    phi = family_choi(p)
    assert is_completely_positive(phi)
    factors = kraus_decompose(phi)
    rec = sum(elementary(v, QUBITS).choi.mat for v in factors)
    np.testing.assert_allclose(rec, phi.choi.mat, atol=1e-10)


def test_kraus_of_the_zero_map_is_one_zero_factor():
    (factor,) = kraus_decompose(from_choi(np.zeros((12, 12)), TriDims(2, 3, 2)))
    assert factor.shape == (2, 6) and not factor.any()


def test_kraus_rejects_non_psd():
    p = QubitWitnessParams(s=(1, 1, 1, 1), t=(1, 1, 1, 1), u=(2, 1, 1, 1))
    with pytest.raises(NotPSD) as err:
        kraus_decompose(family_choi(p))
    assert err.value.min_eigenvalue < 0


def test_kraus_reconstruction_random_psd():
    rng = np.random.default_rng(46)
    for dims in (QUBITS, TriDims(2, 3, 2), TriDims(3, 3, 3)):
        n = dims.total
        g = _rand_complex(rng, (n, n))
        phi = from_choi(g @ g.conj().T, dims)
        rec = sum(elementary(v, dims).choi.mat for v in kraus_decompose(phi))
        err = np.linalg.norm(rec - phi.choi.mat) / np.linalg.norm(phi.choi.mat)
        assert err <= 1e-11


def test_kraus_sum_is_always_psd():
    rng = np.random.default_rng(47)
    dims = TriDims(2, 2, 2)
    choi = sum(
        elementary(_rand_complex(rng, (2, 4)), dims).choi.mat for _ in range(3)
    )
    assert is_completely_positive(from_choi(choi, dims))


def test_is_cp_examples():
    assert is_completely_positive(_hadamard_map())
    assert is_completely_positive(from_choi(np.zeros((8, 8)), QUBITS))
    bad = QubitWitnessParams(s=(1, 1, 1, 1), t=(1, 1, 1, 1), u=(2, 1, 1, 1))
    assert not is_completely_positive(family_choi(bad))
    assert not is_completely_positive(from_choi(np.triu(np.ones((8, 8))), QUBITS))


def test_pair_maximally_mixed_with_hadamard():
    rho = TriOperator(QUBITS, np.eye(8) / 8)
    assert abs(pair(rho, _hadamard_map()) - 0.25) <= 1e-12


def test_pair_product_state_dual_route():
    rng = np.random.default_rng(48)
    phi = family_choi(_rand_params(rng))
    for _ in range(20):
        u, v, w = (_rand_complex(rng, (2, 2)) for _ in range(3))
        rho = TriOperator(QUBITS, np.kron(np.kron(u, v), w))
        direct = pair(rho, phi)
        via_map = np.trace(apply(phi, u, v) @ w.T)
        assert abs(direct - via_map) <= 1e-10


def test_pair_projector_is_conjugated_expectation():
    rng = np.random.default_rng(49)
    phi = family_choi(_rand_params(rng))
    xi = _rand_complex(rng, 8)
    rho = TriOperator(QUBITS, np.outer(xi, xi.conj()))
    xi_bar = xi.conj()
    expected = xi_bar.conj() @ phi.choi.mat @ xi_bar  # <xi_bar| C |xi_bar>
    assert abs(pair(rho, phi) - expected) <= 1e-10


def test_pair_dim_mismatch():
    rho = TriOperator(TriDims(2, 2, 3), np.eye(12))
    with pytest.raises(DimMismatch):
        pair(rho, _hadamard_map())


def test_permute_dual_bca_display():
    # flipping by (A,B,C) -> (B,C,A) lands back in the family with
    # relabeled parameters; compare against the explicitly transcribed matrix
    rng = np.random.default_rng(50)
    p = _rand_params(rng)
    s, t, u = p.s, p.t, p.u
    expected = np.zeros((8, 8), dtype=complex)
    for i, d in enumerate((s[0], t[3], s[1], t[2], s[2], t[1], s[3], t[0])):
        expected[i, i] = d
    for i, val in zip(range(4), (u[0], np.conj(u[3]), u[1], np.conj(u[2]))):
        expected[i, 7 - i] = val
        expected[7 - i, i] = np.conj(val)
    got = permute_dual(family_choi(p), Permutation3((1, 2, 0)))
    np.testing.assert_allclose(got.choi.mat, expected, atol=1e-14)


def test_permute_dual_cab_display():
    rng = np.random.default_rng(51)
    p = _rand_params(rng)
    s, t, u = p.s, p.t, p.u
    expected = np.zeros((8, 8), dtype=complex)
    for i, d in enumerate((s[0], s[2], t[3], t[1], s[1], s[3], t[2], t[0])):
        expected[i, i] = d
    for i, val in zip(range(4), (u[0], u[2], np.conj(u[3]), np.conj(u[1]))):
        expected[i, 7 - i] = val
        expected[7 - i, i] = np.conj(val)
    got = permute_dual(family_choi(p), Permutation3((2, 0, 1)))
    np.testing.assert_allclose(got.choi.mat, expected, atol=1e-14)


def test_permute_dual_identity_and_cycle():
    rng = np.random.default_rng(52)
    phi = family_choi(_rand_params(rng))
    same = permute_dual(phi, Permutation3((0, 1, 2)))
    np.testing.assert_allclose(same.choi.mat, phi.choi.mat)
    cycle = Permutation3((1, 2, 0))
    out = phi
    for _ in range(3):
        out = permute_dual(out, cycle)
    np.testing.assert_allclose(out.choi.mat, phi.choi.mat, atol=1e-14)


def test_pairing_invariant_under_simultaneous_flip():
    rng = np.random.default_rng(53)
    phi = BiLinearMap(TriOperator(QUBITS, _rand_complex(rng, (8, 8))))
    rho = TriOperator(QUBITS, _rand_complex(rng, (8, 8)))
    ref = pair(rho, phi)
    for sigma in ALL_PERMUTATIONS:
        got = pair(flip(rho, sigma), permute_dual(phi, sigma))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


_UNEVEN = TriDims(1, 2, 3)
_BCA = Permutation3((1, 2, 0))


@pytest.mark.parametrize(
    "build,dims",
    [
        (lambda: from_choi(np.eye(6), _UNEVEN), (1, 2, 3)),
        (lambda: from_function(lambda x, y: np.trace(x) * np.trace(y) * np.eye(3), _UNEVEN), (1, 2, 3)),
        (lambda: elementary(np.ones((3, 2)), _UNEVEN), (1, 2, 3)),
        (lambda: family_choi(QubitWitnessParams(s=(1, 2, 3, 4), t=(4, 3, 2, 1), u=(1, 1j, 0, 0))), (2, 2, 2)),
        (lambda: permute_dual(elementary(np.ones((3, 2)), _UNEVEN), _BCA), _BCA.apply((1, 2, 3))),
    ],
    ids=["from-choi", "from-function", "elementary", "family-choi", "permute-dual"],
)
def test_map_dims_are_its_choi_dims(build, dims):
    phi = build()
    assert phi.dims is phi.choi.dims
    assert phi.dims.as_tuple() == dims


def test_contract_a_family_closed_form():
    rng = np.random.default_rng(54)
    p = _rand_params(rng)
    s, t, u = p.s, p.t, p.u
    for _ in range(10):
        alpha = complex(*rng.standard_normal(2))
        p_alpha = np.array([[1.0, np.conj(alpha)], [alpha, abs(alpha) ** 2]])
        got = contract_a(family_choi(p), p_alpha)
        m = abs(alpha) ** 2
        expected = np.zeros((4, 4), dtype=complex)
        for i, d in enumerate(
            (s[0] + t[3] * m, s[1] + t[2] * m, s[2] + t[1] * m, s[3] + t[0] * m)
        ):
            expected[i, i] = d
        corners = (
            u[0] * np.conj(alpha) + np.conj(u[3]) * alpha,
            u[1] * np.conj(alpha) + np.conj(u[2]) * alpha,
            u[2] * np.conj(alpha) + np.conj(u[1]) * alpha,
            u[3] * np.conj(alpha) + np.conj(u[0]) * alpha,
        )
        for i, val in enumerate(corners):
            expected[i, 3 - i] = val
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_contract_a_zero_and_linearity():
    rng = np.random.default_rng(55)
    phi = family_choi(_rand_params(rng))
    assert np.count_nonzero(contract_a(phi, np.zeros((2, 2)))) == 0
    x, xp = _rand_complex(rng, (2, 2)), _rand_complex(rng, (2, 2))
    lam = complex(*rng.standard_normal(2))
    np.testing.assert_allclose(
        contract_a(phi, x + lam * xp),
        contract_a(phi, x) + lam * contract_a(phi, xp),
        atol=1e-12,
    )


def test_contract_ab_factorized_input_matches_apply():
    rng = np.random.default_rng(56)
    phi = family_choi(_rand_params(rng))
    x, y = _rand_complex(rng, (2, 2)), _rand_complex(rng, (2, 2))
    np.testing.assert_allclose(
        contract_ab(phi, np.kron(x, y)), apply(phi, x, y), atol=1e-12
    )


def test_contract_ab_hadamard_matched_indices():
    z = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            z[i, j] = 1.0  # sum_{ij} |ii><jj|
    np.testing.assert_allclose(contract_ab(_hadamard_map(), z), np.ones((2, 2)))


def test_contract_ab_identity_input_sums_diagonal_blocks():
    rng = np.random.default_rng(57)
    p = _rand_params(rng)
    s, t = p.s, p.t
    expected = np.diag(
        [s[0] + s[2] + t[3] + t[1], s[1] + s[3] + t[2] + t[0]]
    ).astype(complex)
    np.testing.assert_allclose(
        contract_ab(family_choi(p), np.eye(4)), expected, atol=1e-12
    )


def test_apply_is_bilinear():
    rng = np.random.default_rng(58)
    phi = family_choi(_rand_params(rng))
    x, xp, y = (_rand_complex(rng, (2, 2)) for _ in range(3))
    lam = complex(*rng.standard_normal(2))
    np.testing.assert_allclose(
        apply(phi, x + lam * xp, y),
        apply(phi, x, y) + lam * apply(phi, xp, y),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        apply(phi, y, x + lam * xp),
        apply(phi, y, x) + lam * apply(phi, y, xp),
        atol=1e-12,
    )


def test_pair_transpose_convention():
    # tr(C rho^t) written out: pairing sums C entrywise against rho
    rng = np.random.default_rng(59)
    phi = family_choi(_rand_params(rng))
    rho = TriOperator(QUBITS, _rand_complex(rng, (8, 8)))
    expected = np.trace(phi.choi.mat @ rho.mat.T)
    assert abs(pair(rho, phi) - expected) <= 1e-12 * abs(expected)
