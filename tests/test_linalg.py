import numpy as np
import pytest

from triwit import (
    DEFAULT_TOL,
    DegeneratePencil,
    NotHermitian,
    Tolerance,
    hermitian_eig,
    min_gen_eig,
    svd_rank,
)
from triwit.linalg import _above_floor, _whitening, hermitize


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_hermitian(rng, n):
    m = _rand_complex(rng, (n, n))
    return (m + m.conj().T) / 2


def _rand_unitary(rng, n):
    q, r = np.linalg.qr(_rand_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_tolerance_rejects_nonpositive():
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)


@pytest.mark.parametrize(
    "field,value",
    [pytest.param(f, v, id=f"{v}-{f}") for v in (np.inf, np.nan) for f in ("rank_rel", "psd_abs", "ineq_abs")]
    # at rank_rel >= 1 not even the largest singular value counts, so every rank is 0
    + [pytest.param("rank_rel", v, id=f"{v}-rank_rel") for v in (1.0, 2.0)],
)
def test_tolerance_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        Tolerance(**{field: value})


def test_hermitian_eig_diagonal():
    w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0])


def test_hermitian_eig_2x2_closed_form():
    w, _ = hermitian_eig(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(w, [-1.0, 1.0])


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(2)
    m = _rand_hermitian(rng, 8)
    w, v = hermitian_eig(m)
    rec = v @ np.diag(w) @ v.conj().T
    assert np.linalg.norm(rec - m) <= 1e-10 * np.linalg.norm(m)
    # eigenvector matrix is unitary
    np.testing.assert_allclose(v.conj().T @ v, np.eye(8), atol=1e-12)


def test_hermitian_eig_empty():
    w, v = hermitian_eig(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)


def test_hermitian_eig_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(3)
    for n in (2, 5, 9):
        m = _rand_hermitian(rng, n)
        w, _ = hermitian_eig(m)
        assert abs(w.sum() - np.trace(m).real) <= 1e-9 * np.linalg.norm(m)


def test_svd_rank_zero_matrix():
    assert svd_rank(np.zeros((3, 4))) == 0


def test_svd_rank_outer_product():
    rng = np.random.default_rng(4)
    u, v = _rand_complex(rng, 5), _rand_complex(rng, 3)
    assert svd_rank(np.outer(u, v.conj())) == 1


def test_svd_rank_generic_full():
    rng = np.random.default_rng(5)
    for a, b in ((3, 5), (6, 2), (4, 4)):
        assert svd_rank(_rand_complex(rng, (a, b))) == min(a, b)


def test_svd_rank_unitary_invariance():
    rng = np.random.default_rng(6)
    for k in (1, 2, 3):
        m = _rand_complex(rng, (5, k)) @ _rand_complex(rng, (k, 4))
        u, v = _rand_unitary(rng, 5), _rand_unitary(rng, 4)
        assert svd_rank(u @ m @ v) == svd_rank(m) == k


def test_min_gen_eig_identity_rhs():
    val, x = min_gen_eig(np.diag([2.0, 5.0]), np.eye(2))
    assert abs(val - 2.0) <= 1e-12
    np.testing.assert_allclose(np.abs(x), [1.0, 0.0], atol=1e-12)


def test_min_gen_eig_singular_rhs_projects():
    # the second coordinate carries no b-weight, so the -1 direction is unreachable
    val, x = min_gen_eig(np.diag([1.0, -1.0]), np.diag([1.0, 0.0]))
    assert abs(val - 1.0) <= 1e-12
    assert abs(x[1]) <= 1e-12


def test_min_gen_eig_matches_least_eigenvalue():
    rng = np.random.default_rng(7)
    a = _rand_hermitian(rng, 6)
    val, _ = min_gen_eig(a, np.eye(6))
    w, _ = hermitian_eig(a)
    assert abs(val - w[0]) <= 1e-9 * np.linalg.norm(a)


def test_min_gen_eig_vector_is_b_normalized():
    rng = np.random.default_rng(8)
    a = _rand_hermitian(rng, 5)
    g = _rand_complex(rng, (5, 5))
    b = g @ g.conj().T
    val, x = min_gen_eig(a, b)
    assert abs((x.conj() @ b @ x).real - 1.0) <= 1e-10
    assert abs((x.conj() @ a @ x).real - val) <= 1e-10 * np.linalg.norm(a)


def test_min_gen_eig_degenerate_pencil():
    with pytest.raises(DegeneratePencil):
        min_gen_eig(np.eye(3), np.zeros((3, 3)))


def _quotient_descent(a, b, z, iters=500):
    """Independent oracle: steepest descent on the quotient with exact line search."""

    def quot(v):
        return (v.conj() @ a @ v).real / (v.conj() @ b @ v).real

    for _ in range(iters):
        q = quot(z)
        g = a @ z - q * (b @ z)
        if np.linalg.norm(g) < 1e-14 * np.linalg.norm(z):
            break
        d = -g
        aa, ba, ca = (d.conj() @ a @ d).real, (d.conj() @ a @ z).real, (z.conj() @ a @ z).real
        ab, bb, cb = (d.conj() @ b @ d).real, (d.conj() @ b @ z).real, (z.conj() @ b @ z).real
        coeffs = [aa * bb - ab * ba, aa * cb - ab * ca, ba * cb - bb * ca]
        roots = np.roots(coeffs) if abs(coeffs[0]) > 0 else np.array([-coeffs[2] / coeffs[1]])
        steps = [t.real for t in roots if abs(t.imag) < 1e-9]
        if not steps:
            break
        cand = [z + t * d for t in steps]
        vals = [quot(c) for c in cand]
        i = int(np.argmin(vals))
        if vals[i] >= q - 1e-15:
            break
        z = cand[i] / np.linalg.norm(cand[i])
    return quot(z)


def test_min_gen_eig_random_sampling_oracle():
    # scan 1e5 random unit vectors, descend from the best few; the raw scan
    # alone cannot localize the minimum in 6 complex dimensions
    rng = np.random.default_rng(9)
    a = _rand_hermitian(rng, 6)
    g = _rand_complex(rng, (6, 6))
    b = g @ g.conj().T
    val, _ = min_gen_eig(a, b)

    xs = _rand_complex(rng, (100_000, 6))
    num = np.einsum("xi,ij,xj->x", xs.conj(), a, xs).real
    den = np.einsum("xi,ij,xj->x", xs.conj(), b, xs).real
    quotients = num / den
    best = min(
        _quotient_descent(a, b, xs[i].copy()) for i in np.argsort(quotients)[:5]
    )
    assert abs(best - val) <= 1e-3


NON_FINITE = [
    pytest.param((0, 0), np.nan, id="nan-diagonal"),
    pytest.param((1, 1), np.inf, id="inf-diagonal"),
    pytest.param((0, 2), np.inf, id="inf-above-diagonal-only"),
    pytest.param((2, 1), complex(0.0, np.nan), id="nan-imaginary-part"),
]


def _with_entry(m, index, value):
    m = np.array(m, dtype=complex)
    m[index] = value
    return m


@pytest.mark.parametrize("index,value", NON_FINITE)
def test_hermitize_rejects_non_finite(index, value):
    m = _with_entry(_rand_hermitian(np.random.default_rng(10), 3), index, value)
    with pytest.raises(NotHermitian):
        hermitize(m)


@pytest.mark.parametrize("index,value", NON_FINITE)
def test_min_gen_eig_rejects_non_finite(index, value):
    a = _rand_hermitian(np.random.default_rng(11), 3)
    with pytest.raises(NotHermitian):
        min_gen_eig(_with_entry(a, index, value), np.eye(3))
    with pytest.raises(NotHermitian):
        min_gen_eig(a, _with_entry(np.eye(3), index, value))


@pytest.mark.parametrize("side,accepted", [(1 - 1e-5, True), (1 + 1e-5, False)], ids=["below", "above"])
def test_hermitize_gate_threshold(side, accepted):
    # m = h + t k with h Hermitian and k anti-Hermitian: the defect is 2 t ||k||
    # and ||m||^2 = ||h||^2 + t^2 ||k||^2, so t can be solved for a ratio
    rng = np.random.default_rng(12)
    h = _rand_hermitian(rng, 4)
    g = _rand_complex(rng, (4, 4))
    k = (g - g.conj().T) / 2
    ratio = side * DEFAULT_TOL.psd_abs
    nh, nk = np.linalg.norm(h), np.linalg.norm(k)
    t = ratio * nh / (nk * np.sqrt(4 - ratio**2))
    m = h + t * k
    assert (np.linalg.norm(m - m.conj().T) <= DEFAULT_TOL.psd_abs * np.linalg.norm(m)) == accepted
    if accepted:
        np.testing.assert_array_equal(hermitize(m), (m + m.conj().T) / 2.0)
    else:
        with pytest.raises(NotHermitian):
            hermitize(m)


def _pinv_whitening_min(a, b, tol=DEFAULT_TOL):
    """Reference: whiten by the pseudo-inverse square root of b on its numerical range."""
    bw, bv = np.linalg.eigh(b)
    keep = bw > tol.psd_abs * np.max(np.abs(bw))
    whiten = bv[:, keep] / np.sqrt(bw[keep])
    return np.linalg.eigvalsh(whiten.conj().T @ a @ whiten)[0]


@pytest.mark.parametrize("least", [0.5, 1e-14], ids=["full-rank", "below-floor"])
def test_min_gen_eig_matches_pinv_whitening(least):
    # least = 1e-14 puts one eigenvalue of b below the floor psd_abs * ||b||_2
    rng = np.random.default_rng(13)
    a = _rand_hermitian(rng, 5)
    u = _rand_unitary(rng, 5)
    b = u @ np.diag([least, 1.0, 2.0, 3.0, 0.7]) @ u.conj().T
    b = (b + b.conj().T) / 2
    val, x = min_gen_eig(a, b)
    assert abs(val - _pinv_whitening_min(a, b)) <= 1e-10 * np.linalg.norm(a)
    assert abs((x.conj() @ a @ x).real - val) <= 1e-10 * np.linalg.norm(a)


@pytest.mark.parametrize("psd_abs", [1e-9, 0.5, 1.0])
@pytest.mark.parametrize("g", [0.0, 1e-300, 1e-9, 2e-9, 0.5, 1.0, 1.5, 1e300, np.inf, np.nan])
def test_scalar_floor_is_the_whitening_rule(g, psd_abs):
    # the see-saw's cut loop floors its 1x1 Gram matrix with _above_floor
    # in place of _whitening; the two must keep the same values, neither
    # keeps a NaN or inf, and _whitening rejects every value it does not
    # keep as a degenerate pencil, which the see-saw re-draws
    tol = Tolerance(psd_abs=psd_abs)
    try:
        _whitening(np.array([[g]], dtype=complex), tol)
        kept = True
    except DegeneratePencil:
        kept = False
    assert _above_floor(g, tol) is kept


@pytest.mark.parametrize(
    "b",
    [
        [[np.nan, 0], [0, 1]],
        [[1, 0], [0, np.nan]],
        [[2, 1], [1, np.nan]],
        [[np.inf, 0], [0, 1]],
        [[1, np.nan], [np.nan, 1]],
    ],
)
def test_whitening_rejects_a_non_finite_gram(b):
    # the eigensolver fails on some of these and returns finite eigenvalues
    # with NaN columns on others; either way the pencil is degenerate
    with pytest.raises(DegeneratePencil):
        _whitening(np.array(b, dtype=complex), DEFAULT_TOL)
