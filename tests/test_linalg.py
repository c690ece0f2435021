import math
import warnings

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
from triwit import linalg
from triwit.linalg import _eigh, _least, _least_2x2, _qr, hermitize


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
    # at rank_rel >= 1 not even the largest singular value counts, so every rank is 0,
    # at psd_abs >= 1 the eigenvalue floor drops every eigenvalue, and at
    # ineq_abs >= 1 every inequality check holds
    + [
        pytest.param(f, v, id=f"{v}-{f}")
        for f, values in (("rank_rel", (1.0, 2.0)), ("psd_abs", (1.0, 1.5)), ("ineq_abs", (1.0, 2.0)))
        for v in values
    ],
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
    assert svd_rank(np.zeros((0, 3))) == 0


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


# powers of two scale every float exactly, so a scale-free rule must give identical results
SCALES = [pytest.param(2.0**e, id=f"2^{e}") for e in (40, -40, 400, -400)]


@pytest.mark.parametrize("lam", SCALES)
def test_min_gen_eig_scales_with_b(lam):
    # the floor is relative to ||b||_2, so scaling b scales the quotient by
    # 1/lam and the minimizer by 1/sqrt(lam), also where b is singular
    rng = np.random.default_rng(14)
    for rank in (5, 3):
        a = _rand_hermitian(rng, 5)
        g = _rand_complex(rng, (5, rank))
        b = g @ g.conj().T
        val, x = min_gen_eig(a, b)
        scaled_val, scaled_x = min_gen_eig(a, lam * b)
        assert scaled_val == val / lam
        np.testing.assert_array_equal(scaled_x, x / np.sqrt(lam))


def test_min_gen_eig_small_pencil():
    # b = 1e-9 I is small, not zero: the quotient x*ax / x*bx has minimum 1e9
    val, x = min_gen_eig(np.diag([1.0, 2.0, 3.0]), 1e-9 * np.eye(3))
    assert abs(val - 1e9) <= 1e-6
    assert abs(abs(x[0]) ** 2 * 1e-9 - 1) <= 1e-12


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
def test_min_gen_eig_rejects_non_finite(index, value, monkeypatch):
    # on either side, before linalg._eigh is reached (it takes finite input only)
    def unreachable(m):
        raise AssertionError("linalg._eigh reached with a non-finite entry")

    monkeypatch.setattr(linalg, "_eigh", unreachable)
    a = _rand_hermitian(np.random.default_rng(11), 3)
    with pytest.raises(NotHermitian):
        min_gen_eig(_with_entry(a, index, value), np.eye(3))
    with pytest.raises(NotHermitian):
        min_gen_eig(a, _with_entry(np.eye(3), index, value))


def _near_the_gate(side):
    # m = h + t k with h Hermitian and k anti-Hermitian: the defect is 2 t ||k||
    # and ||m||^2 = ||h||^2 + t^2 ||k||^2, so t can be solved for a ratio
    rng = np.random.default_rng(12)
    h = _rand_hermitian(rng, 4)
    g = _rand_complex(rng, (4, 4))
    k = (g - g.conj().T) / 2
    ratio = side * DEFAULT_TOL.psd_abs
    nh, nk = np.linalg.norm(h), np.linalg.norm(k)
    t = ratio * nh / (nk * np.sqrt(4 - ratio**2))
    return h + t * k


@pytest.mark.parametrize("side,accepted", [(1 - 1e-5, True), (1 + 1e-5, False)], ids=["below", "above"])
def test_hermitize_gate_threshold(side, accepted):
    m = _near_the_gate(side)
    assert (np.linalg.norm(m - m.conj().T) <= DEFAULT_TOL.psd_abs * np.linalg.norm(m)) == accepted
    if accepted:
        np.testing.assert_array_equal(hermitize(m), (m + m.conj().T) / 2.0)
    else:
        with pytest.raises(NotHermitian):
            hermitize(m)


def test_hermitize_where_the_sum_of_squares_overflows():
    # at 2^600 the entries' sum of squares overflows, though the norm does not;
    # the gate takes the norm and the defect on m times an exact power of two,
    # so it decides as at scale 1, and the output is scaled bit for bit
    lam = 2.0**600
    h = _rand_hermitian(np.random.default_rng(13), 4)
    want = lam * hermitize(h)
    np.testing.assert_array_equal(hermitize(lam * h).view(np.uint64), want.view(np.uint64))
    for side, accepted in ((1 - 1e-5, True), (1 + 1e-5, False)):
        m = lam * _near_the_gate(side)
        if accepted:
            np.testing.assert_array_equal(hermitize(m), lam * hermitize(m / lam))
        else:
            with pytest.raises(NotHermitian):
                hermitize(m)
    for case in NON_FINITE:
        with pytest.raises(NotHermitian):
            hermitize(_with_entry(lam * h, *case.values))
    # a norm of 2^1023 or more is refused, since m + m* could overflow
    with pytest.raises(NotHermitian):
        hermitize(np.full((2, 2), 2.0**1022))


def _signed_zeros(rng, n):
    # a Hermitian matrix of 0, 1 and 1/2 entries whose every zero component
    # carries an independent random sign, so m + m* holds each signed-zero sum
    h = rng.choice([0.0, 0.5, 1.0], (n, n)) + 1j * rng.choice([0.0, 0.5, 1.0], (n, n))
    h = np.tril(h, -1) + np.tril(h, -1).conj().T + np.diag(np.diag(h).real)
    parts = h.view(np.float64)
    parts[parts == 0] = np.copysign(0.0, rng.choice([-1.0, 1.0], np.count_nonzero(parts == 0)))
    return h


def _subnormal(rng, n):
    # a unit diagonal under non-Hermitian entries of -3..3 times the least
    # subnormal: their sums are odd or even multiples of it, of either sign
    k = rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
    return np.eye(n) + k * 5e-324


HALVED_SUM_CASES = {
    "random": lambda rng, n: _rand_hermitian(rng, n) + 1e-12 * _rand_complex(rng, (n, n)),
    "2^400": lambda rng, n: 2.0**400 * (_rand_hermitian(rng, n) + 1e-12 * _rand_complex(rng, (n, n))),
    "2^-400": lambda rng, n: 2.0**-400 * (_rand_hermitian(rng, n) + 1e-12 * _rand_complex(rng, (n, n))),
    "2^600": lambda rng, n: 2.0**600 * (_rand_hermitian(rng, n) + 1e-12 * _rand_complex(rng, (n, n))),
    "signed-zeros": _signed_zeros,
    "subnormal": _subnormal,
}


@pytest.mark.parametrize("n", [1, 8, 216])
@pytest.mark.parametrize("case", list(HALVED_SUM_CASES))
def test_hermitize_is_the_halved_sum_bit_for_bit(case, n):
    # the same bits as numpy's complex division of the sum by 2.0, signed
    # zeros and rounded subnormal halves included, in a C-contiguous array
    for seed in range(3):
        m = HALVED_SUM_CASES[case](np.random.default_rng([14, seed]), n)
        want = (m + m.conj().T) / 2.0
        got = hermitize(m)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        # a transposed view of m* gives the same sums, added the other way round
        np.testing.assert_array_equal(hermitize(m.T.conj()).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("d", range(1, 7))
def test_qr_matches_numpy_bit_for_bit(d):
    rng = np.random.default_rng(15 + d)
    for k in range(1, d + 1):
        x = _rand_complex(rng, (d, k))
        before = x.copy()
        q, r = _qr(x)
        q0, r0 = np.linalg.qr(x)
        assert q.shape == q0.shape == (d, k) and r.shape == r0.shape == (k, k)
        np.testing.assert_array_equal(q.view(np.uint64), q0.view(np.uint64))
        np.testing.assert_array_equal(r.view(np.uint64), r0.view(np.uint64))
        np.testing.assert_array_equal(x, before)


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


@pytest.mark.parametrize("psd_abs", [1e-9, 0.5])
@pytest.mark.parametrize("g", [0.0, 1e-300, 1e-9, 2e-9, 0.5, 1.0, 1.5, 1e300, np.inf, np.nan])
def test_scalar_floor_is_the_whitening_rule(g, psd_abs):
    # the floor is relative, so min_gen_eig keeps a finite 1x1 b exactly
    # when it is positive, however small or large, and rejects 0 as a
    # degenerate pencil; an infinite or NaN b fails the Hermitian gate
    a, b, tol = np.eye(1), np.array([[g]], dtype=complex), Tolerance(psd_abs=psd_abs)
    if not np.isfinite(g):
        with pytest.raises(NotHermitian):
            min_gen_eig(a, b, tol)
        return
    try:
        value, x = min_gen_eig(a, b, tol)
        kept = True
    except DegeneratePencil:
        kept = False
    assert kept is (g > 0)
    if kept:
        assert abs(abs(x[0]) ** 2 * g - 1) <= 1e-15 and abs(value * g - 1) <= 1e-15


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
    # with NaN columns on others, so min_gen_eig's gate rejects them first
    with pytest.raises(NotHermitian):
        min_gen_eig(np.eye(2), np.array(b, dtype=complex))


def _least_2x2_cases():
    rng = np.random.default_rng(20)
    cases = [pytest.param(_rand_hermitian(rng, 2), id=f"random-{i}") for i in range(12)]
    cases += [
        pytest.param(np.diag([1.0, 3.0]), id="diagonal-ascending"),
        pytest.param(np.diag([3.0, -1.0]), id="diagonal-descending"),
        pytest.param(np.array([[1.0, 3e-13 - 4e-13j], [3e-13 + 4e-13j, 1.0 + 1e-12]]), id="gap-1e-12"),
        pytest.param(np.array([[1.0 + 1e-12, 1e-12j], [-1e-12j, 1.0]]), id="gap-1e-12-descending"),
    ]
    cases += [pytest.param(2.0**e * _rand_hermitian(rng, 2), id=f"scale-2^{e}") for e in (500, -500)]
    # the largest entry is 1e307, and the Frobenius norm stays below 2**1023
    cases += [pytest.param(1e307 * m / np.abs(m).max(), id=f"entries-1e307-{i}") for i, m in enumerate(
        [_rand_hermitian(rng, 2), np.array([[1.0, 1 - 1j], [1 + 1j, -1.0]]), np.array([[-1.0, 0.7j], [-0.7j, -1.0]])]
    )]
    # sizes that _least hands to the eigensolver
    cases += [pytest.param(_rand_hermitian(rng, n), id=f"random-{n}x{n}") for n in (1, 4, 8)]
    return cases


@pytest.mark.parametrize("m", _least_2x2_cases())
def test_least_2x2_matches_eigh(m):
    # the closed form and _least read the lower triangle, as the eigensolver
    # does: the upper triangle is overwritten with junk that none may read.
    # A 2 x 2 goes through _least as through the closed form, bit for bit
    m = np.array(m, dtype=complex)
    n = m.shape[0]
    m[np.triu_indices(n, 1)] = 7.0 - 5.0j
    y, value = _least(m)
    if n == 2:
        y2, value2 = _least_2x2(m)
        assert value == value2
        np.testing.assert_array_equal(y, y2)
    w, v = _eigh(m)
    lower = m[np.tril_indices(n, -1)]
    # ||m||_F, read as Hermitian
    norm = math.hypot(*m.diagonal().real, *lower.real, *lower.imag, *lower.real, *lower.imag)
    herm = np.tril(m) + np.tril(m, -1).conj().T
    quotient = np.vdot(y, herm @ y).real / np.vdot(y, y).real
    assert abs(value - w[0]) <= 4 * np.finfo(float).eps * norm
    assert abs(value - quotient) <= 4 * n * np.finfo(float).eps * norm  # the quotient's own rounding grows with n
    assert abs(np.linalg.norm(y) - 1.0) <= 4 * np.finfo(float).eps
    assert abs(np.vdot(y, v[:, 0])) >= 1 - 1e-12


def test_least_2x2_of_a_multiple_of_the_identity_is_e1():
    y, value = _least_2x2(2.5 * np.eye(2, dtype=complex))
    np.testing.assert_array_equal(y, [1.0, 0.0])
    assert value == 2.5


@pytest.mark.parametrize(
    "m00,m10,m11",
    [(np.nan, 0j, 1.0), (1.0, complex(np.nan, 0), 1.0), (1.0, complex(0, np.inf), 1.0),
     (1.0, 0j, np.inf), (-np.inf, 0j, 1.0), (np.inf, 0j, np.inf)],
)
def test_least_2x2_rejects_non_finite(m00, m10, m11):
    with pytest.raises(np.linalg.LinAlgError):
        _least_2x2(np.array([[m00, 0.0], [m10, m11]], dtype=complex))


@pytest.mark.parametrize("n", [2, 8])
def test_eigh_raises_when_the_solver_fails(n):
    # a NaN below the diagonal fails the solve, and the gufunc fills its output
    # with NaN (at 8x8 it also sets the invalid flag, which numpy would report)
    m = np.eye(n, dtype=complex)
    m[-1, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        _eigh(m)


# From 14 x 14 up _least takes the eigenvalues alone and one inverse-iteration
# solve; its value is the Rayleigh quotient of the unit vector it returns
EPS = np.finfo(float).eps


def _spectral(m):
    w = _eigh(m)[0]
    return w[0], max(-w[0], w[-1])


@pytest.mark.parametrize("n", [14, 18, 27, 54])
def test_least_by_inverse_iteration_matches_eigh(n, monkeypatch):
    rng = np.random.default_rng([30, n])
    ms = [_rand_hermitian(rng, n) for _ in range(20)]
    refs = [_spectral(m) for m in ms]
    # random matrices never need the fallback to the full eigensolver
    monkeypatch.setattr(linalg, "_eigh", None)
    for m, (lam, norm2) in zip(ms, refs):
        y, value = _least(m)
        assert abs(value - lam) <= 2 * n * EPS * norm2
        assert abs(np.linalg.norm(y) - 1.0) <= 16 * EPS
        assert value == float(np.vdot(y, m.dot(y)).real)


@pytest.mark.parametrize("n", [3, 8, 9, 12, 13])
def test_least_below_14_is_the_eigh_pair(n):
    m = _rand_hermitian(np.random.default_rng([31, n]), n)
    y, value = _least(m)
    w, v = _eigh(m)
    assert value == w[0]
    np.testing.assert_array_equal(y, v[:, 0])


def test_least_of_a_zero_matrix_is_e1():
    y, value = _least(np.zeros((18, 18), dtype=complex))
    np.testing.assert_array_equal(y, np.eye(18)[0])
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("scalar", [3.5, -2.0, 1e-300, -1e300])
def test_least_of_a_multiple_of_the_identity(scalar):
    n = 20
    y, value = _least(scalar * np.eye(n, dtype=complex))
    assert abs(value - scalar) <= 2 * n * EPS * abs(scalar)
    assert abs(np.linalg.norm(y) - 1.0) <= 16 * EPS


def test_least_of_a_repeated_least_entry_stays_in_its_eigenspace():
    n = 20
    diag = np.arange(n, dtype=float)
    diag[[3, 11, 17]] = -1.0
    y, value = _least(np.diag(diag).astype(complex))
    assert abs(value + 1.0) <= 2 * n * EPS * (n - 1)
    rest = np.delete(y, [3, 11, 17])
    assert np.linalg.norm(rest) <= 1e-12
    assert abs(np.linalg.norm(y) - 1.0) <= 16 * EPS


def test_least_falls_back_when_the_start_misses_the_least_eigenvector():
    # on a multiple of I the solve returns its start vector b, normalised; a
    # simple least eigenvector orthogonal to b gets too little weight from one
    # solve, so the value check sends the matrix to the full eigensolver
    n = 18
    b = _least(np.eye(n, dtype=complex))[0]
    rng = np.random.default_rng(32)
    q = np.linalg.qr(np.column_stack([b, _rand_complex(rng, (n, n - 1))]))[0]
    vecs = np.column_stack([q[:, 1], q[:, 0], q[:, 2:]])
    assert abs(np.vdot(b, vecs[:, 0])) <= 1e-15
    m = vecs @ np.diag(np.arange(1.0, n + 1)) @ vecs.conj().T
    m = (m + m.conj().T) / 2
    y, value = _least(m)
    w, v = _eigh(m)
    assert value == w[0] and abs(value - 1.0) <= 1e-12
    np.testing.assert_array_equal(y, v[:, 0])


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_least_by_inverse_iteration_at_extreme_scales(scale):
    n = 18
    m = scale * _rand_hermitian(np.random.default_rng(33), n)
    lam, norm2 = _spectral(m)
    y, value = _least(m)
    assert abs(value - lam) <= 2 * n * EPS * norm2
    assert abs(np.linalg.norm(y) - 1.0) <= 16 * EPS


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [(0, 0), (5, 2), (2, 5)], ids=["diagonal", "lower", "upper"])
def test_least_by_inverse_iteration_rejects_non_finite(bad, index):
    m = _rand_hermitian(np.random.default_rng(34), 18)
    m[index] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _least(m)


def test_least_keeps_one_read_only_start_per_size():
    # the inverse iteration's start b = exp(i j) is built once per size and
    # shared read-only, so calls on other sizes neither rebuild nor disturb it
    rng = np.random.default_rng(35)
    _least(_rand_hermitian(rng, 18))
    first = linalg._STARTS[18]
    for n in (14, 27, 18, 54, 14, 27):
        _least(_rand_hermitian(rng, n))
    assert linalg._STARTS[18] is first
    for n in (14, 18, 27, 54):
        b = linalg._STARTS[n]
        assert not b.flags.writeable
        np.testing.assert_array_equal(b.view(np.uint64), np.exp(1j * np.arange(n)).view(np.uint64))
        with pytest.raises(ValueError):
            b[0] = 0.0


@pytest.mark.parametrize("shape", [(2, 5), (3, 4), (1, 3), (4, 4), (6, 3)])
def test_qr_matches_numpy_on_wide_transposed_and_non_finite_input(shape):
    # wide and F-ordered operands too; no errstate is entered, and none is
    # needed: a non-finite entry gives numpy's NaNs with no warning or error
    rng = np.random.default_rng([36, *shape])
    for bad in (None, np.nan, np.inf):
        x, t = _rand_complex(rng, shape), _rand_complex(rng, shape[::-1])
        if bad is not None:
            x[0, -1] = t[-1, 0] = bad
        for a in (x, t.T):
            before = a.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                q, r = _qr(a)
            q0, r0 = np.linalg.qr(a)
            for got, want in ((q, q0), (r, r0)):
                np.testing.assert_array_equal(*(np.ascontiguousarray(z).view(np.uint64) for z in (got, want)))
            np.testing.assert_array_equal(a, before)
