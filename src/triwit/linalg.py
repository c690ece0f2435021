"""Dense complex linear algebra with explicit tolerance contracts.

Matrices are plain numpy arrays with dtype complex128.  Every tolerance
gate in this module scales by the Frobenius norm of its input, except the
eigenvalue floors which scale by the spectral norm (available for free
once the spectrum is computed).  Every Hermitian eigenproblem is solved by
LAPACK's ``zheevd``, through the one helper ``_eigh``, except that the
one ``_least`` of every see-saw step solves a 2x2 in closed form and from
14x14 up takes ``zheevd``'s eigenvalues and one ``zgesv`` solve, by the
size rule of ``_least_solver``.  Every QR factorization goes through
``zgeqrf``, in the one helper ``_qr``.  The generalized eigenproblem,
``min_gen_eig``, is kept only for the bench and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg
from numpy.linalg._linalg import _raise_linalgerror_singular

from .errors import DegeneratePencil, DimMismatch, NotHermitian
from .tensor import _check_kind, _finite_array


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs shared across the package, each relative to the scale of what it tests.

    rank_rel: singular values below ``rank_rel * sigma_max`` do not count
        towards a rank; it must be below 1, or not even sigma_max counts.
    psd_abs: eigenvalue floor and Hermiticity gate, times the matrix norm;
        it must be below 1, or the floor drops every eigenvalue.
    ineq_abs: slack for scalar inequality checks, times the inequality's
        scale and applied on the favorable side, so exact boundary cases
        pass; it must be below 1, or every inequality check holds.
    """

    rank_rel: float = 1e-9
    psd_abs: float = 1e-9
    ineq_abs: float = 1e-9

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.rank_rel, self.psd_abs, self.ineq_abs)):
            raise ValueError("all tolerances must be positive and finite")
        if max(self.rank_rel, self.psd_abs, self.ineq_abs) >= 1:
            raise ValueError("rank_rel, psd_abs and ineq_abs must be below 1")


DEFAULT_TOL = Tolerance()


def _frobenius(m: np.ndarray) -> float:
    """||m||_F; where the plain sum of squares overflows, taken on m times 2**-600, an exact scale."""
    norm = math.sqrt(np.vdot(m, m).real)
    if norm < math.inf or not np.isfinite(m).all():
        return norm
    small = m * 2.0**-600
    return math.sqrt(np.vdot(small, small).real) * 2.0**600


def hermitize(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Check that ``m`` is Hermitian within tolerance and return (m + m*)/2, C-contiguous.

    Symmetrizing after the gate removes round-off asymmetry deterministically.
    Raises NotHermitian when the defect exceeds ``psd_abs * ||m||_F``, and
    when that norm is not below 2**1023, half the float range: also when
    ``m`` holds a NaN or an infinity.  TypeError unless ``tol`` is a Tolerance.
    """
    _check_kind("tol", tol, Tolerance)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    # both tests are negated comparisons so that NaN fails them; a norm
    # below 2**1023 bounds every part of m, so that m + m* cannot overflow
    scale = _frobenius(m)
    if not scale < 2.0**1023:
        raise NotHermitian(f"matrix norm is not below 2**1023: ||m|| = {scale}")
    mh = m.T.copy()  # m*, C-contiguous, so that no later pass reads m transposed
    np.conjugate(mh, out=mh)
    diff = m - mh
    defect = _frobenius(diff)
    if not defect <= tol.psd_abs * scale:
        raise NotHermitian(
            f"Hermiticity defect {defect:.3e} exceeds {tol.psd_abs:.1e} * ||m|| = {tol.psd_abs * scale:.3e}"
        )
    # (m + m*) / 2.0 bit for bit: numpy halves a + bi as ((a + b*0) / 2, (b - a*0) / 2)
    mh += m
    mh *= complex(1.0, -0.0)
    half = mh.view(np.float64)
    half *= 0.5
    return mh


def _eigh(m: np.ndarray):
    """Ascending eigenvalues and eigenvectors of a Hermitian matrix, read from its lower triangle.

    This calls the gufunc behind ``numpy.linalg.eigh`` (LAPACK ``zheevd`` in
    numpy's own LAPACK) without that wrapper's per-call checks, which cost
    more than the solve on the see-saw's 2x2 to 8x8 blocks.  SciPy's
    ``zheevd`` would bring a second OpenBLAS thread pool, which fights
    numpy's for the cores from about 16x16 up.  The gufunc reports a failed
    solve by filling its whole output with NaN, which the test of ``w[0]``
    catches.  ``m`` must be finite, as every public path's gate makes it: a
    NaN on the diagonal can leave finite eigenvalues, and no failure.
    """
    w, v = _umath_linalg.eigh_lo(m)
    if w.size and math.isnan(w[0]):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w, v


def _least_2x2(m: np.ndarray):
    """The least eigenvector y of the Hermitian 2x2 matrix M read, as by :func:`_eigh`, from its lower triangle.

    Reads the entries as Python scalars by one ``tolist`` and returns y as a
    unit vector, with its value Re(y* M y) as a float.  With h = (m00 - m11)
    / 2 and rho = hypot(h, |m10|), y is (conj(m10), -(h + rho)) for h >= 0
    and (h - rho, m10) otherwise, neither of which cancels; e1 when rho is 0.
    The entries are halved before they are subtracted and every norm is a
    hypot, so nothing overflows while ||M||_F is below 2**1023.  Raises
    LinAlgError on a NaN or infinite entry.
    """
    (m00, _), (m10, m11) = m.tolist()
    a, e = m00.real, m11.real
    h = a / 2 - e / 2
    rho = math.hypot(h, m10.real, m10.imag)
    if not math.isfinite(h + rho):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if rho == 0.0:
        y0, y1 = 1.0, 0.0
    elif h >= 0.0:
        y0, y1 = m10.conjugate(), -(h + rho)
    else:
        y0, y1 = h - rho, m10
    norm = math.hypot(y0.real, y0.imag, y1.real, y1.imag)
    y0, y1 = y0 / norm, y1 / norm
    p0, p1 = y0.real * y0.real + y0.imag * y0.imag, y1.real * y1.real + y1.imag * y1.imag
    value = a * p0 + e * p1 + 2.0 * (y1.conjugate() * m10 * y0).real
    return np.array((y0, y1), dtype=complex), value


_STARTS: dict[int, np.ndarray] = {}  # n -> exp(i j), j < n, read-only: _least's start vector b


def _least(m: np.ndarray):
    """The least eigenvector y of the Hermitian matrix ``m`` as a unit vector, with its value.

    The solver of every see-saw step, by the route that :func:`_least_solver`
    picks for its size.  A 2x2 is solved in closed form by
    :func:`_least_2x2` and up to 13x13 by :func:`_eigh`, both reading ``m``
    from its lower triangle.  From 14x14 up, where ``zheevd`` without
    vectors and one solve cost less, y is one inverse iteration (Ipsen, SIAM
    Rev. 39(2), 1997) from the least eigenvalue lam: (m - s I) y = b, s =
    lam - n eps ||m||_2, b = exp(i j), built once per n and kept read-only,
    m and s scaled by a power of two near 1 / ||m||_2 against overflow; its
    value Re(y* m y) reads all of ``m``, Hermitian up to rounding.  A value
    over lam + 2 n eps ||m||_2 (b orthogonal to the least eigenvector) or a
    singular solve (a zero ``m``) falls back to :func:`_eigh`.  ``m`` must be
    finite (see :func:`_eigh`); from 14x14 up a non-finite entry raises
    LinAlgError, as does a failed solve.
    """
    return _least_solver(m.shape[0])(m)


def _least_solver(n: int):
    """:func:`_least`'s solver of an n x n matrix, the one home of its size rule, for a see-saw to pick once."""
    return _least_2x2 if n == 2 else _least_inverse if n > 13 else _least_eigh


def _least_eigh(m: np.ndarray):
    w, v = _eigh(m)
    return v[:, 0], float(w[0])


def _least_inverse(m: np.ndarray):
    """:func:`_least` from 14x14 up, by inverse iteration or else :func:`_eigh`."""
    n = m.shape[0]
    b = _STARTS.get(n)
    if b is None:
        b = _STARTS[n] = np.exp(1j * np.arange(n))
        b.flags.writeable = False
    try:
        with np.errstate(call=_raise_linalgerror_singular, invalid="call", over="ignore", divide="ignore"):
            w = _umath_linalg.eigvalsh_lo(m)
            lo = float(w[0])
            scale = max(-lo, float(w[-1]))
            unit = math.ldexp(1.0, min(1022, -math.frexp(scale)[1]))
            a = np.multiply(m, unit, order="C")  # C order: reshape(-1) below is a view
            a.reshape(-1)[:: n + 1] -= (lo - n * scale * 2.0**-52) * unit
            y = _umath_linalg.solve1(a, b)
            y /= math.sqrt(np.vdot(y, y).real)
            value = float(np.vdot(y, m.dot(y)).real)
        if value - lo <= 2 * n * scale * 2.0**-52:
            return y, value
    except np.linalg.LinAlgError:
        pass
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return _least_eigh(m)


def _qr(a: np.ndarray):
    """The reduced q and r of ``numpy.linalg.qr(a)``, bit for bit, from its gufuncs, as :func:`_eigh` does.

    ``qr_r_raw`` (LAPACK ``zgeqrf``) overwrites its operand, a copy, with r
    on and above the diagonal.  No ``errstate`` is entered: each gufunc
    clears the floating-point flags (a non-finite entry gives NaN, as in
    numpy) and sets one only on an illegal LAPACK argument, which its own
    set-up rules out, so numpy's LinAlgError cannot arise.
    """
    a = np.array(a, dtype=complex)
    tau = _umath_linalg.qr_r_raw(a)
    q = _umath_linalg.qr_reduced(a, tau)
    r = a[: min(a.shape)]
    for row in range(1, r.shape[0]):
        r[row, :row] = 0
    return q, r


def hermitian_eig(m: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and eigenvectors in
    the columns of ``v``, so that ``m == v @ diag(w) @ v.conj().T`` within
    ``10 * psd_abs * ||m||``.
    """
    return _eigh(hermitize(m, tol))


def svd_rank(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_rel * sigma_max``; 0 for a zero or empty matrix.
    DimMismatch unless ``m`` is 2-D, then ValueError unless its entries are finite."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimMismatch(f"svd_rank: expected a 2-D array, got shape {m.shape}")
    m = _finite_array(m, m.shape, "svd_rank")
    _check_kind("tol", tol, Tolerance)
    if m.size == 0:
        return 0
    return _spectrum_rank(np.linalg.svd(m, compute_uv=False), tol)


def _spectrum_rank(s: np.ndarray, tol: Tolerance) -> int:
    """The rank rule of :func:`svd_rank`, applied to descending singular values ``s``, 0 when s[0] is 0;
    TypeError unless ``tol`` is a Tolerance."""
    return int(np.count_nonzero(s > _check_kind("tol", tol, Tolerance).rank_rel * s[0]))


def min_gen_eig(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Minimize the generalized Rayleigh quotient x*ax / x*bx; kept only for the bench and the tests.

    ``a`` must be Hermitian and ``b`` Hermitian positive semidefinite.  The
    quotient is minimized over the numerical range of ``b``: eigenvectors of
    ``b`` with eigenvalue at most ``psd_abs * ||b||_2`` are projected out, so
    the rule does not depend on the scale of ``b``, and the reduced standard
    problem is solved on the rest, whitened.  Returns ``(value, x)`` where
    the minimizer satisfies ``x* b x == 1``.

    Raises NotHermitian when ``a`` or ``b`` is not Hermitian or not finite
    (the gate of :func:`hermitize`), and DegeneratePencil when ``b`` has no
    eigenvalue above that floor, which for ``psd_abs < 1`` means it is zero.
    """
    a = hermitize(a, tol)
    bw, bv = _eigh(hermitize(b, tol))
    keep = bw > tol.psd_abs * max(abs(bw[0]), abs(bw[-1]))
    if not np.any(keep):
        raise DegeneratePencil("right-hand matrix has no numerically positive eigenvalue")
    whiten = bv[:, keep] / np.sqrt(bw[keep])
    aw, av = _eigh(whiten.conj().T @ a @ whiten)
    return float(aw[0]), whiten @ av[:, 0]
