"""Dense complex linear algebra with explicit tolerance contracts.

Matrices are plain numpy arrays with dtype complex128.  Every tolerance
gate in this module scales by the Frobenius norm of its input, except the
eigenvalue floors which scale by the spectral norm (available for free
once the spectrum is computed).  Every Hermitian eigenproblem is solved by
LAPACK's ``zheevd``, through the one helper ``_eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegeneratePencil, NotHermitian

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "hermitize",
    "hermitian_eig",
    "svd_rank",
    "min_gen_eig",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs shared across the package.

    rank_rel: singular values below ``rank_rel * sigma_max`` do not count
        towards a rank; it must be below 1, or not even sigma_max counts.
    psd_abs: eigenvalue floor; scaled by the matrix norm wherever it is used.
    ineq_abs: slack for scalar inequality checks, applied on the favorable
        side so exact boundary cases pass.
    """

    rank_rel: float = 1e-9
    psd_abs: float = 1e-9
    ineq_abs: float = 1e-9

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.rank_rel, self.psd_abs, self.ineq_abs)):
            raise ValueError("all tolerances must be positive and finite")
        if self.rank_rel >= 1:
            raise ValueError("rank_rel must be below 1")


DEFAULT_TOL = Tolerance()


def hermitize(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Check that ``m`` is Hermitian within tolerance and return (m + m*)/2.

    Symmetrizing after the gate removes round-off asymmetry deterministically.
    Raises NotHermitian when the defect exceeds ``psd_abs * ||m||_F``, and
    when ``m`` holds a NaN or an infinity (its norm is then not finite).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    # both tests are negated comparisons so that NaN fails them
    scale = math.sqrt(np.vdot(m, m).real)
    if not scale < math.inf:
        raise NotHermitian(f"matrix norm is not finite: ||m|| = {scale}")
    mh = m.conj().T
    diff = m - mh
    defect = math.sqrt(np.vdot(diff, diff).real)
    if not defect <= tol.psd_abs * scale:
        raise NotHermitian(
            f"Hermiticity defect {defect:.3e} exceeds {tol.psd_abs:.1e} * ||m|| = {tol.psd_abs * scale:.3e}"
        )
    return (m + mh) / 2.0


def _eigh(m: np.ndarray):
    """Ascending eigenvalues and eigenvectors of a Hermitian matrix, read from its lower triangle.

    This calls the gufunc behind ``numpy.linalg.eigh`` (LAPACK ``zheevd`` in
    numpy's own LAPACK) without that wrapper's per-call checks, which cost
    more than the solve on the see-saw's 2x2 to 8x8 blocks.  SciPy's
    ``zheevd`` would bring a second OpenBLAS thread pool, which fights
    numpy's for the cores from about 16x16 up.  The gufunc reports a failed
    solve by filling its whole output with NaN.
    """
    w, v = _umath_linalg.eigh_lo(m)
    if w.size and math.isnan(w[0]):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w, v


def hermitian_eig(m: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and eigenvectors in
    the columns of ``v``, so that ``m == v @ diag(w) @ v.conj().T`` within
    ``10 * psd_abs * ||m||``.
    """
    return _eigh(hermitize(m, tol))


def svd_rank(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_rel * sigma_max``; 0 for a zero matrix."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    return _spectrum_rank(np.linalg.svd(m, compute_uv=False), tol)


def _spectrum_rank(s: np.ndarray, tol: Tolerance) -> int:
    """The rank rule of :func:`svd_rank`, applied to descending singular values ``s``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel * s[0]))


def _whitening(b: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Columns ``s`` with ``s* b s == I`` that span the numerical range of ``b``.

    ``b`` is Hermitian positive semidefinite and read from its lower
    triangle.  Eigenvectors of ``b`` with eigenvalue at most
    ``psd_abs * ||b||_2`` are projected out.  Raises DegeneratePencil when
    ``b`` holds a NaN or inf (the eigensolver may fail on it, or return
    finite values), is numerically zero or has no eigenvalue above that
    floor.
    """
    if not np.isfinite(b).all():
        raise DegeneratePencil("right-hand matrix is not finite")
    bw, bv = _eigh(b)
    spectral = max(abs(bw[0]), abs(bw[-1]))
    if spectral <= tol.psd_abs:
        raise DegeneratePencil("right-hand matrix is numerically zero")
    floor = tol.psd_abs * spectral
    if bw[0] > floor:
        return bv / np.sqrt(bw)
    keep = bw > floor
    if not np.any(keep):
        raise DegeneratePencil("right-hand matrix has no numerically positive eigenvalue")
    return bv[:, keep] / np.sqrt(bw[keep])


def _above_floor(g: float, tol: Tolerance) -> bool:
    """Whether :func:`_whitening` keeps the 1x1 Gram matrix ``[[g]]``, ``g >= 0``; False for NaN.

    Both of its tests apply: ``g`` must exceed ``psd_abs`` (else it is
    numerically zero) and ``psd_abs * g``, the floor it sets itself.
    """
    return g > tol.psd_abs and g > tol.psd_abs * g


def min_gen_eig(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Minimize the generalized Rayleigh quotient x*ax / x*bx.

    ``a`` must be Hermitian and ``b`` Hermitian positive semidefinite.  The
    quotient is minimized over the numerical range of ``b``: eigenvectors of
    ``b`` with eigenvalue at most ``psd_abs * ||b||_2`` are projected out and
    the reduced standard problem is solved on the rest.  Returns
    ``(value, x)`` where the minimizer satisfies ``x* b x == 1``.

    Raises DegeneratePencil when ``b`` is numerically zero.
    """
    a = hermitize(a, tol)
    whiten = _whitening(hermitize(b, tol), tol)
    aw, av = _eigh(whiten.conj().T @ a @ whiten)
    x = whiten @ av[:, 0]
    return float(aw[0]), x
