"""Bi-linear maps M_a x M_b -> M_c represented canonically by Choi matrices.

The Choi matrix collects the values of the map on matrix-unit pairs: the
entry at row (i, k, m), column (j, l, n) is the (m, n) entry of the value
on (|i><j|, |k><l|).  It is the single source of truth here; evaluation,
Kraus forms, the duality pairing, permutation duals and the two derived
linear maps are all read off of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimMismatch, NotHermitian, NotPSD
from .linalg import DEFAULT_TOL, Tolerance, hermitian_eig
from .tensor import Permutation3, TriDims, TriOperator, _check_kind, _finite_array, flip


@dataclass(frozen=True)
class BiLinearMap:
    """A bi-linear map, held as its Choi matrix alone; TypeError unless ``choi`` is a TriOperator."""

    choi: TriOperator

    def __post_init__(self):
        _check_kind("choi", self.choi, TriOperator)

    @property
    def dims(self) -> TriDims:
        return self.choi.dims


def from_choi(mat: np.ndarray, dims: TriDims) -> BiLinearMap:
    """Wrap an (abc) x (abc) matrix as a bi-linear map; TypeError unless ``dims`` is a TriDims."""
    return BiLinearMap(TriOperator(dims, mat))


def from_function(f: Callable[[np.ndarray, np.ndarray], np.ndarray], dims: TriDims) -> BiLinearMap:
    """Populate the Choi matrix from a callback on matrix-unit pairs; TypeError unless ``dims`` is a TriDims."""
    a, b, c = _check_kind("dims", dims, TriDims).as_tuple()
    choi = np.zeros((dims.total, dims.total), dtype=complex)
    c6 = choi.reshape(a, b, c, a, b, c)  # the view of the same entries that apply reads
    for i, j, k, l in itertools.product(range(a), range(a), range(b), range(b)):
        eij, ekl = np.zeros((a, a), dtype=complex), np.zeros((b, b), dtype=complex)
        eij[i, j] = ekl[k, l] = 1.0
        c6[i, k, :, j, l, :] = _finite_array(f(eij, ekl), (c, c), "callback")
    return from_choi(choi, dims)


def apply(phi: BiLinearMap, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate the map on a pair of matrices; TypeError unless ``phi`` is a BiLinearMap."""
    a, b, c = _check_kind("phi", phi, BiLinearMap).dims.as_tuple()
    x = _finite_array(x, (a, a), "first argument")
    y = _finite_array(y, (b, b), "second argument")
    c6 = phi.choi.mat.reshape(a, b, c, a, b, c)
    return np.einsum("ij,kl,ikmjln->mn", x, y, c6)


def elementary(v: np.ndarray, dims: TriDims) -> BiLinearMap:
    """The map (x, y) -> V (x kron y) V* for a c x (ab) matrix V.

    Its Choi matrix is the rank-one positive matrix onto the vector whose
    flat (i, k, m) entry is V[m, (i, k)].  TypeError unless ``dims`` is a TriDims.
    """
    a, b, c = _check_kind("dims", dims, TriDims).as_tuple()
    v = _finite_array(v, (c, a * b), "elementary")
    vec = v.T.reshape(-1)
    return from_choi(np.outer(vec, vec.conj()), dims)


def kraus_decompose(phi: BiLinearMap, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Factor a PSD Choi matrix into elementary-map factors.

    Factor i is ``sqrt(lambda_i)`` times the i-th eigenvector reshaped from
    flat (i, k, m) order to a c x (ab) matrix.  Factors are ordered by
    descending eigenvalue and each eigenvector's phase is fixed so its
    first significant component is real nonnegative, making the output
    deterministic.  Raises NotPSD with the most negative eigenvalue as
    evidence.  TypeError unless ``phi`` is a BiLinearMap.
    """
    a, b, c = _check_kind("phi", phi, BiLinearMap).dims.as_tuple()
    w, vecs = hermitian_eig(phi.choi.mat, tol)
    spectral = max(abs(w[0]), abs(w[-1]))
    if w[0] < -tol.psd_abs * spectral:
        raise NotPSD(w[0])
    factors = []
    for idx in range(w.size - 1, -1, -1):
        lam = w[idx]
        if lam <= tol.psd_abs * spectral:
            break
        vec = vecs[:, idx]
        pivots = np.flatnonzero(np.abs(vec) > 1e-12 * np.abs(vec).max())
        phase = vec[pivots[0]] / abs(vec[pivots[0]])
        vec = vec * phase.conjugate()
        factors.append(np.sqrt(lam) * vec.reshape(a * b, c).T)
    if not factors:
        factors.append(np.zeros((c, a * b), dtype=complex))
    return factors


def is_completely_positive(phi: BiLinearMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the Choi matrix is Hermitian PSD within tolerance; TypeError unless ``phi`` is a BiLinearMap."""
    try:
        w, _ = hermitian_eig(_check_kind("phi", phi, BiLinearMap).choi.mat, tol)
    except NotHermitian:
        return False
    spectral = max(abs(w[0]), abs(w[-1]))
    return bool(w[0] >= -tol.psd_abs * spectral)


def pair(rho: TriOperator, phi: BiLinearMap) -> complex:
    """Duality pairing: the trace of the Choi matrix against the transposed state.

    Equals ``sum_ij C[i, j] * rho[i, j]`` (no conjugation).  Real for
    Hermitian inputs; complex in general, with the imaginary part useful as
    a diagnostic.  TypeError unless ``rho`` is a TriOperator and ``phi`` a
    BiLinearMap.
    """
    if _check_kind("rho", rho, TriOperator).dims != _check_kind("phi", phi, BiLinearMap).dims:
        raise DimMismatch(f"state dims {rho.dims} do not match map dims {phi.dims}")
    return complex(np.einsum("ij,ij->", phi.choi.mat, rho.mat))


def permute_dual(phi: BiLinearMap, sigma: Permutation3) -> BiLinearMap:
    """The dual map under a permutation of the parties.

    The Choi matrix is conjugated by the permutation unitary (rows and
    columns reordered together) and the dimensions move along.  TypeError
    unless ``phi`` is a BiLinearMap.
    """
    return BiLinearMap(flip(_check_kind("phi", phi, BiLinearMap).choi, sigma))


def contract_a(phi: BiLinearMap, x: np.ndarray) -> np.ndarray:
    """Contract the first-party slot of the Choi matrix against ``x``.

    Returns the (bc) x (bc) matrix ``sum_ij x[i, j] C_{i,j}`` where the
    ``C_{i,j}`` are the first-party blocks of the Choi matrix.  TypeError
    unless ``phi`` is a BiLinearMap.
    """
    a, b, c = _check_kind("phi", phi, BiLinearMap).dims.as_tuple()
    x = _finite_array(x, (a, a), "contract_a argument")
    c4 = phi.choi.mat.reshape(a, b * c, a, b * c)
    return np.einsum("ij,ikjl->kl", x, c4)


def contract_ab(phi: BiLinearMap, z: np.ndarray) -> np.ndarray:
    """Evaluate the linearization on a joint (ab) x (ab) matrix.

    Returns ``sum z[(ik),(jl)] C_{(ik),(jl)}``; on a product input
    ``z = x kron y`` this coincides with :func:`apply`.  TypeError unless
    ``phi`` is a BiLinearMap.
    """
    a, b, c = _check_kind("phi", phi, BiLinearMap).dims.as_tuple()
    z = _finite_array(z, (a * b, a * b), "contract_ab argument")
    c4 = phi.choi.mat.reshape(a * b, c, a * b, c)
    return np.einsum("uv,umvn->mn", z, c4)
