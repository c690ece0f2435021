"""Tri-partite index bookkeeping.

A vector of C^a (x) C^b (x) C^c is stored flat in lexicographic order: the
basis ket |i>|k>|m> sits at position (i*b + k)*c + m, first subsystem
slowest.  Operators on the product space use the same ordering for rows
and columns, which lets small witness matrices be transcribed digit by
digit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch

MODE_A, MODE_B, MODE_C = 0, 1, 2


def _check_count(name: str, value, least: int, error: type[Exception] = ValueError) -> int:
    """``value`` as a Python int; ``error`` unless it is an integer >= ``least``: numpy integers count, bools do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_kind(name: str, value, kind: type):
    """``value``; TypeError naming ``name`` unless it is a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _finite_array(x, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``x`` as a complex array: DimMismatch unless of shape ``shape``, then ValueError unless every entry is finite."""
    x = np.asarray(x, dtype=complex)
    if x.shape != shape:
        raise DimMismatch(f"{what}: expected shape {shape}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what}: entries must be finite")
    return x


@dataclass(frozen=True)
class TriDims:
    """Subsystem dimensions (a, b, c), each at least 1."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        # stored as Python integers, so that total cannot wrap as uint8 16 * 16 * 16 would
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _check_count(f"dimension {name}", getattr(self, name), 1, DimMismatch))

    @property
    def total(self) -> int:
        return self.a * self.b * self.c

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class Permutation3:
    """A reordering of the three parties, stored as the image of (A, B, C).

    ``image[slot]`` is the original party (0, 1 or 2) that ends up in
    ``slot``; (1, 2, 0) therefore denotes the ordering (B, C, A).
    """

    image: tuple[int, int, int]

    def __post_init__(self):
        # stored as a tuple of Python ints, so that a list or numpy image hashes and indexes as a tuple would
        object.__setattr__(self, "image", tuple([_check_count("permutation entry", x, 0) for x in self.image]))
        if sorted(self.image) != [0, 1, 2]:
            raise ValueError(f"not a permutation of (0, 1, 2): {self.image}")

    def apply(self, triple):
        """Permute a 3-tuple the same way the parties are permuted."""
        return tuple(triple[i] for i in self.image)

    def inverse(self) -> "Permutation3":
        return Permutation3(tuple(np.argsort(self.image).tolist()))


ALL_PERMUTATIONS = tuple(Permutation3(p) for p in itertools.permutations((0, 1, 2)))


@dataclass(frozen=True)
class TriVector:
    """A vector in C^a (x) C^b (x) C^c with flat lexicographic storage."""

    dims: TriDims
    data: np.ndarray

    def __post_init__(self):
        n = _check_kind("dims", self.dims, TriDims).total
        data = np.asarray(self.data, dtype=complex).reshape(-1)
        object.__setattr__(self, "data", _finite_array(data, (n,), "TriVector"))

    def as_tensor(self) -> np.ndarray:
        return self.data.reshape(self.dims.as_tuple())

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


@dataclass(frozen=True)
class TriOperator:
    """An (abc) x (abc) matrix tagged with tri-partite dimensions."""

    dims: TriDims
    mat: np.ndarray

    def __post_init__(self):
        n = _check_kind("dims", self.dims, TriDims).total
        object.__setattr__(self, "mat", _finite_array(self.mat, (n, n), "TriOperator"))


def product_vector(u, v, w) -> TriVector:
    """Assemble the product vector u (x) v (x) w in flat lexicographic layout."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    data = np.einsum("i,k,m->ikm", u, v, w).ravel()
    return TriVector(TriDims(u.size, v.size, w.size), data)


def unfold(xi: TriVector, mode: int) -> np.ndarray:
    """Mode-k matricization of a tri-partite vector.

    Mode A gives a x (bc), B gives b x (ac), C gives c x (ab); the column
    index runs lexicographically over the remaining subsystems in
    A-before-B-before-C order.  Raises DimMismatch unless ``mode`` is an
    integer (by the count rule, not a bool or a float) in 0..2.
    """
    if _check_count("mode", mode, MODE_A, DimMismatch) > MODE_C:
        raise DimMismatch(f"mode must be 0, 1 or 2, got {mode}")
    t = _check_kind("xi", xi, TriVector).as_tensor()
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)


def flip(x, sigma: Permutation3):
    """Reorder the parties of a vector or operator.

    Basis kets keep their labels but the labels move to the permuted
    subsystems; operators are conjugated by the corresponding permutation
    unitary.  The result carries the permuted dimensions.  TypeError unless
    ``sigma`` is a Permutation3 and ``x`` a TriVector or TriOperator.
    """
    _check_kind("sigma", sigma, Permutation3)
    if not isinstance(x, (TriVector, TriOperator)):
        raise TypeError(f"flip expects TriVector or TriOperator, got {type(x).__name__}")
    nd = TriDims(*sigma.apply(x.dims.as_tuple()))
    if isinstance(x, TriVector):
        return TriVector(nd, x.as_tensor().transpose(sigma.image).ravel())
    d = x.dims.as_tuple()
    t = x.mat.reshape(d + d).transpose(sigma.image + tuple(i + 3 for i in sigma.image))
    return TriOperator(nd, t.reshape(nd.total, nd.total))
