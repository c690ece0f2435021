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


def _check_count(name: str, value, least: int, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is an integer >= ``least``: numpy integers count, bools do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class TriDims:
    """Subsystem dimensions (a, b, c), each at least 1."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        # stored as Python integers, so that total cannot wrap as uint8 16 * 16 * 16 would
        for name in ("a", "b", "c"):
            _check_count(f"dimension {name}", getattr(self, name), 1, DimMismatch)
            object.__setattr__(self, name, int(getattr(self, name)))

    @property
    def total(self) -> int:
        return self.a * self.b * self.c

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def permuted(self, sigma: "Permutation3") -> "TriDims":
        return TriDims(*sigma.apply(self.as_tuple()))


@dataclass(frozen=True)
class Permutation3:
    """A reordering of the three parties, stored as the image of (A, B, C).

    ``image[slot]`` is the original party (0, 1 or 2) that ends up in
    ``slot``; (1, 2, 0) therefore denotes the ordering (B, C, A).
    """

    image: tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.image) != [0, 1, 2]:
            raise ValueError(f"not a permutation of (0, 1, 2): {self.image}")

    def apply(self, triple):
        """Permute a 3-tuple the same way the parties are permuted."""
        return tuple(triple[i] for i in self.image)

    def inverse(self) -> "Permutation3":
        inv = [0, 0, 0]
        for slot, party in enumerate(self.image):
            inv[party] = slot
        return Permutation3(tuple(inv))


ALL_PERMUTATIONS = tuple(Permutation3(p) for p in itertools.permutations((0, 1, 2)))


def _as_finite_complex(data, length: int, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=complex).reshape(-1)
    if arr.size != length:
        raise DimMismatch(f"{what}: expected {length} entries, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what}: entries must be finite")
    return arr


@dataclass(frozen=True)
class TriVector:
    """A vector in C^a (x) C^b (x) C^c with flat lexicographic storage."""

    dims: TriDims
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_finite_complex(self.data, self.dims.total, "TriVector"))

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
        n = self.dims.total
        mat = np.asarray(self.mat, dtype=complex)
        if mat.shape != (n, n):
            raise DimMismatch(f"TriOperator: expected shape {(n, n)}, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("TriOperator: entries must be finite")
        object.__setattr__(self, "mat", mat)


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
    A-before-B-before-C order.  Raises DimMismatch for a mode outside 0..2.
    """
    if mode not in (MODE_A, MODE_B, MODE_C):
        raise DimMismatch(f"mode must be 0, 1 or 2, got {mode}")
    t = xi.as_tensor()
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)


def flip(x, sigma: Permutation3):
    """Reorder the parties of a vector or operator.

    Basis kets keep their labels but the labels move to the permuted
    subsystems; operators are conjugated by the corresponding permutation
    unitary.  The result carries the permuted dimensions.
    """
    if isinstance(x, TriVector):
        t = x.as_tensor().transpose(sigma.image)
        return TriVector(x.dims.permuted(sigma), t.ravel())
    if isinstance(x, TriOperator):
        d = x.dims.as_tuple()
        axes = tuple(sigma.image) + tuple(i + 3 for i in sigma.image)
        t = x.mat.reshape(d + d).transpose(axes)
        nd = x.dims.permuted(sigma)
        return TriOperator(nd, t.reshape(nd.total, nd.total))
    raise TypeError(f"flip expects TriVector or TriOperator, got {type(x).__name__}")
