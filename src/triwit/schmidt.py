"""Schmidt-rank triplets, the admissible region, and a constructive generator.

The rank triplet of a tri-partite vector is computed two ways: from the
numerical ranks of the three mode unfoldings given by ``tensor.unfold``
(the fast route used everywhere, the CLI's ``sr`` report included), and
literally from the nested-map definition (a slower independent oracle,
kept so tests can guard the equivalence instead of assuming it).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotAdmissible, ZeroVector
from .linalg import DEFAULT_TOL, Tolerance, _spectrum_rank, svd_rank
from .tensor import TriDims, TriVector, _check_kind, unfold


class SchmidtRank(NamedTuple):
    alpha: int
    beta: int
    gamma: int


def _triple(t) -> tuple[int, int, int]:
    """The triplet ``t``'s entries as three ints; ValueError unless it has exactly three integral entries, no bool."""
    entries = tuple(t)
    try:
        ints = tuple([int(x) for x in entries if type(x) not in (bool, np.bool_)])  # a bool fails the test below
    except (TypeError, ValueError, OverflowError):
        ints = None
    if len(entries) != 3 or ints != entries:
        raise ValueError(f"a rank triplet needs exactly three integral entries, got {entries}")
    return ints


def triple_leq(s, t) -> bool:
    """Componentwise (product) partial order on triplets."""
    return all(x <= y for x, y in zip(_triple(s), _triple(t)))


def schmidt_rank(xi: TriVector, tol: Tolerance = DEFAULT_TOL) -> SchmidtRank:
    """Rank triplet of a nonzero tri-partite vector via mode-unfolding ranks; ZeroVector for the zero vector,
    TypeError unless ``xi`` is a TriVector."""
    return SchmidtRank(*(_spectrum_rank(s, tol) for s in _mode_spectra(_check_kind("xi", xi, TriVector))))


def schmidt_rank_by_definition(xi: TriVector, tol: Tolerance = DEFAULT_TOL) -> SchmidtRank:
    """Rank triplet computed literally from the nested-map definition.

    The vector is identified with a linear map sending the first party to
    c x b matrices.  The first component is the dimension of the span of
    those matrices over a basis of inputs, the second the dimension of the
    join of their supports, the third the join of their ranges.  Slower
    than :func:`schmidt_rank` but structurally independent; the two must
    agree on every input.  The tensor is divided by its largest modulus
    first, so that the Gram matrix of the maps neither underflows nor
    overflows.  TypeError unless ``xi`` is a TriVector.
    """
    if not _check_kind("xi", xi, TriVector).data.any():
        raise ZeroVector("Schmidt rank is undefined for the zero vector")
    a = xi.dims.a
    t = xi.as_tensor()
    t = t / np.abs(t).max()
    # value of the map on the i-th basis vector of the first party, as a c x b matrix
    maps = [t[i].T for i in range(a)]

    vecs = np.array([m.ravel() for m in maps])
    gram = vecs @ vecs.conj().T
    gw = np.linalg.eigvalsh(gram)
    top = gw[-1]
    # Gram eigenvalues square the singular values, so the rank cutoff squares
    # too; it must stay above the eigensolver's own noise floor of order
    # eps * top, which squared cutoffs like 1e-18 would otherwise undercut
    floor = max(_check_kind("tol", tol, Tolerance).rank_rel**2, 64.0 * a * np.finfo(float).eps) * top
    alpha = int(np.count_nonzero(gw > floor))

    svds = [np.linalg.svd(m) for m in maps]
    sig_ref = max(s[0] for _, s, _ in svds)
    ranges, supports = [], []
    for u, s, vh in svds:
        r = int(np.count_nonzero(s > tol.rank_rel * sig_ref))
        ranges.append(u[:, :r])
        supports.append(vh[:r].conj().T)
    beta = svd_rank(np.hstack(supports), tol)
    gamma = svd_rank(np.hstack(ranges), tol)
    return SchmidtRank(alpha, beta, gamma)


def sr_leq(xi: TriVector, t, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the rank triplet of ``xi`` is componentwise at most ``t``; TypeError unless ``xi`` is a TriVector."""
    t = _triple(t)
    _check_kind("tol", tol, Tolerance)
    if not _check_kind("xi", xi, TriVector).data.any():
        return True  # the zero vector sits in every cone
    return triple_leq(schmidt_rank(xi, tol), t)


def admissible(t, dims: TriDims) -> bool:
    """Membership in the admissible region of rank triplets.

    Requires 1 <= alpha <= a, 1 <= beta <= b, 1 <= gamma <= c and each
    component at most the product of the other two.
    """
    return _admissible(*_triple(t), *_check_kind("dims", dims, TriDims).as_tuple())


def _admissible(al: int, be: int, ga: int, a: int, b: int, c: int) -> bool:
    """:func:`admissible`'s rule on a triplet and dims already checked as ints."""
    return 1 <= al <= a and 1 <= be <= b and 1 <= ga <= c and al <= be * ga and be <= ga * al and ga <= al * be


def all_admissible(dims: TriDims) -> list[SchmidtRank]:
    """All admissible rank triplets for the given dimensions, lexicographic; TypeError unless ``dims`` is a TriDims."""
    a, b, c = _check_kind("dims", dims, TriDims).as_tuple()
    return [
        SchmidtRank(al, be, ga)
        for al in range(1, a + 1)
        for be in range(1, b + 1)
        for ga in range(1, c + 1)
        if _admissible(al, be, ga, a, b, c)
    ]


def _construct_ascending(al: int, be: int, ga: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Build a tensor with rank triplet (al, be, ga), assuming al <= be <= ga.

    Splits the third rank as ga = be * k + r.  The first k basis vectors of
    the first party each carry a full block of be products hitting fresh
    third-party vectors, one more carries the remaining r products, and the
    leftover first-party vectors are attached to rank-one products whose
    ranges sit inside the first block.  The division is taken with
    0 < r <= be (rather than 0 <= r < be) so that the partial block is
    never empty and every first-party vector contributes.
    """
    a, b, c = dims
    k, r = divmod(ga, be)
    if r == 0:
        k, r = k - 1, be
    t = np.zeros((a, b, c), dtype=complex)
    for i in range(k):
        for j in range(be):
            t[i, j, i * be + j] = 1.0
    for j in range(r):
        t[k, j, k * be + j] = 1.0
    for i in range(1, al - k):
        t[k + i, i - 1, i - 1] = 1.0
    return t


def construct_state_with_sr(t, dims: TriDims) -> TriVector:
    """Return a vector whose rank triplet equals ``t`` exactly.

    The parties are put in the stable ascending order of ``t``, the
    three-block construction is applied with standard basis vectors in the
    correspondingly permuted dimensions, and the tensor is transposed back
    by the inverse order, which is what flipping the sorted vector would
    give.  Raises NotAdmissible outside the admissible region, and
    TypeError unless ``dims`` is a TriDims.
    """
    t, d = _triple(t), _check_kind("dims", dims, TriDims).as_tuple()
    if not _admissible(*t, *d):
        raise NotAdmissible(f"rank triplet {t} is not admissible in dims {d}")
    order = tuple(sorted(range(3), key=t.__getitem__))
    tensor = _construct_ascending(*(t[i] for i in order), tuple(d[i] for i in order))
    return TriVector(dims, tensor.transpose(np.argsort(order)).ravel())


def _mode_spectra(xi: TriVector) -> list[np.ndarray]:
    """Descending singular values of the three mode unfoldings, which both :func:`schmidt_rank` and the
    CLI's ``sr`` report read; ZeroVector for the zero vector."""
    if not xi.data.any():
        raise ZeroVector("unfolding ranks are undefined for the zero vector")
    return [np.linalg.svd(unfold(xi, mode), compute_uv=False) for mode in range(3)]
