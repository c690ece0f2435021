"""Rank-constrained state sampling and see-saw block-positivity search.

The see-saw minimizes <xi|W|xi> over unit vectors whose rank triplet is
bounded by a target.  The vector is parameterized by three factor blocks
and a core; with all other blocks frozen, the vector is linear in the free
block, so each update is an exact generalized Hermitian eigenproblem and
the objective never increases.  A factor whose target rank equals its
mode's dimension spans that mode, so it is absorbed into the core and
fixed at the identity: a sweep updates only the narrower factors and the
core.  A negative enough final value yields a violation certificate;
anything else is reported as "no violation found", which is deliberately
not a positivity proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DegeneratePencil, DimMismatch
from .linalg import DEFAULT_TOL, Tolerance, hermitize, min_gen_eig
from .schmidt import PosTriple, sr_leq, triple_leq
from .tensor import TriDims, TriOperator, TriVector


@dataclass(frozen=True)
class SeesawConfig:
    restarts: int = 20
    max_sweeps: int = 200
    convergence_eps: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_sweeps < 1:
            raise ValueError("restarts and max_sweeps must be >= 1")
        if not self.convergence_eps > 0:
            raise ValueError("convergence_eps must be positive")


@dataclass(frozen=True)
class ViolationCertificate:
    """A unit vector in the target cone with a negative quadratic form value."""

    xi: TriVector
    value: float
    target: PosTriple


@dataclass(frozen=True)
class NoViolation:
    """Best (non-violating) value found; not a proof of block positivity."""

    best_value: float
    best_xi: TriVector


@dataclass(frozen=True)
class SeesawRun:
    """Outcome of a single restart, with the per-update objective trace."""

    value: float
    xi: np.ndarray
    objective_trace: list[float]


def _draw_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _orthonormal_columns(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(_draw_complex(rng, (n, k)))
    return q[:, :k]


def _assemble(u, v, w, core) -> np.ndarray:
    return np.einsum("xi,yj,zk,ijk->xyz", u, v, w, core).ravel()


def _fit_target(target, dims: TriDims) -> PosTriple:
    """The target rank triplet as integers; DimMismatch unless 1 <= target <= dims."""
    t = PosTriple(*(int(x) for x in tuple(target)))
    if min(t) < 1 or not triple_leq(t, dims.as_tuple()):
        raise DimMismatch(f"target {tuple(target)} does not fit in dims {dims.as_tuple()}")
    return t


def sample_sr_vector(dims: TriDims, target, rng: np.random.Generator) -> TriVector:
    """Draw a random unit vector with rank triplet at most ``target``.

    Random orthonormal factor sets of the target sizes are combined through
    a random dense core, which bounds every unfolding rank by construction;
    generically the bound is attained.
    """
    p, q, r = _fit_target(target, dims)
    a, b, c = dims.as_tuple()
    u = _orthonormal_columns(rng, a, p)
    v = _orthonormal_columns(rng, b, q)
    w = _orthonormal_columns(rng, c, r)
    core = _draw_complex(rng, (p, q, r))
    data = _assemble(u, v, w, core)
    return TriVector(dims, data / np.linalg.norm(data))


def sample_state(dims: TriDims, target, n_terms: int, rng: np.random.Generator) -> TriOperator:
    """Unit-trace mixture of projectors onto sampled rank-bounded vectors."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    mat = np.zeros((dims.total, dims.total), dtype=complex)
    for _ in range(n_terms):
        xi = sample_sr_vector(dims, target, rng).data
        mat += np.outer(xi, xi.conj())
    return TriOperator(dims, mat / np.trace(mat).real)


def _block_jacobian(name: str, u, v, w, core) -> np.ndarray:
    """Linear map from the vectorized block ``name`` to the assembled vector.

    A factor block's Jacobian is block diagonal in that factor's row index
    (the identity times the contraction of the other three blocks), so only
    those diagonal blocks are written into a zero array.
    """
    a, p = u.shape
    b, q = v.shape
    c, r = w.shape
    if name == "u":
        jac = np.zeros((a, b, c, a, p), dtype=complex)
        block = np.einsum("ijk,yj,zk->yzi", core, v, w)
        for x in range(a):
            jac[x, :, :, x, :] = block
        return jac.reshape(a * b * c, a * p)
    if name == "v":
        jac = np.zeros((a, b, c, b, q), dtype=complex)
        block = np.einsum("xi,ijk,zk->xzj", u, core, w)
        for y in range(b):
            jac[:, y, :, y, :] = block
        return jac.reshape(a * b * c, b * q)
    if name == "w":
        jac = np.zeros((a, b, c, c, r), dtype=complex)
        block = np.einsum("xi,ijk,yj->xyk", u, core, v)
        for z in range(c):
            jac[:, :, z, z, :] = block
        return jac.reshape(a * b * c, c * r)
    return np.einsum("xi,yj,zk->xyzijk", u, v, w).reshape(a * b * c, p * q * r)


def seesaw_minimize(
    wmat: np.ndarray,
    dims: TriDims,
    target,
    rng: np.random.Generator,
    max_sweeps: int = SeesawConfig.max_sweeps,
    convergence_eps: float = SeesawConfig.convergence_eps,
    tol: Tolerance = DEFAULT_TOL,
) -> SeesawRun:
    """One see-saw descent from a random start; ``wmat`` must already be Hermitian.

    ``target`` must satisfy ``1 <= target <= dims`` (else DimMismatch).  A
    factor with target rank equal to its mode's dimension is drawn, absorbed
    into the core and fixed at the identity, so each sweep updates only the
    factors narrower than their mode, then the core: a cut target such as
    (1, 2, 2) on qubits updates u and the core, and target == dims is the
    least eigenvalue of ``wmat`` after one core update.  Each update
    solves the induced generalized eigenproblem exactly and is kept only if
    the quotient <xi|W|xi>/<xi|xi>, evaluated directly on the candidate
    vector xi (the block's Jacobian applied to the new block), does not
    increase, so the recorded objective is non-increasing by construction;
    a degenerate pencil re-randomizes the offending block instead of failing.
    """
    a, b, c = dims.as_tuple()
    p, q, r = _fit_target(target, dims)
    blocks = {
        "u": _draw_complex(rng, (a, p)),
        "v": _draw_complex(rng, (b, q)),
        "w": _draw_complex(rng, (c, r)),
        "core": _draw_complex(rng, (p, q, r)),
    }
    # a factor as wide as its mode spans it: absorb it into the core and hold
    # it at the identity, which leaves the reachable cone as it is
    sweep = []
    for mode, name in enumerate(("u", "v", "w")):
        d, k = blocks[name].shape
        if k < d:
            sweep.append(name)
            continue
        blocks["core"] = np.moveaxis(np.tensordot(blocks[name], blocks["core"], axes=(1, mode)), 0, mode)
        blocks[name] = np.eye(d, dtype=complex)
    sweep.append("core")

    def quotient(xi) -> float:
        return float((xi.conj() @ wmat @ xi).real / (xi.conj() @ xi).real)

    trace: list[float] = []
    value = quotient(_assemble(blocks["u"], blocks["v"], blocks["w"], blocks["core"]))
    for _ in range(max_sweeps):
        sweep_start = value
        for name in sweep:
            jac = _block_jacobian(name, blocks["u"], blocks["v"], blocks["w"], blocks["core"])
            jac_h = jac.conj().T
            try:
                _, z = min_gen_eig(jac_h @ wmat @ jac, jac_h @ jac, tol)
            except DegeneratePencil:
                blocks[name] = _draw_complex(rng, blocks[name].shape)
                continue
            z = z / np.linalg.norm(z)
            # accept only non-increasing steps: the exact block minimum never
            # increases the quotient, but the eigenvalue floor inside
            # min_gen_eig can clip near-null directions and jitter the value,
            # so the value it returns is not trusted here
            candidate = quotient(jac @ z)
            if candidate <= value:
                value = candidate
                blocks[name] = z.reshape(blocks[name].shape)
            trace.append(value)
        if sweep_start - value < convergence_eps:
            break
    xi = _assemble(blocks["u"], blocks["v"], blocks["w"], blocks["core"])
    xi = xi / np.linalg.norm(xi)
    return SeesawRun(value=value, xi=xi, objective_trace=trace)


def violation_search(
    w: TriOperator,
    target,
    cfg: SeesawConfig = SeesawConfig(),
    tol: Tolerance = DEFAULT_TOL,
):
    """Search for a rank-bounded unit vector with <xi|W|xi> < 0.

    Conjugation preserves rank triplets, so a certificate also exhibits a
    state in the corresponding Schmidt-number cone whose duality pairing
    against W is negative.  Restart seeds derive from ``cfg.seed`` plus the
    restart index, so runs are reproducible and restarts are independent.
    Returns a validated ViolationCertificate, or NoViolation with the best
    value found.
    """
    target = _fit_target(target, w.dims)
    wmat = hermitize(w.mat, tol)
    scale = np.linalg.norm(wmat)
    best: SeesawRun | None = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        run = seesaw_minimize(
            wmat, w.dims, target, rng, cfg.max_sweeps, cfg.convergence_eps, tol
        )
        if best is None or run.value < best.value:
            best = run
    xi = TriVector(w.dims, best.xi)
    value = float((best.xi.conj() @ wmat @ best.xi).real)
    if value < -tol.ineq_abs * scale:
        if not sr_leq(xi, target, tol):
            raise ConsistencyError("candidate violates its own rank-triplet bound")
        if abs(xi.norm() - 1.0) > 1e-9:
            raise ConsistencyError("candidate is not unit norm")
        return ViolationCertificate(xi=xi, value=value, target=target)
    return NoViolation(best_value=value, best_xi=xi)
