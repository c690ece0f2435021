"""Rank-constrained state sampling and see-saw block-positivity search.

The see-saw minimizes <xi|W|xi> over unit vectors whose rank triplet is
bounded by a target.  The vector is parameterized by three factor blocks
and a core; with all other blocks frozen, the vector is linear in the free
block, so each update is an exact eigenproblem and the objective never
increases.  The factors are kept orthonormal, so the core update is a
standard eigenproblem, and no update builds a Jacobian (see
:func:`seesaw_minimize`).  A negative enough final value yields a
violation certificate; anything else is reported as "no violation found",
which is deliberately not a positivity proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DegeneratePencil, DimMismatch
from .linalg import DEFAULT_TOL, Tolerance, _eigh, _whitening, hermitize
from .linalg import min_gen_eig  # noqa: F401  (the see-saw no longer calls it; bench/selftest reads search.min_gen_eig)
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
    """Outcome of a single restart.

    ``objective_trace`` holds the value after each block update that solved
    its eigenproblem, kept or ``rejected``; ``redraws`` counts the updates
    whose pencil was degenerate and re-drew the block instead.  ``sweeps``
    is the number of sweeps run, and ``converged`` is False when the run
    stopped at ``max_sweeps`` with its last sweep still gaining at least
    ``convergence_eps``.
    """

    value: float
    xi: np.ndarray
    objective_trace: list[float]
    sweeps: int
    converged: bool
    rejected: int
    redraws: int


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


def _mode_product(mat: np.ndarray, t: np.ndarray, mode: int) -> np.ndarray:
    """Apply ``mat`` to axis ``mode`` of ``t``; that axis takes the length of mat's rows."""
    shape = t.shape
    out = mat @ t.reshape(math.prod(shape[:mode]), shape[mode], -1)
    return out.reshape(shape[:mode] + (mat.shape[0],) + shape[mode + 1 :])


def seesaw_minimize(
    wmat: np.ndarray,
    dims: TriDims,
    target,
    rng: np.random.Generator,
    max_sweeps: int = SeesawConfig.max_sweeps,
    convergence_eps: float = SeesawConfig.convergence_eps,
    tol: Tolerance = DEFAULT_TOL,
) -> SeesawRun:
    """One see-saw descent from a random start.

    ``wmat`` is gated once, at entry, by :func:`hermitize` (NotHermitian for
    a non-Hermitian or non-finite matrix), and ``target`` must satisfy
    ``1 <= target <= dims`` (else DimMismatch).  The vector is the core
    multiplied by one factor per mode.  A factor with target rank equal to
    its mode's dimension is drawn, absorbed into the core and fixed at the
    identity, so each sweep updates only the factors narrower than their
    mode, then the core: a cut target such as (1, 2, 2) on qubits updates u
    and the core, and target == dims is the least eigenvalue of ``wmat``
    after one core update.

    The free factors are kept orthonormal: after every accepted factor step
    the factor's QR triangle is pushed into the core, which leaves the
    vector as it is.  The core step is then one standard eigenproblem of
    J* W J, J the product of the factors with orthonormal columns.  A factor
    step contracts W, permuted so that the factor's mode comes first, with
    the rest of the network (the core times the other factors); its Gram
    matrix is the identity times a k x k block, whitened under the rule of
    :func:`min_gen_eig`.  No Jacobian is built.  Both reduced matrices are
    read from their lower triangles, which is their exact symmetrization.
    Each step is kept only if the quotient <xi|W|xi>/<xi|xi>, evaluated
    directly on the candidate vector xi, does not increase, so the recorded
    objective is non-increasing by construction.  A factor step whose pencil
    is degenerate re-draws that factor from ``rng``, orthonormalized like an
    accepted one, instead of failing.  The returned run counts its sweeps,
    rejected steps and re-draws, and says whether it converged.
    """
    wmat = hermitize(wmat, tol)
    shape = dims.as_tuple()
    ranks = _fit_target(target, dims)
    n, m = dims.total, math.prod(ranks)
    factors = [_draw_complex(rng, (d, k)) for d, k in zip(shape, ranks)]
    core = _draw_complex(rng, tuple(ranks))
    # a factor as wide as its mode spans it: absorb it into the core and hold
    # it at the identity (None), which leaves the reachable cone as it is
    free = []
    for mode, (d, k) in enumerate(zip(shape, ranks)):
        if k == d:
            core = _mode_product(factors[mode], core, mode)
            factors[mode] = None
        else:
            free.append(mode)
    factors_h = [None] * 3

    def set_factor(mode, x) -> None:
        """Store ``x = q r`` as its orthonormal ``q`` and push ``r`` into the core; xi is unchanged."""
        nonlocal core
        if x.shape[1] == 1:
            norm = math.sqrt(np.vdot(x, x).real)
            factors[mode] = x / norm
            core = core * norm
        else:
            factors[mode], r = np.linalg.qr(x)
            core = _mode_product(r, core, mode)
        factors_h[mode] = factors[mode].conj().T

    for mode in free:
        set_factor(mode, factors[mode])
    # each free mode's axis order with that mode first, and W permuted to it on both sides
    orders, wfirst = {}, {}
    for mode in free:
        orders[mode] = [mode] + [other for other in range(3) if other != mode]
        axes = orders[mode] + [3 + other for other in orders[mode]]
        wfirst[mode] = wmat.reshape(shape * 2).transpose(axes).reshape(n, n)

    def quotient(xi, wm) -> float:
        return float(np.vdot(xi, wm @ xi).real / np.vdot(xi, xi).real)

    def assemble(t):
        for mode in free:
            t = _mode_product(factors[mode], t, mode)
        return t.reshape(-1)

    def factor_step(mode):
        """Minimize over factor ``mode``; returns the candidate (in W's mode-first order) and the new factor."""
        d = shape[mode]
        order = orders[mode]
        rest = core.transpose(order)
        for axis in (1, 2):
            if factors[order[axis]] is not None:
                rest = _mode_product(factors[order[axis]], rest, axis)
        mt = rest.reshape(ranks[mode], n // d)
        # the vector is new_factor @ mt in mode-first order, so the Gram
        # matrix is the identity times conj(mt) @ mt.T
        s = _whitening(mt.conj() @ mt.T, tol)
        t = mt.T @ s
        k = t.shape[1]
        reduced = t.conj().T @ (wfirst[mode].reshape(-1, n // d) @ t).reshape(d, n // d, d * k)
        _, vecs = _eigh(reduced.reshape(d * k, d * k))
        y = vecs[:, 0].reshape(d, k)
        return (y @ t.T).reshape(-1), y @ s.T

    def core_step():
        """Minimize over the core; returns the candidate and the new core."""
        t = wmat.reshape(shape + (n,))
        for mode in free:
            t = _mode_product(factors_h[mode], t, mode)
        t = t.reshape(m, n).conj().T.reshape(shape + (m,))
        for mode in free:
            t = _mode_product(factors_h[mode], t, mode)
        _, vecs = _eigh(t.reshape(m, m))
        y = vecs[:, 0].reshape(ranks)
        return assemble(y), y

    def accept(candidate, wm) -> bool:
        """Record the step's value; keep it only if the quotient does not increase."""
        nonlocal value, rejected
        # the exact block minimum never increases the quotient, but the
        # whitening floor can clip near-null directions and jitter the
        # eigenvalue, so the value is evaluated directly on the candidate
        cand_value = quotient(candidate, wm)
        kept = cand_value <= value
        if kept:
            value = cand_value
        else:
            rejected += 1
        trace.append(value)
        return kept

    trace: list[float] = []
    rejected = redraws = sweeps = 0
    converged = False
    value = quotient(assemble(core), wmat)
    while sweeps < max_sweeps and not converged:
        sweeps += 1
        sweep_start = value
        for mode in free:
            try:
                candidate, new_factor = factor_step(mode)
            except DegeneratePencil:
                redraws += 1
                set_factor(mode, _draw_complex(rng, factors[mode].shape))
                continue
            if accept(candidate, wfirst[mode]):
                set_factor(mode, new_factor)
        candidate, new_core = core_step()
        if accept(candidate, wmat):
            core = new_core
        converged = sweep_start - value < convergence_eps
    xi = assemble(core)
    xi = xi / np.linalg.norm(xi)
    return SeesawRun(
        value=value, xi=xi, objective_trace=trace, sweeps=sweeps,
        converged=converged, rejected=rejected, redraws=redraws,
    )


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
