"""Rank-constrained state sampling and see-saw block-positivity search.

The see-saw minimizes <xi|W|xi> over unit vectors whose rank triplet is
bounded by a target.  The vector is parameterized by three factor blocks
and a core; with all other blocks frozen, the vector is linear in the
free block, so each update is an exact eigenproblem and the objective
never increases; an update whose pencil is degenerate is a rejected
step, so a restart draws randomness only at its start.  The factors are
kept orthonormal, so the core update is a standard eigenproblem, and no
update builds a Jacobian (see :func:`seesaw_minimize`).  A cut target,
such as (1, 2, 2) on qubits (the bi-separable states across one cut),
runs a dedicated loop: the vector is u (x) c, and each step is one
product of W, reshaped once per restart, with the outer product of the
other block, then one eigensolve.  A negative enough final value yields
a violation certificate; anything else is reported as "no violation
found", which is deliberately not a positivity proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DegeneratePencil, DimMismatch
from .linalg import DEFAULT_TOL, Tolerance, _above_floor, _eigh, _whitening, hermitize
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

    ``objective_trace`` holds the value after each block update, kept or
    ``rejected``; an update whose pencil is degenerate leaves its block in
    place and counts as rejected.  ``value`` is the quotient of ``xi``.
    ``sweeps`` is the number of sweeps run, and ``converged`` is False when
    the run stopped at ``max_sweeps`` with its last sweep still gaining at
    least ``convergence_eps``.
    """

    value: float
    xi: np.ndarray
    objective_trace: list[float]
    sweeps: int
    converged: bool
    rejected: int


class _Record:
    """A restart's value, trace and rejected steps, under the step rule both see-saw loops share."""

    __slots__ = ("value", "trace", "rejected")

    def __init__(self, value: float):
        self.value, self.trace, self.rejected = value, [], 0

    def keep(self, cand_value: float) -> bool:
        """Record a step; keep it only if its quotient ``cand_value`` does not go up.

        The exact block minimum never increases the quotient, but the whitening
        floor can clip near-null directions and jitter the eigenvalue, so each
        loop evaluates the quotient directly on the candidate vector.  A
        degenerate step has no candidate and passes NaN, which is never kept.
        """
        kept = cand_value <= self.value
        if kept:
            self.value = cand_value
        else:
            self.rejected += 1
        self.trace.append(self.value)
        return kept

    def run(self, xi: np.ndarray, sweeps: int, converged: bool) -> SeesawRun:
        return SeesawRun(
            value=self.value, xi=xi / np.linalg.norm(xi), objective_trace=self.trace,
            sweeps=sweeps, converged=converged, rejected=self.rejected,
        )


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
    is degenerate leaves the factor in place and counts as a rejected step,
    so ``rng`` is read only for the start.  The trace has one entry per
    block update, the value is the quotient of the returned vector, and the
    run counts its sweeps and rejected steps and says whether it converged.

    A cut target, whose one factor narrower than its mode has rank one,
    runs the dedicated loop :func:`_cut_seesaw` instead, chosen from the
    target and dims alone.  It keeps the same draws, entry gate, direct
    guard on every candidate, floor rule, gauge and counts, and reaches the
    same iterates, but each step is one product of a once-reshaped W and
    one eigensolve: no Gram eigensolve, mode products or permuted copies.
    Every other target runs the general loop above.
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
    if len(free) == 1 and ranks[free[0]] == 1:
        return _cut_seesaw(wmat, shape, free[0], factors[free[0]], core, max_sweeps, convergence_eps, tol)
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

    record = _Record(quotient(assemble(core), wmat))
    sweeps, converged = 0, False
    while sweeps < max_sweeps and not converged:
        sweeps += 1
        sweep_start = record.value
        for mode in free:
            try:
                candidate, new_factor = factor_step(mode)
            except DegeneratePencil:
                record.keep(math.nan)
                continue
            if record.keep(quotient(candidate, wfirst[mode])):
                set_factor(mode, new_factor)
        candidate, new_core = core_step()
        if record.keep(quotient(candidate, wmat)):
            core = new_core
        converged = sweep_start - record.value < convergence_eps
    return record.run(assemble(core), sweeps, converged)


def _cut_seesaw(wmat, shape, mode, u, core, max_sweeps, convergence_eps, tol) -> SeesawRun:
    """The see-saw of :func:`seesaw_minimize` on a cut target, where only ``mode`` is free, at rank one.

    In the free mode's first order the vector is u (x) c, u the factor
    ``u`` of that mode and c the flattened ``core`` (the other two modes,
    absorbed).  W, with the free mode first on both sides, is reshaped once
    into ``w_u`` (d^2 x r^2) and ``w_c`` (r^2 x d^2), so a step's reduced
    matrix is one product of one of them with the outer product of the
    other block.  u is kept a unit vector and c carries the norm, so the c
    step is a standard eigenproblem.  The u step's Gram matrix is ||c||^2,
    floored by :func:`_above_floor`, the rule of :func:`_whitening`; a
    degenerate u step leaves u in place and counts as rejected.
    """
    d = shape[mode]
    r = wmat.shape[0] // d
    order = [mode] + [other for other in range(3) if other != mode]
    w4 = wmat.reshape(shape * 2).transpose(order + [3 + other for other in order]).reshape(d, r, d, r)
    wfirst = w4.reshape(d * r, d * r)
    w_u = w4.transpose(0, 2, 1, 3).reshape(d * d, r * r)
    w_c = w4.transpose(1, 3, 0, 2).reshape(r * r, d * d)

    def quotient(xi) -> float:
        return float(np.vdot(xi, wfirst @ xi).real / np.vdot(xi, xi).real)

    # u is stored as a unit vector and its norm pushed into c; xi is unchanged
    u = u.reshape(d)
    norm = math.sqrt(np.vdot(u, u).real)
    u, c = u / norm, core.reshape(r) * norm
    record = _Record(quotient((u[:, None] * c).reshape(-1)))
    sweeps, converged = 0, False
    while sweeps < max_sweeps and not converged:
        sweeps += 1
        sweep_start = record.value
        gram = np.vdot(c, c).real
        if _above_floor(gram, tol):
            _, vecs = _eigh((w_u @ (c.conj()[:, None] * c).reshape(-1)).reshape(d, d))
            y = vecs[:, 0]
            if record.keep(quotient((y[:, None] * c).reshape(-1))):
                u = y
                c = c / math.sqrt(gram)
        else:
            record.keep(math.nan)
        _, vecs = _eigh((w_c @ (u.conj()[:, None] * u).reshape(-1)).reshape(r, r))
        y = vecs[:, 0]
        if record.keep(quotient((u[:, None] * y).reshape(-1))):
            c = y
        converged = sweep_start - record.value < convergence_eps
    rest = tuple(shape[other] for other in order[1:])
    xi = (u[:, None] * c).reshape((d,) + rest).transpose(np.argsort(order)).reshape(-1)
    return record.run(xi, sweeps, converged)


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
    When the target equals the dims no factor is free, so every restart
    solves the same eigenproblem of W and only the first runs; reports
    still show ``cfg.restarts``.  Returns a validated ViolationCertificate,
    or NoViolation with the best value found.
    """
    target = _fit_target(target, w.dims)
    wmat = hermitize(w.mat, tol)
    scale = np.linalg.norm(wmat)
    restarts = 1 if target == w.dims.as_tuple() else cfg.restarts
    best: SeesawRun | None = None
    for restart in range(restarts):
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
