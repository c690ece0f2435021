"""Rank-constrained state sampling and see-saw block-positivity search.

The see-saw minimizes <xi|W|xi> over unit vectors whose rank triplet is
bounded by a target.  The vector is parameterized by three factor blocks
and a core; with all other blocks frozen, the vector is linear in the
free block, so each update is an exact eigenproblem and the objective
never increases.  The vector is never zero and the floors are relative,
so no update's pencil is degenerate, and a restart draws randomness only
at its start; it stops on a gain relative to W.  The factors are kept
orthonormal, so the core update is a standard eigenproblem, and no
update builds a Jacobian (see :func:`seesaw_minimize`).  A cut target,
such as (1, 2, 2) on qubits (the bi-separable states across one cut),
runs the dedicated loop :func:`_cut_seesaw`.  A negative enough final
value yields a violation certificate; anything else is reported as "no
violation found", which is deliberately not a positivity proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimMismatch
from .linalg import DEFAULT_TOL, Tolerance, _eigh, _frobenius, _qr, _whitening, hermitize
from .linalg import min_gen_eig  # noqa: F401  (the see-saw no longer calls it; bench/selftest reads search.min_gen_eig)
from .schmidt import PosTriple, _triple, sr_leq, triple_leq
from .tensor import TriDims, TriOperator, TriVector


@dataclass(frozen=True)
class SeesawConfig:
    restarts: int = 20
    max_sweeps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_sweeps < 1:
            raise ValueError("restarts and max_sweeps must be >= 1")


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
    ``rejected`` by the step guard.  ``value`` is the quotient of ``xi``.
    ``sweeps`` is the number of sweeps run, and ``converged`` is False when
    the run stopped at ``max_sweeps`` with its last sweep still gaining at
    least the threshold relative to ||W||_F of :func:`seesaw_minimize`.
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

    def __init__(self, wmat: np.ndarray, xi: np.ndarray):
        self.value = float(np.vdot(xi, wmat @ xi).real / np.vdot(xi, xi).real)
        self.trace, self.rejected = [], 0

    def keep(self, x: np.ndarray, reduced: np.ndarray, norm_sq: float) -> bool:
        """Record a step; keep it only if its candidate xi's quotient Re(x* R x) / ||xi||^2 does not go up.

        R is a ``reduced`` matrix the step holds, with x* R x = <xi|W|xi>,
        and ``norm_sq`` = ||xi||^2 is taken from xi itself.  The whitening
        floor can clip near-null directions and jitter the eigenvalue, so the
        guard is the candidate's own quotient, never an eigenvalue.
        """
        cand_value = float(np.vdot(x, reduced @ x).real / norm_sq)
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
    return _qr(_draw_complex(rng, (n, k)))[0]


def _assemble(u, v, w, core) -> np.ndarray:
    return np.einsum("xi,yj,zk,ijk->xyz", u, v, w, core).ravel()


def _fit_target(target, dims: TriDims) -> PosTriple:
    """The target rank triplet as integers: ValueError unless it has three
    integral entries, DimMismatch unless 1 <= target <= dims."""
    t = PosTriple(*_triple(target))
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
    convergence_eps: float = 1e-10,
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
    Each step is kept only if the candidate xi's quotient <xi|W|xi>/<xi|xi>
    does not increase.  It is read from the reduced matrix the step solved
    (:meth:`_Record.keep`), as Re(y* R y) / ||xi||^2, R the factor step's
    (d k) x (d k) matrix or the core step's J* W J, y its eigenvector and
    the norm that of xi itself, so no step multiplies by W.  The objective
    is non-increasing by construction, and ``rng`` is read only for the
    start.  The vector is never zero (a kept candidate has a finite
    quotient) and, the free factors being orthonormal, the rest of the
    network carries its norm; with ``psd_abs < 1`` no Gram matrix is then
    degenerate.  The value is the quotient of the returned vector.

    A cut target, whose one factor narrower than its mode has rank one,
    runs :func:`_cut_seesaw` instead, chosen from the target and dims
    alone; every other target runs the general loop above.  Both stop after
    the first sweep that gains less than ``convergence_eps`` times the least
    power of two above ||W||_F, so a power-of-two multiple of W runs the
    same sweeps to the same vector.  ``convergence_eps`` is a parameter only
    because ``bench/tracing.py`` reads it by name.
    """
    wmat = hermitize(wmat, tol)
    threshold = math.ldexp(convergence_eps, math.frexp(_frobenius(wmat))[1])
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
        return _cut_seesaw(wmat, shape, free[0], factors[free[0]], core, max_sweeps, threshold)

    def set_factor(mode, x) -> None:
        """Store ``x = q r`` as its orthonormal ``q`` and push ``r`` into the core; xi is unchanged."""
        nonlocal core
        factors[mode], r = _qr(x)
        core = _mode_product(r, core, mode)

    # gauge each free factor; its axis order with its mode first, and W permuted to it on both sides
    orders, wfirst = {}, {}
    for mode in free:
        set_factor(mode, factors[mode])
        orders[mode] = [mode] + [other for other in range(3) if other != mode]
        axes = orders[mode] + [3 + other for other in orders[mode]]
        wfirst[mode] = wmat.reshape(shape * 2).transpose(axes).reshape(n, n)

    def assemble(t):
        for mode in free:
            t = _mode_product(factors[mode], t, mode)
        return t.reshape(-1)

    def factor_step(mode) -> None:
        """Minimize over factor ``mode`` and keep the step under the step rule."""
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
        reduced = reduced.reshape(d * k, d * k)
        y = _eigh(reduced)[1][:, 0]
        xi = y.reshape(d, k) @ t.T
        if record.keep(y, reduced, np.vdot(xi, xi).real):
            set_factor(mode, y.reshape(d, k) @ s.T)

    def core_step() -> None:
        """Minimize over the core and keep the step under the step rule."""
        nonlocal core
        t = wmat.reshape(shape + (n,))
        for mode in free:
            t = _mode_product(factors[mode].conj().T, t, mode)
        t = t.reshape(m, n).conj().T.reshape(shape + (m,))
        for mode in free:
            t = _mode_product(factors[mode].conj().T, t, mode)
        reduced = t.reshape(m, m)
        y = _eigh(reduced)[1][:, 0]
        xi = assemble(y.reshape(ranks))
        if record.keep(y, reduced, np.vdot(xi, xi).real):
            core = y.reshape(ranks)

    record = _Record(wmat, assemble(core))
    sweeps, converged = 0, False
    while sweeps < max_sweeps and not converged:
        sweeps += 1
        sweep_start = record.value
        for mode in free:
            factor_step(mode)
        core_step()
        converged = sweep_start - record.value < threshold
    return record.run(assemble(core), sweeps, converged)


def _cut_seesaw(wmat, shape, mode, u, core, max_sweeps, threshold) -> SeesawRun:
    """The see-saw of :func:`seesaw_minimize` on a cut target, where only ``mode`` is free, at rank one.

    In the free mode's first order the vector is u (x) c, u the factor
    ``u`` of that mode and c the flattened ``core`` (the other two modes,
    absorbed).  W, with the free mode first on both sides, is reshaped once
    per restart into ``w_u`` (d^2 x r^2) and ``w_c`` (r^2 x d^2), so a
    step's reduced matrix is one product of one of them with the outer
    product of the other block, then one eigensolve: no Gram eigensolve,
    mode products or permuted copies.  u is kept a unit vector and c
    carries the norm, so the c step is a standard eigenproblem.  The u
    step's Gram matrix is ||c||^2, which is never zero, so
    :func:`_whitening` would keep it at any ``psd_abs < 1``; the step
    divides c by ||c|| instead.  The u candidate y (x) c is valued as
    Re(c* M c) / (||y||^2 ||c||^2) through M = (y (x) I)* W (y (x) I), the
    matrix the next c step solves if the u step is kept, and the c candidate
    through the M its step solved: a sweep builds two reduced matrices and
    runs two eigensolves.  The loop keeps the general loop's draws, entry
    gate, step guard, gauge and counts, and reaches the same iterates.
    """
    d = shape[mode]
    r = wmat.shape[0] // d
    order = [mode] + [other for other in range(3) if other != mode]
    w4 = wmat.reshape(shape * 2).transpose(order + [3 + other for other in order]).reshape(d, r, d, r)
    w_u = w4.transpose(0, 2, 1, 3).reshape(d * d, r * r)
    w_c = w4.transpose(1, 3, 0, 2).reshape(r * r, d * d)

    # u is stored as a unit vector and its norm pushed into c; xi is unchanged
    u = u.reshape(d)
    norm = math.sqrt(np.vdot(u, u).real)
    u, c = u / norm, core.reshape(r) * norm
    record = _Record(w4.reshape(d * r, d * r), (u[:, None] * c).reshape(-1))
    reduced = (w_c @ (u.conj()[:, None] * u).reshape(-1)).reshape(r, r)
    sweeps, converged = 0, False
    while sweeps < max_sweeps and not converged:
        sweeps += 1
        sweep_start = record.value
        y = _eigh((w_u @ (c.conj()[:, None] * c).reshape(-1)).reshape(d, d))[1][:, 0]
        cand = (w_c @ (y.conj()[:, None] * y).reshape(-1)).reshape(r, r)
        c_sq = np.vdot(c, c).real
        if record.keep(c, cand, np.vdot(y, y).real * c_sq):
            u, reduced, c = y, cand, c / math.sqrt(c_sq)
        y = _eigh(reduced)[1][:, 0]
        if record.keep(y, reduced, np.vdot(u, u).real * np.vdot(y, y).real):
            c = y
        converged = sweep_start - record.value < threshold
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
    scale = _frobenius(wmat)
    restarts = 1 if target == w.dims.as_tuple() else cfg.restarts
    best: SeesawRun | None = None
    for restart in range(restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        run = seesaw_minimize(wmat, w.dims, target, rng, cfg.max_sweeps, tol=tol)
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
