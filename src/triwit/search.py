"""Rank-constrained state sampling and see-saw block-positivity search.

The see-saw minimizes <xi|W|xi> over unit vectors whose rank triplet is
bounded by a target.  The vector is parameterized by three factor blocks
and a core; with all other blocks frozen, the vector is linear in the
free block, so each update is an exact eigenproblem and the objective
never increases.  The factors are kept orthonormal, and a factor update
QR-gauges the core first, so the rest of the network around the block
being solved is orthonormal and every update is a standard eigenproblem,
solved by :func:`linalg._least`: no update whitens a Gram matrix or
builds a Jacobian (see :func:`_tucker_seesaw`).  Each reduced matrix is
two matrix products, the core update's from the environment of the
sweep's last factor update, so a sweep reads W once per free factor.  A
search gates W and lays it out once for all its restarts; a restart
draws randomness only at its start, and stops on a gain relative to W.
A cut target, such as (1, 2, 2) on qubits (the bi-separable states
across one cut), runs :func:`_cut_seesaw`, which holds W flat in 2-D for
BLAS and picks each step's solver once, a qubit factor step's in closed
form.  A negative enough final value yields a violation certificate;
anything else is "no violation found", deliberately not a positivity proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimMismatch
from .linalg import DEFAULT_TOL, Tolerance, _frobenius, _least, _least_solver, _qr, hermitize
from .linalg import min_gen_eig  # noqa: F401  (the see-saw no longer calls it; bench/selftest reads search.min_gen_eig)
from .schmidt import PosTriple, _triple, sr_leq, triple_leq
from .tensor import TriDims, TriOperator, TriVector, _check_count


@dataclass(frozen=True)
class SeesawConfig:
    restarts: int = 20
    max_sweeps: int = 200
    seed: int = 0

    def __post_init__(self):
        # checked here, not partway through a search
        for name, least in (("restarts", 1), ("max_sweeps", 1), ("seed", 0)):
            _check_count(name, getattr(self, name), least)


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
    ``rejected`` by the step guard.  ``xi`` is unit by construction and is
    not renormalised, and ``value`` is <xi|W|xi>.  ``sweeps`` is the number
    of sweeps run, and ``converged`` is False when the run stopped at
    ``max_sweeps`` with its last sweep still gaining at least the threshold
    relative to ||W||_F of :func:`seesaw_minimize`; target == dims converges
    in its one sweep.
    """

    value: float
    xi: np.ndarray
    objective_trace: list[float]
    sweeps: int
    converged: bool
    rejected: int


class _Record:
    """A restart's value, trace and rejected steps under the step rule both see-saw loops share;
    xi is unit by construction and is not renormalised."""

    __slots__ = ("value", "trace", "rejected")

    def __init__(self, wmat: np.ndarray, xi: np.ndarray):
        self.value = float(np.vdot(xi, wmat @ xi).real)
        self.trace, self.rejected = [], 0

    def keep(self, cand_value: float) -> bool:
        """Record a step; keep it only if its candidate's value ``cand_value`` does not go up."""
        kept = cand_value <= self.value
        if kept:
            self.value = cand_value
        else:
            self.rejected += 1
        self.trace.append(self.value)
        return kept

    def run(self, xi: np.ndarray, sweeps: int, converged: bool) -> SeesawRun:
        return SeesawRun(
            value=self.value, xi=xi, objective_trace=self.trace,
            sweeps=sweeps, converged=converged, rejected=self.rejected,
        )


def _draw_complex(rng: np.random.Generator, *shapes) -> list[np.ndarray]:
    """Complex blocks of ``shapes``, each real part then imaginary part, drawn in that order by one
    ``standard_normal`` call, which reads the stream and gives the numbers of one call per part; each
    block is set through its ``.real`` and ``.imag`` (re + 1j * im, but a drawn zero keeps its sign)."""
    sizes = [math.prod(shape) for shape in shapes]
    draws = rng.standard_normal(2 * sum(sizes))
    out, blocks, at = np.empty(sum(sizes), dtype=complex), [], 0
    for shape, size in zip(shapes, sizes):
        block = out[at : at + size]
        block.real, block.imag = draws[2 * at : 2 * at + size], draws[2 * at + size : 2 * (at + size)]
        blocks.append(block.reshape(shape))
        at += size
    return blocks


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
    *factors, core = _draw_complex(rng, (a, p), (b, q), (c, r), (p, q, r))
    data = _assemble(*(_qr(f)[0] for f in factors), core)
    return TriVector(dims, data / np.linalg.norm(data))


def sample_state(dims: TriDims, target, n_terms: int, rng: np.random.Generator) -> TriOperator:
    """Unit-trace mixture of projectors onto sampled rank-bounded vectors."""
    _check_count("n_terms", n_terms, 1)
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


def _apply(mats, t: np.ndarray) -> np.ndarray:
    """Apply ``mats[axis]`` to each leading axis of ``t`` by :func:`_mode_product`; None is the identity."""
    for axis, mat in enumerate(mats):
        if mat is not None:
            t = _mode_product(mat, t, axis)
    return t


def _sandwich(env: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(I (x) t)* env (I (x) t), ``t`` acting on the trailing axis of ``env``'s rows and columns, by two matrix
    products: t* on each block of rows, then t on the flattened result, so no operand is transposed."""
    p, k = t.shape
    d = env.shape[0] // p
    return ((t.conj().T @ env.reshape(d, p, -1)).reshape(-1, p) @ t).reshape(d * k, -1)


class _Witness:
    """A gated W prepared for one target: all that a see-saw restart reads of W, the dims and the target
    alone, built once per search and shared by its restarts (see :func:`seesaw_minimize`)."""

    def __init__(self, wmat: np.ndarray, dims: TriDims, ranks: PosTriple):
        self.wmat, self.dims, self.ranks, self.shape = wmat, dims, ranks, dims.as_tuple()
        self.scale = _frobenius(wmat)
        self.exponent = math.frexp(self.scale)[1]
        shape, n = self.shape, dims.total
        self.draws = (*zip(shape, ranks), tuple(ranks))
        free = self.free = [mode for mode in range(3) if ranks[mode] < shape[mode]]
        self.cut = len(free) == 1 and ranks[free[0]] == 1
        if self.cut:
            # W with the free mode first, flat in 2-D as _cut_seesaw reads it, and the order that puts xi's axes back
            d, r = shape[free[0]], n // shape[free[0]]
            order = free + [other for other in range(3) if other != free[0]]
            w4 = wmat.reshape(shape * 2).transpose(order + [3 + other for other in order]).reshape(d, r, d, r)
            self.w_cut = w4.reshape(n, n)
            self.w_u = w4.transpose(0, 2, 1, 3).reshape(d * d * r, r)
            self.w_c = w4.transpose(1, 3, 0, 2).reshape(r * r * d, d)
            self.cut_shape, self.cut_inverse = [shape[axis] for axis in order], [order.index(axis) for axis in range(3)]
            self.solve_u, self.solve_c = _least_solver(d), _least_solver(r)
            return
        # each mode's axis order: it, its saturated neighbours (open axes of every step), its free ones, and W
        # in each free mode's order; the core step's order is the last factor step's open axes, then its mode
        orders = self.orders = [[m] + sorted((o for o in range(3) if o != m), key=free.__contains__) for m in range(3)]
        self.inverses = [[order.index(axis) for axis in range(3)] for order in orders]
        self.neighbours = [[axis for axis in order[1:] if axis in free] for order in orders]
        axes = {mode: orders[mode] + [3 + o for o in orders[mode]] for mode in free}
        self.wfirst = {mode: wmat.reshape(shape * 2).transpose(axes[mode]).reshape(n, n) for mode in free}
        last = self.last = free[-1] if free else 0
        self.core_order = orders[last][1:] + [last] if free else [0, 1, 2]
        self.core_inverse = [self.core_order.index(axis) for axis in range(3)]


def seesaw_minimize(
    wmat: np.ndarray | _Witness,
    dims: TriDims,
    target,
    rng: np.random.Generator,
    max_sweeps: int = SeesawConfig.max_sweeps,
    convergence_eps: float = 1e-10,
    tol: Tolerance = DEFAULT_TOL,
) -> SeesawRun:
    """One see-saw descent from a random start.

    ``wmat`` is a matrix, gated at entry by :func:`hermitize` (NotHermitian
    for a non-Hermitian or non-finite one), or the witness that
    :func:`violation_search` prepares from its gated W once for all its
    restarts.  ``target`` must satisfy ``1 <= target <= dims``, and match a
    prepared witness's dims and target (else DimMismatch).  ``rng`` is read
    only for the start, by one call of :func:`_draw_complex`, and ``tol``
    only by the entry gate, which a prepared witness has passed.  A factor
    as wide as its mode is drawn, absorbed into the core and fixed.  A cut
    target, whose one factor narrower than its mode has rank one, runs
    :func:`_cut_seesaw`, chosen from the target and dims alone; every other
    target runs :func:`_tucker_seesaw`, and target == dims stops there after
    one core update, at the least eigenvalue of ``wmat``.  Both loops stop
    after the first sweep that gains less than ``convergence_eps`` times the
    least power of two above ||W||_F, so a power-of-two multiple of W runs
    the same sweeps to the same vector.  The objective is non-increasing, and
    the value is <xi|W|xi> of the returned unit vector.  ``convergence_eps``
    is a parameter only because ``bench/tracing.py`` reads it by name.
    """
    if isinstance(wmat, _Witness):
        if (dims, tuple(target)) != (wmat.dims, wmat.ranks):
            raise DimMismatch(f"prepared for {wmat.shape} and {tuple(wmat.ranks)}, not {dims} and {tuple(target)}")
        prep = wmat
    else:
        prep = _Witness(hermitize(wmat, tol), dims, _fit_target(target, dims))
    threshold = math.ldexp(convergence_eps, prep.exponent)
    *factors, core = _draw_complex(rng, *prep.draws)
    # a factor as wide as its mode spans it: absorb it into the core and hold
    # it at the identity (None), which leaves the reachable cone as it is
    for mode in range(3):
        if mode not in prep.free:
            core = _mode_product(factors[mode], core, mode)
            factors[mode] = None
    if prep.cut:
        return _cut_seesaw(prep, factors[prep.free[0]], core, max_sweeps, threshold)
    return _tucker_seesaw(prep, factors, core, max_sweeps, threshold)


def _tucker_seesaw(prep: _Witness, factors, core, max_sweeps, threshold) -> SeesawRun:
    """The see-saw of :func:`seesaw_minimize` on every target that is not a cut.

    The vector is the ``core`` multiplied by one factor per mode, the
    ``factors`` as wide as their mode absorbed into the core and held at the
    identity (None), so each sweep updates only the factors narrower than
    their mode, then the core.  The free factors are kept orthonormal: after
    every accepted factor step the factor's QR triangle is pushed into the
    core, which leaves the vector as it is; the start core is scaled to a
    unit vector.  A factor step first QR-gauges the core, the mirror image
    of that push: the core's unfolding at the factor's mode is r.T q.T, and
    q.T, with orthonormal rows, stands in for the core, r.T going into the
    factor that the step solves for anyway.  The rest of the network (G, the
    gauged core, times K, the Kronecker product of the free neighbours'
    factors) then has orthonormal rows, so the step is one standard
    eigenproblem of W, axes ordered mode, saturated neighbours, free ones,
    contracted with the rest by :func:`_sandwich`.  The sweep's last factor
    step first contracts W into its environment B = (I (x) K)* W (I (x) K),
    saturated neighbours left open, and solves (I (x) G)* B (I (x) G); the
    core step then solves (F (x) I)* B (F (x) I), F the factor that step
    left, since neither step changes K.  So a sweep reads W once per free
    factor; only target == dims has the core step solve W itself, and stops
    after that one sweep.  A factor of rank above the product of the other
    two ranks narrows to that product, which bounds every vector's rank at
    its mode anyway.  Each step solves its reduced matrix with
    :func:`linalg._least`, and is kept only if the candidate unit xi's value
    <xi|W|xi> does not increase: every other block being orthonormal, that
    value is the reduced matrix's least value, so no step multiplies by W or
    assembles xi.
    """
    shape, free, last = prep.shape, prep.free, prep.last
    for mode in free:
        factors[mode], r = _qr(factors[mode])
        core = _mode_product(r, core, mode)
    core = core / math.sqrt(np.vdot(core, core).real)
    record = _Record(prep.wmat, _apply(factors, core).reshape(-1))
    env, sweeps, converged = prep.wmat, 0, False
    while sweeps < max_sweeps and not converged:
        sweeps += 1
        sweep_start = record.value
        for mode in free:
            first = core.transpose(prep.orders[mode])
            # the unfolding is r.T q.T and q.T the gauged core; r.T is never
            # stored, since a kept step replaces the factor and a rejected one
            # leaves the core and the factor as they were
            q = _qr(first.reshape(first.shape[0], -1).T)[0]
            # K, the Kronecker product of the free neighbours' factors; q's saturated axes stay open
            kron = None
            for f in [factors[axis] for axis in prep.neighbours[mode]]:
                kron = f if kron is None else (kron[:, None, :, None] * f[None, :, None, :]).reshape(
                    kron.shape[0] * f.shape[0], -1)
            env, rest = prep.wfirst[mode], q
            if mode != last:
                rest = (kron @ q.reshape(-1, kron.shape[1], q.shape[1])).reshape(-1, q.shape[1])
            elif kron is not None:
                env = _sandwich(env, kron)
            y, value = _least(_sandwich(env, rest))
            if record.keep(value):
                core = q.T.reshape((q.shape[1],) + first.shape[1:]).transpose(prep.inverses[mode])
                factors[mode], r = _qr(y.reshape(shape[mode], -1))
                core = _mode_product(r, core, mode)
        # the core step, from the last factor step's environment, or from W when no factor is free
        if free:
            d, p = shape[last], env.shape[0] // shape[last]
            env = _sandwich(env.reshape(d, p, d, p).transpose(1, 0, 3, 2).reshape(env.shape), factors[last])
        y, value = _least(env)
        if record.keep(value):
            core = y.reshape(core.transpose(prep.core_order).shape).transpose(prep.core_inverse)
        converged = not free or sweep_start - record.value < threshold
    return record.run(_apply(factors, core).reshape(-1), sweeps, converged)


def _cut_seesaw(prep: _Witness, u, core, max_sweeps, threshold) -> SeesawRun:
    """The see-saw of :func:`seesaw_minimize` on a cut target, where only one mode is free, at rank one.

    In the free mode's first order the vector is u (x) c, u the factor ``u``
    of that mode and c the flattened ``core`` (the other two modes,
    absorbed).  ``prep`` holds W, with the free mode first on both sides, in
    the 2-D ``w_u`` (d d r x r) and ``w_c`` (r r d x d), so a step's reduced
    matrix, M_u(c) = (I (x) c)* W (I (x) c) or M_c(u), is two BLAS
    matrix-vector calls into buffers made once a restart, where 4-D blocks
    cost a numpy loop over d d (or r r) tiny products.  u and c start as
    unit vectors and each step swaps one for a unit eigenvector, so no
    reduced matrix exceeds ||W||, and each step is the standard eigenproblem
    of :func:`linalg._least`, solved by the solver ``prep`` picked for its
    size (a qubit u step, d = 2, in closed form).  Each candidate is
    valued on the matrix its step solved, y (x) c as the least value of
    M_u(c), and M_c is built once a sweep, for the u the u step leaves.
    The loop keeps :func:`_tucker_seesaw`'s draws, entry gate, step guard and
    counts, and reaches its iterates up to rounding and the phase of u.
    """
    w_u, w_c, solve_u, solve_c = prep.w_u, prep.w_c, prep.solve_u, prep.solve_c
    d, r = w_c.shape[1], w_u.shape[1]
    u = u.reshape(d) / math.sqrt(np.vdot(u, u).real)
    c = core.reshape(r) / math.sqrt(np.vdot(core, core).real)
    record = _Record(prep.w_cut, (u[:, None] * c).reshape(-1))
    wc, cbar, m_u, wu, ubar, m_c = (np.empty(s, complex) for s in ((d * d, r), r, (d, d), (r * r, d), d, (r, r)))
    wc_out, mu_out, wu_out, mc_out = wc.reshape(-1), m_u.reshape(-1), wu.reshape(-1), m_c.reshape(-1)
    sweeps, converged = 0, False
    while sweeps < max_sweeps and not converged:
        sweeps += 1
        sweep_start = record.value
        w_u.dot(c, wc_out)
        wc.dot(np.conjugate(c, cbar), mu_out)
        y, value = solve_u(m_u)
        if record.keep(value):
            u = y
        w_c.dot(u, wu_out)
        wu.dot(np.conjugate(u, ubar), mc_out)
        y, value = solve_c(m_c)
        if record.keep(value):
            c = y
        converged = sweep_start - record.value < threshold
    xi = (u[:, None] * c).reshape(prep.cut_shape).transpose(prep.cut_inverse).reshape(-1)
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
    prepared = _Witness(wmat, w.dims, target)
    restarts = 1 if target == w.dims.as_tuple() else cfg.restarts
    best: SeesawRun | None = None
    for restart in range(restarts):
        rng = np.random.Generator(np.random.PCG64(int(cfg.seed) + restart))  # default_rng's stream; int(): no wrap
        run = seesaw_minimize(prepared, w.dims, target, rng, cfg.max_sweeps, tol=tol)
        if best is None or run.value < best.value:
            best = run
    xi = TriVector(w.dims, best.xi)
    value = float((best.xi.conj() @ wmat @ best.xi).real)
    if value < -tol.ineq_abs * prepared.scale:
        if not sr_leq(xi, target, tol):
            raise ConsistencyError("candidate violates its own rank-triplet bound")
        if abs(xi.norm() - 1.0) > 1e-9:
            raise ConsistencyError("candidate is not unit norm")
        return ViolationCertificate(xi=xi, value=value, target=target)
    return NoViolation(best_value=value, best_xi=xi)
