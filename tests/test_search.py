import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from triwit import (
    ALL_PERMUTATIONS,
    BiLinearMap,
    DimMismatch,
    NoViolation,
    NotHermitian,
    QubitWitnessParams,
    SchmidtRank,
    SeesawConfig,
    SeesawRun,
    TriDims,
    TriOperator,
    TriVector,
    ViolationCertificate,
    check_pair_class,
    family_choi,
    flip,
    genuine_witness,
    hermitian_eig,
    pair,
    permute_dual,
    sample_sr_vector,
    sample_state,
    schmidt_rank,
    seesaw_minimize,
    sr_leq,
    violation_search,
)
from triwit import linalg
from triwit import search
from triwit.linalg import DEFAULT_TOL, Tolerance, _frobenius, hermitize, min_gen_eig
from triwit.search import _assemble, _mode_product, _sandwich

QUBITS = TriDims(2, 2, 2)


def _rand_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def _witness_matrix(s=1.0):
    return family_choi(genuine_witness(s)).choi


def test_seesaw_config_validation():
    with pytest.raises(ValueError):
        SeesawConfig(restarts=0)
    with pytest.raises(ValueError):
        SeesawConfig(max_sweeps=0)


@pytest.mark.parametrize(
    "field,value",
    [
        # accepted before and then failed late: range() raised TypeError after the gate, numpy rejected the
        # seed partway through the search, and 1.5 sweeps ran 2
        ("restarts", 2.5),
        ("seed", -1),
        ("max_sweeps", 1.5),
        ("restarts", True),
        ("max_sweeps", True),
        ("seed", False),
        ("seed", 3.0),
        ("restarts", "3"),
    ],
)
def test_seesaw_config_rejects_bad_values_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        SeesawConfig(**{field: value})


@pytest.mark.parametrize("seed", [5, 255])
def test_seesaw_config_takes_numpy_integers(seed):
    # restart seeds count on from the seed as Python integers, so a uint8 seed
    # of 255 gives restarts 255, 256 and 257, not 255, 0 and 1
    cfg = SeesawConfig(restarts=np.int64(3), max_sweeps=np.int32(3), seed=np.uint8(seed))
    out = violation_search(_witness_matrix(), (1, 2, 2), cfg)
    plain = violation_search(_witness_matrix(), (1, 2, 2), SeesawConfig(restarts=3, max_sweeps=3, seed=seed))
    assert out.best_value == plain.best_value
    np.testing.assert_array_equal(out.best_xi.data, plain.best_xi.data)


def test_sample_product_vector():
    rng = np.random.default_rng(70)
    xi = sample_sr_vector(QUBITS, (1, 1, 1), rng)
    assert abs(xi.norm() - 1.0) <= 1e-12
    assert schmidt_rank(xi) == SchmidtRank(1, 1, 1)


def test_sample_generic_full_rank():
    rng = np.random.default_rng(71)
    for _ in range(20):
        xi = sample_sr_vector(QUBITS, (2, 2, 2), rng)
        assert schmidt_rank(xi) == SchmidtRank(2, 2, 2)


def test_sample_alpha_one_forces_equal_tail():
    rng = np.random.default_rng(72)
    for _ in range(1000):
        xi = sample_sr_vector(QUBITS, (1, 2, 2), rng)
        rank = schmidt_rank(xi)
        assert sr_leq(xi, (1, 2, 2))
        assert rank.alpha == 1
        assert rank.beta == rank.gamma


def test_sample_rejects_oversized_target():
    rng = np.random.default_rng(73)
    with pytest.raises(DimMismatch):
        sample_sr_vector(QUBITS, (3, 2, 2), rng)


@pytest.mark.parametrize("target", [(0, 2, 2), (3, 3, 3)])
def test_violation_search_rejects_target_outside_dims(target):
    w = family_choi(genuine_witness(1.0)).choi
    with pytest.raises(DimMismatch):
        violation_search(w, target, SeesawConfig(restarts=1, max_sweeps=2))


@pytest.mark.parametrize("target", [(0, 2, 2), (3, 2, 2)])
def test_seesaw_minimize_rejects_target_outside_dims(target):
    wmat = _rand_hermitian(np.random.default_rng(77), 8)
    with pytest.raises(DimMismatch):
        seesaw_minimize(wmat, QUBITS, target, np.random.default_rng(0), max_sweeps=2)


@pytest.mark.parametrize("target", [(1.9, 2, 2), (2, 2), (1, 2, 2, 2)])
def test_targets_need_three_integral_entries(target):
    # (1.9, 2, 2) is not searched as (1, 2, 2), and a missing or extra entry is a ValueError too
    w = _witness_matrix()
    with pytest.raises(ValueError):
        violation_search(w, target, SeesawConfig(restarts=1, max_sweeps=2))
    with pytest.raises(ValueError):
        seesaw_minimize(w.mat, QUBITS, target, np.random.default_rng(0), max_sweeps=2)
    with pytest.raises(ValueError):
        sample_sr_vector(QUBITS, target, np.random.default_rng(0))
    # integral floats and numpy integers still count
    exact = (1.0, np.int64(2), 2)
    xi = sample_sr_vector(QUBITS, exact, np.random.default_rng(0))
    assert schmidt_rank(xi) == SchmidtRank(1, 2, 2)
    run = seesaw_minimize(w.mat, QUBITS, exact, np.random.default_rng(0), max_sweeps=2)
    assert sr_leq(TriVector(QUBITS, run.xi), (1, 2, 2))


def test_sample_state_pure_product():
    rng = np.random.default_rng(74)
    rho = sample_state(QUBITS, (1, 1, 1), 1, rng)
    w = np.linalg.eigvalsh(rho.mat)
    assert abs(w[-1] - 1.0) <= 1e-12  # rank one, unit trace


def test_sample_state_is_psd_unit_trace():
    rng = np.random.default_rng(75)
    for terms in (1, 3, 7):
        rho = sample_state(TriDims(2, 3, 2), (1, 2, 2), terms, rng)
        w = np.linalg.eigvalsh(rho.mat)
        assert w[0] >= -1e-10
        assert abs(np.trace(rho.mat).real - 1.0) <= 1e-10


def test_sample_state_separable_cut_respects_certified_witness():
    # states built with a rank-one first component pair nonnegatively with
    # any family member certified for the matching class
    rng = np.random.default_rng(76)
    p = QubitWitnessParams(s=(0, 1, 1, 4), t=(0, 1, 1, 1), u=(1, 1, 1, 1))
    assert check_pair_class(p, (1, 2, 2))
    phi = family_choi(p)
    for _ in range(200):
        rho = sample_state(QUBITS, (1, 2, 2), int(rng.integers(1, 5)), rng)
        assert pair(rho, phi).real >= -1e-8


def test_violation_search_unconstrained_reaches_least_eigenvalue():
    w = _witness_matrix()
    out = violation_search(w, (2, 2, 2), SeesawConfig(restarts=20, seed=1))
    assert isinstance(out, ViolationCertificate)
    least = hermitian_eig(w.mat)[0][0]
    assert abs(out.value - least) <= 1e-9
    assert abs(out.value + 1.0) <= 1e-9


def test_violation_search_certified_class_finds_nothing():
    w = _witness_matrix()
    out = violation_search(w, (1, 2, 2), SeesawConfig(restarts=20, seed=2))
    assert isinstance(out, NoViolation)
    assert out.best_value >= -1e-6


def test_violation_search_negative_identity():
    neg = TriOperator(QUBITS, -np.eye(8))
    out = violation_search(neg, (1, 1, 1), SeesawConfig(restarts=3, seed=3))
    assert isinstance(out, ViolationCertificate)
    assert abs(out.value + 1.0) <= 1e-9


def test_violation_search_rejects_non_hermitian():
    bad = TriOperator(QUBITS, np.triu(np.ones((8, 8))))
    with pytest.raises(NotHermitian):
        violation_search(bad, (1, 1, 1))


def test_certificate_revalidates():
    w = _witness_matrix()
    out = violation_search(w, (2, 2, 2), SeesawConfig(restarts=5, seed=4))
    assert isinstance(out, ViolationCertificate)
    assert sr_leq(out.xi, out.target)
    assert abs(out.xi.norm() - 1.0) <= 1e-9
    revalue = (out.xi.data.conj() @ w.mat @ out.xi.data).real
    assert abs(revalue - out.value) <= 1e-9 * np.linalg.norm(w.mat)


def test_seesaw_objective_trace_monotone():
    for seed in range(8):
        wmat = _rand_hermitian(np.random.default_rng(100 + seed), 8)
        run = seesaw_minimize(wmat, QUBITS, (1, 2, 2), np.random.default_rng(seed))
        assert isinstance(run, SeesawRun)
        trace = np.array(run.objective_trace)
        assert trace.size >= 4
        assert np.all(np.diff(trace) <= 1e-12)


def test_search_cone_monotonicity():
    # bigger targets allow smaller minima
    chain = ((1, 1, 1), (1, 2, 2), (2, 2, 2))
    for seed in range(5):
        wmat = _rand_hermitian(np.random.default_rng(200 + seed), 8)
        w = TriOperator(QUBITS, wmat)
        values = {}
        for t in chain:
            out = violation_search(w, t, SeesawConfig(restarts=20, seed=5))
            values[t] = out.value if isinstance(out, ViolationCertificate) else out.best_value
        assert values[(1, 1, 1)] >= values[(1, 2, 2)] - 1e-8
        assert values[(1, 2, 2)] >= values[(2, 2, 2)] - 1e-8


def test_search_deterministic_for_fixed_seed():
    w = _witness_matrix()
    cfg = SeesawConfig(restarts=4, seed=11)
    a = violation_search(w, (2, 2, 2), cfg)
    b = violation_search(w, (2, 2, 2), cfg)
    assert a.value == b.value
    np.testing.assert_array_equal(a.xi.data, b.xi.data)


def _eye_product_jacobian(name, u, v, w, core):
    """Reference: each factor block's Jacobian as an identity product."""
    a, p = u.shape
    b, q = v.shape
    c, r = w.shape
    if name == "u":
        return np.einsum(
            "xw,yzi->xyzwi", np.eye(a), np.einsum("ijk,yj,zk->yzi", core, v, w)
        ).reshape(a * b * c, a * p)
    if name == "v":
        return np.einsum(
            "yw,xzj->xyzwj", np.eye(b), np.einsum("xi,ijk,zk->xzj", u, core, w)
        ).reshape(a * b * c, b * q)
    if name == "w":
        return np.einsum(
            "zw,xyk->xyzwk", np.eye(c), np.einsum("xi,ijk,yj->xyk", u, core, v)
        ).reshape(a * b * c, c * r)
    return np.einsum("xi,yj,zk->xyzijk", u, v, w).reshape(a * b * c, p * q * r)


@pytest.mark.parametrize("dims,target", [((2, 2, 2), (1, 2, 2)), ((6, 6, 6), (3, 3, 3))])
def test_block_jacobian_matches_eye_products(dims, target):
    # the reference Jacobian of each block maps that block to the vector the
    # engine builds, by mode products of the factors into the core
    rng = np.random.default_rng(80)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    (a, b, c), (p, q, r) = dims, target
    blocks = (draw((a, p)), draw((b, q)), draw((c, r)), draw((p, q, r)))
    xi = blocks[3]
    for mode in range(3):
        xi = _mode_product(blocks[mode], xi, mode)
    xi = xi.reshape(-1)
    atol = 1e-12 * np.linalg.norm(xi)
    np.testing.assert_allclose(_assemble(*blocks), xi, rtol=0, atol=atol)
    for name, block in zip(("u", "v", "w", "core"), blocks):
        np.testing.assert_allclose(_eye_product_jacobian(name, *blocks) @ block.reshape(-1), xi, rtol=0, atol=atol)


@pytest.mark.parametrize("d,p,k", [(6, 36, 3), (3, 5, 5), (4, 1, 1), (2, 7, 3)])
def test_sandwich_matches_kron(d, p, k):
    # (I (x) t)* E (I (x) t), t on the trailing axis of E's rows and columns
    rng = np.random.default_rng([81, d, p, k])
    e = _rand_hermitian(rng, d * p)
    t = rng.standard_normal((p, k)) + 1j * rng.standard_normal((p, k))
    big = np.kron(np.eye(d), t)
    np.testing.assert_allclose(_sandwich(e, t), big.conj().T @ e @ big, rtol=0, atol=1e-13 * np.linalg.norm(e) * np.linalg.norm(t) ** 2)


def test_sandwich_leaves_saturated_axes_open():
    # the see-saw's environment: W with axes (mode, saturated, free) is contracted
    # with the free neighbour's factor only, the saturated axis left open, and
    # with the Kronecker product of two factors on both trailing axes, in order
    rng = np.random.default_rng(82)
    a, s, f = 3, 2, 4
    w = _rand_hermitian(rng, a * s * f)
    u, v = (np.linalg.qr(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))[0] for n in (s, f))
    atol = 1e-13 * np.linalg.norm(w)
    big = np.kron(np.eye(a * s), v)
    np.testing.assert_allclose(_sandwich(w, v), big.conj().T @ w @ big, rtol=0, atol=atol)
    big = np.kron(np.eye(a), np.kron(u, v))
    np.testing.assert_allclose(_sandwich(w, np.kron(u, v)), big.conj().T @ w @ big, rtol=0, atol=atol)


def _reference_seesaw(wmat, dims, target, rng, max_sweeps, eps=1e-10):
    """Reference: the see-saw with explicit Jacobians and generalized eigenproblems.

    It draws from ``rng`` in the engine's order, absorbs full-width factors
    into the core, sweeps the narrower factors and then the core, and keeps
    a step only if the quotient does not increase.  It stops after the first
    sweep that gains less than ``eps`` times the least power of two above
    ||W||_F.  Returns the trace.
    """
    threshold = eps * 2.0 ** math.frexp(np.linalg.norm(wmat))[1]

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    (a, b, c), (p, q, r) = dims, target
    blocks = {"u": draw((a, p)), "v": draw((b, q)), "w": draw((c, r)), "core": draw((p, q, r))}
    sweep = []
    for mode, name in enumerate(("u", "v", "w")):
        d, k = blocks[name].shape
        if k < d:
            sweep.append(name)
            continue
        blocks["core"] = np.moveaxis(np.tensordot(blocks[name], blocks["core"], axes=(1, mode)), 0, mode)
        blocks[name] = np.eye(d)
    sweep.append("core")

    def jacobian(name):
        return _eye_product_jacobian(name, blocks["u"], blocks["v"], blocks["w"], blocks["core"])

    def quotient(xi):
        return (xi.conj() @ wmat @ xi).real / (xi.conj() @ xi).real

    trace = []
    value = quotient(jacobian("core") @ blocks["core"].ravel())
    for _ in range(max_sweeps):
        start = value
        for name in sweep:
            jac = jacobian(name)
            _, z = min_gen_eig(jac.conj().T @ wmat @ jac, jac.conj().T @ jac)
            candidate = quotient(jac @ z)
            if candidate <= value:
                value = candidate
                blocks[name] = (z / np.linalg.norm(z)).reshape(blocks[name].shape)
            trace.append(value)
        if start - value < threshold:
            break
    return trace


@pytest.mark.parametrize(
    "dims,target,max_sweeps",
    [
        ((2, 2, 2), (1, 2, 2), 200),
        ((2, 2, 2), (2, 1, 2), 200),
        ((2, 2, 2), (2, 2, 1), 200),
        ((2, 3, 4), (1, 3, 4), 200),
        ((6, 6, 6), (3, 3, 3), 5),
        # cut targets with the free mode in the middle, last, and next to a mode of size 1
        ((2, 3, 4), (2, 1, 4), 200),
        ((3, 3, 3), (3, 3, 1), 200),
        ((1, 2, 3), (1, 1, 3), 200),
        # not cuts: one free mode of rank 2, two free modes
        ((3, 3, 3), (2, 3, 3), 200),
        ((2, 2, 2), (1, 1, 2), 200),
        # three free modes of rank one, each factor gauged by QR
        ((2, 2, 2), (1, 1, 1), 200),
        ((2, 3, 4), (1, 1, 1), 200),
        # the last free factor's environment: an open saturated neighbour and
        # free ranks above 1, then unequal dims with every mode free
        ((3, 3, 2), (2, 2, 2), 200),
        ((3, 4, 5), (2, 3, 2), 200),
        # a saturated mode between two free ones, an open axis in the middle of
        # every step's order; reduced sizes 8 to 12, then 15 to 27, which
        # linalg._least solves by inverse iteration
        ((4, 3, 5), (2, 3, 2), 200),
        ((5, 3, 5), (3, 3, 3), 200),
        # a factor whose rank exceeds the product of the other two narrows to
        # that product, so the core is narrower than the target there
        ((2, 3, 4), (1, 2, 3), 200),
        ((3, 3, 3), (2, 1, 1), 200),
    ],
)
def test_seesaw_matches_jacobian_reference(dims, target, max_sweeps):
    # the orthonormal gauge and the Jacobian-free steps reach the same
    # iterates, and the returned vector (in W's own order) carries the value
    n = int(np.prod(dims))
    for seed in range(3):
        wmat = _rand_hermitian(np.random.default_rng(340 + seed), n)
        run = seesaw_minimize(wmat, TriDims(*dims), target, np.random.default_rng(seed), max_sweeps=max_sweeps)
        ref = _reference_seesaw(wmat, dims, target, np.random.default_rng(seed), max_sweeps)
        atol = 1e-9 * np.linalg.norm(wmat)
        assert len(run.objective_trace) == len(ref)
        np.testing.assert_allclose(run.objective_trace, ref, rtol=0, atol=atol)
        assert abs(np.vdot(run.xi, wmat @ run.xi).real - run.value) <= atol
        assert sr_leq(TriVector(TriDims(*dims), run.xi), target)


@pytest.mark.parametrize("target", [(1, 2, 2), (2, 1, 2), (2, 2, 1)])
def test_seesaw_run_reports_sweeps_and_convergence(target):
    wmat = _rand_hermitian(np.random.default_rng(350), 8)
    one = seesaw_minimize(wmat, QUBITS, target, np.random.default_rng(2), max_sweeps=1)
    assert (one.sweeps, one.converged) == (1, False)
    assert len(one.objective_trace) == 2
    full = seesaw_minimize(wmat, QUBITS, target, np.random.default_rng(2))
    assert full.converged and full.sweeps < SeesawConfig.max_sweeps
    # one update of the rank-one factor and one of the core per sweep
    assert len(full.objective_trace) == 2 * full.sweeps
    assert 0 <= full.rejected <= len(full.objective_trace)


def _start_draws(rng, dims, target) -> None:
    """Draw from ``rng`` exactly what a see-saw restart draws at its start."""
    for shape in [(d, k) for d, k in zip(dims, target)] + [target]:
        rng.standard_normal(shape)
        rng.standard_normal(shape)


# cut targets (one free factor of rank one) and general ones (a free factor
# of rank two, two free factors, three free factors), then a cut target with
# its free mode last on unequal dims, d = 4 and r = 6, whose u step runs _eigh
ENGINE_TARGETS = [
    ((2, 2, 2), (1, 2, 2)),
    ((2, 3, 4), (2, 1, 4)),
    ((3, 3, 3), (2, 3, 3)),
    ((2, 2, 2), (1, 1, 2)),
    ((2, 2, 2), (1, 1, 1)),
    ((2, 3, 4), (2, 3, 1)),
]


@pytest.mark.parametrize("psd_abs", [1e-9, 0.3, 0.999])
@pytest.mark.parametrize("dims,target", ENGINE_TARGETS)
def test_seesaw_value_is_the_quotient_of_xi(dims, target, psd_abs):
    # whatever the floor, the value is that of the returned vector, each
    # sweep updates every free factor and the core once, and a restart
    # draws from its generator only at its start
    n = int(np.prod(dims))
    free = sum(k < d for d, k in zip(dims, target))
    for seed in range(4):
        wmat = _rand_hermitian(np.random.default_rng(360 + seed), n)
        rng = np.random.default_rng(seed)
        run = seesaw_minimize(wmat, TriDims(*dims), target, rng, tol=Tolerance(psd_abs=psd_abs))
        assert abs(np.vdot(run.xi, wmat @ run.xi).real - run.value) <= 1e-12 * np.linalg.norm(wmat)
        assert abs(np.linalg.norm(run.xi) - 1.0) <= 16 * np.finfo(float).eps
        assert len(run.objective_trace) == (free + 1) * run.sweeps
        assert run.objective_trace[-1] == run.value
        replay = np.random.default_rng(seed)
        _start_draws(replay, dims, target)
        assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("dims,target", [((3, 3, 3), (2, 3, 3)), ((6, 6, 6), (3, 3, 3)), ((2, 3, 4), (2, 2, 3))])
def test_psd_abs_does_not_steer_the_search(dims, target):
    # every step solves a standard eigenproblem, the rest of the network kept
    # orthonormal, so no floor drops a direction: psd_abs reaches the search
    # only through the Hermiticity gate, which an exactly Hermitian W passes
    n = int(np.prod(dims))
    for seed in range(3):
        wmat = _rand_hermitian(np.random.default_rng([20, seed]), n)
        runs = [
            seesaw_minimize(
                wmat, TriDims(*dims), target, np.random.default_rng(seed), max_sweeps=20, tol=Tolerance(psd_abs=psd_abs)
            )
            for psd_abs in (1e-9, 0.5)
        ]
        assert runs[0].objective_trace == runs[1].objective_trace
        np.testing.assert_array_equal(runs[0].xi, runs[1].xi)


# sweeps run by three seeded restarts, each on its own random Hermitian: as
# the see-saw ran them when every candidate was valued by a product with W
# and a run stopped on an absolute gain of 1e-10 a sweep, and under the
# default rule, a gain of 1e-10 times the least power of two above ||W||_F
GUARD_PINS = {
    ((2, 2, 2), (1, 2, 2)): (15, 14, 15),
    ((2, 3, 4), (2, 1, 4)): (17, 17, 33),
    ((3, 3, 3), (2, 3, 3)): (19, 33, 23),
    ((2, 2, 2), (1, 1, 2)): (12, 32, 20),
    ((2, 2, 2), (1, 1, 1)): (16, 36, 11),
    ((6, 6, 6), (3, 3, 3)): (173, 186, 92),
    ((2, 3, 4), (2, 3, 1)): (160, 18, 50),
}
DEFAULT_RULE_SWEEPS = {
    ((2, 2, 2), (1, 2, 2)): (14, 13, 13),
    ((2, 3, 4), (2, 1, 4)): (14, 13, 27),
    ((3, 3, 3), (2, 3, 3)): (17, 31, 19),
    ((2, 2, 2), (1, 1, 2)): (11, 29, 19),
    ((2, 2, 2), (1, 1, 1)): (15, 33, 10),
    ((6, 6, 6), (3, 3, 3)): (145, 145, 69),
    ((2, 3, 4), (2, 3, 1)): (157, 15, 45),
}


@pytest.mark.parametrize("dims,target", list(GUARD_PINS))
def test_guard_from_the_reduced_matrix_keeps_the_sweeps(dims, target):
    # the guard reads each candidate's quotient from a reduced matrix its
    # step holds: each restart runs the sweeps it ran when the guard
    # multiplied by W, and the value is still the quotient of the returned
    # vector.  convergence_eps divided by the power of two that the rule
    # multiplies it by gives the absolute threshold 1e-10 those runs stopped on
    n = int(np.prod(dims))
    free = sum(k < d for d, k in zip(dims, target))
    for seed, (sweeps, default_sweeps) in enumerate(zip(GUARD_PINS[dims, target], DEFAULT_RULE_SWEEPS[dims, target])):
        wmat = _rand_hermitian(np.random.default_rng([16, seed]), n)
        eps = 1e-10 * 2.0 ** -math.frexp(_frobenius(wmat))[1]
        run = seesaw_minimize(wmat, TriDims(*dims), target, np.random.default_rng(seed), convergence_eps=eps)
        assert run.converged and run.sweeps == sweeps
        assert len(run.objective_trace) == (free + 1) * sweeps
        assert abs(np.vdot(run.xi, wmat @ run.xi).real - run.value) <= 1e-13 * np.linalg.norm(wmat)
        # the default rule takes the same steps and stops no later
        default = seesaw_minimize(wmat, TriDims(*dims), target, np.random.default_rng(seed))
        assert default.converged and default.sweeps == default_sweeps
        assert default.objective_trace == run.objective_trace[: len(default.objective_trace)]


@pytest.mark.parametrize("index,value", [((0, 0), np.nan), ((1, 1), np.inf), ((0, 3), 1.0)], ids=["nan", "inf", "asymmetric"])
def test_seesaw_minimize_gates_wmat_at_entry(index, value):
    wmat = _rand_hermitian(np.random.default_rng(352), 8)
    wmat[index] += value
    with pytest.raises(NotHermitian):
        seesaw_minimize(wmat, QUBITS, (1, 2, 2), np.random.default_rng(0), max_sweeps=2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_violation_search_rejects_non_finite(value):
    # TriOperator rejects non-finite entries when it is built; one written into
    # its matrix afterwards must still fail the search's own Hermiticity gate
    w = TriOperator(QUBITS, _witness_matrix().mat.copy())
    w.mat[0, 3] = value
    with pytest.raises(NotHermitian):
        violation_search(w, (1, 2, 2), SeesawConfig(restarts=1, max_sweeps=2))


# linalg._eigh tests only its least eigenvalue for NaN, and a NaN on the
# diagonal can leave the others finite, so it takes finite input only: every
# public path into it rejects a NaN diagonal entry before _eigh is reached
NAN_DIAGONAL_PATHS = {
    "hermitian_eig": lambda m: hermitian_eig(m),
    "min_gen_eig": lambda m: min_gen_eig(m, np.eye(8)),
    "min_gen_eig-rhs": lambda m: min_gen_eig(np.eye(8), m),
    "seesaw_minimize-full": lambda m: seesaw_minimize(m, QUBITS, (2, 2, 2), np.random.default_rng(0)),
    "seesaw_minimize-cut": lambda m: seesaw_minimize(m, QUBITS, (1, 2, 2), np.random.default_rng(0)),
    "violation_search": lambda m: violation_search(_nan_operator(m), (1, 1, 2), SeesawConfig(restarts=1)),
}


def _nan_operator(m):
    # TriOperator rejects a non-finite matrix when it is built, so write the NaN in afterwards
    w = TriOperator(QUBITS, np.eye(8, dtype=complex))
    w.mat[...] = m
    return w


@pytest.mark.parametrize("path", list(NAN_DIAGONAL_PATHS))
def test_public_paths_reject_a_nan_diagonal_before_eigh(path, monkeypatch):
    def unreachable(m):
        raise AssertionError("linalg._eigh reached with a NaN on the diagonal")

    monkeypatch.setattr(linalg, "_eigh", unreachable)
    m = np.eye(8, dtype=complex)
    m[1, 1] = np.nan
    with pytest.raises(NotHermitian):
        NAN_DIAGONAL_PATHS[path](m)


def _small_targets():
    """Every target on dims with entries up to 3, then 40 seeded ones on other dims with a*b*c up to 48."""
    def targets(dims_list):
        return [(dims, t) for dims in dims_list for t in itertools.product(*(range(1, d + 1) for d in dims))]

    small = targets(itertools.product(range(1, 4), repeat=3))
    larger = targets(d for d in itertools.product(range(1, 7), repeat=3) if max(d) > 3 and math.prod(d) <= 48)
    picks = np.random.default_rng(370).choice(len(larger), 40, replace=False)
    return small + [larger[i] for i in picks]


def test_seesaw_contracts_hold_on_every_small_target():
    # ROADMAP item 15: a few sweeps on every target up to (3,3,3) and a sample
    # above it, so a shape that only some targets take (a factor that narrows,
    # a mode of size 1, a free mode between saturated ones) cannot raise or
    # break the engine's contracts unseen
    failures = []
    for k, (dims, target) in enumerate(_small_targets()):
        n = math.prod(dims)
        wmat = _rand_hermitian(np.random.default_rng([371, k]), n)
        scale = np.linalg.norm(wmat)
        try:
            run = seesaw_minimize(wmat, TriDims(*dims), target, np.random.default_rng(k), max_sweeps=3)
        except Exception as exc:  # noqa: BLE001  (every failure is reported with its target)
            failures.append((dims, target, repr(exc)))
            continue
        trace = run.objective_trace
        checks = {
            "unit xi": abs(np.linalg.norm(run.xi) - 1.0) <= 1e-12,
            "value of xi": abs(np.vdot(run.xi, wmat @ run.xi).real - run.value) <= 1e-12 * scale,
            "non-increasing trace": all(b <= a for a, b in zip(trace, trace[1:])) and trace[-1] == run.value,
            "above lambda_min": run.value >= np.linalg.eigvalsh(wmat)[0] - 1e-12 * scale,
            "rank triplet": sr_leq(TriVector(TriDims(*dims), run.xi), target),
        }
        failures += [(dims, target, name) for name, ok in checks.items() if not ok]
    assert not failures, failures[:10]


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
def test_seesaw_full_target_is_one_eigenproblem(dims):
    # every factor spans its mode, so the one core update is the least
    # eigenvalue and the run stops after it, converged
    n = int(np.prod(dims))
    for seed in range(4):
        wmat = _rand_hermitian(np.random.default_rng(300 + seed), n)
        run = seesaw_minimize(wmat, TriDims(*dims), dims, np.random.default_rng(seed))
        least = hermitian_eig(wmat)[0][0]
        assert abs(run.value - least) <= 1e-9 * np.linalg.norm(wmat)
        assert run.sweeps == 1 and run.converged and len(run.objective_trace) == 1


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (1, 2, 3), (1, 1, 1)])
def test_full_target_search_runs_one_restart(dims, monkeypatch):
    # target == dims leaves no factor free: the search runs restart 0 only,
    # and its outcome is the best of all the configured restarts
    import triwit.search as search

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return seesaw_minimize(*args, **kwargs)

    monkeypatch.setattr(search, "seesaw_minimize", counted)
    n = int(np.prod(dims))
    cfg = SeesawConfig(restarts=6, seed=40)
    for seed in range(3):
        wmat = _rand_hermitian(np.random.default_rng(320 + seed), n)
        # shift the least eigenvalue to -0.5 for seed 0 (a violation), to 0.5 otherwise (none)
        wmat = wmat - (hermitian_eig(wmat)[0][0] + (0.5 if seed == 0 else -0.5)) * np.eye(n)
        calls.clear()
        out = violation_search(TriOperator(TriDims(*dims), wmat), dims, cfg)
        assert len(calls) == 1
        runs = [seesaw_minimize(wmat, TriDims(*dims), dims, np.random.default_rng(cfg.seed + r)) for r in range(6)]
        best = min(runs, key=lambda run: run.value)
        xi = out.xi if isinstance(out, ViolationCertificate) else out.best_xi
        value = out.value if isinstance(out, ViolationCertificate) else out.best_value
        assert isinstance(out, ViolationCertificate) == (seed == 0)
        assert abs(value - best.value) <= 1e-12 * np.linalg.norm(wmat)
        assert abs(abs(np.vdot(best.xi, xi.data)) - 1.0) <= 1e-12


@pytest.mark.parametrize("target", [(1, 2, 2), (2, 1, 2), (2, 2, 1)])
def test_seesaw_cut_target_updates_two_blocks_a_sweep(target):
    # the two full-width factors are fixed; a sweep updates the rank-one
    # factor and the core
    wmat = _rand_hermitian(np.random.default_rng(310), 8)
    one = seesaw_minimize(wmat, QUBITS, target, np.random.default_rng(1), max_sweeps=1)
    assert len(one.objective_trace) == 2
    full = seesaw_minimize(wmat, QUBITS, target, np.random.default_rng(1))
    assert len(full.objective_trace) % 2 == 0


@pytest.mark.parametrize("target", [(1, 2, 2), (2, 1, 2), (2, 2, 1)])
def test_cut_u_step_is_valued_on_its_own_matrix(target, monkeypatch):
    # each u candidate y (x) c is valued on the 2 x 2 matrix its step solved;
    # a kept step records the quotient <xi|W|xi>/||xi||^2 of xi = y (x) c
    # itself.  c is read from the vector a run stopped one sweep earlier
    # returns, which is u (x) c up to scale and phase
    import triwit.linalg as linalg
    from triwit.linalg import _least_2x2

    mode = target.index(1)
    kept = 0
    for seed in range(3):
        wmat = _rand_hermitian(np.random.default_rng([19, seed]), 8)
        scale = np.linalg.norm(wmat)
        candidates = []

        def recorded(*args):
            y, value = _least_2x2(*args)
            candidates.append(y)
            return y, value

        monkeypatch.setattr(linalg, "_least_2x2", recorded)
        run = seesaw_minimize(wmat, QUBITS, target, np.random.default_rng(seed))
        monkeypatch.undo()
        assert len(candidates) == run.sweeps
        for sweep, y in enumerate(candidates):
            before = seesaw_minimize(wmat, QUBITS, target, np.random.default_rng(seed), max_sweeps=sweep)
            x = np.moveaxis(before.xi.reshape(2, 2, 2), mode, 0).reshape(2, 4)
            c = x[np.argmax(np.linalg.norm(x, axis=1))]
            xi = np.moveaxis(np.outer(y, c).reshape(2, 2, 2), 0, mode).reshape(-1)
            direct = np.vdot(xi, wmat @ xi).real / np.vdot(xi, xi).real
            value = run.objective_trace[2 * sweep]
            if value != before.value or direct <= value:
                kept += 1
                assert abs(value - direct) <= 1e-13 * scale
    assert kept >= 9


def _certified_params(rng, cls) -> QubitWitnessParams:
    """A random family member certified for ``cls``, shrunk towards the class boundary."""
    roots = tuple(rng.uniform(0.2, 1.5, 4))
    u = rng.uniform(0.2, 1.0, 4) * np.exp(2j * np.pi * rng.uniform(size=4))
    while not check_pair_class(p := QubitWitnessParams(s=roots, t=roots, u=tuple(u)), cls):
        u = 0.8 * u
    return p


def _cut_minimum(wmat, mode) -> float:
    """min over unit u of lambda_min((u (x) I)^H W (u (x) I)), u acting on qubit ``mode``.

    A Bloch-sphere grid, then a Nelder-Mead polish from its four best points.
    """
    order = [mode] + [m for m in range(3) if m != mode]
    w4 = wmat.reshape((2,) * 6).transpose(order + [3 + m for m in order]).reshape(2, 4, 2, 4)

    def least(angles):
        theta, phi = angles
        u = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        return np.linalg.eigvalsh(np.einsum("x,xiyj,y->ij", u.conj(), w4, u))[0]

    grid = [(t, f) for t in np.linspace(0, np.pi, 33) for f in np.linspace(0, 2 * np.pi, 64, endpoint=False)]
    starts = sorted(grid, key=least)[:4]
    opts = {"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000}
    return min(minimize(least, x0, method="Nelder-Mead", options=opts).fun for x0 in starts)


@pytest.mark.parametrize("cls", [(1, 2, 2), (2, 1, 2), (2, 2, 1)])
def test_cut_target_search_matches_grid_oracle(cls):
    # for a cut target the cone minimum is the least eigenvalue of W
    # compressed by u on the rank-one party, minimized over u
    rng = np.random.default_rng(320 + cls.index(1))
    for i in range(3):
        w = family_choi(_certified_params(rng, cls)).choi
        out = violation_search(w, cls, SeesawConfig(restarts=20, seed=330 + i))
        assert isinstance(out, NoViolation)
        oracle = _cut_minimum(w.mat, cls.index(1))
        assert abs(out.best_value - oracle) <= 1e-6 * np.linalg.norm(w.mat)


def _local_unitary(rng, dims) -> np.ndarray:
    a, b, c = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0] for d in dims)
    return np.kron(np.kron(a, b), c)


# planted minima on targets whose general loop takes factor steps: a saturated
# mode with free modes of rank 2 and 1, and three free rank-one modes
PLANTED = {"planted-(2,2,1)": (TriDims(2, 3, 2), (2, 2, 1)), "planted-(1,1,1)": (QUBITS, (1, 1, 1))}


def _known_minimum(case):
    """A seeded witness, a target and the least value of <xi|W|xi> over the target's unit vectors."""
    rng = np.random.default_rng(420)
    if case in PLANTED:
        # W = Q - |phi><phi|, phi a unit vector in the cone and Q >= 0 with
        # Q phi = 0, so <xi|W|xi> >= -|<phi|xi>|^2 >= -1 for unit xi, with
        # equality at xi = phi
        dims, target = PLANTED[case]
        phi = sample_sr_vector(dims, target, rng).data
        n = dims.total
        off_phi = np.eye(n) - np.outer(phi, phi.conj())
        g = off_phi @ (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return TriOperator(dims, g @ g.conj().T - np.outer(phi, phi.conj())), target, -1.0
    if case == "full":
        h = _rand_hermitian(rng, 12)
        return TriOperator(TriDims(2, 3, 2), h), (2, 3, 2), np.linalg.eigvalsh(h)[0]
    if case == "full-positive":
        h = _rand_hermitian(rng, 12)
        h = h - 1.5 * np.linalg.eigvalsh(h)[0] * np.eye(12)
        return TriOperator(TriDims(2, 2, 3), h), (2, 2, 3), np.linalg.eigvalsh(h)[0]
    if case == "genuine":
        return family_choi(genuine_witness(1.0)).choi, (2, 2, 2), -1.0
    w = family_choi(_certified_params(rng, case)).choi
    return w, case, _cut_minimum(w.mat, case.index(1))


@pytest.mark.parametrize(
    "case", ["full", "full-positive", (1, 2, 2), (2, 1, 2), (2, 2, 1), "genuine", *PLANTED], ids=str
)
def test_search_is_invariant_under_party_order_conjugation_and_local_unitaries(case):
    # each transform keeps the cone and the value of every vector in it up
    # to the same transform, so the search must reach the same minimum and
    # outcome kind on all ten; no sweeps or bits are pinned.  The last party
    # order permutes the dual map, the map side of the same transform
    w, target, minimum = _known_minimum(case)
    rng = np.random.default_rng(421)
    *sigmas, last = ALL_PERMUTATIONS
    transforms = [(flip(w, sigma), sigma.apply(target)) for sigma in sigmas]
    transforms.append((permute_dual(BiLinearMap(w.dims, w), last).choi, last.apply(target)))
    transforms.append((TriOperator(w.dims, w.mat.conj()), target))
    for _ in range(3):
        v = _local_unitary(rng, w.dims.as_tuple())
        transforms.append((TriOperator(w.dims, v @ w.mat @ v.conj().T), target))
    kinds = set()
    for wt, tt in transforms:
        out = violation_search(wt, tt, SeesawConfig(restarts=20, seed=422))
        kinds.add(type(out))
        value = out.value if isinstance(out, ViolationCertificate) else out.best_value
        assert abs(value - minimum) <= 1e-6 * np.linalg.norm(w.mat)
    assert len(kinds) == 1


@pytest.mark.parametrize("lam", [pytest.param(2.0**e, id=f"2^{e}") for e in (40, -40, 400, -400)])
def test_violation_search_scales_with_w(lam):
    # the Hermiticity gate, the certificate threshold and the stopping
    # threshold are relative, so under one config a
    # power-of-two multiple of W gives the same outcome and vector with the
    # value times lam
    rng = np.random.default_rng(380)
    witnesses = [TriOperator(QUBITS, _rand_hermitian(rng, 8)) for _ in range(2)]
    witnesses += [family_choi(genuine_witness(1.0)).choi, TriOperator(TriDims(2, 3, 2), _rand_hermitian(rng, 12))]
    kinds = set()
    for w in witnesses:
        scaled = TriOperator(w.dims, lam * w.mat)
        for target in ((1, 2, 2), (2, 1, 2), (1, 1, 2), (1, 1, 1), (2, 2, 2)):
            cfg = SeesawConfig(restarts=3)
            out = violation_search(w, target, cfg)
            scaled_out = violation_search(scaled, target, cfg)
            assert type(scaled_out) is type(out)
            if isinstance(out, ViolationCertificate):
                assert scaled_out.value == lam * out.value
                np.testing.assert_array_equal(scaled_out.xi.data, out.xi.data)
            else:
                assert scaled_out.best_value == lam * out.best_value
                np.testing.assert_array_equal(scaled_out.best_xi.data, out.best_xi.data)
            kinds.add(type(out))
    assert kinds == {ViolationCertificate, NoViolation}


def test_seesaw_stops_after_the_same_sweeps_at_any_scale():
    # on the genuine witness the 20 seeded (1,1,1) restarts run the same
    # sweeps to the same vectors at 2^-40, 1 and 2^40; under an absolute
    # stopping gain they ran 1.00, 4.90 and 5.45 sweeps on average, and the
    # best value at 2^-40 was 0.0092 lam, not 0
    wmat = _witness_matrix().mat
    runs = {
        lam: [seesaw_minimize(lam * wmat, QUBITS, (1, 1, 1), np.random.default_rng(seed)) for seed in range(20)]
        for lam in (2.0**-40, 1.0, 2.0**40)
    }
    base = runs[1.0]
    assert sum(run.sweeps for run in base) == 97
    assert min(run.value for run in base) == 0.0
    for lam, scaled in runs.items():
        assert [run.sweeps for run in scaled] == [run.sweeps for run in base]
        for run, ref in zip(scaled, base):
            assert run.value == lam * ref.value
            np.testing.assert_array_equal(run.xi, ref.xi)


def test_violation_search_certifies_where_the_sum_of_squares_overflows():
    # at 2^600 the sum of squares of W's entries overflows, though its norm
    # does not; the gate and the certificate threshold take the norm on W
    # scaled back by an exact power of two, so the outcomes are those at scale 1
    w = family_choi(genuine_witness(1.0)).choi
    big = TriOperator(w.dims, 2.0**600 * w.mat)
    cert = violation_search(big, (2, 2, 2))
    assert isinstance(cert, ViolationCertificate)
    assert cert.value == pytest.approx(-(2.0**600), rel=1e-12)
    for target in ((1, 1, 1), (1, 2, 2)):
        cfg = SeesawConfig(restarts=3)
        assert type(violation_search(big, target, cfg)) is type(violation_search(w, target, cfg)) is NoViolation


def _prepared(wmat, dims, target):
    """The witness that violation_search prepares once for all its restarts."""
    return search._Witness(hermitize(wmat), dims, search._fit_target(target, dims))


# a cut target, general ones and the full target, on qubits and on (2,3,4)
PREPARED_TARGETS = [
    ((2, 2, 2), (1, 2, 2)),
    ((2, 2, 2), (1, 1, 2)),
    ((2, 2, 2), (1, 1, 1)),
    ((2, 2, 2), (2, 2, 2)),
    ((2, 3, 4), (2, 1, 4)),
    ((2, 3, 4), (2, 2, 3)),
    ((2, 3, 4), (1, 3, 1)),
    ((2, 3, 4), (2, 3, 4)),
]


@pytest.mark.parametrize("dims,target", PREPARED_TARGETS)
def test_prepared_witness_runs_the_raw_matrix_restarts_bit_for_bit(dims, target):
    # one prepared witness serves every restart and every convergence_eps, the
    # threshold read from each call's own: each run equals the raw matrix's,
    # field by field, so no restart leaves a trace in what the next one reads
    wmat = _rand_hermitian(np.random.default_rng([27, *dims, *target]), math.prod(dims))
    prep = _prepared(wmat, TriDims(*dims), target)
    for seed in range(3):
        for eps in (1e-10, 1e-4):
            got = seesaw_minimize(prep, TriDims(*dims), target, np.random.default_rng(seed), convergence_eps=eps)
            want = seesaw_minimize(wmat, TriDims(*dims), target, np.random.default_rng(seed), convergence_eps=eps)
            assert got.xi.tobytes() == want.xi.tobytes()
            assert (got.value, got.objective_trace, got.sweeps, got.converged, got.rejected) == (
                want.value, want.objective_trace, want.sweeps, want.converged, want.rejected)


@pytest.mark.parametrize(
    "dims,target,call_dims,call_target",
    [
        ((2, 2, 2), (1, 2, 2), (2, 2, 2), (2, 1, 2)),
        ((2, 2, 2), (1, 2, 2), (2, 2, 2), (1, 1, 2)),
        ((2, 3, 4), (2, 2, 3), (4, 3, 2), (2, 2, 3)),
        ((2, 3, 4), (2, 3, 4), (2, 2, 2), (2, 2, 2)),
    ],
)
def test_prepared_witness_for_other_dims_or_target_raises(dims, target, call_dims, call_target):
    # a witness prepared for one target is not searched at another: the call
    # raises before it reads its generator
    prep = _prepared(_rand_hermitian(np.random.default_rng(28), math.prod(dims)), TriDims(*dims), target)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DimMismatch):
        seesaw_minimize(prep, TriDims(*call_dims), call_target, rng, max_sweeps=2)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("target", [(1, 2, 2), (1, 1, 1), (2, 2, 2)])
def test_violation_search_gates_w_once(target, monkeypatch):
    # the search gates W once and its restarts read the prepared witness; a
    # raw matrix passed to seesaw_minimize is still gated by that call
    calls = []

    def counted(m, tol=DEFAULT_TOL):
        calls.append(1)
        return hermitize(m, tol)

    monkeypatch.setattr(search, "hermitize", counted)
    violation_search(_witness_matrix(), target, SeesawConfig(restarts=5, max_sweeps=3))
    assert len(calls) == 1
    seesaw_minimize(_witness_matrix().mat, QUBITS, target, np.random.default_rng(0), max_sweeps=3)
    assert len(calls) == 2


def _reference_draw_complex(rng, *shapes):
    """The start draws as blocks of re + 1j * im, the form that search._draw_complex reproduces byte for byte."""
    draws = rng.standard_normal(2 * sum(map(math.prod, shapes)))
    imag, blocks, start = 1j * draws, [], 0
    for shape in shapes:
        size = math.prod(shape)
        blocks.append(draws[start : start + size].reshape(shape) + imag[start + size : start + 2 * size].reshape(shape))
        start += 2 * size
    return blocks


def _reference_cut_run(prep, rng, max_sweeps, convergence_eps=1e-10):
    """A cut-target restart as the reference loop runs it: the draws of :func:`_reference_draw_complex`, and
    each step solved by ``linalg._least`` on the reshaped products, allocated afresh every step."""
    threshold = math.ldexp(convergence_eps, prep.exponent)
    *factors, core = _reference_draw_complex(rng, *prep.draws)
    (mode,) = prep.free
    for other in range(3):
        if other != mode:
            core = _mode_product(factors[other], core, other)
    w_u, w_c = prep.w_u, prep.w_c
    d, r = w_c.shape[1], w_u.shape[1]
    u = factors[mode].reshape(d) / math.sqrt(np.vdot(factors[mode], factors[mode]).real)
    c = core.reshape(r) / math.sqrt(np.vdot(core, core).real)
    record = search._Record(prep.w_cut, (u[:, None] * c).reshape(-1))
    sweeps, converged = 0, False
    while sweeps < max_sweeps and not converged:
        sweeps += 1
        sweep_start = record.value
        y, value = linalg._least(w_u.dot(c).reshape(d * d, r).dot(c.conj()).reshape(d, d))
        if record.keep(value):
            u = y
        y, value = linalg._least(w_c.dot(u).reshape(r * r, d).dot(u.conj()).reshape(r, r))
        if record.keep(value):
            c = y
        converged = sweep_start - record.value < threshold
    xi = (u[:, None] * c).reshape(prep.cut_shape).transpose(prep.cut_inverse).reshape(-1)
    return record.run(xi, sweeps, converged)


def _run_fields(run):
    return run.xi.tobytes(), run.value, run.objective_trace, run.sweeps, run.converged, run.rejected


# the qubit cut targets; (1,3,3), whose u step is 3x3; and (1,4,4) in (2,4,4), whose c step is 16x16 and
# takes _least's inverse-iteration route
CUT_TARGETS = [
    ((2, 2, 2), (1, 2, 2)),
    ((2, 2, 2), (2, 1, 2)),
    ((2, 2, 2), (2, 2, 1)),
    ((3, 3, 3), (1, 3, 3)),
    ((2, 4, 4), (1, 4, 4)),
]


@pytest.mark.parametrize("dims,target", CUT_TARGETS)
def test_cut_loop_matches_the_reference_loop_bit_for_bit(dims, target):
    # the cut loop picks its solvers once per witness and writes its products
    # into buffers, the same arithmetic in the same order: every restart, with
    # the default threshold and with convergence_eps=0, where ties at
    # convergence give rejected steps, equals the reference field by field
    wmat = _rand_hermitian(np.random.default_rng([28, *dims, *target]), math.prod(dims))
    prep = _prepared(wmat, TriDims(*dims), target)
    rejected = 0
    for seed in range(3):
        for eps, sweeps in ((1e-10, 200), (0.0, 60)):
            want = _reference_cut_run(prep, np.random.default_rng(seed), sweeps, eps)
            for w in (wmat, prep):
                got = seesaw_minimize(w, TriDims(*dims), target, np.random.default_rng(seed), sweeps, eps)
                assert _run_fields(got) == _run_fields(want)
            rejected += want.rejected
    assert rejected > 0


@pytest.mark.parametrize("dims,target", CUT_TARGETS)
def test_cut_search_matches_the_reference_restarts_bit_for_bit(dims, target, monkeypatch):
    # violation_search seeds each restart's generator as default_rng(seed + restart) does, so
    # every restart it runs, and its outcome, equal the reference's
    n = math.prod(dims)
    runs = []

    def recorded(*args, **kwargs):
        runs.append(seesaw_minimize(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(search, "seesaw_minimize", recorded)
    for seed in range(3):
        wmat = _rand_hermitian(np.random.default_rng([29, seed, *target]), n)
        wmat -= (hermitian_eig(wmat)[0][0] + (0.5 if seed == 0 else 0.0)) * np.eye(n)
        cfg = SeesawConfig(restarts=4, seed=100 + seed)
        prep = _prepared(wmat, TriDims(*dims), target)
        want = [_reference_cut_run(prep, np.random.default_rng(cfg.seed + k), cfg.max_sweeps) for k in range(4)]
        runs.clear()
        out = violation_search(TriOperator(TriDims(*dims), wmat), target, cfg)
        assert [_run_fields(run) for run in runs] == [_run_fields(run) for run in want]
        best = min(want, key=lambda run: run.value)
        xi = out.xi if isinstance(out, ViolationCertificate) else out.best_xi
        assert xi.data.tobytes() == best.xi.tobytes()


def _draw_shapes():
    """The start draws' shapes of every target with dims up to 3, once each."""
    shapes = set()
    for dims in itertools.product(range(1, 4), repeat=3):
        for target in itertools.product(*(range(1, d + 1) for d in dims)):
            shapes.add((*zip(dims, target), target))
    return sorted(shapes)


def test_draw_complex_gives_the_bytes_of_re_plus_1j_im():
    # each block equals re + 1j * im byte for byte, for the start draws of
    # every target up to (3,3,3), and leaves the generator where one
    # standard_normal call of all the parts leaves it
    shapes = _draw_shapes()
    assert len(shapes) > 100
    for k, blocks in enumerate(shapes):
        rng, ref = np.random.default_rng([30, k]), np.random.default_rng([30, k])
        got, want = search._draw_complex(rng, *blocks), _reference_draw_complex(ref, *blocks)
        assert [(b.shape, b.dtype, b.tobytes()) for b in got] == [(b.shape, b.dtype, b.tobytes()) for b in want]
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dims,target", [((2, 2, 2), (1, 2, 2)), ((3, 3, 3), (2, 3, 1)), ((2, 3, 4), (2, 3, 4))])
def test_sample_sr_vector_keeps_its_bytes(dims, target, monkeypatch):
    got = [sample_sr_vector(TriDims(*dims), target, np.random.default_rng([31, k])).data for k in range(5)]
    monkeypatch.setattr(search, "_draw_complex", _reference_draw_complex)
    want = [sample_sr_vector(TriDims(*dims), target, np.random.default_rng([31, k])).data for k in range(5)]
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
