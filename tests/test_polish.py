"""The (1,1,1) polish against scipy's Nelder-Mead, bit for bit, its slack against ``alpha_slack``, and
check_111 against numpy's baseline loops.

scipy is a test dependency only; the package itself must not import it.
"""

import cmath
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from triwit import AlphaGrid, ClassVerdict, QubitWitnessParams, Verdict, alpha_slack, check_111, witness
from triwit.linalg import DEFAULT_TOL
from triwit.witness import (
    POLISH_FATOL,
    POLISH_MAXITER,
    POLISH_XATOL,
    RADIUS_MAX,
    RADIUS_MIN,
    REFINE,
    _closed_form,
    _nelder_mead,
    _ordered,
    _polish_alpha,
    _root_product,
    _slack_parts,
)

OPTIONS = {"maxiter": POLISH_MAXITER, "xatol": POLISH_XATOL, "fatol": POLISH_FATOL}
SRC = Path(__file__).resolve().parents[1] / "src"


def _hex(x):
    return [float(v).hex() for v in x]


def _recorded(f, points):
    """``f``, appending each point it is evaluated at to ``points``."""

    def g(x):
        points.append(_hex(x))
        return f(x)

    return g


def _same_as_scipy(f, x0):
    """Run both minimizers from ``x0``; assert they evaluate ``f`` at the same
    points in the same order and return the same point and value, bit for bit."""
    want, got = [], []
    res = minimize(_recorded(f, want), np.array(x0, dtype=float), method="Nelder-Mead", options=OPTIONS)
    g = _recorded(f, got)
    x, val = _nelder_mead(g, tuple(float(v) for v in x0))
    assert got == want
    assert _hex(x) == _hex(res.x)
    assert _hex([val]) == _hex([res.fun])
    return res


def test_ordered_is_numpy_argsort_on_three_values():
    # all 216 patterns of signed zeros, infinities and NaN, 91 of them with a NaN
    for values in itertools.product([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan], repeat=3):
        order = np.argsort(np.array(values)).tolist()
        got = _ordered("a", "b", "c", *values)
        assert list(got[:3]) == ["abc"[i] for i in order], values
        assert _hex(got[3:]) == _hex([values[i] for i in order]), values


def _grid_params(rng):
    """A draw that fails the closed-form criteria, so check_111 reaches its grid."""
    while True:
        u = rng.uniform(0.2, 3.0) * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        p = QubitWitnessParams(s=tuple(rng.uniform(0, 2, 4)), t=tuple(rng.uniform(0, 2, 4)), u=tuple(u))
        if check_111(p, AlphaGrid(1, 1)).verdict is not Verdict.CERTIFIED:
            return p


def _composed_slack(p):
    """The polish's objective: ``_slack_parts``' two sides composed at ``_polish_alpha(*x)``, as check_111 does."""
    radial, moduli = _slack_parts(p)

    def slack(x):
        alpha = _polish_alpha(*x)
        return radial(abs(alpha) ** 2) - moduli(alpha)

    return slack


def _terms_size(p, alpha):
    """The sum of the moduli of alpha_slack's four terms at ``alpha``."""
    s, t, u = p.s, p.t, p.u
    m = abs(alpha) ** 2
    return (
        math.sqrt((s[0] + t[3] * m) * (s[3] + t[0] * m))
        + math.sqrt((s[1] + t[2] * m) * (s[2] + t[1] * m))
        + abs(u[0] * alpha.conjugate() + u[3].conjugate() * alpha)
        + abs(u[1] * alpha.conjugate() + u[2].conjugate() * alpha)
    )


def test_polish_slack_agrees_with_alpha_slack():
    # Python and numpy round the complex products and moduli differently, so the
    # two slacks agree to a few ulps of the terms' size, not bit for bit
    rng = np.random.default_rng(70)
    eps = np.finfo(float).eps
    for k in range(40):
        scale = 10.0 ** rng.uniform(-4, 4)
        u = scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        p = QubitWitnessParams(
            s=tuple(rng.exponential(scale, 4)), t=tuple(rng.exponential(scale, 4)), u=tuple(u)
        )
        slack = _composed_slack(p)
        for log_radius, angle in zip(rng.uniform(-11, 11, 500), rng.uniform(-10, 10, 500)):
            x = (float(log_radius), float(angle))
            alpha = _polish_alpha(*x)
            assert abs(slack(x) - float(alpha_slack(p, alpha))) <= 16 * eps * _terms_size(p, alpha), (k, x)


def test_nelder_mead_matches_scipy_on_the_slack_objective():
    rng = np.random.default_rng(71)
    for _ in range(6):
        p = _grid_params(rng)
        slack = _composed_slack(p)
        for x0 in _grid_starts(*_reference_parts(p), AlphaGrid()):
            _same_as_scipy(slack, x0)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: 0.0,
        lambda x: float(math.floor(abs(x[0]) + abs(x[1]))),
        lambda x: float(round(4 * (x[0] - 1) ** 2)) + float(round(4 * x[1] ** 2)),
        lambda x: math.nan if x[0] > 1.1 else (x[0] - 2.0) ** 2 + x[1] ** 2,
    ],
    ids=["constant", "floor-plateaus", "rounded-bowl", "nan-region"],
)
def test_nelder_mead_matches_scipy_on_plateaus_and_ties(f):
    # (1.08, 0.5) starts the nan-region simplex with one NaN vertex, which sorts last
    for x0 in ((1.0, 0.5), (-2.5, 3.0), (0.3, -0.7), (1.08, 0.5)):
        _same_as_scipy(f, x0)


@pytest.mark.parametrize("x0", [(0.0, 0.7), (1.3, 0.0), (0.0, 0.0), (-0.0, 2.0)])
def test_nelder_mead_matches_scipy_from_a_zero_coordinate(x0):
    def rosen(x):
        return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    _same_as_scipy(rosen, x0)
    _same_as_scipy(lambda x: (x[0] - 0.25) ** 2 + 3.0 * (x[1] + 0.5) ** 2, x0)


def test_nelder_mead_matches_scipy_at_the_iteration_cap():
    # a linear objective never converges: the simplex expands until the cap
    # (scipy's ``nit`` counts from 1, so it reads maxiter after maxiter - 1 steps)
    res = _same_as_scipy(lambda x: x[0] - 0.5 * x[1], (0.2, 0.4))
    assert (res.status, res.nit) == (2, POLISH_MAXITER)


def _reference_parts(params: QubitWitnessParams):
    """alpha_slack's left side at m = |alpha|**2 and its right side at alpha, written out in its operation order."""
    (s0, s1, s2, s3), (t0, t1, t2, t3), (u0, u1, u2, u3) = params.s, params.t, params.u

    def radial(m):
        return _root_product(s0 + t3 * m, s3 + t0 * m) + _root_product(s1 + t2 * m, s2 + t1 * m)

    def moduli(alpha):
        conj_alpha = alpha.conjugate()
        return abs(u0 * conj_alpha + u3.conjugate() * alpha) + abs(u1 * conj_alpha + u2.conjugate() * alpha)

    return radial, moduli


def _least_points(radial, moduli, log_radii, angles, count):
    """The ``count`` points (log radius, angle) of least slack on a grid, in stable order (Python's ``sorted``).

    The slack at alpha = r e^{i angle} is read as radial(r * r) - r * moduli(e^{i angle}).
    """
    right = [moduli(cmath.exp(1j * angle)) for angle in angles]
    points, values = [], []
    for log_radius in log_radii:
        r = math.exp(log_radius)
        left = radial(r * r)
        for angle, h in zip(angles, right):
            points.append((log_radius, angle))
            values.append(left - r * h)
    return [points[k] for k in sorted(range(len(values)), key=values.__getitem__)[:count]]


def _grid_starts(radial, moduli, grid: AlphaGrid):
    """check_111's polish starts: the REFINE least of its grid, equally spaced in (log radius, angle).

    The angles are the full circle's read modulo pi (the slack is even in
    alpha): ``grid.angles // 2`` angles on [0, pi) when ``grid.angles`` is
    even, and ``grid.angles`` when it is odd.
    """
    log_radii = np.linspace(math.log(RADIUS_MIN), math.log(RADIUS_MAX), grid.radii).tolist()
    n_angles = grid.angles if grid.angles % 2 else grid.angles // 2
    angles = np.linspace(0.0, np.pi, n_angles, endpoint=False).tolist()
    return _least_points(radial, moduli, log_radii, angles, REFINE)


def _scipy_polishes(params: QubitWitnessParams, grid: AlphaGrid, tol=DEFAULT_TOL):
    """check_111's grid and polish with scipy.optimize.minimize: the member's record, each start's alpha and slack.

    The objective is the slack in Python floats and complex numbers, in
    alpha_slack's operation order, on the member as check_111 scales it.
    """
    cf = _closed_form(params, tol)
    radial, moduli = _reference_parts(cf.scaled)
    log_lo = math.log(RADIUS_MIN) - 3.0
    log_hi = math.log(RADIUS_MAX) + 3.0

    def point(x):
        return math.exp(min(max(float(x[0]), log_lo), log_hi)) * cmath.exp(1j * float(x[1]))

    def objective(x):
        alpha = point(x)
        return radial(abs(alpha) ** 2) - moduli(alpha)

    polishes = []
    for x0 in _grid_starts(radial, moduli, grid):
        res = minimize(objective, np.array(x0), method="Nelder-Mead", options=OPTIONS)
        polishes.append((point(res.x), float(res.fun)))
    return cf, polishes


def _scipy_check_111(params: QubitWitnessParams, grid: AlphaGrid = AlphaGrid(), tol=DEFAULT_TOL) -> ClassVerdict:
    """check_111's verdict from :func:`_scipy_polishes`: the first start of least slack gives alpha.

    Of the mirror pair +-alpha it reports the one with Re > 0, or Re = 0 and Im >= 0.
    """
    cf, polishes = _scipy_polishes(params, grid, tol)
    best_alpha, best_slack = None, np.inf
    for cand, val in polishes:
        if val < best_slack:
            best_alpha, best_slack = cand, val
    if best_slack < cf.refute_below:
        best_alpha = _right_half_plane(best_alpha)
        return ClassVerdict(
            Verdict.REFUTED,
            f"inequality fails by {-best_slack / cf.scale:.3e} at alpha = {best_alpha:.6g}",
            alpha=complex(best_alpha),
        )
    return ClassVerdict(
        Verdict.NUMERICALLY_SUPPORTED,
        f"no violating alpha found on a {grid.radii} x {grid.angles} grid with local descent",
    )


def _right_half_plane(alpha):
    """The one of +-alpha with Re > 0, or Re = 0 and Im >= 0."""
    return alpha if alpha.real > 0 or (alpha.real == 0 and alpha.imag >= 0) else -alpha


def _assert_matches_the_scipy_polish(p, grid=AlphaGrid()):
    got, want = check_111(p, grid), _scipy_check_111(p, grid)
    assert (got, repr(got.alpha)) == (want, repr(want.alpha))
    return got


def _tie_draw(rng):
    """Small integers with |u| a permutation of sqrt(s t), one entry sometimes raised by 1."""
    roots = rng.integers(0, 5, 4).astype(float)
    abs_u = roots.copy()
    i, j = rng.choice(4, 2, replace=False)
    abs_u[i], abs_u[j] = roots[j], roots[i]
    abs_u[rng.integers(4)] += rng.integers(2)
    return QubitWitnessParams(s=tuple(roots), t=tuple(roots), u=tuple(rng.choice([-1.0, 1.0], 4) * abs_u))


def test_check_111_matches_the_scipy_polish():
    rng = np.random.default_rng(72)
    draws = [("random", _grid_params(rng)) for _ in range(12)]
    ties = []
    while len(ties) < 12:
        p = _tie_draw(rng)
        if check_111(p, AlphaGrid(1, 1)).verdict is not Verdict.CERTIFIED:
            ties.append(("tie", p))
    seen = {}
    for kind, p in draws + ties:
        got = _assert_matches_the_scipy_polish(p)
        seen[kind, got.verdict] = seen.get((kind, got.verdict), 0) + 1
    # the draws cover refutations, numerically supported verdicts and exact ties
    assert seen.get(("random", Verdict.REFUTED), 0) >= 5
    assert seen.get(("tie", Verdict.REFUTED), 0) >= 3
    assert seen.get(("tie", Verdict.NUMERICALLY_SUPPORTED), 0) >= 3


@pytest.mark.parametrize("grid", [AlphaGrid(1, 2), AlphaGrid(1, 1), AlphaGrid(2, 3)], ids=["1x2", "1x1", "2x3"])
def test_check_111_matches_the_scipy_polish_on_grids_with_few_points(grid):
    rng = np.random.default_rng(74)
    for _ in range(3):
        _assert_matches_the_scipy_polish(_grid_params(rng), grid)


def _full_circle_search(params: QubitWitnessParams, tol=DEFAULT_TOL):
    """The search on the whole circle: the 4 least of a 64 x 64 grid over 0 <= angle < 2 pi, each polished.

    The grid and the objective are valued by :func:`_reference_parts`, on the member as check_111 scales it;
    the polish is ``_nelder_mead``.  Returns the member's record and the first start of least slack's
    alpha and slack.
    """
    cf = _closed_form(params, tol)
    radial, moduli = _reference_parts(cf.scaled)
    log_radii = np.linspace(math.log(RADIUS_MIN), math.log(RADIUS_MAX), 64).tolist()
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False).tolist()

    def objective(x):
        alpha = _polish_alpha(*x)
        return radial(abs(alpha) ** 2) - moduli(alpha)

    best_alpha, best_slack = None, math.inf
    for x0 in _least_points(radial, moduli, log_radii, angles, 4):
        x, val = _nelder_mead(objective, x0)
        if val < best_slack:
            best_alpha, best_slack = _polish_alpha(*x), val
    return cf, best_alpha, best_slack


def test_half_plane_grid_keeps_the_full_circle_verdicts():
    # the slack is even in alpha, so the half-plane grid and its 2 polishes drop only the mirror images of the
    # whole circle's 4: the same verdict, and alpha the whole circle's best alpha or -alpha
    rng = np.random.default_rng(78)
    seen = {}
    for k in range(200):
        p = _grid_params(rng)
        cf, alpha, slack = _full_circle_search(p)
        want = Verdict.REFUTED if slack < cf.refute_below else Verdict.NUMERICALLY_SUPPORTED
        got = check_111(p)
        assert got.verdict is want, (k, got, slack)
        if want is Verdict.REFUTED:
            assert min(abs(got.alpha - alpha), abs(got.alpha + alpha)) <= 1e-6 * abs(alpha), (k, got.alpha, alpha)
        seen[want] = seen.get(want, 0) + 1
    assert seen.get(Verdict.REFUTED, 0) >= 100 and seen.get(Verdict.NUMERICALLY_SUPPORTED, 0) >= 5


@pytest.mark.parametrize("grid", [AlphaGrid(3, 5), AlphaGrid(2, 7), AlphaGrid(3, 8)], ids=["3x5", "2x7", "3x8"])
def test_half_plane_grid_holds_every_full_circle_angle_modulo_pi(grid, monkeypatch):
    # with every grid point a start and a polish that returns its start, check_111 reports the points it valued
    starts = []

    def start_only(f, x0):
        starts.append(x0)
        return x0, math.inf

    monkeypatch.setattr(witness, "REFINE", grid.radii * grid.angles)
    monkeypatch.setattr(witness, "_nelder_mead", start_only)
    p = QubitWitnessParams(s=(1.0, 0.5, 0.8, 1.2), t=(0.9, 1.1, 0.6, 1.0), u=(1.1, 0.8j, -0.7, 0.9 - 0.5j))
    assert check_111(p, grid).verdict is Verdict.NUMERICALLY_SUPPORTED
    full = np.linspace(0.0, 2.0 * np.pi, grid.angles, endpoint=False)
    want = sorted(set(np.round(np.mod(full, np.pi), 12).tolist()))
    got = sorted({angle for _, angle in starts})
    assert len(starts) == grid.radii * len(got)
    assert np.allclose(got, want, rtol=0, atol=1e-12), (got, want)
    if grid.angles % 2 == 0:
        # an even grid's half plane is the first half of the full circle's angles, bit for bit
        assert _hex(got) == _hex(full[: grid.angles // 2])


def test_check_111_keeps_the_first_start_on_ties():
    # the tie draws of test_check_111_matches_the_scipy_polish, and more
    rng = np.random.default_rng(72)
    for _ in range(12):
        _grid_params(rng)
    tied = 0
    for _ in range(40):
        p = _tie_draw(rng)
        if check_111(p, AlphaGrid(1, 1)).verdict is Verdict.CERTIFIED:
            continue
        _assert_matches_the_scipy_polish(p)
        polishes = _scipy_polishes(p, AlphaGrid())[1]
        least = min(val for _, val in polishes)
        tied_alphas = {_right_half_plane(cand) for cand, val in polishes if val == least}
        tied += len(tied_alphas) > 1
    # several members have two or more starts of least slack at different +-alpha, where the first one must win
    assert tied >= 3


def test_check_111_matches_the_scipy_polish_on_a_member_scaled_for_the_slack():
    rng = np.random.default_rng(75)
    for _ in range(3):
        q = _grid_params(rng)
        p = QubitWitnessParams(
            s=tuple(x * 1e300 for x in q.s), t=tuple(x * 1e300 for x in q.t), u=tuple(z * 1e300 for z in q.u)
        )
        assert _closed_form(p, DEFAULT_TOL).scale < 1.0
        _assert_matches_the_scipy_polish(p)


def test_refuted_alpha_lies_in_the_right_half_plane():
    # the slack is even in alpha, so check_111 reports the one of +-alpha with Re > 0, or Re = 0 and Im >= 0
    rng = np.random.default_rng(76)
    refuted = 0
    for _ in range(40):
        p = _grid_params(rng)
        verdict = check_111(p)
        if verdict.verdict is not Verdict.REFUTED:
            continue
        refuted += 1
        alpha = verdict.alpha
        assert _right_half_plane(alpha) == alpha, alpha
        assert verdict.evidence.endswith(f"at alpha = {alpha:.6g}")
        assert float(alpha_slack(p, alpha)) < _closed_form(p, DEFAULT_TOL).refute_below
    assert refuted >= 20


def _verdicts(draws):
    """check_111 on each (s, t, u) of ``draws``, each verdict as JSON: verdict, evidence and alpha as (re, im)."""
    out = []
    for s, t, u in draws:
        v = check_111(QubitWitnessParams(s=s, t=t, u=[complex(*z) for z in u]))
        out.append([v.verdict.value, v.evidence, None if v.alpha is None else [v.alpha.real, v.alpha.imag]])
    return out


def test_check_111_does_not_depend_on_numpy_dispatch():
    # the grid and the polish value the slack in Python floats, so every verdict, its evidence and alpha are the
    # same bits with every target numpy dispatches to at run time disabled, on its baseline loops
    from numpy._core._multiarray_umath import __cpu_dispatch__

    rng = np.random.default_rng(77)
    draws = []
    for _ in range(240):
        p = _grid_params(rng)
        draws.append([list(p.s), list(p.t), [[z.real, z.imag] for z in p.u]])
    code = """
import json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__ as d, __cpu_features__ as f
on = [k for k in d if f[k]]
assert not on, on
sys.path.insert(0, sys.argv[1])
from test_polish import _verdicts
json.dump(_verdicts(json.load(sys.stdin)), sys.stdout)
"""
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent)],
        input=json.dumps(draws), capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    want, got = _verdicts(draws), json.loads(proc.stdout)
    assert sum(v[0] == "refuted" for v in want) >= 100
    differ = [k for k, (a, b) in enumerate(zip(want, got)) if a != b]
    assert len(got) == len(want) and not differ, f"{len(differ)} of {len(want)} draws differ, first {differ[:5]}"


def test_cli_classify_loads_no_scipy():
    # s = t = 0 and u_1 = 1 fail every closed form, so (1,1,1) is refuted on the grid
    code = """
import sys
import triwit, triwit.cli
rc = triwit.cli.main(["classify", "--s", "0,0,0,0", "--t", "0,0,0,0", "--u", "1:0,0:0,0:0,0:0"])
assert rc == 0, rc
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"verdict": "refuted"' in proc.stdout and '"alpha"' in proc.stdout
    assert proc.stdout.strip().splitlines()[-1] == "[]"
