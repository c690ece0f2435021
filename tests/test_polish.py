"""The (1,1,1) polish: the lockstep driver with one start against scipy's Nelder-Mead, bit for bit.

scipy is a test dependency only; the package itself must not import it.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from triwit import AlphaGrid, ClassVerdict, QubitWitnessParams, Verdict, alpha_slack, check_111
from triwit.linalg import DEFAULT_TOL
from triwit.witness import (
    POLISH_FATOL,
    POLISH_MAXITER,
    POLISH_XATOL,
    RADIUS_MAX,
    RADIUS_MIN,
    REFINE,
    _closed_form,
    _nelder_mead_lockstep,
    _ordered,
    _polish_alpha,
    _polish_slacks,
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
    x, val = _nelder_mead_lockstep(lambda points: [g(x) for x in points], (tuple(float(v) for v in x0),))[0]
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


def test_polish_objective_is_a_0d_alpha_slack_bit_for_bit():
    # the polish's slack in two numpy calls rounds as alpha_slack does on one point
    rng = np.random.default_rng(70)
    for k in range(40):
        scale = 10.0 ** rng.uniform(-4, 4)
        u = scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        p = QubitWitnessParams(
            s=tuple(rng.exponential(scale, 4)), t=tuple(rng.exponential(scale, 4)), u=tuple(u)
        )
        slacks = _polish_slacks(p)
        for log_radius, angle in zip(rng.uniform(-11, 11, 500), rng.uniform(-10, 10, 500)):
            x = (float(log_radius), float(angle))
            assert slacks((x,))[0].hex() == float(alpha_slack(p, _polish_alpha(*x))).hex()


def test_nelder_mead_matches_scipy_on_the_slack_objective():
    rng = np.random.default_rng(71)
    for _ in range(6):
        p = _grid_params(rng)
        radii = np.geomspace(RADIUS_MIN, RADIUS_MAX, 64)
        angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        alphas = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
        slacks = _polish_slacks(p)
        for idx in np.argsort(alpha_slack(p, alphas))[:REFINE]:
            _same_as_scipy(lambda x: slacks((x,))[0], (math.log(abs(alphas[idx])), float(np.angle(alphas[idx]))))


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


def _scipy_check_111(params: QubitWitnessParams, grid: AlphaGrid = AlphaGrid(), tol=DEFAULT_TOL) -> ClassVerdict:
    """check_111's grid and polish with scipy.optimize.minimize, as the package computed it before."""
    radii = np.geomspace(RADIUS_MIN, RADIUS_MAX, grid.radii)
    angles = np.linspace(0.0, 2.0 * np.pi, grid.angles, endpoint=False)
    alphas = radii[:, None] * np.exp(1j * angles[None, :])
    slack = alpha_slack(params, alphas)
    log_lo = math.log(RADIUS_MIN) - 3.0
    log_hi = math.log(RADIUS_MAX) + 3.0

    def refined(alpha0):
        def objective(x):
            radius = math.exp(min(max(x[0], log_lo), log_hi))
            return float(alpha_slack(params, radius * np.exp(1j * x[1])))

        x0 = np.array([math.log(abs(alpha0)), np.angle(alpha0)])
        res = minimize(objective, x0, method="Nelder-Mead", options=OPTIONS)
        radius = math.exp(min(max(res.x[0], log_lo), log_hi))
        return radius * np.exp(1j * res.x[1])

    best_alpha, best_slack = None, np.inf
    for idx in np.argsort(slack, axis=None)[:REFINE]:
        cand = refined(alphas.ravel()[idx])
        val = float(alpha_slack(params, cand))
        if val < best_slack:
            best_alpha, best_slack = cand, val
    if best_slack < -tol.ineq_abs * max(params.s + params.t + _closed_form(params, tol).abs_u):
        return ClassVerdict(
            Verdict.REFUTED,
            f"inequality fails by {-best_slack:.3e} at alpha = {best_alpha:.6g}",
            alpha=complex(best_alpha),
        )
    return ClassVerdict(
        Verdict.NUMERICALLY_SUPPORTED,
        f"no violating alpha found on a {grid.radii} x {grid.angles} grid with local descent",
    )


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
        got, want = check_111(p), _scipy_check_111(p)
        assert (got, repr(got.alpha)) == (want, repr(want.alpha))
        seen[kind, got.verdict] = seen.get((kind, got.verdict), 0) + 1
    # the draws cover refutations, numerically supported verdicts and exact ties
    assert seen.get(("random", Verdict.REFUTED), 0) >= 5
    assert seen.get(("tie", Verdict.REFUTED), 0) >= 3
    assert seen.get(("tie", Verdict.NUMERICALLY_SUPPORTED), 0) >= 3


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
