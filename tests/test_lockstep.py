"""check_111's polishes in lockstep: start by start, the one-start polish's points, vertex and value, bit for bit.

The lockstep driver with one start, valuing each point by ``_polish_slacks``
on that point alone, is the one-start reference here; tests/test_polish.py
holds it to scipy's Nelder-Mead and to a 0-d ``alpha_slack``.
"""

import math

import numpy as np
import pytest
from test_polish import _grid_params, _hex, _tie_draw

from triwit import AlphaGrid, QubitWitnessParams, Verdict, alpha_slack, check_111
from triwit import witness
from triwit.linalg import DEFAULT_TOL
from triwit.witness import RADIUS_MAX, RADIUS_MIN, REFINE, _closed_form, _nelder_mead_lockstep, _polish_alpha, _polish_slacks


def _lockstep_check_111(monkeypatch, p, grid):
    """check_111(p, grid), with the points of every round it values and the starts and results of its polish."""
    rounds, polishes = [], []
    slacks, lockstep = witness._polish_slacks, witness._nelder_mead_lockstep

    def recorded_slacks(params):
        values = slacks(params)

        def record(points):
            rounds.append([_hex(x) for x in points])
            return values(points)

        return record

    def recorded_lockstep(values, starts):
        results = lockstep(values, starts)
        polishes.append((list(starts), results))
        return results

    monkeypatch.setattr(witness, "_polish_slacks", recorded_slacks)
    monkeypatch.setattr(witness, "_nelder_mead_lockstep", recorded_lockstep)
    verdict = check_111(p, grid)
    monkeypatch.undo()
    (starts, results), = polishes
    return verdict, rounds, starts, results


def _one_start_polishes(p, grid):
    """The grid's lowest points as check_111 takes them, and the one-start polish from each: its points and result."""
    cf = _closed_form(p, DEFAULT_TOL)
    radii = np.geomspace(RADIUS_MIN, RADIUS_MAX, grid.radii)
    angles = np.linspace(0.0, 2.0 * np.pi, grid.angles, endpoint=False)
    alphas = radii[:, None] * np.exp(1j * angles[None, :])
    lowest = alphas.ravel()[np.argsort(alpha_slack(cf.scaled, alphas), axis=None)[:REFINE]]
    slacks = _polish_slacks(cf.scaled)
    starts, runs = [], []
    for alpha0 in lowest:
        x0 = (math.log(abs(alpha0)), float(np.angle(alpha0)))
        points = []

        def g(x):
            points.append(_hex(x))
            return slacks((x,))[0]

        starts.append(x0)
        runs.append((points, _nelder_mead_lockstep(lambda xs: [g(x) for x in xs], (x0,))[0]))
    return cf, starts, runs


def _check_lockstep(monkeypatch, p, grid=AlphaGrid()):
    """Assert check_111 polishes ``p`` as the one-start polishes do; return the evaluation count and value of each."""
    verdict, rounds, starts, results = _lockstep_check_111(monkeypatch, p, grid)
    cf, want_starts, runs = _one_start_polishes(p, grid)
    assert [_hex(x) for x in starts] == [_hex(x) for x in want_starts]
    # round r values the r-th point of every start whose polish is still going, in start order
    assert rounds == [[points[r] for points, _ in runs if r < len(points)] for r in range(len(rounds))]
    assert len(rounds) == max(len(points) for points, _ in runs)
    for (vertex, value), (_, (want_vertex, want_value)) in zip(results, runs, strict=True):
        assert (_hex(vertex), value.hex()) == (_hex(want_vertex), want_value.hex())
    # the verdict reads the first start, in start order, of least value
    best_alpha, best_slack = None, math.inf
    for _, (vertex, value) in runs:
        if value < best_slack:
            best_alpha, best_slack = _polish_alpha(*vertex), value
    if best_slack < cf.refute_below:
        assert verdict.verdict is Verdict.REFUTED and repr(verdict.alpha) == repr(complex(best_alpha))
    else:
        assert verdict.verdict is Verdict.NUMERICALLY_SUPPORTED
    return [(len(points), value) for points, (_, value) in runs]


def test_lockstep_polish_matches_one_start_polishes_on_grid_members(monkeypatch):
    rng = np.random.default_rng(73)
    counts = [_check_lockstep(monkeypatch, _grid_params(rng)) for _ in range(8)]
    # ragged rounds: the four polishes of a member stop after different numbers of points
    assert all(len(c) == REFINE for c in counts)
    assert sum(len({n for n, _ in c}) > 1 for c in counts) >= 6


@pytest.mark.parametrize("grid", [AlphaGrid(1, 2), AlphaGrid(1, 1), AlphaGrid(2, 3)], ids=["1x2", "1x1", "2x3"])
def test_lockstep_polish_on_grids_with_few_points(monkeypatch, grid):
    rng = np.random.default_rng(74)
    for _ in range(3):
        assert len(_check_lockstep(monkeypatch, _grid_params(rng), grid)) == min(grid.radii * grid.angles, REFINE)


def test_lockstep_polish_keeps_the_first_start_on_ties(monkeypatch):
    # the tie draws of test_check_111_matches_the_scipy_polish
    rng = np.random.default_rng(72)
    for _ in range(12):
        _grid_params(rng)
    tied = 0
    for _ in range(40):
        p = _tie_draw(rng)
        if check_111(p, AlphaGrid(1, 1)).verdict is Verdict.CERTIFIED:
            continue
        values = [value for _, value in _check_lockstep(monkeypatch, p)]
        tied += values.count(min(values)) > 1
    # several members have two or more starts at the least value, where the first one must win
    assert tied >= 3


def test_lockstep_polish_on_a_member_scaled_for_the_slack(monkeypatch):
    rng = np.random.default_rng(75)
    for _ in range(3):
        q = _grid_params(rng)
        p = QubitWitnessParams(
            s=tuple(x * 1e300 for x in q.s), t=tuple(x * 1e300 for x in q.t), u=tuple(z * 1e300 for z in q.u)
        )
        assert _closed_form(p, DEFAULT_TOL).scale < 1.0
        _check_lockstep(monkeypatch, p)
