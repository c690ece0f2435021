import math
import warnings

import numpy as np
import pytest

from triwit import (
    AlphaGrid,
    ConsistencyError,
    NonPositive,
    Permutation3,
    QubitWitnessParams,
    Verdict,
    alpha_slack,
    check_111,
    check_222,
    check_pair_class,
    classify,
    family_choi,
    genuine_witness,
    ghz_value,
    is_completely_positive,
    permute_dual,
)
from triwit import witness
from triwit.search import ViolationCertificate, violation_search
from triwit.linalg import DEFAULT_TOL
from triwit.witness import _LOG_HI, PAIR_CLASSES, _closed_form, _scaled_for_slack


def _rand_params(rng, u_scale=1.0):
    u = u_scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    return QubitWitnessParams(
        s=tuple(rng.uniform(0, 2, 4)), t=tuple(rng.uniform(0, 2, 4)), u=tuple(u)
    )


def _tie_params(rng, n):
    """Draws on a criterion's boundary: |u_i| = sqrt(s_i t_i) or a pair sum equal to its |u| sum.

    Small integers keep every sum exact.  The |u| entries of one random pair
    are the roots swapped, and one random entry is sometimes raised by 1.
    """
    draws = []
    for _ in range(n):
        roots = rng.integers(0, 5, 4).astype(float)
        abs_u = roots.copy()
        i, j = rng.choice(4, 2, replace=False)
        abs_u[i], abs_u[j] = roots[j], roots[i]
        abs_u[rng.integers(4)] += rng.integers(2)
        draws.append(
            QubitWitnessParams(s=tuple(roots), t=tuple(roots), u=tuple(rng.choice([-1.0, 1.0], 4) * abs_u))
        )
    return draws


def _params_from_roots(roots, abs_u):
    """Parameters with sqrt(s_i t_i) equal to roots and |u_i| as given."""
    return QubitWitnessParams(
        s=tuple(float(r) for r in roots),
        t=tuple(float(r) for r in roots),
        u=tuple(float(a) for a in abs_u),
    )


def test_params_validation():
    with pytest.raises(ValueError):
        QubitWitnessParams(s=(-1, 0, 0, 0), t=(0, 0, 0, 0), u=(0, 0, 0, 0))
    with pytest.raises(ValueError):
        QubitWitnessParams(s=(0, 0, 0), t=(0, 0, 0, 0), u=(0, 0, 0, 0))


@pytest.mark.parametrize(
    "s, t, u",
    [
        ((math.nan, 1, 1, 1), (1, 1, 1, 1), (0, 0, 0, 0)),
        ((1, 1, 1, 1), (1, 1, math.inf, 1), (0, 0, 0, 0)),
        ((1, 1, 1, 1), (1, 1, 1, 1), (0, complex(0, math.nan), 0, 0)),
    ],
)
def test_params_reject_non_finite(s, t, u):
    with pytest.raises(ValueError):
        QubitWitnessParams(s=s, t=t, u=u)


def test_family_choi_identity():
    p = QubitWitnessParams(s=(1, 1, 1, 1), t=(1, 1, 1, 1), u=(0, 0, 0, 0))
    np.testing.assert_allclose(family_choi(p).choi.mat, np.eye(8))


def test_family_choi_witness_matrix():
    w = family_choi(genuine_witness(1.0)).choi.mat
    expected = np.zeros((8, 8))
    for i in range(1, 7):
        expected[i, i] = 1.0
    expected[0, 7] = expected[7, 0] = -1.0
    np.testing.assert_allclose(w, expected)


def test_family_choi_hermitian():
    rng = np.random.default_rng(60)
    for _ in range(20):
        m = family_choi(_rand_params(rng)).choi.mat
        np.testing.assert_allclose(m, m.conj().T)


def test_check_222_boundary_and_violation():
    assert check_222(QubitWitnessParams((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)))
    assert not check_222(QubitWitnessParams((1, 1, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1)))
    rng = np.random.default_rng(61)
    p = QubitWitnessParams(s=tuple(rng.uniform(0, 2, 4)), t=tuple(rng.uniform(0, 2, 4)), u=(0, 0, 0, 0))
    assert check_222(p)


def test_check_222_agrees_with_choi_positivity():
    rng = np.random.default_rng(62)
    for _ in range(200):
        p = _rand_params(rng)
        assert check_222(p) == is_completely_positive(family_choi(p))


def test_pair_class_first_example():
    p = _params_from_roots((0, 1, 1, 2), (1, 1, 1, 1))
    assert check_pair_class(p, (1, 2, 2))
    assert not check_pair_class(p, (2, 1, 2))
    assert not check_pair_class(p, (2, 2, 1))


def test_pair_class_second_example():
    p = _params_from_roots((0, 0, 2, 2), (1, 1, 1, 1))
    assert check_pair_class(p, (1, 2, 2))
    assert check_pair_class(p, (2, 1, 2))
    assert not check_pair_class(p, (2, 2, 1))


def test_pair_class_third_example():
    p = _params_from_roots((0, 2, 2, 2), (1, 1, 1, 1))
    assert check_pair_class(p, (1, 2, 2))
    assert check_pair_class(p, (2, 1, 2))
    assert check_pair_class(p, (2, 2, 1))


def test_pair_class_rejects_top_class():
    with pytest.raises(ValueError):
        check_pair_class(_params_from_roots((1, 1, 1, 1), (0, 0, 0, 0)), (2, 2, 2))


def test_check_111_certified_by_sum_only():
    p = _params_from_roots((0, 0, 0, 4), (1, 1, 1, 1))
    verdict = check_111(p)
    assert verdict.verdict is Verdict.CERTIFIED
    for cls in ((1, 2, 2), (2, 1, 2), (2, 2, 1)):
        assert not check_pair_class(p, cls)


def test_check_111_refuted_with_witness_alpha():
    p = QubitWitnessParams(s=(0, 0, 0, 0), t=(0, 0, 0, 0), u=(1, 0, 0, 0))
    verdict = check_111(p)
    assert verdict.verdict is Verdict.REFUTED
    assert verdict.alpha is not None
    assert alpha_slack(p, verdict.alpha) < -1e-9


def test_check_111_refutes_at_its_pinned_alpha():
    # fails the sum criterion and every pair class, so the grid and the polish give alpha; the slack is even in
    # alpha, and of the mirror pair +-alpha the one with Re > 0 is reported; both are valued in Python floats, so
    # alpha is the same bits on every numpy loop set
    p = QubitWitnessParams(s=(1.0, 0.5, 0.8, 1.2), t=(0.9, 1.1, 0.6, 1.0), u=(1.1, 0.8j, -0.7, 0.9 - 0.5j))
    pinned = 0.8851167790644794 - 0.4516088851246091j
    verdict = check_111(p)
    assert verdict.verdict is Verdict.REFUTED
    assert verdict.alpha == pinned


def test_check_111_trivially_certified():
    p = QubitWitnessParams(s=(1, 1, 1, 1), t=(1, 1, 1, 1), u=(0, 0, 0, 0))
    assert check_111(p).verdict is Verdict.CERTIFIED


def test_root_st_survives_an_overflowing_product():
    # s t = 1e400 overflows, but sqrt(s t) = 1e200 is far below |u| = 1e300
    p = QubitWitnessParams(s=(1e200,) * 4, t=(1e200,) * 4, u=(1e300,) * 4)
    assert p.root_st() == pytest.approx((1e200,) * 4, rel=1e-15)
    with np.errstate(over="ignore"):
        rep = classify(p)
    assert not any(rep.certified(cls) for cls in rep.classes)
    assert not rep.biseparability_witness
    # a finite product keeps the single square root, bit for bit
    q = QubitWitnessParams(s=(0.3, 2.0, 1e150, 0.0), t=(0.7, 1e-3, 1e150, 5.0), u=(0, 0, 0, 0))
    assert q.root_st() == tuple(math.sqrt(a * b) for a, b in zip(q.s, q.t))


def test_check_111_refutes_where_the_slack_products_overflow():
    # (s_i + t_j m)(s_k + t_l m) overflows at every alpha, but the slack at
    # alpha = 1 is 4e200 - 4e300; no overflow warning may escape
    p = QubitWitnessParams(s=(1e200,) * 4, t=(1e200,) * 4, u=(1e300,) * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(alpha_slack(p, 1.0)) == pytest.approx(4e200 - 4e300, rel=1e-15)
        verdict = check_111(p)
        assert verdict.verdict is Verdict.REFUTED
        assert alpha_slack(p, verdict.alpha) < -1e-9


# t_j m overflows next to a zero factor, so a root product reads inf * 0;
# or u_1 conj(alpha) overflows.  The true slack is -1e306 |alpha|, and -inf.
# Each case: the parameters, and an alpha with its slack.
SLACK_TERM_OVERFLOWS = {
    "inf-times-zero": (
        QubitWitnessParams(s=(0.0,) * 4, t=(1e305, 1e305, 0.0, 0.0), u=(1e306, 0, 0, 0)),
        100.0,  # t_1 m = 1e309 overflows, but its factor s_1 + t_4 m is 0
        -1e308,
    ),
    "u-times-alpha": (
        QubitWitnessParams(s=(1.0,) * 4, t=(1.0,) * 4, u=(1.5e308 + 1.5e308j, 0, 0, 0)),
        1.0,
        -math.inf,
    ),
}


@pytest.mark.parametrize("name", SLACK_TERM_OVERFLOWS)
def test_check_111_refutes_where_slack_terms_overflow(name):
    p, alpha, slack = SLACK_TERM_OVERFLOWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(alpha_slack(p, alpha)) == pytest.approx(slack, rel=1e-15)
        verdict = check_111(p)
        assert verdict.verdict is Verdict.REFUTED
        assert alpha_slack(p, verdict.alpha) < 0


def test_check_111_refutes_where_the_slack_sums_overflow():
    # s_i + t_j m overflows, so the unscaled slack at alpha = 1 reads
    # inf - inf, though it is 4 (1.6e308 - 1.7e308) = -4e307 there
    p = QubitWitnessParams(s=(1.6e308,) * 4, t=(1.6e308,) * 4, u=(1.7e308,) * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(alpha_slack(p, 1.0))
        verdict = check_111(p)
    assert verdict.verdict is Verdict.REFUTED
    # the slack is homogeneous of degree 1, so the alpha violates every
    # power-of-two rescaling of the draw, by the reported amount rescaled
    small = QubitWitnessParams(s=(1.6e308 * 2**-64,) * 4, t=(1.6e308 * 2**-64,) * 4, u=(1.7e308 * 2**-64,) * 4)
    slack = float(alpha_slack(small, verdict.alpha))
    assert slack == pytest.approx(-4e307 * 2**-64, rel=0.05)
    assert float(verdict.evidence.split()[3]) == pytest.approx(-slack * 2**64, rel=1e-3)
    # and it is the verdict of the unscaled path run on the exactly scaled draw
    scaled, c = _scaled_for_slack(p)
    assert c < 1 and _scaled_for_slack(scaled) == (scaled, 1.0)
    assert check_111(scaled).alpha == verdict.alpha


@pytest.mark.parametrize(
    "p",
    [
        QubitWitnessParams(s=(1e200,) * 4, t=(1e200,) * 4, u=(1e300,) * 4),
        QubitWitnessParams(s=(1.6,) * 4, t=(1.6,) * 4, u=(1.7,) * 4),
        QubitWitnessParams(s=(1e300,) * 4, t=(1e-300,) * 4, u=(1e-3,) * 4),
    ],
)
def test_check_111_leaves_draws_without_overflow_unscaled(p):
    scaled, c = _scaled_for_slack(p)
    assert scaled is p and c == 1.0


def test_scaled_slack_terms_stay_finite_at_the_float_maximum():
    big = np.finfo(float).max
    p = QubitWitnessParams(s=(big,) * 4, t=(big,) * 4, u=(complex(big, -big),) * 4)
    scaled, c = _scaled_for_slack(p)
    radii = np.geomspace(1e-12, math.exp(_LOG_HI), 200)
    alphas = radii[:, None] * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16))[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(alpha_slack(scaled, alphas)).all()
        assert check_111(p).verdict is Verdict.REFUTED


def test_overflowing_sums_certify_nothing():
    # each sqrt(s_i t_i) = 1.6e308 < |u_i| = 1.7e308, but a sum of two overflows
    p = QubitWitnessParams(s=(1.6e308,) * 4, t=(1.6e308,) * 4, u=(1.7e308,) * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = classify(p)
    assert not any(rep.certified(cls) for cls in rep.classes)
    assert not rep.biseparability_witness
    # and the other way round: the sums hold, though both overflow
    q = QubitWitnessParams(s=(1.7e308,) * 4, t=(1.7e308,) * 4, u=(1.6e308,) * 4)
    assert all(check_pair_class(q, cls) for cls in PAIR_CLASSES)
    assert check_111(q).verdict is Verdict.CERTIFIED


def test_modulus_beyond_the_float_range():
    # |u_1| = 2.1e308 exceeds the float maximum, though both its parts are finite
    u = (1.5e308 + 1.5e308j, 0, 0, 0)
    # sqrt(s_i t_i) = 1.7e308 < |u_1|, but every pair and the sum make up for it
    p = QubitWitnessParams(s=(1.7e308,) * 4, t=(1.7e308,) * 4, u=u)
    assert _closed_form(p, DEFAULT_TOL).abs_u == (math.inf, 0.0, 0.0, 0.0)
    rep = classify(p)
    assert rep.classes[(2, 2, 2)].verdict is Verdict.REFUTED
    assert all(rep.certified(cls) for cls in [*PAIR_CLASSES, (1, 1, 1)])
    assert rep.biseparability_witness
    # with s = t = 1 no class survives
    q = QubitWitnessParams(s=(1.0,) * 4, t=(1.0,) * 4, u=u)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = classify(q)
    assert not any(rep.certified(cls) for cls in rep.classes)
    assert rep.classes[(1, 1, 1)].verdict is Verdict.REFUTED


def test_classify_reproduces_known_family_patterns():
    # (certified?) for classes (222), (122), (212), (221), (111)
    cases = {
        (0, 1, 1, 2): (False, True, False, False, True),
        (0, 0, 2, 2): (False, True, True, False, True),
        (0, 0, 0, 4): (False, False, False, False, True),
        (0, 2, 2, 2): (False, True, True, True, True),
    }
    order = ((2, 2, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 1, 1))
    for roots, pattern in cases.items():
        rep = classify(_params_from_roots(roots, (1, 1, 1, 1)))
        got = tuple(rep.certified(cls) for cls in order)
        assert got == pattern, f"roots {roots}: expected {pattern}, got {got}"


def test_classify_all_certified_when_u_zero():
    rng = np.random.default_rng(63)
    p = QubitWitnessParams(
        s=tuple(rng.uniform(0, 2, 4)), t=tuple(rng.uniform(0, 2, 4)), u=(0, 0, 0, 0)
    )
    rep = classify(p)
    assert all(cv.verdict is Verdict.CERTIFIED for cv in rep.classes.values())
    assert rep.biseparability_witness


def test_classify_monotone_consistency():
    rng = np.random.default_rng(64)
    order = {(2, 2, 2): 3, (1, 2, 2): 2, (2, 1, 2): 2, (2, 2, 1): 2, (1, 1, 1): 1}
    draws = [_rand_params(rng, u_scale=rng.uniform(0.2, 2.0)) for _ in range(60)]
    ties = _tie_params(np.random.default_rng(68), 60)
    for p in draws + ties:
        rep = classify(p)
        for cls, cv in rep.classes.items():
            if cv.verdict is Verdict.CERTIFIED:
                for smaller, scv in rep.classes.items():
                    if all(x <= y for x, y in zip(smaller, cls)):
                        assert scv.verdict is not Verdict.REFUTED
        # one slack rule serves every closed-form criterion, so classify
        # agrees with each public check, on exact ties as on generic draws
        top = check_222(p)
        assert rep.certified((2, 2, 2)) == top
        for cls in PAIR_CLASSES:
            assert rep.certified(cls) == (check_pair_class(p, cls) or top)
        assert rep.classes[(1, 1, 1)] == check_111(p)
        # the three pair classes hold the six index pairs between them
        assert rep.biseparability_witness == all(check_pair_class(p, cls) for cls in PAIR_CLASSES)
    # tie draws hold small integers, so every sum is exact and a tie must hold
    for p in ties:
        cf = _closed_form(p, DEFAULT_TOL)
        rst, au = cf.root_st, cf.abs_u

        def holds(idx):
            return sum(rst[i] for i in idx) >= sum(au[i] for i in idx)

        assert check_222(p) == all(holds((i,)) for i in range(4))
        for cls, pairs in PAIR_CLASSES.items():
            assert check_pair_class(p, cls) == all(holds(ij) for ij in pairs)
        if holds(range(4)):
            assert check_111(p).verdict is Verdict.CERTIFIED


def test_classify_monotone_inside_the_tolerance_band():
    # each |u_i| exceeds sqrt(s_i t_i) by less than ineq_abs times itself, so
    # (2,2,2) holds within tolerance.  The slack is relative, so in exact
    # arithmetic every pair sum then holds too; at the band's edge, where
    # |u_i| = sqrt(s_i t_i) (1 + ineq_abs), rounding alone decides each
    # inequality, and a pair sum can fail where the singles hold.  The
    # certified top class must still certify every smaller one, and say so
    # where their own sums fail
    ineq_abs = 1e-9
    draws = [QubitWitnessParams(s=(1, 1, 1, 1), t=(1, 1, 1, 1), u=(1.0000000009,) * 4)]
    rng = np.random.default_rng(69)
    for excess in [rng.uniform(0.0, 0.9, 4) for _ in range(40)] + [np.ones(4)] * 80:
        s, t = rng.uniform(0.2, 2.0, 4), rng.uniform(0.2, 2.0, 4)
        mags = np.sqrt(s * t) * (1 + excess * ineq_abs)
        p = QubitWitnessParams(s=tuple(s), t=tuple(t), u=tuple(mags * np.exp(2j * np.pi * rng.uniform(size=4))))
        if excess[0] < 1 or check_222(p):
            draws.append(p)
    dominated = 0
    for p in draws:
        rep = classify(p)
        assert all(cv.verdict is Verdict.CERTIFIED for cv in rep.classes.values()), p
        for cls in PAIR_CLASSES:
            own = check_pair_class(p, cls)
            dominated += not own
            assert rep.classes[cls].evidence.startswith("pair inequalities" if own else "dominated by certified class")
    # some edge draws fail a pair sum, so their pair classes rest on (2,2,2) alone
    assert dominated >= 1


@pytest.mark.parametrize(
    "s, t, u",
    [
        ((0, 1, 1, 2), (0, 1, 1, 2), (1, 1, 1, 1)),
        ((1, 1, 1, 1), (1, 1, 1, 1), (1.2, 0.9, 0.9, 1.2)),
        ((0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)),
        ((1, 1, 1, 1), (1, 1, 1, 1), (0.5, 0.5, 0.5, 0.5)),
    ],
)
def test_classify_scales_the_member_once(monkeypatch, s, t, u):
    # every closed-form verdict, the evidence, the flag and the (1,1,1) grid
    # read one record, made from one power-of-two scaling of the member
    calls = []
    scale = witness._scaled_for_slack

    def counted(p):
        calls.append(p)
        return scale(p)

    monkeypatch.setattr(witness, "_scaled_for_slack", counted)
    classify(QubitWitnessParams(s=s, t=t, u=u))
    assert len(calls) == 1


def _reference_draws():
    """Random, integer-tie and boundary draws at five scales, plus members whose sums or slack terms overflow.

    A boundary draw has |u_i| = sqrt(s_i t_i) (1 + d_i) with |d_i| <= 3e-9, on
    both sides of the 1e-9 tolerance band; half of them swap two |u_i|, so a
    pair sum sits on its boundary.
    """
    rng = np.random.default_rng(1515)
    base = [_rand_params(rng, u_scale=rng.uniform(0.2, 2.0)) for _ in range(30)] + _tie_params(rng, 30)
    for _ in range(40):
        s, t = rng.uniform(0.2, 2.0, 4), rng.uniform(0.2, 2.0, 4)
        mags = np.sqrt(s * t) * (1 + rng.uniform(-3e-9, 3e-9, 4))
        if rng.uniform() < 0.5:
            i, j = rng.choice(4, 2, replace=False)
            mags[i], mags[j] = mags[j], mags[i]
        base.append(QubitWitnessParams(s=tuple(s), t=tuple(t), u=tuple(mags * np.exp(2j * np.pi * rng.uniform(size=4)))))
    draws = [_scaled(p, lam) for lam in (1.0, 1e-150, 1e150, 1e200, 1e300) for p in base]
    big = np.finfo(float).max
    draws += [p for p, _, _ in SLACK_TERM_OVERFLOWS.values()] + [
        QubitWitnessParams(s=(1e200,) * 4, t=(1e200,) * 4, u=(1e300,) * 4),
        QubitWitnessParams(s=(1.6e308,) * 4, t=(1.6e308,) * 4, u=(1.7e308,) * 4),
        QubitWitnessParams(s=(1.7e308,) * 4, t=(1.7e308,) * 4, u=(1.6e308,) * 4),
        QubitWitnessParams(s=(1.7e308,) * 4, t=(1.7e308,) * 4, u=(1.5e308 + 1.5e308j, 0, 0, 0)),
        QubitWitnessParams(s=(big,) * 4, t=(big,) * 4, u=(complex(big, -big),) * 4),
    ]
    return draws


def test_classify_matches_the_closed_form_rules_written_out():
    # each closed-form verdict, the failing pair named in the evidence and the
    # flag follow the slack rule on the power-of-two-scaled member, summed in
    # index order; the rule is written out here, independently of classify
    draws = _reference_draws()
    assert len(draws) >= 400

    def holds(p, idx):
        q, _ = _scaled_for_slack(p)
        lhs, rhs = sum(q.root_st()[i] for i in idx), sum(abs(q.u[i]) for i in idx)
        return lhs >= rhs - 1e-9 * rhs

    seen = set()
    for p in draws:
        with np.errstate(over="ignore", invalid="ignore"):
            rep = classify(p, grid=AlphaGrid(4, 4))
        top = all(holds(p, (i,)) for i in range(4))
        assert rep.certified((2, 2, 2)) == top, p
        own = {cls: all(holds(p, ij) for ij in pairs) for cls, pairs in PAIR_CLASSES.items()}
        for cls, pairs in PAIR_CLASSES.items():
            evidence = rep.classes[cls].evidence
            if own[cls]:
                assert evidence.startswith("pair inequalities"), p
            elif top:
                assert evidence.startswith("dominated by certified class (2, 2, 2)"), p
            else:
                i, j = next(ij for ij in pairs if not holds(p, ij))
                assert rep.classes[cls].verdict is Verdict.REFUTED, p
                assert evidence.startswith(f"pair ({i + 1},{j + 1}):"), p
        whole = holds(p, range(4))
        assert rep.certified((1, 1, 1)) == (whole or top or any(own.values())), p
        assert rep.classes[(1, 1, 1)].evidence.startswith("sum criterion") == whole, p
        assert rep.biseparability_witness == all(own.values()), p
        seen.add((top, tuple(own.values()), whole))
    # the draws reach many combinations of the rules, not one or two
    assert len(seen) >= 10


def _scaled(p: QubitWitnessParams, lam) -> QubitWitnessParams:
    return QubitWitnessParams(s=tuple(lam * x for x in p.s), t=tuple(lam * x for x in p.t), u=tuple(lam * z for z in p.u))


def _verdicts(rep):
    return {cls: cv.verdict for cls, cv in rep.classes.items()}, rep.biseparability_witness


@pytest.mark.parametrize("lam", [pytest.param(2.0**e, id=f"2^{e}") for e in (40, -40, 400, -400)])
def test_classify_does_not_depend_on_scale(lam):
    # every slack is relative and a power of two scales every float exactly,
    # so the verdicts and the flag are those of the unscaled member
    rng = np.random.default_rng(76)
    draws = _tie_params(rng, 30) + [_rand_params(rng, u_scale=rng.uniform(0.2, 2.0)) for _ in range(30)]
    verdicts = set()
    for p in draws:
        want = _verdicts(classify(p))
        assert _verdicts(classify(_scaled(p, lam))) == want, p
        verdicts.update(want[0].values())
    assert verdicts == set(Verdict)


def test_small_members_are_not_certified_by_the_slack():
    # s = t = lam and u = 2 lam fail every class however small lam is; the
    # Choi matrix is not PSD and the see-saw finds a violating product vector
    lam = 1e-10
    p = QubitWitnessParams(s=(lam,) * 4, t=(lam,) * 4, u=(2 * lam,) * 4)
    rep = classify(p)
    assert set(_verdicts(rep)[0].values()) == {Verdict.REFUTED}
    assert not rep.biseparability_witness
    assert not is_completely_positive(family_choi(p))
    assert isinstance(violation_search(family_choi(p).choi, (2, 2, 2)), ViolationCertificate)
    # tie draws keep their (1,1,1) verdict at 1e-12 times their size
    rng = np.random.default_rng(72)
    ties = []
    while len(ties) < 40:
        q = _tie_params(rng, 1)[0]
        if check_111(q, AlphaGrid(1, 1)).verdict is not Verdict.CERTIFIED:
            ties.append(q)
    for q in ties:
        assert check_111(_scaled(q, 1e-12)).verdict is check_111(q).verdict is not Verdict.CERTIFIED
    # exact-boundary members sqrt(s_i t_i) = |u_i| hold (2,2,2) at any size
    for k in (1e-8, 1e8, 1e12):
        for a in rng.uniform(0.1, 10.0, (200, 4)):
            assert check_222(QubitWitnessParams(s=tuple(a * k), t=tuple(k / a), u=(k,) * 4))


def test_classify_pair_covariance_under_flip():
    # the flipped family member has relabeled parameters; its (1,2,2) status
    # must match the original (2,1,2) status
    rng = np.random.default_rng(65)
    sigma = Permutation3((1, 2, 0))
    for _ in range(50):
        p = _rand_params(rng, u_scale=rng.uniform(0.2, 2.0))
        s, t, u = p.s, p.t, p.u
        relabeled = QubitWitnessParams(
            s=(s[0], t[3], s[1], t[2]),
            t=(t[0], s[3], t[1], s[2]),
            u=(u[0], np.conj(u[3]), u[1], np.conj(u[2])),
        )
        np.testing.assert_allclose(
            permute_dual(family_choi(p), sigma).choi.mat,
            family_choi(relabeled).choi.mat,
            atol=1e-14,
        )
        assert check_pair_class(p, (2, 1, 2)) == check_pair_class(relabeled, (1, 2, 2))


def test_genuine_witness_properties():
    p = genuine_witness(2.0)
    assert p.s == (0.0, 2.0, 2.0, 2.0)
    assert p.t == (0.0, 0.5, 0.5, 0.5)
    assert p.u == (-1.0, 0.0, 0.0, 0.0)
    rep = classify(p)
    assert rep.biseparability_witness
    assert not check_222(p)
    cf = _closed_form(p, DEFAULT_TOL)
    rst, au = cf.root_st, cf.abs_u
    for j in range(1, 4):  # pairs containing the first index hold with equality
        assert rst[0] + rst[j] == au[0] + au[j] == 1.0


def test_genuine_witness_rejects_nonpositive_scale():
    with pytest.raises(NonPositive):
        genuine_witness(0.0)


def test_ghz_value_standard_state():
    val = ghz_value(1.0, (1 / math.sqrt(2), 0, 0, 0, 1 / math.sqrt(2)), 0.0)
    assert abs(val - (-1.0)) <= 1e-12


def test_ghz_value_no_overlap():
    assert ghz_value(1.0, (0, 0, 0, 0, 1), 0.3) == 0.0


def test_ghz_value_diagonal_term():
    # t = 2 means scale s = 1/2; only the first excited coefficient contributes
    assert abs(ghz_value(0.5, (0, 1, 0, 0, 0), 1.1) - 2.0) <= 1e-12


def test_ghz_value_random_draws_match_closed_form():
    rng = np.random.default_rng(66)
    for _ in range(200):
        lam = rng.uniform(0, 1, 5)
        s = rng.uniform(0.2, 5.0)
        theta = rng.uniform(0, 2 * np.pi)
        val = ghz_value(s, lam, theta)  # raises ConsistencyError on mismatch
        closed = (1 / s) * (lam[1] ** 2 + lam[2] ** 2 + lam[3] ** 2) - 2 * lam[0] * lam[4]
        assert abs(val - closed) <= 1e-10


def test_ghz_value_raises_when_the_pairing_disagrees_with_the_closed_form(monkeypatch):
    # the Choi pairing is cross-checked, so a pairing off by 1e-9 is caught
    true_pair = witness.pair
    monkeypatch.setattr(witness, "pair", lambda rho, phi: true_pair(rho, phi) + 1e-9)
    with pytest.raises(ConsistencyError, match="disagrees with closed form"):
        ghz_value(1.0, (1 / math.sqrt(2), 0, 0, 0, 1 / math.sqrt(2)), 0.0)


def test_alpha_grid_validation():
    with pytest.raises(ValueError):
        AlphaGrid(radii=0)


def _pair_bound_matrix(a, b, c, d, w, z, alpha):
    return np.array(
        [
            [a + d * abs(alpha) ** 2, w * np.conj(alpha) + np.conj(z) * alpha],
            [np.conj(w) * alpha + z * np.conj(alpha), c + b * abs(alpha) ** 2],
        ]
    )


def test_extremal_alpha_is_tight():
    # at alpha0 = (ac/bd)^{1/4} e^{i theta/2} the PSD condition collapses to
    # the scalar inequality, so a failing tuple is witnessed right there
    rng = np.random.default_rng(67)
    for _ in range(100):
        a, b, c, d = rng.uniform(0.05, 2.0, 4)
        w, z = (rng.standard_normal(2) @ np.array([1, 1j]) for _ in range(2))
        theta = np.angle(w * z)
        alpha0 = (a * c / (b * d)) ** 0.25 * np.exp(1j * theta / 2)
        holds = math.sqrt(a * b) + math.sqrt(c * d) >= abs(w) + abs(z)
        min_eig = np.linalg.eigvalsh(_pair_bound_matrix(a, b, c, d, w, z, alpha0))[0]
        if holds:
            assert min_eig >= -1e-9
        else:
            assert min_eig < 0
