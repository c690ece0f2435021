"""The two-qubit anti-diagonal witness family and its positivity classes.

Family members are 8 x 8 Hermitian Choi matrices with diagonal
(s1, s2, s3, s4, t4, t3, t2, t1) and anti-diagonal
(u1, u2, u3, u4, conj u4, conj u3, conj u2, conj u1) in the flat
lexicographic qubit basis.  For this family every positivity class in the
admissible region for qubits has an exact closed-form criterion except
(1, 1, 1), which is certified by sufficient conditions or refuted by a
grid-plus-descent search over a complex parameter.  Every closed-form
datum of a member comes from one record, ``_closed_form``, taken on the
member scaled once by an exact power of two.

The descent is ``_nelder_mead``, scipy's non-adaptive Nelder-Mead
unrolled in plain Python for exactly two variables; its docstring and the
constants it reads give its coefficients and stopping rule.  Given the
same objective it returns scipy's point bit for bit, so the package
imports no scipy.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .choi import BiLinearMap, from_choi, pair
from .errors import ConsistencyError, NonPositive
from .linalg import DEFAULT_TOL, Tolerance
from .tensor import TriDims, TriOperator, _check_count

QUBIT_DIMS = TriDims(2, 2, 2)

# index pairs (0-based) whose inequalities decide each mixed class
PAIR_CLASSES = {
    (1, 2, 2): ((0, 3), (1, 2)),
    (2, 1, 2): ((0, 2), (1, 3)),
    (2, 2, 1): ((0, 1), (2, 3)),
}

# fixed radius range and polish count of the (1,1,1) refutation grid
RADIUS_MIN = 1e-3
RADIUS_MAX = 1e3
REFINE = 4

# the polish's iteration cap and stopping tolerances (scipy's option names)
POLISH_MAXITER = 400
POLISH_XATOL = 1e-12
POLISH_FATOL = 1e-14

# scipy's non-adaptive Nelder-Mead coefficients and start-simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


@dataclass(frozen=True)
class QubitWitnessParams:
    """The 12 parameters of the family: s, t nonnegative, u complex."""

    s: tuple[float, float, float, float]
    t: tuple[float, float, float, float]
    u: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        s = tuple(float(x) for x in self.s)
        t = tuple(float(x) for x in self.t)
        u = tuple(complex(x) for x in self.u)
        if len(s) != 4 or len(t) != 4 or len(u) != 4:
            raise ValueError("s, t and u must each have 4 entries")
        if not all(map(math.isfinite, s + t)) or not all(map(cmath.isfinite, u)):
            raise ValueError("s, t and u must be finite")
        if min(s) < 0 or min(t) < 0:
            raise ValueError("s and t must be entrywise nonnegative")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)

    def root_st(self) -> tuple[float, float, float, float]:
        """sqrt(s_i t_i), finite for every member: split into sqrt(s_i) sqrt(t_i) where s_i t_i overflows."""
        return tuple(_root_product(si, ti) for si, ti in zip(self.s, self.t))


def _root_product(a: float, b: float) -> float:
    """sqrt(a b) for nonnegative floats, also where a b is not finite.

    Where a b overflows, sqrt(a) sqrt(b); where it is inf * 0, 0.
    """
    ab = a * b
    if ab < math.inf:
        return math.sqrt(ab)
    return 0.0 if a == 0 or b == 0 else math.sqrt(a) * math.sqrt(b)


def _root_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_root_product` elementwise on arrays; numpy warns where a b is not finite."""
    ab = a * b
    finite = ab < np.inf
    if finite.all():
        return np.sqrt(ab)
    return np.where(finite, np.sqrt(ab), np.where((a == 0) | (b == 0), 0.0, np.sqrt(a) * np.sqrt(b)))


class Verdict(enum.Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    NUMERICALLY_SUPPORTED = "numerically_supported"


@dataclass(frozen=True)
class ClassVerdict:
    verdict: Verdict
    evidence: str
    alpha: complex | None = None  # violating parameter for a refuted (1,1,1)


@dataclass(frozen=True)
class PositivityReport:
    """Per-class verdicts plus the all-pairs bi-separability-witness flag."""

    classes: dict[tuple[int, int, int], ClassVerdict] = field(default_factory=dict)
    biseparability_witness: bool = False

    def certified(self, cls) -> bool:
        return self.classes[tuple(cls)].verdict is Verdict.CERTIFIED


@dataclass(frozen=True)
class AlphaGrid:
    """Polar sampling grid for the (1,1,1) refutation search.

    ``radii`` radii, log-spaced over the fixed range RADIUS_MIN = 1e-3 to
    RADIUS_MAX = 1e3 so both small and large parameters are covered, times
    ``angles`` equally spaced angles; the REFINE = 4 grid points of least
    slack get a local derivative-free polish, :func:`_nelder_mead` in
    (log radius, angle), the radius clamped to three e-folds beyond the
    grid's range.
    """

    radii: int = 64
    angles: int = 64

    def __post_init__(self):
        _check_count("radii", self.radii, 1)
        _check_count("angles", self.angles, 1)


def family_choi(params: QubitWitnessParams) -> BiLinearMap:
    """Build the 8 x 8 family Choi matrix."""
    s, t, u = params.s, params.t, params.u
    m = np.zeros((8, 8), dtype=complex)
    diag = (s[0], s[1], s[2], s[3], t[3], t[2], t[1], t[0])
    for i, d in enumerate(diag):
        m[i, i] = d
    for i in range(4):
        m[i, 7 - i] = u[i]
        m[7 - i, i] = np.conj(u[i])
    return from_choi(m, QUBIT_DIMS)


def check_222(params: QubitWitnessParams, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact criterion for the top class: sqrt(s_i t_i) >= |u_i| for each i."""
    return _closed_form(params, tol).certifies((2, 2, 2))


def check_pair_class(params: QubitWitnessParams, cls, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact criterion for the three mixed classes, two index pairs each."""
    cls = tuple(cls)
    if cls not in PAIR_CLASSES:
        raise ValueError(f"not a pair class: {cls}")
    return _closed_form(params, tol).certifies(cls)


def alpha_slack(params: QubitWitnessParams, alpha) -> np.ndarray:
    """Slack of the (1,1,1) inequality at the complex parameter(s) ``alpha``.

    Nonnegative for every alpha exactly when the map is in the bottom
    class.  Vectorized over numpy arrays of alphas.  Terms that overflow
    read inf, without a warning, so the slack can read -inf.
    """
    alpha = np.asarray(alpha, dtype=complex)
    s, t, u = params.s, params.t, params.u
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.abs(alpha) ** 2
        lhs = _root_products(s[0] + t[3] * m, s[3] + t[0] * m) + _root_products(s[1] + t[2] * m, s[2] + t[1] * m)
        rhs = np.abs(u[0] * alpha.conj() + np.conj(u[3]) * alpha) + np.abs(
            u[1] * alpha.conj() + np.conj(u[2]) * alpha
        )
        return lhs - rhs


# keep the polish inside an extended grid range so radii cannot overflow
_LOG_LO = math.log(RADIUS_MIN) - 3.0
_LOG_HI = math.log(RADIUS_MAX) + 3.0


# every term of alpha_slack at |alpha| <= exp(_LOG_HI) is below 2**(e + 5),
# where e is the largest of the binary exponents (math.frexp) of max s, of
# max t times the largest m = |alpha|**2, and of u's largest real or
# imaginary part times the largest radius; e <= _EXP_MAX keeps them finite
_EXP_R = math.frexp(math.exp(_LOG_HI))[1]
_EXP_M = math.frexp(math.exp(_LOG_HI) ** 2)[1]
_EXP_MAX = 1018


def _scaled_for_slack(params: QubitWitnessParams) -> tuple[QubitWitnessParams, float]:
    """``params`` times a power of two c at which no term of the slack can overflow, and c.

    The slack is homogeneous of degree 1 in (s, t, u) and a power-of-two
    scale is exact, so the slack at c (s, t, u) is c times the slack at
    (s, t, u) wherever no term overflows or leaves the normal range.
    Where no term can overflow unscaled, c = 1 and ``params`` come back as
    they are.
    """
    e = max(
        math.frexp(max(params.s))[1],
        math.frexp(max(params.t))[1] + _EXP_M,
        math.frexp(max(max(abs(z.real), abs(z.imag)) for z in params.u))[1] + _EXP_R,
    )
    if e <= _EXP_MAX:
        return params, 1.0
    c = 2.0 ** (_EXP_MAX - e)
    return QubitWitnessParams(
        s=tuple(x * c for x in params.s),
        t=tuple(x * c for x in params.t),
        u=tuple(complex(z.real * c, z.imag * c) for z in params.u),
    ), c


# the index sets of the closed-form sums: the four singles, the six pairs and all four
_INDEX_SETS = (*((i,) for i in range(4)), *itertools.combinations(range(4), 2), (0, 1, 2, 3))
# the index sets whose inequalities decide each class with an exact criterion
_CRITERIA = {(2, 2, 2): _INDEX_SETS[:4], **PAIR_CLASSES}


@dataclass(frozen=True)
class _ClosedForm:
    """One member's closed-form record, as :func:`_closed_form` makes it."""

    scaled: QubitWitnessParams  # the member times the power of two ``scale``
    scale: float
    holds: dict[tuple[int, ...], bool]  # the slack rule on each index set of ``_INDEX_SETS``
    root_st: tuple[float, ...]  # the member's own sqrt(s_i t_i) and |u_i|, as the evidence prints them
    abs_u: tuple[float, ...]
    refute_below: float  # minus ineq_abs times the scaled member's largest entry

    def certifies(self, cls) -> bool:
        """The exact criterion of (2, 2, 2) or of a pair class."""
        return all(self.holds[idx] for idx in _CRITERIA[cls])


def _closed_form(params: QubitWitnessParams, tol: Tolerance) -> _ClosedForm:
    """Every closed-form datum of ``params``, from one :func:`_scaled_for_slack` call.

    The slack rule of every closed-form criterion: over an index set, the
    sum of sqrt(s_i t_i) is at least the sum of |u_i|, less ``ineq_abs``
    times that sum, both taken where they are finite, on the scaled member.
    """
    scaled, c = _scaled_for_slack(params)
    rst, au = scaled.root_st(), tuple(abs(z) for z in scaled.u)
    holds = {}
    for idx in _INDEX_SETS:
        lhs, rhs = sum(rst[i] for i in idx), sum(au[i] for i in idx)
        holds[idx] = lhs >= rhs - tol.ineq_abs * rhs
    refute_below = -tol.ineq_abs * max(scaled.s + scaled.t + au)
    return _ClosedForm(scaled, c, holds, params.root_st(), tuple(a / c for a in au), refute_below)


def _polish_alpha(log_radius: float, angle: float) -> complex:
    return math.exp(min(max(log_radius, _LOG_LO), _LOG_HI)) * cmath.exp(1j * angle)


def _polish_objective(params: QubitWitnessParams):
    """``alpha_slack`` at the single point ``_polish_alpha(*x)``, as a float.

    Bit for bit the value a 0-d ``alpha_slack`` call gives, in two numpy
    calls instead of about twenty: numpy's complex products by conj(u_i)
    and its complex ``abs`` round differently from Python's, so those stay
    numpy ufuncs (which give the same bits on a length-2 or length-3 array
    as on a 0-d one under numpy's AVX-512, AVX2 and baseline x86 loops);
    ``u_i * conj(alpha)``, the sums, ``sqrt`` and ``**`` round the same in
    Python, so they move there.
    """
    s, t, u = params.s, params.t, params.u
    conj_u = np.array([u[3].conjugate(), u[2].conjugate()])

    def objective(x) -> float:
        alpha = _polish_alpha(x[0], x[1])
        ca = alpha.conjugate()
        p3, p2 = (conj_u * alpha).tolist()
        a, r1, r2 = np.abs([alpha, u[0] * ca + p3, u[1] * ca + p2]).tolist()
        m = a**2
        lhs = _root_product(s[0] + t[3] * m, s[3] + t[0] * m) + _root_product(s[1] + t[2] * m, s[2] + t[1] * m)
        return lhs - (r1 + r2)

    return objective


def _ordered(s0, s1, s2, f0, f1, f2):
    """The vertices ``s0, s1, s2`` and values ``f0, f1, f2``, ordered as numpy's argsort orders 3 values.

    An insertion sort under numpy's float less-than, ``a < b or (b is NaN
    and a is not)``: only a strictly smaller value moves forward, so ties
    (NaN against NaN, -0.0 against 0.0) keep their places and NaN goes last.
    """
    if f1 < f0 or f0 != f0 and f1 == f1:
        s0, s1, f0, f1 = s1, s0, f1, f0
    if f2 < f1 or f1 != f1 and f2 == f2:
        s1, s2, f1, f2 = s2, s1, f2, f1
        if f1 < f0 or f0 != f0 and f1 == f1:
            s0, s1, f0, f1 = s1, s0, f1, f0
    return s0, s1, s2, f0, f1, f2


def _nelder_mead(f, x0):
    """Minimize ``f`` over two real variables from ``x0``; return the best vertex and its value.

    A copy of ``scipy.optimize.minimize(f, x0, method="Nelder-Mead")`` with
    its default (non-adaptive) coefficients, no bounds, ``maxfev`` unset and
    ``options={"maxiter": POLISH_MAXITER, "xatol": POLISH_XATOL, "fatol":
    POLISH_FATOL}``, unrolled for two variables: the vertices ``s0, s1, s2``
    (tuples passed to ``f``) and their values ``f0, f1, f2`` are locals,
    every step is written per coordinate, and :func:`_ordered` re-sorts
    them as scipy's argsort does.  Each step evaluates ``f`` at the same
    points in the same order as scipy, each point from the same float
    expressions (scipy's coefficient products folded, which changes no
    value), so the two return the same vertex bit for bit.
    """
    maxiter, xatol, fatol = POLISH_MAXITER, POLISH_XATOL, POLISH_FATOL
    # (1 + a) xbar - a w for a = rho (reflect), rho chi (expand), psi rho (contract outside)
    reflect, expand, outside = 1 + _RHO, 1 + _RHO * _CHI, 1 + _PSI * _RHO
    rho, rho_chi, psi_rho = _RHO, _RHO * _CHI, _PSI * _RHO
    # (1 - psi) xbar + psi w (contract inside); s0 + sigma (s - s0) (shrink towards s0)
    inside, psi, sigma = 1 - _PSI, _PSI, _SIGMA

    x, y = x0
    s0 = (x, y)
    s1 = ((1 + _NONZDELT) * x if x != 0 else _ZDELT, y)
    s2 = (x, (1 + _NONZDELT) * y if y != 0 else _ZDELT)
    s0, s1, s2, f0, f1, f2 = _ordered(s0, s1, s2, f(s0), f(s1), f(s2))

    for _ in range(maxiter - 1):
        (a0, b0), (a1, b1), (a2, b2) = s0, s1, s2
        if (
            abs(a1 - a0) <= xatol
            and abs(b1 - b0) <= xatol
            and abs(a2 - a0) <= xatol
            and abs(b2 - b0) <= xatol
            and abs(f0 - f1) <= fatol
            and abs(f0 - f2) <= fatol
        ):
            break

        ca, cb = (a0 + a1) / 2, (b0 + b1) / 2
        xr = (reflect * ca - rho * a2, reflect * cb - rho * b2)
        fxr = f(xr)
        shrink = False
        if fxr < f0:
            xe = (expand * ca - rho_chi * a2, expand * cb - rho_chi * b2)
            fxe = f(xe)
            s2, f2 = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < f1:
            s2, f2 = xr, fxr
        elif fxr < f2:
            xc = (outside * ca - psi_rho * a2, outside * cb - psi_rho * b2)
            fxc = f(xc)
            if fxc <= fxr:
                s2, f2 = xc, fxc
            else:
                shrink = True
        else:
            xcc = (inside * ca + psi * a2, inside * cb + psi * b2)
            fxcc = f(xcc)
            if fxcc < f2:
                s2, f2 = xcc, fxcc
            else:
                shrink = True
        if shrink:
            s1 = (a0 + sigma * (a1 - a0), b0 + sigma * (b1 - b0))
            f1 = f(s1)
            s2 = (a0 + sigma * (a2 - a0), b0 + sigma * (b2 - b0))
            f2 = f(s2)
        s0, s1, s2, f0, f1, f2 = _ordered(s0, s1, s2, f0, f1, f2)
    return s0, f0


def check_111(
    params: QubitWitnessParams,
    grid: AlphaGrid = AlphaGrid(),
    tol: Tolerance = DEFAULT_TOL,
    *,
    closed_form: _ClosedForm | None = None,
) -> ClassVerdict:
    """One-sided test of the bottom class.

    Certified when the summed closed-form condition holds, or when the top
    class or any mixed class holds (the class cones shrink as the triplets
    grow, so a bigger class implies the bottom one).  Refuted with a
    witnessing alpha when the inequality fails beyond tolerance somewhere on
    the refined grid.  Otherwise the verdict is NumericallySupported, which
    is explicitly not a proof.  All of these read ``closed_form``, the
    member's record under ``tol`` (made here unless :func:`classify` passes
    its own): where a term of the slack could overflow, the grid and polish
    run on (s, t, u) scaled down by a power of two, and the evidence is
    given in the original units.  The tolerance is ``ineq_abs`` times the
    member's largest entry, on the same scale.
    """
    cf = _closed_form(params, tol) if closed_form is None else closed_form
    if cf.holds[(0, 1, 2, 3)]:
        return ClassVerdict(Verdict.CERTIFIED, "sum criterion: sum sqrt(s_i t_i) >= sum |u_i|")
    for cls in _CRITERIA:
        if cf.certifies(cls):
            return ClassVerdict(Verdict.CERTIFIED, f"dominated by certified class {cls}")

    radii = np.geomspace(RADIUS_MIN, RADIUS_MAX, grid.radii)
    angles = np.linspace(0.0, 2.0 * np.pi, grid.angles, endpoint=False)
    alphas = radii[:, None] * np.exp(1j * angles[None, :])
    slack = alpha_slack(cf.scaled, alphas)

    objective = _polish_objective(cf.scaled)
    best_alpha, best_slack = None, np.inf
    for idx in np.argsort(slack, axis=None)[:REFINE]:
        alpha0 = alphas.ravel()[idx]
        (log_radius, angle), val = _nelder_mead(objective, (math.log(abs(alpha0)), float(np.angle(alpha0))))
        if val < best_slack:
            best_alpha, best_slack = _polish_alpha(log_radius, angle), val
    if best_slack < cf.refute_below:
        return ClassVerdict(
            Verdict.REFUTED,
            f"inequality fails by {-best_slack / cf.scale:.3e} at alpha = {best_alpha:.6g}",
            alpha=complex(best_alpha),
        )
    return ClassVerdict(
        Verdict.NUMERICALLY_SUPPORTED,
        f"no violating alpha found on a {grid.radii} x {grid.angles} grid with local descent",
    )


def classify(
    params: QubitWitnessParams,
    tol: Tolerance = DEFAULT_TOL,
    grid: AlphaGrid = AlphaGrid(),
) -> PositivityReport:
    """Verdicts for all five classes plus the bi-separability-witness flag.

    Every verdict, its evidence and the flag read one closed-form record.
    The exact criteria are chained through the class order (a certified
    bigger class certifies every smaller one) so the report is monotone by
    construction even at tolerance boundaries.
    """
    cf = _closed_form(params, tol)
    rst, au = cf.root_st, cf.abs_u
    classes: dict[tuple[int, int, int], ClassVerdict] = {}

    top = cf.certifies((2, 2, 2))
    if top:
        margin = min(r - a for r, a in zip(rst, au))
        classes[(2, 2, 2)] = ClassVerdict(
            Verdict.CERTIFIED, f"sqrt(s_i t_i) >= |u_i| for all i (min margin {margin:.3e})"
        )
    else:
        bad = min(range(4), key=lambda i: rst[i] - au[i])
        classes[(2, 2, 2)] = ClassVerdict(
            Verdict.REFUTED, f"sqrt(s_{bad + 1} t_{bad + 1}) = {rst[bad]:.6g} < |u_{bad + 1}| = {au[bad]:.6g}"
        )

    for cls, pairs in PAIR_CLASSES.items():
        if cf.certifies(cls):
            classes[cls] = ClassVerdict(Verdict.CERTIFIED, f"pair inequalities {pairs} hold")
        elif top:
            classes[cls] = ClassVerdict(Verdict.CERTIFIED, "dominated by certified class (2, 2, 2)")
        else:
            i, j = next(p for p in pairs if not cf.holds[p])
            classes[cls] = ClassVerdict(
                Verdict.REFUTED,
                f"pair ({i + 1},{j + 1}): {rst[i]:.6g} + {rst[j]:.6g} < {au[i]:.6g} + {au[j]:.6g}",
            )

    classes[(1, 1, 1)] = check_111(params, grid, tol, closed_form=cf)

    all_pairs = all(cf.holds[p] for p in itertools.combinations(range(4), 2))
    return PositivityReport(classes=classes, biseparability_witness=all_pairs)


def genuine_witness(s: float) -> QubitWitnessParams:
    """Family parameters of the genuine-entanglement witness with scale s > 0.

    The Choi matrix has diagonal (0, s, s, s, t, t, t, 0) with t = 1/s and
    -1 in the two corners; all six pair inequalities hold, so a negative
    pairing against a state certifies genuine entanglement.
    """
    s = float(s)
    if s <= 0:
        raise NonPositive(f"scale must be > 0, got {s}")
    t = 1.0 / s
    return QubitWitnessParams(s=(0.0, s, s, s), t=(0.0, t, t, t), u=(-1.0, 0.0, 0.0, 0.0))


def ghz_value(s: float, lambdas, theta: float) -> float:
    """Pairing of a GHZ-type pure state against the genuine witness.

    The state is lam0|000> + lam1 e^{i theta}|100> + lam2|101> + lam3|110>
    + lam4|111> with nonnegative coefficients.  The pairing is evaluated
    through the Choi machinery and cross-checked against the closed form
    t*(lam1^2 + lam2^2 + lam3^2) - 2*lam0*lam4 within 1e-10.
    """
    lam = tuple(float(x) for x in lambdas)
    if len(lam) != 5:
        raise ValueError("expected 5 coefficients")
    if min(lam) < 0:
        raise ValueError("coefficients must be nonnegative")
    psi = np.zeros(8, dtype=complex)
    psi[0] = lam[0]
    psi[4] = lam[1] * np.exp(1j * theta)
    psi[5] = lam[2]
    psi[6] = lam[3]
    psi[7] = lam[4]
    rho = TriOperator(QUBIT_DIMS, np.outer(psi, psi.conj()))
    value = pair(rho, family_choi(genuine_witness(s)))
    closed = (1.0 / s) * (lam[1] ** 2 + lam[2] ** 2 + lam[3] ** 2) - 2.0 * lam[0] * lam[4]
    if abs(value - closed) > 1e-10:
        raise ConsistencyError(
            f"pairing {value} disagrees with closed form {closed} beyond 1e-10"
        )
    return float(value.real)
