"""The three benchmark workloads: inputs, the timed op, and the output check.

Each workload is a closed loop driven by one client: op ``i`` is built by
``make_input(i)`` (untimed), run by ``op`` (timed) and judged by ``check``
(untimed).  Inputs depend only on the run seed and ``i``, so a replay of
the same op indices sees the same inputs.  Checks use plain numpy and the
formulas stated in triwit's docstrings, never the code under test.

Certified qubit witnesses, in ``seesaw-qubit`` and in certify-mix's CLI
``search`` rounds, cycle through a fixed corpus.  A qubit witness's see-saw
cost is set by the witness itself (the same witness under three restart
seeds varies by under 10%, different witnesses by more than 30x), so
witnesses drawn afresh from each seed would make the run-to-run spread a
property of the draw, not of the code.  The run seed picks the corpus
order in every pass, each op's see-saw seed and every other input.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import triwit
import triwit.cli
from triwit import (
    ALL_PERMUTATIONS,
    AlphaGrid,
    NoViolation,
    QubitWitnessParams,
    SeesawConfig,
    TriDims,
    TriOperator,
    TriVector,
    ViolationCertificate,
)

# corpus draws are independent of the run seed; 1006 is acceptance criterion 6's seed
CORPUS_SEED = 1006
# certify-mix's CLI ``search`` rounds: a run's ~120 of them cover a 40-witness
# corpus about three times, and 2 restarts keep each round's see-saw short,
# since this workload is predicted not to move with see-saw changes
MIX_CORPUS = 40
MIX_SEARCH_RESTARTS = 2
# one random Hermitian's restarts ran 65 to 200 sweeps depending on the start;
# the cap keeps seesaw-wide's cost, which is per-sweep arithmetic, steady
WIDE_MAX_SWEEPS = 60
PAIR_CLASSES = {
    (1, 2, 2): ((0, 3), (1, 2)),
    (2, 1, 2): ((0, 2), (1, 3)),
    (2, 2, 1): ((0, 1), (2, 3)),
}
CLASS_ORDER = tuple(PAIR_CLASSES)
INEQ = 1e-9  # triwit's default inequality and PSD slack


class Wrong(Exception):
    """An op returned an output that its check rejects."""


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _lam_range(w: np.ndarray) -> tuple[float, float]:
    """Least eigenvalue and spectral norm of a Hermitian matrix."""
    lam = np.linalg.eigvalsh(w)
    return float(lam[0]), float(max(abs(lam[0]), abs(lam[-1])))


def rank_triplet(vec: np.ndarray, dims, rel: float = 1e-9) -> tuple[int, int, int]:
    """Mode-unfolding ranks, computed here with numpy alone."""
    t = np.asarray(vec).reshape(tuple(dims))
    out = []
    for mode in range(3):
        s = np.linalg.svd(np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1), compute_uv=False)
        out.append(int(np.count_nonzero(s > rel * s[0])) if s.size and s[0] > 0 else 0)
    return tuple(out)


def _cone_vector(rng, dims, target) -> np.ndarray:
    """Unit vector with rank triplet at most ``target``: orthonormal factors and a dense core."""
    facs = [np.linalg.qr(_complex(rng, (d, k)))[0] for d, k in zip(dims, target)]
    v = np.einsum("xi,yj,zk,ijk->xyz", *facs, _complex(rng, tuple(target))).ravel()
    return v / np.linalg.norm(v)


def _certified_witness(rng, cls) -> QubitWitnessParams:
    """A member of pair class ``cls``, drawn as acceptance criterion 6 draws them.

    Copied from the acceptance suite so that edits to the tests cannot move
    the benchmark's inputs; the class inequality is checked with the
    closed form rather than with triwit.
    """
    pairs = PAIR_CLASSES[cls]
    while True:
        roots = rng.uniform(0.0, 1.5, 4)
        mags = rng.uniform(0.05, 1.0, 4)
        scale = min((roots[i] + roots[j]) / (mags[i] + mags[j]) for i, j in pairs)
        mags = mags * scale * rng.uniform(0.3, 0.98)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 4))
        if all(roots[i] + roots[j] >= mags[i] + mags[j] - INEQ for i, j in pairs):
            return QubitWitnessParams(s=tuple(roots), t=tuple(roots), u=tuple(mags * phases))


def _check_search(outcome, wmat: np.ndarray, target, expect_violation: bool | None) -> float:
    """Validate a violation_search outcome; return its gap (value - lambda_min) / ||W||_2."""
    lmin, norm2 = _lam_range(wmat)
    frob = np.linalg.norm(wmat)
    if isinstance(outcome, ViolationCertificate):
        value, xi = outcome.value, outcome.xi
        if expect_violation is False:
            raise Wrong(f"certificate {value:.3e} for a witness that is positive on the cone")
        if not value < -INEQ * frob:
            raise Wrong(f"certificate value {value:.3e} is not negative")
    elif isinstance(outcome, NoViolation):
        value, xi = outcome.best_value, outcome.best_xi
        if expect_violation is True:
            raise Wrong(f"no violation found (best {value:.3e}) where one exists")
    else:
        raise Wrong(f"unexpected outcome {type(outcome).__name__}")
    data = xi.data
    if abs(np.linalg.norm(data) - 1.0) > 1e-9:
        raise Wrong("returned vector is not unit norm")
    if any(r > t for r, t in zip(rank_triplet(data, xi.dims.as_tuple()), target)):
        raise Wrong(f"returned vector leaves the rank-triplet cone {tuple(target)}")
    if abs((data.conj() @ wmat @ data).real - value) > 1e-9 * frob:
        raise Wrong("returned value does not match <xi|W|xi>")
    if value < lmin - 1e-9 * norm2:
        raise Wrong(f"value {value:.6g} is below lambda_min {lmin:.6g}")
    return (value - lmin) / norm2


class Workload:
    name = ""
    # ops in one whole pass of the workload's input mix; a timed run ends on a
    # pass boundary, so every run sees each kind of input equally often
    cycle = 1

    def make_input(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> float | None:
        """Raise Wrong for a bad output; return the op's search gap, if it has one."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class _Corpus:
    """Seed-ordered passes over a fixed corpus of ``size`` entries."""

    def __init__(self, seed: int, tag: int, size: int):
        self.seed, self.tag, self.size = seed, tag, size
        self._perms: dict[int, np.ndarray] = {}

    def index(self, k: int) -> int:
        rounds, pos = divmod(k, self.size)
        if rounds not in self._perms:
            self._perms[rounds] = np.random.default_rng([self.seed, self.tag, rounds]).permutation(self.size)
        return int(self._perms[rounds][pos])

    def rng(self, j: int) -> np.random.Generator:
        return np.random.default_rng([CORPUS_SEED, self.tag, j])


@dataclass
class SearchInput:
    w: TriOperator
    target: tuple
    cfg: SeesawConfig
    expect_violation: bool | None


class SeesawQubit(Workload):
    """violation_search on 8 x 8 family witnesses: 5 in 6 certified pair-class, 1 in 6 genuine."""

    name = "seesaw-qubit"

    def __init__(self, seed: int, restarts: int = 20, corpus: int = 20):
        self.seed, self.restarts = seed, restarts
        self.corpus = _Corpus(seed, 1, corpus)
        # blocks of 5 corpus witnesses and 1 genuine one, until the corpus is covered
        self.cycle = 6 * corpus // math.gcd(corpus, 5)

    def make_input(self, i: int) -> SearchInput:
        rng = np.random.default_rng([self.seed, 1, i])
        cfg = SeesawConfig(restarts=self.restarts, seed=int(rng.integers(2**31)))
        block, slot = divmod(i, 6)
        if slot == 5:
            params = triwit.genuine_witness(rng.uniform(0.3, 3.0))
            target, expect = (2, 2, 2), True
        else:
            j = self.corpus.index(5 * block + slot)
            target, expect = CLASS_ORDER[j % 3], False
            params = _certified_witness(self.corpus.rng(j), target)
        return SearchInput(triwit.family_choi(params).choi, target, cfg, expect)

    def op(self, inp: SearchInput):
        return triwit.violation_search(inp.w, inp.target, inp.cfg)

    def check(self, inp: SearchInput, out) -> float:
        gap = _check_search(out, inp.w.mat, inp.target, inp.expect_violation)
        # the genuine witness's cone at (2, 2, 2) is the whole space, so the
        # search must reach its least eigenvalue, -1
        if inp.expect_violation and abs(out.value + 1.0) > 1e-6:
            raise Wrong(f"genuine witness certificate {out.value:.9f} is not within 1e-6 of -1")
        return gap


class SeesawWide(Workload):
    """violation_search at (6, 6, 6) with target (3, 3, 3): planted violations and random Hermitians."""

    name = "seesaw-wide"
    cycle = 5

    def __init__(self, seed: int, dims=(6, 6, 6), target=(3, 3, 3), restarts: int = 2):
        self.seed, self.restarts = seed, restarts
        self.dims, self.target = TriDims(*dims), tuple(target)

    def make_input(self, i: int) -> SearchInput:
        rng = np.random.default_rng([self.seed, 2, i])
        cfg = SeesawConfig(restarts=self.restarts, max_sweeps=WIDE_MAX_SWEEPS, seed=int(rng.integers(2**31)))
        n = self.dims.total
        if i % 5 == 4:
            # a shifted random Hermitian: long descents, either outcome possible
            g = _complex(rng, (n, n))
            h = (g + g.conj().T) / 2.0
            w = h - rng.uniform(0.4, 0.9) * np.linalg.eigvalsh(h)[0] * np.eye(n)
            expect = None
        else:
            # P - mu |phi><phi| with phi in the cone and mu above ||P||: a certificate exists
            g = _complex(rng, (n, n))
            p = g @ g.conj().T / n
            phi = _cone_vector(rng, self.dims.as_tuple(), self.target)
            mu = rng.uniform(1.5, 3.0) * np.linalg.eigvalsh(p)[-1]
            w = p - mu * np.outer(phi, phi.conj())
            expect = True
        return SearchInput(TriOperator(self.dims, (w + w.conj().T) / 2.0), self.target, cfg, expect)

    def op(self, inp: SearchInput):
        return triwit.violation_search(inp.w, inp.target, inp.cfg)

    def check(self, inp: SearchInput, out) -> float:
        return _check_search(out, inp.w.mat, inp.target, inp.expect_violation)


# -- certify-mix ----------------------------------------------------------------

CLI_KINDS = ("sr", "classify", "pair", "gen", "search")
# malformed inputs; the documented exit-code contract maps each to 2 (input error).
# They are probed once per run, outside the timed ops: see CertifyMix.probe_malformed.
MALFORMED = ("no-data", "two-dims", "string-data", "zero-target")


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).ravel()]


def _root_st(p: QubitWitnessParams):
    return [math.sqrt(s * t) for s, t in zip(p.s, p.t)]


def _slack(p: QubitWitnessParams, alpha) -> np.ndarray:
    """The (1,1,1) inequality slack, as stated in witness.alpha_slack's docstring."""
    alpha = np.asarray(alpha, dtype=complex)
    s, t, u = p.s, p.t, p.u
    m = np.abs(alpha) ** 2
    lhs = np.sqrt((s[0] + t[3] * m) * (s[3] + t[0] * m)) + np.sqrt((s[1] + t[2] * m) * (s[2] + t[1] * m))
    rhs = np.abs(u[0] * alpha.conj() + np.conj(u[3]) * alpha) + np.abs(u[1] * alpha.conj() + np.conj(u[2]) * alpha)
    return lhs - rhs


def _expected_classes(p: QubitWitnessParams) -> tuple[dict, bool]:
    """Closed-form certified flags for (2,2,2) and the pair classes, and the bi-separability flag."""
    rst, au = _root_st(p), [abs(x) for x in p.u]
    ok = lambda i, j: rst[i] + rst[j] >= au[i] + au[j] - INEQ  # noqa: E731
    top = all(r >= a - INEQ for r, a in zip(rst, au))
    flags = {(2, 2, 2): top}
    for cls, pairs in PAIR_CLASSES.items():
        flags[cls] = top or all(ok(i, j) for i, j in pairs)
    bisep = all(ok(i, j) for i in range(4) for j in range(i + 1, 4))
    return flags, bisep


def _check_classify(p: QubitWitnessParams, classes: dict, bisep: bool) -> None:
    """``classes`` maps each class triple to (verdict string, alpha or None)."""
    flags, want_bisep = _expected_classes(p)
    for cls, certified in flags.items():
        if (classes[cls][0] == "certified") != certified:
            raise Wrong(f"class {cls}: verdict {classes[cls][0]} contradicts the closed form")
    if bisep != want_bisep:
        raise Wrong("bi-separability flag contradicts the closed form")
    verdict, alpha = classes[(1, 1, 1)]
    if sum(_root_st(p)) >= sum(abs(x) for x in p.u) - INEQ:
        if verdict != "certified":
            raise Wrong("(1,1,1) not certified although the sum criterion holds")
    elif verdict == "refuted":
        if not _slack(p, alpha) < 0:
            raise Wrong(f"(1,1,1) refuted at alpha {alpha} where the slack is nonnegative")
    elif verdict == "numerically_supported":
        radii = np.geomspace(1e-3, 1e3, 48)[:, None]
        angles = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False))[None, :]
        if _slack(p, radii * angles).min() < -1e-6:
            raise Wrong("(1,1,1) numerically supported although a coarse grid violates it")
    else:
        raise Wrong(f"(1,1,1) verdict {verdict} without the sum criterion")


@dataclass
class MixInput:
    params: tuple
    xi: TriVector
    choi_psd: TriOperator
    choi_indef: TriOperator
    rho: TriOperator
    phi: TriOperator
    sample: tuple
    sample_rng: np.random.Generator
    cli_kind: str
    argv: list
    expect: dict


class CertifyMix(Workload):
    """One round of classification, rank, Choi, pairing, sampling and CLI work; no see-saw descent."""

    name = "certify-mix"

    def __init__(
        self,
        seed: int,
        workdir: Path,
        admissible_dims=(4, 4, 4),
        grid: AlphaGrid = AlphaGrid(),
    ):
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.admissible_dims = TriDims(*admissible_dims)
        self.grid = grid
        self.corpus = _Corpus(seed, 1, MIX_CORPUS)
        # each subcommand 4 times per cycle
        self.schedule = CLI_KINDS * 4
        self.cycle = len(self.schedule)
        self._orders: dict[int, np.ndarray] = {}

    def close(self) -> None:
        for f in self.dir.glob("*.json"):
            f.unlink()
        self.dir.rmdir()

    def _cli_round(self, i: int) -> tuple[str, int]:
        """The CLI kind of op ``i``, and how many rounds of that kind came before it."""
        cycle, pos = divmod(i, len(self.schedule))
        if cycle not in self._orders:
            self._orders[cycle] = np.random.default_rng([self.seed, 3, cycle]).permutation(len(self.schedule))
        kinds = [self.schedule[k] for k in self._orders[cycle][: pos + 1]]
        kind = kinds[-1]
        return kind, cycle * self.schedule.count(kind) + kinds.count(kind) - 1

    def _family(self, rng, grid: bool) -> QubitWitnessParams:
        """A family member; with ``grid`` it fails the sum criterion, so check_111 runs its grid and polish."""
        s, t = rng.uniform(0.0, 1.5, 4), rng.uniform(0.0, 1.5, 4)
        mags = rng.uniform(0.05, 1.0, 4)
        ratio = rng.uniform(1.05, 1.6) if grid else rng.uniform(0.5, 0.95)
        mags *= ratio * np.sqrt(s * t).sum() / mags.sum()
        return QubitWitnessParams(s=tuple(s), t=tuple(t), u=tuple(mags * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))))

    def _write(self, name: str, doc) -> str:
        path = self.dir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def make_input(self, i: int) -> MixInput:
        rng = np.random.default_rng([self.seed, 3, i])
        # one draw certified by the sum criterion and one that needs the grid, so
        # every op carries the same classification work
        params = (self._family(rng, grid=False), self._family(rng, grid=True))
        d = TriDims(*(int(x) for x in rng.integers(1, 5, 3)))
        xi = TriVector(d, _complex(rng, d.total))
        dk = TriDims(*(int(x) for x in rng.integers(1, 4, 3)))
        g = _complex(rng, (dk.total, dk.total))
        h = _complex(rng, (dk.total, dk.total))
        h = (h + h.conj().T) / 2.0
        lam = np.linalg.eigvalsh(h)
        # centred and shifted down: the least eigenvalue is at most -1
        h -= ((lam[0] + lam[-1]) / 2.0 + 1.0) * np.eye(dk.total)
        dp = TriDims(*(int(x) for x in rng.integers(1, 4, 3)))
        r = _complex(rng, (dp.total, dp.total))
        c = _complex(rng, (dp.total, dp.total))
        ds = TriDims(*(int(x) for x in rng.integers(1, 4, 3)))
        target = tuple(int(rng.integers(1, x + 1)) for x in ds.as_tuple())
        kind, nth = self._cli_round(i)
        argv, expect = self._cli_case(kind, rng, nth)
        return MixInput(
            params=params,
            xi=xi,
            choi_psd=TriOperator(dk, g @ g.conj().T),
            choi_indef=TriOperator(dk, h),
            rho=TriOperator(dp, r @ r.conj().T / np.trace(r @ r.conj().T).real),
            phi=TriOperator(dp, (c + c.conj().T) / 2.0),
            sample=(ds, target, int(rng.integers(1, 5))),
            sample_rng=np.random.default_rng([self.seed, 4, i]),
            cli_kind=kind,
            argv=argv,
            expect=expect,
        )

    def _cli_case(self, kind: str, rng, nth: int) -> tuple[list, dict]:
        out = str(self.dir / "out.json")
        if kind == "sr":
            d = tuple(int(x) for x in rng.integers(1, 5, 3))
            v = _complex(rng, int(np.prod(d)))
            path = self._write("vec.json", {"dims": list(d), "data": _pairs(v)})
            return ["sr", path, "--out", out], {"rank": list(rank_triplet(v, d))}
        if kind == "classify":
            p = self._family(rng, grid=nth % 2 == 1)
            argv = [
                "classify",
                "--s", ",".join(repr(x) for x in p.s),
                "--t", ",".join(repr(x) for x in p.t),
                "--u=" + ",".join(f"{z.real!r}:{z.imag!r}" for z in p.u),
                "--out", out,
            ]
            return argv, {"params": p}
        if kind == "pair":
            d = tuple(int(x) for x in rng.integers(1, 4, 3))
            n = int(np.prod(d))
            r = _complex(rng, (n, n))
            rho = r @ r.conj().T / np.trace(r @ r.conj().T).real
            c = _complex(rng, (n, n))
            c = (c + c.conj().T) / 2.0
            state = self._write("state.json", {"dims": list(d), "rows": n, "cols": n, "data": _pairs(rho)})
            cmap = self._write("map.json", {"dims": list(d), "rows": n, "cols": n, "data": _pairs(c)})
            value = complex(np.sum(c * rho))
            return ["pair", state, "--map", cmap, "--out", out], {"value": value, "scale": float(np.linalg.norm(c))}
        if kind == "gen":
            d = tuple(int(x) for x in rng.integers(1, 5, 3))
            adm = [
                (a, b, c)
                for a in range(1, d[0] + 1)
                for b in range(1, d[1] + 1)
                for c in range(1, d[2] + 1)
                if a <= b * c and b <= a * c and c <= a * b
            ]
            t = adm[int(rng.integers(len(adm)))]
            argv = ["gen", "--sr", ",".join(map(str, t)), "--dims", ",".join(map(str, d)), "--out", out]
            return argv, {"rank": list(t)}
        # search: a corpus drawn like seesaw-qubit's, for the reason given at the top of this module
        j = self.corpus.index(nth)
        cls = CLASS_ORDER[j % 3]
        p = _certified_witness(self.corpus.rng(j), cls)
        w = triwit.family_choi(p).choi.mat
        path = self._write("witness.json", {"dims": [2, 2, 2], "rows": 8, "cols": 8, "data": _pairs(w)})
        argv = [
            "search", path, "--sr", ",".join(map(str, cls)),
            "--restarts", str(MIX_SEARCH_RESTARTS), "--seed", str(int(rng.integers(2**31))), "--out", out,
        ]
        return argv, {"w": w, "target": cls}

    def _malformed_argv(self, kind: str) -> list:
        if kind == "no-data":
            return ["sr", self._write("bad.json", {"dims": [2, 2, 2]})]
        if kind == "two-dims":
            return ["sr", self._write("bad.json", {"dims": [2, 2], "data": [[1.0, 0.0]] * 4})]
        if kind == "string-data":
            return ["sr", self._write("bad.json", {"dims": [1, 1, 2], "data": [["1", "0"], ["0", "1"]]})]
        w = triwit.family_choi(triwit.genuine_witness(1.0)).choi.mat
        path = self._write("witness.json", {"dims": [2, 2, 2], "rows": 8, "cols": 8, "data": _pairs(w)})
        return ["search", path, "--sr", "0,2,2", "--restarts", "1"]

    def probe_malformed(self) -> dict:
        """Feed each malformed input to ``triwit.cli.main`` once, untimed.

        Returns kind -> outcome: ``"exit 2"`` when the CLI keeps its
        contract, otherwise the other exit code or the exception it raised.
        The timed ops carry only inputs on which no call fails, so a defect
        here is reported beside the result, not in its failed count.
        """
        outcomes = {}
        sink = io.StringIO()
        for kind in MALFORMED:
            argv = self._malformed_argv(kind)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), np.errstate(all="ignore"):
                try:
                    code = triwit.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # the defect being probed
                    outcomes[kind] = f"raised {type(exc).__name__}"
                    continue
            outcomes[kind] = f"exit {code}"
        return outcomes

    def op(self, inp: MixInput) -> dict:
        res = {}
        res["classify"] = [triwit.classify(p, grid=self.grid) for p in inp.params]
        res["sr"] = (triwit.schmidt_rank(inp.xi), triwit.schmidt_rank_by_definition(inp.xi))
        res["constructed"] = [
            (t, triwit.construct_state_with_sr(t, self.admissible_dims))
            for t in triwit.all_admissible(self.admissible_dims)
        ]
        psd = triwit.from_choi(inp.choi_psd.mat, inp.choi_psd.dims)
        res["kraus"] = triwit.kraus_decompose(psd)
        res["cp"] = (
            triwit.is_completely_positive(psd),
            triwit.is_completely_positive(triwit.from_choi(inp.choi_indef.mat, inp.choi_indef.dims)),
        )
        phi = triwit.from_choi(inp.phi.mat, inp.phi.dims)
        res["pair"] = (
            triwit.pair(inp.rho, phi),
            [triwit.pair(triwit.flip(inp.rho, s), triwit.permute_dual(phi, s)) for s in ALL_PERMUTATIONS],
        )
        res["sample"] = triwit.sample_state(*inp.sample, inp.sample_rng)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                res["cli_code"] = triwit.cli.main(inp.argv)
            except SystemExit as exc:  # argparse exits this way on a bad flag
                res["cli_code"] = exc.code
        return res

    def check(self, inp: MixInput, res: dict) -> float | None:
        for p, rep in zip(inp.params, res["classify"]):
            classes = {cls: (cv.verdict.value, cv.alpha) for cls, cv in rep.classes.items()}
            _check_classify(p, classes, rep.biseparability_witness)

        fast, slow = res["sr"]
        d = inp.xi.dims.as_tuple()
        generic = (min(d[0], d[1] * d[2]), min(d[1], d[0] * d[2]), min(d[2], d[0] * d[1]))
        if tuple(fast) != tuple(slow) or tuple(fast) != generic:
            raise Wrong(f"rank triplets {tuple(fast)} / {tuple(slow)}, generic {generic}")

        for t, vec in res["constructed"]:
            if rank_triplet(vec.data, vec.dims.as_tuple()) != tuple(t):
                raise Wrong(f"construct_state_with_sr missed {tuple(t)}")

        a, b, c = inp.choi_psd.dims.as_tuple()
        rec = sum(np.outer(v.T.reshape(-1), v.T.reshape(-1).conj()) for v in res["kraus"])
        if np.linalg.norm(rec - inp.choi_psd.mat) > 1e-9 * np.linalg.norm(inp.choi_psd.mat):
            raise Wrong("Kraus factors do not reassemble the Choi matrix")
        if any(v.shape != (c, a * b) for v in res["kraus"]):
            raise Wrong("Kraus factor shape is wrong")
        if res["cp"] != (True, False):
            raise Wrong(f"is_completely_positive gave {res['cp']}, expected (True, False)")

        ref, permuted = res["pair"]
        want = complex(np.sum(inp.phi.mat * inp.rho.mat))
        scale = np.linalg.norm(inp.phi.mat) * np.linalg.norm(inp.rho.mat)
        if any(abs(v - want) > 1e-10 * scale for v in [ref, *permuted]):
            raise Wrong("pairing is not permutation covariant or misses sum C * rho")

        m = res["sample"].mat
        if abs(np.trace(m).real - 1.0) > 1e-9 or np.linalg.norm(m - m.conj().T) > 1e-9:
            raise Wrong("sampled state is not a unit-trace Hermitian matrix")
        if np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0] < -1e-9:
            raise Wrong("sampled state is not PSD")

        return self._check_cli(inp, res["cli_code"])

    def _check_cli(self, inp: MixInput, code) -> float | None:
        if code != 0:
            raise Wrong(f"cli {inp.cli_kind} exited {code}, expected 0")
        doc = json.loads((self.dir / "out.json").read_text(encoding="utf-8"))
        kind = inp.cli_kind
        if kind == "gen":
            v = np.array([complex(re, im) for re, im in doc["data"]])
            if list(rank_triplet(v, doc["dims"])) != inp.expect["rank"]:
                raise Wrong("cli gen missed its rank triplet")
            return None
        results = doc["results"]
        if kind == "sr":
            if results["schmidt_rank"] != inp.expect["rank"]:
                raise Wrong("cli sr rank triplet is wrong")
        elif kind == "classify":
            classes = {
                tuple(int(x) for x in key.split(",")): (
                    entry["verdict"],
                    complex(*entry["alpha"]) if "alpha" in entry else None,
                )
                for key, entry in results["classes"].items()
            }
            _check_classify(inp.expect["params"], classes, results["biseparability_witness"])
        elif kind == "pair":
            got = complex(*results["value"])
            if abs(got - inp.expect["value"]) > 1e-10 * inp.expect["scale"]:
                raise Wrong("cli pair value is wrong")
        elif kind == "search":
            w, target = inp.expect["w"], inp.expect["target"]
            if "violation" in results:
                raise Wrong("cli search reported a violation on a certified witness")
            lmin, norm2 = _lam_range(w)
            value = results["no_violation"]["best_value"]
            if value < lmin - 1e-9 * norm2:
                raise Wrong("cli search best value is below lambda_min")
            return (value - lmin) / norm2
        return None


WORKLOADS = {cls.name: cls for cls in (SeesawQubit, SeesawWide, CertifyMix)}
