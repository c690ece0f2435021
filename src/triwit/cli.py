"""Batch command-line front end with a stable JSON interchange format.

Complex numbers serialize as [re, im] pairs, row-major, never as strings.
Vectors are {"dims": [a, b, c], "data": [[re, im], ...]}; operators add
"rows" and "cols".  Reports are deterministic for fixed inputs and seed.

Exit codes, all returned by ``main(argv)``, which never raises SystemExit:
0 success (including "no violation found", --help and --version), 2 input
error (argparse usage errors too), 3 contract violation (non-Hermitian input
where Hermitian is required).  ``main`` may be called repeatedly in one
process; TRIWIT_SEED is read on each call.  Each command takes only the
--tol-* flags it reads and echoes exactly those in its report: sr
--tol-rank, classify --tol-ineq, search all three, pair none; gen reads
--terms and --seed only with --sample, and refuses them without it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .choi import BiLinearMap, pair
from .errors import NotHermitian, TriwitError
from .linalg import DEFAULT_TOL, Tolerance, _spectrum_rank
from .schmidt import SchmidtRank, _mode_spectra, admissible, construct_state_with_sr
from .search import NoViolation, SeesawConfig, sample_state, violation_search
from .tensor import TriDims, TriOperator, TriVector
from .witness import AlphaGrid, QubitWitnessParams, classify, family_choi

# largest array, in complex entries, that gen builds: a*b*c for a vector, (a*b*c)^2 for a sampled state;
# larger requests are input errors.  The report's [re, im] lists cost about 150 bytes an entry (2**20 entries
# peak at 186 MB RSS for a vector, 205 MB for a sampled state, on CPython 3.11, x86-64), so gen stays near 200 MB.
GEN_MAX_ENTRIES = 2**20
# largest alpha grid, radii x angles, that classify runs: peak RSS grows by
# about 70 bytes a point (34 MB at 64 x 64, 102 MB at 1000 x 1000 on CPython
# 3.11, x86-64), so this bound keeps classify near 100 MB
GRID_MAX_POINTS = 2**20
GEN_SAMPLE_TERMS = 5  # projectors in a state sampled by gen --sample without --terms

_TOL_FLAGS = {
    "rank_rel": ("--tol-rank", "relative singular-value cutoff"),
    "psd_abs": ("--tol-psd", "Hermiticity gate on W: largest ||W - W*||_F over ||W||_F"),
    "ineq_abs": ("--tol-ineq", "inequality slack"),
}


# ---------------------------------------------------------------------------
# JSON interchange helpers

def _complex_pairs(values) -> list[list[float]]:
    return np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2).tolist()


def vector_to_json(v: TriVector) -> dict:
    return {"dims": list(v.dims.as_tuple()), "data": _complex_pairs(v.data)}


def operator_to_json(op: TriOperator) -> dict:
    n = op.dims.total
    return {
        "dims": list(op.dims.as_tuple()),
        "rows": n,
        "cols": n,
        "data": _complex_pairs(op.mat),
    }


def _read_array(path: str, dims_flag=None) -> tuple[TriDims, np.ndarray, str]:
    """Parse a vector or operator file into its dims, flat row-major entries and sha256.

    This is the only reader of the interchange format.  ``dims`` (or
    ``dims_flag``, which overrides it) must be three integers, ``data`` a
    list of ``[re, im]`` pairs of finite reals, and ``rows``/``cols``, when
    present, integers equal to ``a*b*c``.  Raises TriwitError otherwise.
    """
    doc, digest = _load_json(path)
    if not isinstance(doc, dict):
        raise TriwitError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    # types are tested exactly: json.load gives booleans their own type,
    # while int() and numpy would silently convert booleans, 2.5 and "1"
    raw_dims = doc.get("dims") if dims_flag is None else dims_flag
    if raw_dims is None:
        raise TriwitError("no dimensions: provide --dims or a 'dims' field in the file")
    if not (
        isinstance(raw_dims, (list, tuple)) and len(raw_dims) == 3 and all(type(d) is int for d in raw_dims)
    ):
        raise TriwitError(f"{path}: 'dims' must be 3 positive integers, got {raw_dims!r}")
    dims = TriDims(*raw_dims)
    data = doc.get("data")
    if not isinstance(data, list):
        raise TriwitError(f"{path}: 'data' must be a list of [re, im] pairs")
    if not (
        all(type(e) is list and len(e) == 2 for e in data)
        and {type(x) for e in data for x in e} <= {int, float}
    ):
        raise TriwitError(f"{path}: every 'data' entry must be a pair [re, im] of real numbers")
    try:
        pairs = np.array(data, dtype=float).reshape(-1, 2)
        finite = bool(np.all(np.isfinite(pairs)))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise TriwitError(f"{path}: 'data' entries must be finite")
    entries = pairs.view(complex).ravel()
    n = dims.total
    if "rows" in doc or "cols" in doc:
        rows, cols = doc.get("rows", n), doc.get("cols", n)
        if type(rows) is not int or type(cols) is not int or (rows, cols) != (n, n) or entries.size != n * n:
            raise TriwitError(f"operator shape {rows}x{cols} does not match dims {dims.as_tuple()}")
    return dims, entries, digest


def _read_operator(path: str) -> tuple[TriOperator, str]:
    """An operator file and its sha256; a vector file is promoted to its pure-state projector."""
    dims, data, digest = _read_array(path)
    n = dims.total
    if data.size == n * n:
        return TriOperator(dims, data.reshape(n, n)), digest
    if data.size == n:
        return TriOperator(dims, np.outer(data, data.conj())), digest
    raise TriwitError(f"file holds {data.size} entries, expected {n} or {n * n}")


def _load_json(path: str) -> tuple[object, str]:
    """The parsed document and the sha256 of the file's bytes, from one read."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise TriwitError(f"cannot read {path}: {exc}") from exc


def _digest(payload) -> str:
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# flag parsing

def _parse_tuple(text: str, n: int, what: str, convert) -> tuple:
    """Split ``text`` on commas into exactly ``n`` values, each passed through ``convert``."""
    parts = text.split(",")
    if len(parts) != n:
        raise TriwitError(f"{what}: expected {n} comma-separated values, got {text!r}")
    return tuple(convert(p) for p in parts)


def _complex_flag(text: str) -> complex:
    re, _, im = text.partition(":")
    return complex(float(re), float(im) if im else 0.0)


def _given_tolerances(args) -> dict:
    return {field: value for field, value in vars(args).items() if field in _TOL_FLAGS}


def _seed(args) -> int:
    source, text = "TRIWIT_SEED", os.getenv("TRIWIT_SEED", "0")
    if args.seed is not None:
        source, text = "--seed", str(args.seed)
    if not text.strip().isdecimal():
        raise TriwitError(f"{source} must be an integer >= 0, got {text!r}")
    return int(text)


def _family_params(args) -> tuple[QubitWitnessParams, dict]:
    """The family member given by --s/--t/--u, and its JSON form for reports."""
    s = _parse_tuple(args.s, 4, "--s", float)
    t = _parse_tuple(args.t, 4, "--t", float)
    u = _parse_tuple(args.u, 4, "--u", _complex_flag) if args.u else (0j, 0j, 0j, 0j)
    params = QubitWitnessParams(s=s, t=t, u=u)
    return params, {"s": list(params.s), "t": list(params.t), "u": _complex_pairs(params.u)}


def _report(command: str, args, inputs: dict, results: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "tolerance": _given_tolerances(args),
        "version": __version__,
    }


def _emit(doc: dict, out) -> None:
    # json.dumps(doc, sort_keys=True, indent=2) in chunks, 4096 a write: no whole-report string, few unbuffered writes
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        while batch := list(itertools.islice(chunks, 4096)):
            fh.write("".join(batch))
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_sr(args) -> dict:
    dims_flag = _parse_tuple(args.dims, 3, "--dims", int) if args.dims else None
    dims, data, digest = _read_array(args.vector, dims_flag)
    xi = TriVector(dims, data)
    tol = Tolerance(**_given_tolerances(args))
    spectra = _mode_spectra(xi)
    rank = SchmidtRank(*(_spectrum_rank(s, tol) for s in spectra))
    sing = {mode: s.tolist() for mode, s in zip(("A", "B", "C"), spectra)}
    results = {
        "schmidt_rank": list(rank),
        "singular_values": sing,
        "admissible": admissible(rank, xi.dims),
        "dims": list(xi.dims.as_tuple()),
    }
    inputs = {"vector": args.vector, "sha256": digest}
    return _report("sr", args, inputs, results)


def cmd_classify(args) -> dict:
    grid = AlphaGrid(radii=args.grid_radii, angles=args.grid_angles)
    if grid.radii * grid.angles > GRID_MAX_POINTS:
        raise TriwitError(f"an alpha grid of {grid.radii} x {grid.angles} points exceeds {GRID_MAX_POINTS}")
    params, payload = _family_params(args)
    tol = Tolerance(**_given_tolerances(args))
    report = classify(params, tol, grid)
    classes = {}
    for cls, cv in report.classes.items():
        entry = {"verdict": cv.verdict.value, "evidence": cv.evidence}
        if cv.alpha is not None:
            entry["alpha"] = [cv.alpha.real, cv.alpha.imag]
        classes[",".join(map(str, cls))] = entry
    results = {
        "classes": classes,
        "biseparability_witness": report.biseparability_witness,
        "params": payload,
    }
    inputs = {"params_sha256": _digest(payload)}
    return _report("classify", args, inputs, results)


def _map_from_args(args, what: str) -> tuple[BiLinearMap, dict]:
    path = getattr(args, what)
    if path and (args.s, args.t, args.u) != (None, None, None):
        raise TriwitError(f"give either a {what} file or family parameters --s/--t/--u, not both")
    if path:
        op, digest = _read_operator(path)
        return BiLinearMap(op), {what: path, "sha256": digest}
    if args.s and args.t:
        params, payload = _family_params(args)
        return family_choi(params), {"family_params": payload, "sha256": _digest(payload)}
    raise TriwitError(f"provide a {what} file or family parameters --s/--t/--u")


def cmd_pair(args) -> dict:
    state, state_digest = _read_operator(args.state)
    phi, map_inputs = _map_from_args(args, "map")
    value = pair(state, phi)
    results = {"value": [value.real, value.imag]}
    inputs = {"state": args.state, "state_sha256": state_digest, **map_inputs}
    return _report("pair", args, inputs, results)


def cmd_search(args) -> dict:
    phi, inputs = _map_from_args(args, "witness")
    target = _parse_tuple(args.sr, 3, "--sr", int)
    tol = Tolerance(**_given_tolerances(args))
    cfg = SeesawConfig(restarts=args.restarts, max_sweeps=args.sweeps, seed=_seed(args))
    outcome = violation_search(phi.choi, target, cfg, tol)
    if isinstance(outcome, NoViolation):
        results = {
            "no_violation": {
                "best_value": outcome.best_value,
                "note": "no violation found; this is not a positivity proof",
            }
        }
    else:
        results = {
            "violation": {
                "value": outcome.value,
                "vector": vector_to_json(outcome.xi),
            }
        }
    results["target"] = list(target)
    results["config"] = {"restarts": cfg.restarts, "max_sweeps": cfg.max_sweeps, "seed": cfg.seed}
    return _report("search", args, inputs, results)


def cmd_gen(args) -> dict:
    if not args.sample and (args.terms, args.seed) != (None, None):
        raise TriwitError("gen: --terms and --seed apply only with --sample")
    target = _parse_tuple(args.sr, 3, "--sr", int)
    dims = TriDims(*_parse_tuple(args.dims, 3, "--dims", int)) if args.dims else TriDims(*target)
    entries = dims.total**2 if args.sample else dims.total
    if entries > GEN_MAX_ENTRIES:
        raise TriwitError(f"dims {dims.as_tuple()} need {entries} complex entries, more than {GEN_MAX_ENTRIES}")
    if args.sample:
        rng = np.random.default_rng(_seed(args))
        terms = GEN_SAMPLE_TERMS if args.terms is None else args.terms
        return operator_to_json(sample_state(dims, target, terms, rng))
    return vector_to_json(construct_state_with_sr(target, dims))


# ---------------------------------------------------------------------------
# parser

def _add_tol_flags(p: argparse.ArgumentParser, *fields: str) -> None:
    for field in fields:
        flag, text = _TOL_FLAGS[field]
        p.add_argument(flag, dest=field, type=float, default=getattr(DEFAULT_TOL, field), help=text)


def _add_family_flags(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--s", required=required, help="four nonnegative values, e.g. 0,1,1,2")
    p.add_argument("--t", required=required, help="four nonnegative values")
    p.add_argument("--u", default=None, help="four complex values as re:im, e.g. 1:0,1:0,1:0,1:0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; every later call shares it, so callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="triwit",
        description="Schmidt-rank triplets, witness classification and entanglement certification",
    )
    parser.add_argument("--version", action="version", version=f"triwit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sr", help="Schmidt-rank triplet of a vector file")
    p.add_argument("vector", help="JSON vector file")
    p.add_argument("--dims", default=None, help="a,b,c (overrides the file)")
    _add_tol_flags(p, "rank_rel")
    p.set_defaults(func=cmd_sr)

    p = sub.add_parser("classify", help="positivity classes of a witness-family member")
    _add_family_flags(p, required=True)
    p.add_argument("--grid-radii", type=int, default=AlphaGrid.radii)
    p.add_argument("--grid-angles", type=int, default=AlphaGrid.angles)
    _add_tol_flags(p, "ineq_abs")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("pair", help="duality pairing of a state with a map")
    p.add_argument("state", help="JSON state file (operator, or vector promoted to a projector)")
    p.add_argument("--map", default=None, help="JSON Choi-matrix file")
    _add_family_flags(p, required=False)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("search", help="see-saw search for a block-positivity violation")
    p.add_argument("witness", nargs="?", default=None, help="JSON Hermitian matrix file")
    _add_family_flags(p, required=False)
    p.add_argument("--sr", required=True, help="target rank triplet p,q,r")
    p.add_argument("--restarts", type=int, default=SeesawConfig.restarts)
    p.add_argument("--sweeps", type=int, default=SeesawConfig.max_sweeps)
    p.add_argument("--seed", type=int, default=None, help="defaults to $TRIWIT_SEED or 0")
    _add_tol_flags(p, "rank_rel", "psd_abs", "ineq_abs")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen", help="generate a vector with an exact rank triplet, or sample a state")
    p.add_argument("--sr", required=True, help="target triplet alpha,beta,gamma")
    p.add_argument("--dims", default=None, help="a,b,c (defaults to the triplet itself)")
    p.add_argument("--sample", action="store_true", help="sample a mixed state; needed by --terms, --seed")
    p.add_argument("--terms", type=int, default=None, help=f"projectors to mix (default {GEN_SAMPLE_TERMS})")
    p.add_argument("--seed", type=int, default=None, help="defaults to $TRIWIT_SEED or 0")
    p.set_defaults(func=cmd_gen)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _emit(args.func(args), args.out)
    except SystemExit as exc:  # argparse, after printing: a usage error (2), --help or --version (0)
        return exc.code
    except NotHermitian as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TriwitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
