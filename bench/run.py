"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload seesaw-qubit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports triwit from ``src/``
of that checkout and nothing else.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer split.  Lines before
the last describe the run; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out FILE``
also appends the full record, environment included, to a JSON-lines file
that ``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 5  # fresh processes per run whose set-up time is measured
# about the median time of one Reference() call on the 2-core machine the
# benchmark was built on; op times are reported as if each op ran while the
# kernel took this long
REFERENCE_S = 0.007
MIN_BEYOND_P90 = 10  # latency samples a run needs beyond p90 for p90 to be reported soundly
# an untraced run goes on past its seconds until it has this many ops: seesaw-qubit's
# costs come in lumps, and in its runs 120 ops (5 passes of its 24-op cycle)
# sometimes put only 9 samples beyond p90; 144 (6 passes) put 12 or more
MIN_OPS = 144


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # compared with the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def limit_blas_threads() -> None:
    """Pin BLAS to one thread; must run before numpy is imported.

    The workloads' matrices are at most 216 x 216.  With OpenBLAS's default
    of one thread per core, a second thread mostly spin-waits (process CPU
    time reads twice the wall time on 8 x 8 eigensolves) and couples every
    op to whatever else runs on the other core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_triwit():
    """Import triwit from this checkout's ``src/``, refusing any other copy."""
    pkg = SRC / "triwit"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} is missing; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import triwit
    import triwit.cli  # noqa: F401  (the tracer wraps cli.main)

    if Path(triwit.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported triwit from {triwit.__file__}, not from {pkg}")
    return triwit


def make_workload(name: str, seed: int, **scale):
    from workloads import WORKLOADS, CertifyMix

    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if WORKLOADS[name] is CertifyMix:
        scale.setdefault("workdir", OUT_DIR / f"cli-{os.getpid()}")
    return WORKLOADS[name](seed, **scale)


# -- environment ---------------------------------------------------------------------


def _openblas() -> tuple[str, int | None]:
    """OpenBLAS version and live thread count, asked of the library numpy loaded."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            if "openblas" in line.lower() and ".so" in line:
                libs.add(line.split()[-1])
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return get_config().decode().split()[1], int(get_threads())
    return "unknown", None


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    version, threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


# -- measuring -------------------------------------------------------------------------


class Reference:
    """A fixed kernel of numpy and Python work, timed between ops to track the machine's speed.

    The 2-core machine the benchmark was built on drifts in speed by up to
    1.7x over seconds to minutes, in thread CPU time as much as in wall
    time, so the drift is not time lost to other processes and no clock
    removes it.  The kernel mixes the kinds of work the workloads do: 8 x 8
    eigensolves, a 216 x 216 product and JSON round trips.  Its inputs are
    fixed and it calls no triwit code, so no change to triwit moves its time.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.small = small + small.conj().T
        self.big = rng.standard_normal((216, 216)) + 1j * rng.standard_normal((216, 216))
        self.doc = {"dims": [2, 2, 2], "data": rng.standard_normal((64, 2)).tolist()}
        self.eigh = np.linalg.eigh

    def __call__(self) -> float:
        start = clock()
        for _ in range(100):
            self.eigh(self.small)
        self.big @ self.big
        for _ in range(10):
            json.loads(json.dumps(self.doc))
        return clock() - start


@dataclass
class Phase:
    """Ops of one measuring loop: latencies of every attempted op, and outcomes.

    ``references`` holds, for each op, the mean time of the reference
    kernel runs just before and just after it.
    """

    latencies: list = field(default_factory=list)
    references: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    errors: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_op(workload, i: int, inp, phase: Phase, tracer=None) -> None:
    """Time one call of ``workload.op`` on ``inp`` and record its outcome in ``phase``.

    An op that raises, or whose output its check rejects, counts as failed;
    a rejected output also counts as wrong.
    """
    from workloads import Wrong

    if tracer is not None:
        tracer.op = i
        tracer.install()
    start = clock()
    try:
        out = workload.op(inp)
    except Exception as exc:  # a failing op is a measured outcome, not a benchmark error
        error = exc
    else:
        error = None
    phase.latencies.append(clock() - start)
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        phase.failed += 1
        phase.errors[type(error).__name__] += 1
        return
    try:
        gap = workload.check(inp, out)
    except Wrong as exc:
        phase.failed += 1
        phase.wrong += 1
        phase.errors[f"Wrong: {exc}"] += 1
    else:
        if gap is not None:
            phase.gaps.append(gap)


def measure(
    workload, seconds: float = 0.0, ops: int | None = None, min_ops: int = 1, tracer=None
) -> tuple[Phase, Phase]:
    """Run ops 0, 1, ... of ``workload`` for ``seconds`` of wall time and at least ``min_ops`` ops,
    ending on a multiple of ``workload.cycle`` ops; or exactly ``ops`` ops.

    Returns the untraced phase and, with a tracer, the traced one: each op
    then runs twice on the same input, untraced and traced, in alternating
    order, so that both phases see the same inputs and the same drift in
    machine speed.  The reference kernel runs before the first op and after
    every op (or pair of passes on one input).
    """
    plain, traced = Phase(), Phase()
    reference = Reference()
    deadline = clock() + seconds
    before = reference()
    i = 0
    while True:
        inp = workload.make_input(i)
        passes = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
        if i % 2:
            passes.reverse()
        for phase, tr in passes:
            run_op(workload, i, inp, phase, tr)
        after = reference()
        for phase, _ in passes:
            phase.references.append((before + after) / 2.0)
        before = after
        i += 1
        if ops is not None:
            done = i >= ops
        else:
            done = i >= min_ops and i % workload.cycle == 0 and clock() >= deadline
        if done:
            return plain, traced


def setup_probe(name: str, seed: int) -> None:
    """Child side of the set-up measurement: build the workload, make the first input, report.

    ``main`` has already imported triwit, which is most of the set-up time.
    Then, untimed, the child measures the machine's speed: the median of 5
    reference kernel runs after one warm-up run.
    """
    workload = make_workload(name, seed)
    workload.make_input(0)
    ready = clock()
    workload.close()
    reference = Reference()
    reference()
    print(repr(ready), repr(statistics.median(reference() for _ in range(5))))


def setup_times(name: str, seed: int, runs: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to the moment its first op could start.

    Returns the wall times and each child's reference kernel time.
    """
    walls, references = [], []
    for _ in range(runs):
        start = clock()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        ready, reference = (float(x) for x in proc.stdout.split()[-2:])
        walls.append(ready - start)
        references.append(reference)
    return walls, references


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a beta-weighted mean of all order statistics.

    Op costs come in lumps (one per corpus witness or input kind), and a
    single interpolated order statistic jumps between lumps from run to run;
    the weighted mean moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    weights = np.diff(betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def scaled(phase: Phase) -> list[float]:
    """Op latencies at the reference speed: each scaled by REFERENCE_S over its reference time."""
    return [x * REFERENCE_S / r for x, r in zip(phase.latencies, phase.references)]


def end_to_end(lat: list[float], phase: Phase, setup: list[float]) -> dict:
    completed = phase.attempted - phase.failed
    return {
        "ops_per_s": (completed / sum(lat), "1/s"),
        "op_s.p50": (quantile(lat, 0.5), "s"),
        "op_s.p90": (quantile(lat, 0.9), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "search_gap.mean": (statistics.fmean(phase.gaps) if phase.gaps else 0.0, "ratio"),
    }


def run(workload, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS, min_ops: int = MIN_OPS,
        in_process_setup: float = 0.0, spans_out: Path | None = None) -> dict:
    """Measure one workload; return the result record (metrics as ``name -> (value, unit)``).

    Set-up time is the median over ``setup_runs`` fresh processes; with none,
    ``in_process_setup`` stands in for it.  Op and set-up times are scaled
    to the reference speed; their wall-clock figures go into the record as
    well.
    """
    import triwit
    from tracing import SPAN_FIELDS, Tracer

    if not trace:
        phase, _ = measure(workload, seconds, min_ops=min_ops)
        if setup_runs:
            walls, references = setup_times(workload.name, workload.seed, setup_runs)
        else:
            walls, references = [in_process_setup], [REFERENCE_S]
        setup = [x * REFERENCE_S / r for x, r in zip(walls, references)]
        metrics = end_to_end(scaled(phase), phase, setup)
        wall = end_to_end(phase.latencies, phase, walls)
        phases = [phase]
        extra = {
            "setup_samples_s": setup,
            "setup_wall_s": walls,
            "wall_metrics": {k: wall[k][0] for k in ("ops_per_s", "op_s.p50", "op_s.p90", "setup_s")},
        }
    else:
        tracer = Tracer(triwit)
        try:
            plain, traced = measure(workload, seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = (sum(scaled(plain)) / sum(scaled(traced)), "ratio")
        phases = [plain, traced]
        extra = {"spans": len(tracer.spans) // len(SPAN_FIELDS)}
        if spans_out is not None:
            import numpy as np

            spans_out.parent.mkdir(parents=True, exist_ok=True)
            np.savez(spans_out, fields=np.array(SPAN_FIELDS), names=np.array(tracer.names),
                     spans=np.frombuffer(tracer.spans, dtype=float).reshape(-1, len(SPAN_FIELDS)))
            extra["spans_file"] = str(spans_out)
    main_phase = phases[-1] if trace else phases[0]
    lat = scaled(main_phase)
    p90 = quantile(lat, 0.9)
    errors = Counter()
    for ph in phases:
        errors.update(ph.errors)
    probe = getattr(workload, "probe_malformed", None)
    if probe is not None:
        extra["malformed"] = probe()
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "wrong": sum(ph.wrong for ph in phases),
        "errors": dict(errors),
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
        "gap_samples": len(main_phase.gaps),
        "latencies_s": main_phase.latencies,
        "references_s": main_phase.references,
        "in_process_setup_s": in_process_setup,
        "metrics": metrics,
        **extra,
    }


def report(rec: dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    env = rec["env"]
    lines = [
        f"workload {rec['workload']} seed {rec['seed']} seconds {rec['seconds']} trace {rec['trace']}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"ops attempted={rec['attempted']} completed={rec['attempted'] - rec['failed']} "
        f"failed={rec['failed']} wrong={rec['wrong']} "
        f"failed_ratio={rec['failed'] / rec['attempted']:.6g} ({rec['failed']}/{rec['attempted']}) [ratio]",
        f"latency samples={rec['samples']} beyond_p90={rec['beyond_p90']} search_gap samples={rec['gap_samples']}",
    ]
    if rec["beyond_p90"] < MIN_BEYOND_P90:
        lines.append(f"warning: only {rec['beyond_p90']} samples beyond p90, fewer than {MIN_BEYOND_P90}")
    for err, count in sorted(rec["errors"].items()):
        lines.append(f"failure {count} x {err}")
    if "malformed" in rec:
        broken = sum(1 for v in rec["malformed"].values() if v != "exit 2")
        lines.append(
            f"malformed CLI inputs (untimed, not in failed): {broken} of {len(rec['malformed'])} do not exit 2: "
            + " ".join(f"{k}={v!r}" for k, v in rec["malformed"].items())
        )
    if "setup_samples_s" in rec:
        lines.append("setup samples " + " ".join(f"{x:.4f}" for x in rec["setup_samples_s"]) + " [s]")
        lines.append("wall clock " + " ".join(f"{k}={v:.6g}" for k, v in rec["wall_metrics"].items()))
    for key, (value, unit) in rec["metrics"].items():
        lines.append(f"metric {key} = {value!r} {unit}")
    result = {
        "correct": rec["wrong"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()},
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="triwit benchmark: one workload, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full record to this JSON-lines file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    limit_blas_threads()
    import_triwit()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz" if args.trace else None
    started = clock()
    workload = make_workload(args.workload, args.seed)
    try:
        workload.make_input(0)
        rec = run(workload, args.seconds, bool(args.trace), in_process_setup=clock() - started, spans_out=spans)
    finally:
        workload.close()
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
    print(report(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
