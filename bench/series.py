"""Run the benchmark over many seeds, optionally on several checkouts in turn.

    python3 bench/series.py --seeds 1-10 --out-dir .bench_out/series
    python3 bench/series.py --seeds 1-10 --checkout ../parent --checkout . --out-dir .bench_out/ab

Each checkout runs its own ``bench/run.py`` from its own root, one process
at a time, and its records go to ``<out-dir>/<checkout name>.jsonl``.  With
several checkouts the order rotates from seed to seed, so each side runs
first equally often.  At the end, every workload and end-to-end metric is
summarised per checkout: median, quartiles and the quartile spread as a
share of the median, against the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def spread_table(records: list[dict], spec: dict) -> list[str]:
    """One line per workload x end-to-end metric: median, quartiles, spread / median vs bound."""
    lines = []
    for wl in spec["workloads"]:
        recs = [r for r in records if r["workload"] == wl["name"] and not r["trace"]]
        if not recs:
            continue
        failed = sum(r["failed"] for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        lines.append(f"{wl['name']}: {len(recs)} runs, failed {failed}/{attempted}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]][0] for r in recs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            share = (q3 - q1) / med if med else float("inf")
            flag = "ok" if share < m["bound"] / 3 else ("within bound" if share <= m["bound"] else "TOO WIDE")
            lines.append(
                f"  {m['name']:<16} median {med:.6g} {m['unit']:<5} q1 {q1:.6g} q3 {q3:.6g} "
                f"spread {share:.3f} bound {m['bound']} {flag}"
            )
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="run the triwit benchmark over seeds and checkouts")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", action="append", default=None, help="repeat for A/B runs; default: this one")
    parser.add_argument("--out-dir", default=str(ROOT / ".bench_out" / "series"))
    args = parser.parse_args(argv)

    checkouts = [Path(c).resolve() for c in (args.checkout or [ROOT])]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outs = [out_dir / f"{c.name or 'root'}.jsonl" for c in checkouts]
    if len(set(outs)) != len(outs):
        outs = [out_dir / f"{k}-{c.name}.jsonl" for k, c in enumerate(checkouts)]

    for n, seed in enumerate(parse_seeds(args.seeds)):
        for wl in args.workloads.split(","):
            order = list(range(len(checkouts)))
            order = order[n % len(order):] + order[: n % len(order)]
            for k in order:
                cmd = [
                    sys.executable, "bench/run.py", "--workload", wl, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(outs[k]),
                ]
                proc = subprocess.run(cmd, cwd=checkouts[k], capture_output=True, text=True, timeout=900)
                last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
                print(f"{checkouts[k].name} {wl} seed {seed}: exit {proc.returncode} {last[0][:160]}", flush=True)
                if proc.returncode:
                    return proc.returncode

    for path in outs:
        print(f"== {path}")
        print("\n".join(spread_table(load_records(path), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
