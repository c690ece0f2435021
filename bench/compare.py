"""Compare two result sets of the benchmark, one row per workload and end-to-end metric.

    python3 bench/compare.py .bench_out/ab/parent.jsonl .bench_out/ab/change.jsonl

A result set is a JSON-lines file that ``bench/run.py --out`` (or
``bench/series.py``) appends to; only untraced records count.  Runs pair up
by seed.  For each metric the row gives each side's median and quartiles,
the pairs the change won (ties count for neither side) and a verdict:

- ``better``: the change wins at least 9 in 10 pairs and the medians differ
  by more than the base's own quartile spread;
- ``unresolved``: the base's quartile spread is wider than the metric's
  bound, and not every change run reads better than every base run;
- ``worse``: the change's median is worse than the base's by more than the
  bound, a share of the base's median;
- ``within bound``: otherwise.

A last row per workload compares failed ops over attempted ops, summed
over runs; it reads ``same`` when the two shares are within one percentage
point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# certify-mix fails a fixed share of its CLI rounds at the commit that added
# the benchmark, so runs that stop part-way through a cycle differ by a few
# tenths of a percent with no change in behaviour
FAILED_SLACK = 0.01


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict, change: dict, higher_better: bool, bound: float) -> tuple[str, int, int]:
    """``base``/``change`` map seed -> value.  Returns (verdict, pairs won by change, pairs)."""
    sign = 1.0 if higher_better else -1.0
    seeds = sorted(set(base) & set(change))
    won = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, c_med, _ = quartiles(list(change.values()))
    gain = sign * (c_med - b_med)
    all_better = all(sign * (c - b) > 0 for c in change.values() for b in base.values())
    if seeds and won >= 0.9 * len(seeds) and gain > b_q3 - b_q1:
        return "better", won, len(seeds)
    if (b_q3 - b_q1) > bound * abs(b_med) and not all_better:
        return "unresolved", won, len(seeds)
    if -gain > bound * abs(b_med):
        return "worse", won, len(seeds)
    return "within bound", won, len(seeds)


def compare(base_recs: list[dict], change_recs: list[dict], spec: dict) -> list[str]:
    rows = [
        f"{'workload':<14} {'metric':<16} {'unit':<5} {'base median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'won':>7}  verdict"
    ]
    for wl in spec["workloads"]:
        side = [
            {r["seed"]: r for r in recs if r["workload"] == wl["name"] and not r["trace"]}
            for recs in (base_recs, change_recs)
        ]
        if not side[0] or not side[1]:
            rows.append(f"{wl['name']:<14} (no untraced runs on {'base' if not side[0] else 'change'})")
            continue
        for m in spec["end_to_end"]:
            vals = [{s: r["metrics"][m["name"]][0] for s, r in recs.items()} for recs in side]
            text = []
            for v in vals:
                q1, med, q3 = quartiles(list(v.values()))
                text.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            v, won, n = verdict(vals[0], vals[1], m["better"] == "higher", m["bound"])
            rows.append(
                f"{wl['name']:<14} {m['name']:<16} {m['unit']:<5} {text[0]:<34} {text[1]:<34} {won:>3}/{n:<3}  {v}"
            )
        counts = [
            (sum(r["failed"] for r in recs.values()), sum(r["attempted"] for r in recs.values())) for recs in side
        ]
        (fa, aa), (fb, ab) = counts
        diff = fb / ab - fa / aa
        v = "worse" if diff > FAILED_SLACK else ("better" if diff < -FAILED_SLACK else "same")
        rows.append(
            f"{wl['name']:<14} {'failed_ratio':<16} {'ratio':<5} {fa}/{aa} = {fa / aa:.4g} -> {fb}/{ab} = {fb / ab:.4g}  {v}"
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two triwit benchmark result sets")
    parser.add_argument("base", help="JSON-lines results of the base (parent) commit")
    parser.add_argument("change", help="JSON-lines results of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("\n".join(compare(load(args.base), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
