"""Fast self-test of the benchmark harness.

Each workload runs at a tiny size for a fraction of a second, untraced and
traced; the printed result must carry exactly the metrics BENCHMARK.json
names, each with its unit.  A deliberately wrong outcome must count as a
failed op and clear ``correct``; an op that raises must count as failed.
certify-mix's timed CLI rounds must all pass, and its untimed probe must
report an outcome for each malformed input.
In a traced run only the traced pass of an op may reach the wrappers.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

triwit = run.import_triwit()
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "seesaw-qubit": dict(restarts=2, corpus=5),
    "seesaw-wide": dict(dims=(3, 3, 3), target=(2, 2, 2), restarts=1),
    "certify-mix": dict(admissible_dims=(2, 2, 2), grid=triwit.AlphaGrid(radii=8, angles=8)),
}


def tiny(name, tmp_path, seed=3):
    scale = dict(TINY[name])
    if name == "certify-mix":
        scale["workdir"] = tmp_path / "cli"
    return run.make_workload(name, seed, **scale)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_prints_with_its_unit(name, trace, tmp_path):
    wl = tiny(name, tmp_path)
    try:
        rec = run.run(wl, 0.05, bool(trace), setup_runs=0, min_ops=1, in_process_setup=0.5)
    finally:
        wl.close()
    lines = run.report(rec).splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("ops attempted=") and "failed_ratio=" in line for line in lines)


def test_wrong_outcome_counts_as_failed(tmp_path):
    wl = tiny("seesaw-qubit", tmp_path)
    honest = wl.op

    def wrong(inp):
        out = honest(inp)
        # report the best vector with a value it does not have
        xi = out.xi if isinstance(out, triwit.ViolationCertificate) else out.best_xi
        return triwit.NoViolation(best_value=123.0, best_xi=xi)

    wl.op = wrong
    rec = run.run(wl, 0.0, False, setup_runs=0, min_ops=1)
    result = json.loads(run.report(rec).splitlines()[-1])
    # the run ends after one whole pass of the input mix, every op of it wrong
    assert result["attempted"] == result["failed"] == rec["wrong"] == wl.cycle
    assert result["correct"] is False


def test_untraced_pass_runs_the_original_functions(tmp_path):
    # two certified witnesses (no early stop), each searched once traced and once plain
    wl = tiny("seesaw-qubit", tmp_path)
    original = triwit.search.min_gen_eig
    tracer = tracing.Tracer(triwit)
    plain, traced = run.measure(wl, ops=2, tracer=tracer)
    assert (plain.attempted, traced.attempted) == (2, 2)
    assert tracer.stats["search.seesaw_minimize"].calls == 2 * wl.restarts
    assert triwit.search.min_gen_eig is original


def test_raising_op_counts_as_failed_but_not_wrong(tmp_path):
    wl = tiny("seesaw-wide", tmp_path)

    def broken(inp):
        raise KeyError("deliberate")

    wl.op = broken
    phase, _ = run.measure(wl, ops=3)
    assert (phase.attempted, phase.failed, phase.wrong) == (3, 3, 0)
    assert phase.errors == {"KeyError": 3}


def test_certify_mix_cli_rounds_pass_and_malformed_inputs_are_probed(tmp_path):
    # one full cycle of the CLI schedule covers every subcommand; no timed op fails
    wl = tiny("certify-mix", tmp_path)
    try:
        phase, _ = run.measure(wl, ops=len(wl.schedule))
        outcomes = wl.probe_malformed()
    finally:
        wl.close()
    assert set(wl.schedule) == set(workloads.CLI_KINDS)
    assert (phase.failed, phase.wrong) == (0, 0)
    assert list(outcomes) == list(workloads.MALFORMED)
    assert all(v == "exit 2" or v.startswith(("exit ", "raised ")) for v in outcomes.values())
