import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from triwit import cli
from triwit.cli import _read_array, main, operator_to_json, vector_to_json
from triwit import (
    DEFAULT_TOL,
    QubitWitnessParams,
    __version__,
    TriDims,
    TriOperator,
    TriVector,
    alpha_slack,
    cli,
    construct_state_with_sr,
    family_choi,
    genuine_witness,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_module(argv):
    """``python -m triwit.cli`` with ``argv``, importing this checkout's package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "triwit.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _hadamard_choi_doc():
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1.0
    op = TriOperator(TriDims(2, 2, 2), np.outer(vec, vec.conj()))
    return operator_to_json(op)


def _witness_doc(s=1.0):
    return operator_to_json(family_choi(genuine_witness(s)).choi)


def _ghz_state_doc():
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1.0 / math.sqrt(2)
    op = TriOperator(TriDims(2, 2, 2), np.outer(vec, vec.conj()))
    return operator_to_json(op)


def test_gen_then_sr_round_trip(tmp_path, capsys):
    out_file = tmp_path / "vec.json"
    code, _ = _run(capsys, ["gen", "--sr", "2,2,3", "--dims", "2,2,3", "--out", str(out_file)])
    assert code == 0
    code, out = _run(capsys, ["sr", str(out_file)])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["schmidt_rank"] == [2, 2, 3]
    assert report["results"]["admissible"] is True
    assert report["command"] == "sr"
    assert len(report["results"]["singular_values"]["A"]) == 2


def test_gen_rejects_inadmissible_triplet(capsys):
    code, _ = _run(capsys, ["gen", "--sr", "1,2,3"])
    assert code == 2


def test_sr_wrong_dims_flag(tmp_path, capsys):
    vec = vector_to_json(TriVector(TriDims(2, 2, 2), np.arange(8, dtype=float)))
    path = _write(tmp_path / "v.json", vec)
    code, _ = _run(capsys, ["sr", path, "--dims", "2,2,3"])
    assert code == 2
    # a --dims that fits the entry count regroups them: 12 entries written at (2,2,3), read at (3,2,2)
    data = np.random.default_rng(0).standard_normal(12)
    path = _write(tmp_path / "w.json", vector_to_json(TriVector(TriDims(2, 2, 3), data)))
    code, out = _run(capsys, ["sr", path, "--dims", "3,2,2"])
    assert code == 0
    t = data.reshape(3, 2, 2)
    spectra = [np.linalg.svd(np.moveaxis(t, k, 0).reshape(t.shape[k], -1), compute_uv=False) for k in range(3)]
    results = json.loads(out)["results"]
    assert results["dims"] == [3, 2, 2]
    assert results["schmidt_rank"] == [int(np.sum(s > DEFAULT_TOL.rank_rel * s[0])) for s in spectra]


def test_sr_product_vector(tmp_path, capsys):
    data = np.zeros(8)
    data[0] = 1.0
    path = _write(tmp_path / "v.json", vector_to_json(TriVector(TriDims(2, 2, 2), data)))
    code, out = _run(capsys, ["sr", path])
    assert code == 0
    assert json.loads(out)["results"]["schmidt_rank"] == [1, 1, 1]


def test_classify_known_family_patterns(capsys):
    cases = {
        "0,1,1,2": {"2,2,2": False, "1,2,2": True, "2,1,2": False, "2,2,1": False, "1,1,1": True},
        "0,0,2,2": {"2,2,2": False, "1,2,2": True, "2,1,2": True, "2,2,1": False, "1,1,1": True},
        "0,0,0,4": {"2,2,2": False, "1,2,2": False, "2,1,2": False, "2,2,1": False, "1,1,1": True},
        "0,2,2,2": {"2,2,2": False, "1,2,2": True, "2,1,2": True, "2,2,1": True, "1,1,1": True},
    }
    for roots, expected in cases.items():
        code, out = _run(
            capsys,
            ["classify", "--s", roots, "--t", roots, "--u", "1:0,1:0,1:0,1:0"],
        )
        assert code == 0
        classes = json.loads(out)["results"]["classes"]
        got = {cls: v["verdict"] == "certified" for cls, v in classes.items()}
        assert got == expected, roots


def test_classify_witness_biseparability_flag(capsys):
    code, out = _run(
        capsys, ["classify", "--s", "0,1,1,1", "--t", "0,1,1,1", "--u=-1:0,0:0,0:0,0:0"]
    )
    assert code == 0
    assert json.loads(out)["results"]["biseparability_witness"] is True


def test_classify_default_u_all_certified(capsys):
    code, out = _run(capsys, ["classify", "--s", "1,2,3,4", "--t", "4,3,2,1"])
    assert code == 0
    classes = json.loads(out)["results"]["classes"]
    assert all(v["verdict"] == "certified" for v in classes.values())


def test_classify_rejects_negative_params(capsys):
    code, _ = _run(capsys, ["classify", "--s=-1,1,1,1", "--t", "1,1,1,1"])
    assert code == 2


@pytest.mark.parametrize(
    "st, u, evidence",
    [
        # s_i t_i overflows a float, though sqrt(s_i t_i) = 1e200 < |u_i| = 1e300
        ("1e200", "1e300", "sqrt(s_1 t_1) = 1e+200 < |u_1| = 1e+300"),
        # sqrt(s_i t_i) < |u_i|, but the sum of two of either overflows
        ("1.6e308", "1.7e308", "sqrt(s_1 t_1) = 1.6e+308 < |u_1| = 1.7e+308"),
    ],
)
def test_classify_does_not_certify_when_sums_overflow(capsys, st, u, evidence):
    big = ",".join([st] * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = _run(capsys, ["classify", "--s", big, "--t", big, "--u", ",".join([u + ":0"] * 4)])
    assert code == 0
    results = json.loads(out)["results"]
    assert all(v["verdict"] != "certified" for v in results["classes"].values())
    assert results["classes"]["2,2,2"]["evidence"] == evidence
    assert results["biseparability_witness"] is False


@pytest.mark.parametrize("st, certified", [("1.7e308", ["1,2,2", "2,1,2", "2,2,1", "1,1,1"]), ("1", [])])
def test_classify_takes_a_modulus_beyond_the_float_range(capsys, st, certified):
    # |u_1| = 2.1e308 overflows a float, though 1.5e308 and 1.5e308 do not
    big = ",".join([st] * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = _run(capsys, ["classify", "--s", big, "--t", big, "--u", "1.5e308:1.5e308,0:0,0:0,0:0"])
    assert code == 0
    classes = json.loads(out)["results"]["classes"]
    assert {c for c, v in classes.items() if v["verdict"] == "certified"} == set(certified)
    assert classes["2,2,2"]["evidence"].endswith("< |u_1| = inf")


def test_classify_refutes_111_where_the_slack_products_overflow():
    # the slack products overflow at every alpha; the refutation must still be
    # found, its alpha must re-validate, and nothing may reach stderr
    big = ",".join(["1e200"] * 4)
    argv = ["classify", "--s", big, "--t", big, "--u", ",".join(["1e300:0"] * 4)]
    proc = _run_module(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    results = json.loads(proc.stdout)["results"]
    verdict = results["classes"]["1,1,1"]
    assert verdict["verdict"] == "refuted"
    p = QubitWitnessParams(s=(1e200,) * 4, t=(1e200,) * 4, u=(1e300,) * 4)
    assert alpha_slack(p, complex(*verdict["alpha"])) < -1e-9


def test_classify_refutes_111_where_the_slack_sums_overflow():
    # s_i + t_j m overflows, so the unscaled slack reads inf - inf at alpha = 1,
    # where it is 4 (1.6e308 - 1.7e308); the refutation must be found with
    # nothing on stderr, and its alpha must violate the draw scaled by 2**-64
    argv = ["classify", "--s", ",".join(["1.6e308"] * 4), "--t", ",".join(["1.6e308"] * 4)]
    argv += ["--u", ",".join(["1.7e308:0"] * 4)]
    proc = _run_module(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    verdict = json.loads(proc.stdout)["results"]["classes"]["1,1,1"]
    assert verdict["verdict"] == "refuted"
    small = QubitWitnessParams(s=(1.6e308 * 2**-64,) * 4, t=(1.6e308 * 2**-64,) * 4, u=(1.7e308 * 2**-64,) * 4)
    slack = float(alpha_slack(small, complex(*verdict["alpha"])))
    assert slack < 0
    assert float(verdict["evidence"].split()[3]) == pytest.approx(-slack * 2**64, rel=1e-3)


@pytest.mark.parametrize(
    "s, t, u",
    [
        ("0,0,0,0", "1e305,1e305,0,0", "1e306:0,0:0,0:0,0:0"),
        ("1,1,1,1", "1,1,1,1", "1.5e308:1.5e308,0:0,0:0,0:0"),
    ],
    ids=["inf-times-zero", "u-times-alpha"],
)
def test_classify_refutes_111_where_slack_terms_overflow(s, t, u):
    # a root product reads inf * 0, or u_1 conj(alpha) overflows; the
    # refutation's alpha must re-validate, and nothing may reach stderr
    proc = _run_module(["classify", "--s", s, "--t", t, "--u", u])
    assert (proc.returncode, proc.stderr) == (0, "")
    verdict = json.loads(proc.stdout)["results"]["classes"]["1,1,1"]
    assert verdict["verdict"] == "refuted"
    u_parsed = [complex(*map(float, z.split(":"))) for z in u.split(",")]
    p = QubitWitnessParams(s=tuple(map(float, s.split(","))), t=tuple(map(float, t.split(","))), u=tuple(u_parsed))
    assert alpha_slack(p, complex(*verdict["alpha"])) < 0


def test_pair_ghz_with_witness(tmp_path, capsys):
    state = _write(tmp_path / "ghz.json", _ghz_state_doc())
    code, out = _run(
        capsys,
        ["pair", state, "--s", "0,1,1,1", "--t", "0,1,1,1", "--u=-1:0,0:0,0:0,0:0"],
    )
    assert code == 0
    value = json.loads(out)["results"]["value"]
    assert abs(value[0] - (-1.0)) <= 1e-12
    assert abs(value[1]) <= 1e-12


def test_pair_maximally_mixed_with_hadamard(tmp_path, capsys):
    state = _write(
        tmp_path / "mixed.json",
        operator_to_json(TriOperator(TriDims(2, 2, 2), np.eye(8) / 8)),
    )
    hada = _write(tmp_path / "hadamard.json", _hadamard_choi_doc())
    code, out = _run(capsys, ["pair", state, "--map", hada])
    assert code == 0
    assert abs(json.loads(out)["results"]["value"][0] - 0.25) <= 1e-12


def test_pair_dim_mismatch(tmp_path, capsys):
    state = _write(
        tmp_path / "state.json",
        operator_to_json(TriOperator(TriDims(2, 2, 3), np.eye(12) / 12)),
    )
    hada = _write(tmp_path / "hadamard.json", _hadamard_choi_doc())
    code, _ = _run(capsys, ["pair", state, "--map", hada])
    assert code == 2


def test_pair_accepts_vector_state_file(tmp_path, capsys):
    vec = np.zeros(8)
    vec[0] = vec[7] = 1.0 / math.sqrt(2)
    state = _write(tmp_path / "ghzvec.json", vector_to_json(TriVector(TriDims(2, 2, 2), vec)))
    code, out = _run(
        capsys,
        ["pair", state, "--s", "0,1,1,1", "--t", "0,1,1,1", "--u=-1:0,0:0,0:0,0:0"],
    )
    assert code == 0
    assert abs(json.loads(out)["results"]["value"][0] - (-1.0)) <= 1e-12


def test_search_finds_witness_violation(tmp_path, capsys):
    w = _write(tmp_path / "w.json", _witness_doc())
    code, out = _run(capsys, ["search", w, "--sr", "2,2,2", "--seed", "5"])
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["violation"]["value"] + 1.0) <= 1e-6
    vec = res["violation"]["vector"]
    assert vec["dims"] == [2, 2, 2]


def test_search_certified_class_reports_no_violation(tmp_path, capsys):
    w = _write(tmp_path / "w.json", _witness_doc())
    code, out = _run(capsys, ["search", w, "--sr", "1,2,2", "--seed", "5"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["no_violation"]["best_value"] >= -1e-6


def test_search_cut_target_on_a_witness_with_entries_near_1e307(tmp_path, capsys):
    # ||W||_F is 2.8e307, inside the Hermiticity gate; every reduced matrix of
    # the cut loop is bounded by ||W||, so no step overflows, and the outcome
    # is the one at scale 1, scaled
    w = family_choi(genuine_witness(1.0)).choi
    path = _write(tmp_path / "w.json", operator_to_json(TriOperator(w.dims, 1e307 * w.mat)))
    code, out = _run(capsys, ["search", path, "--sr", "1,2,2", "--seed", "5"])
    assert code == 0
    assert abs(json.loads(out)["results"]["no_violation"]["best_value"]) <= 1e-6 * 1e307


def test_search_general_target_on_a_witness_with_entries_near_1e307(tmp_path, capsys):
    # the general loop starts from a unit vector, so the start value is
    # finite and the (2, 2, 2) certificate is the one at scale 1, scaled
    w = family_choi(genuine_witness(1.0)).choi
    path = _write(tmp_path / "w.json", operator_to_json(TriOperator(w.dims, 1e307 * w.mat)))
    code, out = _run(capsys, ["search", path, "--sr", "2,2,2", "--seed", "0"])
    assert code == 0
    assert abs(json.loads(out)["results"]["violation"]["value"] + 1e307) <= 1e-6 * 1e307


def test_search_family_flags(capsys):
    code, out = _run(
        capsys,
        ["search", "--s", "0,1,1,1", "--t", "0,1,1,1", "--u=-1:0,0:0,0:0,0:0",
         "--sr", "2,2,2", "--seed", "6"],
    )
    assert code == 0
    assert abs(json.loads(out)["results"]["violation"]["value"] + 1.0) <= 1e-6


@pytest.mark.parametrize(
    "family",
    [["--s", "9,9,9,9"], ["--t", "9,9,9,9"], ["--u", "0:0,0:0,0:0,0:0"],
     ["--s", "9,9,9,9", "--t", "9,9,9,9", "--u", "0:0,0:0,0:0,0:0"]],
    ids=["s", "t", "u", "all"],
)
@pytest.mark.parametrize("command", ["pair", "search"])
def test_file_and_family_flags_together_exit_2(tmp_path, capsys, command, family):
    # a map file and --s/--t/--u are two sources for one map; neither may be dropped silently
    w = _write(tmp_path / "w.json", _witness_doc())
    state = _write(tmp_path / "ghz.json", _ghz_state_doc())
    what, argv = {
        "pair": ("map", ["pair", state, "--map", w]),
        "search": ("witness", ["search", w, "--sr", "1,2,2", "--restarts", "2", "--seed", "5"]),
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, *family]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{what} file" in captured.err and "--s/--t/--u" in captured.err


def test_search_rejects_non_hermitian(tmp_path, capsys):
    bad = np.triu(np.ones((8, 8)))
    path = _write(
        tmp_path / "bad.json", operator_to_json(TriOperator(TriDims(2, 2, 2), bad + 0j))
    )
    # the operator file round-trips fine; the search itself must refuse
    code, _ = _run(capsys, ["search", path, "--sr", "1,1,1"])
    assert code == 3


def test_reports_are_deterministic(capsys):
    argv = ["classify", "--s", "0,1,1,2", "--t", "0,1,1,2", "--u", "1:0,1:0,1:0,1:0"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_search_deterministic_with_seed(tmp_path, capsys):
    w = _write(tmp_path / "w.json", _witness_doc())
    argv = ["search", w, "--sr", "2,2,2", "--seed", "9", "--restarts", "3"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_gen_sample_state_properties(tmp_path, capsys):
    out_file = tmp_path / "state.json"
    code, _ = _run(
        capsys,
        ["gen", "--sr", "1,2,2", "--dims", "2,2,2", "--sample", "--terms", "5",
         "--seed", "3", "--out", str(out_file)],
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    mat = np.array([complex(re, im) for re, im in doc["data"]]).reshape(8, 8)
    assert abs(np.trace(mat).real - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(mat)[0] >= -1e-10


def test_gen_sample_deterministic_seed(capsys):
    argv = ["gen", "--sr", "1,2,2", "--dims", "2,2,2", "--sample", "--seed", "7"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_env_seed_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRIWIT_SEED", "123")
    argv = ["gen", "--sr", "1,1,1", "--dims", "2,2,2", "--sample"]
    _, with_env = _run(capsys, argv)
    monkeypatch.setenv("TRIWIT_SEED", "124")
    _, other_env = _run(capsys, argv)
    assert with_env != other_env
    monkeypatch.setenv("TRIWIT_SEED", "123")
    _, again = _run(capsys, argv)
    assert with_env == again


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_gives_identical_reports(tmp_path, capsys):
    # every subcommand twice in one process, in two orders, with an argparse
    # error, --help and --version between the rounds: the --out reports must not move
    vec = _write(tmp_path / "vec.json", vector_to_json(construct_state_with_sr((2, 2, 3), TriDims(2, 2, 3))))
    state = _write(tmp_path / "ghz.json", _ghz_state_doc())
    witness = _write(tmp_path / "w.json", _witness_doc())
    family = ["--s", "1.6,1.6,1.6,1.6", "--t", "1.6,1.6,1.6,1.6", "--u", "1.7:0,1.7:0,1.7:0,1.7:0"]
    commands = {
        "sr": ["sr", vec],
        "classify": ["classify", *family, "--grid-radii", "8", "--grid-angles", "8"],
        "pair": ["pair", state, *family],
        "search": ["search", witness, "--sr", "1,2,2", "--restarts", "2", "--seed", "5"],
        "gen": ["gen", "--sr", "1,2,2", "--dims", "2,2,2", "--sample", "--seed", "3"],
    }

    def run_all(order, tag):
        reports = {}
        for name in order:
            out = tmp_path / f"{name}-{tag}.json"
            assert main([*commands[name], "--out", str(out)]) == 0
            reports[name] = out.read_bytes()
        return reports

    first = run_all(list(commands), "first")
    assert main(["search", witness]) == 2  # no --sr
    assert main(["sr", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: triwit sr ")
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"triwit {__version__}\n" == "triwit 0.1.0\n"
    second = run_all(reversed(list(commands)), "second")
    assert first == second


@pytest.mark.parametrize("command", ["sr", "classify", "pair", "search", "search-(2,2,2)", "gen", "gen-sample"])
def test_report_layout_is_the_same_on_stdout_and_in_the_out_file(tmp_path, capsys, command):
    # every report is json.dumps(..., sort_keys=True, indent=2) and a newline,
    # byte for byte, on either destination; the (2,2,2) search certifies a
    # vector that the see-saw returns as a strided view
    if command == "search-(2,2,2)":
        argv = ["search", _write(tmp_path / "w.json", _witness_doc()), "--sr", "2,2,2", "--seed", "5"]
    elif command == "gen":
        argv = ["gen", "--sr", "2,2,3"]
    elif command == "gen-sample":
        argv = ["gen", "--sr", "1,2,2", "--dims", "2,2,2", "--sample", "--seed", "3"]
    else:
        argv = _report_argv(tmp_path, command)
    code, out = _run(capsys, argv)
    assert code == 0
    path = tmp_path / "report.json"
    assert main([*argv, "--out", str(path)]) == 0
    report = path.read_bytes()
    assert out.encode() == report
    assert report.decode() == json.dumps(json.loads(report), sort_keys=True, indent=2) + "\n"
    if command == "search-(2,2,2)":
        assert "violation" in json.loads(report)["results"]


TOL_FIELDS = {"--tol-rank": "rank_rel", "--tol-psd": "psd_abs", "--tol-ineq": "ineq_abs"}
# the tolerance flags each report's computation reads; gen writes no report and takes none
TOL_READ = {"sr": ["--tol-rank"], "classify": ["--tol-ineq"], "pair": [], "search": list(TOL_FIELDS)}


def _report_argv(tmp_path, command):
    if command == "sr":
        vec = construct_state_with_sr((2, 2, 3), TriDims(2, 2, 3))
        return ["sr", _write(tmp_path / "vec.json", vector_to_json(vec))]
    if command == "classify":
        return ["classify", "--s", "0,1,1,2", "--t", "0,1,1,2", "--grid-radii", "8", "--grid-angles", "8"]
    witness = _write(tmp_path / "w.json", _witness_doc())
    if command == "pair":
        return ["pair", _write(tmp_path / "ghz.json", _ghz_state_doc()), "--map", witness]
    return ["search", witness, "--sr", "1,2,2", "--restarts", "2", "--sweeps", "5", "--seed", "5"]


@pytest.mark.parametrize("flag", [None, *TOL_FIELDS])
@pytest.mark.parametrize("command", list(TOL_READ))
def test_commands_take_only_the_tolerance_flags_they_read(tmp_path, capsys, command, flag):
    argv = _report_argv(tmp_path, command)
    code, out = _run(capsys, argv if flag is None else [*argv, flag, "0.5"])
    if flag is not None and flag not in TOL_READ[command]:
        assert (code, out) == (2, "")  # a usage error, returned by main
        return
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "inputs", "results", "tolerance", "version"}
    echoed = {TOL_FIELDS[f]: 0.5 if f == flag else getattr(DEFAULT_TOL, TOL_FIELDS[f]) for f in TOL_READ[command]}
    assert report["tolerance"] == echoed


def test_module_entry_point_exit_codes():
    bogus = _run_module(["--bogus"])
    assert (bogus.returncode, bogus.stdout) == (2, "")
    assert "usage: triwit" in bogus.stderr
    version = _run_module(["--version"])
    assert (version.returncode, version.stdout, version.stderr) == (0, "triwit 0.1.0\n", "")


def test_vector_json_full_precision_round_trip(tmp_path):
    rng = np.random.default_rng(80)
    xi = TriVector(TriDims(2, 2, 2), rng.standard_normal(8) + 1j * rng.standard_normal(8))
    path = _write(tmp_path / "v.json", vector_to_json(xi))
    dims, data, _ = _read_array(path)
    back = TriVector(dims, data)
    # serialization must be lossless at double precision
    np.testing.assert_array_equal(back.data, xi.data)


def test_missing_file_exits_2(capsys):
    code, _ = _run(capsys, ["sr", "/nonexistent/file.json"])
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"dims": [2, 2, 2]},
        {"dims": [2, 2], "data": [[1.0, 0.0]] * 4},
        {"dims": [1, 1, 2.5], "data": [[1.0, 0.0]] * 2},
        {"dims": [1, 1, True], "data": [[1.0, 0.0]]},
        {"dims": [1, 1, 0], "data": []},
        {"dims": [1, 1, 2], "data": [["1", "0"], ["0", "1"]]},
        {"dims": [1, 1, 2], "data": [[1.0, 0.0], None]},
        {"dims": [1, 1, 2], "data": [[1.0, 0.0], [True, 0.0]]},
        {"dims": [1, 1, 2], "data": [[1.0, 0.0], [1.0]]},
        {"dims": [1, 1, 2], "data": [[1.0, 0.0], [1.0, 0.0, 0.0]]},
        {"dims": [1, 1, 2], "data": [[1.0, 0.0], [math.nan, 0.0]]},
        {"dims": [1, 1, 2], "data": [[1.0, 0.0], [10**400, 0]]},
        {"dims": [1, 1, 2], "data": "1,0,0,1"},
        {"dims": [1, 1, 2], "data": [[1.0, 0.0]] * 3},
        {"dims": [1, 1, 2], "rows": 3, "cols": 3, "data": [[1.0, 0.0]] * 4},
        {"dims": [1, 1, 1], "rows": True, "cols": 1.0, "data": [[1, 0]]},
        {"dims": [1, 1, 2], "rows": 2.0, "data": [[1.0, 0.0]] * 4},
    ],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, doc):
    path = _write(tmp_path / "bad.json", doc)
    for argv in (["sr", path], ["pair", path, "--map", path], ["search", path, "--sr", "1,1,1"]):
        code, _ = _run(capsys, argv)
        assert code == 2, argv


@pytest.mark.parametrize("target", ["0,2,2", "3,3,3"])
def test_search_rejects_target_outside_dims(tmp_path, capsys, target):
    w = _write(tmp_path / "w.json", _witness_doc())
    code, _ = _run(capsys, ["search", w, "--sr", target, "--restarts", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "flags,env",
    [(["--seed", "-1"], None), ([], "-1"), (["--restarts", "0"], None), (["--sweeps", "0"], None)],
)
def test_search_rejects_bad_config_with_one_error_line(tmp_path, capsys, monkeypatch, flags, env):
    # SeesawConfig refuses the value when it is built, before the search
    # starts, so the error is its own one line and not numpy's
    if env is not None:
        monkeypatch.setenv("TRIWIT_SEED", env)
    w = _write(tmp_path / "w.json", _witness_doc())
    code = main(["search", w, "--sr", "1,2,2", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be an integer" in err


@pytest.mark.parametrize("command", ["search", "gen"])
@pytest.mark.parametrize(
    "flags,env,source",
    [
        (["--seed", "-1"], None, "--seed"),
        (["--seed", "-1"], "3", "--seed"),
        ([], "-1", "TRIWIT_SEED"),
        ([], "abc", "TRIWIT_SEED"),
        ([], "1.5", "TRIWIT_SEED"),
        ([], "", "TRIWIT_SEED"),
    ],
)
def test_bad_seed_names_its_source_in_one_error_line(tmp_path, capsys, monkeypatch, command, flags, env, source):
    # a negative --seed, or a TRIWIT_SEED that is not an integer >= 0, exits 2
    # with one line that names the flag or the variable, not numpy's or int()'s
    if env is None:
        monkeypatch.delenv("TRIWIT_SEED", raising=False)
    else:
        monkeypatch.setenv("TRIWIT_SEED", env)
    if command == "search":
        argv = ["search", _write(tmp_path / "w.json", _witness_doc()), "--sr", "1,2,2", "--restarts", "1"]
    else:
        argv = ["gen", "--sr", "1,2,2", "--dims", "2,2,2", "--sample"]
    code = main(argv + flags)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {source} must be an integer >= 0, got ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["search", "gen"])
def test_seed_flag_wins_over_a_bad_environment_seed(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("TRIWIT_SEED", "abc")
    if command == "search":
        argv = ["search", _write(tmp_path / "w.json", _witness_doc()), "--sr", "1,2,2", "--restarts", "1"]
    else:
        argv = ["gen", "--sr", "1,2,2", "--dims", "2,2,2", "--sample"]
    assert main(argv + ["--seed", "4"]) == 0
    monkeypatch.setenv("TRIWIT_SEED", " 4\n")
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("s", ["nan,1,1,1", "inf,1,1,1"])
def test_classify_rejects_non_finite_params(capsys, s):
    code, _ = _run(capsys, ["classify", "--s", s, "--t", "1,1,1,1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--s", "0,1,1,0", "--t", "0,1,1,0", "--u", "1:0,1:0,1:0,1:0", "--sr", "2,2,2",
         "--tol-psd", "inf"],
        ["sr", "VECTOR", "--tol-rank", "inf"],
        # a rank tolerance of 1 or more would count no singular value, so every rank is 0
        ["sr", "VECTOR", "--tol-rank", "1"],
        ["search", "--s", "0,1,1,0", "--t", "0,1,1,0", "--u", "1:0,1:0,1:0,1:0", "--sr", "1,2,2",
         "--tol-rank", "2"],
        # a Hermiticity gate of 1 or more would pass a defect as large as W itself
        ["search", "--s", "0,1,1,0", "--t", "0,1,1,0", "--u", "1:0,1:0,1:0,1:0", "--sr", "1,2,2",
         "--tol-psd", "1"],
        # sr reads no Hermiticity gate, so it refuses the flag
        ["sr", "VECTOR", "--tol-psd", "0.5"],
        # an inequality slack of 1 or more would make every inequality hold: this
        # member's Choi matrix is indefinite, and no search value could certify
        ["classify", "--s", "0,0,0,0", "--t", "0,0,0,0", "--u", "1:0,0:0,0:0,0:0", "--tol-ineq", "1"],
        ["search", "--s", "0,1,1,0", "--t", "0,1,1,0", "--u", "1:0,1:0,1:0,1:0", "--sr", "1,2,2",
         "--tol-ineq", "1"],
    ],
)
def test_infinite_tolerance_exits_2(tmp_path, capsys, argv):
    vec = vector_to_json(TriVector(TriDims(2, 2, 2), np.arange(8, dtype=float)))
    path = _write(tmp_path / "v.json", vec)
    code, out = _run(capsys, [path if a == "VECTOR" else a for a in argv])
    assert code == 2
    assert out == ""


def test_deeply_nested_file_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _ = _run(capsys, ["sr", str(path)])
    assert code == 2


def test_gen_unallocatable_triplet_exits_2(capsys):
    # each array is beyond gen's size limit, so it is refused before anything is allocated
    for argv in (
        ["gen", "--sr", "100000,100000,100000"],
        ["gen", "--sr", "1000,1000,1000"],
        ["gen", "--sample", "--sr", "1,1,1", "--dims", "100,100,100"],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_size_limit_counts_entries(capsys, monkeypatch):
    monkeypatch.setattr(cli, "GEN_MAX_ENTRIES", 8)
    assert main(["gen", "--sr", "2,2,2"]) == 0
    assert main(["gen", "--sr", "1,1,1", "--dims", "3,1,3"]) == 2
    assert main(["gen", "--sample", "--sr", "1,1,1", "--dims", "2,1,1"]) == 0
    assert main(["gen", "--sample", "--sr", "1,1,1", "--dims", "3,1,1"]) == 2


@pytest.mark.parametrize(
    "member",
    [["--s", "1,1,1,1", "--t", "1,1,1,1"], ["--s", "1,1,1,1", "--t", "1,1,1,1", "--u", "1.2:0,0.9:0,0.9:0,1.2:0"]],
    ids=["certified-by-sum", "refuted-on-the-grid"],
)
def test_classify_grid_limit_counts_points(capsys, monkeypatch, member):
    # an oversized alpha grid is refused before it is allocated, whether or
    # not the member's (1,1,1) verdict would need the grid
    monkeypatch.setattr(cli, "GRID_MAX_POINTS", 16)
    assert main(["classify", *member, "--grid-radii", "4", "--grid-angles", "4"]) == 0
    assert main(["classify", *member, "--grid-radii", "4", "--grid-angles", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # a negative count is named, not read as a grid of 4,000,000 points over the cap
    assert main(["classify", *member, "--grid-radii", "-2000", "--grid-angles", "-2000"]) == 2
    assert capsys.readouterr().err == "error: radii must be an integer >= 1, got -2000\n"


def test_map_needs_a_file_or_both_s_and_t(tmp_path, capsys):
    # --s or --t alone is no map, whichever command reads it
    state = _write(tmp_path / "ghz.json", _ghz_state_doc())
    for argv in (["pair", state, "--s", "0,1,1,1"], ["search", "--sr", "1,2,2", "--t", "0,1,1,1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and "--s/--t/--u" in captured.err


def test_gen_takes_no_tolerance_flags(capsys):
    assert main(["gen", "--sr", "1,1,1", "--tol-rank", "1e-3"]) == 2


def test_gen_terms_and_seed_need_sample(capsys):
    # both flags only steer the sampler, so without --sample they are input errors
    for extra in (["--terms", "3"], ["--seed", "7"], ["--terms", "3", "--seed", "7"]):
        code = main(["gen", "--sr", "1,1,1", *extra])
        captured = capsys.readouterr()
        assert code == 2, extra
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert main(["gen", "--sr", "1,1,1", "--sample", "--terms", "3", "--seed", "7"]) == 0


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only: importing the package and its CLI must not load it
    probe = "import sys, triwit, triwit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv", [["gen", "--sr", "1,1,1", "--dims", "2,2,2"], ["classify", "--s", "1,1,1,1", "--t", "1,1,1,1"]]
)
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, target):
    out = tmp_path / "missing" / "out.json" if target == "missing_dir" else tmp_path
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_out_of_memory_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(path, dims_flag=None):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(cli, "_read_array", exhausted)
    code = main(["sr", str(tmp_path / "v.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: out of memory: cannot allocate\n"


def test_failed_stdout_write_exits_2(capsys, monkeypatch):
    # an error while the report streams out is one error line and exit 2, as for an unwritable --out
    class BrokenPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    code = main(["gen", "--sr", "1,1,1", "--dims", "2,2,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: [Errno 32] Broken pipe\n"
