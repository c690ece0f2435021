"""Property tests: every CLI input ends in a documented exit code.

Arbitrary JSON documents go in as data files and arbitrary strings as the
comma-separated flags; the CLI must answer 0, 2 (input error) or 3
(non-Hermitian input) and never let an exception escape, argparse's
SystemExit included.  Flag values are
built from small integers and digit-free text, so a fuzzed --sr or --dims
never asks for a tensor larger than 6 x 6 x 6.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from triwit import family_choi, genuine_witness
from triwit.cli import main, operator_to_json

FUZZ = settings(database=None, derandomize=True, deadline=None, max_examples=40)
CONTRACT = {0, 2, 3}

WITNESS_DOC = operator_to_json(family_choi(genuine_witness(1.0)).choi)

# explicit alphabets: a text strategy over all of unicode costs seconds to set up
_text = st.text("adimnrotwscl0.:-\"\u00e9\x00 ", max_size=4)
_scalar = st.none() | st.booleans() | st.integers() | st.floats() | _text
_json = st.recursive(
    _scalar,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_text, kids, max_size=4),
    max_leaves=12,
)
_number = st.integers(-1, 3) | st.floats()
_shaped = st.fixed_dictionaries(
    {
        "dims": st.lists(st.integers(0, 3) | _scalar, max_size=4) | _scalar,
        "data": st.lists(st.lists(_number | _scalar, max_size=3) | _scalar, max_size=9) | _scalar,
    },
    optional={"rows": _number | _scalar, "cols": _number | _scalar},
)
_pair = st.tuples(st.floats(0.5, 2) | st.integers(1, 2), st.integers(-2, 2) | st.floats(-2, 2)).map(list)
_vector = st.lists(st.integers(1, 2), min_size=3, max_size=3).flatmap(
    lambda d: st.fixed_dictionaries(
        {"dims": st.just(d), "data": st.lists(_pair, min_size=math.prod(d), max_size=math.prod(d))}
    )
)
documents = _json | _shaped | _vector | st.just(WITNESS_DOC)

_token = (
    st.integers(-2, 6).map(str)
    | st.sampled_from(["", "nan", "inf", "-inf", "1e400", "0.5", " 2", "1:1", "1:nan", "-1:0"])
    | st.text(" +-.:_aefinx\t\u00e9", max_size=3)
)
_fuzzed = st.lists(_token, max_size=5).map(",".join)


def _flag(n: int, values=st.integers(0, 3).map(str)):
    """A well-formed list of ``n`` values, or an arbitrary flag string."""
    return st.lists(values, min_size=n, max_size=n).map(",".join) | _fuzzed


triplets = _flag(3)


def _exit_code(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


@FUZZ
@given(doc=documents, dims=triplets, sr=triplets)
def test_fuzzed_files_keep_exit_contract(tmp_path_factory, doc, dims, sr):
    path = str(tmp_path_factory.mktemp("fuzz") / "doc.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for argv in (
        ["sr", path],
        ["sr", path, f"--dims={dims}"],
        ["pair", path, f"--map={path}"],
        ["search", path, f"--sr={sr}", "--restarts", "1", "--sweeps", "2"],
    ):
        assert _exit_code(argv) in CONTRACT, argv


@FUZZ
@given(
    sr=triplets,
    dims=triplets,
    s=_flag(4),
    t=_flag(4),
    u=_flag(4, st.sampled_from(["1:0", "-1:0", "0:1", "0.5:-0.5", "2"])),
)
def test_fuzzed_flags_keep_exit_contract(sr, dims, s, t, u):
    family = [f"--s={s}", f"--t={t}", f"--u={u}"]
    for argv in (
        ["gen", f"--sr={sr}", f"--dims={dims}"],
        ["gen", f"--sr={sr}", "--sample", "--terms", "1"],
        ["classify", *family, "--grid-radii", "4", "--grid-angles", "4"],
        ["search", *family, f"--sr={sr}", "--restarts", "1", "--sweeps", "2"],
    ):
        assert _exit_code(argv) in CONTRACT, argv
