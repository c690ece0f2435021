"""README's library sketch, run as written: each printed line against the comment on its print."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_prints_what_its_comments_say():
    (sketch,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", sketch, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(sketch, {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(comments) == sketch.count("print(")
    for line, comment in zip(lines, comments):
        # "about v, ..." is v to a rounding; any other comment is the printed line itself
        if comment.startswith("about "):
            assert float(line) == pytest.approx(float(comment.split()[1].rstrip(",")), abs=1e-12)
        else:
            assert line == comment
