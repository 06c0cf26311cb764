"""tools/code_size.py --against: module sizes at a git revision beside the
work tree's, and the change between them."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


pytestmark = pytest.mark.skipif(
    shutil.which("git") is None
    or git("rev-parse", "--verify", "HEAD").returncode != 0,
    reason="needs a git checkout")

#: a module or the total: (lines, settable) at REV, in the work tree, delta
ROW = re.compile(r"(\S+)"
                 + r"\s+([+-]?\d+) lines\s+([+-]?\d+) settable" * 3)


def test_against_head_has_no_delta_on_unchanged_modules():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_size.py"),
         "--against", "HEAD"], capture_output=True, text=True, check=True)
    rows = {m[1]: [int(v) for v in m.groups()[1:]]
            for m in map(ROW.fullmatch, out.stdout.splitlines()[1:])}
    modules = sorted(p.name for p in (ROOT / "src" / "favlab").glob("*.py"))
    assert sorted(rows) == sorted(modules + ["total"])
    for name, (lines0, params0, lines1, params1, dl, dp) in rows.items():
        assert (dl, dp) == (lines1 - lines0, params1 - params0)
    # a module edited since HEAD may differ; every other one reads 0, and
    # in a clean checkout that is every module and the total
    changed = git("diff", "--name-only", "HEAD", "--",
                  "src/favlab").stdout.split()
    for name in modules:
        if f"src/favlab/{name}" not in changed:
            assert rows[name][4:] == [0, 0], name
    if not changed:
        assert rows["total"][4:] == [0, 0]
