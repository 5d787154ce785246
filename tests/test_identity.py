"""Smoke run of the identity script ``tests/identity.py``."""

import json
import os
import subprocess
import sys

from multiroot.cli import main

from conftest import FIXTURES, REPO


def test_one_point_per_family(capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "tests/identity.py", "802", "1"],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    # One point of each of the 8 families, then the 17 gy2 points.
    assert len(records) == 8 + 17
    assert len({r["input"] for r in records}) == len(records)
    assert all(set(r) == {"input", "trace", "iterates", "certificate"} for r in records)
    # The generated gy2 point 0 is the fixture: its trace is the deflate report.
    assert main(["deflate", "--input", str(FIXTURES / "gy2.json")]) == 0
    fixture = next(r for r in records if r["input"] == "gy2_000")
    assert fixture["trace"] == json.loads(capsys.readouterr().out)
