"""Smoke runs of the identity script ``tests/identity.py`` and the A/B
timing script ``tests/abtime.py``."""

import ast
import json
import os
import subprocess
import sys

import pytest

from multiroot.cli import main, parse_system

from conftest import FIXTURES, REPO


def run_identity(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "tests/identity.py", *args],
        cwd=REPO, env=env, capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def one_point_per_family():
    proc = run_identity("802", "1")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_one_point_per_family(one_point_per_family, capsys):
    records = [json.loads(line) for line in one_point_per_family.splitlines()]
    # One point of each of the 8 families, the 17 gy2 points, then the 8
    # family points again under the appendix_slice norm.
    assert len(records) == 8 + 17 + 8
    assert [r["input"] for r in records[-8:]] == [
        r["input"] + "@appendix" for r in records[:8]
    ]
    assert len({r["input"] for r in records}) == len(records)
    assert all(
        set(r) == {"input", "parsed", "trace", "iterates", "certificate"} for r in records
    )
    # The parsed coefficients, in stored order, read back from float.hex.
    gy2 = next(r for r in records if r["input"] == "gy2_000")
    system, _point, _options = parse_system(str(FIXTURES / "gy2.json"))
    assert [
        (eq["order"], [(tuple(a), complex(float.fromhex(re), float.fromhex(im)))
                       for a, re, im in eq["terms"]])
        for eq in gy2["parsed"]
    ] == [(eq.order, list(eq.coefficients.items())) for eq in system.equations]
    # The generated gy2 point 0 is the fixture: its trace is the deflate report.
    assert main(["deflate", "--input", str(FIXTURES / "gy2.json")]) == 0
    fixture = next(r for r in records if r["input"] == "gy2_000")
    assert fixture["trace"] == json.loads(capsys.readouterr().out)


def test_diff_names_the_changed_decisions(one_point_per_family, tmp_path):
    records = [json.loads(line) for line in one_point_per_family.splitlines()]
    before = tmp_path / "a.jsonl"
    before.write_text(one_point_per_family)
    changed = [json.loads(json.dumps(r)) for r in records]
    kerneled = next(r for r in changed if r["trace"]["thickness"] >= 1)
    # A last-bit float change only.
    changed[-1]["trace"]["steps"][0]["gate"]["eta"] *= 1.0 + 2.0**-52
    # A different pivot, a flipped gate and the trajectory cut to x0.
    step = kerneled["trace"]["steps"][0]
    step["pivot_cols"] = [c + 1 for c in step["pivot_cols"]]
    kerneled["trace"]["steps"][1]["gate"]["passed"] = False
    trajectory = ast.literal_eval(kerneled["iterates"])
    kerneled["iterates"] = repr(trajectory[:1])
    after = tmp_path / "b.jsonl"
    after.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in changed))

    proc = run_identity("--diff", str(before), str(after))
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    assert list(lines) == [r["input"] for r in records]
    assert lines[records[-1]["input"]] == "floats only"
    changes = lines[kerneled["input"]].split("; ")
    assert [c.split(":")[0] for c in changes] == ["steps[0].pivots", "steps[1].gate", "iterates"]
    assert changes[-1] == f"iterates: {len(trajectory)} -> 1"
    assert sum(text == "identical" for text in lines.values()) == len(records) - 2


def test_abtime_against_this_checkout():
    """One input per family, this checkout against itself."""
    proc = subprocess.run(
        [sys.executable, "tests/abtime.py", ".", "--count", "1", "--reps", "1"],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header, columns, *rows = proc.stdout.splitlines()
    assert header == "families-complex, seed 802: 8 inputs x 1 reps"
    assert columns.split() == ["op", "this_ms", "other_ms", "ratio", "per-rep", "ratios"]
    assert [row.split()[0] for row in rows] == ["total", "deflate", "solve", "certify", "parse"]
    for row in rows:
        this_ms, other_ms, ratio, rep = map(float, row.split()[1:])
        assert this_ms > 0 and other_ms > 0 and ratio == rep
        assert ratio == pytest.approx(this_ms / other_ms, rel=1e-2)
