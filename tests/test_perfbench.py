"""Smoke run of the benchmark: the library calls it makes still work."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_gy2_appendix_one_cycle():
    # --seconds 0 runs a single cycle of the 17 gy2 points; no timing bound.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gy2-appendix", "--seed", "1",
         "--seconds", "0"],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_families_no_failed_operation(tmp_path, monkeypatch):
    # Four inputs of each family (seed 5), every library call and its check.
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import gen
    import ops

    import multiroot
    from multiroot.cli import parse_system

    paths = [path for block in gen.family_inputs(tmp_path, 5, 4) for path in block]
    instances = ops.load(paths, parse_system)
    failed = [
        (inst.point, outcome)
        for inst in instances
        for op, fn in ops.inprocess_ops(multiroot).items()
        if (outcome := ops.run_inprocess(op, fn, inst)).failed
    ]
    assert len(instances) == 32
    assert not failed
