"""Bit-for-bit identity check of the library's outputs.

    PYTHONPATH=src python tests/identity.py SEED PER_FAMILY > out.jsonl

writes one JSON line per generated input: the ``deflate`` report of its
deflation trace, the reprs of the ``newton_iterate(..., 4)`` iterates and the
repr of the ``singular_alpha_certificate`` report.  The inputs are
``perfbench/gen.py``'s ``family_inputs(SEED, PER_FAMILY)`` followed by the 17
gy2 points of ``gy2_inputs(0, 16)``.  Run it under two checkouts and ``cmp``
the outputs: a refactor that claims to change no output bit must leave them
byte-identical.  pytest does not collect this file; ``test_identity.py``
smoke-runs it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import gen  # noqa: E402

from multiroot.certificates import singular_alpha_certificate  # noqa: E402
from multiroot.cli import build_trace_report, parse_system  # noqa: E402
from multiroot.deflation import deflation_sequence, newton_iterate  # noqa: E402


def _outcome(fn):
    """``fn()``, or the exception it raised, as a string."""
    try:
        return fn()
    except Exception as exc:  # an escaped error is an output too
        return f"{type(exc).__name__}: {exc}"


def record(path: Path) -> dict:
    system, point, options = parse_system(str(path))
    backend = options["backend"]
    return {
        "input": path.stem,
        "trace": _outcome(
            lambda: build_trace_report(deflation_sequence(system, point, backend))
        ),
        "iterates": _outcome(lambda: repr(newton_iterate(system, point, 4, backend))),
        "certificate": _outcome(
            lambda: repr(singular_alpha_certificate(system, point, backend)[0])
        ),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: identity.py SEED PER_FAMILY\n")
        return 1
    seed, per_family = int(argv[0]), int(argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        paths = [p for block in gen.family_inputs(out, seed, per_family) for p in block]
        paths += gen.gy2_inputs(out, 0, 16)
        for path in paths:
            sys.stdout.write(json.dumps(record(path), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
