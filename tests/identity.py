"""Bit-for-bit identity check of the library's outputs.

    PYTHONPATH=src python tests/identity.py SEED PER_FAMILY > out.jsonl

writes one JSON line per generated input: the parsed system's coefficients
(each equation's order and its terms in stored order, every coefficient as
the ``float.hex`` of its real and imaginary parts), the ``deflate`` report of
its deflation trace, the reprs of the ``newton_iterate(..., 4)`` iterates and
the repr of the ``singular_alpha_certificate`` report.  The inputs are
``perfbench/gen.py``'s ``family_inputs(SEED, PER_FAMILY)``, then the 17 gy2
points of ``gy2_inputs(0, 16)``, then the family inputs again under the
appendix_slice norm, named ``<input>@appendix``, so that the slice norm runs
at n >= 3 as well.  Run it under two checkouts and ``cmp`` the outputs: a
refactor that claims to change no output bit must leave them byte-identical.

    python tests/identity.py --diff A.jsonl B.jsonl

compares two such outputs input by input.  It prints "identical", "floats
only", or each decision that changed, as ``name: before -> after``: the
failure (its text with the numbers masked), thickness, p0 and p; each step's
kind, rank, pivots and whether its gate passed; the number of Newton iterates
and the alpha verdict.  pytest does not collect this file;
``test_identity.py`` smoke-runs it.
"""

from __future__ import annotations

import json
import re
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


def record(path: Path, override: str | None = None) -> dict:
    """The outputs for the input at ``path``, under the backend ``override``
    names when one is given, which then marks the input's name."""
    system, point, options = parse_system(str(path), backend_override=override)
    backend = options["backend"]
    return {
        "input": path.stem if override is None else f"{path.stem}@{override}",
        "parsed": [
            {
                "order": eq.order,
                "terms": [
                    [list(alpha), c.real.hex(), c.imag.hex()]
                    for alpha, c in eq.coefficients.items()
                ],
            }
            for eq in system.equations
        ],
        "trace": _outcome(
            lambda: build_trace_report(deflation_sequence(system, point, backend))
        ),
        "iterates": _outcome(lambda: repr(newton_iterate(system, point, 4, backend))),
        "certificate": _outcome(
            lambda: repr(singular_alpha_certificate(system, point, backend)[0])
        ),
    }


_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|\bnan\b|\binf\b")


def _masked(text: str) -> str:
    """``text`` with every number replaced by #."""
    return _NUMBER.sub("#", text)


def _iterate_count(text: str) -> int | str:
    """The number of points in a repr'd trajectory, or the masked error."""
    if not text.startswith("["):
        return _masked(text)
    count, depth = 0, 0
    for ch in text:
        if ch == "(":
            depth += 1
            count += depth == 1
        elif ch == ")":
            depth -= 1
    return count


def decisions(rec: dict) -> dict[str, object]:
    """The decisions of one identity record, by name."""
    out: dict[str, object] = {}
    trace = rec["trace"]
    if isinstance(trace, str):
        out["trace"] = _masked(trace)
    else:
        out["failure"] = None if trace["failure"] is None else _masked(trace["failure"])
        for key in ("thickness", "p0", "p"):
            out[key] = trace[key]
        for k, step in enumerate(trace["steps"]):
            out[f"steps[{k}].kind"] = step["kind"]
            out[f"steps[{k}].rank"] = None if step["rank"] is None else step["rank"]["rank"]
            out[f"steps[{k}].pivots"] = (step["pivot_rows"], step["pivot_cols"])
            out[f"steps[{k}].gate"] = None if step["gate"] is None else step["gate"]["passed"]
    out["iterates"] = _iterate_count(rec["iterates"])
    verdict = re.search(r"alpha_ok=(True|False)", rec["certificate"])
    out["alpha_ok"] = verdict.group(1) if verdict else _masked(rec["certificate"])
    return out


def diff(path_a: str, path_b: str) -> list[str]:
    """One line per input of A: identical, floats only, or the changes."""
    def read(path):
        with open(path) as fh:
            return {r["input"]: r for r in map(json.loads, fh)}

    a, b = read(path_a), read(path_b)
    lines = []
    for name, rec in a.items():
        other = b.get(name)
        if other is None:
            lines.append(f"{name}: missing from B")
        elif other == rec:
            lines.append(f"{name}: identical")
        else:
            da, db = decisions(rec), decisions(other)
            changed = [
                f"{key}: {da.get(key)} -> {db.get(key)}"
                for key in dict.fromkeys([*da, *db])
                if da.get(key) != db.get(key)
            ]
            lines.append(f"{name}: " + ("; ".join(changed) if changed else "floats only"))
    lines += [f"{name}: missing from A" for name in b if name not in a]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        sys.stdout.write("".join(line + "\n" for line in diff(argv[1], argv[2])))
        return 0
    if len(argv) != 2:
        sys.stderr.write("usage: identity.py SEED PER_FAMILY | --diff A B\n")
        return 1
    seed, per_family = int(argv[0]), int(argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        families = [p for block in gen.family_inputs(out, seed, per_family) for p in block]
        runs = [(p, None) for p in families + gen.gy2_inputs(out, 0, 16)]
        runs += [(p, "appendix") for p in families]
        for path, override in runs:
            sys.stdout.write(json.dumps(record(path, override), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
