"""Mutation gate: every listed mutant must make the tier-1 tests fail.

    python tests/mutate.py [--tests PATH]... [NAME ...]

copies the checkout (without ``.git`` and caches) into a temporary
directory once per mutant, applies the mutant's one edit there and runs
``python -m pytest -x -q`` on ``tests`` (or on each ``--tests`` path) with
that copy's ``src`` on ``PYTHONPATH``.  ``test_mutate.py`` is left out of
the run: its check that each edit applies fails on every mutant.  The mutants run one after another,
with no parallel workers.  For each mutant it prints ``killed`` and the
first failing test, or ``survived``.  A mutant marked as a known survivor
prints its reason beside the result.  Each edit's old text must occur
exactly once in its file.  The exit status is 1 when an unmarked mutant
survives or a run errs, else 0.  pytest does not collect this file;
``test_mutate.py`` smoke-runs it.

A change that adds a decision adds its mutant here.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    survives: str | None = None  # why a known survivor is accepted, for now


MUTANTS = (
    Mutant(
        "gamma-floor",
        "src/multiroot/certificates.py",
        "gamma = max(1.0, lam * kap * mu)",
        "gamma = lam * kap * mu",
    ),
    Mutant(
        "kappa-floor",
        "src/multiroot/bergman.py",
        "return max(1.0, (ball.dim + 1) / (ball.radius * (1.0 - nx * nx)))",
        "return (ball.dim + 1) / (ball.radius * (1.0 - nx * nx))",
    ),
    Mutant(
        "pivot-cap-inclusive",
        "src/multiroot/deflation.py",
        "if count > _PIVOT_BRUTE_LIMIT:",
        "if count >= _PIVOT_BRUTE_LIMIT:",
    ),
    Mutant(
        "pivot-cap-removed",
        "src/multiroot/deflation.py",
        "if count > _PIVOT_BRUTE_LIMIT:",
        "if False:",
    ),
    Mutant(
        "extract-cap-inclusive",
        "src/multiroot/deflation.py",
        "if count > _EXTRACT_BRUTE_LIMIT:",
        "if count >= _EXTRACT_BRUTE_LIMIT:",
    ),
    Mutant(
        "extract-cap-removed",
        "src/multiroot/deflation.py",
        "if count > _EXTRACT_BRUTE_LIMIT:",
        "if False:",
    ),
    Mutant(
        "pivot-tie-keys-swapped",
        "src/multiroot/deflation.py",
        "np.lexsort((ii[tied], jj[tied]))",
        "np.lexsort((jj[tied], ii[tied]))",
    ),
    Mutant(
        "truncation-order",
        "src/multiroot/deflation.py",
        "_run_rounds(f, x0, backend, ell, ell + 1)",
        "_run_rounds(f, x0, backend, ell, ell + 2)",
    ),
    Mutant(
        "zero-rtol",
        "src/multiroot/series.py",
        "ZERO_RTOL = 1e-12",
        "ZERO_RTOL = 1e-10",
    ),
    Mutant(
        "report-keeps-tuples",
        "src/multiroot/cli.py",
        "value = list(value)",
        "value = value",
    ),
    Mutant(
        "report-lambda-unrenamed",
        "src/multiroot/cli.py",
        '(f.name, "lambda" if f.name == "lam" else f.name)',
        "(f.name, f.name)",
    ),
    Mutant(
        "stagnation-rtol",
        "src/multiroot/deflation.py",
        "_STAGNATION_RTOL = 1e-15",
        "_STAGNATION_RTOL = 1e-13",
    ),
    Mutant(
        "select-recenter-skipped",
        "src/multiroot/deflation.py",
        "if f.center != x0:",
        "if False:",
    ),
    Mutant(
        "schur-passes-short",
        "src/multiroot/schur.py",
        "range(self.order + 1)",
        "range(self.order)",
    ),
    Mutant(
        "schur-monos-order",
        "src/multiroot/schur.py",
        "(sum(a), a[::-1])",
        "(sum(a), a)",
    ),
    Mutant(
        "series-normal-form",
        "src/multiroot/series.py",
        "{a: 0.0 + c for a, c in coefficients.items() if c != 0}",
        "{a: c for a, c in coefficients.items() if c != 0}",
    ),
    Mutant(
        "evaluate-pass-dropped",
        "src/multiroot/series.py",
        "for t, v, e in layout.passes:",
        "for t, v, e in layout.passes[:-1]:",
    ),
    Mutant(
        "extract-nan-first",
        "src/multiroot/deflation.py",
        "key=lambda k: (math.isnan(residuals[k]), residuals[k])",
        "key=lambda k: residuals[k]",
    ),
    Mutant(
        "extract-atest-skipped",
        "src/multiroot/deflation.py",
        "if report.full_rank:",
        "if True:",
    ),
    Mutant(
        "complements-unreversed",
        "src/multiroot/deflation.py",
        "_subsets(s, s - r)[::-1][ii]",
        "_subsets(s, s - r)[ii]",
    ),
    Mutant(
        "alpha-threshold-subtractive",
        "src/multiroot/certificates.py",
        "return 1.0 / (2.0 * gamma + 1.0 + math.sqrt((2.0 * gamma + 1.0) ** 2 - 1.0))",
        "return 2.0 * gamma + 1.0 - math.sqrt((2.0 * gamma + 1.0) ** 2 - 1.0)",
    ),
    Mutant(
        "parse-exponent-sign",
        "src/multiroot/cli.py",
        "type(e) is int and e >= 0 for e in exps",
        "type(e) is int for e in exps",
    ),
)

_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"
)
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def apply(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's edit; its old text must occur exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant, tests: list[str]) -> tuple[str, str]:
    """(``killed``, ``survived`` or ``error``; the first failing test or the
    error's last output line) for one mutant, run in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=_IGNORE)
        target = copy / mutant.path
        target.write_text(apply(target.read_text(), mutant))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutate.py", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if proc.returncode == 0:
        return "survived", ""
    first = _FIRST_FAILURE.search(proc.stdout)
    if proc.returncode == 1 and first:
        return "killed", first.group(1)
    tail = (proc.stdout + proc.stderr).strip().splitlines()
    return "error", f"pytest exit {proc.returncode}: {tail[-1] if tail else ''}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--tests", action="append", help="a pytest path (default: tests)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    status = 0
    for mutant in [by_name[name] for name in args.names] or list(MUTANTS):
        result, detail = run(mutant, args.tests or ["tests"])
        if result == "error" or (result == "survived" and mutant.survives is None):
            status = 1
        note = f"  (known survivor: {mutant.survives})" if mutant.survives else ""
        print(f"{mutant.name}: {result}{' ' + detail if detail else ''}{note}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
