"""Smoke runs of the mutation gate ``tests/mutate.py``."""

import subprocess
import sys

import pytest

import mutate
from conftest import REPO


@pytest.mark.parametrize("mutant", mutate.MUTANTS, ids=lambda m: m.name)
def test_each_edit_applies_once(mutant):
    text = (REPO / mutant.path).read_text()
    assert mutate.apply(text, mutant) != text


def test_an_edit_must_be_unique():
    twice = mutate.Mutant("twice", "x.py", "a", "b")
    with pytest.raises(ValueError, match="old text occurs 2 times"):
        mutate.apply("a a", twice)


def test_one_mutant_against_one_file():
    proc = subprocess.run(
        [sys.executable, "tests/mutate.py", "--tests", "tests/test_certificates.py",
         "gamma-floor"],
        cwd=REPO, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "gamma-floor: killed "
        "tests/test_certificates.py::TestPointQuantities::test_gamma_is_at_least_one\n"
    )
