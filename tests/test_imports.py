import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import multiroot

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, multiroot\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(multiroot.__path__))
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"multiroot.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
