"""Interleaved A/B timing of two checkouts in one process.

    python tests/abtime.py OTHER_CHECKOUT [--workload W] [--seed N] [--reps R]
                           [--count K]

loads this checkout's ``multiroot`` package and OTHER_CHECKOUT's under two
names in one interpreter, parses the same generated inputs with each, and
runs ``deflation_sequence``, ``newton_iterate(f, x0, 4)`` and
``singular_alpha_certificate`` on every input under both, alternating which
goes first from one call to the next.  It times ``cli.parse_system`` on
every input file the same way.  It prints each operation's process time per
call under both and the ratio this / other; below 1 this checkout is
faster.  The per-rep ratios show the spread.  The ``total`` row sums
deflate, solve and certify; ``parse`` is its own row.

Both packages see the same machine state within microseconds of each other,
so a change of ~10% shows here in a few seconds where whole benchmark runs
drift by more than that from one run to the next.  The inputs are
``perfbench/gen.py``'s: K blocks of one point of every family
(``families-complex``, default K = 24), or the gy2 fixture point and K
seeded points (``gy2-appendix``, default K = 16).  Each package is
compiled before it is loaded, so that stale or missing bytecode biases
neither side.  pytest does not collect this file; ``test_identity.py``
smoke-runs it.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import gen  # noqa: E402

OPS = ("deflate", "solve", "certify")
TIMED = (*OPS, "parse")
SOLVE_STEPS = 4


def load_package(name: str, src: Path):
    """The ``multiroot`` package under ``src``, compiled and imported as
    ``name``."""
    init = src / "multiroot" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"abtime: no multiroot package under {src}")
    compileall.compile_dir(init.parent, quiet=1)
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def calls(mr, path: Path):
    """The timed operations of one input, bound to the package ``mr``."""
    parse_system = sys.modules[f"{mr.__name__}.cli"].parse_system
    system, point, options = parse_system(str(path))
    backend = options["backend"]
    return {
        "deflate": lambda: mr.deflation_sequence(system, point, backend),
        "solve": lambda: mr.newton_iterate(system, point, SOLVE_STEPS, backend),
        "certify": lambda: mr.singular_alpha_certificate(system, point, backend),
        "parse": lambda: parse_system(str(path)),
    }


def timed(fn) -> float:
    """Process time of one call, in seconds; an exception is an outcome too."""
    t0 = time.process_time()
    try:
        fn()
    except Exception:
        pass
    return time.process_time() - t0


def inputs(workload: str, seed: int, count: int | None, out: Path) -> list[Path]:
    if workload == "gy2-appendix":
        return gen.gy2_inputs(out, seed, 16 if count is None else count)
    return [p for block in gen.family_inputs(out, seed, 24 if count is None else count)
            for p in block]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the other checkout's root")
    parser.add_argument("--workload", default="families-complex",
                        choices=("families-complex", "gy2-appendix"))
    parser.add_argument("--seed", type=int, default=802)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--count", type=int, default=None,
                        help="points per family, or seeded gy2 points")
    args = parser.parse_args(argv)

    sides = {
        "this": load_package("multiroot_this", REPO / "src"),
        "other": load_package("multiroot_other", args.other.resolve() / "src"),
    }
    # The input files stay on disk while ``parse`` is timed.
    with tempfile.TemporaryDirectory() as tmp:
        paths = inputs(args.workload, args.seed, args.count, Path(tmp))
        work = [{side: calls(mr, p) for side, mr in sides.items()} for p in paths]
        for side in sides:  # warm-up, untimed
            for fn in work[0][side].values():
                timed(fn)
        # totals[rep][op][side], in seconds.
        totals = [{op: dict.fromkeys(sides, 0.0) for op in TIMED} for _ in range(args.reps)]
        for rep in range(args.reps):
            for k, item in enumerate(work):
                # Which side goes first alternates from one input to the next
                # for each op, and from one op to the next for each input.
                for j, op in enumerate(TIMED):
                    turn = rep * len(work) + k + j
                    order = list(sides) if turn % 2 == 0 else list(reversed(sides))
                    for side in order:
                        totals[rep][op][side] += timed(item[side][op])
    # ms per call of each op; the total is ms per input for deflate, solve
    # and certify.
    scale = 1e3 / (args.reps * len(work))
    print(f"{args.workload}, seed {args.seed}: {len(work)} inputs x {args.reps} reps")
    print(f"{'op':8s} {'this_ms':>9s} {'other_ms':>9s} {'ratio':>7s}  per-rep ratios")
    for op in ("total", *TIMED):
        picked = OPS if op == "total" else (op,)
        per_rep = [{s: sum(t[o][s] for o in picked) for s in sides} for t in totals]
        this = sum(r["this"] for r in per_rep)
        other = sum(r["other"] for r in per_rep)
        ratios = [r["this"] / r["other"] if r["other"] else float("nan") for r in per_rep]
        spread = " ".join(f"{x:.3f}" for x in ratios)
        ratio = this / other if other else float("nan")
        print(f"{op:8s} {this * scale:9.3f} {other * scale:9.3f} {ratio:7.3f}  {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
