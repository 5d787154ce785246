"""Benchmark of multiroot's deflate / solve / certify pipeline.

Run from the repository root; the package is imported from ``src`` and is
never installed::

    python3 perfbench/run.py --workload gy2-appendix --seed 1 --seconds 20 --trace 0

Workloads (one caller, closed loop: the next operation starts when the
previous one returns; one warm-up before timing; a run measures whole cycles
of the workload's inputs, so every run sees the same instance mix):

  gy2-appendix      the paper's worked example with the appendix_slice norm;
                    per point: deflation_sequence, newton_iterate(f, x0, 4),
                    singular_alpha_certificate.  Points: the fixture point,
                    then 16 fixed seeded points at 1e-4..8e-4 from the root,
                    in an order drawn from the run seed.
  families-complex  Griewank-Osborne, cmbs1, cmbs2, DZ1 (n=4), KSS n=3..6 with
                    the complex_exact norm, the same three calls, points drawn
                    from the run seed at 1e-6..1e-4 from the root, in a seeded
                    shuffled order.

The appendix_slice norm for n >= 3 is a 200k-sample Monte Carlo costing
about 4.65 s per equation, so no workload runs it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed list
of operations untraced and then traced, and prints the per-layer metrics
from the traced pass plus ``trace.overhead``.  The last line of stdout is
the result as one JSON object.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, and inherited by every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
import ops  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("gy2-appendix", "families-complex")
# gy2 norms are adaptive quadratures whose cost depends on the point, so every
# run takes the same points (generator seed GY2_POINT_SEED); the run seed only
# orders them.  One cycle of 17 points takes ~18 s.
GY2_POINT_SEED = 0
GY2_SEEDED_POINTS = 16
POINTS_PER_FAMILY = 96     # one cycle of 8 x 96 points takes 17-24 s
SETUP_REPS = 5
IMPORT_REPS = 3
TRACE_ITEMS = {"gy2-appendix": 3, "families-complex": 192}

SETUP_CODE = (
    "import sys\n"
    "from multiroot.cli import parse_system\n"
    "for p in sys.argv[1:]:\n"
    "    parse_system(p)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def make_cycle(workload: str, seed: int, out: Path) -> list[Path]:
    """The input files of one cycle of the workload, in timing order: the gy2
    fixture point, then the other gy2 points in a seeded order; or blocks of
    one point of every family, each block in a seeded shuffled order, with
    golden-ratio distances that spread the blocks over the distance range."""
    if workload == "gy2-appendix":
        fixture, *rest = gen.gy2_inputs(out, GY2_POINT_SEED, GY2_SEEDED_POINTS)
        random.Random(f"order:{workload}:{seed}").shuffle(rest)
        return [fixture, *rest]
    return [p for block in gen.family_inputs(out, seed, POINTS_PER_FAMILY) for p in block]


def run_loop(cycle: list, do, seconds: float | None = None, count: int | None = None):
    """The first ``count`` items of ``cycle``, or whole cycles up to the cycle
    boundary nearest to ``seconds``."""
    outcomes = []
    t0 = perf_counter()
    if count is not None:
        for item in cycle[:count]:
            outcomes.extend(do(item))
        return outcomes, perf_counter() - t0
    done = 0
    while True:
        for item in cycle:
            outcomes.extend(do(item))
        done += 1
        if (perf_counter() - t0) * (1 + 0.5 / done) >= seconds:
            return outcomes, perf_counter() - t0


def time_setup(paths: list[Path], env: dict) -> list[float]:
    """Fresh interpreters that import multiroot and parse the inputs."""
    argv = [sys.executable, "-c", SETUP_CODE, *(str(p.relative_to(ROOT)) for p in paths)]
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
        times.append(perf_counter() - t0)
    return times


def import_times(env: dict) -> dict[str, tuple[float, str]]:
    """``python -X importtime`` figures, median of IMPORT_REPS processes."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        samples.setdefault("import.startup_s", []).append(perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import multiroot"],
                              env=env, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=60)
        for key, value in parse_importtime(proc.stderr).items():
            samples.setdefault(key, []).append(value)
    return {k: (statistics.median(v), "s") for k, v in samples.items()}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of numpy, of every outermost scipy import, and of
    multiroot (which contains both)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((level, name.strip(), int(cumulative) * 1e-6))
    out = {"import.numpy_s": 0.0, "import.scipy_s": 0.0, "import.multiroot_s": 0.0}
    ancestors: list[str] = []
    # A module's line follows the lines of what it imported, so parents come
    # first when reading backwards.
    for level, name, cum in reversed(rows):
        del ancestors[level:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if name == "numpy":
            out["import.numpy_s"] += cum
        elif is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            out["import.scipy_s"] += cum
        elif name == "multiroot":
            out["import.multiroot_s"] += cum
        ancestors.append(name)
    return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples above it.  Below 20 samples that percentile would lie
    under the median, so the maximum stands in for it."""
    xs = sorted(values)
    k = len(xs) - 11 if len(xs) >= 20 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def end_to_end(outcomes, wall: float, setup: list[float], rss_kib: int, record: dict):
    """The gated metrics.  Latency is gated as the mean time per call.  On the
    family mix the latencies cluster by family and the median falls in a gap
    between clusters (the 45th to 55th percentile of deflate spans 5.2 to
    7.3 ms), so it jumps when the host speeds families up unevenly.  Medians
    and tails go to ``record`` only; the tail sits at the edge of a small
    cluster of slow KSS-6 points and moved by 25-40% between seeds."""
    metrics = {"setup_s": (statistics.median(setup), "s")}
    groups = {"deflate": [], "solve": [], "certify": []}
    for o in outcomes:
        groups[o.op].append(o.ms)
    for name, values in groups.items():
        metrics[f"{name}_ms"] = (statistics.fmean(values), "ms")
        value, pct, beyond = tail(values)
        record[f"{name}_latency"] = {"median_ms": statistics.median(values), "tail_ms": value,
                                     "percentile": pct, "beyond": beyond,
                                     "samples": len(values)}
    solves = [o for o in outcomes if o.op == "solve"]
    failed = sum(o.failed for o in outcomes)
    metrics["ops_per_s"] = (len(outcomes) / wall, "1/s")
    metrics["ok_frac"] = (1.0 - failed / len(outcomes), "fraction")
    metrics["converged_frac"] = (sum(o.converged for o in solves) / len(solves), "fraction")
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
    return metrics


def error_counts(outcomes) -> dict[str, int]:
    counts: dict[str, int] = {}
    for o in outcomes:
        key = o.error or (o.check and "check_failed")
        if key:
            counts[key] = counts.get(key, 0) + 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "multiroot" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no multiroot package under {SRC}; run from the repository root\n")
        return 2

    import numpy
    import scipy

    sys.path.insert(0, str(SRC))
    import multiroot
    import multiroot.cli

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    env = child_env()
    WORK.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        paths = make_cycle(args.workload, args.seed, inputs)
        cycle = ops.load(paths, multiroot.cli.parse_system)
        calls = ops.inprocess_ops(multiroot)

        def do(inst):
            return [ops.run_inprocess(op, fn, inst) for op, fn in calls.items()]

        if args.trace:
            metrics, outcomes = traced_run(args, cycle, do, calls, paths, env, record)
        else:
            do(cycle[0])  # warm-up, untimed
            outcomes, wall = run_loop(cycle, do, seconds=args.seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            setup = time_setup(paths, env)
            record["setup_s"] = setup
            record["timed_wall_s"] = wall
            metrics = end_to_end(outcomes, wall, setup, rss, record)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    record["errors"] = error_counts(outcomes)
    record["loadavg_end"] = os.getloadavg()
    failed = sum(o.failed for o in outcomes)
    correct = not any(o.check for o in outcomes)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>14.6g} {unit}")
    for name in ("deflate", "solve", "certify"):
        t = record.get(f"{name}_latency")
        if t:
            print(f"{name + '_median_ms':44s} {t['median_ms']:>14.6g} ms")
            print(f"{name + '_tail_ms':44s} {t['tail_ms']:>14.6g} ms  "
                  f"(p{t['percentile']:.1f}, {t['beyond']} beyond, {t['samples']} samples)")
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(args, cycle, do, calls, paths, env, record):
    """The first TRACE_ITEMS inputs of the cycle, run untraced, traced and
    untraced again; ``trace.overhead`` compares the traced pass with the mean
    of the two untraced ones, which cancels a steady drift of machine speed.
    Per-layer metrics come from the traced pass; the outcomes of all passes
    are returned.  With the tracer installed, the ``cli`` layer is measured
    too: the inputs are parsed once more, and each deflation trace of the
    traced pass is turned into the ``deflate`` command's JSON report."""
    import tracer as tracing

    count = TRACE_ITEMS[args.workload]
    do(cycle[0])  # warm-up, untimed
    before, wall_before = run_loop(cycle, do, count=count)

    tr = tracing.Tracer()
    bindings = tracing.install(tr)
    record["wrapped_bindings"] = len(bindings)
    plain = dict(calls)
    deflations = []
    # ``do`` reads ``calls``, so each call gets an op.* root span.
    for op in plain:
        keep = (lambda _tr, trace: deflations.append(trace)) if op == "deflate" else None
        calls[op] = tr.wrap(f"op.{op}", plain[op], keep)
    cli = sys.modules["multiroot.cli"]
    parse = tr.wrap("op.parse", cli.parse_system)
    for path in paths:
        parse(str(path))
    traced, wall_traced = run_loop(cycle, do, count=count)
    report = tr.wrap("op.report", ops.run_report)
    traced += [report(cli.build_trace_report, trace) for trace in deflations]
    tracing.uninstall(bindings)
    calls.update(plain)
    after, wall_after = run_loop(cycle, do, count=count)

    out_path = WORK / f"trace_{args.workload}_{args.seed}.npz"
    tr.save(out_path)
    metrics = tr.layer_metrics()
    metrics["errors.check_failed"] = (sum(bool(o.check) for o in traced), "count")
    metrics.update(import_times(env))
    metrics["trace.overhead"] = (wall_traced / ((wall_before + wall_after) / 2), "ratio")
    record["trace_file"] = str(out_path.relative_to(ROOT))
    record["untraced_wall_s"] = [wall_before, wall_after]
    record["traced_wall_s"] = wall_traced
    return metrics, before + traced + after


if __name__ == "__main__":
    sys.exit(main())
