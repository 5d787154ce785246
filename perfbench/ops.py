"""Benchmark operations and the checks on their outputs.

An operation is one library call (``deflate``, ``solve``, ``certify``) on one
parsed input.  The timed region holds only the call; checks run after it
against the known root.  An operation fails when it raises or when an output
check fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen

SOLVE_STEPS = 4
# Criterion-4 goldens: gy2 singular Newton iterates 1 and 2 from the fixture
# point with the appendix backend, matched to 1e-3 relative.
GY2_ITERATES = ((1.5231e-7, -4.5263e-7), (1.0038e-13, -1.6932e-13))
GOLDEN_RTOL = 1e-3


@dataclass(frozen=True)
class Instance:
    system: object
    point: tuple
    backend: str
    root: tuple
    fixture: bool  # the gy2 fixture point, checked against the goldens


@dataclass
class Outcome:
    op: str
    ms: float
    error: str | None = None    # exception type
    check: str | None = None    # why an output check failed
    converged: bool = False     # solve only

    @property
    def failed(self) -> bool:
        return self.error is not None or self.check is not None


def load(paths: list[Path], parse_system) -> list[Instance]:
    out = []
    for path in paths:
        system, point, opts = parse_system(str(path))
        fixture = (
            opts["backend"] == "appendix_slice"
            and tuple(v.real for v in point) == gen.GY2_FIXTURE_POINT
        )
        out.append(Instance(system, point, opts["backend"], gen.read_root(path), fixture))
    return out


def _dist(x, y) -> float:
    return math.sqrt(sum(abs(complex(a) - complex(b)) ** 2 for a, b in zip(x, y)))


def check_solve(traj, x0, root, fixture: bool) -> tuple[str | None, bool]:
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for x in traj for v in x):
        return "iterate is not finite", False
    start, last = _dist(x0, root), _dist(traj[-1], root)
    converged = last <= 1e-8 * (1.0 + _dist(root, [0.0] * len(root)))
    if tuple(traj[-1]) != tuple(traj[0]) and last > start:
        return f"trajectory moved away from the root ({start:.3e} -> {last:.3e})", converged
    if fixture:
        for k, want in enumerate(GY2_ITERATES, start=1):
            got = [v.real for v in traj[k]] if len(traj) > k else [math.nan] * 2
            err = math.dist(got, want)
            if not err <= GOLDEN_RTOL * math.hypot(*want):
                return f"gy2 iterate {k} = {got} differs from {want}", converged
    return None, converged


def check_certificate(alpha_ok: bool, theta_low, x0, root) -> str | None:
    if not alpha_ok:
        return None
    dist = _dist(x0, root)
    if theta_low is None or not math.isfinite(theta_low) or dist > theta_low:
        return f"certified ball B(x0, {theta_low}) misses the root at distance {dist:.3e}"
    return None


def inprocess_ops(mr):
    """The three library calls, bound to the ``multiroot`` package ``mr``."""

    def deflate(inst: Instance):
        return mr.deflation_sequence(inst.system, inst.point, inst.backend)

    def solve(inst: Instance):
        return mr.newton_iterate(inst.system, inst.point, SOLVE_STEPS, inst.backend)

    def certify(inst: Instance):
        return mr.singular_alpha_certificate(inst.system, inst.point, inst.backend)

    return {"deflate": deflate, "solve": solve, "certify": certify}


def check_inprocess(op: str, inst: Instance, result) -> tuple[str | None, bool]:
    if op == "report":  # ``inst`` is the deflation trace, ``result`` its JSON
        if len(json.loads(result)["steps"]) != len(inst.steps):
            return "report does not list every deflation step", False
        return None, False
    if op == "deflate":
        square = result.deflated
        if square is not None and square.size != square.dim:
            return "deflated system is not square", False
        return None, False
    if op == "solve":
        return check_solve(result, inst.point, inst.root, inst.fixture)
    report, _trace = result
    return check_certificate(report.alpha_ok, report.theta_low, inst.point, inst.root), False


def run_inprocess(op: str, fn, inst: Instance) -> Outcome:
    t0 = perf_counter()
    try:
        result = fn(inst)
    except Exception as exc:  # the loop must go on; the type is recorded
        return Outcome(op, (perf_counter() - t0) * 1e3, error=type(exc).__name__)
    ms = (perf_counter() - t0) * 1e3
    check, converged = check_inprocess(op, inst, result)
    return Outcome(op, ms, check=check, converged=converged)


def run_report(build_trace_report, trace) -> Outcome:
    """The ``deflate`` command's JSON output for one deflation trace."""
    return run_inprocess("report", lambda t: json.dumps(build_trace_report(t)), trace)
