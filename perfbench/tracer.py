"""Runtime span tracer for the traced benchmark run.

The tracer wraps public functions of ``multiroot`` at run time; no file of
the package changes.  Modules import names with ``from .x import y``, so a
function object is bound in several module namespaces: ``install`` replaces
every binding of it across ``multiroot.*``.  A wrapper records one span per
call (name, start, end, parent span, exception type if one escaped) in flat
arrays kept in memory; ``save`` writes them out when the run ends.

Self time of a span is its duration minus the time covered by its child
spans.  Spans of one benchmark operation share its root ``op.*`` span.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> [(metric name, function name in multiroot.<layer>)]
# ``pivots`` and ``extract`` wrap private helpers; when a refactor removes
# them their time falls into their caller's self time and their counts read 0.
LAYERS = {
    "series": [(n, n) for n in (
        "ts_evaluate", "ts_recenter", "ts_derivative", "jacobian",
        "schur_complement", "system_evaluate",
    )],
    "bergman": [(n, n) for n in ("norm_a2", "series_norm_a2", "lambda_bound")],
    "rank": [("numerical_rank", "numerical_rank")],
    "deflation": [(n, n) for n in (
        "deflation_sequence", "newton_iterate", "select_detailed", "is_small",
        "kernel_op", "singular_newton_step",
    )] + [("pivots", "_kerneling_pivots"), ("extract", "_extract_square_indexed")],
    "certificates": [(n, n) for n in (
        "singular_alpha_certificate", "point_quantities", "alpha_certificate",
        "gamma_radius",
    )],
    "cli": [(n, n) for n in ("parse_system", "build_trace_report")],
}

NORM_SPANS = ("bergman.norm_a2", "bergman.series_norm_a2")

ERROR_TYPES = (
    "ExtractionError", "RankDeficiencyError", "LinearSolveError",
    "CertificateUnavailableError", "NonTerminationError",
    "TruncationExhaustedError", "SingularPivotError", "DomainError",
    "StructuralError", "ParseError", "other",
)


class Tracer:
    """Flat in-memory span store; parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.exc_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.exc_id.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, exc: BaseException | None) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if exc is not None:
            self.exc_id[idx] = self._id(type(exc).__name__)

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, exc)
                raise
            self._close(idx, None)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results --------------------------------------------------------

    def arrays(self):
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        exc_id = np.frombuffer(self.exc_id, dtype=np.int32)
        return dur, parent, name_id, exc_id

    def save(self, path) -> None:
        dur, parent, name_id, exc_id = self.arrays()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=name_id,
            parent=parent,
            exc_id=exc_id,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls, inclusive and self time; per-layer self time;
        ratios, counts and escaped-exception counts."""
        dur, parent, name_id, exc_id = self.arrays()
        nspans = len(dur)
        has_parent = parent >= 0
        child = np.zeros(nspans)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        # Inclusive time counts only spans with no ancestor of the same name,
        # so a recursive call is not counted twice.  One pass in opening
        # order replays the call stack.
        outermost = np.ones(nspans, dtype=bool)
        in_norm = np.zeros(nspans, dtype=bool)
        norm_ids = {self._ids[n] for n in NORM_SPANS if n in self._ids}
        names_l, parents_l = name_id.tolist(), parent.tolist()
        stack: list[int] = []
        depth = [0] * len(self.names)
        norm_depth = 0
        for i in range(nspans):
            while stack and stack[-1] != parents_l[i]:
                j = names_l[stack.pop()]
                depth[j] -= 1
                norm_depth -= j in norm_ids
            nid = names_l[i]
            outermost[i] = depth[nid] == 0
            in_norm[i] = norm_depth > 0
            stack.append(i)
            depth[nid] += 1
            norm_depth += nid in norm_ids

        out: dict[str, tuple[float, str]] = {}
        for layer, funcs in LAYERS.items():
            layer_self = 0.0
            for metric, _fn in funcs:
                name = f"{layer}.{metric}"
                if name in self._ids:
                    mask = name_id == self._ids[name]
                    calls = int(mask.sum())
                    incl = float(dur[mask & outermost].sum())
                    own = float(self_time[mask].sum())
                else:
                    calls, incl, own = 0, 0.0, 0.0
                out[f"{name}.calls"] = (calls, "count")
                out[f"{name}.s"] = (incl, "s")
                out[f"{name}.self_s"] = (own, "s")
                layer_self += own
            out[f"{layer}.self_s"] = (layer_self, "s")

        norm_calls = int(np.isin(name_id, list(norm_ids))[~in_norm].sum())
        evals = (name_id == self._ids.get("series.ts_evaluate", -1)) & in_norm
        out["bergman.evals_per_norm"] = (int(evals.sum()) / norm_calls if norm_calls else 0.0, "ratio")
        out["bergman.norm_evals_s"] = (float(self_time[evals].sum()), "s")
        for key in ("deflation.is_small.passed", "deflation.thickness_sum", "deflation.gate_failed"):
            out[key] = (self.counts.get(key, 0), "count")

        # An exception is counted once, at the outermost span it escaped.
        escaped = exc_id >= 0
        top = escaped & ~np.where(has_parent, escaped[np.maximum(parent, 0)], False)
        counts = {t: 0 for t in ERROR_TYPES}
        for eid in exc_id[top]:
            ename = self.names[eid]
            counts[ename if ename in counts else "other"] += 1
        for t in ERROR_TYPES:
            out[f"errors.{t}"] = (counts[t], "count")
        out["trace.spans"] = (nspans, "count")
        return out


def _on_is_small(tracer: Tracer, gate) -> None:
    if gate.passed:
        tracer.count("deflation.is_small.passed")


def _on_deflation(tracer: Tracer, trace) -> None:
    tracer.count("deflation.thickness_sum", trace.thickness)
    if trace.gate_failed:
        tracer.count("deflation.gate_failed")


HOOKS = {
    "deflation.is_small": _on_is_small,
    "deflation.deflation_sequence": _on_deflation,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every listed function in every ``multiroot`` namespace.

    Returns the replaced bindings as (module, name, original) for
    ``uninstall``.  Must run after the whole package is imported.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "multiroot" or name.startswith("multiroot."))]
    replaced = []
    for layer, funcs in LAYERS.items():
        home = sys.modules.get(f"multiroot.{layer}")
        if home is None:
            continue
        for metric, attr in funcs:
            original = getattr(home, attr, None)
            if original is None:
                continue
            span = f"{layer}.{metric}"
            wrapper = tracer.wrap(span, original, HOOKS.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))
    return replaced


def uninstall(bindings: list[tuple[object, str, object]]) -> None:
    for module, key, original in bindings:
        setattr(module, key, original)
