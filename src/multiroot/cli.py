"""JSON-driven command line interface.

Input file schema (``SystemFile``)::

    {
      "vars": ["x", "y"],                  # variable names, defines n >= 2
      "equations": [                        # one list of terms per equation
        [ [[re, im], [e1, ..., en]], ... ]  # term: coefficient + exponents
      ],
      "point": [[re, im], ...],             # the working point x0
      "radius": 1.0,                        # ambient ball radius R > 0
      "order": 3,                           # truncation order (default: the degree)
      "norm_backend": "complex"             # "complex" | "appendix"
    }

Equations are read as polynomials in the original variables, recentered at
``point`` and truncated at ``order``; the ambient ball is B(point, radius).
Without ``order`` (in the file or as ``--order``) the order is the input's
degree, the highest total degree among its terms, so nothing is truncated.
``deflate rank`` also accepts ``{"matrix": [[entry, ...], ...]}`` with
entries given as numbers or [re, im] pairs.  Every number must be a finite
JSON number: ``true``, ``false``, ``NaN`` and ``Infinity`` are parse errors.

Commands: ``rank``, ``deflate``, ``solve``, ``certify``.  Output is JSON on
stdout (compact by default, ``--pretty`` for indented), byte-identical
across runs on the same input.  Exit codes: 0 success or report, 1 usage or
parse error, 2 a failed deflation hypothesis, 3 internal numerical error
(unreachable on well-posed input) or an overflow of finite input beyond
double precision.  ``deflate`` exits 2 with its trace, whose
``failure`` names the hypothesis; ``rank`` exits 2 with ``{"failure": ...}``
in the same wording when the selection fails; ``certify`` exits 0 and lists
it in ``notes``; ``solve`` stops at the point where a hypothesis fails and
exits 0.

A report object is its record's fields, with tuples as lists and ``lam``
as ``lambda``: ``rank`` prints a ``RankReport``, ``certify`` a
``CertificateReport`` (its ``quantities`` a ``PointQuantities``) plus the
trace's ``thickness``, and a ``deflate`` step's ``gate``, ``rank`` and
``provenance`` are a ``SmallnessGate``, a ``RankReport`` and ``SelectionRecord``s.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from .bergman import APPENDIX_SLICE, COMPLEX_EXACT
from .certificates import singular_alpha_certificate
from .deflation import (
    DeflationTrace,
    deflation_sequence,
    newton_iterate,
    raised_failure,
    select_detailed,
)
from .errors import HypothesisFailure, MultirootError, ParseError
from .rank import numerical_rank
from .series import AnalyticSystem, TruncatedSeries, jacobian_at, recenter_series

__all__ = ["main", "parse_system", "build_trace_report"]

_BACKEND_ALIASES = {
    "complex": COMPLEX_EXACT,
    "complex_exact": COMPLEX_EXACT,
    "appendix": APPENDIX_SLICE,
    "appendix_slice": APPENDIX_SLICE,
}


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _is_int(value: Any) -> bool:
    """A JSON integer; ``true`` and ``false`` are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    """A finite JSON number: not a boolean, NaN, an infinity or an integer
    too large for a float."""
    return type(value) is not list and _number(value) is not None


_REAL = (int, float)


def _number(value: Any) -> complex | None:
    """A finite JSON number or an [re, im] pair of them as a complex, else
    None.  JSON gives exact types, and a boolean is neither an int nor a
    float here."""
    if type(value) is list:
        if len(value) != 2:
            return None
        re, im = value
    else:
        re, im = value, 0.0
    if type(re) not in _REAL or type(im) not in _REAL:
        return None
    try:
        z = complex(re, im)
    except OverflowError:  # an integer too large for a float
        return None
    return z if math.isfinite(z.real) and math.isfinite(z.imag) else None


def _read_complex(value: Any, where: str) -> complex:
    z = _number(value)
    if z is None:
        raise ParseError(f"{where}: expected a number or an [re, im] pair, got {value!r}")
    return z


def _term_error(i: int, t: int, what: str) -> ParseError:
    return ParseError(f"field 'equations'[{i}][{t}]: {what}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except FileNotFoundError as exc:
        raise ParseError(f"input file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:
        # Line ends as text mode reads them, which the error positions count.
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    return data


def parse_system(
    path: str,
    order_override: int | None = None,
    backend_override: str | None = None,
) -> tuple[AnalyticSystem, tuple[complex, ...], dict]:
    """Load a SystemFile: validated, recentered at its point, truncated."""
    data = _load_json(path)
    for key in ("vars", "equations", "point", "radius"):
        if key not in data:
            raise ParseError(f"missing field {key!r}")
    vars_ = data["vars"]
    if not isinstance(vars_, list) or not vars_:
        raise ParseError("field 'vars': expected a nonempty list of names")
    n = len(vars_)
    equations_raw = data["equations"]
    if not isinstance(equations_raw, list) or not equations_raw:
        raise ParseError("field 'equations': expected a nonempty list")
    point_raw = data["point"]
    if not isinstance(point_raw, list) or len(point_raw) != n:
        raise ParseError(f"field 'point': expected {n} coordinates")
    point = tuple(_read_complex(v, "field 'point'") for v in point_raw)
    radius = data["radius"]
    if not _is_finite(radius) or radius <= 0:
        raise ParseError("field 'radius': expected a positive number")
    order = data.get("order")
    if order_override is not None:
        order = order_override
    if order is not None and not (_is_int(order) and order >= 0):
        raise ParseError("field 'order': expected a nonnegative integer")
    backend_name = data.get("norm_backend", "complex")
    if backend_override is not None:
        backend_name = backend_override
    if not isinstance(backend_name, str) or backend_name not in _BACKEND_ALIASES:
        raise ParseError(
            f"field 'norm_backend': expected 'complex' or 'appendix', got {backend_name!r}"
        )
    backend = _BACKEND_ALIASES[backend_name]
    if n < 2:
        raise ParseError(
            f"field 'vars': expected at least 2 variables, got {n}; the smallness "
            "threshold eta is defined for n >= 2"
        )

    # One pass over the terms; an error's location is formatted only when
    # it is raised.  Every check of the TruncatedSeries and AnalyticSystem
    # constructors is made here (exponents' length and sign, the order at
    # least each degree, a finite radius > 0, one center inside the ball),
    # so the series and the system are built without them.
    polynomials = []
    for i, terms in enumerate(equations_raw):
        if type(terms) is not list or not terms:
            raise ParseError(f"field 'equations'[{i}]: expected a nonempty list of terms")
        coeffs: dict[tuple[int, ...], complex] = {}
        for t, term in enumerate(terms):
            if type(term) is not list or len(term) != 2:
                raise _term_error(i, t, "expected [coefficient, exponents]")
            coef, exps = term
            z = _number(coef)
            if z is None:
                raise _term_error(i, t, f"expected a number or an [re, im] pair, got {coef!r}")
            if type(exps) is not list or not all(type(e) is int and e >= 0 for e in exps):
                raise _term_error(i, t, "exponents must be nonnegative integers")
            if len(exps) != n:
                raise _term_error(i, t, f"exponent list has length {len(exps)}, expected {n}")
            alpha = tuple(exps)
            coeffs[alpha] = coeffs.get(alpha, 0.0) + z
        polynomials.append((max(map(sum, coeffs)), coeffs))
    if order is None:
        # Without an order nothing the input lists is truncated away.
        order = max(degree for degree, _coeffs in polynomials)
    # Exact polynomials around the origin, then one recentering pass.
    origin = (0j,) * n
    full = [
        TruncatedSeries._of(origin, max(degree, order), coeffs)
        for degree, coeffs in polynomials
    ]
    equations = recenter_series(full, point, [order] * len(full))
    system = AnalyticSystem._of(n, equations, point, float(radius))
    options = {"order": order, "backend": backend, "vars": [str(v) for v in vars_]}
    return system, point, options


def _series_dict(f: TruncatedSeries) -> dict:
    return {
        "center": [_pair(c) for c in f.center],
        "order": f.order,
        "terms": [[_pair(c), list(alpha)] for alpha, c in f.items()],
    }


@functools.cache
def _keys(cls: type) -> tuple[tuple[str, str], ...]:
    """(field name, JSON key) per dataclass field of cls, read once a class."""
    return tuple((f.name, "lambda" if f.name == "lam" else f.name) for f in dataclasses.fields(cls))


def _fields(record: Any) -> dict | None:
    """A record (or None) as JSON: its dataclass fields by name, tuples as
    lists, a nested record as its own fields and ``lam`` as "lambda"."""
    if record is None:
        return None
    payload = {}
    for name, key in _keys(type(record)):
        value = getattr(record, name)
        if isinstance(value, tuple):
            value = list(value)
        elif dataclasses.is_dataclass(value):
            value = _fields(value)
        payload[key] = value
    return payload


def build_trace_report(trace: DeflationTrace) -> dict:
    """Lossless, JSON-compatible report of a deflation trace."""
    steps = []
    for step in trace.steps:
        steps.append(
            {
                "kind": step.kind,
                "equations": [_series_dict(eq) for eq in step.system.equations],
                "gate": _fields(step.gate),
                "rank": _fields(step.rank_report),
                "pivot_rows": None if step.pivot_rows is None else list(step.pivot_rows),
                "pivot_cols": None if step.pivot_cols is None else list(step.pivot_cols),
                "provenance": [_fields(rec) for rec in step.provenance],
                "mu": step.mu,
            }
        )
    return {
        "thickness": trace.thickness,
        "gate_failed": trace.gate_failed,
        "deflated": None
        if trace.deflated is None
        else {
            "equations": [_series_dict(eq) for eq in trace.deflated.equations],
            "indices": list(trace.deflated_indices),
        },
        "p0": trace.p0,
        "p": trace.p,
        "mu_values": list(trace.mu_values),
        "steps": steps,
        "failure": trace.failure,
    }


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _cmd_rank(args) -> int:
    data = _load_json(args.input)
    if "matrix" in data:
        rows = data["matrix"]
        if not isinstance(rows, list) or not rows:
            raise ParseError("field 'matrix': expected a nonempty list of rows")
        width = None
        matrix = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or not row:
                raise ParseError(f"field 'matrix'[{i}]: expected a nonempty row")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"field 'matrix'[{i}]: ragged row")
            matrix.append([_read_complex(v, f"field 'matrix'[{i}]") for v in row])
        report = numerical_rank(np.array(matrix, dtype=complex))
    else:
        system, point, options = parse_system(args.input, args.order, args.norm_backend)
        try:
            selected, _records = select_detailed(system, point, options["backend"])
        except HypothesisFailure as exc:
            _emit({"failure": raised_failure(exc, 0)}, args.pretty)
            return 2
        report = numerical_rank(jacobian_at(selected, point))
    _emit(_fields(report), args.pretty)
    return 0


def _cmd_deflate(args) -> int:
    system, point, options = parse_system(args.input, args.order, args.norm_backend)
    trace = deflation_sequence(
        system, point, options["backend"], max_iters=args.max_iters
    )
    _emit(build_trace_report(trace), args.pretty)
    return 0 if trace.deflated is not None else 2


def _cmd_solve(args) -> int:
    system, point, options = parse_system(args.input, args.order, args.norm_backend)
    traj = newton_iterate(system, point, args.steps, options["backend"])
    payload = {
        "steps": args.steps,
        "iterates": [[_pair(c) for c in x] for x in traj],
    }
    _emit(payload, args.pretty)
    return 0


def _cmd_certify(args) -> int:
    system, point, options = parse_system(args.input, args.order, args.norm_backend)
    report, trace = singular_alpha_certificate(system, point, options["backend"])
    _emit({**_fields(report), "thickness": trace.thickness}, args.pretty)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the CLI contract
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="deflate",
        description="Certified deflation, singular Newton iteration and "
        "alpha/gamma certificates for multiple roots of analytic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--input", required=True, help="path to the JSON input file")
        p.add_argument("--order", type=_int_at_least(0), help="truncation order override")
        p.add_argument(
            "--norm-backend",
            choices=sorted(_BACKEND_ALIASES),
            default=None,
            help="norm backend override",
        )
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", help="compact JSON (default)")
        group.add_argument("--pretty", action="store_true", help="indented JSON")

    p_rank = sub.add_parser("rank", help="numerical rank report")
    common(p_rank)
    p_rank.set_defaults(func=_cmd_rank)

    p_deflate = sub.add_parser("deflate", help="deflation sequence trace")
    common(p_deflate)
    p_deflate.add_argument(
        "--max-iters", type=_int_at_least(0), default=None, help="kerneling-round safety cap"
    )
    p_deflate.set_defaults(func=_cmd_deflate)

    p_solve = sub.add_parser("solve", help="singular Newton iteration")
    common(p_solve)
    p_solve.add_argument(
        "--steps", type=_int_at_least(1), default=1, help="number of Newton steps"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_certify = sub.add_parser("certify", help="alpha/gamma certificates")
    common(p_certify)
    p_certify.set_defaults(func=_cmd_certify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"deflate: parse error: {exc}\n")
        return 1
    except MultirootError as exc:
        sys.stderr.write(f"deflate: internal numerical error: {exc}\n")
        return 3
    except OverflowError as exc:
        # Finite input whose numbers outgrow double precision on the way.
        sys.stderr.write(f"deflate: numerical overflow: {exc}\n")
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
