"""``parse_system`` against ``reference_parse``, the reader it replaced.

``reference_parse`` checks each term in its own pass, formats each term's
location before checking it and builds the series with the checking
constructors.  Generated valid files must parse to the same system bit for
bit, and one-field mutations of them must fail with the same message.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiroot.bergman import APPENDIX_SLICE, COMPLEX_EXACT
from multiroot.cli import parse_system
from multiroot.errors import ParseError
from multiroot.series import AnalyticSystem, TruncatedSeries, recenter_series

_BACKEND_ALIASES = {
    "complex": COMPLEX_EXACT,
    "complex_exact": COMPLEX_EXACT,
    "appendix": APPENDIX_SLICE,
    "appendix_slice": APPENDIX_SLICE,
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _read_complex(value: Any, where: str) -> complex:
    if _is_finite(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_finite(v) for v in value):
        return complex(value[0], value[1])
    raise ParseError(f"{where}: expected a number or an [re, im] pair, got {value!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    return data


def reference_parse(path, order_override=None, backend_override=None):
    """``parse_system`` as it read a SystemFile before its one-pass form."""
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

    polynomials = []
    for i, terms in enumerate(equations_raw):
        where = f"field 'equations'[{i}]"
        if not isinstance(terms, list) or not terms:
            raise ParseError(f"{where}: expected a nonempty list of terms")
        coeffs: dict[tuple[int, ...], complex] = {}
        degree = 0
        for t, term in enumerate(terms):
            twhere = f"{where}[{t}]"
            if not (isinstance(term, list) and len(term) == 2):
                raise ParseError(f"{twhere}: expected [coefficient, exponents]")
            coef = _read_complex(term[0], twhere)
            exps = term[1]
            if not (
                isinstance(exps, list)
                and all(_is_int(e) and e >= 0 for e in exps)
            ):
                raise ParseError(f"{twhere}: exponents must be nonnegative integers")
            if len(exps) != n:
                raise ParseError(
                    f"{twhere}: exponent list has length {len(exps)}, expected {n}"
                )
            alpha = tuple(exps)
            degree = max(degree, sum(alpha))
            coeffs[alpha] = coeffs.get(alpha, 0.0) + coef
        polynomials.append((degree, coeffs))
    if order is None:
        order = max(degree for degree, _coeffs in polynomials)
    full = [
        TruncatedSeries((0.0,) * n, max(degree, order), coeffs)
        for degree, coeffs in polynomials
    ]
    equations = recenter_series(full, point, [order] * len(full))
    system = AnalyticSystem(n, equations, point, float(radius))
    options = {"order": order, "backend": backend, "vars": [str(v) for v in vars_]}
    return system, point, options


def _hex(values) -> list[str]:
    return [part.hex() for z in values for part in (z.real, z.imag)]


def parsed_bits(parsed) -> tuple:
    """Every bit of a parse: each series' center, order, stored exponents in
    order and coefficients, the ball, the point and the options."""
    system, point, options = parsed
    return (
        system.dim,
        [
            (_hex(eq.center), eq.order, list(eq.coefficients), _hex(eq.coefficients.values()))
            for eq in system.equations
        ],
        _hex(system.ball_center),
        system.ball_radius.hex(),
        _hex(point),
        options,
    )


def outcome(parse, path: str, *overrides) -> tuple:
    """The parse's bits, or its exception's type and message: an exponent
    of 10**400 passes both readers and overflows in the recentering."""
    try:
        return ("parsed", parsed_bits(parse(path, *overrides)))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


small_ints = st.integers(-4, 4)
small_floats = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
numbers = st.one_of(small_ints, small_floats)
entries = st.one_of(numbers, st.lists(numbers, min_size=2, max_size=2))


@st.composite
def system_files(draw) -> dict:
    """A valid SystemFile: int, float and [re, im] numbers, duplicate
    exponents (some of them cancelling), the order omitted, below or above
    the degree, and points at the origin or off it."""
    n = draw(st.integers(2, 4))
    exponent = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    equations = []
    for _ in range(draw(st.integers(1, 3))):
        terms = [[draw(entries), draw(exponent)] for _ in range(draw(st.integers(1, 5)))]
        for _ in range(draw(st.integers(0, 2))):
            coef, exps = draw(st.sampled_from(terms))
            cancel = [-v for v in coef] if isinstance(coef, list) else -coef
            terms.append([draw(st.sampled_from([cancel, coef, draw(entries)])), list(exps)])
        equations.append(draw(st.permutations(terms)))
    origin = draw(st.booleans())
    point_entry = st.just(0) if origin else st.one_of(
        st.floats(-0.5, 0.5), st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2)
    )
    data = {
        "vars": [f"x{i}" for i in range(n)],
        "equations": equations,
        "point": [draw(point_entry) for _ in range(n)],
        "radius": draw(st.one_of(st.integers(1, 3), st.floats(0.25, 4.0))),
    }
    order = draw(st.one_of(st.none(), st.integers(0, 10)))
    if order is not None:
        data["order"] = order
    backend = draw(st.sampled_from([None, *_BACKEND_ALIASES]))
    if backend is not None:
        data["norm_backend"] = backend
    return data


BAD_VALUES = [True, False, math.nan, math.inf, -math.inf, 10**400, -1, 1.5, [], [1.0], "1"]


def places(data: dict) -> list[tuple]:
    """Every field one mutation may replace, as (container, key)."""
    spots: list[tuple] = [(data, "radius"), (data, "order"), (data, "point"),
                          (data, "equations"), (data, "vars")]
    spots += [(data["point"], k) for k in range(len(data["point"]))]
    for i, terms in enumerate(data["equations"]):
        spots.append((data["equations"], i))
        for t, term in enumerate(terms):
            spots += [(terms, t), (term, 0), (term, 1)]
            spots += [(term[1], k) for k in range(len(term[1]))]
            if isinstance(term[0], list):
                spots += [(term[0], 0), (term[0], 1)]
    return spots


def write(directory: str, data: dict) -> str:
    path = Path(directory) / "system.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@settings(derandomize=True, deadline=None, max_examples=250)
@given(system_files(), st.sampled_from([None, 0, 2, 5]), st.sampled_from([None, "appendix"]))
def test_valid_files_parse_bit_for_bit(data, order, backend):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, data)
        want = outcome(reference_parse, path, order, backend)
        assert want[0] == "parsed", want
        assert outcome(parse_system, path, order, backend) == want


@settings(derandomize=True, deadline=None, max_examples=400)
@given(system_files(), st.data())
def test_one_field_mutations_fail_alike(data, draw):
    container, key = draw.draw(st.sampled_from(places(data)))
    container[key] = draw.draw(st.sampled_from(BAD_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, data)
        assert outcome(parse_system, path) == outcome(reference_parse, path)


@pytest.mark.parametrize(
    "exponents, message",
    [
        ([-1, 1], "exponents must be nonnegative integers"),
        ([1.0, 1], "exponents must be nonnegative integers"),
        ([False, 1], "exponents must be nonnegative integers"),
        ([], "exponent list has length 0, expected 2"),
        ([1, 0, 0], "exponent list has length 3, expected 2"),
    ],
)
def test_exponent_errors_name_the_term(tmp_path, exponents, message):
    data = {
        "vars": ["x", "y"],
        "equations": [[[1.0, [1, 0]]], [[2.0, [0, 1]], [[1.0, -1.0], exponents]]],
        "point": [0.1, 0.2],
        "radius": 1.0,
    }
    path = write(str(tmp_path), data)
    for parse in (parse_system, reference_parse):
        with pytest.raises(ParseError) as exc:
            parse(path)
        assert str(exc.value) == f"field 'equations'[1][1]: {message}"
