import json
import warnings
from pathlib import Path

import pytest

from multiroot.cli import build_trace_report, main, parse_system
from multiroot.errors import ParseError

from conftest import FIXTURES, relerr

GY2 = str(FIXTURES / "gy2.json")
GY2_EXACT = str(FIXTURES / "gy2_exact.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def regular_fixture(tmp_path, point=(0.4995, 0.5005), name="regular.json"):
    return write_json(
        tmp_path,
        name,
        {
            "vars": ["x", "y"],
            "equations": [
                [[[1.0, 0.0], [1, 0]], [[1.0, 0.0], [0, 1]], [[-1.0, 0.0], [0, 0]]],
                [[[1.0, 0.0], [1, 0]], [[-1.0, 0.0], [0, 1]]],
            ],
            "point": [[point[0], 0.0], [point[1], 0.0]],
            "radius": 2.0,
            "order": 1,
        },
    )


def kss_fixture(tmp_path, point):
    """KSS, x_i^2 + sum_j x_j - 2 x_i - n + 1 with root (1, ..., 1), at
    ``point``.  The terms come in the benchmark generator's order (square,
    linear, constant), so the file parses to the benchmark's input."""
    n = len(point)
    unit = [[1 if k == j else 0 for k in range(n)] for j in range(n)]
    equations = [
        [[[1.0, 0.0], [2 * e for e in unit[i]]]]
        + [[[-1.0 if j == i else 1.0, 0.0], unit[j]] for j in range(n)]
        + [[[float(1 - n), 0.0], [0] * n]]
        for i in range(n)
    ]
    payload = {
        "vars": [f"x{i}" for i in range(n)],
        "equations": equations,
        "point": [[float(v), 0.0] for v in point],
        "radius": 1.0,
        "order": 3,
        "norm_backend": "complex",
    }
    return write_json(tmp_path, f"kss{n}.json", payload)


# KSS-5 from a start whose perturbation has exact zeros: the Jacobian has
# exact rank 3, not the root's 1, and the second kerneled system selects
# nothing.
KSS5_EXACT_ZEROS = (1.0, 1.0, 1.0, 1 + 8.94e-6, 1 + 4.47e-6)
# Benchmark inputs whose Newton iterate 1 sits within ~1e-10 of the root,
# where a later deflation round fails.
KSS4_004 = (1.0000101092898197, 0.9999958397280523, 1.0000073872024229, 1.0000056209929578)
KSS4_007 = (0.9999999655786284, 0.9999994243013337, 1.0000009836721946, 0.9999994883739469)


def far_fixture(tmp_path):
    data = json.loads(Path(GY2).read_text())
    data["point"] = [[0.5, 0.0], [0.4, 0.0]]
    return write_json(tmp_path, "far.json", data)


class TestParseSystem:
    def test_gy2(self):
        system, point, options = parse_system(GY2)
        assert system.dim == 2
        assert system.size == 2
        assert point == ((-0.0005 + 0j), (0.0006 + 0j))
        assert options["backend"] == "appendix_slice"
        assert options["order"] == 3

    def test_empty_equations(self, tmp_path):
        path = write_json(
            tmp_path,
            "bad.json",
            {"vars": ["x"], "equations": [], "point": [[0, 0]], "radius": 1.0},
        )
        with pytest.raises(ParseError, match="equations"):
            parse_system(path)

    def test_exponent_length_mismatch(self, tmp_path):
        path = write_json(
            tmp_path,
            "bad.json",
            {
                "vars": ["x", "y"],
                "equations": [[[[1.0, 0.0], [1, 0, 0]]]],
                "point": [[0, 0], [0, 0]],
                "radius": 1.0,
            },
        )
        with pytest.raises(ParseError, match="exponent"):
            parse_system(path)

    def test_nonpositive_radius(self, tmp_path):
        path = write_json(
            tmp_path,
            "bad.json",
            {
                "vars": ["x"],
                "equations": [[[[1.0, 0.0], [1]]]],
                "point": [[0, 0]],
                "radius": 0.0,
            },
        )
        with pytest.raises(ParseError, match="radius"):
            parse_system(path)


# DZ2 (Dayton and Zeng, ISSAC 2005): x^4, x^2 y + y^4, z + z^2 - 7x^3 - 8x^2,
# root (0, 0, -1), degree 4; the point lies 2.7e-5 from the root.
DZ2 = {
    "vars": ["x", "y", "z"],
    "equations": [
        [[1.0, [4, 0, 0]]],
        [[1.0, [2, 1, 0]], [1.0, [0, 4, 0]]],
        [[1.0, [0, 0, 1]], [1.0, [0, 0, 2]], [-7.0, [3, 0, 0]], [-8.0, [2, 0, 0]]],
    ],
    "point": [1.6e-5, -1.28e-5, -1.0 + 1.7066e-5],
    "radius": 1.0,
}


class TestDefaultOrder:
    """Without an order the input's degree is the order, so nothing the input
    lists is truncated away; an explicit order still truncates."""

    def test_order_is_the_degree(self, tmp_path):
        system, _point, options = parse_system(write_json(tmp_path, "dz2.json", DZ2))
        assert options["order"] == 4
        assert [eq.order for eq in system.equations] == [4, 4, 4]
        assert system.equations[0].coefficient((4, 0, 0)) == 1.0

    def test_dz2_no_longer_certifies(self, capsys, tmp_path):
        path = write_json(tmp_path, "dz2.json", DZ2)
        code, out, _ = run_cli(capsys, "certify", "--input", path)
        report = json.loads(out)
        assert code == 0 and report["alpha_ok"] is False and report["theta_low"] is None
        assert report["notes"][0].startswith("hypothesis 1.1 failed at k=1:")
        # The same at the degree given explicitly; order 3 drops x^4 and
        # certifies the truncated system, as before.
        assert run_cli(capsys, "certify", "--input", path, "--order", "4")[1] == out
        code, out, _ = run_cli(capsys, "certify", "--input", path, "--order", "3")
        assert code == 0 and json.loads(out)["alpha_ok"] is True

    def test_gy2_above_its_degree(self, capsys):
        # A characterisation, not a requirement: above gy2's degree 3
        # the kerneled equations keep order 2 and extraction keeps other
        # equations, so orders 4, 5 and 6 agree bit for bit with each other
        # and not with the order-3 golden.
        runs = {
            order: run_cli(capsys, "solve", "--input", GY2, "--steps", "2", "--order", order)
            for order in ("3", "4", "5", "6")
        }
        assert all(code == 0 for code, _out, _err in runs.values())
        assert runs["4"][1] == runs["5"][1] == runs["6"][1] != runs["3"][1]
        first = {order: json.loads(out)["iterates"][1] for order, (_c, out, _e) in runs.items()}
        assert first["3"] == [[1.523108563866466e-07, 0.0], [-4.5262855717903127e-07, 0.0]]
        assert first["4"] == [[-2.9982010789028103e-07, 0.0], [-4.4994390158148434e-17, 0.0]]


def _gy2_with(**fields):
    data = json.loads(Path(GY2).read_text())
    data.update(fields)
    return data


def _gy2_first_term(coefficient=None, exponents=None):
    data = json.loads(Path(GY2).read_text())
    term = data["equations"][0][0]
    data["equations"][0][0] = [
        term[0] if coefficient is None else coefficient,
        term[1] if exponents is None else exponents,
    ]
    return data


class TestMalformedNumbers:
    """JSON booleans, NaN, infinities and non-string backends are parse
    errors (exit 1) in every number the input holds."""

    @pytest.mark.parametrize(
        "payload",
        [
            _gy2_with(radius=True),
            _gy2_with(order=True),
            _gy2_first_term(exponents=[True, 0]),
            _gy2_first_term(coefficient=True),
            _gy2_first_term(coefficient=[1.0, False]),
            _gy2_with(radius=float("inf")),
            _gy2_with(point=[[float("nan"), 0.0], [0.0006, 0.0]]),
            _gy2_first_term(coefficient=[float("-inf"), 0.0]),
            _gy2_with(radius=10**400),
            _gy2_with(norm_backend=["complex"]),
            _gy2_with(norm_backend={"name": "complex"}),
        ],
        ids=[
            "radius-true", "order-true", "exponent-true", "coefficient-true",
            "coefficient-pair-false", "radius-inf", "point-nan", "coefficient-inf",
            "radius-overflow", "backend-list", "backend-dict",
        ],
    )
    def test_system_file(self, capsys, tmp_path, payload):
        self.assert_parse_error(capsys, tmp_path, payload, "deflate")

    @pytest.mark.parametrize(
        "entry", [True, float("nan"), [0.0, float("inf")]], ids=["true", "nan", "inf"]
    )
    def test_rank_matrix(self, capsys, tmp_path, entry):
        self.assert_parse_error(capsys, tmp_path, {"matrix": [[1.0, entry], [0.0, 1.0]]}, "rank")

    @staticmethod
    def assert_parse_error(capsys, tmp_path, payload, command):
        path = write_json(tmp_path, "bad.json", payload)
        code, out, err = run_cli(capsys, command, "--input", path)
        assert code == 1
        assert out == ""
        assert err.startswith("deflate: parse error: field ")


ONE_VARIABLE = {"vars": ["x"], "equations": [[[1.0, [2]]]], "point": [0.001], "radius": 1.0}


class TestOneVariable:
    """The threshold eta needs n >= 2, so a SystemFile with one variable is
    a parse error (exit 1) for every command, not an internal error."""

    @pytest.mark.parametrize("command", ["deflate", "solve", "certify", "rank"])
    def test_parse_error(self, capsys, tmp_path, command):
        path = write_json(tmp_path, "one.json", ONE_VARIABLE)
        code, out, err = run_cli(capsys, command, "--input", path)
        assert code == 1
        assert out == ""
        assert err.startswith("deflate: parse error: field 'vars': expected at least 2")
        assert "n >= 2" in err

    def test_rank_matrix_with_one_column(self, capsys, tmp_path):
        path = write_json(tmp_path, "col.json", {"matrix": [[2.0], [0.0]]})
        code, out, _err = run_cli(capsys, "rank", "--input", path)
        assert code == 0
        assert json.loads(out)["rank"] == 1


class TestRankCommand:
    def test_gy2_selected_jacobian(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "--input", GY2)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 1
        assert payload["epsilon"] == pytest.approx(0.0079335, rel=2e-2)
        assert payload["sigma"][0] == pytest.approx(5.6562, rel=1e-3)
        assert payload["sigma"][1] == pytest.approx(0.0039667, rel=1e-3)

    def test_identity_matrix(self, capsys, tmp_path):
        path = write_json(tmp_path, "id.json", {"matrix": [[1, 0], [0, 1]]})
        code, out, _ = run_cli(capsys, "rank", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 2 and payload["full_rank"]

    def test_zero_matrix(self, capsys, tmp_path):
        path = write_json(tmp_path, "zero.json", {"matrix": [[0, 0], [0, 0]]})
        code, out, _ = run_cli(capsys, "rank", "--input", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["rank"] == 0 and payload["epsilon"] == 0.0


class TestDeflateCommand:
    def test_gy2_trace(self, capsys):
        code, out, _ = run_cli(capsys, "deflate", "--input", GY2)
        assert code == 0
        payload = json.loads(out)
        assert payload["thickness"] == 1
        assert not payload["gate_failed"]
        deflated = payload["deflated"]["equations"]
        assert len(deflated) == 2
        # coefficient match against the extracted-pair goldens, rel tol 1e-3
        want = [
            {(0, 0): 0.00019940, (1, 0): 2.0012, (0, 1): 1.9990},
            {(0, 0): 0.0043976, (0, 1): 3.9956, (1, 0): -3.9956},
        ]
        for eq, exp in zip(deflated, want):
            got = {tuple(t[1]): t[0][0] for t in eq["terms"]}
            for key, value in exp.items():
                assert got[key] == pytest.approx(value, rel=1e-3)

    def test_regular_fixture_thickness_zero(self, capsys, tmp_path):
        path = regular_fixture(tmp_path)
        code, out, _ = run_cli(capsys, "deflate", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["thickness"] == 0
        assert payload["deflated"] is not None

    def test_far_point_exit_code_two(self, capsys, tmp_path):
        path = far_fixture(tmp_path)
        code, out, _ = run_cli(capsys, "deflate", "--input", path)
        assert code == 2
        payload = json.loads(out)
        assert payload["gate_failed"]
        assert payload["deflated"] is None


class TestSolveCommand:
    def test_gy2_iterates(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--input", GY2, "--steps", "3")
        assert code == 0
        payload = json.loads(out)
        iterates = payload["iterates"]
        golden = [
            [-0.0005, 0.0006],
            [1.5231e-7, -4.5263e-7],
            [1.0038e-13, -1.6932e-13],
        ]
        for got, want in zip(iterates, golden):
            got_re = [c[0] for c in got]
            assert relerr(got_re, want) <= 1e-3

    def test_single_step(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--input", GY2, "--steps", "1")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["iterates"]) == 2

    def test_start_at_root_constant(self, capsys, tmp_path):
        path = regular_fixture(tmp_path, point=(0.5, 0.5), name="root.json")
        code, out, _ = run_cli(capsys, "solve", "--input", path, "--steps", "3")
        payload = json.loads(out)
        assert code == 0
        for it in payload["iterates"]:
            assert abs(it[0][0] - 0.5) < 1e-13 and abs(it[1][0] - 0.5) < 1e-13


class TestCertifyCommand:
    def test_gy2_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--input", GY2)
        assert code == 0
        payload = json.loads(out)
        q = payload["quantities"]
        assert q["beta"] == pytest.approx(0.00078147, rel=1e-3)
        assert q["gamma"] == pytest.approx(2.6737, rel=1e-3)
        assert q["kappa"] == pytest.approx(3.0000, rel=1e-3)
        assert q["alpha"] == pytest.approx(0.0023444, rel=1e-3)
        assert payload["alpha_bound"] == pytest.approx(0.079267, rel=1e-3)
        assert payload["theta_low"] == pytest.approx(0.00078644, rel=1e-3)
        assert payload["alpha_ok"] is True

    def test_linear_fixture_at_root(self, capsys, tmp_path):
        path = regular_fixture(tmp_path, point=(0.5, 0.5), name="root.json")
        code, out, _ = run_cli(capsys, "certify", "--input", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["quantities"]["beta"] == 0.0
        assert payload["alpha_ok"] is True

    def test_degenerate_fixture_reports_without_error(self, capsys, tmp_path):
        path = far_fixture(tmp_path)
        code, out, _ = run_cli(capsys, "certify", "--input", path)
        payload = json.loads(out)
        assert code == 0  # reports are not errors
        assert payload["alpha_ok"] is False
        assert any("hypothesis 1.1" in n for n in payload["notes"])


class TestKSS5AtRoot:
    def test_rank_is_one(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "rank", "--input", kss_fixture(tmp_path, (1.0,) * 5))
        assert code == 0
        assert json.loads(out)["rank"] == 1

    @pytest.mark.parametrize(
        "argv", [("deflate",), ("solve", "--steps", "4"), ("certify",)]
    )
    def test_commands_succeed(self, capsys, tmp_path, argv):
        path = kss_fixture(tmp_path, (1.0,) * 5)
        code, _out, err = run_cli(capsys, *argv, "--input", path)
        assert code == 0, err


class TestFailedHypothesis:
    def test_deflate_names_the_failure(self, capsys, tmp_path):
        path = kss_fixture(tmp_path, KSS5_EXACT_ZEROS)
        code, out, _ = run_cli(capsys, "deflate", "--input", path)
        assert code == 2
        payload = json.loads(out)
        assert payload["deflated"] is None
        assert payload["failure"].startswith("hypothesis 1.1 failed at k=1: ")

    def test_certify_reports_the_failure(self, capsys, tmp_path):
        path = kss_fixture(tmp_path, KSS5_EXACT_ZEROS)
        code, out, _ = run_cli(capsys, "certify", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_ok"] is False
        assert any(n.startswith("hypothesis 1.1 failed at k=1: ") for n in payload["notes"])

    def test_solve_stops_at_the_start(self, capsys, tmp_path):
        path = kss_fixture(tmp_path, KSS5_EXACT_ZEROS)
        code, out, _ = run_cli(capsys, "solve", "--input", path, "--steps", "4")
        assert code == 0
        start = [[v, 0.0] for v in KSS5_EXACT_ZEROS]
        assert json.loads(out)["iterates"] == [start, start]

    def test_round_cap_is_a_failure(self, capsys):
        code, out, _ = run_cli(capsys, "deflate", "--input", GY2, "--max-iters", "0")
        assert code == 2
        assert json.loads(out)["failure"].startswith("round cap at k=1: ")

    def test_rank_reports_an_empty_selection(self, capsys, tmp_path):
        # One equation that is numerically zero: selection retains nothing.
        path = write_json(
            tmp_path,
            "tiny.json",
            {"vars": ["x", "y"], "equations": [[[1e-20, [0, 0]]]], "point": [0, 0],
             "radius": 1.0, "order": 2},
        )
        code, out, _ = run_cli(capsys, "rank", "--input", path)
        assert code == 2
        payload = json.loads(out)
        assert list(payload) == ["failure"]
        assert payload["failure"].startswith("TruncationExhaustedError at k=0: ")
        code, out, _ = run_cli(capsys, "deflate", "--input", path)
        assert code == 2
        assert json.loads(out)["failure"] == payload["failure"]

    def test_extraction_past_the_search_cap(self, capsys, tmp_path):
        # x + (k/100) y for k = 0..100: comb(101, 2) = 5050 candidate subsets.
        path = write_json(
            tmp_path,
            "wide.json",
            {"vars": ["x", "y"],
             "equations": [[[1.0, [1, 0]], [k / 100, [0, 1]]] for k in range(101)],
             "point": [0, 0], "radius": 1.0, "norm_backend": "complex"},
        )
        code, out, _ = run_cli(capsys, "deflate", "--input", path)
        assert code == 2
        payload = json.loads(out)
        assert payload["deflated"] is None
        assert payload["failure"] == (
            "ExtractionError at k=0: 5050 candidate equation subsets exceed the "
            "search cap of 5000"
        )

    @pytest.mark.parametrize("point", [KSS4_004, KSS4_007], ids=["kss4_004", "kss4_007"])
    def test_solve_near_the_root(self, capsys, tmp_path, point):
        path = kss_fixture(tmp_path, point)
        code, out, err = run_cli(capsys, "solve", "--input", path, "--steps", "4")
        assert code == 0, err
        last = json.loads(out)["iterates"][-1]
        assert max(abs(complex(*v) - 1.0) for v in last) < 1e-8


class TestReportContract:
    def test_trace_report_round_trip(self, gy2_trace):
        trace, _point, _backend = gy2_trace
        report = build_trace_report(trace)
        assert json.loads(json.dumps(report)) == report

    def test_byte_identical_runs(self, capsys):
        _code, out1, _ = run_cli(capsys, "certify", "--input", GY2)
        _code, out2, _ = run_cli(capsys, "certify", "--input", GY2)
        assert out1 == out2
        _code, out3, _ = run_cli(capsys, "deflate", "--input", GY2)
        _code, out4, _ = run_cli(capsys, "deflate", "--input", GY2)
        assert out3 == out4

    def test_pretty_flag(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "--input", GY2, "--pretty")
        assert code == 0
        assert out.startswith("{\n")


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _out, err = run_cli(capsys, "rank", "--input", "/nonexistent.json")
        assert code == 1
        assert "parse error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _out, err = run_cli(capsys, "rank", "--input", str(path))
        assert code == 1
        assert "parse error" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank"])  # missing --input
        assert exc.value.code == 1


class TestOverflow:
    """Finite input whose arithmetic outgrows double precision is a numerical
    error (exit 3, one line on stderr) under either norm backend, never a
    traceback or a warning."""

    def assert_overflow(self, capsys, tmp_path, payload, commands):
        path = write_json(tmp_path, "huge.json", payload)
        for command in commands:
            # pytest captures warnings apart from stderr; make them errors.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, command, "--input", path)
            assert (code, out) == (3, ""), command
            assert err.startswith("deflate: numerical overflow: ")
            assert err.count("\n") == 1

    def test_huge_coefficient(self, capsys, tmp_path):
        payload = _gy2_first_term(coefficient=[1e308, 0.0])
        payload["norm_backend"] = "complex"
        self.assert_overflow(capsys, tmp_path, payload, ["deflate", "solve", "certify"])

    def test_huge_coefficient_appendix(self, capsys, tmp_path):
        payload = _gy2_first_term(coefficient=[1e308, 0.0])
        payload["norm_backend"] = "appendix"
        self.assert_overflow(capsys, tmp_path, payload, ["deflate", "solve", "certify"])

    def test_huge_point(self, capsys, tmp_path):
        payload = _gy2_with(point=[[1e300, 0.0], [0.0006, 0.0]])
        self.assert_overflow(
            capsys, tmp_path, payload, ["rank", "deflate", "solve", "certify"]
        )

    def test_huge_radius(self, capsys, tmp_path):
        payload = _gy2_with(radius=1e300, norm_backend="complex")
        self.assert_overflow(capsys, tmp_path, payload, ["deflate", "solve", "certify"])

    def test_huge_radius_appendix(self, capsys, tmp_path):
        payload = _gy2_with(radius=1e300, norm_backend="appendix")
        self.assert_overflow(capsys, tmp_path, payload, ["deflate", "solve", "certify"])

    @pytest.mark.parametrize(
        "payload",
        [_gy2_first_term(coefficient=[1e308, 0.0]), _gy2_with(radius=1e300)],
        ids=["coefficient", "radius"],
    )
    def test_rank_needs_no_norm(self, capsys, tmp_path, payload):
        # An equation whose norm would overflow has a value above the bound
        # eta(0), so selection never norms it: ``rank`` reports under either
        # backend.
        for backend in ("complex", "appendix"):
            path = write_json(tmp_path, "huge.json", dict(payload, norm_backend=backend))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _out, err = run_cli(capsys, "rank", "--input", path)
            assert (code, err) == (0, ""), backend


class TestCountFlags:
    """Counts out of range are usage errors (exit 1), caught by the parser."""

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_steps_below_one(self, capsys, steps):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", GY2, "--steps", steps])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --steps: must be >= 1, got {int(steps)}" in captured.err

    def test_negative_max_iters(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["deflate", "--input", GY2, "--max-iters", "-1"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --max-iters: must be >= 0, got -1" in captured.err
