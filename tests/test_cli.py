import io
import math

import pytest

from certicube import cubature
from certicube.cli import run


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def unit2(tmp_path):
    path = tmp_path / "unit2.spx"
    path.write_text("0 0\n1 0\n0 1\n")
    return str(path)


@pytest.fixture
def mix_rule(tmp_path):
    path = tmp_path / "mix.rule"
    cubature.save_rule(cubature.builtin("hh-mix-2d", 2), path)
    return str(path)


def test_moments_table():
    code, text = invoke(["moments", "--dim", "2"])
    assert code == 0
    for fraction in ("1/6", "1/12", "1/24", "1/18"):
        assert fraction in text


def test_moments_byte_stable():
    first = invoke(["moments", "--dim", "3"])
    second = invoke(["moments", "--dim", "3"])
    assert first == second


def test_verify_rule_mix(mix_rule):
    code, text = invoke(["verify-rule", mix_rule])
    assert code == 0
    assert "exactness: 2, positive: yes, HH: yes" in text


def test_verify_rule_degree1_fails(tmp_path):
    path = tmp_path / "vertex.rule"
    cubature.save_rule(cubature.builtin("vertex", 2), path)
    code, text = invoke(["verify-rule", str(path)])
    assert code == 1
    assert "exactness: 1" in text


def test_verify_rule_missing_file():
    code, text = invoke(["verify-rule", "/nonexistent.rule"])
    assert code == 2


def test_sandwich_exp(unit2):
    code, text = invoke(["sandwich", "--expr", "exp(x1+x2)",
                         "--simplex", unit2])
    assert code == 0
    lines = dict(line.split(": ") for line in text.strip().splitlines())
    assert float(lines["lower"]) == pytest.approx(math.exp(2 / 3) / 2)
    assert float(lines["upper"]) == pytest.approx((1 + 2 * math.e) / 6)
    assert float(lines["lower"]) <= 1.0 <= float(lines["upper"])


def test_bound_mix_rule(unit2):
    code, text = invoke(["bound", "--rule", "hh-mix-2d",
                         "--expr", "exp(x1+x2)", "--simplex", unit2,
                         "--K", repr(2 * math.e)])
    assert code == 0
    values = {}
    for line in text.strip().splitlines():
        key, _, rest = line.partition(":")
        values[key.strip()] = rest.strip()
    assert float(values["radius"]) == pytest.approx(math.e / 9)
    assert "certified: yes" in values["K"]


def test_bound_barycenter_uses_midpoint(unit2):
    code, text = invoke(["bound", "--rule", "barycenter",
                         "--expr", "exp(x1+x2)", "--simplex", unit2,
                         "--K", repr(2 * math.e)])
    assert code == 0
    assert "midpoint bound" in text
    radius = float([l for l in text.splitlines()
                    if l.startswith("radius")][0].split(":")[1])
    assert radius == pytest.approx(math.e / 18)


def test_barycenter_rule_is_the_midpoint_certificate(unit2):
    args = ["--expr", "exp(x1+x2)", "--simplex", unit2,
            "--K", repr(2 * math.e)]
    code, text = invoke(["bound", "--rule", "barycenter", *args])
    assert code == 0 and "midpoint bound" in text
    default = invoke(["integrate", "--tol", "1e-3", *args])
    named = invoke(["integrate", "--tol", "1e-3", "--rule", "barycenter",
                    *args])
    assert default[0] == 0
    assert named == default


def test_integrate_has_no_seed_option(unit2):
    code, _ = invoke(["integrate", "--expr", "x1", "--simplex", unit2,
                      "--tol", "1e-3", "--seed", "0"])
    assert code == 2


def test_bound_degree1_rule_fails(unit2):
    code, text = invoke(["bound", "--rule", "vertex",
                         "--expr", "exp(x1+x2)", "--simplex", unit2])
    assert code == 1
    assert "error" in text


def test_integrate_exp(unit2, tmp_path):
    report = tmp_path / "run.report"
    code, text = invoke(["integrate", "--expr", "exp(x1+x2)",
                         "--simplex", unit2, "--tol", "1e-4",
                         "--k-mode", "global", "--report", str(report)])
    assert code == 0
    estimate = float([l for l in text.splitlines()
                      if l.startswith("estimate")][0].split(":")[1])
    radius = float([l for l in text.splitlines()
                    if l.startswith("radius")][0].split(":")[1])
    assert abs(estimate - 1.0) <= radius <= 1e-4
    body = report.read_text()
    assert "cells" in body and "depth histogram" in body


def test_integrate_budget_exhausted(unit2):
    code, text = invoke(["integrate", "--expr", "exp(x1+x2)",
                         "--simplex", unit2, "--tol", "1e-12",
                         "--k-mode", "global", "--max-cells", "20"])
    assert code == 3
    assert "budget exhausted" in text


def test_integrate_parse_error(unit2):
    code, text = invoke(["integrate", "--expr", "exp(x1",
                         "--simplex", unit2, "--tol", "1e-4"])
    assert code == 2


def test_unknown_flag_rejected():
    code, _ = invoke(["moments", "--dim", "2", "--frobnicate"])
    assert code == 2


def test_threads_flag_does_not_change_output(unit2):
    base = ["integrate", "--expr", "exp(x1+x2)", "--simplex", unit2,
            "--tol", "1e-4", "--k-mode", "global"]
    one = invoke(["--threads", "1"] + base)
    eight = invoke(["--threads", "8"] + base)
    assert one == eight


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_integrate_bad_tolerance_is_a_parse_error(unit2, tol):
    code, text = invoke(["integrate", "--expr", "exp(x1+x2)",
                         "--simplex", unit2, "--tol", tol])
    assert code == 2
    assert text.startswith("error:")


def test_rule_header_not_an_integer_is_a_parse_error(tmp_path, unit2):
    path = tmp_path / "bad.rule"
    path.write_text("dim x\nnodes 1\n1/3 1/3 1/3\n1\n")
    for argv in (["verify-rule", str(path)],
                 ["bound", "--rule", str(path), "--expr", "x1",
                  "--simplex", unit2, "--K", "1"]):
        code, text = invoke(argv)
        assert code == 2
        assert text.startswith("error:")


@pytest.mark.parametrize("command,k", [("integrate", "-1"),
                                       ("integrate", "nan"),
                                       ("integrate", "inf"),
                                       ("bound", "nan")])
def test_bad_k_is_rejected(unit2, command, k):
    argv = [command, "--expr", "exp(x1+x2)", "--simplex", unit2, "--K", k]
    argv += ["--tol", "1e-4"] if command == "integrate" else [
        "--rule", "hh-mix-2d"]
    code, text = invoke(argv)
    assert code == 1
    assert text.startswith("error:")
    assert "certified" not in text


def test_integrate_report_lines(unit2, tmp_path):
    report = tmp_path / "run.report"
    code, _ = invoke(["integrate", "--expr", "exp(x1+x2)",
                      "--simplex", unit2, "--tol", "1e-4",
                      "--k-mode", "global", "--report", str(report)])
    assert code == 0
    lines = report.read_text().splitlines()
    header = lines.index("depth histogram")
    keys = [line.split()[0] for line in lines[:header]]
    assert keys[-2:] == ["rounds", "discarded_splits"]
    assert all(int(line.split()[1]) >= 0 for line in lines[header - 2:header])
    assert all(len(line.split()) == 2 for line in lines[header + 1:])
