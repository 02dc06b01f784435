import ast
import graphlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import certicube
from certicube import adaptive, cubature, field, geometry
from certicube.cli import run
from certicube.errors import ParseError

from util import stroud_t3_rule


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


@pytest.mark.parametrize("rule,code,last", [
    ("barycenter_file", 0, "certificate: midpoint, factor 1/2"),
    ("vertex", 1, "certificate: none"),
    ("hh-mix-2d", 0, "certificate: rule, factor 1"),
    ("stroud", 0, "certificate: rule, factor 1")],
    ids=["barycenter_file", "vertex", "hh-mix-2d", "stroud"])
def test_verify_rule_exits_as_the_certificate_policy_decides(
        tmp_path, rule, code, last):
    # The same decision as bound and integrate: a one-node barycenter
    # rule is certified with the midpoint factor, though not degree-2.
    path = tmp_path / "policy.rule"
    if rule == "barycenter_file":
        path.write_text("dim 2\nnodes 1\n1/3 1/3 1/3\n1\n")
    else:
        cubature.save_rule(stroud_t3_rule() if rule == "stroud"
                           else cubature.builtin(rule, 2), path)
    got, text = invoke(["verify-rule", str(path)])
    assert (got, text.splitlines()[-1]) == (code, last)
    assert len(text.splitlines()) == 5


@pytest.mark.parametrize("text,message", [
    ("dim 2\nnodes 1\n0.5 0.6 -0.1\n1\n",
     "negative barycentric coordinate at node 0"),
    ("dim 2\nnodes 1\n0.3 0.3 0.3\n1\n",
     "barycentric sum 0.8999999999999999 != 1 at node 0"),
    ("dim 1\nnodes 1\n0.5 0.5\n0.9\n", "weights sum 0.9 != 1"),
    ("dim 1\nnodes 2\n0.5 0.5\n1 0\n3/2\n-1/2\n",
     "negative weight at node 1")])
def test_verify_rule_structural_defect(tmp_path, text, message):
    path = tmp_path / "defect.rule"
    path.write_text(text)
    assert invoke(["verify-rule", str(path)]) == (1, f"error: {message}\n")


@pytest.mark.parametrize("text,message,line", [
    ("dim 2\nnodes 1\n0.5 0.5\n1\n",
     "node 0 has 2 coordinates, expected 3", 3),
    ("dim 1\nnodes 1\n0.5 0.5\n1/2 1/2\n",
     "expected one weight, found 2", 4),
    ("dim 1\nnodes 1\n1e999 0.5\n1\n",
     "bad number '1e999': cannot convert Infinity to integer ratio", 3),
    ("dim 1\nnodes 1\n1/2 1/2\n\n# weight\n-inf\n",
     "bad number '-inf': cannot convert Infinity to integer ratio", 6)])
def test_verify_rule_malformed_line(tmp_path, text, message, line):
    path = tmp_path / "malformed.rule"
    path.write_text(text)
    assert invoke(["verify-rule", str(path)]) == (
        2, f"error: line {line}: {message}\n")
    with pytest.raises(ParseError) as err:
        cubature.load_rule(path)
    assert err.value.line == line


@pytest.mark.parametrize("text,message", [
    ("dim 1\nnodes 2\n0.5 0.5\n1 0\n1/2\n",
     "line 5: unexpected end of file, expected weight 1"),
    ("", "unexpected end of file, expected dim header"),
    ("# only a comment\n", "unexpected end of file, expected dim header")],
    ids=["after_weight_0", "empty", "comment_only"])
def test_verify_rule_truncated_file(tmp_path, text, message):
    # A file that ends early names its last line, if it has one.
    path = tmp_path / "truncated.rule"
    path.write_text(text)
    assert invoke(["verify-rule", str(path)]) == (2, f"error: {message}\n")


@pytest.mark.parametrize("expr,simplex,message", [
    ("x1 $ 2", "0 0\n1 0\n0 1\n", "unexpected character '$' at 3"),
    ("foo(x1)", "0 0\n1 0\n0 1\n", "unknown identifier 'foo' at 0"),
    ("exp x1", "0 0\n1 0\n0 1\n", "expected '(', found x1 at 4"),
    ("sin", "0 0\n1 0\n0 1\n", "expected '(', found end of input at 3"),
    ("2*cos+1", "0 0\n1 0\n0 1\n", "expected '(', found + at 5"),
    ("x1", "# no vertices\n\n", "empty simplex file")])
def test_malformed_input_is_a_parse_error(tmp_path, expr, simplex, message):
    path = tmp_path / "domain.spx"
    path.write_text(simplex)
    argv = ["sandwich", "--expr", expr, "--simplex", str(path)]
    assert invoke(argv) == (2, f"error: {message}\n")


@pytest.mark.parametrize("kind,text,line,message", [
    ("rule", "dim 2\n# one node\nnodes 1\n\n0.5 0.5\n1\n", 5,
     "node 0 has 2 coordinates, expected 3"),
    ("simplex", "0 0\n1 0\n", 2, "expected 3 vertices of 2 coordinates"),
    ("simplex", "# triangle\n0 0\n\n1 0 0\n0 1\n", 4,
     "expected 3 vertices of 2 coordinates"),
    ("simplex", "0 0\n1 0\n0 1\n# one more\n1 1\n", 5,
     "expected 3 vertices of 2 coordinates"),
    ("simplex", "0 0\n\n1 zero\n0 1\n", 3,
     "bad vertex line: could not convert string to float: 'zero'")],
    ids=["rule node", "simplex short", "simplex row", "simplex extra",
         "simplex number"])
def test_file_parse_error_names_its_line(tmp_path, unit2, kind, text, line,
                                         message):
    # The line is the file's own, comments and blank lines counted.
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    if kind == "rule":
        argv = ["bound", "--rule", str(path), "--expr", "x1^2",
                "--simplex", unit2, "--K", "2"]
    else:
        argv = ["sandwich", "--expr", "x1^2", "--simplex", str(path)]
    assert invoke(argv) == (2, f"error: line {line}: {message}\n")
    with pytest.raises(ParseError) as err:
        (cubature.load_rule if kind == "rule" else geometry.load_simplex)(path)
    assert err.value.line == line


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


def test_barycenter_rule_is_the_midpoint_certificate(unit2, tmp_path):
    args = ["--expr", "exp(x1+x2)", "--simplex", unit2,
            "--K", repr(2 * math.e)]
    code, text = invoke(["bound", "--rule", "barycenter", *args])
    assert code == 0 and "midpoint bound" in text
    default = invoke(["integrate", "--tol", "1e-3", *args])
    named = invoke(["integrate", "--tol", "1e-3", "--rule", "barycenter",
                    *args])
    assert default[0] == 0
    assert named == default
    # A rule file with the barycenter, rounded, as its one node.
    path = tmp_path / "bary.rule"
    path.write_text("dim 2\nnodes 1\n0.3333333333333333 0.3333333333333333"
                    " 0.3333333333333334\n1\n")
    assert invoke(["bound", "--rule", str(path), *args]) == (code, text)
    assert invoke(["integrate", "--tol", "1e-3", "--rule", str(path),
                   *args]) == default


@pytest.mark.parametrize("rule", ["barycenter", "hh-mix-2d"])
@pytest.mark.parametrize("n,simplex", [
    (1, "0\n1\n"), (3, "0 0 0\n1 0 0\n0 1 0\n0 0 1\n")],
    ids=["segment", "tetrahedron"])
def test_rule_file_of_the_wrong_dimension_fails(tmp_path, rule, n, simplex):
    rule_path = tmp_path / "two.rule"
    cubature.save_rule(cubature.builtin(rule, 2), rule_path)
    spx = tmp_path / "other.spx"
    spx.write_text(simplex)
    args = ["--rule", str(rule_path), "--expr", "x1", "--simplex", str(spx),
            "--K", "1"]
    for argv in (["bound", *args], ["integrate", "--tol", "1", *args]):
        assert invoke(argv) == (1, f"error: rule dimension 2 vs simplex {n}\n")


def test_integrate_has_no_seed_option(unit2):
    code, _ = invoke(["integrate", "--expr", "x1", "--simplex", unit2,
                      "--tol", "1e-3", "--seed", "0"])
    assert code == 2


def test_bound_degree1_rule_fails(unit2):
    code, text = invoke(["bound", "--rule", "vertex",
                         "--expr", "exp(x1+x2)", "--simplex", unit2])
    assert code == 1
    assert "error" in text
    for command in (["bound"], ["integrate", "--tol", "1e-3"]):
        code, text = invoke(command + ["--rule", "vertex", "--expr", "x1",
                                       "--simplex", unit2, "--K", "1"])
        assert code == 1 and "exactness_degree=1" in text


def test_bound_refuses_the_rule_before_sampling_k(unit2, monkeypatch):
    def sample(*args, **kwargs):
        raise AssertionError("K sampled for a rule without a certificate")

    monkeypatch.setattr(certicube.field, "d2f_sup_norm", sample)
    code, text = invoke(["bound", "--rule", "vertex", "--expr", "exp(x1)",
                         "--simplex", unit2])
    assert code == 1 and "exactness_degree=1" in text


def test_bound_checks_the_rule_dimension_before_sampling_k(mix_rule, tmp_path,
                                                           monkeypatch):
    # A 2-D rule file on the unit 6-simplex: refused at once, before the
    # rule's report is computed and before the resolution-20 lattice of K
    # (230,230 points) is sampled.
    calls = []
    verify = cubature._verify
    monkeypatch.setattr(cubature, "_verify",
                        lambda rule: calls.append("verify") or verify(rule))
    monkeypatch.setattr(certicube.field, "lattice_spectrum",
                        lambda *args, **kwargs: calls.append("K"))
    path = tmp_path / "unit6.spx"
    path.write_text("\n".join(" ".join("1" if j == i else "0"
                                        for j in range(6))
                               for i in range(-1, 6)) + "\n")
    code, text = invoke(["bound", "--rule", mix_rule, "--expr", "exp(x1+x2)",
                         "--simplex", str(path)])
    assert (code, text) == (1, "error: rule dimension 2 vs simplex 6\n")
    assert calls == []


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


def test_bound_has_no_resolution_option(unit2):
    # bound samples K at d2f_sup_norm's default lattice, as --k-mode
    # global does.
    argv = ["bound", "--rule", "barycenter", "--expr", "exp(x1+x2)",
            "--simplex", unit2]
    assert invoke(argv + ["--resolution", "3"])[0] == 2
    assert "K:        5.43656365691809" in invoke(argv)[1]


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


@pytest.mark.parametrize("max_cells", ["0", "-5"])
def test_integrate_bad_max_cells_is_a_parse_error(unit2, max_cells):
    code, text = invoke(["integrate", "--expr", "exp(x1+x2)",
                         "--simplex", unit2, "--tol", "1e-3",
                         "--max-cells", max_cells])
    assert code == 2
    assert text.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["integrate", "--expr=--", "--simplex", "S", "--tol", "1"],
    ["integrate", "--expr", "x1", "--simplex=--", "--tol", "1"],
    ["integrate", "--expr", "x1", "--simplex", "S", "--tol=--"],
    ["integrate", "--expr", "x1", "--simplex", "S", "--tol", "1",
     "--rule=--"],
    ["integrate", "--expr", "x1", "--simplex", "S", "--tol", "1",
     "--report=--"],
    ["sandwich", "--expr=--", "--simplex", "S"],
    ["moments", "--dim=--"]],
    ids=["expr", "simplex", "tol", "rule", "report", "sandwich", "moments"])
def test_double_dash_option_value_is_a_parse_error(unit2, argv):
    code, text = invoke([unit2 if arg == "S" else arg for arg in argv])
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


@pytest.mark.parametrize("text,line", [
    ("dim 0\nnodes 1\n1\n1\n", 1),
    ("# header\n\ndim -1\nnodes 1\n1\n1\n", 3),
    ("dim 1\nnodes 0\n", 2),
    ("dim 1\n# nodes\nnodes -1\n1/2 1/2\n1\n", 3)],
    ids=["dim 0", "dim -1", "nodes 0", "nodes -1"])
def test_rule_header_not_positive_is_a_parse_error(tmp_path, text, line):
    path = tmp_path / "bad.rule"
    path.write_text(text)
    code, out = invoke(["verify-rule", str(path)])
    assert code == 2 and ">= 1, got" in out
    with pytest.raises(ParseError) as err:
        cubature.load_rule(path)
    assert err.value.line == line


@pytest.mark.parametrize("command", ["verify-rule", "bound"])
def test_rule_file_with_lines_after_its_weights_is_a_parse_error(
        tmp_path, unit2, command):
    # A complete midpoint rule, then two lines that nothing reads.
    path = tmp_path / "trailing.rule"
    path.write_text("dim 2\nnodes 1\n1/3 1/3 1/3\n1\n0.5\n7 7 7\n")
    argv = (["verify-rule", str(path)] if command == "verify-rule" else
            ["bound", "--rule", str(path), "--expr", "x1^2",
             "--simplex", unit2, "--K", "2"])
    assert invoke(argv) == (
        2, "error: line 5: unexpected line after the last weight: '0.5'\n")
    with pytest.raises(ParseError) as err:
        cubature.load_rule(path)
    assert err.value.line == 5


def test_lattice_too_large_for_memory_exits_1(tmp_path):
    # The screen's resolution-10 lattice on the unit 150-simplex has
    # C(160, 10) points; it is refused before any determinant is taken.
    n = 150
    path = tmp_path / "unit150.spx"
    path.write_text("\n".join(" ".join("1" if j == i else "0"
                                        for j in range(n))
                               for i in range(-1, n)) + "\n")
    code, text = invoke(["sandwich", "--screen", "--expr", "x1^2",
                         "--simplex", str(path)])
    assert (code, text) == (
        1, f"error: the sampled lattice has {math.comb(160, 10)} points at "
           "resolution 10 on the 150-simplex: too many to hold in memory\n")


@pytest.mark.parametrize("command,k", [("integrate", "-1"),
                                       ("integrate", "nan"),
                                       ("integrate", "inf"),
                                       ("bound", "nan"),
                                       ("bound", "inf")])
def test_bad_k_is_rejected(unit2, command, k):
    argv = [command, "--expr", "exp(x1+x2)", "--simplex", unit2, "--K", k]
    argv += ["--tol", "1e-4"] if command == "integrate" else [
        "--rule", "hh-mix-2d"]
    code, text = invoke(argv)
    assert code == 1
    assert text.startswith("error:")
    assert "certified" not in text


@pytest.mark.parametrize("extra", [[], ["--max-cells", "2"]],
                         ids=["tolerance", "budget"])
def test_integrate_report_that_cannot_be_written_prints_no_result(
        unit2, tmp_path, extra):
    report = tmp_path / "missing" / "run.report"
    code, text = invoke(["integrate", "--expr", "exp(x1+x2)",
                         "--simplex", unit2, "--tol", "1e-4",
                         "--report", str(report)] + extra)
    assert (code, text) == (
        2, f"error: [Errno 2] No such file or directory: '{report}'\n")


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


def _report(tmp_path, argv):
    """Exit code and the report's key/value lines before the histogram."""
    report = tmp_path / "run.report"
    code, _ = invoke(argv + ["--report", str(report)])
    lines = report.read_text().splitlines()
    head = lines[:lines.index("depth histogram")]
    return code, dict(line.split() for line in head)


@pytest.mark.parametrize("extra,code,stop,source", [
    (["--K", "2"], 0, "tolerance", "override"),
    ([], 0, "tolerance", "centered-lattice"),
    (["--k-mode", "global"], 0, "tolerance", "lattice"),
    (["--K", "2", "--max-cells", "5"], 3, "max_cells", "override"),
    (["--max-cells", "5"], 3, "max_cells", "centered-lattice"),
    (["--k-mode", "per-cell"], 0, "tolerance", "centered-lattice"),
    (["--K", "2", "--k-mode", "global"], 0, "tolerance", "override"),
    (["--k-mode", "global", "--max-cells", "5"], 3, "max_cells", "lattice")])
def test_integrate_report_says_why_it_stopped_and_where_k_came_from(
        unit2, tmp_path, extra, code, stop, source):
    argv = ["integrate", "--expr", "exp(x1+x2)", "--simplex", unit2,
            "--tol", "1e-4"] + extra
    got, report = _report(tmp_path, argv)
    assert got == code
    keys = list(report)
    assert keys.index("stop") == keys.index("K_min") + 1
    assert keys.index("K_source") == keys.index("stop") + 1
    assert (report["stop"], report["K_source"]) == (stop, source)
    assert keys[-2:] == ["rounds", "discarded_splits"]


@pytest.mark.parametrize("k,k_mode,source", [
    (2.0, "per-cell", "override"),
    (2.0, "global", "override"),
    (None, "global", "lattice"),
    (None, "per-cell", "centered-lattice")])
def test_report_k_source_is_the_one_the_run_settled(unit2, tmp_path, k,
                                                    k_mode, source):
    # The report prints RunDiagnostics.k_source of the same run through
    # the API, and only an override is certified.
    argv = ["integrate", "--expr", "exp(x1+x2)", "--simplex", unit2,
            "--tol", "1e-4"] + (["--K", str(k)] if k is not None else [])
    if k_mode != "per-cell":
        argv += ["--k-mode", k_mode]
    report = tmp_path / "run.report"
    code, text = invoke(argv + ["--report", str(report)])
    diag = adaptive.RunDiagnostics()
    result = adaptive.integrate_adaptive(
        field.parse_expr("exp(x1+x2)", 2), geometry.load_simplex(unit2),
        adaptive.AdaptiveConfig(tolerance=1e-4, k_mode=k_mode, k_override=k),
        diagnostics=diag)
    assert code == 0
    assert f"K_source {diag.k_source}\n" in report.read_text()
    assert diag.k_source == source
    if source != "centered-lattice":  # one K for every leaf
        lines = report.read_text().splitlines()
        keys = dict(line.split() for line in
                    lines[:lines.index("depth histogram")])
        assert float(keys["K_max"]) == float(keys["K_min"]) == \
            result.K_used
        assert k is None or result.K_used == k
    assert result.K_certified == (source == "override")
    certified = "yes" if result.K_certified else "no"
    assert f"(certified: {certified})\n" in text


def test_readme_names_exactly_the_report_keys(unit2, tmp_path):
    # README's --report paragraph lists one "- `key`: ..." item per key
    # line, in order; the report must write exactly those.
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        text = fh.read()
    paragraph = text[text.index("`--report` writes"):]
    paragraph = paragraph[:paragraph.index("\n\n", paragraph.index("\n- "))]
    documented = re.findall(r"^- `(\w+)`:", paragraph, flags=re.M)
    assert "then a `depth histogram`" in paragraph
    _, report = _report(tmp_path, ["integrate", "--expr", "exp(x1+x2)",
                                   "--simplex", unit2, "--tol", "1e-3"])
    assert documented == list(report)


@pytest.fixture
def segment(tmp_path):
    path = tmp_path / "segment.spx"
    path.write_text("0\n4\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["bound", "--rule", "barycenter"],
    ["integrate", "--tol", "1"],
    ["sandwich"]])
def test_overflowing_estimate_is_an_error(segment, argv):
    # vol * f = 4 * 1e308 overflows: no warning, no certified inf.
    argv = argv + ["--expr", "1e308", "--simplex", segment]
    if argv[0] != "sandwich":
        argv += ["--K", "0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = invoke(argv)
    assert code == 1
    assert text.startswith("error: non-finite")
    assert "certified" not in text


@pytest.fixture
def unit_segment(tmp_path):
    path = tmp_path / "unit.spx"
    path.write_text("0\n1\n")
    return str(path)


def test_constant_power_at_zero_integrates(unit_segment):
    # The jet of x1^0 at 0 is exact: no 0 * inf in its derivatives. A
    # constant tape broadcasts its one value to every point.
    for expr, value in (("x1^0", "1"), ("2", "2")):
        code, text = invoke(["integrate", "--expr", expr, "--simplex",
                             unit_segment, "--tol", "1e-3"])
        assert code == 0
        assert f"estimate: {value}\nradius:   0\n" in text


def interval(text):
    line = [l for l in text.splitlines() if l.startswith("interval")][0]
    return [float(v) for v in line.split(":")[1].strip(" []").split(",")]


def test_gaussian_interval_contains_its_integral(unit_segment):
    # -x1^2 is -(x1^2); (-x1)^2 would integrate exp(+x1^2). K = 2 is
    # sup |f''| on [0, 1]. A text starting with "-" needs --expr=.
    args = ["--simplex", unit_segment, "--K", "2", "--tol", "1e-6"]
    code, text = invoke(["integrate", "--expr", "exp(-x1^2)", *args])
    assert code == 0 and "certified: yes" in text
    lo, hi = interval(text)
    assert lo <= 0.746824132812427 <= hi
    code, text = invoke(["integrate", "--expr=-x1^2", *args])
    lo, hi = interval(text)
    assert code == 0 and lo <= -1 / 3 <= hi


@pytest.mark.parametrize("expr", ["sqrt(x1)", "log(x1)", "1/x1", "x1^0.5"])
def test_integrand_singular_at_a_vertex_fails(unit_segment, expr):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = invoke(["integrate", "--expr", expr, "--simplex",
                             unit_segment, "--tol", "1e-3"])
    assert (code, text) == (1, "error: non-finite Hessian: K is not finite\n")


@pytest.mark.parametrize("argv", [
    ["integrate", "--tol", "1", "--K", "1"],
    ["bound", "--rule", "barycenter", "--K", "1"], ["sandwich"]])
def test_constant_division_by_zero_is_an_error(unit_segment, argv):
    # 1/0 folds to inf at parse time; it is never a ZeroDivisionError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = invoke(argv + ["--expr", "x1 + 1/0",
                                    "--simplex", unit_segment])
    assert code == 1
    assert text == "error: integrand non-finite on a batch point\n"


# Nesting has no limit: the first two are x1, and the third overflows.
DEEP = {"parentheses_250": "(" * 250 + "x1" + ")" * 250,
        "minus_1000": "-" * 1000 + "x1",
        "exp_400": "exp(" * 400 + "x1" + ")" * 400}


@pytest.mark.parametrize("name", DEEP)
def test_deeply_nested_expression_runs(unit_segment, name):
    def argv(text):
        return ["integrate", f"--expr={text}", "--simplex", unit_segment,
                "--tol", "1e-3", "--K", "1"]

    _check_documented_exit(argv(DEEP[name]))
    got = invoke(argv(DEEP[name]))
    if name == "exp_400":
        assert got == (1, "error: integrand non-finite on a batch point\n")
    else:
        assert got == invoke(argv("x1"))
        assert got[0] == 0


def test_twenty_thousand_term_sum_integrates(unit_segment):
    # 40,000 instructions compile to one program; the output is the one
    # the tape interpreter printed.
    code, text = invoke(["integrate", "--expr", "+".join(["x1"] * 20000),
                         "--simplex", unit_segment, "--tol", "1e-3",
                         "--K", "1"])
    assert (code, text) == (0, "estimate: 10000\n"
                               "radius:   0.00065104166666666663\n"
                               "K:        1 (certified: yes)\n"
                               "interval: [9999.9993489583339, "
                               "10000.000651041666]\n"
                               "cells:    8\n")


# Property test over argv and rule-file text. Inputs are drawn from
# small pools of edge values; --max-cells stays small to keep runs short.
SIMPLICES = {"seg": "0\n4\n", "tri": "0 0\n1 0\n0 1\n",
             "tet": "0 0 0\n1 0 0\n0 1 0\n0 0 1\n",
             "flat": "0 0\n1 1\n2 2\n", "bad": "0 0\n1\n"}
NUMBERS = ["0", "1", "-1", "2.5", "1e-3", "1e-300", "1e300", "1e308",
           "-1e308", "nan", "inf", "-inf", "x", ""]
TOLERANCES = ["1", "0.1", "1e-3", "1e-300", "1e308", "0", "-1", "nan"]
EXPRS = ["x1", "exp(x1)", "x1*x1", "-x1*x1", "1e308", "-1e308*x1",
         "1e308+x1", "1e308*x1*x1", "x1^x1", "log(x1)", "sqrt(x1-1)",
         "1/x1", "sin(40*x1)", "exp(1000*x1)", "2", "exp(x1+x2)", "x3"]
EXPR_TOKENS = ["x1", "x2", "(", ")", "+", "-", "*", "/", "^", "exp",
               "log", "1e308", "0", ".5", " "]
RULE_TOKENS = ["0", "1", "1/3", "1/2", "1/12", "3/4", "-1", "1/0",
               "1e308", "1e999", "inf", "-inf", "nan", "x"]
RULE_LINES = st.one_of(
    st.sampled_from(["dim 1", "dim 2", "dim 3", "dim x", "dim -1",
                     "nodes 1", "nodes 4", "nodes 0", "nodes -1",
                     "# note", ""]),
    st.lists(st.sampled_from(RULE_TOKENS), min_size=1, max_size=4)
    .map(" ".join))
RULE_TEXTS = st.one_of(
    st.lists(RULE_LINES, max_size=12).map("\n".join),
    st.sampled_from(["dim 2\nnodes 4\n1 0 0\n0 1 0\n0 0 1\n"
                     "1/3 1/3 1/3\n1/12\n1/12\n1/12\n3/4\n",
                     "dim 1\nnodes 1\n1/2 1/2\n1\n"]))


@st.composite
def cli_argv(draw, paths):
    """One argv; options use --flag=value so '-1' stays a value."""
    def opt(flag, pool):
        return ([f"{flag}={draw(st.sampled_from(pool))}"]
                if draw(st.booleans()) else [])

    command = draw(st.sampled_from(
        ["moments", "verify-rule", "sandwich", "bound", "integrate"]))
    expr = (draw(st.sampled_from(EXPRS)) if draw(st.integers(0, 3)) else
            "".join(draw(st.lists(st.sampled_from(EXPR_TOKENS),
                                  max_size=8))))
    rule = draw(st.sampled_from(
        ["barycenter", "vertex", "hh-mix-2d", "nosuch", paths["rule"]]))
    shape = [f"--expr={expr}", "--simplex",
             paths[draw(st.sampled_from(sorted(SIMPLICES)))]]
    argv = opt("--threads", ["1", "8", "-3"]) + [command]
    if command == "moments":
        argv += opt("--dim", ["1", "3", "18", "19", "0", "-2", "x"])
    elif command == "verify-rule":
        argv += [paths["rule"]]
    elif command == "sandwich":
        argv += shape + (["--screen"] if draw(st.booleans()) else [])
    elif command == "bound":
        argv += [f"--rule={rule}"] + shape + opt("--K", NUMBERS)
    else:
        tol = draw(st.sampled_from(TOLERANCES))
        cells = draw(st.sampled_from(["-1", "0", "1", "2", "40"]))
        argv += shape + [f"--tol={tol}", f"--max-cells={cells}"]
        argv += opt("--rule", [rule]) + opt("--K", NUMBERS)
        argv += opt("--k-mode", ["global", "per-cell", "other"])
        argv += opt("--report", [paths["report"]])
    return argv


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {"rule": str(root / "fuzz.rule"),
             "report": str(root / "run.report"),
             "simplex": str(root / "fuzz.spx")}
    for name, text in SIMPLICES.items():
        paths[name] = str(root / f"{name}.spx")
        with open(paths[name], "w") as fh:
            fh.write(text)
    return paths


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rule_text=RULE_TEXTS)
def test_cli_inputs_end_in_a_documented_exit(cli_paths, data, rule_text):
    with open(cli_paths["rule"], "w") as fh:
        fh.write(rule_text)
    argv = data.draw(cli_argv(cli_paths))
    _check_documented_exit(argv)


def _check_documented_exit(argv):
    """Exit 0-3 without an exception; on exit 0, every printed value is
    finite and the radius is >= 0."""
    code, text = invoke(argv)  # an uncaught exception fails the test
    assert code in (0, 1, 2, 3)
    if code == 0:
        for line in text.splitlines():
            key, _, rest = line.partition(":")
            if key in ("estimate", "radius", "interval", "lower", "upper"):
                values = [float(v) for v in rest.strip(" []").split(",")]
                assert all(map(math.isfinite, values)), (argv, text)
                assert key != "radius" or values[0] >= 0, (argv, text)


# Simplices whose squared edges or max edge^n overflow a float; the
# 1e150 triangle does not, though its certificates' radii do.
TOO_LARGE = {"segment_to_-1e308": "-1e308\n0\n",
             "segment_-1e308_to_1e308": "-1e308\n1e308\n",
             "triangle_legs_1e154": "0 0\n1e154 0\n0 1e154\n",
             "4-simplex_legs_1e100": "0 0 0 0\n1e100 0 0 0\n0 1e100 0 0\n"
                                     "0 0 1e100 0\n0 0 0 1e100\n"}
SHAPE_COMMANDS = [["sandwich", "--expr=1"],
                  ["bound", "--rule=barycenter", "--expr=1", "--K=1"],
                  ["integrate", "--tol=1", "--expr=1", "--K=1"]]


@pytest.mark.parametrize("command", SHAPE_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("text", TOO_LARGE.values(), ids=TOO_LARGE.keys())
def test_simplex_too_large_for_floating_point(tmp_path, command, text):
    path = tmp_path / "huge.spx"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(command + ["--simplex", str(path)])
    assert (code, out) == (1, "error: simplex too large for floating "
                              "point: max edge length ^ n overflows\n")


def test_sandwich_on_a_huge_triangle(tmp_path):
    path = tmp_path / "huge.spx"
    path.write_text("0 0\n1e150 0\n0 1e150\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(SHAPE_COMMANDS[0] + ["--simplex", str(path)])
        assert code == 0 and "lower: 4.99999" in out
        code, out = invoke(SHAPE_COMMANDS[1] + ["--simplex", str(path)])
        assert (code, out) == (1, "error: non-finite cell radius: K or the "
                                  "simplex is too large\n")


@pytest.mark.parametrize("n", [19, 23])
def test_certificates_past_the_moment_table(tmp_path, n):
    # A rule report reads no moment table: integrate, bound and
    # verify-rule work on simplices past moments.MAX_DIMENSION.
    spx, rule = tmp_path / f"unit{n}.spx", tmp_path / f"bary{n}.rule"
    spx.write_text("\n".join(" ".join("1" if j == i else "0"
                                       for j in range(n))
                             for i in range(-1, n)) + "\n")
    rule.write_text(f"dim {n}\nnodes 1\n" + f"1/{n + 1} " * (n + 1)
                    + "\n1\n")
    shape = ["--expr", "x1^2", "--simplex", str(spx)]
    exact = 2 / math.factorial(n + 2)
    for argv in (["integrate", "--tol", "1", "--K", "2"],
                 ["bound", "--rule", "barycenter", "--K", "2"]):
        code, out = invoke(argv + shape)
        lo, hi = map(float, re.search(r"interval: \[(\S+), (\S+)\]",
                                      out).groups())
        assert code == 0 and lo <= exact <= hi
    code, out = invoke(["verify-rule", str(rule)])
    assert code == 0 and "certificate: midpoint, factor 1/2\n" in out
    code, out = invoke(["sandwich"] + shape)
    assert code == 0 and out.startswith("lower: ")


# Property test over simplex-file text: lines of 0-4 tokens; three files
# in four have n tokens on each of n + 1 lines, so that many parse.
PLAIN_TOKENS = ["0", "1", "-1", "0.5", "3", "-2.25", "7"]
EDGE_TOKENS = ["1e100", "1e154", "1e308", "-1e308", "nan", "inf", "x",
               "1/2", "#"]
SIMPLEX_TOKEN = st.sampled_from(PLAIN_TOKENS * 3 + EDGE_TOKENS)


@st.composite
def simplex_text(draw):
    n = draw(st.integers(1, 4))
    regular = draw(st.sampled_from([True, True, True, False]))
    sizes = st.just(n) if regular else st.integers(0, 4)
    lines = [" ".join(draw(st.lists(SIMPLEX_TOKEN, min_size=size,
                                    max_size=size)))
             for size in draw(st.lists(sizes, min_size=n + 1,
                                       max_size=n + 1))]
    return "\n".join(lines) + "\n"


@st.composite
def shape_argv(draw):
    command = draw(st.sampled_from(["sandwich", "bound", "integrate"]))
    expr = draw(st.sampled_from(["1", "x1", "x1*x1", "exp(x1)", "1e308"]))
    argv = [command, f"--expr={expr}"]
    if command == "bound":
        argv.append("--rule=barycenter")
    elif command == "integrate":
        argv += [f"--tol={draw(st.sampled_from(['1', '1e-3']))}",
                 f"--max-cells={draw(st.integers(1, 40))}"]
    if command != "sandwich" and draw(st.booleans()):
        argv.append(f"--K={draw(st.sampled_from(['0', '1', '1e300']))}")
    return argv


@settings(max_examples=300, deadline=None)
@given(text=simplex_text(), argv=shape_argv())
@example(text="0 0\n1e150 0\n0 1e150\n", argv=SHAPE_COMMANDS[0])
@example(text=TOO_LARGE["segment_to_-1e308"], argv=SHAPE_COMMANDS[0])
@example(text=TOO_LARGE["segment_-1e308_to_1e308"], argv=SHAPE_COMMANDS[1])
@example(text=TOO_LARGE["triangle_legs_1e154"], argv=SHAPE_COMMANDS[2])
@example(text=TOO_LARGE["4-simplex_legs_1e100"], argv=SHAPE_COMMANDS[0])
def test_simplex_files_end_in_a_documented_exit(cli_paths, text, argv):
    with open(cli_paths["simplex"], "w") as fh:
        fh.write(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_documented_exit(argv + ["--simplex", cli_paths["simplex"]])


def fresh_run(*args):
    """The finished run of a new interpreter, given args, that imports
    this certicube; this one has test-only packages loaded and state set."""
    path = [os.path.dirname(os.path.dirname(certicube.__file__)),
            os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))


def fresh_python(script, *args):
    """stdout of script, which must exit 0, run by fresh_run."""
    done = fresh_run("-c", script, *args)
    done.check_returncode()
    return done.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmSize from /proc/self/status")
def test_out_of_memory_exits_1_with_one_error_line(tmp_path):
    # A 6,000-D rule's weighted second-moment matrix takes 288 MB; after
    # import the address space may grow by 256 MiB only.
    path = tmp_path / "vertex6000.rule"
    path.write_text("dim 6000\nnodes 1\n1" + " 0" * 6000 + "\n1\n")
    script = (
        "import resource, sys\n"
        "from certicube import cli\n"
        "with open('/proc/self/status') as fh:\n"
        "    kb = next(int(line.split()[1]) for line in fh\n"
        "             if line.startswith('VmSize:'))\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "soft = kb * 1024 + 256 * 2 ** 20\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    soft = min(soft, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        "sys.argv[1:] = ['verify-rule', sys.argv[1]]\n"
        "cli.main()\n")
    done = fresh_run("-c", script, str(path))
    assert (done.returncode, done.stdout) == (1, "error: out of memory\n")
    assert "Traceback" not in done.stderr


def test_numpy_is_the_only_runtime_dependency():
    script = ("import sys, certicube, certicube.cli; print(sorted(m for m in "
              "('scipy', 'sympy', 'mpmath', 'hypothesis', 'pytest') "
              "if m in sys.modules))")
    assert fresh_python(script).strip() == "[]"


def test_console_entry_point_exits_with_the_code_of_run():
    done = fresh_run("-m", "certicube.cli", "moments", "--dim", "2")
    assert (done.returncode, done.stdout) == invoke(["moments", "--dim", "2"])
    assert fresh_run("-m", "certicube.cli", "bound").returncode == 2


def test_package_import_graph_is_acyclic():
    # Relative imports at any depth, at module level or inside a
    # function; a name that is not a module comes from __init__.
    package = os.path.dirname(certicube.__file__)
    modules = {name[:-3] for name in os.listdir(package)
               if name.endswith(".py")}
    graph = {}
    for module in sorted(modules):
        with open(os.path.join(package, module + ".py")) as fh:
            tree = ast.parse(fh.read())
        graph[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = ([node.module.split(".")[0]] if node.module else
                         [alias.name for alias in node.names])
                graph[module] |= {name if name in modules else "__init__"
                                  for name in names}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    # Cells, volumes and second moments sit below every other module.
    assert graph["geometry"] == {"errors"}
    # A rule report is checked in closed form, with no moment table.
    assert "moments" not in graph["cubature"]


def test_numpy_eigensolvers_are_called_only_by_qform():
    # qform.extreme_eigenvalues is the one spectral kernel.
    package = os.path.dirname(certicube.__file__)
    calls = re.compile(r"eigvalsh|\beigh\b|\beigvals\b|\beig\(")
    offenders = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "qform.py":
            with open(os.path.join(package, name)) as fh:
                offenders += [f"{name}:{k}" for k, line in enumerate(fh, 1)
                              if calls.search(line)]
    assert offenders == []


def test_only_expr_runs_generated_code():
    # expr compiles one program per tape skeleton; no other module
    # compiles or runs code it builds.
    package = os.path.dirname(certicube.__file__)
    calls = re.compile(r"(?<![\w.])(exec|eval|compile)\(")
    offenders = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "expr.py":
            with open(os.path.join(package, name)) as fh:
                offenders += [f"{name}:{k}" for k, line in enumerate(fh, 1)
                              if calls.search(line)]
    assert offenders == []


def test_only_field_and_geometry_sample_hessians():
    # field.lattice_spectrum is the one Hessian sampler, and
    # field.hessians the one reader of a field's hessian: no other module
    # builds a lattice or asks for Hessians at points.
    package = os.path.dirname(certicube.__file__)
    calls = re.compile(r"(?<!def )\bhessians\(|\.hessian\(|lattice_weights"
                       r"|lattice_points")
    offenders = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name not in ("field.py", "geometry.py"):
            with open(os.path.join(package, name)) as fh:
                offenders += [f"{name}:{k}" for k, line in enumerate(fh, 1)
                              if calls.search(line)]
    assert offenders == []


def test_cached_parser_keeps_no_state_between_runs(unit2):
    # The parser is built once per process: each command must print and
    # exit as it does as the first command of a fresh interpreter.
    commands = [
        ["integrate", "--expr", "x1"],  # a parse error
        ["integrate", "--expr", "x1*x1", "--simplex", unit2, "--tol=--"],
        ["integrate", "--expr", "exp(x1+x2)", "--simplex", unit2,
         "--tol", "1e-3", "--K", "20"],
        ["integrate", "--expr", "exp(x1+x2)", "--simplex", unit2,
         "--tol", "1e-3"],
        ["bound", "--rule", "barycenter", "--expr", "x1*x2",
         "--simplex", unit2],
        ["sandwich", "--expr", "x1^2 + x2^2", "--simplex", unit2,
         "--screen"],
    ]
    script = ("import io, json, sys; from certicube.cli import run; "
              "out = io.StringIO(); code = run(json.loads(sys.argv[1]), out); "
              "print(json.dumps([code, out.getvalue()]))")
    in_process = [list(invoke(argv)) for argv in commands]
    fresh = [json.loads(fresh_python(script, json.dumps(argv)))
             for argv in commands]
    assert in_process == fresh
    assert [code for code, _ in fresh] == [2, 2, 0, 0, 0, 0]


def test_module_entry_point_exits_with_the_run_code(unit2):
    budget = ["integrate", "--expr", "exp(x1+x2)", "--simplex", unit2,
              "--tol", "1e-12", "--k-mode", "global", "--max-cells", "20"]
    for argv, code in ((["moments", "--dim", "2"], 0), (budget, 3)):
        done = fresh_run("-m", "certicube.cli", *argv)
        assert (done.returncode, done.stdout) == invoke(argv)
        assert done.returncode == code
