import io
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

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


@pytest.mark.parametrize("text,message", [
    ("dim 2\nnodes 1\n0.5 0.6 -0.1\n1\n",
     "negative barycentric coordinate at node 0"),
    ("dim 2\nnodes 1\n0.3 0.3 0.3\n1\n",
     "barycentric sum 0.8999999999999999 != 1 at node 0"),
    ("dim 1\nnodes 1\n0.5 0.5\n0.9\n", "weights sum 0.9 != 1")])
def test_verify_rule_structural_defect(tmp_path, text, message):
    path = tmp_path / "defect.rule"
    path.write_text(text)
    assert invoke(["verify-rule", str(path)]) == (1, f"error: {message}\n")


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
               "1e308", "nan", "x"]
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
        argv += [f"--rule={rule}"] + shape + opt("--K", NUMBERS) + opt(
            "--resolution", ["-1", "0", "1", "3"])
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
