"""The expression tape: float evaluation against a reference tree walk,
the compiled program against the tape interpreter in floats and jets,
jet Hessians against sympy (test-only), powers at 0, and the unchanged
program over a test-only interval value type (tests/util.Intervals)."""

import io
import operator
import pickle
import re
import tokenize
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from certicube import expr, field
from certicube.errors import InvariantViolation, ParseError

from util import (Intervals, rand_polynomial_field, reference_parse,
                  run_tape)

FUNCTION_NAMES = ("exp", "sin", "cos", "log", "sqrt")
EXPONENTS = (0.0, 1.0, 2.0, 3.0, 0.5, -1.0, 2.5)
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": np.power}


# Trees are nested tuples: ("num", v), ("var", i) (1-based), ("neg", a),
# (function name, a) or (op, a, b) with op one of + - * / ^.

def rand_tree(rng, n, depth):
    """Any tree of the grammar; constants are multiples of 1/8."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return ("num", float(rng.integers(1, 40)) / 8)
        return ("var", int(rng.integers(1, n + 1)))
    pick = rng.integers(0, 10)
    if pick < 4:
        return (str(rng.choice(list("+-*/"))), rand_tree(rng, n, depth - 1),
                rand_tree(rng, n, depth - 1))
    if pick < 6:
        exponent = (("num", float(rng.choice(EXPONENTS)))
                    if rng.random() < 0.6 else rand_tree(rng, n, depth - 1))
        return ("^", rand_tree(rng, n, depth - 1), exponent)
    if pick < 7:
        return ("neg", rand_tree(rng, n, depth - 1))
    return (str(rng.choice(FUNCTION_NAMES)), rand_tree(rng, n, depth - 1))


def rand_positive_tree(rng, n, depth):
    """A composition that is positive and well conditioned for positive
    variables: log and sqrt see positive arguments, sin and cos are
    offset by 2, and a non-constant exponent stays in [1/4, 3/4], so a
    relative comparison of second derivatives is meaningful."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return ("num", float(rng.integers(1, 40)) / 8)
        return ("var", int(rng.integers(1, n + 1)))

    def sub():
        return rand_positive_tree(rng, n, depth - 1)

    pick = rng.integers(0, 9)
    if pick < 3:
        return (str(rng.choice(list("+*/"))), sub(), sub())
    if pick < 5:
        exponent = (("num", float(rng.choice(EXPONENTS)))
                    if rng.random() < 0.6 else
                    ("*", ("num", 0.25), ("+", ("num", 2.0), ("sin", sub()))))
        return ("^", sub(), exponent)
    name = str(rng.choice(FUNCTION_NAMES))
    if name == "exp":
        return ("exp", ("/", sub(), ("num", 4.0)))
    if name == "log":
        return ("log", ("+", ("num", 1.0), sub()))
    if name == "sqrt":
        return ("sqrt", sub())
    return ("+", ("num", 2.0), (name, sub()))


def tree_text(tree):
    kind = tree[0]
    if kind == "num":
        return repr(tree[1])
    if kind == "var":
        return f"x{tree[1]}"
    if kind == "neg":
        return f"-({tree_text(tree[1])})"
    if kind in FUNCTION_NAMES:
        return f"{kind}({tree_text(tree[1])})"
    return f"({tree_text(tree[1])}){kind}({tree_text(tree[2])})"


def tree_walk(tree, points):
    """The recursive evaluator the tape replaced: Python operators, numpy
    functions and np.power, node by node."""
    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "var":
        return points[..., tree[1] - 1]
    if kind == "neg":
        return -tree_walk(tree[1], points)
    if kind in FUNCTION_NAMES:
        return getattr(np, kind)(tree_walk(tree[1], points))
    return _OPS[kind](tree_walk(tree[1], points), tree_walk(tree[2], points))


def tree_sympy(tree, xs):
    kind = tree[0]
    if kind == "num":
        return sympy.Rational(tree[1])
    if kind == "var":
        return xs[tree[1] - 1]
    if kind == "neg":
        return -tree_sympy(tree[1], xs)
    if kind in FUNCTION_NAMES:
        return getattr(sympy, kind)(tree_sympy(tree[1], xs))
    a, b = tree_sympy(tree[1], xs), tree_sympy(tree[2], xs)
    return {"+": operator.add, "*": operator.mul, "/": operator.truediv,
            "^": operator.pow}[kind](a, b)


def poly_text(poly):
    """A tests/util PolynomialField as text, one monomial per term."""
    terms = []
    for alpha, coef in poly.terms.items():
        factors = [repr(coef)] + [f"x{i + 1}^{power}"
                                  for i, power in enumerate(alpha) if power]
        terms.append("*".join(factors))
    return " + ".join(terms)


def sympy_hessians(text_expr, xs, points):
    """Hessians of a sympy expression at the rows of points, exact to
    double precision (mpmath at 40 digits); None where the value or a
    second derivative is not a finite real."""
    hessian = sympy.lambdify(xs, sympy.hessian(text_expr, xs), "mpmath")
    value = sympy.lambdify(xs, text_expr, "mpmath")
    out = []
    with mpmath.workdps(40):
        for p in points:
            args = [mpmath.mpf(float(v)) for v in p]
            entries = [value(*args)] + list(hessian(*args))
            if all(isinstance(v, mpmath.mpf) and mpmath.isfinite(v)
                   for v in entries):
                out.append(np.array([float(v) for v in entries[1:]])
                           .reshape(len(xs), len(xs)))
            else:
                out.append(None)
    return out


def test_float_tape_matches_the_tree_walk_bit_for_bit():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(1, 4))
        tree = rand_tree(rng, n, 4)
        points = rng.uniform(-2.0, 2.0, size=(16, n))
        with np.errstate(all="ignore"):
            tape = expr.parse(tree_text(tree), n)
            got = tape(points)
            for arith in (expr.Floats(points), expr.Jets(points)):
                assert_same_bits(tape.program(arith), run_tape(tape, arith))
            # The tape is a tree, as the program's evaluation stack
            # assumes: every slot but the result is an argument of
            # exactly one instruction.
            reads = sorted(i for _, args, _ in tape.ops for i in args)
            assert reads == list(range(len(tape.ops) - 1))
            try:
                want = tree_walk(tree, points)
            except ZeroDivisionError:  # a constant 1/0 in the tree walk
                continue
        want, got = np.broadcast_arrays(want, got)
        assert np.array_equal(got, want, equal_nan=True), tree_text(tree)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        checked += 1
    assert checked >= 350


# Values a point must carry alone as in a batch: signed zeros,
# infinities, NaNs of either sign, and the exponents at which np.power
# takes a short cut for a scalar exponent.
SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, -1.0, 0.5, 1.0, 2.0)


def _assert_one_point_is_a_batch_row(tape, points, k):
    """tape at row k of points, alone as one point (1, n), has the bits
    that the row gets in batches of 2 and 7 rows of points, or is NaN
    where it is NaN (a NaN's sign and payload may differ)."""
    one = tape(points[k:k + 1])
    assert (one.shape, one.dtype) == ((1,), np.float64)
    seven = [(k + j) % len(points) for j in range(-3, 4)]
    for rows, row in (([k - 1, k], 1), (seven, 3)):
        want = tape(points[rows])[row]
        if np.isnan(want):
            assert np.isnan(one[0])
        else:
            assert_same_bits(one[0], want)


def test_one_point_has_the_bits_of_a_batch_row():
    rng = np.random.default_rng(41)
    with np.errstate(all="ignore"):
        for _ in range(400):
            n = int(rng.integers(1, 4))
            tape = expr.parse(tree_text(rand_tree(rng, n, 4)), n)
            points = np.where(rng.random((8, n)) < 0.5,
                              rng.choice(SPECIAL, (8, n)),
                              rng.uniform(-2.0, 2.0, (8, n)))
            for k in range(len(points)):
                _assert_one_point_is_a_batch_row(tape, points, k)
        # Every pair of special values through the operations whose
        # scalar and array forms can differ: NaN against NaN in add and
        # mul, and a variable exponent.
        pairs = np.array([(a, b) for a in SPECIAL for b in SPECIAL])
        for text in ("x1 + x2", "x1*x2", "x1 - x2", "x1/x2", "x1^x2",
                     "2^x1", "(0*x1)^x2", "-x1 + -x2"):
            tape = expr.parse(text, 2)
            for k in range(len(pairs)):
                _assert_one_point_is_a_batch_row(tape, pairs, k)


class Types:
    """An arithmetic that runs another and records the type of each value
    it makes."""

    def __init__(self, arith):
        self.arith, self.types = arith, []

    def __getattr__(self, op):
        method = getattr(self.arith, op)

        def record(*args):
            value = method(*args)
            self.types.append(type(value))
            return value
        return record


def test_one_point_path_makes_no_array_per_instruction():
    # Every value at one point is a scalar, for every opcode, and the
    # result is still a (1,) float64 array, for a constant tape too.
    point = np.array([[0.25, -3.0]])
    for text, want in [
            ("2^0.5", 2.0 ** 0.5), ("x2", -3.0),
            ("x1*x2 + 1", 0.25 * -3.0 + 1),
            ("-x1/x2 - x1^x2 + x2^3", None),
            ("exp(x1) + sin(x2)*cos(x1) + log(x1)*sqrt(x1)", None)]:
        tape = expr.parse(text, 2)
        arith = Types(expr.Floats(point))
        with np.errstate(all="ignore"):
            value = tape.program(arith)
            got = tape(point)
        # One call per variable read (each variable once) and per other
        # instruction.
        reads = {i for op, _, i in tape.ops if op == "var"}
        assert len(arith.types) == len(reads) + sum(
            op != "var" for op, _, _ in tape.ops)
        assert set(arith.types) <= {float, np.float64}
        assert (got.shape, got.dtype) == ((1,), np.float64)
        assert_same_bits(got[0], np.float64(value))
        assert want is None or got[0] == want


def assert_same_bits(got, want):
    """got is want bit for bit: a float or an array, or for jets a
    (value, gradient, Hessian) with None where want has None."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                assert_same_bits(g, w)
        return
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


# Signed zeros, infinities and NaNs, subnormals and squares that
# underflow or overflow.
SQUARE_EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-170, -1e-170, 1e200, -1e200,
    1.7976931348623157e308, 1.5, -3.0])


def test_square_has_np_powers_bits():
    # Floats.powc squares by a multiply; np.power at 2.0 has the same
    # bits, at one point (an np.float64) and on a batch, alone and in x1^2.
    square = expr.parse("x1^2", 1)
    with np.errstate(all="ignore"):
        for x in SQUARE_EDGES:
            assert_same_bits(expr.Floats.powc(x, 2.0), np.power(x, 2.0))
            assert_same_bits(square(np.array([[x]])),
                             np.power(np.array([x]), 2.0))
        assert_same_bits(expr.Floats.powc(SQUARE_EDGES, 2.0),
                         np.power(SQUARE_EDGES, 2.0))
        assert_same_bits(square(SQUARE_EDGES[:, None]),
                         np.power(SQUARE_EDGES, 2.0))


def _assert_jets_match_sympy(text, sympy_expr, n, points):
    tape = field.parse_expr(text, n).evaluator
    jets = expr.Jets(points)
    assert_same_bits(tape.program(jets), run_tape(tape, jets))
    got = tape.hessians(points)
    compared = 0
    for h, ref in zip(got, sympy_hessians(sympy_expr,
                                          sympy.symbols(f"x1:{n + 1}"),
                                          points)):
        if ref is None:
            continue
        # Relative to the largest entry, or absolute below 1: a Hessian
        # that cancels to 0 (as in x1/x1) keeps rounding-sized entries.
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(h - ref)) <= 1e-12 * scale, (text, h, ref)
        compared += 1
    return compared


def test_jet_hessians_match_sympy_on_random_polynomials():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(4):
            poly = rand_polynomial_field(rng, n).evaluator
            xs = sympy.symbols(f"x1:{n + 1}")
            sympy_expr = sum(
                sympy.Rational(coef) * sympy.prod(
                    [x ** power for x, power in zip(xs, alpha)])
                for alpha, coef in poly.terms.items())
            points = rng.uniform(0.0, 1.0, size=(6, n))
            assert _assert_jets_match_sympy(
                poly_text(poly), sympy_expr, n, points) == 6


def test_jet_hessians_match_sympy_on_compositions():
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(60):
        n = int(rng.integers(1, 4))
        tree = rand_positive_tree(rng, n, 4)
        sympy_expr = tree_sympy(tree, sympy.symbols(f"x1:{n + 1}"))
        if sympy_expr.has(sympy.zoo, sympy.nan, sympy.oo):
            continue
        points = rng.uniform(0.1, 2.0, size=(4, n))
        compared += _assert_jets_match_sympy(tree_text(tree), sympy_expr, n,
                                             points)
    assert compared >= 200


@pytest.mark.parametrize("text,second", [
    ("x1^0", 0.0), ("x1^1", 0.0), ("x1^2", 2.0), ("x1^3", 0.0),
    ("(2*x1)^0", 0.0), ("x1^2*x1^1", 0.0)])
def test_constant_powers_have_exact_derivatives_at_zero(text, second):
    # c * (c - 1) * t^(c - 2) would be 0 * inf = NaN at t = 0 for c = 0, 1.
    f = field.parse_expr(text, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hess = field.hessians(f, np.array([[0.0], [0.5]]))
    assert hess[0, 0, 0] == second
    exact = {"x1^0": 0.0, "x1^1": 0.0, "x1^2": 2.0, "x1^3": 3.0,
             "(2*x1)^0": 0.0, "x1^2*x1^1": 3.0}[text]
    assert hess[1, 0, 0] == exact


@pytest.mark.parametrize("text", ["sqrt(x1)", "log(x1)", "1/x1", "x1^0.5",
                                  "x1^-1", "2^log(x1)"])
def test_hessian_singular_at_zero_is_an_error(text):
    f = field.parse_expr(text, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="non-finite Hessian"):
            field.hessians(f, np.array([[0.0]]))


def test_constants_fold_at_parse_time():
    # -1 and 1/2 are exponents the jets see as constants.
    tape = expr.parse("x1^-1 + x1^(1/2) + 2*3*x1", 1)
    assert [op for op, _, _ in tape.ops] == [
        "var", "powc", "var", "powc", "add", "var", "const", "mul", "add"]
    assert expr.parse("1/0", 1).ops == (("const", (), np.inf),)
    assert expr.parse("-2^2", 1).ops == (("const", (), -4.0),)


@pytest.mark.parametrize("text", ["-x1^2", "-2^2", "2^-x1", "x1^-2",
                                  "x1*-x2^2", "--x1", "exp(-x1^2)"])
def test_unary_minus_binds_looser_than_power(text):
    # As in Python and sympy: -a^b is -(a^b), and a minus may follow ^.
    xs = sympy.symbols("x1:3")
    reference = sympy.lambdify(
        xs, sympy.sympify(text.replace("^", "**"),
                          locals=dict(zip(("x1", "x2"), xs))), "mpmath")
    points = np.random.default_rng(21).uniform(0.1, 2.0, size=(20, 2))
    got = field.evaluate_batch(field.parse_expr(text, 2), points)
    with mpmath.workdps(40):
        expected = [float(reference(*map(mpmath.mpf, p))) for p in points]
    assert got == pytest.approx(expected, rel=1e-14, abs=0)


class Recorder:
    """An arithmetic whose every opcode returns (opcode, arguments), so a
    run gives the tape's tree with its constants as passed."""

    def __getattr__(self, op):
        return lambda *args: (op, args)


def _floats(tree):
    if isinstance(tree, tuple):
        return [x for item in tree for x in _floats(item)]
    return [tree] if isinstance(tree, float) else []


def test_tapes_of_one_skeleton_share_a_program_and_keep_their_constants():
    texts = ["2.5*x1 + x2*3 - x1^0.5 + 7",
             "-0.0*x1 + x2*(1/0) - x1^(0/0) + -(0/0)"]
    tapes = [expr.parse(text, 2) for text in texts]
    assert tapes[0].skeleton is tapes[1].skeleton
    expr._compiled.cache_clear()
    programs = [tape.program for tape in tapes]
    info = expr._compiled.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert programs[0].__func__ is programs[1].__func__
    points = np.array([[0.5, -2.0], [0.0, 0.0], [-1.0, 3.0]])
    for tape, program in zip(tapes, programs):
        got, want = program(Recorder()), run_tape(tape, Recorder())
        assert repr(got) == repr(want)
        constants = [c for _, _, c in tape.ops if isinstance(c, float)]
        assert (np.array(_floats(got)).tobytes()
                == np.array(constants).tobytes())
        with np.errstate(all="ignore"):
            assert_same_bits(program(expr.Floats(points)),
                             run_tape(tape, expr.Floats(points)))
    assert [repr(c) for c in _floats(programs[1](Recorder()))] == [
        "-0.0", "inf", "nan", "nan"]


_SOURCE_TOKEN = re.compile(r"[sx]\d+|\d+|[()\[\],=.:]")


def test_generated_source_holds_no_constant_text():
    # Only identifiers, integer indices and opcodes from the table: a
    # float written as text could lose -0.0, nan or inf, and the
    # expression's own text never reaches exec.
    names = {"def", "program", "c", "a", "return", *expr.OPCODES}
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        tape = expr.parse(tree_text(rand_tree(rng, n, 5)), n)
        source = expr._source(tape.skeleton)
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type in (tokenize.NAME, tokenize.NUMBER, tokenize.OP):
                assert (token.string in names
                        or _SOURCE_TOKEN.fullmatch(token.string)), token
            else:
                assert token.type in (tokenize.NEWLINE, tokenize.NL,
                                      tokenize.INDENT, tokenize.DEDENT,
                                      tokenize.ENDMARKER), token


def test_program_reads_each_variable_once():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        tape = expr.parse(tree_text(rand_tree(rng, n, 5)), n)
        used = sorted({c for op, _, c in tape.ops if op == "var"})
        lines = expr._source(tape.skeleton).splitlines()
        reads = [f"    x{i} = a.var({i})" for i in used]
        assert lines[1:1 + len(used)] == reads
        assert sum(line.count("a.var(") for line in lines) == len(used)


def test_unknown_opcode_is_not_compiled():
    with pytest.raises(ValueError, match="unknown opcode"):
        expr.Tape((("var", (), 0), ("__class__", (0,), None))).program


@pytest.mark.parametrize("text,message,position", [
    ("exp x1", "expected '(', found x1 at 4", 4),
    ("sin", "expected '(', found end of input at 3", 3),
    ("2*cos+1", "expected '(', found + at 5", 5)])
def test_function_name_needs_an_open_bracket(text, message, position):
    with pytest.raises(ParseError) as err:
        expr.parse(text, 1)
    assert str(err.value) == message
    assert err.value.position == position
    assert err.value.expected == ("(",)


def _outcome(parse, text, n):
    """A parse's result: the tape's skeleton, constant bits and text, or
    the error's type, message, position and expected tokens."""
    try:
        tape = parse(text, n)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "position", None),
                getattr(exc, "expected", None))
    return (tape.skeleton, [c.hex() for c in tape.constants], tape.text)


def _chain(pairs):
    """Operands joined by binary operators, with no brackets."""
    return [token for op, operand in pairs for token in [op] + operand][1:]


def _nest(args):
    """An operand inside ``depth`` openers: brackets, calls or minuses."""
    depth, opener, inner = args
    if opener == "-":
        return ["-"] * depth + inner
    return opener * depth + inner + [")"] * depth


_NUMBERS = st.one_of(
    st.sampled_from(["0", "2", "0.5", ".5", "3.", "007", "1e3", "2E-2",
                     "1.5e+1", "1e400", "1e-400"]),
    st.floats(min_value=0.0, allow_infinity=False).map(repr))
_VARIABLES = st.sampled_from(
    ["x1"] * 6 + ["x2"] * 2 + ["x3", "x01", "x0", "x4", "x12"])
_EXPRESSIONS = st.recursive(
    st.one_of(_NUMBERS, _VARIABLES).map(lambda token: [token]),
    lambda inner: st.lists(st.tuples(st.sampled_from("+-*/^"), st.one_of(
        inner,
        st.tuples(st.sampled_from(FUNCTION_NAMES), inner).map(
            lambda t: [t[0], "("] + t[1] + [")"]),
        inner.map(lambda t: ["-"] + t),
        inner.map(lambda t: ["("] + t + [")"]),
        st.tuples(st.integers(1, 400),
                  st.sampled_from([["("], ["-"], ["sin", "("], ["-", "("]]),
                  inner).map(_nest))), min_size=1, max_size=4).map(_chain),
    max_leaves=12)
# Grammar tokens and characters that start none ('²' and fullwidth
# letters are not ASCII; '.' alone is no number).
_STRAYS = ["+", "-", "*", "/", "^", "(", ")", "x1", "x9", "2", ".", "e5",
           "exp", "foo", "_", "$", "@", "#", ",", "[", "é", "²", "ｘ", "π"]
_SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", " \u2003 "])


@st.composite
def _texts(draw):
    """A text from grammar tokens: an expression, then a few stray tokens
    put in or tokens taken out, joined with or without spaces, and a few
    runs of whitespace."""
    tokens = draw(_EXPRESSIONS)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()):
            tokens.insert(at, draw(st.sampled_from(_STRAYS)))
        else:
            del tokens[at:at + 1]
    text = draw(st.sampled_from(["", " "])).join(tokens)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_SPACES) + text[at:]
    return text


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_texts(), n=st.integers(1, 3))
@example(text="sin(x1)^2 - -x2^-x1^2*exp(x1)/-(x2)^3^0.5", n=2)
@example(text="-cos(-2)^x1 + log(4)^0.5*sqrt(x1^2)^-1 - -(1/0)", n=1)
def test_parse_matches_the_reference_parser(text, n):
    # The same tapes, constant bits included, and the same errors as the
    # parser that parse replaced, on valid and broken texts.
    assert _outcome(expr.parse, text, n) == _outcome(reference_parse, text, n)


def test_parse_matches_the_reference_parser_on_battery_texts():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4) * 25:
        text = _battery_quadratic(rng, n)
        assert (_outcome(expr.parse, text, n)
                == _outcome(reference_parse, text, n))


_VALUE = ("number", "variable", "function", "(", "-")


@pytest.mark.parametrize("text,message,position,expected", [
    # A character that starts no token is the error, wherever it is.
    ("x1 + + $", "unexpected character '$' at 7", 7, ()),
    ("x1 $ +", "unexpected character '$' at 3", 3, ()),
    ("sin x1 $", "unexpected character '$' at 7", 7, ()),
    ("x5 + $", "unexpected character '$' at 5", 5, ()),
    ("foo + @", "unexpected character '@' at 6", 6, ()),
    ("x1 x2 #", "unexpected character '#' at 6", 6, ()),
    ("cos(x1) . ", "unexpected character '.' at 8", 8, ()),
    # At the end of the input.
    ("", "expected a value, found end of input at 0", 0, _VALUE),
    ("x1 +", "expected a value, found end of input at 4", 4, _VALUE),
    ("x1^ ", "expected a value, found end of input at 4", 4, _VALUE),
    ("(x1", "expected ')', found end of input at 3", 3, (")",)),
    ("exp(sin(x1)", "expected ')', found end of input at 11", 11, (")",)),
    ("sin", "expected '(', found end of input at 3", 3, ("(",)),
    # Inside nested calls.
    ("sin(cos(x1 x2))", "expected ')', found x2 at 11", 11, (")",)),
    ("exp(log(+))", "expected a value, found + at 8", 8, _VALUE),
    ("sin(cos x1)", "expected '(', found x1 at 8", 8, ("(",)),
    ("sqrt((x1)))", "unexpected trailing input ')' at 10", 10,
     ("end of input",)),
    ("exp(log(foo))", "unknown identifier 'foo' at 8", 8,
     ("cos", "exp", "log", "sin", "sqrt", "x<i>")),
    # After whitespace.
    ("   ", "expected a value, found end of input at 3", 3, _VALUE),
    ("x1 +   *", "expected a value, found * at 7", 7, _VALUE),
    ("  )", "expected a value, found ) at 2", 2, _VALUE),
    ("x1\t\n y", "unexpected trailing input 'y' at 5", 5, ("end of input",)),
    ("x1 +  $", "unexpected character '$' at 6", 6, ()),
    ("2 *\n\tfoo", "unknown identifier 'foo' at 5", 5,
     ("cos", "exp", "log", "sin", "sqrt", "x<i>"))])
def test_parse_error_and_its_position(text, message, position, expected):
    with pytest.raises(ParseError) as err:
        expr.parse(text, 2)
    assert (str(err.value), err.value.position, err.value.expected) == (
        message, position, expected)
    assert _outcome(reference_parse, text, 2) == _outcome(expr.parse, text, 2)


@pytest.mark.parametrize("text,position", [
    ("٣*x1", 0), ("x٣", 1), ("1٣", 1), ("x1 + ３", 5)])
def test_numbers_are_ascii_digits(text, position):
    # Another script's digit starts no token; the replaced parser read
    # '٣*x1' as 3*x1 and '1٣' as 13.
    with pytest.raises(ParseError) as err:
        expr.parse(text, 1)
    assert str(err.value) == (
        f"unexpected character {text[position]!r} at {position}")
    assert err.value.position == position
    assert reference_parse("٣*x1", 1) == expr.parse("3*x1", 1)


def _parse_down(frames, text):
    """parse(text, 1) called ``frames`` frames below this one: the tape,
    or the error's type and message."""
    if frames:
        return _parse_down(frames - 1, text)
    try:
        return expr.parse(text, 1)
    except ParseError as exc:
        return type(exc), str(exc)


def _nested(levels):
    """Texts nested ``levels`` deep: brackets, minuses, calls, mixed."""
    half = levels // 2
    return ["(" * levels + "x1" + ")" * levels, "-" * levels + "x1",
            "sin(" * levels + "x1" + ")" * levels,
            "-(" * half + "x1" + ")" * half]


@pytest.mark.parametrize("levels", [200, 5000])
def test_parse_depth_does_not_depend_on_the_callers_stack(levels):
    # Nesting has no limit: the same tape at the top of the stack and 500
    # frames down, and its program runs as the tape interpreter does.
    points = np.array([[0.25], [-1.5], [2.0]])
    for text in _nested(levels):
        tape = _parse_down(0, text)
        assert isinstance(tape, expr.Tape)
        assert _parse_down(500, text) == tape
        for arith in (expr.Floats(points), expr.Jets(points)):
            assert_same_bits(tape.program(arith), run_tape(tape, arith))


@pytest.mark.parametrize("text,reference", [
    ("(" * 100 + "x1" + ")" * 100, lambda x: x),
    ("-" * 99 + "x1", np.negative),
    ("sin(" * 100 + "x1" + ")" * 100, None)],
    ids=["parentheses_100", "minus_99", "sin_100"])
def test_nesting_100_deep_parses_and_evaluates(text, reference):
    points = np.array([[0.25], [-1.5], [2.0]])
    if reference is None:
        want = points[:, 0]
        for _ in range(100):
            want = np.sin(want)
    else:
        want = reference(points[:, 0])
    tape = expr.parse(text, 1)
    assert_same_bits(tape(points), want)
    assert_same_bits(tape.program(expr.Jets(points)),
                     run_tape(tape, expr.Jets(points)))


def test_a_stored_value_is_read_before_its_local_is_reused():
    # The first 40-term sum is built in s1 and added into s0 before the
    # second one is built in s1.
    text = ("x1 + (" + "+".join(["x1"] * 40) + ") + ("
            + "+".join(["x2"] * 40) + ")")
    points = np.array([[1.0, 1000.0], [2.0, -3.0]])
    tape = expr.parse(text, 2)
    assert "s1 = " in expr._source(tape.skeleton)
    assert tape(points).tolist() == [41.0 + 40000.0, 82.0 - 120.0]


_OPERAND = r"(?:[sx]\d+|c\[\d+\])"
_STATEMENT = re.compile(
    rf"    s\d+ = a\.(\w+)\(({_OPERAND}(?:, {_OPERAND})*)?\)")


@pytest.mark.parametrize("source", ["trees", "sum_20000"])
def test_program_is_one_statement_per_instruction(source):
    # After the variable reads, each instruction is one flat statement
    # whose operands are locals or constants, never a call.
    if source == "trees":
        rng = np.random.default_rng(31)
        tapes = []
        for _ in range(200):
            n = int(rng.integers(1, 4))
            tapes.append(expr.parse(tree_text(rand_tree(rng, n, 5)), n))
    else:
        tapes = [expr.parse("+".join(["x1"] * 20000), 1)]
        assert len(tapes[0].ops) == 39999
    for tape in tapes:
        lines = expr._source(tape.skeleton).splitlines()
        used = len({c for op, _, c in tape.ops if op == "var"})
        body, last = lines[1 + used:-1], lines[-1]
        opcodes = [op for op, _, _ in tape.ops if op != "var"]
        assert len(body) == len(opcodes)
        for line, op in zip(body, opcodes):
            match = _STATEMENT.fullmatch(line)
            assert match and match[1] == op, line
        assert re.fullmatch(r"    return [sx]\d+", last)


# 100,000 points: one array of values is 800 kB, and a jet of one
# variable holds three arrays of that size.
@pytest.mark.parametrize("text,arith,arrays", [
    pytest.param("+".join(["x1"] * 200), expr.Floats, 6, id="sum_200"),
    pytest.param("exp(" * 100 + "x1" + ")" * 100, expr.Floats, 6,
                 id="exp_100"),
    pytest.param("exp(" * 100 + "x1" + ")" * 100, expr.Jets, 12,
                 id="exp_100_jets"),
    pytest.param("x1*(" * 100 + "x1" + ")" * 100, expr.Floats, 6,
                 id="product_100")])
def test_program_holds_only_a_few_arrays(text, arith, arrays):
    # Each intermediate is dropped once the stack grows over it again, so
    # a deep nest holds no more than its few live values.
    points = np.random.default_rng(17).uniform(-1.0, 0.0, size=(100_000, 1))
    program = expr.parse(text, 1).program  # compiled before tracing
    tracemalloc.start()
    try:
        with np.errstate(all="ignore"):
            program(arith(points))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < arrays * points.nbytes


def test_tape_pickles_after_evaluation():
    points = np.random.default_rng(19).uniform(0.0, 1.0, size=(5, 2))
    tape = expr.parse("exp(x1*x2)", 2)
    f = field.parse_expr("exp(x1*x2) - x2^2.5", 2)
    before = tape(points), f.evaluator(points), f.hessian(points)
    tape_copy, f_copy = pickle.loads(pickle.dumps((tape, f)))
    assert tape_copy == tape and str(tape_copy) == str(tape)
    assert f_copy.evaluator == f.evaluator
    after = tape_copy(points), f_copy.evaluator(points), f_copy.hessian(points)
    for got, want in zip(after, before):
        assert_same_bits(got, want)


def _battery_quadratic(rng, n):
    """c + b.x + x^T A x, written as the oneshot-bounds battery writes it."""
    terms = [repr(rng.standard_normal())]
    terms += [f"{rng.standard_normal()!r}*x{i + 1}" for i in range(n)]
    terms += [f"{rng.standard_normal()!r}*x{i + 1}*x{j + 1}"
              for i in range(n) for j in range(i, n)]
    return " + ".join(terms)


def test_tapes_of_one_shape_share_their_skeleton_and_stay_small():
    # 200 4-D quadratics hold one skeleton, and each tape, its text
    # included, stays under 2 KB.
    rng = np.random.default_rng(37)
    expr.parse(_battery_quadratic(rng, 4), 4)  # caches the skeleton
    tracemalloc.start()
    try:
        tapes = [expr.parse(_battery_quadratic(rng, 4), 4)
                 for _ in range(200)]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(tape.skeleton is tapes[0].skeleton for tape in tapes)
    assert len({tape.constants for tape in tapes}) == 200
    assert size < 200 * 2048


# Tapes for the interval value type: together they use every opcode,
# pow with a variable exponent and powc included, and stay real on
# positive boxes. x1^x2 and 2^x1 are Floats' variable-exponent cases.
INTERVAL_TEXTS = (
    "x1^x2", "2^x1",
    "exp(x1*x2) - sin(x1)/(2 + cos(x2)) + log(x1)*sqrt(x2) - x1^2.5 + -x2",
    "(x1 + 2*x2)^-1*x2^0.5 - x1^3 + x1^(0.25*(2 + sin(x2)))")


def _interval_tapes():
    """(text, n, sympy expression) of the fixed texts and of 12 random
    positive trees with a variable and at least six instructions."""
    xs = sympy.symbols("x1:3")
    cases = [(text, 2, sympy.sympify(text.replace("^", "**"), rational=True,
                                     locals=dict(zip(("x1", "x2"), xs))))
             for text in INTERVAL_TEXTS]
    rng = np.random.default_rng(43)
    while len(cases) < len(INTERVAL_TEXTS) + 12:
        n = int(rng.integers(1, 4))
        tree = rand_positive_tree(rng, n, 4)
        text = tree_text(tree)
        if not re.search(r"x\d", text) or len(expr.parse(text, n).ops) < 6:
            continue
        cases.append((text, n,
                      tree_sympy(tree, sympy.symbols(f"x1:{n + 1}"))))
    return cases


INTERVAL_TAPES = _interval_tapes()
INTERVAL_IDS = ["x1^x2", "2^x1", "functions", "powers"] + [
    f"tree{k}" for k in range(len(INTERVAL_TAPES) - len(INTERVAL_TEXTS))]


def _run_intervals(tape, box):
    """The tape over a box (m, n) of Intervals: its value in Floats and
    in Jets (m,), and its Hessian in Jets (m, n, n), each Intervals. A
    value is 0-d at one point, and a Hessian plane floats or None (an
    exact zero), so each is broadcast to full shape."""
    m, n = box.shape
    value = tape.program(expr.Floats(box))
    jet_value, _, hess = tape.program(expr.Jets(box))
    assert isinstance(value, Intervals) and isinstance(jet_value, Intervals)
    zeros = Intervals.box(np.zeros((m, n, n)), np.zeros((m, n, n)))
    return (value + zeros[:, 0, 0], jet_value + zeros[:, 0, 0],
            zeros + (0.0 if hess is None else hess))


def test_interval_tapes_use_every_opcode():
    used = {op for text, n, _ in INTERVAL_TAPES
            for op, _, _ in expr.parse(text, n).ops}
    assert used == set(expr.OPCODES)


@pytest.mark.parametrize("text, n, sympy_expr", INTERVAL_TAPES,
                         ids=INTERVAL_IDS)
def test_point_box_contains_the_40_digit_value_and_hessian(
        text, n, sympy_expr):
    # Point boxes at one point and at a batch of four: the unchanged
    # Floats and Jets, run over intervals, enclose the value and the
    # Hessian that sympy gives at 40 digits.
    xs = sympy.symbols(f"x1:{n + 1}")
    value = sympy.lambdify(xs, sympy_expr, "mpmath")
    hessian = sympy.lambdify(xs, sympy.hessian(sympy_expr, xs), "mpmath")
    points = np.random.default_rng(47).uniform(0.25, 2.0, size=(4, n))
    tape = expr.parse(text, n)
    for rows in (points[:1], points):
        got, jet_value, hess = _run_intervals(tape,
                                              Intervals.box(rows, rows))
        for k, p in enumerate(rows):
            with mpmath.workdps(40):
                args = [mpmath.mpf(float(v)) for v in p]
                want, want_hess = value(*args), hessian(*args)
                assert want in got.data[k] and want in jet_value.data[k]
                for i in range(n):
                    for j in range(n):
                        assert want_hess[i, j] in hess.data[k, i, j], \
                            (text, p, i, j)


def _within(x, lo, hi, rel):
    """Every float of x lies in [lo, hi], widened by rel * |x|."""
    slack = rel * np.abs(x)
    return bool(np.all((lo - slack <= x) & (x <= hi + slack)))


@pytest.mark.parametrize("text, n, sympy_expr", INTERVAL_TAPES,
                         ids=INTERVAL_IDS)
def test_random_box_contains_every_sampled_value_and_hessian(
        text, n, sympy_expr):
    # Boxes in [0.25, 2]^n, one at a time and three in a batch; 20 float
    # points in each, their values and Hessians in float jets.
    rng = np.random.default_rng(53)
    tape = expr.parse(text, n)
    lo = rng.uniform(0.25, 1.5, size=(3, n))
    hi = lo + rng.uniform(0.0, 0.5, size=(3, n))
    for rows in (slice(0, 1), slice(0, 3)):
        got, jet_value, hess = _run_intervals(
            tape, Intervals.box(lo[rows], hi[rows]))
        bounds = [x.bounds() for x in (got, jet_value, hess)]
        for k in range(len(lo[rows])):
            samples = rng.uniform(lo[k], hi[k], size=(20, n))
            values = tape(samples)
            for (low, high), x in zip(bounds, (values, values,
                                               tape.hessians(samples))):
                assert _within(x, low[k], high[k], 1e-12), text
