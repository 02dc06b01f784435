"""Operator-precedence parser that compiles textual integrands to a tape.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?  # -a^b is -(a^b)
    base   := number | var | func '(' expr ')' | '(' expr ')'
    var    := 'x' digits                  # 1-indexed

Functions: exp, sin, cos, log, sqrt. Parentheses, calls and unary
minuses nest to any depth, wherever parse is called: the parser does
not recurse. Its single pass emits a Tape: one instruction (opcode,
argument slots, operand) per slot, in evaluation order, and the float
constants. A sub-expression without a variable is folded into a
constant as it is parsed, by the float arithmetic, so it has the bits
evaluation would give it; a power with a constant exponent becomes
"powc", which carries the exponent.

The instructions make the tape's skeleton: an operand is a variable's
index, or for "const" and "powc" the index of the instruction's float
constant, so every tape of one shape has the same skeleton, whatever
its constants. Equal skeletons are shared through a bounded cache, and
a tape holds its skeleton, a tuple of its constants and its text: a
quadratic in four variables (15 constants) takes about 1.7 KB under
tracemalloc, 440 bytes of it text.

A tape runs as one straight-line Python function, tape.program, that
reads each variable it uses once and then makes one statement, a call
to an arithmetic's method, per other instruction; an arithmetic is an
object with one method per opcode. Floats evaluates at a batch (m, n)
of points: a value is an array (m,), or at one point (1, n) an
np.float64, so a one-point call (a midpoint certificate's barycenter)
makes no array per instruction. Numpy rounds its scalars as its arrays,
so a point's value has the same bits in either form, NaN payloads
aside (a NaN never reaches an output: field raises on it). Jets
carries second-order forward-mode jets (value, gradient, Hessian)
through the tape, exact up to rounding (Griewank & Walther, Evaluating
Derivatives, 2nd ed., SIAM 2008, ch. 13). Both run over any value type
of points that numpy's operators and the opcodes' ufuncs (np.exp, sin,
cos, log, sqrt, power) accept, through __array_ufunc__ if not floats,
and that has shape, T, len, swapaxes and indexing (x[0], x[:, i],
x[..., None]): the tests run them over mpmath.iv intervals. The tape
is a postorder tree, so an instruction's arguments are the top entries
of an evaluation stack. Each value is stored in the local named by its
depth among the stack's values that are not variable reads, so a dead
value is overwritten once the stack grows over it again, and a deep
nest costs what a flat chain of as many instructions costs. The
function's source depends only on the skeleton, so it is compiled once
per skeleton (about 10-20 us an instruction) and cached; a tape binds
it to its constants on first evaluation, and the function reads
constant k as c[k], never from text. A tape keeps the text it was
parsed from, and str(tape) returns it; equality compares the skeleton
and the constants only, so parse(str(tape), n) == tape.
"""

from __future__ import annotations

import functools
import operator
import re
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import ArityError, ParseError

FUNCTIONS = ("exp", "sin", "cos", "log", "sqrt")
OPCODES = ("const", "var", "neg", "add", "sub", "mul", "div", "pow",
           "powc") + FUNCTIONS

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
      | (?P<bad>\S)
    )
""", re.VERBOSE)


@dataclass(frozen=True)
class Tape:
    """A parsed expression. ``skeleton`` holds one (opcode, argument
    slots, operand) instruction per slot, the last slot the result; the
    operand is a variable's index, the index in ``constants`` of a
    "const" or "powc" instruction's float, or None. ``text`` is the
    source, which str() returns; equality ignores it.

    Calling a tape evaluates its program, one value (m,) per row of
    points (m, n); ``hessians`` runs it in jets. The program is built
    on first use and is not part of the pickled state.
    """

    skeleton: tuple
    constants: tuple = ()
    text: str = field(default="", compare=False)

    def __call__(self, points):
        """The value (m,) at each row of points (m, n): the program in
        Floats, whose value is an array, or a scalar at one point or for
        a constant tape."""
        value = self.program(Floats(points))
        if isinstance(value, np.ndarray):
            return value
        if len(points) == 1:  # np.array takes half np.full's time
            return np.array([value], dtype=float)
        return np.full(len(points), value)

    def hessians(self, points):
        """Hessian (m, n, n) at each row of points (m, n), exact up to
        rounding; an entry is not finite where a derivative is not."""
        hess = self.program(Jets(points))[2]
        shape = points.shape + points.shape[-1:]
        return np.zeros(shape) if hess is None \
            else np.broadcast_to(hess, shape)

    @property
    def ops(self):
        """(opcode, argument slots, constant) per slot: the skeleton
        with each float operand in place of its index."""
        c = self.constants
        return tuple((op, args, c[k] if op in ("const", "powc") else k)
                     for op, args, k in self.skeleton)

    @functools.cached_property
    def program(self):
        """program(arith), the value of the last slot in an arithmetic:
        the compiled code of the skeleton, bound to the constants."""
        return types.MethodType(_compiled(self.skeleton), self.constants)

    def __getstate__(self):  # a generated function does not pickle
        return {"skeleton": self.skeleton, "constants": self.constants,
                "text": self.text}

    def __str__(self):
        return self.text


def _source(skeleton):
    """The text of ``program(c, a)``: ``x<i> = a.var(<i>)`` for each
    variable i the tape uses, then ``s<d> = a.<opcode>(<operands>)`` for
    each other instruction, d its result's depth on the stack, with
    float constant k read as ``c[k]``."""
    variables = sorted({i for op, _, i in skeleton if op == "var"})
    lines = [f"    x{i:d} = a.var({i:d})" for i in variables]
    names, depth = [], 0
    for op, args, operand in skeleton:
        if op not in OPCODES:
            raise ValueError(f"unknown opcode {op!r}")
        if op == "var":
            names.append(f"x{operand:d}")
            continue
        operands = [names[i] for i in args]
        depth -= sum(name[0] == "s" for name in operands)
        if operand is not None:
            operands.append(f"c[{operand:d}]")
        names.append(f"s{depth}")
        lines.append(f"    s{depth} = a.{op}({', '.join(operands)})")
        depth += 1
    return "\n".join(["def program(c, a):", *lines,
                      f"    return {names[-1]}\n"])


@functools.lru_cache(maxsize=64)
def _shared(skeleton):
    """The cached skeleton equal to this one, so that the tapes of one
    shape hold one skeleton: the cache is bounded, like _compiled's."""
    return skeleton


@functools.lru_cache(maxsize=64)
def _compiled(skeleton):
    """The function of _source(skeleton), compiled once and shared by
    every tape of that skeleton, so a text parsed again is not compiled
    again."""
    namespace = {"__builtins__": {}}
    exec(_source(skeleton), namespace)
    return namespace["program"]


def _pow(a, b):
    """a^b with b a variable: np.power at a scalar exponent of -1, 0,
    0.5, 1 or 2 takes a short cut (pow(-0., 0.5) is -0., not 0.), so an
    np.float64 exponent, a variable's at one point, goes in as an array,
    as at a batch."""
    if type(b) is np.float64:
        return np.power(a, np.array([b]))[0]
    return np.power(a, b)


class Floats:
    """A slot holds a float if constant, else an array (m,) of one value
    per point of a batch (m, n), or at one point (1, n) an np.float64.
    Numpy's scalars round as its arrays do and follow np.errstate, so
    1/0 is inf, never ZeroDivisionError."""

    __slots__ = ("columns",)

    def __init__(self, points):
        self.columns = points[0] if len(points) == 1 else points.T

    const = staticmethod(float)  # a float itself, with no Python frame

    def var(self, i):
        return self.columns[i]

    neg = staticmethod(operator.neg)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    div = staticmethod(operator.truediv)
    pow = staticmethod(_pow)
    powc = staticmethod(np.power)
    exp = staticmethod(np.exp)
    sin = staticmethod(np.sin)
    cos = staticmethod(np.cos)
    log = staticmethod(np.log)
    sqrt = staticmethod(np.sqrt)


# In a jet, None stands for a gradient or Hessian that is exactly zero,
# so the affine parts of an expression cost no (m, n, n) work.

def _plus(x, y):
    return y if x is None else x if y is None else x + y


def _grad(f, g):
    """A value per point times a gradient."""
    return None if f is None or g is None else f[..., None] * g


def _hess(f, h):
    """A value per point times a Hessian."""
    return None if f is None or h is None else f[..., None, None] * h


def _sym_outer(g, k):
    """g k^T + k g^T, symmetric bit for bit."""
    if g is None or k is None:
        return None
    cross = g[..., :, None] * k[..., None, :]
    return cross + np.swapaxes(cross, -1, -2)


def _chain(a, f0, f1, f2):
    """Jet of phi(a), given phi, phi' and phi'' at the value of a (None
    for an exact zero)."""
    _, g, h = a
    curvature = None if g is None or f2 is None else _hess(
        f2, g[..., :, None] * g[..., None, :])
    return f0, _grad(f1, g), _plus(_hess(f1, h), curvature)


def _unary(phi, derivatives):
    """The jet rule of phi, as a static method: derivatives(u, phi(u))
    gives phi'(u) and phi''(u) (None for an exact zero)."""
    def rule(a):
        value = phi(a[0])
        return _chain(a, value, *derivatives(a[0], value))
    return staticmethod(rule)


class Jets:
    """A slot holds (value, gradient, Hessian) at a batch of points (m, n),
    of shapes (m,), (m, n), (m, n, n). A constant has shape () and a
    variable's gradient shape (n,); they broadcast."""

    __slots__ = ("points", "eye")

    def __init__(self, points):
        self.points = points
        self.eye = np.eye(points.shape[-1])

    @staticmethod
    def const(c):
        return np.float64(c), None, None

    def var(self, i):
        return self.points[:, i], self.eye[i], None

    neg = _unary(operator.neg, lambda u, v: (np.float64(-1.0), None))
    exp = _unary(np.exp, lambda u, e: (e, e))
    sin = _unary(np.sin, lambda u, s: (np.cos(u), -s))
    cos = _unary(np.cos, lambda u, c: (-np.sin(u), -c))
    log = _unary(np.log, lambda u, v: (r := 1.0 / u, -r * r))
    sqrt = _unary(np.sqrt, lambda u, r: (d := 0.5 / r, -0.5 * d / u))
    _reciprocal = _unary(lambda u: 1.0 / u,
                         lambda u, r: (-r * r, 2.0 * r * r * r))

    @staticmethod
    def add(a, b):
        return a[0] + b[0], _plus(a[1], b[1]), _plus(a[2], b[2])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    @staticmethod
    def mul(a, b):
        (u, du, hu), (v, dv, hv) = a, b
        return (u * v, _plus(_grad(u, dv), _grad(v, du)),
                _plus(_plus(_hess(u, hv), _hess(v, hu)), _sym_outer(du, dv)))

    def div(self, a, b):
        return self.mul(a, self._reciprocal(b))

    @staticmethod
    def powc(a, c):
        """a^c for a constant c. A factor c or c - 1 that vanishes drops
        its term, so that x^0 and x^1 have exact, finite derivatives at
        x = 0 (not 0 * inf)."""
        u = a[0]
        f1 = c * np.power(u, c - 1) if c != 0 else None
        f2 = c * (c - 1) * np.power(u, c - 2) if c not in (0, 1) else None
        return _chain(a, np.power(u, c), f1, f2)

    def pow(self, a, b):
        return self.exp(self.mul(b, self.log(a)))


def _tokens(text):
    """(kind, text, position) of each token, then ("end", "", len(text))."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind, pos = match.lastgroup, match.start(match.lastgroup)
        if kind == "bad":
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}",
                             position=pos)
        tokens.append((kind, match.group(kind), pos))
    tokens.append(("end", "", len(text)))
    return tokens


def _expected(value, token):
    """The ParseError for ``token`` where ``value`` was needed."""
    kind, text, pos = token
    shown = text if kind != "end" else "end of input"
    return ParseError(f"expected {value!r}, found {shown} at {pos}",
                      position=pos, expected=(value,))


_VAR_RE = re.compile(r"x(\d+)")
# Binary operators: opcode, precedence, and the lowest precedence of a
# pending operator applied before it. A unary minus binds between '*'
# and '^', so -a*b is (-a)*b and -a^b is -(a^b); '^' alone groups to the
# right, so a pending '^' waits for the next.
_BINARY = {"+": ("add", 1, 1), "-": ("sub", 1, 1), "*": ("mul", 2, 2),
           "/": ("div", 2, 2), "^": ("pow", 4, 5)}
_NEG = ("neg", 3)


class _Compiler:
    """Parses and emits the tape in one pass over the tokens. An operand
    is a slot (int) or, for a sub-expression without a variable, its
    value (float).

    The grammar is read by operator precedence (shunting-yard): operands
    wait in one list and operators in another, and an operator is
    applied once no later one binds tighter, so instructions are emitted
    in postorder, as recursive descent would emit them. A pending '(' or
    function call has precedence 0, so no operator is applied past it.
    """

    def __init__(self, n):
        self.n = n
        self.skeleton = []
        self.constants = []
        self.operands = []
        self.pending = []  # (opcode, precedence); '(' or a function: 0

    def emit(self, op, args=(), operand=None):
        self.skeleton.append((op, args, operand))
        return len(self.skeleton) - 1

    def emit_float(self, op, args, value):
        """Emit an instruction whose operand is the float value."""
        self.constants.append(value)
        return self.emit(op, args, len(self.constants) - 1)

    def slot(self, operand):
        return self.emit_float("const", (), operand) \
            if isinstance(operand, float) else operand

    def apply(self, op, *operands):
        if int not in map(type, operands):  # no slot: fold
            # A constant exponent is a scalar, as in powc.
            fold = getattr(Floats, "powc" if op == "pow" else op)
            return float(fold(*map(np.float64, operands)))
        if op == "pow" and isinstance(operands[1], float):
            return self.emit_float("powc", (operands[0],), operands[1])
        return self.emit(op, tuple(map(self.slot, operands)))

    def reduce(self, precedence):
        """Apply the pending operators that bind at least this tightly."""
        pending, operands = self.pending, self.operands
        while pending and pending[-1][1] >= precedence:
            op, _ = pending.pop()
            if op == "neg":
                operands.append(self.apply(op, operands.pop()))
            else:
                right = operands.pop()
                operands.append(self.apply(op, operands.pop(), right))

    def compile(self, tokens):
        """The slot (or folded value) of the whole expression."""
        tokens, pending, operands = iter(tokens), self.pending, self.operands
        groups = 0
        while True:
            # An operand: its unary minuses and opening brackets, then a
            # number or a variable.
            kind, text, pos = next(tokens)
            if text == "-":
                pending.append(_NEG)
                continue
            if text == "(" or text in FUNCTIONS:
                if text != "(":
                    token = next(tokens)
                    if token[1] != "(":
                        raise _expected("(", token)
                pending.append((text, 0))
                groups += 1
                continue
            operands.append(float(text) if kind == "number"
                            else self.variable(kind, text, pos))
            # Closing brackets, then an operator or the end.
            while True:
                token = next(tokens)
                kind, text, pos = token
                binary = _BINARY.get(text)
                if binary:
                    op, precedence, bound = binary
                    if pending and pending[-1][1] >= bound:
                        self.reduce(bound)
                    pending.append((op, precedence))
                    break
                if groups == 0:
                    if kind != "end":
                        raise ParseError(
                            f"unexpected trailing input {text!r} at {pos}",
                            position=pos, expected=("end of input",))
                    self.reduce(0)
                    return operands.pop()
                if text != ")":
                    raise _expected(")", token)
                self.reduce(1)
                name = pending.pop()[0]
                groups -= 1
                if name != "(":
                    operands.append(self.apply(name, operands.pop()))

    def variable(self, kind, text, pos):
        """The slot of the variable that the token already read names."""
        match = _VAR_RE.fullmatch(text) if kind == "ident" else None
        if match:
            index = int(match.group(1))
            if not 1 <= index <= self.n:
                raise ArityError(f"variable {text} outside x1..x{self.n}")
            return self.emit("var", operand=index - 1)
        if kind == "ident":
            raise ParseError(
                f"unknown identifier {text!r} at {pos}", position=pos,
                expected=tuple(sorted(FUNCTIONS)) + ("x<i>",))
        shown = text if kind != "end" else "end of input"
        raise ParseError(
            f"expected a value, found {shown} at {pos}", position=pos,
            expected=("number", "variable", "function", "(", "-"))


def parse(text, n):
    """Compile ``text`` over variables x1..xn into a Tape."""
    compiler = _Compiler(n)
    with np.errstate(all="ignore"):  # a folded 1/0 is inf, as evaluated
        compiler.slot(compiler.compile(_tokens(text)))
    return Tape(_shared(tuple(compiler.skeleton)), tuple(compiler.constants),
                text)
