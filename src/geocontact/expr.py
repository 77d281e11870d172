"""Small arithmetic expression language over the chart coordinates x1, x2, x3.

Grammar (binary '^' is right-associative; unary minus binds tighter than
the '^' of its base, i.e. ``-x1^2`` is ``(-x1)^2``):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | variable | func '(' expr ')' | '(' expr ')'

Numbers are decimal literals with an optional exponent. Variables are
exactly x1, x2, x3. Known functions: sin cos tan sinh cosh tanh exp log
sqrt abs.

ASTs are immutable; evaluation is pure. ``eval_scalar`` evaluates an
expression or an ``ExprTable`` at a single point or an (N, 3) batch of
points, ``eval_dual`` also returns exact first partial derivatives. Both
run compiled code: straight-line numpy source, generated on a table's first
evaluation. ``ExprTable.at_point`` runs a third, scalar program of the same
statements on the Python floats of one point, bit for bit the values of the
numpy program without its per-call array overhead. Programs are held by a
bounded per-process cache keyed by the table's content and mode, and
``parse`` is memoised, so a table rebuilt from the same sources reuses the
compiled code.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

VARIABLES = ("x1", "x2", "x3")
FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Num:
    value: float

    def _key(self):
        return self.value, math.copysign(1.0, self.value)

    def __eq__(self, other):  # tells 0.0 from -0.0, so caches keep them apart
        return self._key() == other._key() if isinstance(other, Num) else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class Var:
    name: str

    @property
    def index(self):
        return VARIABLES.index(self.name)


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Func:
    name: str
    arg: "ExprAst"


ExprAst = Num | Var | Neg | Bin | Func


def to_string(ast) -> str:
    """Canonical fully parenthesised rendering; reparses to an equal AST."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{to_string(ast.arg)})"
    if isinstance(ast, Bin):
        return f"({to_string(ast.lhs)} {ast.op} {to_string(ast.rhs)})"
    if isinstance(ast, Func):
        return f"{ast.name}({to_string(ast.arg)})"
    raise TypeError(f"not an expression node: {ast!r}")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'name' | one of + - * / ^ ( ) | 'end'
    text: str
    pos: int


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER.match(source, i)
        if m:
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        m = _NAME.match(source, i)
        if m:
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if c in _OPS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i,
                              expected=("number", "name") + tuple(_OPS))
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(f"unexpected {what}", tok.pos, expected=expected)

    def expect(self, kind):
        if self.peek().kind != kind:
            self.fail((kind,))
        return self.advance()

    def parse(self):
        ast = self.expr()
        if self.peek().kind != "end":
            self.fail(("end", "+", "-", "*", "/", "^"))
        return ast

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = Bin(op, node, self.factor())
        return node

    def factor(self):
        base = self.unary()
        if self.peek().kind == "^":
            self.advance()
            return Bin("^", base, self.factor())  # right-associative
        return base

    def unary(self):
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text in VARIABLES:
                return Var(tok.text)
            if tok.text in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Func(tok.text, arg)
            raise UnknownIdentifier(f"unknown identifier {tok.text!r}", tok.pos,
                                    expected=VARIABLES + FUNCTIONS)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        self.fail(("number", "name", "(", "-"))


@functools.lru_cache(maxsize=1024)
def parse(source: str) -> ExprAst:
    """Parse expression source into an immutable AST.

    Memoised: equal sources give the same (shared, immutable) AST objects.
    """
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------

class DualScalar:
    """Result of ``eval_dual``: values and their exact first partials.

    At an (N, 3) batch ``value`` has shape (N, *S) and ``partials`` shape
    (N, 3, *S) with partials[:, k] = d_k value, S the shape of the table
    (() for a single expression); a single point drops the leading axis, and
    a single expression at a single point has a float value.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = partials

    def __repr__(self):
        return f"DualScalar({self.value!r}, {self.partials!r})"


#: derivative of each function as source in its argument {0} and value {1};
#: None where the derivative is the value itself
_DERIVATIVE = {
    "sin": "cos({0})", "cos": "-sin({0})", "tan": "1.0 / cos({0}) ** 2",
    "sinh": "cosh({0})", "cosh": "sinh({0})", "tanh": "1.0 / cosh({0}) ** 2",
    "exp": None, "log": "1.0 / {0}", "sqrt": "0.5 / {1}", "abs": "sign({0})",
}

#: per comparison, whether a check fails at some row and, built only then, where;
#: the second is also the scalar mode's test of its one row
_CHECKS = {"==": ("not {0}.all()", "{0} == 0"), "<": ("({0} < 0).any()", "{0} < 0"),
           "<=": ("({0} <= 0).any()", "{0} <= 0")}


#: the scalar mode's Python functions, only where IEEE-754 fixes their bits:
#: a correctly rounded sqrt, abs, and x * x for power(x, 2). Each is total on
#: what its checks let through (sqrt: no negative), so none raises, as numpy
#: does not. Every other function is numpy's ufunc applied to the float.
_SCALAR_FUNCTIONS = {"sqrt": math.sqrt, "abs": abs,
                     "power": lambda x, n: x * x if n == 2.0 else np.power(x, n)}


def _domain_error(errors, i, mask, x1, x2, x3):
    """Raise the DomainError of check i, naming the point of the first row where
    ``mask`` holds (True: every row), or no point in an empty batch. x1-x3 are
    (N,) arrays, or the floats of one point in the scalar mode."""
    message, node = errors[i]
    rows = np.array([x1, x2, x3], dtype=float).reshape(3, -1)
    k = int(np.argmax(mask))
    raise DomainError(message, to_string(node), rows[:, k] if k < rows.shape[1] else None)


class _Unreachable(Exception):
    """A check on constants always fails: the code after it never runs."""


class _Codegen:
    """Straight-line source for a table, one statement per operation, in one
    of three modes: ``value``, ``dual`` or ``scalar``.

    Each distinct subexpression of the whole table is computed once, and
    subexpressions without a variable are folded to constants by running
    the same source on them with numpy's functions, in every mode. Operands
    are names in the generated code: ``x1``-``x3`` and temporaries ``t<i>``
    hold (N,) arrays, constants ``k<i>`` live in its namespace. In ``dual``
    a value that depends on a variable also carries its partials, an (N, 3)
    array or a constant (3,) vector. The operations, their order and the
    checks are those of dual-number arithmetic on (value, partials) pairs,
    dividing by a dual b as a * (1/b), and of plain arithmetic, dividing as
    a / b, in the other modes; so every value, partial and sign of zero is
    the one those give, and every DomainError names the same subexpression.

    ``scalar`` emits the statements and checks of ``value`` in the same
    order, on the Python floats of one point, and returns the table's values
    as a tuple in C order. Its namespace binds ``_SCALAR_FUNCTIONS`` over
    numpy's, so its results are the value program's bit for bit, inf and
    NaN included.
    """

    def __init__(self, mode):
        self.dual, self.scalar = mode == "dual", mode == "scalar"
        self.ns = {name: getattr(np, name) for name in FUNCTIONS + ("power", "sign")}
        self.errors = []  # (message, node) of each check
        self.ns["_fail"] = functools.partial(_domain_error, self.errors)
        self.statements = []  # (source, runtime names it reads)
        self.outputs = {}     # scalar mode: slot -> the operand it returns
        self.memo = {}        # subexpression -> (value, partials or None)
        self.temps = 0

    def const(self, value):
        name = f"k{len(self.ns)}"
        self.ns[name] = value
        return name

    def op(self, template, *args):
        """template applied to the operands; folded when they are all constants."""
        src = template.format(*args)
        if all(a[0] == "k" for a in args):
            return self.const(eval(src, self.ns))
        name = f"t{self.temps}"
        self.temps += 1
        self.statements.append((f"{name} = {src}", args))
        return name

    def check(self, cmp, operand, message, node):
        """Raise DomainError(message) where ``operand cmp 0`` at some row,
        naming the first such row's point."""
        fails, where = _CHECKS[cmp]
        error = f"_fail({len(self.errors)}, {{}}, x1, x2, x3)"
        self.errors.append((message, node))
        if operand[0] != "k":
            test, rows = (where, "True") if self.scalar else (fails, where)
            self.statements.append((f"if {test.format(operand)}: "
                                    + error.format(rows.format(operand)), [operand]))
        elif eval(fails.format("v"), {"v": np.asarray(self.ns[operand])}):
            self.statements.append((error.format("True"), []))
            raise _Unreachable

    def scale(self, factor, partials):
        return self.op("{0}[:, None] * {1}", factor, partials)

    def visit(self, node):
        hit = self.memo.get(node)
        if hit is None:
            hit = self.memo[node] = self._visit(node)
        return hit

    def _visit(self, node):
        if isinstance(node, Num):
            return self.const(node.value), None
        if isinstance(node, Var):
            return node.name, self.const(np.eye(3)[node.index]) if self.dual else None
        if isinstance(node, Neg):
            v, p = self.visit(node.arg)
            return self.op("-{0}", v), None if p is None else self.op("-{0}", p)
        if isinstance(node, Func):
            v, p = self.visit(node.arg)
            if node.name == "log":
                self.check("<=", v, "log of a non-positive value", node)
            elif node.name == "sqrt":
                self.check("<", v, "sqrt of a negative value", node)
                if p is not None:
                    self.check("==", v, "sqrt derivative at zero", node)
            return self.func(node.name, v, p)
        if isinstance(node, Bin):
            a, pa = self.visit(node.lhs)
            b, pb = self.visit(node.rhs)
            if node.op == "^":
                return self.power(a, pa, b, pb, node)
            if node.op == "/":
                self.check("==", b, "division by zero", node)
            if pa is None and pb is None:
                return self.op("{0} %s {1}" % node.op, a, b), None
            if node.op == "*":
                return self.mul(a, pa, b, pb)
            if node.op == "/":
                return self.div(a, pa, b, pb)
            if pa is None:  # constant +/- dual
                return (self.op("{0} + {1}", b, a), pb) if node.op == "+" else \
                    (self.op("{0} - {1}", a, b), self.op("-{0}", pb))
            return self.op("{0} %s {1}" % node.op, a, b), \
                pa if pb is None else self.op("{0} %s {1}" % node.op, pa, pb)
        raise TypeError(f"not an expression node: {node!r}")

    def func(self, name, v, p):
        f = self.op(name + "({0})", v)
        if p is None:
            return f, None
        d = f if _DERIVATIVE[name] is None else self.op(_DERIVATIVE[name], v, f)
        return f, self.scale(d, p)

    def mul(self, a, pa, b, pb):
        if pa is None and pb is None:
            return self.op("{0} * {1}", a, b), None
        if pa is None:  # constant * dual
            return self.op("{0} * {1}", b, a), self.op("{0} * {1}", a, pb)
        if pb is None:
            return self.op("{0} * {1}", a, b), self.op("{0} * {1}", b, pa)
        return self.op("{0} * {1}", a, b), \
            self.op("{0}[:, None] * {1} + {2}[:, None] * {3}", b, pa, a, pb)

    def div(self, a, pa, b, pb):
        if pb is None:
            return self.op("{0} / {1}", a, b), self.op("{0} / {1}", pa, b)
        inv = self.op("1.0 / {0}", b)
        if pa is None:
            return self.op("{0} * {1}", a, inv), \
                self.op("(-{0} * {1} * {1})[:, None] * {2}", a, inv, pb)
        q = self.op("{0} * {1}", a, inv)
        return q, self.op("{0}[:, None] * {1} - ({2} * {0})[:, None] * {3}", inv, pa, q, pb)

    def power(self, a, pa, b, pb, node):
        if b[0] == "k" and float(self.ns[b]).is_integer():
            n = int(self.ns[b])
            if n == 0:
                return self.const(1.0), None
            if n < 0:
                self.check("==", a, "zero base with negative exponent", node)
            if pa is None:
                return self.op("power({0}, %r)" % float(n), a), None
            return self.op("power({0}, %d)" % n, a), \
                self.scale(self.op("%d * power({0}, %d)" % (n, n - 1), a), pa)
        # general case via exp(e * log(b)): base must be strictly positive
        self.check("<=", a, "non-integer power of a non-positive base", node)
        return self.func("exp", *self.mul(b, pb, *self.func("log", a, pa)))

    def store(self, slot, value, partials):
        if self.scalar:
            self.outputs[slot] = value
            return
        at = "".join(f", {i}" for i in slot)
        self.statements.append((f"out[:{at}] = {value}", [value]))
        if self.dual:
            partials = partials or "0.0"
            self.statements.append((f"d[:, :{at}] = {partials}", [partials]))

    def source(self):
        """The function's source, each temporary array deleted after its last
        use; the scalar mode's floats stay until it returns them."""
        if self.scalar:
            outputs = "".join(f"{self.outputs[slot]}, " for slot in sorted(self.outputs))
            return "".join(["def table(x1, x2, x3):\n"]
                           + [f"    {src}\n" for src, _ in self.statements]
                           + [f"    return ({outputs})\n"])
        last = {}
        for i, (_, reads) in enumerate(self.statements):
            for name in reads:
                last[name] = i
        dead = {}
        for name, i in last.items():
            if name[0] == "t":
                dead.setdefault(i, []).append(name)
        lines = ["def table(x1, x2, x3, out, d):"]
        for i, (src, _) in enumerate(self.statements):
            lines.append("    " + src)
            if i in dead:
                lines.append("    del " + ", ".join(dead[i]))
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=256)
def _compile(groups, mode):
    """Compile a table to a function (x1, x2, x3, out, d) filling out (and d),
    or in the scalar mode (x1, x2, x3) returning the values.

    Keyed by the table's content and the mode, so equal tables share one
    program, held by this bounded per-process cache rather than by any table.
    """
    gen = _Codegen(mode)
    try:
        for ast, slots in groups:
            value, partials = gen.visit(ast)
            for slot in slots:
                gen.store(slot, value, partials)
    except _Unreachable:
        pass
    if gen.scalar:  # Python floats for the folded constants and Python's functions
        gen.ns.update({k: float(v) for k, v in gen.ns.items() if k[0] == "k"})
        gen.ns.update(_SCALAR_FUNCTIONS)
    exec(compile(gen.source(), "<expr table>", "exec"), gen.ns)
    return gen.ns.pop("table")  # no cycle through its globals: freed on eviction


@functools.lru_cache(maxsize=256)
def _table_of(ast):
    return ExprTable.of(ast)


def _run(source, p, dual):
    table = source if isinstance(source, ExprTable) else _table_of(source)
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (3,) or (N, 3)")
    out = np.empty(pts.shape[:1] + table.shape)
    d = np.empty(pts.shape[:1] + (3,) + table.shape) if dual else None
    table._program("dual" if dual else "value")(pts[:, 0], pts[:, 1], pts[:, 2], out, d)
    if single:
        out = out[0] if table.shape else float(out[0])
    if d is None:
        return out
    return DualScalar(out, d[0] if single else d)


def eval_scalar(source, p):
    """Values of an expression or an ``ExprTable`` at a point (3,) or a batch (N, 3).

    A single expression gives a float at a point and (N,) at a batch; a
    table of shape S gives (*S) and (N, *S).
    """
    return _run(source, p, dual=False)


def eval_dual(source, p) -> DualScalar:
    """Values and exact first partials of an expression or an ``ExprTable``.

    See ``DualScalar`` for the shapes.
    """
    return _run(source, p, dual=True)


# ---------------------------------------------------------------------------
# Expression tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExprTable:
    """Chart data given by a (), (3,) or (3, 3) table of expressions.

    ``groups`` pairs each distinct AST with the index tuples of its slots,
    found once when the table is built. The table is compiled on its first
    evaluation in each mode: numpy source for values and for values with
    partials, and Python-float source for the values at one point
    (``at_point``). Repeated entries and shared subexpressions are computed
    once. The programs come from a bounded per-process cache keyed by
    (groups, mode), whose slots fix the shape, so equal tables compile once
    per process; ``_programs`` keeps this table's for a lookup without hashing.
    """

    shape: tuple
    groups: tuple  # ((ast, (slot, ...)), ...)
    _programs: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, asts):
        """Table of an AST or a (3,) or (3, 3) nested sequence of ASTs."""
        cells = np.array(asts, dtype=object)
        groups = {}
        for slot in np.ndindex(cells.shape):
            groups.setdefault(cells[slot], []).append(slot)
        return cls(cells.shape, tuple((ast, tuple(slots)) for ast, slots in groups.items()))

    def _program(self, mode):
        """The compiled function of a mode, taken from the process cache on first use."""
        fn = self._programs.get(mode)
        if fn is None:
            fn = self._programs[mode] = _compile(self.groups, mode)
        return fn

    def evaluate(self, pts):
        """Values of the table at an (N, 3) batch, shape (N, *shape)."""
        return eval_scalar(self, pts)

    def at_point(self, x1, x2, x3):
        """Values of the table at the point (x1, x2, x3) of floats, a tuple in
        C order, from the scalar program: those of ``evaluate`` at that one
        row, bit for bit, and the same DomainError where it raises."""
        return self._program("scalar")(x1, x2, x3)
