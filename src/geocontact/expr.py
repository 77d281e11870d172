"""Small arithmetic expression language over the chart coordinates x1, x2, x3.

Grammar (binary '^' is right-associative; ``-x1^2`` is an ExprSyntaxError at
the minus, as the base of '^' takes no bare unary minus: write ``(-x1)^2`` or
``-(x1^2)``):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' unary | atom ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | variable | func '(' expr ')' | '(' expr ')'

Numbers are decimal literals with an optional exponent. Variables are
exactly x1, x2, x3. Known functions: sin cos tan sinh cosh tanh exp log
sqrt abs.

ASTs are immutable; evaluation is pure. ``eval_scalar`` evaluates an
expression or an ``ExprTable`` at a point or an (N, 3) batch (``as_points``,
the one point normaliser); ``eval_dual`` also returns exact first partials,
the values of the table's differentiated ASTs (``_derivative``). Both run
straight-line numpy source from one value code generator, made on a table's
first evaluation; ``ExprTable.at_point`` runs the same statements on the
Python floats of one point, bit for bit. Programs are held by a bounded
per-process cache keyed by the table's content and mode, and ``parse`` is
memoised, so a table rebuilt from the same sources reuses the compiled code.
"""

from __future__ import annotations

import functools
import itertools
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


class _Node:
    """Base of the nodes with a subexpression: equality by class and fields, and a
    hash computed once, when the node is built. A node never changes and each child
    keeps its own hash, so a dict lookup (``parse``'s, ``_derivative``'s and the
    compiler's memos, a table's groups) hashes no subtree."""

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((type(self).__name__, *self._fields())))

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (self._hash == other._hash and self._fields() == other._fields())

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, eq=False)
class Neg(_Node):
    arg: "ExprAst"


@dataclass(frozen=True, eq=False)
class Bin(_Node):
    op: str  # one of + - * / ^
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True, eq=False)
class Func(_Node):
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

#: a token after any whitespace; the group it matches names its kind
_TOKEN = re.compile(r"\s*(?:(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<end>\Z))")
_OPS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'name' | one of + - * / ^ ( ) | 'end'
    text: str
    pos: int


def _tokenize(source: str):
    tokens, i = [], 0
    while not tokens or tokens[-1].kind != "end":
        m = _TOKEN.match(source, i)
        if m is None:
            i = len(source) - len(source[i:].lstrip())
            raise ExprSyntaxError(f"unexpected character {source[i]!r}", i,
                                  expected=("number", "name") + tuple(_OPS))
        kind = m.lastgroup
        tokens.append(_Token(m[kind] if kind == "op" else kind, m[kind], m.start(kind)))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, source: str):
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
        start = self.peek()
        base = self.unary()
        if self.peek().kind == "^":
            if start.kind == "-":  # -a^b: write (-a)^b or -(a^b)
                raise ExprSyntaxError("a negated base needs parentheses before '^'",
                                      start.pos, expected=("(",))
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
# Exact partials: differentiated ASTs
# ---------------------------------------------------------------------------

_ZERO, _ONE = Num(0.0), Num(1.0)

#: each function's derivative as an AST in its argument u (``sign``, of ``abs``, is internal)
_CHAIN = {"sin": lambda u: Func("cos", u), "cos": lambda u: Neg(Func("sin", u)),
          "tan": lambda u: Bin("/", _ONE, Bin("^", Func("cos", u), Num(2.0))),
          "sinh": lambda u: Func("cosh", u), "cosh": lambda u: Func("sinh", u),
          "tanh": lambda u: Bin("/", _ONE, Bin("^", Func("cosh", u), Num(2.0))),
          "exp": lambda u: Func("exp", u), "log": lambda u: Bin("/", _ONE, u),
          "sqrt": lambda u: Bin("/", Num(0.5), Func("sqrt", u)),
          "abs": lambda u: Func("sign", u), "sign": lambda u: _ZERO}


def _op(op, a, b):
    """Bin(op, a, b) with its 0 and 1 operands folded away."""
    if (op == "*" and b == _ZERO) or (op in "*/" and a == _ZERO):
        return _ZERO
    if (op in "+-" and b == _ZERO) or (op in "*/^" and b == _ONE):
        return a
    if (op == "+" and a == _ZERO) or (op == "*" and a == _ONE):
        return b
    return Neg(b) if op == "-" and a == _ZERO else Bin(op, a, b)


def _constant(node):
    """The float an AST folds to as the compiler folds it, or None if it has a variable."""
    gen = _Codegen(False)
    try:
        operand = gen.visit(node)
    except _Unreachable:
        return None
    return float(gen.ns[operand]) if operand[0] == "k" else None


@functools.lru_cache(maxsize=4096)
def _derivative(node, k):
    """The partial of an AST by x<k+1>, an AST with its 0 and 1 operands
    folded away. Memoised: equal (node, k) give the same AST objects."""
    if isinstance(node, Num):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == VARIABLES[k] else _ZERO
    if isinstance(node, Neg):
        return _op("-", _ZERO, _derivative(node.arg, k))
    if isinstance(node, Func):
        return _op("*", _CHAIN[node.name](node.arg), _derivative(node.arg, k))
    a, b, op = node.lhs, node.rhs, node.op
    da, db = _derivative(a, k), _derivative(b, k)
    if op in "+-":
        return _op(op, da, db)
    if op == "*":
        return _op("+", _op("*", da, b), _op("*", a, db))
    if op == "/":
        return _op("-", _op("/", da, b), _op("*", _op("/", node, b), db))
    n = _constant(b)
    if n is not None and n.is_integer():  # n a^(n-1) a', which holds at a = 0
        return _op("*", _op("*", b, _op("^", a, Num(n - 1.0))), da)
    # a^b (b' log a + b a'/a), where a > 0
    return _op("*", node, _op("+", _op("*", db, Func("log", a)), _op("*", b, _op("/", da, a))))


#: the sorted multi-indices of the partials in ``higher_partials``' rows: the 6
#: second partials d_a d_b, a <= b, then the 10 third partials d_a d_b d_c, a <= b <= c
HIGHER_PARTIALS = (tuple(itertools.combinations_with_replacement(range(3), 2))
                   + tuple(itertools.combinations_with_replacement(range(3), 3)))


@functools.lru_cache(maxsize=64)
def _higher_partials(groups, shape):
    cells = np.empty((len(HIGHER_PARTIALS),) + shape, dtype=object)
    for ast, slots in groups:
        second = {k: _derivative(_derivative(ast, k[0]), k[1]) for k in HIGHER_PARTIALS[:6]}
        column = [second[k] if len(k) == 2 else _derivative(second[k[:2]], k[2])
                  for k in HIGHER_PARTIALS]
        for slot in slots:
            cells[(slice(None),) + slot] = column
    return ExprTable.of(cells)


def higher_partials(table):
    """The second and third partials of a table as one table of shape (16, *S):
    row r holds the partial by the axes HIGHER_PARTIALS[r], each the table's
    ASTs differentiated by ``_derivative``. One program computes the second
    partials' subexpressions once for both orders. Built on first request and
    memoised by the table's content, so it and its compiled program are made
    once per distinct table per process, and never when a table is built."""
    return _higher_partials(table.groups, table.shape)


def _jet_groups(groups):
    """The groups of a table's jet, the (4,) + shape table of its values and
    their partials by x1, x2, x3; values first, so their checks run first, and
    no +0.0 partial, which the zeroed buffer of ``_run`` holds."""
    jet = {}
    for k in range(4):
        for ast, slots in groups:
            node = ast if k == 0 else _derivative(ast, k - 1)
            if k == 0 or node != _ZERO:
                jet.setdefault(node, []).extend((k,) + slot for slot in slots)
    return tuple((node, tuple(slots)) for node, slots in jet.items())


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------

class DualScalar:
    """Result of ``eval_dual``: values and their exact first partials.

    At an (N, 3) batch ``value`` has shape (N, *S) and ``partials`` shape
    (N, 3, *S) with partials[:, k] = d_k value, S the shape of the table
    (() for a single expression); a single point drops the leading axis, and
    a single expression at a single point has a float value.

    Both are component-major: views of arrays (*S, N) and (3, *S, N), so each
    component, value[:, i, j] or partials[:, k, i, j], is one contiguous (N,)
    row. ``value`` is a copy that does not pin the partials.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = partials

    def __repr__(self):
        return f"DualScalar({self.value!r}, {self.partials!r})"


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
    of two modes: ``value`` or ``scalar``.

    Each distinct subexpression of the whole table is computed once, and
    subexpressions without a variable are folded to constants by running
    the same source on them with numpy's functions, in both modes. Operands
    are names in the generated code: ``x1``-``x3`` and temporaries ``t<i>``
    hold (N,) arrays, constants ``k<i>`` live in its namespace. Partials
    are no mode: they are values of a differentiated table (``_jet_groups``).

    ``scalar`` emits the statements and checks of ``value`` in the same
    order, on the Python floats of one point, and returns the table's values
    as a tuple in C order. Its namespace binds ``_SCALAR_FUNCTIONS`` over
    numpy's, so its results are the value program's bit for bit, inf and
    NaN included.
    """

    def __init__(self, scalar):
        self.scalar = scalar
        self.ns = {name: getattr(np, name) for name in FUNCTIONS + ("power", "sign")}
        self.errors = []  # (message, node) of each check
        self.ns["_fail"] = functools.partial(_domain_error, self.errors)
        self.statements = []  # (source, runtime names it reads)
        self.outputs = {}     # scalar mode: slot -> the operand it returns
        self.memo = {}        # subexpression -> its operand
        self.checked = set()  # (comparison, operand) of each check emitted
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
        naming the first such row's point. A check already emitted is skipped:
        every operand is assigned once, so the earlier one would fire first."""
        if (cmp, operand) in self.checked:
            return
        self.checked.add((cmp, operand))
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

    def visit(self, node):
        hit = self.memo.get(node)
        if hit is None:
            hit = self.memo[node] = self._visit(node)
        return hit

    def _visit(self, node):
        if isinstance(node, Num):
            return self.const(node.value)
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Neg):
            return self.op("-{0}", self.visit(node.arg))
        if isinstance(node, Func):
            v = self.visit(node.arg)
            if node.name == "log":
                self.check("<=", v, "log of a non-positive value", node)
            elif node.name == "sqrt":
                self.check("<", v, "sqrt of a negative value", node)
            return self.op(node.name + "({0})", v)
        if isinstance(node, Bin):
            a, b = self.visit(node.lhs), self.visit(node.rhs)
            if node.op == "^":
                return self.power(a, b, node)
            if node.op == "/":
                self.check("==", b, "division by zero", node)
            return self.op("{0} %s {1}" % node.op, a, b)
        raise TypeError(f"not an expression node: {node!r}")

    def power(self, a, b, node):
        if b[0] == "k" and float(self.ns[b]).is_integer():
            n = int(self.ns[b])
            if n == 0:
                return self.const(1.0)
            if n < 0:
                self.check("==", a, "zero base with negative exponent", node)
            return self.op("power({0}, %r)" % float(n), a)
        # general case via exp(e * log(b)): base must be strictly positive
        self.check("<=", a, "non-integer power of a non-positive base", node)
        return self.op("exp({0})", self.op("{0} * {1}", b, self.op("log({0})", a)))

    def store(self, slot, value):
        if self.scalar:
            self.outputs[slot] = value
            return
        at = "".join(f", {i}" for i in slot)
        self.statements.append((f"out[:{at}] = {value}", [value]))

    def source(self):
        """The function's source, each temporary array deleted after its last
        use; the scalar mode's floats stay until it returns them."""
        if self.scalar:
            outputs = "".join(f"{self.outputs[slot]}, " for slot in sorted(self.outputs))
            return "".join(["def table(x1, x2, x3):\n"]
                           + [f"    {src}\n" for src, _ in self.statements]
                           + [f"    return ({outputs})\n"])
        last = {name: i for i, (_, reads) in enumerate(self.statements) for name in reads}
        dead = {}
        for name, i in last.items():
            if name[0] == "t":
                dead.setdefault(i, []).append(name)
        lines = ["def table(x1, x2, x3, out):"]
        for i, (src, _) in enumerate(self.statements):
            lines.append("    " + src)
            if i in dead:
                lines.append("    del " + ", ".join(dead[i]))
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=256)
def _compile(groups, mode):
    """Compile a table to a function (x1, x2, x3, out) filling out, or in the
    scalar mode (x1, x2, x3) returning the values; the ``dual`` mode fills
    out with the values of the table's jet (``_jet_groups``). A ``value``
    program with +0.0 cells zeroes out once and stores only the other cells.

    Keyed by the table's content and the mode, so equal tables share one
    program, held by this bounded per-process cache rather than by any table.
    """
    gen = _Codegen(mode == "scalar")
    groups = _jet_groups(groups) if mode == "dual" else groups
    if mode == "value" and any(ast == _ZERO for ast, _ in groups):
        # one fill for every +0.0 cell: most cells of a table of higher partials are
        # +0.0, and a store each made compiling it take up to six times the memory
        gen.statements.append(("out[...] = 0.0", []))
        groups = [(ast, slots) for ast, slots in groups if ast != _ZERO]
    try:
        for ast, slots in groups:
            value = gen.visit(ast)
            for slot in slots:
                gen.store(slot, value)
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


#: by the number r of component axes, the axes that view an (*C, N) array,
#: N last, as (N, *C): ``transpose`` without ``moveaxis``'s per-call overhead
_POINT_MAJOR = tuple((r,) + tuple(range(r)) for r in range(4))


def as_points(p):
    """Normalise input to an (N, 3) float array; report if it was a single point."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1 and arr.shape != (3,):
        raise ValueError("a point has exactly 3 coordinates")
    if arr.ndim not in (1, 2) or arr.shape[-1] != 3:
        raise ValueError("expected shape (3,) or (N, 3)")
    return (arr[None], True) if arr.ndim == 1 else (arr, False)


def _run(source, p, dual):
    """A table's values, or its ``DualScalar`` jet, at a point or a batch. The
    jet is written component-major, into a zeroed (4, *S, N) array through its
    (N, 4, *S) view, so each store of the program is one contiguous row."""
    table = source if isinstance(source, ExprTable) else _table_of(source)
    pts, single = as_points(p)
    rank, x = len(table.shape), (pts[:, 0], pts[:, 1], pts[:, 2])
    if dual:
        jet = np.zeros((4,) + table.shape + pts.shape[:1])
        table._program("dual")(*x, jet.transpose(_POINT_MAJOR[rank + 1]))
        value = jet[0].copy().transpose(_POINT_MAJOR[rank])  # does not pin the partials
    else:  # point-major: component-major moved analyze's geodesic_defect (einsums follow strides)
        value = np.empty(pts.shape[:1] + table.shape)
        table._program("value")(*x, value)
    if single:
        value = value[0] if rank else float(value[0])
    if not dual:
        return value
    partials = jet[1:].transpose(_POINT_MAJOR[rank + 1])
    return DualScalar(value, partials[0] if single else partials)


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
    evaluation in each mode: numpy source for its values and for those of
    its jet, the table with its differentiated tables, and Python-float
    source for the values at one point (``at_point``). Repeated entries and
    shared subexpressions are computed
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

    @property
    def at_point(self):
        """The scalar program: (x1, x2, x3) of floats to the table's values
        there, a tuple in C order, those of ``evaluate`` at that one row bit
        for bit, with the same DomainError where it raises."""
        return self._program("scalar")
