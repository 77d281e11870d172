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

ASTs are immutable; evaluation is pure. ``eval_scalar`` works on a single
point or on an (N, 3) batch of points, ``eval_dual`` additionally carries
exact first-order partial derivatives via dual numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

VARIABLES = ("x1", "x2", "x3")
FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


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


def parse(source: str) -> ExprAst:
    """Parse expression source into an immutable AST."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Dual numbers
# ---------------------------------------------------------------------------

class DualScalar:
    """Value plus exact first-order partials with respect to (x1, x2, x3).

    ``value`` may be a float or an ndarray (batched evaluation); ``partials``
    has one trailing axis of length 3.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = np.asarray(partials, dtype=float)

    def __repr__(self):
        return f"DualScalar({self.value!r}, {self.partials!r})"

    def __add__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.value + other.value, self.partials + other.partials)
        return DualScalar(self.value + other, self.partials)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.value - other.value, self.partials - other.partials)
        return DualScalar(self.value - other, self.partials)

    def __rsub__(self, other):
        return DualScalar(other - self.value, -self.partials)

    def __mul__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.value * other.value,
                              _scale(other.value, self.partials) + _scale(self.value, other.partials))
        return DualScalar(self.value * other, _scale(other, self.partials))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualScalar):
            inv = 1.0 / other.value
            return DualScalar(self.value * inv,
                              _scale(inv, self.partials)
                              - _scale(self.value * inv * inv, other.partials))
        return DualScalar(self.value / other, self.partials / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        return DualScalar(other * inv, _scale(-other * inv * inv, self.partials))

    def __neg__(self):
        return DualScalar(-self.value, -self.partials)


def _scale(factor, partials):
    # multiply (...,) values onto (..., 3) partials
    return np.asarray(factor)[..., None] * partials if np.ndim(factor) else factor * partials


def _value_of(x):
    return x.value if isinstance(x, DualScalar) else x


def _lift(fn, dfn):
    """Build a DualScalar-aware elementwise function from fn and its derivative."""
    def apply(x):
        if isinstance(x, DualScalar):
            return DualScalar(fn(x.value), _scale(dfn(x.value), x.partials))
        return fn(x)
    return apply


_UNARY = {
    "sin": _lift(np.sin, np.cos),
    "cos": _lift(np.cos, lambda v: -np.sin(v)),
    "tan": _lift(np.tan, lambda v: 1.0 / np.cos(v) ** 2),
    "sinh": _lift(np.sinh, np.cosh),
    "cosh": _lift(np.cosh, np.sinh),
    "tanh": _lift(np.tanh, lambda v: 1.0 / np.cosh(v) ** 2),
    "exp": _lift(np.exp, np.exp),
    "log": _lift(np.log, lambda v: 1.0 / v),
    "sqrt": _lift(np.sqrt, lambda v: 0.5 / np.sqrt(v)),
    "abs": _lift(np.abs, np.sign),
}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _check(cond, message, node):
    if np.any(cond):
        raise DomainError(message, to_string(node))


def _pow(base, expo, node):
    bval, eval_ = _value_of(base), _value_of(expo)
    const_exp = not isinstance(expo, DualScalar) or not np.any(expo.partials)
    if const_exp and np.ndim(eval_) == 0 and float(eval_) == int(eval_):
        n = int(eval_)
        if n == 0:
            return np.ones_like(np.asarray(bval, dtype=float)) if np.ndim(bval) else 1.0
        _check((np.asarray(bval) == 0) & (n < 0), "zero base with negative exponent", node)
        if isinstance(base, DualScalar):
            return DualScalar(np.power(base.value, n),
                              _scale(n * np.power(base.value, n - 1), base.partials))
        return np.power(bval, float(n))
    # general case via exp(e * log(b)): base must be strictly positive
    _check(np.asarray(bval) <= 0, "non-integer power of a non-positive base", node)
    return _UNARY["exp"](expo * _UNARY["log"](base))


def _eval(node, xs):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return xs[node.index]
    if isinstance(node, Neg):
        return -_eval(node.arg, xs)
    if isinstance(node, Func):
        arg = _eval(node.arg, xs)
        v = _value_of(arg)
        if node.name == "log":
            _check(np.asarray(v) <= 0, "log of a non-positive value", node)
        elif node.name == "sqrt":
            dual = isinstance(arg, DualScalar)
            _check(np.asarray(v) < 0, "sqrt of a negative value", node)
            if dual:
                _check(np.asarray(v) == 0, "sqrt derivative at zero", node)
        return _UNARY[node.name](arg)
    if isinstance(node, Bin):
        a = _eval(node.lhs, xs)
        if node.op == "^":
            return _pow(a, _eval(node.rhs, xs), node)
        b = _eval(node.rhs, xs)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        _check(np.asarray(_value_of(b)) == 0, "division by zero", node)
        return a / b
    raise TypeError(f"not an expression node: {node!r}")


def _coords(p):
    arr = np.asarray(p, dtype=float)
    if arr.shape[-1] != 3:
        raise ValueError("points must have 3 coordinates")
    return arr[..., 0], arr[..., 1], arr[..., 2], arr.ndim == 1


def eval_scalar(ast, p):
    """Evaluate at a point (3,) -> float, or a batch (N, 3) -> (N,)."""
    x1, x2, x3, single = _coords(p)
    out = _eval(ast, (x1, x2, x3))
    if single:
        return float(out)
    return np.broadcast_to(np.asarray(out, dtype=float), x1.shape).copy() \
        if np.ndim(out) == 0 else np.asarray(out, dtype=float)


def eval_dual(ast, p) -> DualScalar:
    """Evaluate with exact first-order partials.

    For a single point the result has float value and (3,) partials; for an
    (N, 3) batch the value is (N,) and the partials are (N, 3).
    """
    x1, x2, x3, single = _coords(p)
    shape = () if single else x1.shape
    basis = np.eye(3)
    xs = tuple(
        DualScalar(xi, np.broadcast_to(basis[i], shape + (3,)).copy())
        for i, xi in enumerate((x1, x2, x3))
    )
    out = _eval(ast, xs)
    if not isinstance(out, DualScalar):  # constant expression
        value = np.broadcast_to(np.asarray(out, dtype=float), shape).copy() if shape else float(out)
        return DualScalar(value, np.zeros(shape + (3,)))
    value, partials = out.value, out.partials
    if np.ndim(value) < len(shape):
        value = np.broadcast_to(np.asarray(value, dtype=float), shape).copy()
    if partials.ndim < len(shape) + 1:
        partials = np.broadcast_to(partials, shape + (3,)).copy()
    if single and np.ndim(value):
        value = float(value)
    return DualScalar(value, partials)


# ---------------------------------------------------------------------------
# Expression tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExprTable:
    """Chart data given by a (3,) or (3, 3) table of expressions.

    ``groups`` pairs each distinct AST with the index tuples of its slots,
    found once when the table is built, so that repeated entries (the zeros
    of a diagonal metric, the halves of a symmetric one) are evaluated once.
    """

    shape: tuple
    groups: tuple  # ((ast, (slot, ...)), ...)

    @classmethod
    def of(cls, asts):
        """Table of a (3,) or (3, 3) nested sequence of ASTs."""
        cells = np.array(asts, dtype=object)
        groups = {}
        for slot in np.ndindex(cells.shape):
            groups.setdefault(cells[slot], []).append(slot)
        return cls(cells.shape, tuple((ast, tuple(slots)) for ast, slots in groups.items()))

    def evaluate(self, pts):
        """Values of the table at an (N, 3) batch, shape (N, *shape)."""
        out = np.empty((len(pts),) + self.shape)
        for ast, slots in self.groups:
            col = eval_scalar(ast, pts)
            for slot in slots:
                out[(...,) + slot] = col
        return out
