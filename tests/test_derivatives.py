"""Exact partials against an exact oracle: ``eval_dual`` of every catalog
table, of the custom chart's tables and of the expression corpus, compared
with sympy's derivatives of the same ASTs, evaluated by mpmath at 30 digits.

sympy is a test dependency (the ``test`` extra); the module fails without it
rather than skipping, so the check cannot vanish silently.

Each sympy expression is built from ``expr.to_string(ast)``, never from the
raw source: the printed form is fully parenthesised, so it means to sympy
what the AST means. Integer-valued constants become sympy integers (so a
negative base under an integer power stays real); every other constant is
its double exactly.

The error of a partial is |dual - exact| / max(1, |exact|). Its largest
value over all the checked points measured 2.2e-16 (on the custom chart and
on ``cos(x1*x2) + sin(x2*x3)``), one ulp of a partial near 1; the bound is
4 times that.
"""

import mpmath
import numpy as np
import pytest
import sympy

import geocontact as gc
from conftest import ENTRY_NAMES
from geocontact.expr import ExprTable, eval_dual, parse, to_string
from test_expr import CORPUS, _custom_chart

BOUND = 4 * 2.2e-16

#: rows checked per table: a derandomised subset of its grid
ROWS = 12

X = sympy.symbols("x1 x2 x3", real=True)


def sympy_of(ast):
    e = sympy.sympify(to_string(ast).replace("^", "**"), locals=dict(zip(("x1", "x2", "x3"), X)),
                      rational=False)
    return e.xreplace({f: sympy.Integer(int(f)) for f in e.atoms(sympy.Float) if f == int(f)})


def oracle_partials(table, pts):
    """The exact partials d[n, k, *slot] of a table at the points."""
    out = np.empty((len(pts), 3) + table.shape)
    with mpmath.workdps(30):
        for ast, slots in table.groups:
            e = sympy_of(ast)
            for k in range(3):
                f = sympy.lambdify(X, sympy.diff(e, X[k]), modules="mpmath")
                exact = [float(f(*map(mpmath.mpf, p))) for p in pts.tolist()]
                for slot in slots:
                    out[(slice(None), k) + slot] = exact
    return out


def rows(pts, seed=0):
    rng = np.random.default_rng(seed)
    return pts[np.sort(rng.choice(len(pts), size=min(ROWS, len(pts)), replace=False))]


def partial_error(table, pts):
    exact = oracle_partials(table, pts)
    return np.max(np.abs(eval_dual(table, pts).partials - exact) / np.maximum(1.0, np.abs(exact)))


def chart_tables(name, entries):
    if name == "custom":
        man, fld = _custom_chart()
        pts = gc.GridSpec((-1.2, -1.2, -1.2), (1.2, 1.2, 1.2), (7, 7, 7)).points()
    else:
        man, fld, pts = entries[name].manifold, entries[name].field, entries[name].grid.points()
    return (man.metric_exprs, fld.component_exprs), rows(pts[man.contains(pts)])


@pytest.mark.parametrize("name", list(ENTRY_NAMES) + ["custom"])
def test_catalog_partials_match_the_symbolic_oracle(entries, name):
    tables, pts = chart_tables(name, entries)
    for table in tables:
        assert partial_error(table, pts) <= BOUND


def test_corpus_partials_match_the_symbolic_oracle():
    pts = rows(gc.GridSpec((0.2, 0.2, 0.2), (1.5, 1.5, 1.5), (4, 5, 6)).points())
    for source in CORPUS:
        table = ExprTable.of(parse(source))
        assert partial_error(table, pts) <= BOUND, source
