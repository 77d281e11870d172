"""Parser, evaluator and dual-number backend."""

import numpy as np
import pytest

from geocontact import expr
from geocontact.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from geocontact.expr import Bin, Func, Neg, Num, Var, eval_dual, eval_scalar, parse, to_string


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

def test_single_variable():
    assert parse("x3") == Var("x3")


def test_power_binds_tighter_than_division():
    assert parse("1/x3^2") == Bin("/", Num(1.0), Bin("^", Var("x3"), Num(2.0)))


def test_mixed_term():
    assert parse("sin(x1)*x2 + -x3") == Bin(
        "+", Bin("*", Func("sin", Var("x1")), Var("x2")), Neg(Var("x3")))


def test_power_right_associative():
    assert eval_scalar(parse("2^3^2"), (0.0, 0.0, 0.0)) == 512.0


def test_unary_minus_binds_into_power_base():
    # -x1^2 parses as (-x1)^2
    assert parse("-x1^2") == Bin("^", Neg(Var("x1")), Num(2.0))
    assert eval_scalar(parse("-x1^2"), (3.0, 0.0, 0.0)) == 9.0


def test_negative_exponent_via_unary():
    assert parse("2^-3") == Bin("^", Num(2.0), Neg(Num(3.0)))
    assert eval_scalar(parse("2^-3"), (0.0, 0.0, 0.0)) == 0.125


def test_number_forms():
    assert parse("1.5e-3") == Num(1.5e-3)
    assert parse(".5") == Num(0.5)
    assert parse("2.") == Num(2.0)


def test_syntax_error_carries_offset_and_expected():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + ")
    assert err.value.offset == 5
    assert "(" in err.value.expected and "number" in err.value.expected


def test_unmatched_paren():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin(x1")
    assert err.value.offset == 6


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse("x1 + y2")
    assert err.value.offset == 5
    with pytest.raises(UnknownIdentifier):
        parse("foo(x1)")


def test_unexpected_character():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 ? 2")
    assert err.value.offset == 3


# ---------------------------------------------------------------------------
# Scalar evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    assert eval_scalar(parse("1/x3^2"), (0.0, 0.0, 2.0)) == 0.25
    assert eval_scalar(parse("x1+x2+x3"), (1.0, 2.0, 3.0)) == 6.0
    assert eval_scalar(parse("sqrt(x1^2+x2^2+x3^2)"), (3.0, 4.0, 0.0)) == 5.0


def test_domain_errors_carry_subexpression():
    with pytest.raises(DomainError) as err:
        eval_scalar(parse("1/(x1 - 1)"), (1.0, 0.0, 0.0))
    assert "x1" in err.value.subexpression
    with pytest.raises(DomainError):
        eval_scalar(parse("log(x1)"), (-2.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        eval_scalar(parse("sqrt(x1)"), (-1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        eval_scalar(parse("x1^-1"), (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        eval_scalar(parse("x1^0.5"), (-2.0, 0.0, 0.0))


def test_batched_matches_pointwise():
    ast = parse("sin(x1)*x2 + x3^2")
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, size=(40, 3))
    batch = eval_scalar(ast, pts)
    single = np.array([eval_scalar(ast, p) for p in pts])
    np.testing.assert_allclose(batch, single, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Dual numbers
# ---------------------------------------------------------------------------

def test_dual_examples():
    d = eval_dual(parse("sin(x1)*x2"), (0.0, 2.0, 0.0))
    assert d.value == 0.0
    np.testing.assert_allclose(d.partials, [2.0, 0.0, 0.0], atol=1e-15)

    d = eval_dual(parse("x3"), (0.4, -1.2, 7.7))
    np.testing.assert_allclose(d.partials, [0.0, 0.0, 1.0])

    d = eval_dual(parse("1/x3^2"), (0.0, 0.0, 2.0))
    assert d.value == 0.25
    np.testing.assert_allclose(d.partials, [0.0, 0.0, -0.25])


def test_dual_chain_and_product_rules_symbolic_cases():
    # d/dx1 [x1^2 * x2] = 2 x1 x2 ; d/dx2 = x1^2
    d = eval_dual(parse("x1^2*x2"), (3.0, 5.0, 0.0))
    np.testing.assert_allclose(d.partials, [30.0, 9.0, 0.0])
    # d/dx1 exp(sin(x1)) = cos(x1) exp(sin(x1))
    d = eval_dual(parse("exp(sin(x1))"), (0.7, 0.0, 0.0))
    np.testing.assert_allclose(d.partials[0], np.cos(0.7) * np.exp(np.sin(0.7)))


def test_dual_batched():
    ast = parse("x1*x3 - x2")
    pts = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
    d = eval_dual(ast, pts)
    np.testing.assert_allclose(d.value, [1.0, 2.0])
    np.testing.assert_allclose(d.partials, [[3.0, -1.0, 1.0], [2.0, -1.0, 0.5]])


def test_constant_expression_dual():
    d = eval_dual(parse("2 + 3*4"), (1.0, 1.0, 1.0))
    assert d.value == 14.0
    np.testing.assert_allclose(d.partials, [0.0, 0.0, 0.0])


def test_table_evaluates_each_distinct_entry_once():
    table = expr.ExprTable.of([[parse("1/x3^2" if i == j else "0") for j in range(3)]
                               for i in range(3)])
    assert table.shape == (3, 3) and len(table.groups) == 2
    pts = np.array([[0.1, 0.2, 2.0], [0.0, 0.0, 0.5]])
    np.testing.assert_array_equal(table.evaluate(pts), [np.eye(3) / 4.0, np.eye(3) * 4.0])
    field = expr.ExprTable.of(tuple(parse(c) for c in ("0", "0", "1")))
    np.testing.assert_array_equal(field.evaluate(pts), [[0.0, 0.0, 1.0]] * 2)


# the shared derivative-check corpus (also exercised by the acceptance suite)
CORPUS = [
    "x1 + x2*x3",
    "sin(x1)*cos(x2)",
    "exp(x1/4) + tanh(x3)",
    "1/(1 + x1^2 + x2^2)",
    "sqrt(1 + x1^2 + x2^2 + x3^2)",
    "log(1 + x1^2)*x3",
    "x1^3 - 2*x2^2 + x3",
    "sinh(x2)*cosh(x3)",
    "tan(x1/2)",
    "(x1 + x2)^2/(1 + x3^2)",
    "abs(x1)*x2",
    "x3^x1",
    "2^x2",
    "cos(x1*x2) + sin(x2*x3)",
    "x1/x2 + x2/x3",
    "sqrt(x1)*log(x2 + 1)",
    "exp(-(x1^2 + x2^2))",
    "(1 + x1)^-2",
    "x1^2*x2^3*x3^4",
    "1/sqrt(1 + x1^2)",
    "tanh(x1*x2*x3)",
    "sin(x1)^2 + cos(x1)^2",
]


def central_difference_partials(ast, p, h=1e-6):
    out = np.empty(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        out[k] = (eval_scalar(ast, p + e) - eval_scalar(ast, p - e)) / (2 * h)
    return out


@pytest.mark.parametrize("source", CORPUS)
def test_dual_against_central_differences(source):
    ast = parse(source)
    rng = np.random.default_rng(hash(source) % 2**32)
    for _ in range(10):
        p = rng.uniform(0.2, 1.5, size=3)  # positive, away from kinks and poles
        dual = eval_dual(ast, p)
        fd = central_difference_partials(ast, p)
        scale = np.maximum(1.0, np.abs(dual.partials))
        assert np.all(np.abs(dual.partials - fd) / scale < 1e-6), source


@pytest.mark.parametrize("source", CORPUS)
def test_print_reparse_idempotent(source):
    ast = parse(source)
    printed = to_string(ast)
    assert parse(printed) == ast
    assert to_string(parse(printed)) == printed
