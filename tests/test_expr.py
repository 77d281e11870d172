"""Parser, evaluator and dual-number backend."""

import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import geocontact as gc
from conftest import CUSTOM_DOC, ENTRY_NAMES, EXPR_CACHES
from geocontact import expr
from geocontact.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from geocontact.expr import (Bin, Func, Neg, Num, Var, as_points, eval_dual, eval_scalar, parse,
                             to_string)
from geocontact.geometry import _jet


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


def test_a_negated_power_base_needs_parentheses():
    """-x1^2 would parse as (-x1)^2, which most readers take for -(x1^2), so a
    base that starts with a bare minus before '^' is an error at the minus."""
    for source, offset in (("-x1^2", 0), ("x2 * --x1^2", 5), ("2^-x1^2", 2)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(source)
        assert err.value.offset == offset and err.value.expected == {"("}
    assert parse("(-x1)^2") == Bin("^", Neg(Var("x1")), Num(2.0))
    assert parse("-(x1^2)") == Neg(Bin("^", Var("x1"), Num(2.0)))
    assert eval_scalar(parse("(-x1)^2"), (3.0, 0.0, 0.0)) == 9.0
    assert eval_scalar(parse("-(x1^2)"), (3.0, 0.0, 0.0)) == -9.0


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


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("source,first", [
    ("1/(x1 - 1)", 2), ("log(x1)", 1), ("sqrt(x1 + 2.5)", 5), ("x1^-1", 4), ("x1^0.5", 1),
    ("sqrt(-1) + x1", 0)])
def test_domain_errors_name_the_first_failing_row(source, first, dual):
    """Each check names the point of the first row where it fails; a check that
    fails on constants names the first row of the batch."""
    pts = np.array([[2.0, 0.5, 0.0], [-2.0, 1.5, 0.0], [1.0, 2.5, 0.0], [-1.0, 3.5, 0.0],
                    [0.0, 4.5, 0.0], [-3.0, 5.5, 0.0]])
    with pytest.raises(DomainError) as err:
        (eval_dual if dual else eval_scalar)(parse(source), pts)
    assert str(err.value).endswith(f" at {pts[first]}")


@pytest.mark.parametrize("mode", ["value", "dual", "scalar"])
def test_quotients_sharing_a_denominator_raise_the_first_check(mode):
    """The second quotient's division check is the first's, on the same operand,
    so it is not emitted again: the first one's message names the point."""
    table = expr.ExprTable.of((parse("1/(x1 - x2)"), parse("x3/(x1 - x2)"), parse("x1")))
    pts = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 5.0], [3.0, 3.0, 0.0]])
    run = {"value": lambda: table.evaluate(pts), "dual": lambda: eval_dual(table, pts),
           "scalar": lambda: table.at_point(*pts[1])}[mode]
    with pytest.raises(DomainError) as err:
        run()
    assert str(err.value) == (f"division by zero in '{to_string(parse('1/(x1 - x2)'))}' "
                              f"at {pts[1]}")


@pytest.mark.parametrize("entry, table, mode, checks", [
    ("euclidean_skew", "field", "dual", 5), ("euclidean_skew", "field", "scalar", 4),
    ("s3_hopf", "metric", "dual", 1), ("s3_weighted(2,3)", "metric", "dual", 1),
    ("h3_vertical", "metric", "dual", 1)])
def test_each_domain_check_is_emitted_once_per_program(monkeypatch, cold_caches, entry, table,
                                                       mode, checks):
    """euclidean_skew's field jet repeats its division and sqrt checks once per
    partial that divides by the same operand (16 checks, 5 distinct; its
    scalar program 5, 4 distinct), and each metric jet here its one check."""
    sources, source = [], expr._Codegen.source
    monkeypatch.setattr(expr._Codegen, "source",
                        lambda gen: sources.append(source(gen)) or sources[-1])
    e = gc.builtin(entry)
    (e.field.component_exprs if table == "field" else e.manifold.metric_exprs)._program(mode)
    assert sources[-1].count("_fail(") == checks


def test_the_partial_of_sqrt_at_zero_is_a_division_by_zero():
    """sqrt(x1) has a value at x1 = 0 but no partial: the division check of its
    derivative 0.5 / sqrt(x1) names the first such row."""
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [4.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    np.testing.assert_array_equal(eval_scalar(parse("sqrt(x1)"), pts), [1.0, 0.0, 2.0, 0.0])
    with pytest.raises(DomainError) as err:
        eval_dual(parse("sqrt(x1)"), pts)
    assert str(err.value) == f"division by zero in '(0.5 / sqrt(x1))' at {pts[1]}"


def test_a_domain_error_in_an_empty_batch_names_no_point():
    with pytest.raises(DomainError) as err:
        eval_scalar(parse("sqrt(-1) + x1"), np.empty((0, 3)))
    assert str(err.value) == "sqrt of a negative value in 'sqrt((-1.0))'"


def test_non_finite_constant_exponent_is_a_general_power():
    # exp(inf * log(b)); an integer test on the exponent raised OverflowError
    assert eval_scalar(parse("x1^1e400"), (2.0, 0.0, 0.0)) == np.inf
    assert eval_scalar(parse("x1^1e400"), (0.5, 0.0, 0.0)) == 0.0
    with pytest.raises(DomainError, match="non-integer power"):
        eval_scalar(parse("x1^1e400"), (0.0, 0.0, 0.0))


def test_table_is_compiled_once_per_mode():
    table = expr.ExprTable.of(tuple(parse(c) for c in ("x1*x2", "sin(x1*x2)", "1")))
    pts = np.array([[0.5, 2.0, 0.0]])
    table.evaluate(pts)
    expr.eval_dual(table, pts)
    programs = (table._program("value"), table._program("dual"))
    expr.eval_dual(table, pts)
    table.evaluate(pts)
    assert (table._program("value"), table._program("dual")) == programs


# ---------------------------------------------------------------------------
# Process-wide caches: parsed sources, compiled programs, single-AST tables
# ---------------------------------------------------------------------------

def compiles():
    """Programs compiled since the caches were last cleared."""
    return expr._compile.cache_info().misses


def test_a_rebuilt_catalog_entry_compiles_nothing(cold_caches):
    pts = np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, 0.6]])
    outputs = []
    for build in range(2):
        entry = gc.builtin("s3_hopf")
        tables = (entry.manifold.metric_exprs, entry.field.component_exprs)
        before = compiles()
        outputs.append([(eval_scalar(t, pts), eval_dual(t, pts)) for t in tables])
        assert compiles() - before == (4 if build == 0 else 0)
    for (value, dual), (value2, dual2) in zip(*outputs):
        np.testing.assert_array_equal(value, value2)
        np.testing.assert_array_equal(dual.value, dual2.value)
        np.testing.assert_array_equal(dual.partials, dual2.partials)


def test_cold_caches_clear_every_expression_cache():
    """A new ``lru_cache`` in ``expr`` joins ``EXPR_CACHES``, or tests that need
    cold caches would see warm entries of it."""
    caches = {obj for obj in vars(expr).values()
              if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == expr.__name__}
    assert caches == set(EXPR_CACHES)


def test_tables_of_higher_partials_wait_for_the_first_request(cold_caches):
    """Importing the package and building every catalog entry build and compile no
    table of second and third partials; T6.1 builds and compiles its metric's
    on its first run and reuses both on the next."""
    code = ("import geocontact as gc\nfrom geocontact import expr\n"
            "entries = gc.catalog.all_entries()\n"
            "print(expr._higher_partials.cache_info().misses)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.stdout == "0\n"
    entry = gc.builtin("s3_weighted(2,3)")
    for _ in range(2):
        gc.verify.verify_parallel_jacobi(entry)
    assert expr._higher_partials.cache_info().misses == 1
    table = expr.higher_partials(entry.manifold.metric_exprs)
    assert table.shape == (16, 3, 3) and set(table._programs) == {"value"}


def test_equal_sources_parse_to_the_same_objects(cold_caches):
    assert parse("x1*x3 - x2") is parse("x1*x3 - x2")
    assert expr.parse.cache_info().misses == 1


def test_tables_differing_in_a_constant_or_shape_get_their_own_programs(cold_caches):
    pts = np.array([[0.5, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    two, three = (expr.ExprTable.of(parse(s)) for s in ("2*x1", "3*x1"))
    row = expr.ExprTable.of((parse("2*x1"),) * 3)
    np.testing.assert_array_equal(two.evaluate(pts), [1.0, -2.0])
    np.testing.assert_array_equal(three.evaluate(pts), [1.5, -3.0])
    np.testing.assert_array_equal(row.evaluate(pts), [[1.0] * 3, [-2.0] * 3])
    programs = [t._program("value") for t in (two, three, row)]
    assert len(set(programs)) == 3 and compiles() == 3


def test_a_shared_program_names_the_callers_point(cold_caches):
    first, second = (expr.ExprTable.of(parse("log(x1)")) for _ in range(2))
    with pytest.raises(DomainError) as one:
        first.evaluate(np.array([[1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]))
    with pytest.raises(DomainError) as two:
        second.evaluate(np.array([[0.0, 3.0, 4.0]]))
    assert first._program("value") is second._program("value") and compiles() == 1
    assert one.value.subexpression == two.value.subexpression == "log(x1)"
    assert str(one.value).endswith(f" at {np.array([-2.0, 0.0, 0.0])}")
    assert str(two.value).endswith(f" at {np.array([0.0, 3.0, 4.0])}")


def test_a_negative_zero_constant_keeps_its_sign(cold_caches):
    p = (1.0, 0.0, 0.0)
    assert not np.signbit(eval_scalar(Num(0.0), p))
    assert np.signbit(eval_scalar(Num(-0.0), p))
    assert Num(0.0) != Num(-0.0) and Num(2) == Num(2.0)


def test_a_product_with_zero_keeps_the_sign_of_its_zero(cold_caches):
    p = (1.0, 0.0, 0.0)
    assert np.signbit(eval_scalar(Bin("*", Var("x1"), Num(-0.0)), p))
    assert not np.signbit(eval_scalar(Bin("*", Var("x1"), Num(0.0)), p))


def test_a_table_keeps_zeros_of_either_sign_apart(cold_caches):
    table = expr.ExprTable.of([Num(-0.0), Num(0.0)])
    np.testing.assert_array_equal(np.signbit(table.evaluate(np.zeros((1, 3)))), [[True, False]])
    assert len(table.groups) == 2


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


@pytest.mark.parametrize("evaluate", [eval_scalar, eval_dual])
@pytest.mark.parametrize("p", [np.zeros(4), np.zeros((2, 4))])
def test_evaluation_rejects_bad_points_with_as_points_messages(evaluate, p):
    """Points reach the compiled programs through ``as_points``, the one point
    normaliser: a bad point or batch raises its ValueError."""
    with pytest.raises(ValueError) as expected:
        as_points(p)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        evaluate(parse("x1 + x2"), p)


def test_constant_expression_dual():
    d = eval_dual(parse("2 + 3*4"), (1.0, 1.0, 1.0))
    assert d.value == 14.0
    np.testing.assert_allclose(d.partials, [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Layout of jets and values
# ---------------------------------------------------------------------------

#: a 3x3 table of sin, exp, log and sqrt, defined on [-1, 1]^3
TRANSCENDENTAL = (("sin(x1)*exp(x2)", "log(2 + cos(x3))", "sqrt(1 + x1^2*x2^2)"),
                  ("exp(-(x3^2))/sqrt(2 + sin(x1))", "log(3 + x1*x2)", "sin(x2*x3)"),
                  ("sqrt(exp(x1) + x3^2)", "log(1 + x2^2)*exp(x3)", "cos(x1)*sin(x2)/(2 + x3)"))


def layout_table(name):
    """(table, lo, hi): a catalog entry's metric or field table and its grid's
    box, or ``TRANSCENDENTAL`` on [-1, 1]^3."""
    if name == "transcendental":
        rows = [[parse(s) for s in row] for row in TRANSCENDENTAL]
        return expr.ExprTable.of(rows), (-1.0,) * 3, (1.0,) * 3
    entry, kind = gc.builtin(name.rpartition("/")[0]), name.rpartition("/")[2]
    table = entry.manifold.metric_exprs if kind == "metric" else entry.field.component_exprs
    return table, entry.grid.lo, entry.grid.hi


def point_major_jet(table, pts):
    """The table's dual program run into a zeroed point-major (N, 4, *S) buffer:
    (value, partials), the reference of ``eval_dual``'s component-major jet."""
    out = np.zeros((len(pts), 4) + table.shape)
    table._program("dual")(pts[:, 0], pts[:, 1], pts[:, 2], out)
    return out[:, 0], out[:, 1:]


@pytest.mark.parametrize("n", [1, 7, 4096])
@pytest.mark.parametrize("name", ["transcendental"] + [f"{name}/{kind}" for name in ENTRY_NAMES
                                                       for kind in ("metric", "field")])
def test_dual_jets_are_component_major_with_the_point_major_bits(name, n):
    """Each component of value and partials is one contiguous (N,) row, bit for
    bit the same program's stores into a point-major buffer; the value is a
    copy, not a view into the partials' array. A point is the batch's row."""
    table, lo, hi = layout_table(name)
    pts = np.random.default_rng(n).uniform(lo, hi, (n, 3))
    jet = eval_dual(table, pts)
    value, partials = point_major_jet(table, pts)
    assert jet.value.shape == value.shape and jet.partials.shape == partials.shape
    assert jet.value.tobytes() == value.tobytes() and jet.partials.tobytes() == partials.tobytes()
    assert np.moveaxis(jet.value, 0, -1).flags.c_contiguous
    assert np.moveaxis(jet.partials, 0, -1).flags.c_contiguous
    assert not np.shares_memory(jet.value, jet.partials)
    one = eval_dual(table, pts[0])
    assert np.asarray(one.value).tobytes() == value[0].tobytes()
    assert one.partials.tobytes() == partials[0].tobytes()


@pytest.mark.parametrize("source", [parse("x1*x2"), [parse("x1"), parse("x2"), parse("x3")],
                                    [[parse(s) for s in row] for row in TRANSCENDENTAL]],
                         ids=["scalar", "vector", "matrix"])
def test_values_are_point_major(source):
    """``eval_scalar`` stays a C-contiguous (N, *S) array (see ``expr._run``)."""
    table = expr.ExprTable.of(source)
    values = eval_scalar(table, np.random.default_rng(0).uniform(-1.0, 1.0, (5, 3)))
    assert values.shape == (5,) + table.shape and values.flags.c_contiguous


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


# ---------------------------------------------------------------------------
# Pinned outputs: values and partials are compared bit for bit, signs of
# zero included, through sha256 digests recorded before the compiled
# evaluator replaced the tree-walking one
# ---------------------------------------------------------------------------

def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _custom_chart():
    m = CUSTOM_DOC["manifold"]
    man = gc.manifold_from_exprs("custom", m["metric"], domain=m["domain"])
    return man, gc.UnitField.from_exprs("custom", CUSTOM_DOC["field"]["components"])


def table_digests(man, fld, pts):
    """Digest of the chart test at pts, and of each table's values and dual
    jet at the rows of pts inside the chart."""
    inside = man.contains(pts)
    pts = pts[inside]
    return {
        "metric": _digest(man.metric_exprs.evaluate(pts),
                          *_jet(man, man.metric_fn, pts, man.metric_exprs)),
        "field": _digest(fld.component_exprs.evaluate(pts),
                         *_jet(man, fld.component_fn, pts, fld.component_exprs)),
        "domain": _digest(inside),
    }


TABLE_DIGESTS = {
    "euclidean_parallel": {
        "metric": "858813c6310e5addef783d560192d9e24f78d051451b40638d51d27277dc0e33",
        "field": "1214b24d391fcbf22c1b4ecec6b0779df86f8f249c80d5c76c8c7000c9144ae1",
        "domain": "aac95d8dd2274a83066506a19d9cba55226253b89c929f657f7959dc35b446ba",
    },
    "euclidean_skew": {
        "metric": "858813c6310e5addef783d560192d9e24f78d051451b40638d51d27277dc0e33",
        "field": "ee86d18b69987d7188a8f0ad4ddb311d895a26aaaa9aabaa5568788175781ef2",
        "domain": "aac95d8dd2274a83066506a19d9cba55226253b89c929f657f7959dc35b446ba",
    },
    "s3_hopf": {
        "metric": "7a0338cbe29683e703322f37db234b7758b6d5400b567e446750038c03d50d2c",
        "field": "2ddcee16ba96a125b58b407d965589fe57844d6635b725dcdd865ba132a59037",
        "domain": "aac95d8dd2274a83066506a19d9cba55226253b89c929f657f7959dc35b446ba",
    },
    "s3_weighted(2,3)": {
        "metric": "692aa9efcd3ae6ce28400fdb40bd056bb4173c1f45d201eee4e3f168a488b46f",
        "field": "b16a754bbe20e83aa7df1c6ad7ffe6aa7c3b98116ac870205002f586d61c1d1c",
        "domain": "aac95d8dd2274a83066506a19d9cba55226253b89c929f657f7959dc35b446ba",
    },
    "h2xr_vertical": {
        "metric": "6c4712eee054a32b6c8be196f7f65a6c3da011a68634b754d6bee623ec067807",
        "field": "b1d2f054ba3eacbf2bae808ae4bc798d13a48829b159ee87ddf4d59c4369a123",
        "domain": "aac95d8dd2274a83066506a19d9cba55226253b89c929f657f7959dc35b446ba",
    },
    "h3_vertical": {
        "metric": "b45d7a219e4c375d3d80112f7943214fe174035e5469d42eedc2fec6e62c5ac1",
        "field": "7a64f1fc70e5a64adff54f368bf721090e297e29ccb03f41550bb24eb75ef4fb",
        "domain": "aac95d8dd2274a83066506a19d9cba55226253b89c929f657f7959dc35b446ba",
    },
    "heisenberg_reeb": {
        "metric": "2f1c6bb8ee26d7f3d11f77143ba10ffa49b0615400d6750d1fa1418c43c636d2",
        "field": "1214b24d391fcbf22c1b4ecec6b0779df86f8f249c80d5c76c8c7000c9144ae1",
        "domain": "aac95d8dd2274a83066506a19d9cba55226253b89c929f657f7959dc35b446ba",
    },
    "custom": {
        "metric": "80e822aa857928e07aa640e81d2874b6bf6f847eabd8dc0253d6a3c8358989d8",
        "field": "916868c1314246f85e6c1fc760c57e9df95c0c5cc8c10d2881b21a881334e2da",
        "domain": "2ed6d52bc5f79eb438759cc6d2eef373122b7a65adfd5e2e062f9b3f028b786e",
    },
}

CORPUS_DIGESTS = {
    "values": "63298aa0756faa30af5cb808cd923072a52c003f633443869ee92d939d169753",
    "partials": "3273b9ee966d37ab7997dae5e89d349526db4e5f90f7947fb5324899894143be",
}


@pytest.mark.parametrize("name", list(ENTRY_NAMES) + ["custom"])
def test_table_outputs_are_pinned(entries, name):
    if name == "custom":
        man, fld = _custom_chart()
        pts = gc.GridSpec((-1.2, -1.2, -1.2), (1.2, 1.2, 1.2), (7, 7, 7)).points()
    else:
        entry = entries[name]
        man, fld, pts = entry.manifold, entry.field, entry.grid.points()
    assert table_digests(man, fld, pts) == TABLE_DIGESTS[name]


def corpus_digests():
    pts = gc.GridSpec((0.2, 0.2, 0.2), (1.5, 1.5, 1.5), (4, 5, 6)).points()
    values, partials = [], []
    for source in CORPUS:
        ast = parse(source)
        dual = eval_dual(ast, pts)
        values += [eval_scalar(ast, pts), dual.value]
        partials.append(dual.partials)
    return {"values": _digest(*values), "partials": _digest(*partials)}


def test_corpus_outputs_are_pinned():
    assert corpus_digests() == CORPUS_DIGESTS
