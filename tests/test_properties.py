"""Property tests (Hypothesis): the expression language, its compiled
evaluator and the singular-metric check.

Examples are derandomized and no example database is written, so a run is
reproducible and leaves no files behind.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geocontact import cli, expr
from geocontact.curvature import MAX_METRIC_CONDITION, christoffel
from geocontact.errors import DomainError, SingularMetric
from geocontact.expr import Bin, Func, Neg, Num, Var, eval_dual, eval_scalar, parse, to_string
from geocontact.geometry import ChartedManifold

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def expressions(numbers, functions, max_leaves):
    leaves = st.builds(Num, numbers) | st.builds(Var, st.sampled_from(expr.VARIABLES))

    def extend(children):
        return (st.builds(Neg, children)
                | st.builds(Bin, st.sampled_from("+-*/^"), children, children)
                | st.builds(Func, st.sampled_from(functions), children))

    return st.recursive(leaves, extend, max_leaves=max_leaves)


#: any expression the parser can produce (its numbers are finite and not negative)
ANY = expressions(st.floats(min_value=0.0, allow_infinity=False, allow_nan=False),
                  expr.FUNCTIONS, 16)

#: small constants and functions that are smooth where they are defined
SMOOTH = expressions(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.0, 10.0),
                     tuple(f for f in expr.FUNCTIONS if f != "abs"), 8)


@SETTINGS
@given(ANY)
def test_print_parse_round_trip(ast):
    assert parse(to_string(ast)) == ast


@SETTINGS
@given(SMOOTH, st.tuples(*[st.floats(0.2, 1.5)] * 3))
def test_partials_match_central_differences(ast, p):
    """The exact partials agree with central differences at h and h/2 to
    within their O(h^2) truncation error, estimated by the difference of the
    two (Richardson), plus rounding."""
    p, h = np.array(p), 1e-4
    axes = np.eye(3)
    stencil = np.concatenate([p[None], p + h * axes, p - h * axes,
                              p + h / 2 * axes, p - h / 2 * axes])
    try:
        with np.errstate(all="ignore"):
            dual = eval_dual(ast, p)
            vals = eval_scalar(ast, stencil)
    except DomainError:
        assume(False)
    assume(np.isfinite(vals).all() and np.isfinite(dual.partials).all())
    assume(np.abs(vals).max() < 1e6)
    fd = (vals[1:4] - vals[4:7]) / (2 * h)
    fd_half = (vals[7:10] - vals[10:13]) / h
    rounding = 1e-7 * max(1.0, np.abs(vals).max())
    assert np.all(np.abs(dual.partials - fd_half) <= np.abs(fd - fd_half) + rounding)


def bits(a):
    """The bytes of a, every NaN as the same NaN: numpy's loops for one row and
    for many may give 0 * inf a NaN of either sign."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


@SETTINGS
@given(st.tuples(ANY, ANY, ANY),
       st.integers(1, 6).flatmap(lambda n: st.lists(
           st.tuples(*[st.floats(-2.0, 2.0)] * 3), min_size=n, max_size=n)))
def test_batch_equals_its_single_row_calls_bit_for_bit(asts, rows):
    pts = np.array(rows)
    for source in (expr.ExprTable.of(asts), asts[0]):
        try:
            with np.errstate(all="ignore"):
                values = eval_scalar(source, pts)
                dual = eval_dual(source, pts)
                singles = [(eval_scalar(source, pts[k:k + 1]), eval_dual(source, pts[k:k + 1]))
                           for k in range(len(pts))]
        except DomainError:
            assume(False)
        assert bits(values) == bits(np.concatenate([v for v, _ in singles]))
        assert bits(dual.value) == bits(np.concatenate([d.value for _, d in singles]))
        assert bits(dual.partials) == bits(np.concatenate([d.partials for _, d in singles]))


def constant_chart(g):
    return ChartedManifold("const", metric_fn=lambda pts: np.broadcast_to(g, (len(pts), 3, 3)),
                           domain_fn=lambda pts: np.ones(len(pts), dtype=bool))


def rotation(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return q


def raises_singular_without_warning(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetric, match="numerically singular at"):
            christoffel(constant_chart(g), np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]]))


@SETTINGS
@given(st.floats(1.01 * MAX_METRIC_CONDITION, 1e18), st.integers(0, 2**32 - 1))
def test_singular_metric_above_the_condition_bound(cond, seed):
    q = rotation(seed)
    raises_singular_without_warning(q @ np.diag([1.0, 0.5, 1.0 / cond]) @ q.T)


@SETTINGS
@given(st.floats(1.0, 0.99 * MAX_METRIC_CONDITION), st.integers(0, 2**32 - 1))
def test_well_conditioned_metric_passes(cond, seed):
    q = rotation(seed)
    gam = christoffel(constant_chart(q @ np.diag([1.0, 1.0, 1.0 / cond]) @ q.T),
                      np.zeros(3))
    assert np.all(gam == 0.0)


@pytest.mark.parametrize("g", [np.zeros((3, 3)), np.full((3, 3), np.nan)], ids=["zero", "nan"])
def test_singular_metric_zero_or_nan(g):
    raises_singular_without_warning(g)


def test_singular_metric_from_the_cli_exits_one(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1e-13"]]},
        "field": {"components": ["1", "0", "0"]},
        "grid": {"min": [0, 0, 0], "max": [1, 1, 1], "counts": [2, 2, 2]}}), encoding="utf-8")
    assert cli.main(["analyze", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "numerically singular at [0. 0. 0.]" in err and "Traceback" not in err
