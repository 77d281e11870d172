"""Property tests (Hypothesis): the expression language, its compiled
evaluator, the singular-metric checks and the row invariance of the
batched kernels.

Examples are derandomized and no example database is written, so a run is
reproducible and leaves no files behind.
"""

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ENTRY_NAMES
from geocontact import cli, expr
from geocontact.curvature import MAX_METRIC_CONDITION, christoffel
from geocontact.errors import DomainError, SingularMetric
from geocontact.expr import Bin, Func, Neg, Num, Var, eval_dual, eval_scalar, parse, to_string
from geocontact.field import (SCALAR_COLUMNS, Diagnosis, contact_defect_grid, diagnose,
                              diagnose_point)
from geocontact.geometry import DEFAULT_DIFF_STEP, ChartedManifold

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


def central_chart(metric_fn):
    return ChartedManifold("nonfinite", metric_fn=metric_fn, diff_mode="central",
                           domain_fn=lambda pts: np.ones(len(pts), dtype=bool))


P = np.array([0.1, 0.2, 0.3])


def infinite_past_first_shift(pts):
    """diag(1, 1, 1), with g_22 = inf at and beyond P + h e1."""
    g = np.tile(np.eye(3), (len(pts), 1, 1))
    g[pts[:, 0] >= P[0] + DEFAULT_DIFF_STEP, 1, 1] = np.inf
    return g


@pytest.mark.parametrize("metric_fn, named", [
    (lambda pts: np.broadcast_to(np.diag([1.0, np.inf, 1.0]), (len(pts), 3, 3)), P),
    (infinite_past_first_shift, P + DEFAULT_DIFF_STEP * np.eye(3)[0]),
], ids=["infinite-at-the-point", "infinite-at-a-shift"])
def test_nonfinite_metric_on_the_central_stencil(metric_fn, named):
    """Central differences of a metric that is not finite somewhere on the
    stencil raise SingularMetric naming the first such stencil point, without
    a warning and before any inf or NaN reaches Gamma."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetric, match=re.escape(f"singular at {named}: not finite")):
            christoffel(central_chart(metric_fn), P)


#: an entry name and 0 to 7 rows in its default grid box, as box fractions
ENTRY_ROWS = st.tuples(st.sampled_from(ENTRY_NAMES), st.lists(
    st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=0, max_size=7))

ROW_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def box_points(entry, fractions):
    lo, hi = np.array(entry.grid.lo), np.array(entry.grid.hi)
    return lo + np.array(fractions).reshape(-1, 3) * (hi - lo)


@ROW_SETTINGS
@given(ENTRY_ROWS, st.lists(st.integers(0, 7), max_size=3))
@example(entry_rows=("s3_hopf", []), cuts=[0])
def test_contact_defect_grid_is_invariant_under_row_splits(entries, entry_rows, cuts):
    """A batch gives the bytes of its blocks' calls, concatenated, for any split."""
    name, fractions = entry_rows
    entry = entries[name]
    pts = box_points(entry, fractions)
    whole = contact_defect_grid(entry.manifold, entry.field, pts)
    blocks = np.split(pts, sorted({min(c, len(pts)) for c in cuts}))
    parts = [contact_defect_grid(entry.manifold, entry.field, b) for b in blocks if len(b)]
    assert whole.shape == (len(pts),)
    assert whole.tobytes() == b"".join(part.tobytes() for part in parts)


def row_bytes(d):
    """The bytes of every quantity of a ``PointDiagnosis`` row."""
    eigen = [type(d.eigen).__name__, *dataclasses.astuple(d.eigen)]
    numbers = [d.p, d.B, d.frame, d.tangency, d.beta_rank,
               *(getattr(d, c) for c in SCALAR_COLUMNS)]
    return repr(eigen).encode() + b"".join(np.asarray(x, float).tobytes() for x in numbers)


@ROW_SETTINGS
@given(ENTRY_ROWS)
@example(entry_rows=("heisenberg_reeb", []))
def test_diagnose_rows_equal_their_single_point_calls(entries, entry_rows):
    """Each row of a batched ``diagnose`` is, bit for bit, the N = 1 call
    ``diagnose_point`` at its point, and so is every column."""
    name, fractions = entry_rows
    entry = entries[name]
    pts = box_points(entry, fractions)
    batch = diagnose(entry.manifold, entry.field, pts)
    singles = [diagnose(entry.manifold, entry.field, pts[k:k + 1]) for k in range(len(pts))]
    assert len(batch) == len(pts)
    for column in dataclasses.fields(Diagnosis):
        assert getattr(batch, column.name).tobytes() == b"".join(
            getattr(one, column.name).tobytes() for one in singles), column.name
    for k, row in enumerate(batch):
        assert row_bytes(row) == row_bytes(diagnose_point(entry.manifold, entry.field, pts[k]))
