"""Property tests (Hypothesis): the expression language, its compiled
evaluator and its scalar mode, the singular-metric checks and their
eigenvalue-free certificate, the row invariance of the batched kernels and
the config validator.

Examples are derandomized and no example database is written, so a run is
reproducible. Hypothesis still keeps its own caches under `.hypothesis/`
(`constants/`, `unicode_data/`), which git ignores.
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
from geocontact.curvature import MAX_METRIC_CONDITION, _surely_conditioned, christoffel
from geocontact.errors import ConfigError, DomainError, ExprError, SingularMetric, UnknownEntry
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


def outcome(evaluate):
    """The bits of what ``evaluate()`` returns, or the message and subexpression
    of the DomainError it raises (the message names the point)."""
    try:
        with np.errstate(all="ignore"):
            return bits(np.asarray(evaluate(), dtype=float).ravel())
    except DomainError as exc:
        return str(exc), exc.subexpression


@SETTINGS
@given(st.tuples(ANY, ANY, ANY), st.tuples(*[st.floats(-2.0, 2.0)] * 3))
@example(asts=(parse("sin(exp(1000*x1))"), parse("sqrt(x2*1e308*10)^2"),
               parse("cos(x3*1e308*10) + abs(-x3*1e308*10)")),
         row=(1.0, 0.5, 0.25))
@example(asts=(parse("sin(exp(1000*x1))"), parse("log(x2 - 2)"), parse("x3")),
         row=(1.0, 1.0, 0.0))
def test_scalar_program_equals_the_numpy_program(asts, row):
    """At one row, the scalar program gives the numpy program's values bit for
    bit, inf and NaN too (the first example), or the same DomainError at the
    same point."""
    for table in (expr.ExprTable.of(asts), expr.ExprTable.of(asts[0])):
        assert outcome(lambda: table.at_point(*row)) == \
            outcome(lambda: table.evaluate(np.array([row]))[0])


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


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e110, 1e150])
def test_well_conditioned_metric_at_any_scale_passes_without_warning(scale):
    """Where det g underflows, or the certificate's products overflow (entries
    above about 5e102), the row goes to eigvalsh, without a numpy warning."""
    g = scale * np.diag([1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _surely_conditioned(g[None]).all() == (scale == 1.0)
        christoffel(constant_chart(g), np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]]))


def metric_of(kind, e1, e2, scale, seed):
    """A symmetric 3x3 matrix of a kind: rotated eigenvalues (1, 10^e1, 10^e2)
    (``spd``), with one or two of them negated (``indefinite``), with the
    smallest in [1e-13, 1e-10], around both the bound and the certificate's
    threshold (``near``), zero, SPD with a NaN pair, or a matrix with
    a leading 2x2 block singular to rounding and large off-diagonal entries,
    whose cofactor expansion cancels (``lopsided``); times 10^scale."""
    if kind == "zero":
        return np.zeros((3, 3))
    if kind == "lopsided":
        b = 10.0 ** (3.0 + e2)
        g12 = 1.0 - 2.0 ** -53 * (1 + seed % 64)
        g = np.array([[1.0, g12, b], [g12, 1.0, b], [b, b, 10.0 ** e1]])
    else:
        lam = np.array([1.0, 10.0 ** e1, 10.0 ** (-11.5 + e2 / 2 if kind == "near" else e2)])
        if kind == "indefinite":
            lam[: 1 + seed % 2] *= -1.0
        q = rotation(seed)
        g = q @ np.diag(lam) @ q.T
        g = 0.5 * (g + g.T)
        if kind == "nan":
            g[seed % 3, (seed + 1) % 3] = g[(seed + 1) % 3, seed % 3] = np.nan
    return g * 10.0 ** scale


KINDS = ("spd", "indefinite", "near", "zero", "nan", "lopsided")


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(KINDS), st.floats(-12.5, 3.0), st.floats(-3.0, 3.0),
                          st.integers(-160, 160), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=8))
def test_condition_certificate_passes_only_what_eigvalsh_passes(rows):
    """The rows that skip ``eigvalsh`` are a subset of the rows it passes."""
    g = np.array([metric_of(*row) for row in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sure = _surely_conditioned(g)
    finite = np.isfinite(g).all(axis=(1, 2))
    assert not sure[~finite].any()
    lam = np.abs(np.linalg.eigvalsh(g[finite]))
    small = lam.min(axis=1)
    passes = (lam.max(axis=1) <= MAX_METRIC_CONDITION * small) & (small > 0.0)
    assert not (sure[finite] & ~passes).any()


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


@ROW_SETTINGS
@pytest.mark.parametrize("name", ENTRY_NAMES)
@given(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=7))
def test_frame_free_defect_equals_the_shape_operator_defect(entries, name, fractions):
    """Two formulas for one quantity: B21 - B12 of the shape operator in a
    frame (``diagnose``) and eps alpha d(alpha) / sqrt(det g) from first jets
    (``contact_defect_grid``) agree within 1e-12."""
    entry = entries[name]
    pts = box_points(entry, fractions)
    frame_free = contact_defect_grid(entry.manifold, entry.field, pts)
    shape = diagnose(entry.manifold, entry.field, pts).contact_defect
    assert np.abs(frame_free - shape).max() <= 1e-12


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


#: JSON scalars at and beyond the schema's bounds, of every JSON type
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**30, 10**30)
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([float("nan"), float("inf"), -float("inf"), 5e-324, 1e300,
                                   -1.0, 0.0, 2.0, 3.0, 1e13, 2097152])
                | st.text(max_size=6))

#: any JSON value: scalars, lists (often triples) and objects
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, min_size=3, max_size=3) | st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=12)

#: per key of the schema, values that it accepts (the tolerances take any small number)
VALID_VALUES = {
    "metric": st.just([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    "domain": st.sampled_from(["true", "x3"]),
    "components": st.lists(st.sampled_from(["0", "1", "x3"]), min_size=3, max_size=3),
    **dict.fromkeys(["min", "max", "start"],
                    st.lists(st.floats(-2.0, 2.0) | st.integers(-2, 2), min_size=3, max_size=3)),
    "counts": st.lists(st.integers(1, 3), min_size=3, max_size=3),
    "t_end": st.floats(0.002, 1.0),
    "step": st.floats(1e-5, 1e-3),
    "mode": st.sampled_from(["dual", "central"]),
    "nodes": st.integers(2, 64),
}


def now_and_then(draw):
    """True about one draw in eight."""
    return draw(st.integers(0, 7)) == 7


@st.composite
def config_documents(draw):
    """A document over the schema's sections and keys, mostly valid and on a
    catalog manifold; now and then a value of any JSON type, a section that
    is not an object, a missing key, or an unknown section or key."""
    doc = {}
    for name, (_, keys) in cli._SCHEMA.items():
        if draw(st.booleans()):
            continue
        if now_and_then(draw):
            doc[name] = draw(JSON_VALUES)
            continue
        doc[name] = {key: draw(JSON_VALUES if now_and_then(draw) else
                               VALID_VALUES.get(key, st.floats(0.0, 1e-3)))
                     for key in keys if not now_and_then(draw)}
        if now_and_then(draw):
            doc[name]["unknown"] = draw(JSON_VALUES)
    if not now_and_then(draw):
        doc["manifold"] = draw(st.sampled_from(ENTRY_NAMES))
    if now_and_then(draw):
        doc["unknown"] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config_documents())
@example(config={"manifold": "h3_vertical", "orbit": {"start": [0, 0, 1], "step": 5e-324}})
@example(config={"manifold": "s3_hopf", "grid": {"min": [0, 0, 0], "max": [1, 1, 1],
                                                 "counts": [10**30, 1, 1]}})
def test_config_documents_resolve_or_raise_a_usage_error(config):
    """Any config document resolves, or raises one of the errors ``main``
    turns into exit 2; the echo is the document itself. For the whole
    catalog (``verify --all``) it resolves only without the sections that
    set up an entry."""
    for catalog_wide in (False, True):
        try:
            resolved = cli.resolve_config(config, catalog_wide)
        except (ConfigError, UnknownEntry, ExprError):
            continue
        assert resolved.echo is config
        if catalog_wide:
            assert resolved.entry is None
            assert not any(entry and name in config for name, (entry, _) in cli._SCHEMA.items())
