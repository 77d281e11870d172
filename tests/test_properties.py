"""Property tests (Hypothesis): the expression language, its compiled
evaluator and its scalar mode, the singular-metric checks and their
eigenvalue-free certificate, the Cholesky solve for Gamma and the curvature
operator against the full Riemann tensor, the row invariance of the batched
kernels and the config validator.

Examples are derandomized and no example database is written, so a run is
reproducible. Hypothesis still keeps its own caches under `.hypothesis/`
(`constants/`, `unicode_data/`), which git ignores.
"""

import dataclasses
import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ENTRY_NAMES
import geocontact as gc
from geocontact import cli, curvature, expr
from geocontact.curvature import christoffel, christoffel_with_partials, jacobi_matrix, riemann
from geocontact.errors import (ConfigError, DomainError, ExprError, NotPositiveDefinite,
                               SingularMetric, UnknownEntry)
from geocontact.expr import Bin, Func, Neg, Num, Var, eval_dual, eval_scalar, parse, to_string
from geocontact.field import (SCALAR_COLUMNS, Diagnosis, contact_defect_grid, diagnose,
                              diagnose_point)
from geocontact.geometry import (DEFAULT_DIFF_STEP, MAX_METRIC_CONDITION, ChartedManifold,
                                 _surely_conditioned, metric_partials)

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


def rebuilt(ast, zero=None):
    """A copy of ``ast`` that shares no node with it, each Num 0.0 or -0.0
    replaced by Num(zero) if ``zero`` is given."""
    if isinstance(ast, Num):
        return Num(zero if zero is not None and ast.value == 0.0 else ast.value)
    if isinstance(ast, Var):
        return Var(ast.name)
    if isinstance(ast, Bin):
        return Bin(ast.op, rebuilt(ast.lhs, zero), rebuilt(ast.rhs, zero))
    return type(ast)(*([ast.name] if isinstance(ast, Func) else []), rebuilt(ast.arg, zero))


@SETTINGS
@given(ANY)
def test_equal_asts_built_apart_hash_equal_and_signed_zeros_stay_apart(ast):
    """Each node's hash is computed once, when it is built: equal trees built
    apart are equal and hash equal, and a tree with a 0.0 differs, as a key
    too, from the same tree with -0.0 in its place."""
    twin = rebuilt(ast)
    assert twin == ast and hash(twin) == hash(ast)
    assert {twin: 1}[ast] == 1
    positive, negative = rebuilt(ast, 0.0), rebuilt(ast, -0.0)
    has_zero = re.search(r"(?<![\d.])0\.0(?![\d])", to_string(positive)) is not None
    assert (positive != negative) == has_zero
    assert len({positive: 1, negative: 2}) == (2 if has_zero else 1)


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
    """The rows that skip ``eigvalsh`` are a subset of the rows it passes, and
    positive definite: the metric check takes their sign on trust."""
    g = np.array([metric_of(*row) for row in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sure = _surely_conditioned(g)
    finite = np.isfinite(g).all(axis=(1, 2))
    assert not sure[~finite].any()
    signed = np.linalg.eigvalsh(g[finite])
    lam = np.abs(signed)
    small = lam.min(axis=1)
    passes = (lam.max(axis=1) <= MAX_METRIC_CONDITION * small) & (small > 0.0)
    assert not (sure[finite] & ~passes).any()
    assert (signed[sure[finite]].min(axis=1) > 0.0).all()


def point_rows(n):
    """n points (k, 0, 0), k = 0, ..., n - 1."""
    pts = np.zeros((n, 3))
    pts[:, 0] = np.arange(n)
    return pts


def table_chart(g):
    """The metric g[k] (N, 3, 3) around the point (k, 0, 0), constant there,
    differentiated by central differences."""
    return ChartedManifold("table", metric_fn=lambda pts: g[np.rint(pts[:, 0]).astype(int)],
                           domain_fn=lambda pts: np.ones(len(pts), dtype=bool))


E1 = gc.UnitField.from_callable("e1", lambda pts: np.broadcast_to([1.0, 0.0, 0.0], pts.shape))


def metric_error(call):
    """The class and message of the metric error that ``call()`` raises, or None."""
    try:
        call()
    except (NotPositiveDefinite, SingularMetric) as exc:
        return type(exc), str(exc)
    return None


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(KINDS), st.floats(-12.5, 3.0), st.floats(-3.0, 3.0),
                          st.integers(-60, 60), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=8))
def test_every_metric_entry_point_raises_the_same_metric_error(rows):
    """A batch of metrics gets one outcome from every entry point that checks
    the metric: the same error class naming the same point, or none. At these
    scales det g |X|^2 of a conditioned metric is a normal float, and
    ``contact_defect_grid`` takes det g from the Cholesky factor, which does
    not cancel, so its own range error never fires here."""
    g = np.array([metric_of(*row) for row in rows])
    man, pts = table_chart(g), point_rows(len(g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = metric_error(lambda: man.metric_at(pts))
        for call in (lambda: metric_partials(man, pts),
                     lambda: christoffel(man, pts),
                     lambda: christoffel(man, pts, np.empty((len(pts), 3, 3))),
                     lambda: christoffel_with_partials(man, pts),
                     lambda: diagnose(man, E1, pts, unit_tol=np.inf)):
            assert metric_error(call) == first
        assert metric_error(lambda: contact_defect_grid(man, E1, pts)) == first


EPS = np.finfo(float).eps

#: batches of the positive definite kinds of ``metric_of``, 10^-150 to 10^150
SPD_ROWS = st.lists(st.tuples(st.sampled_from(("spd", "near")), st.floats(-12.5, 3.0),
                              st.floats(-3.0, 3.0), st.integers(-150, 150),
                              st.integers(0, 2**32 - 1)), min_size=1, max_size=8)


def linear_chart(g, dg):
    """The metric g[k] + (x - (k, 0, 0)) . dg[k] around the point (k, 0, 0), with
    dg[k, m] (3, 3) symmetric, differentiated by central differences."""
    def metric_fn(pts):
        k = np.rint(pts[:, 0]).astype(int)
        return g[k] + np.einsum("nm,nmij->nij", pts - point_rows(len(g))[k], dg[k])
    return ChartedManifold("linear", metric_fn=metric_fn,
                           domain_fn=lambda pts: np.ones(len(pts), dtype=bool))


@SETTINGS
@given(SPD_ROWS, st.integers(0, 2**32 - 1))
@example(rows=[("spd", 0.0, 0.0, -120, 0), ("near", -11.09, 3.0, 150, 0)], seed=0)
def test_christoffel_solves_the_koszul_system_stably(rows, seed):
    """On every accepted metric of the batch, Gamma is finite and C-ordered,
    each row is the bits of its N = 1 call, and Gamma_{.ij} solves
    g x = b_ij = (d_i g_j. + d_j g_i. - d_. g_ij) / 2 with a normwise backward
    error of a few eps, within cond(g) eps of ``np.linalg.solve``."""
    g = np.array([metric_of(*row) for row in rows])
    accepted = [metric_error(lambda: constant_chart(m).metric_at(point_rows(1))) is None
                for m in g]
    assume(any(accepted))
    scale = 10.0 ** np.array([row[3] for row in rows])[accepted, None, None, None]
    dg = np.random.default_rng(seed).standard_normal((len(scale), 3, 3, 3)) * scale
    man = linear_chart(g[accepted], dg + np.swapaxes(dg, 2, 3))
    pts = point_rows(len(scale))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gam = christoffel(man, pts)
        assert np.isfinite(gam).all() and gam.flags.c_contiguous
        for k in range(len(pts)):
            assert christoffel(man, pts[k:k + 1]).tobytes() == gam[k].tobytes()
        g, d = man.metric_at(pts), metric_partials(man, pts)  # the jet christoffel used
    b = (0.5 * (np.einsum("nijl->nlij", d) + np.einsum("njil->nlij", d) - d)).reshape(-1, 3, 9)
    x = gam.reshape(-1, 3, 9)
    size = np.linalg.norm
    residual = size(g @ x - b, axis=1)
    assert (residual <= 16 * EPS * (size(g, 2, axis=(1, 2))[:, None] * size(x, axis=1)
                                    + size(b, axis=1))).all()
    ref = np.linalg.solve(g, b)
    assert (size(x - ref, axis=1)
            <= 16 * EPS * np.linalg.cond(g)[:, None] * size(ref, axis=1)).all()


def assemble_riemann(gam, dgam):
    """R[l, i, j, k] from Gamma and its partials (leading batch axis)."""
    return (np.einsum("niljk->nlijk", dgam)            # d_i G^l_jk
            - np.einsum("njlik->nlijk", dgam)          # d_j G^l_ik
            + np.einsum("nlim,nmjk->nlijk", gam, gam)
            - np.einsum("nljm,nmik->nlijk", gam, gam))


def contract(riem, g, X, e):
    """<R(e_b, X)X, e_a> from the full tensor R[l, i, j, k]: the reference of
    ``jacobi_matrix``."""
    rx = np.einsum("nlijk,nai,nj,nk->nal", riem, e, X, X)
    return np.einsum("nbl,nlm,nam->nab", rx, g, e)


def assert_jacobi_matrix_is_the_riemann_contraction(gam, dgam, g, X, e):
    """``jacobi_matrix`` and R(e_2, X)e_1 by ``riemann`` on these symbols equal
    the contractions of ``assemble_riemann`` within the rounding of the terms:
    64 eps times the same contraction of their sizes."""
    a, da = np.abs(gam), np.abs(dgam)
    sizes = (np.einsum("niljk->nlijk", da) + np.einsum("njlik->nlijk", da)
             + np.einsum("nlim,nmjk->nlijk", a, a) + np.einsum("nljm,nmik->nlijk", a, a))
    riem = assemble_riemann(gam, dgam)
    error = np.abs(jacobi_matrix(gam, dgam, g, X, e) - contract(riem, g, X, e))
    assert (error <= 64 * EPS * contract(sizes, np.abs(g), np.abs(X), np.abs(e))).all()
    pts, x, z = np.zeros((len(X), 3)), e[:, 1], e[:, 0]
    with mock.patch.object(curvature, "christoffel_with_partials",
                           lambda man, p: (g, gam, dgam)):
        vector = riemann(None, pts, x, X, z)
    error = np.abs(vector - np.einsum("nlijk,ni,nj,nk->nl", riem, x, X, z))
    bound = np.einsum("nlijk,ni,nj,nk->nl", sizes, np.abs(x), np.abs(X), np.abs(z))
    assert (error <= 64 * EPS * bound).all()


@SETTINGS
@given(st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_jacobi_matrix_is_the_riemann_contraction_on_random_symbols(n, seed):
    """Gamma symmetric in its lower indices and d Gamma in its last two, as
    the Levi-Civita symbols are; g, X and the frames arbitrary."""
    rng = np.random.default_rng(seed)
    gam = rng.standard_normal((n, 3, 3, 3))
    dgam = rng.standard_normal((n, 3, 3, 3, 3))
    g = rng.standard_normal((n, 3, 3))
    assert_jacobi_matrix_is_the_riemann_contraction(
        gam + np.swapaxes(gam, 2, 3), dgam + np.swapaxes(dgam, 3, 4), g + np.swapaxes(g, 1, 2),
        rng.standard_normal((n, 3)), rng.standard_normal((n, 2, 3)))


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_jacobi_matrix_is_the_riemann_contraction_on_the_catalog_grids(entries, name):
    entry = entries[name]
    pts = entry.grid.points()
    g, gam, dgam = christoffel_with_partials(entry.manifold, pts)
    frame = diagnose(entry.manifold, entry.field, pts).frame
    assert_jacobi_matrix_is_the_riemann_contraction(gam, dgam, g, frame[:, :, 0],
                                                    np.swapaxes(frame[:, :, 1:], 1, 2))


def test_the_contact_kernel_keeps_its_digits_on_an_ill_conditioned_metric():
    """The ``near`` metric of seed 0 with eigenvalues (1, 1e-10, 8.1e-12) passes
    the metric check at cond 1.2e11. With a constant g and the field
    X = (1 - x2, x1, 1/2), d_j alpha_k = g_kl d_j X^l, so the defect has a
    closed form; with det g the product of ``eigvalsh``, the kernel agrees
    with it to cond(g) eps, where a cofactor det g is off by 44%."""
    g = metric_of("near", -11.09, 3.0, 0, 0)
    X = gc.UnitField.from_exprs("lin", ("1 - x2", "x1", "0.5"))
    pts = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [-0.3, 0.5, 0.2]])
    lam = np.linalg.eigvalsh(g)
    xv = X.value(pts)
    da = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) @ g
    curl = np.array([da[1, 2] - da[2, 1], da[2, 0] - da[0, 2], da[0, 1] - da[1, 0]])
    ref = (xv @ g) @ curl / np.sqrt(np.einsum("ni,ij,nj->n", xv, g, xv) * lam.prod())
    out = contact_defect_grid(constant_chart(g), X, pts)
    assert np.abs(out / ref - 1.0).max() <= lam[-1] / lam[0] * EPS


def test_a_metric_that_is_clearly_indefinite_is_rejected_by_every_kernel():
    """diag(1, 1, x1) at x1 = -0.5 has eigenvalues (1, 1, -0.5)."""
    man = gc.manifold_from_exprs("tilt", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "x1")))
    p = np.array([-0.5, 0.0, 0.0])
    for kernel in (christoffel, lambda man, p: riemann(man, p, *np.eye(3))):
        with pytest.raises(NotPositiveDefinite, match=re.escape(
                "metric of 'tilt' is not positive definite at [-0.5  0.   0. ]")):
            kernel(man, p)


def test_a_well_conditioned_metric_below_the_det_underflow_passes():
    """1e-120 diag(1, 2, 3) has condition number 3, though det g underflows
    to 0; det g |X|^2 does as well, so the contact kernel names its point."""
    man = gc.manifold_from_exprs("tiny", (("1e-120", "0", "0"), ("0", "2e-120", "0"),
                                          ("0", "0", "3e-120")))
    pts = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]])
    unit = gc.UnitField.from_exprs("unit", ("1e60", "0", "0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(man.metric_at(pts)[0], np.diag([1e-120, 2e-120, 3e-120]))
        g = np.empty((2, 3, 3))
        assert np.all(christoffel(man, pts, g) == 0.0)
        assert np.array_equal(g, man.metric_at(pts))
        assert np.abs(diagnose(man, unit, pts).unit_defect).max() < 1e-12
        with pytest.raises(SingularMetric, match=re.escape(
                "'tiny' numerically singular at [0.1 0.2 0.3]: det g |X|^2 is not a normal")):
            contact_defect_grid(man, unit, pts)


@pytest.mark.parametrize("scale", [1e-120, 1e150])
def test_the_contact_kernel_names_a_point_where_det_g_leaves_the_floats(scale):
    """Where det g |X|^2 underflows or overflows, the quotient would be NaN or
    0: the kernel raises instead, without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetric, match=re.escape(
                "numerically singular at [0. 0. 0.]: det g |X|^2 is not a normal float")):
            contact_defect_grid(constant_chart(scale * np.diag([1.0, 2.0, 3.0])), E1,
                                np.zeros((2, 3)))


@pytest.mark.parametrize("metric_out", [False, True])
def test_a_numerically_singular_metric_is_never_classed_by_its_sign(metric_out):
    """Rotations of diag(1, 0.5, 1e-17): cond 1e17 puts the smallest eigenvalue
    below rounding, so its sign is noise and every rotation is singular."""
    for seed in range(200):
        q = rotation(seed)
        g = q @ np.diag([1.0, 0.5, 1e-17]) @ q.T
        with pytest.raises(SingularMetric, match="numerically singular at"):
            christoffel(constant_chart(g), np.zeros((2, 3)),
                        np.empty((2, 3, 3)) if metric_out else None)


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

NONFINITE = (np.nan, np.inf, -np.inf)


@ROW_SETTINGS
@pytest.mark.parametrize("name", ["euclidean_parallel", "h2xr_vertical", "h3_vertical"])
@given(st.lists(st.tuples(*[st.floats(-2.0, 2.0) | st.sampled_from(NONFINITE)] * 3),
                min_size=1, max_size=12))
@example(rows=[tuple(v if k == col else 0.5 for k in range(3))
               for col in range(3) for v in NONFINITE] + [(0.5, 0.5, 0.5)])
def test_contains_tests_finiteness_row_by_row(entries, name, rows):
    """``contains`` ands the finiteness of the three columns: with NaN, inf and
    -inf in each column, its mask is the domain and the reduction of
    ``isfinite`` over each row, in a batch as for each row alone."""
    man = entries[name].manifold
    pts = np.array(rows)
    expected = np.asarray(man.domain_fn(pts), dtype=bool) & np.all(np.isfinite(pts), axis=1)
    assert np.array_equal(man.contains(pts), expected)
    assert [man.contains(p) for p in pts] == expected.tolist()


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
    "nodes": st.integers(4, 64),
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
