"""Orbit integration, adapted Jacobi fields, residuals and closed forms."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import geocontact as gc
from geocontact import flow
from geocontact.curvature import (christoffel, christoffel_with_partials, jacobi_matrix,
                                  real_eigenvalues)
from geocontact.errors import (DegenerateSeed, DomainError, NotPositiveDefinite, NotUnit,
                               OutOfChart, SingularMetric, StepTooLarge)
from geocontact.flow import (arcoth, first_zero_space_form, integrate_orbit, integrate_orbits,
                             max_parallel_jacobi_defect, noncontact_eigen_drift,
                             riccati_residual, rk4_step, trace_evolution_residual, wronskian)
from oracles import jacobi_component_closed_form

ORBIT_NAMES = ["euclidean_parallel", "euclidean_skew", "s3_hopf", "s3_weighted(2,3)",
               "h2xr_vertical", "h3_vertical", "heisenberg_reeb"]


# ---------------------------------------------------------------------------
# Orbit integration
# ---------------------------------------------------------------------------

def test_flat_parallel_orbit_exact(entries):
    entry = entries["euclidean_parallel"]
    traj = integrate_orbit(entry.manifold, entry.field, np.zeros(3), 1.0, 1e-2)
    np.testing.assert_allclose(traj.points[-1], [0, 0, 1], atol=1e-15)


def test_h3_orbit_exponential(entries):
    entry = entries["h3_vertical"]
    traj = integrate_orbit(entry.manifold, entry.field, np.array([0.0, 0, 1.0]),
                           2.0, 1e-3, with_jacobi=False)
    assert abs(traj.points[-1, 2] - np.exp(2.0)) / np.exp(2.0) < 1e-8


def test_hopf_orbit_periodic(entries):
    entry = entries["s3_hopf"]
    p0 = np.array([0.3, 0.2, 0.1])
    traj = integrate_orbit(entry.manifold, entry.field, p0, 2 * np.pi, 1e-3,
                           with_jacobi=False)
    assert np.abs(traj.points[-1] - p0).max() < 1e-6


def test_orbit_requires_in_chart_start(entries):
    entry = entries["h3_vertical"]
    with pytest.raises(OutOfChart):
        integrate_orbit(entry.manifold, entry.field, np.array([0.0, 0, -1.0]), 1.0, 1e-2)


def slab():
    """Flat chart x3 < 1 with the unit field d/dx3, whose orbits leave through x3 = 1."""
    man = gc.manifold_from_exprs(
        "slab", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")), domain="1 - x3")
    return man, gc.UnitField.from_exprs("z", ("0", "0", "1"))


def test_orbit_truncates_at_chart_boundary():
    man, z = slab()
    traj = integrate_orbit(man, z, np.array([0.0, 0.0, 0.5]), 2.0, 1e-2)
    assert traj.truncated
    assert traj.points[-1, 2] < 1.0


TRAJECTORY_ARRAYS = ("points", "e1", "e2", "B", "M")
JACOBI_ARRAYS = ("J", "Jdot", "Jt", "Jtdot")


def assert_same_trajectory(batched, solo, with_jacobi):
    assert batched.truncated == solo.truncated
    assert batched.step == solo.step
    for name in TRAJECTORY_ARRAYS + (JACOBI_ARRAYS if with_jacobi else ()):
        assert np.array_equal(getattr(batched, name), getattr(solo, name)), name


@pytest.mark.parametrize("name", ["s3_hopf", "h2xr_vertical"])
@pytest.mark.parametrize("with_jacobi,t_end", [(False, 0.1), (True, 0.02)])
def test_batched_orbits_equal_solo_orbits(entries, name, with_jacobi, t_end):
    """The 27 T6.1 seeds as one batch give each seed's solo trajectory bit for bit."""
    entry = entries[name]
    seeds = entry.grid.subgrid((3, 3, 3)).points()
    batch = integrate_orbits(entry.manifold, entry.field, seeds, t_end, 1e-3,
                             with_jacobi=with_jacobi)
    assert len(batch) == len(seeds)
    for p, traj in zip(seeds, batch):
        solo = integrate_orbit(entry.manifold, entry.field, p, t_end, 1e-3,
                               with_jacobi=with_jacobi)
        assert_same_trajectory(traj, solo, with_jacobi)


def transcendental():
    """Flat space in coordinates twisted by f(x3): the pullback of the Euclidean
    metric by (x1, x2, x3) -> (R(f) (x1, x2), x3), R(f) the rotation by f, and
    of its unit field d/dy1, X = (cos f, -sin f, 0), a geodesic field. f and
    its derivative fp use exp, sin, cos, tanh, cosh and non-integer powers,
    unlike the catalog's polynomial and sqrt charts."""
    f = "(0.3*sin(x3) + 0.2*tanh(x3) + 0.1*exp(x3) + 0.05*(1 + x3^2)^1.5)"
    fp = "(0.3*cos(x3) + 0.2/cosh(x3)^2 + 0.1*exp(x3) + 0.15*x3*(1 + x3^2)^0.5)"
    man = gc.manifold_from_exprs("twisted", (
        ("1", "0", f"-x2*{fp}"), ("0", "1", f"x1*{fp}"),
        (f"-x2*{fp}", f"x1*{fp}", f"1 + {fp}^2*(x1^2 + x2^2)")))
    return man, gc.UnitField.from_exprs("twisted_y1", (f"cos({f})", f"-sin({f})", "0"))


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_transcendental_orbits_batched_equal_solo(with_jacobi):
    """A solo orbit takes its stage fields from the scalar program, a batch
    from the numpy program: the two agree bit for bit through exp, sin, cos,
    tanh and x^1.5 too."""
    man, field = transcendental()
    starts = np.array([[0.0, 0.0, 0.1], [-0.5, 0.4, 0.7], [0.0, 0.0, -0.6]])
    batch = integrate_orbits(man, field, starts, 0.05, 1e-3, with_jacobi=with_jacobi)
    for p, traj in zip(starts, batch):
        solo = integrate_orbit(man, field, p, 0.05, 1e-3, with_jacobi=with_jacobi)
        assert len(solo) == 51 and not solo.truncated
        assert_same_trajectory(traj, solo, with_jacobi)


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_one_seed_point_pass_runs_on_floats_through_rk4_step(entries, monkeypatch, with_jacobi):
    """A one-seed orbit evaluates its field table with numpy only at its start
    and in the post-pass over all its samples, yet still makes every step
    with ``rk4_step``."""
    entry = entries["s3_hopf"]
    table, batches, steps = entry.field.component_exprs, [], []
    eval_scalar, step = gc.expr.eval_scalar, flow.rk4_step

    def counted_eval(source, p):
        if source is table:
            batches.append(len(p))
        return eval_scalar(source, p)

    def counted_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(gc.expr, "eval_scalar", counted_eval)
    monkeypatch.setattr(flow, "rk4_step", counted_step)
    traj = integrate_orbit(entry.manifold, entry.field, entry.orbit.start, 0.5, 1e-3,
                           with_jacobi=with_jacobi)
    assert len(traj) == 501 and not traj.truncated
    assert batches == [1, 501]  # the start's diagnose and the post-pass
    assert len(steps) == 500


@pytest.mark.parametrize("with_jacobi", [False, True])
@pytest.mark.parametrize("name", ["h3_vertical", "s3_hopf", "s3_weighted(2,3)"])
def test_one_seed_point_pass_on_floats_equals_the_numpy_pass(entries, name, with_jacobi):
    """The field as a callable, ``table.evaluate``, takes the numpy point pass
    at one seed, where its table takes the pass on floats: the trajectories
    are equal bit for bit. The central mode differences both fields alike, so
    there every array is compared; in the dual mode the callable's partials
    are central differences, so there only the arrays that read no dX are."""
    entry = entries[name]
    table = entry.field.component_exprs
    numpy_pass = gc.UnitField.from_callable(entry.field.name, table.evaluate)
    jacobi = JACOBI_ARRAYS + ("A", "adapted") if with_jacobi else ()
    for diff_mode, names in (("central", TRAJECTORY_ARRAYS + ("X_along",) + jacobi),
                             ("dual", ("points", "e1", "e2", "M", "X_along"))):
        man = dataclasses.replace(entry.manifold, diff_mode=diff_mode)
        floats, rows = (integrate_orbit(man, field, entry.orbit.start, 0.2, 1e-3, with_jacobi)
                        for field in (entry.field, numpy_pass))
        assert len(floats) == len(rows) == 201 and not floats.truncated
        for array in names:
            assert np.array_equal(getattr(floats, array), getattr(rows, array)), array


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_batched_orbits_truncate_per_seed(with_jacobi):
    """Only the seed that reaches x3 = 1 stops; the others run to t_end."""
    man, z = slab()
    starts = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.95], [0.3, 0.0, -0.5], [0.0, 0.4, 0.2]])
    batch = integrate_orbits(man, z, starts, 0.1, 1e-2, with_jacobi=with_jacobi)
    assert [traj.truncated for traj in batch] == [False, True, False, False]
    assert batch[1].points[-1, 2] < 1.0
    assert all(len(traj) == 11 for k, traj in enumerate(batch) if k != 1)
    for p, traj in zip(starts, batch):
        assert_same_trajectory(traj, integrate_orbit(man, z, p, 0.1, 1e-2, with_jacobi),
                               with_jacobi)


def test_batched_orbits_name_the_start_outside_the_chart():
    man, z = slab()
    starts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.5], [0.0, 0.0, 2.0]])
    with pytest.raises(OutOfChart, match=r"orbit start \[0\.  0\.  1\.5\]"):
        integrate_orbits(man, z, starts, 0.1, 1e-2)


def test_batched_orbits_name_the_first_non_unit_start():
    man, _ = slab()
    bump = gc.UnitField.from_exprs("bump", ("0", "0", "1 + x1^2"))
    starts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(NotUnit, match=r"unit defect 5\.625e-01 at \[0\.5 0\.  0\. \]"):
        integrate_orbits(man, bump, starts, 0.1, 1e-2)


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_batched_orbits_name_the_first_start_where_the_field_is_not_finite(with_jacobi):
    """exp(1000 x1) - exp(1000 x1) is NaN at x1 = 1, and a NaN unit defect passes
    the unit check; the start is named as ``diagnose`` names its points."""
    man, _ = slab()
    nan = gc.UnitField.from_exprs("nan", ("0", "0", "exp(1000*x1)-exp(1000*x1)+1"))
    starts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DegenerateSeed, match=r"field 'nan' is zero or not finite at \[1\. 0\. 0\.\]"):
        integrate_orbits(man, nan, starts, 0.1, 1e-2, with_jacobi)


@pytest.mark.parametrize("with_jacobi", [False, True])
@pytest.mark.parametrize("name", ORBIT_NAMES)
def test_an_orbits_first_sample_is_its_starts_diagnosis(entries, name, with_jacobi):
    """From every in-chart point of the default grid, sample 0 of the orbit is
    the start's ``diagnose`` row bit for bit: the frame, B, the eigenvalues of
    M and its trace Ric(X)."""
    entry = entries[name]
    starts = entry.grid.points()
    starts = starts[entry.manifold.contains(starts)]
    diag = gc.diagnose(entry.manifold, entry.field, starts)
    trajs = integrate_orbits(entry.manifold, entry.field, starts, 2e-3, 1e-3, with_jacobi)
    e1, e2, B, M = (np.array([getattr(t, k)[0] for t in trajs]) for k in ("e1", "e2", "B", "M"))
    assert np.array_equal(np.stack([e1, e2], axis=2), diag.frame[:, :, 1:])
    assert np.array_equal(B, diag.B)
    assert np.array_equal(np.stack(real_eigenvalues(M)), np.stack([diag.Delta, diag.delta]))
    assert np.array_equal(M[:, 0, 0] + M[:, 1, 1], diag.ric_X)


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_a_start_whose_metric_fails_raises_before_the_first_step(monkeypatch, with_jacobi):
    """The start's ``diagnose`` row checks its metric in both modes, so a metric
    singular everywhere is named at the start before any RK4 step."""
    calls = count_calls(monkeypatch, ["rk4_step"])
    man = gc.manifold_from_exprs("thin", (("1e-13", "0", "0"), ("0", "1", "0"),
                                          ("0", "0", "1")))
    z = gc.UnitField.from_exprs("z", ("0", "0", "1"))
    with pytest.raises(SingularMetric, match=r"singular at \[0\.  0\.  0\.5\]"):
        integrate_orbit(man, z, np.array([0.0, 0.0, 0.5]), 0.1, 1e-2, with_jacobi)
    assert calls == {"rk4_step": 0}


# ---------------------------------------------------------------------------
# Blocks against one-step blocks and stage-form RK4
# ---------------------------------------------------------------------------

def classical_rhs(man, X):
    """The augmented system as one right-hand side, for stage-form RK4 (k = f(y)
    at every stage): the frame rates come from a christoffel call at the stage
    alone, M from the stage's own christoffel_with_partials call. The tolerance
    oracle for the step matrices of blocks and replays."""
    def rhs(t, y):
        p, e = y[:, 0:3], y[:, 3:9].reshape(-1, 2, 3)
        xv = X.value(p)
        g, gam, dgam = christoffel_with_partials(man, p)
        de = -np.einsum("nkij,ni,naj->nak", christoffel(man, p), xv, e).reshape(-1, 6)
        m = jacobi_matrix(gam, dgam, g, xv, e)
        j, jt = y[:, 9:11, None], y[:, 13:15, None]
        return np.concatenate([xv, de, y[:, 11:13], (-m @ j)[..., 0],
                               y[:, 15:17], (-m @ jt)[..., 0]], axis=1)
    return rhs


def transport_rhs(man, X):
    """The transport of an (N, 9) state, p, e1 and e2, as one right-hand side,
    the frame rates from a christoffel call at the stage alone: the tolerance
    oracle for orbits without the Jacobi pair, as ``classical_rhs`` is with it."""
    def rhs(t, y):
        p, e = y[:, 0:3], y[:, 3:9].reshape(-1, 2, 3)
        xv = X.value(p)
        de = -np.einsum("nkij,ni,naj->nak", christoffel(man, p), xv, e).reshape(-1, 6)
        return np.concatenate([xv, de], axis=1)
    return rhs


def rk4_rows(man, step, y, h):
    """One step ``step(y, h)`` of every row of y, all rows at once, and the mask
    of rows whose step end's curvature stencil stays in the chart. If a stage
    leaves the chart (OutOfChart, or a DomainError at a point outside it), the
    step is redone one row at a time, so only the rows that raise alone stop:
    the oracle's lockstep order, where ``flow._replay`` goes seed by seed."""
    try:
        nxt = step(y, h)
    except (OutOfChart, DomainError) as exc:
        if isinstance(exc, DomainError) and man.contains(exc.point):
            raise
        if len(y) == 1:
            return y, np.zeros(1, dtype=bool)
        nxt, ok = y.copy(), np.zeros(len(y), dtype=bool)
        for k in range(len(y)):
            nxt[k:k + 1], ok[k:k + 1] = rk4_rows(man, step, y[k:k + 1], h)
        return nxt, ok
    return nxt, flow._partials_inside(man, nxt[:, 0:3])


def one_step_block(man, X, with_jacobi):
    """The replay's step: a block of one step, its states without its curvature rows."""
    return lambda y, h: flow._jacobi_block(man, X, y, 1, h, with_jacobi)[0][0]


#: with_jacobi, both ways: the block tests run each case in both modes
MODES = (True, False)


def joint_orbits(man, X, starts, t_end, step, with_jacobi=True, stepper=one_step_block):
    """``integrate_orbits`` with every step by ``stepper(man, X, with_jacobi)``
    (the replay's one-step block unless given), a step that leaves the chart
    redone seed by seed; the initial states are the first samples of a
    one-step run. Each trajectory's g, Gamma and its partials come from a
    ``christoffel_with_partials`` call at all its samples, so the rows that
    ``integrate_orbits`` keeps from its blocks are checked bit for bit."""
    first = integrate_orbits(man, X, starts, step, step, with_jacobi)
    names = ("points", "e1", "e2") + (JACOBI_ARRAYS if with_jacobi else ())
    y = np.array([np.concatenate([getattr(tr, name)[0] for name in names]) for tr in first])
    nsteps = flow.orbit_steps(t_end, step)
    step = t_end / nsteps
    hist = np.empty((len(y), nsteps + 1, y.shape[1]))
    hist[:, 0] = y
    rows, samples = np.arange(len(y)), np.full(len(y), nsteps + 1)
    for s in range(1, nsteps + 1):
        y, ok = rk4_rows(man, stepper(man, X, with_jacobi), y, step)
        if not ok.all():
            samples[rows[~ok]] = s
            rows, y = rows[ok], y[ok]
            if not rows.size:
                break
        hist[rows, s] = y
    return [flow._trajectory(man, X, hist[k, :n], step, bool(n <= nsteps), with_jacobi,
                             christoffel_with_partials(man, hist[k, :n, 0:3]))
            for k, n in enumerate(samples)]


def classical_step(man, X, with_jacobi):
    """Stage-form RK4 of ``classical_rhs`` or ``transport_rhs``, as a
    ``joint_orbits`` stepper."""
    rhs = classical_rhs if with_jacobi else transport_rhs
    return functools.partial(rk4_step, rhs(man, X), 0.0)


def assert_joint_result(man, X, starts, t_end, step, with_jacobi=True):
    """The blocks give the trajectories of one-step blocks bit for bit, or
    raise their error with its message."""
    try:
        expected = joint_orbits(man, X, starts, t_end, step, with_jacobi)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            integrate_orbits(man, X, starts, t_end, step, with_jacobi)
        assert str(raised.value) == str(exc)
        return
    got = integrate_orbits(man, X, starts, t_end, step, with_jacobi)
    assert len(got) == len(expected)
    names = ("t", "X_along") + (("A", "adapted") if with_jacobi else ())
    for traj, ref in zip(got, expected):
        assert len(traj) == len(ref)
        assert_same_trajectory(traj, ref, with_jacobi)
        for name in names:
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name


def h3_cap(diff_mode="dual"):
    """The h3_vertical metric on 0 < x3 < 1.2, whose upward orbits x3 e^t leave the chart."""
    man = gc.manifold_from_exprs(
        "h3_cap", (("1/x3^2", "0", "0"), ("0", "1/x3^2", "0"), ("0", "0", "1/x3^2")),
        domain="x3 * (1.2 - x3)", diff_mode=diff_mode)
    return man, gc.UnitField.from_exprs("vertical_h3", ("0", "0", "x3"))


def count_replays(monkeypatch):
    """Note each block that is replayed, as ``flow._replay`` runs only then;
    returns the notes."""
    made, replay = [], flow._replay
    monkeypatch.setattr(flow, "_replay", lambda *args: made.append(1) or replay(*args))
    return made


ORACLE = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def grid_starts(draw, grid, max_seeds=3):
    """1 to max_seeds points of a catalog grid box."""
    point = st.tuples(*[st.floats(lo, hi) for lo, hi in zip(grid.lo, grid.hi)])
    return np.array(draw(st.lists(point, min_size=1, max_size=max_seeds)))


@ORACLE
@given(st.data(), st.sampled_from(["h3_vertical", "s3_hopf", "s3_weighted(2,3)",
                                   "heisenberg_reeb"]),
       st.integers(1, 10), st.sampled_from([1e-3, 5e-3]), st.sampled_from(["dual", "central"]))
def test_five_passes_equal_the_joint_integration(entries, data, name, nsteps, step, diff_mode):
    """Blocks of 3 steps per seed batch, so that block edges and a final partial
    block occur; in both modes every Trajectory array equals that of one-step
    blocks at every step, and orbits that stay in the chart replay no block.
    On both backends the block's curvature batch, and its stacked step
    matrices, give each stage the bits of a one-step block's."""
    entry = entries[name]
    man = dataclasses.replace(entry.manifold, diff_mode=diff_mode)
    starts = data.draw(grid_starts(entry.grid))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "JACOBI_BLOCK", 3 * len(starts))
        replays = count_replays(mp)
        for with_jacobi in MODES:
            assert_joint_result(man, entry.field, starts, nsteps * step, step, with_jacobi)
    assert not replays


@ORACLE
@given(st.data(), st.sampled_from(["h3_vertical", "s3_hopf", "s3_weighted(2,3)",
                                   "heisenberg_reeb"]),
       st.integers(1, 40), st.sampled_from([1e-3, 5e-3]), st.sampled_from(["dual", "central"]))
def test_blocks_agree_with_classical_rk4(entries, data, name, nsteps, step, diff_mode):
    """Stage-form RK4 of all 17 components (``classical_rhs``), or of the 9 of
    the transport (``transport_rhs``), steps the points as the blocks do, bit
    for bit; the frame and Jacobi step matrices round differently, by at most
    1e-11 in any frame, B, M or Jacobi array."""
    entry = entries[name]
    man = dataclasses.replace(entry.manifold, diff_mode=diff_mode)
    starts = data.draw(grid_starts(entry.grid))
    for with_jacobi in MODES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "JACOBI_BLOCK", 7 * len(starts))
            got = integrate_orbits(man, entry.field, starts, nsteps * step, step, with_jacobi)
        expected = joint_orbits(man, entry.field, starts, nsteps * step, step, with_jacobi,
                                classical_step)
        arrays = ("e1", "e2", "B", "M") + (("A",) + JACOBI_ARRAYS if with_jacobi else ())
        for traj, ref in zip(got, expected, strict=True):
            assert len(traj) == len(ref) and traj.truncated == ref.truncated
            assert np.array_equal(traj.points, ref.points)
            for array in arrays:
                np.testing.assert_allclose(getattr(traj, array), getattr(ref, array),
                                           rtol=0, atol=1e-11, err_msg=array)


@pytest.mark.parametrize("d", [3, 4])
def test_step_matrices_of_a_constant_rate_are_rk4s(d):
    """For a constant A, the step matrix is RK4's stability polynomial
    I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, and the stage maps give the
    classical stage states z + h/2 k1, z + h/2 k2 and z + h k3 of z' = A z,
    both to a few ulps."""
    rng = np.random.default_rng(16)
    h, ulp = 0.1, np.finfo(float).eps
    a = rng.standard_normal((2, 1, 3, d, d))  # one A per step and row, the same at every stage
    steps, maps = flow._step_matrices(np.broadcast_to(a, (2, 4, 3, d, d)), h)
    ha = h * a[:, 0]
    taylor = np.eye(d) + ha + ha @ ha / 2 + ha @ ha @ ha / 6 + ha @ ha @ ha @ ha / 24
    np.testing.assert_allclose(steps, taylor, rtol=0, atol=8 * ulp)
    z = rng.standard_normal((2, 3, d, 2))
    k1 = a[:, 0] @ z
    k2 = a[:, 0] @ (z + 0.5 * h * k1)
    k3 = a[:, 0] @ (z + 0.5 * h * k2)
    stages = np.stack([z + 0.5 * h * k1, z + 0.5 * h * k2, z + h * k3], axis=1)
    np.testing.assert_allclose(maps @ z[:, None], stages, rtol=0, atol=8 * ulp)
    k4 = a[:, 0] @ (z + h * k3)
    np.testing.assert_allclose(steps @ z, z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4),
                               rtol=0, atol=8 * ulp)


def near_cap(k, d):
    """A start on h3_cap whose k-th sample of step 1e-2 lies d below the cap x3 = 1.2."""
    return (1.2 - d) * np.exp(-k * 1e-2)


@ORACLE
@given(st.floats(1.0, 1.1999) | st.builds(near_cap, st.integers(1, 8), st.floats(0.0, 2e-5)),
       st.lists(st.floats(0.3, 0.9), min_size=0, max_size=2), st.integers(0, 2),
       st.integers(2, 12), st.sampled_from(["dual", "central"]))
def test_five_passes_equal_the_joint_integration_when_a_seed_truncates(
        edge, others, slot, nsteps, diff_mode):
    """One seed of a batch leaves the chart, at a stage or step end or first by
    a stage stencil; blocks hold 3 steps; both modes. Every seed stops after
    the samples, and at the points, of stage-form RK4."""
    man, X = h3_cap(diff_mode)
    x3 = list(others)
    x3.insert(min(slot, len(x3)), edge)
    starts = np.array([[0.1 * k, -0.2, z] for k, z in enumerate(x3)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "JACOBI_BLOCK", 3 * len(starts))
        for with_jacobi in MODES:
            assert_joint_result(man, X, starts, nsteps * 1e-2, 1e-2, with_jacobi)
            got = integrate_orbits(man, X, starts, nsteps * 1e-2, 1e-2, with_jacobi)
            expected = joint_orbits(man, X, starts, nsteps * 1e-2, 1e-2, with_jacobi,
                                    classical_step)
            for traj, ref in zip(got, expected, strict=True):
                assert len(traj) == len(ref) and traj.truncated == ref.truncated
                assert np.array_equal(traj.points, ref.points)


@pytest.mark.parametrize("edge", [1.15, near_cap(3, 5e-6)])
def test_truncation_by_transport_and_by_stencil(monkeypatch, edge):
    """A seed whose stage centre leaves the chart replays exactly one block as
    one-step blocks, in both modes. So does one whose sample 3's stencil leaves
    first, except without the Jacobi pair when sample 3 ends a block (blocks of
    1 or 3 steps): the block's check of its step ends stops the seed there,
    and the next block, whose stages leave the chart, never runs. With the
    pair, step 3's last stage lies beyond its end, so its block replays.
    Seeds that stay in the chart replay none."""
    man, X = h3_cap()
    replays = count_replays(monkeypatch)
    starts = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, edge], [0.3, 0.0, 0.8]])
    for block, with_jacobi in itertools.product((3, 9, flow.JACOBI_BLOCK), MODES):
        monkeypatch.setattr(flow, "JACOBI_BLOCK", block)
        for batch, edge_seeds in ((starts, 1), (starts[1:2], 1), (starts[0::2], 0)):
            ends_block = 3 % max(1, block // len(batch)) == 0
            stopped_by_check = edge != 1.15 and not with_jacobi and ends_block
            replays.clear()
            assert_joint_result(man, X, batch, 0.1, 1e-2, with_jacobi)
            assert len(replays) == (0 if stopped_by_check else edge_seeds)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_step_end_just_past_the_cap_replays_one_block(monkeypatch, k):
    """Step k of 6 ends 5e-6 above x3 = 1.2, in blocks of 3 steps: in the middle
    of a block, at its last step and at the first step of the next. Step k's
    last stage lies beyond its end, so its block replays, and the seed ends
    after k samples as with one-step blocks, in both modes."""
    man, X = h3_cap()
    replays = count_replays(monkeypatch)
    monkeypatch.setattr(flow, "JACOBI_BLOCK", 3)
    start = np.array([[0.0, 0.0, (1.2 + 5e-6) * np.exp(-k * 1e-2)]])
    for with_jacobi in MODES:
        replays.clear()
        assert_joint_result(man, X, start, 6e-2, 1e-2, with_jacobi)
        assert len(replays) == 1
        assert len(integrate_orbits(man, X, start, 6e-2, 1e-2, with_jacobi)[0]) == k


def sudden_cap():
    """0 < x3 < 1.2 with the unit field (1.3 - x3)^-1 d/dx3, whose speed grows so
    fast that a step ends beyond its last stage; the field's sqrt raises
    DomainError above the cap."""
    man = gc.manifold_from_exprs(
        "sudden_cap", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "(1.3 - x3)^2")),
        domain="x3 * (1.2 - x3)")
    return man, gc.UnitField.from_exprs("fast", ("0", "0", "1/(1.3 - x3) + 0*sqrt(1.2 - x3)"))


def cap_start(speed, k, d, h=1e-2):
    """The x3 from which k RK4 steps of x3' = speed(x3) end d above the cap x3 = 1.2."""
    def end(x):
        for _ in range(k):
            k1 = speed(x)
            k2 = speed(x + 0.5 * h * k1)
            k3 = speed(x + 0.5 * h * k2)
            k4 = speed(x + h * k3)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return x
    return brentq(lambda x: end(x) - 1.2 - d, 0.5, 1.2, xtol=1e-15)


def sudden_cap_start(k, d):
    """The x3 from which k RK4 steps of sudden_cap's flow end d above the cap."""
    return cap_start(lambda x: 1 / (1.3 - x), k, d)


@pytest.mark.parametrize("k,blocks", [(2, 1), (3, 0), (4, 1)])
def test_a_step_end_outside_the_chart_beyond_its_stages(monkeypatch, k, blocks):
    """Step k of 6 ends 5e-5 above the cap while its stages, stencils included,
    stay below, in blocks of 3 steps. Inside a block the step end is the next
    stage, where the field raises and the block replays; at a block's last
    step only the block's step-end chart check drops the seed, which would
    otherwise raise DomainError at the next block's first stage. Each seed
    ends after k samples, as with one-step blocks."""
    man, X = sudden_cap()
    replays = count_replays(monkeypatch)
    monkeypatch.setattr(flow, "JACOBI_BLOCK", 3)
    start = np.array([[0.0, 0.0, sudden_cap_start(k, 5e-5)]])
    assert_joint_result(man, X, start, 6e-2, 1e-2)
    assert len(replays) == blocks
    traj = integrate_orbits(man, X, start, 6e-2, 1e-2)[0]
    assert traj.truncated and len(traj) == k


def slow_cap():
    """diag(1, 1, x3) on 0 < x3 < 1.2 with the unit field x3^(-1/2) d/dx3, which
    slows as it climbs: a step's last stage falls short of its end, by about
    h^3 x3^-3.5 / 192 (5.5e-9 near the cap for h = 1e-2)."""
    man = gc.manifold_from_exprs("slow_cap", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "x3")),
                                 domain="x3 * (1.2 - x3)")
    return man, gc.UnitField.from_exprs("slow", ("0", "0", "1/sqrt(x3)"))


@pytest.mark.parametrize("with_jacobi", MODES)
def test_a_block_end_whose_stencil_leaves_the_chart_stops_its_seed_without_a_replay(
        monkeypatch, with_jacobi):
    """Step 3 of 6 ends 1e-5 - 2e-9 below the cap, in blocks of 3 steps: the
    stencil of that block's last step end leaves the chart, but neither its
    centre nor any stage's stencil does. The block's check of its step ends
    stops the seed after 3 samples with no replay, as one-step blocks do; the
    orbit checks stencils once for its start and once for its one block, and
    its post-pass not at all."""
    man, X = slow_cap()
    start = np.array([[0.0, 0.0, cap_start(lambda x: x ** -0.5, 3, -(1e-5 - 2e-9))]])
    monkeypatch.setattr(flow, "JACOBI_BLOCK", 3)
    assert_joint_result(man, X, start, 6e-2, 1e-2, with_jacobi)
    log = []

    def logged(name):
        fn = getattr(flow, name)
        return lambda *args: log.append(name) or fn(*args)

    for name in ("_partials_inside", "_replay", "_trajectory"):
        monkeypatch.setattr(flow, name, logged(name))
    traj = integrate_orbits(man, X, start, 6e-2, 1e-2, with_jacobi)[0]
    assert traj.truncated and len(traj) == 3
    assert log == ["_partials_inside", "_partials_inside", "_trajectory"]


@pytest.mark.parametrize("with_jacobi", MODES)
def test_a_grazing_orbit_stops_before_its_sample_whose_stencil_leaves_the_chart(with_jacobi):
    """The flat line x1 = t from x1 = -0.05 grazes the chart x3 + x1^2 > 1 at
    height 5e-6: only at x1 = 0, sample 5 and the last stage of step 5, does a
    stencil leave it, and no stage centre ever does. Without the Jacobi pair no
    block raises, so the block's check of all its step ends stops the seed;
    both modes stop after 5 samples, as one-step blocks do."""
    man = gc.manifold_from_exprs("graze", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
                                 domain="x3 + x1^2 - 1")
    X = gc.UnitField.from_exprs("x1", ("1", "0", "0"))
    start = np.array([[-0.05, 0.0, 1 + 5e-6]])
    assert_joint_result(man, X, start, 0.1, 1e-2, with_jacobi)
    traj = integrate_orbits(man, X, start, 0.1, 1e-2, with_jacobi)[0]
    assert traj.truncated and len(traj) == 5


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_a_field_undefined_beyond_the_chart_leaves_it_as_a_defined_one_does(with_jacobi):
    """x3 + 0*sqrt(1.2 - x3) is x3 in the chart and raises DomainError above the
    cap x3 = 1.2: a stage there is a chart exit, so each seed truncates where
    the field x3 truncates it, with the same trajectory, alone and in a batch."""
    man, plain = h3_cap()
    guarded = gc.UnitField.from_exprs("guarded", ("0", "0", "x3 + 0*sqrt(1.2 - x3)"))
    starts = np.array([[0.0, 0.0, 1.0], [0.1, -0.2, 0.5]])
    for batch in (starts[:1], starts):
        got = integrate_orbits(man, guarded, batch, 0.5, 1e-2, with_jacobi)
        expected = integrate_orbits(man, plain, batch, 0.5, 1e-2, with_jacobi)
        for traj, ref in zip(got, expected, strict=True):
            assert_same_trajectory(traj, ref, with_jacobi)
        assert got[0].truncated and len(got[0]) == 19


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_a_field_undefined_inside_the_chart_raises_its_domain_error(with_jacobi):
    """sqrt(1.1 - x3) fails below the cap x3 = 1.2, inside the chart: the
    expression is at fault, not the orbit, and its DomainError is raised."""
    man, _ = h3_cap()
    short = gc.UnitField.from_exprs("short", ("0", "0", "x3 + 0*sqrt(1.1 - x3)"))
    with pytest.raises(DomainError, match=r"sqrt of a negative value in 'sqrt\(\(1\.1 - x3\)\)'"):
        integrate_orbit(man, short, np.array([0.0, 0.0, 1.0]), 0.5, 1e-2, with_jacobi)


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_a_field_not_finite_beyond_the_chart_leaves_it_as_a_finite_one_does(with_jacobi):
    """x3 + 0*exp(1000*(x3 - 0.5)) is x3 in the chart and NaN above x3 = 1.2098,
    beyond the cap x3 = 1.2: a stage there is a chart exit, so each seed
    truncates where the field x3 truncates it, with the same trajectory, alone
    and in a batch."""
    man, plain = h3_cap()
    steep = gc.UnitField.from_exprs("steep", ("0", "0", "x3 + 0*exp(1000*(x3 - 0.5))"))
    starts = np.array([[0.0, 0.0, 1.0], [0.1, -0.2, 0.5]])
    for batch in (starts[:1], starts):
        with np.errstate(over="ignore", invalid="ignore"):
            got = integrate_orbits(man, steep, batch, 0.5, 1e-2, with_jacobi)
        expected = integrate_orbits(man, plain, batch, 0.5, 1e-2, with_jacobi)
        for traj, ref in zip(got, expected, strict=True):
            assert_same_trajectory(traj, ref, with_jacobi)
        assert got[0].truncated and len(got[0]) == 19


def test_point_segments_are_the_transport_orbits_points(entries):
    """``orbit_points`` runs the transport blocks' point pass, so where no seed
    stops, each seed's samples are its transport orbit's points bit for bit."""
    entry = entries["s3_weighted(2,3)"]
    seeds = entry.grid.subgrid((3, 3, 3)).points()
    points, samples = flow.orbit_points(entry.manifold, entry.field, seeds, 0.1, 1e-3)
    assert points.shape == (27, 101, 3) and (samples == 101).all()
    trajs = integrate_orbits(entry.manifold, entry.field, seeds, 0.1, 1e-3, with_jacobi=False)
    for k, traj in enumerate(trajs):
        assert np.array_equal(points[k], traj.points)


@pytest.mark.parametrize("block", [3, flow.JACOBI_BLOCK])
def test_point_segments_stop_before_their_first_step_leaving_the_chart(monkeypatch, block):
    """On the cap 0 < x3 < 1.2, a seed's samples all lie in the chart and, if
    it stopped, its next step would put a stage point or its end outside; the
    stencil reach of the orbits with frames plays no part, so a seed 1e-7
    below the cap still has its start. A field undefined (DomainError) or not
    finite beyond the cap stops each seed where the field x3 does, through a
    replay, with the same samples, in blocks of one step or of all 50."""
    man, plain = h3_cap()
    starts = np.array([[0.0, 0.0, 1.0], [0.1, -0.2, 0.5], [0.0, 0.0, 1.2 - 1e-7]])
    monkeypatch.setattr(flow, "JACOBI_BLOCK", block)
    points, samples = flow.orbit_points(man, plain, starts, 0.5, 1e-2)
    assert samples.tolist() == [19, 51, 1]
    for seed, n in zip(points, samples):
        assert man.contains(seed[:n]).all()
        ends, stages, _ = flow._point_pass(man, plain, seed[n - 1:n], 1, 1e-2)
        assert man.contains(np.vstack([stages, ends[0]])).all() == (n == 51)
    replays = count_replays(monkeypatch)
    for beyond in ("x3 + 0*sqrt(1.2 - x3)", "x3 + 0*exp(1000*(x3 - 0.5))"):
        field = gc.UnitField.from_exprs("beyond", ("0", "0", beyond))
        with np.errstate(over="ignore", invalid="ignore"):
            got, got_samples = flow.orbit_points(man, field, starts, 0.5, 1e-2)
        assert np.array_equal(got_samples, samples)
        for seed, ref, n in zip(got, points, samples):
            assert np.array_equal(seed[:n], ref[:n])
    assert replays


def test_point_segments_raise_what_the_field_raises_inside_the_chart():
    """The start outside the chart, then the step, then the field's own errors
    inside it: its DomainError, and DegenerateSeed where it is not finite."""
    man, plain = h3_cap()
    start = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(OutOfChart, match="orbit start"):
        flow.orbit_points(man, plain, [[0.0, 0.0, 1.3]], 0.5, 1e-2)
    with pytest.raises(ValueError, match="step must be positive"):
        flow.orbit_points(man, plain, start, 0.5, 0.0)
    short = gc.UnitField.from_exprs("short", ("0", "0", "x3 + 0*sqrt(1.1 - x3)"))
    with pytest.raises(DomainError, match="sqrt of a negative value"):
        flow.orbit_points(man, short, start, 0.5, 1e-2)
    steep = gc.UnitField.from_exprs("steep", ("0", "0", "x3 + 0*exp(1000*(x3 - 0.4))"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateSeed, match="field 'steep' is not finite"):
            flow.orbit_points(man, steep, start, 0.5, 1e-2)


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_a_field_not_finite_inside_the_chart_raises_degenerate_seed(with_jacobi):
    """x3 + 0*exp(1000*(x3 - 0.4)) is NaN above x3 = 1.1098, below the cap x3 =
    1.2: the field is at fault, not the orbit, and DegenerateSeed names the
    first stage point where its value is not finite, alone and in a batch."""
    man, _ = h3_cap()
    steep = gc.UnitField.from_exprs("steep", ("0", "0", "x3 + 0*exp(1000*(x3 - 0.4))"))
    starts = np.array([[0.0, 0.0, 1.0], [0.1, -0.2, 0.5]])
    message = r"field 'steep' is not finite at \[0\. +0\. +1\.11069677\]"
    for batch in (starts[:1], starts):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateSeed, match=message):
                integrate_orbits(man, steep, batch, 0.5, 1e-2, with_jacobi)


def fold2():
    """diag(1, 1, 1 - x3) with the field d/dx3: g33 reaches 0 at x3 = 1, inside the chart."""
    man = gc.manifold_from_exprs("fold2", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1 - x3")))
    return man, gc.UnitField.from_exprs("z", ("0", "0", "1"))


def test_a_metric_failing_on_a_stage_stencil_names_the_stencil_check():
    """The transport alone would meet the singular centre first. g33 = 0 at
    x3 = 1 is singular, so its sign is not trusted: the first point named is
    the first stencil point where g is clearly indefinite."""
    man, z = fold2()
    with pytest.raises(NotPositiveDefinite, match=r"metric of 'fold2' is not positive definite "
                                                  r"at \[0\. +0\. +1\.00001\]"):
        integrate_orbit(man, z, np.zeros(3), 2.0, 1e-2)


def test_stage_failures_inside_a_batch_give_each_seeds_solo_result():
    man, z = slab()
    starts = np.array([[0.2, 0.0, 0.5], [0.0, 0.0, 0.949995], [0.0, 0.1, -0.3]])
    batch = integrate_orbits(man, z, starts, 0.2, 1e-2)
    assert [len(traj) for traj in batch] == [21, 5, 21]
    for p, traj in zip(starts, batch):
        assert_same_trajectory(traj, integrate_orbit(man, z, p, 0.2, 1e-2), True)
    assert_joint_result(man, z, starts, 0.2, 1e-2)

    man, z = fold2()
    starts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
    with pytest.raises(NotPositiveDefinite, match=r"at \[0\. +0\. +1\.00001\]"):
        integrate_orbits(man, z, starts, 2.0, 1e-2)
    assert_joint_result(man, z, starts, 2.0, 1e-2)


def sign_flip(name, s, domain="true"):
    """diag(1, 1, s/abs(s)) with the field d/dx3: g33 is -1 where s < 0."""
    man = gc.manifold_from_exprs(
        name, (("1", "0", "0"), ("0", "1", "0"), ("0", "0", f"({s})/abs({s})")), domain=domain)
    return man, gc.UnitField.from_exprs("z", ("0", "0", "1"))


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_a_step_leaving_the_chart_ends_the_seed_before_its_metric_fails(with_jacobi):
    """Step 2 from x3 = 1.165 has stages at 1.185, 1.195 (twice) and 1.205: the
    metric is indefinite above 1.19 and the chart ends at 1.2. A step's chart
    check of all its curvature points comes before their metric checks, so
    the seed stops after 2 samples in both modes."""
    man, z = sign_flip("flip_cap", "1.19 - x3", domain="x3*(1.2-x3)")
    traj = integrate_orbit(man, z, np.array([0.0, 0.0, 1.165]), 0.06, 0.02, with_jacobi)
    assert traj.truncated and len(traj) == 2
    assert traj.points[-1, 2] == pytest.approx(1.185, abs=1e-12)


@pytest.mark.parametrize("with_jacobi", MODES)
def test_a_batch_raises_its_first_failing_seeds_error(with_jacobi):
    """Seed 0 meets the indefinite metric above x3 = 1.19 and raises
    NotPositiveDefinite alone; seed 1, which starts nearer the cap, raises the
    metric's DomainError at x3 = 1.19 in its first step, steps before seed 0
    fails. The batch raises seed 0's error, as ``integrate_orbit`` of seed 0
    does, not the earliest step's."""
    man, z = sign_flip("flip", "1.19 - x3", domain="x3*(1.2 - x3)")
    starts = np.array([[0.0, 0.0, 1.10], [0.1, 0.0, 1.18]])
    with pytest.raises(NotPositiveDefinite) as alone:
        integrate_orbit(man, z, starts[0], 0.5, 1e-2, with_jacobi)
    with pytest.raises(DomainError, match=r"division by zero .* at \[0\.1 +0\. +1\.19\]"):
        integrate_orbit(man, z, starts[1], 0.5, 1e-2, with_jacobi)
    with pytest.raises(NotPositiveDefinite) as batch:
        integrate_orbits(man, z, starts, 0.5, 1e-2, with_jacobi)
    assert str(batch.value) == str(alone.value)


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_transport_stages_check_the_metric_is_positive_definite(with_jacobi):
    """The metric is indefinite on 1.19 < x3 < 1.196, where only step 2's
    middle stages fall: both modes name the first of them."""
    man, z = sign_flip("flip_band", "(x3 - 1.196)*(x3 - 1.19)")
    with pytest.raises(NotPositiveDefinite,
                       match=r"not positive definite at \[0\.    0\.    1\.195\]"):
        integrate_orbit(man, z, np.array([0.0, 0.0, 1.165]), 0.06, 0.02, with_jacobi)


def count_calls(monkeypatch, names):
    """Count the calls of the named ``flow`` functions; returns the live counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(flow, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(flow, name, counted(name))
    return calls


@pytest.mark.parametrize("nsteps,block", [(7, 3), (9, 3), (10, 2), (1200, flow.JACOBI_BLOCK)])
def test_curvature_is_one_call_per_block(entries, monkeypatch, nsteps, block):
    """n steps make n rk4_step calls and ceil(n / K) + 1 christoffel_with_partials
    calls, where one per stage would be 4n + 1: one per block, at its 4 K stages,
    and one at the last sample alone, as every other sample is the first stage
    of its step and takes g, Gamma and its partials from its block (a post-pass
    would end with n + 1 rows). No christoffel call, where one per stage would
    be 4n + 1 too; the start is one ``diagnose`` call (its frames and B(0)) and
    the post-pass one ``frame_terms`` call (B and M at every sample)."""
    calls = count_calls(monkeypatch, ["rk4_step", "christoffel_with_partials", "christoffel",
                                      "diagnose", "frame_terms"])
    rows, counted = [], flow.christoffel_with_partials
    monkeypatch.setattr(flow, "christoffel_with_partials",
                        lambda man, p: rows.append(len(p)) or counted(man, p))
    monkeypatch.setattr(flow, "JACOBI_BLOCK", block)
    entry = entries["h3_vertical"]
    traj = integrate_orbit(entry.manifold, entry.field, np.array([0.0, 0.0, 1.0]),
                           nsteps * 1e-3, 1e-3)
    assert len(traj) == nsteps + 1 and not traj.truncated
    assert calls == {"rk4_step": nsteps,
                     "christoffel_with_partials": math.ceil(nsteps / block) + 1,
                     "christoffel": 0, "diagnose": 1, "frame_terms": 1}
    assert rows == [4 * min(block, nsteps - done) for done in range(0, nsteps, block)] + [1]


def test_a_jacobi_batchs_last_samples_are_one_curvature_call(entries, monkeypatch):
    """Three seeds with the Jacobi pair make one christoffel_with_partials call
    per block and one at all three seeds' last samples: blocks + 1 calls, the
    last of 3 rows, where a call per seed would make blocks + 3 of one row.
    Each trajectory equals its solo run bit for bit."""
    entry = entries["s3_hopf"]
    starts = np.array([[0.3, 0.2, 0.1], [-0.4, 0.1, 0.5], [0.2, -0.6, -0.3]])
    solos = [integrate_orbit(entry.manifold, entry.field, p, 0.01, 1e-3) for p in starts]
    rows, counted = [], flow.christoffel_with_partials
    monkeypatch.setattr(flow, "christoffel_with_partials",
                        lambda man, p: rows.append(len(p)) or counted(man, p))
    monkeypatch.setattr(flow, "JACOBI_BLOCK", 12)  # 3 seeds share blocks of 4 steps
    batch = integrate_orbits(entry.manifold, entry.field, starts, 0.01, 1e-3)
    assert rows == [4 * 4 * 3, 4 * 4 * 3, 2 * 4 * 3, 3]  # 10 steps: blocks of 4, 4 and 2
    for traj, solo in zip(batch, solos):
        assert len(traj) == 11 and not traj.truncated
        assert_same_trajectory(traj, solo, True)


@pytest.mark.parametrize("nsteps,block", [(7, 3), (1200, flow.JACOBI_BLOCK)])
def test_in_chart_orbits_make_no_per_stage_frame_or_jacobi_call(entries, monkeypatch,
                                                                nsteps, block):
    """A block's frame and Jacobi stage maps come from two ``_step_matrices``
    calls, where stage-form RK4 makes a frame and a Jacobi right-hand-side
    call at every stage (8n); M comes from one ``jacobi_matrix`` call per
    block and one ``frame_terms`` call in the post-pass; the frame rates need
    no ``christoffel`` call of their own, which stage-form transport made at
    every stage (the start is one ``diagnose`` call); nothing replays, so
    ``_replay`` is never called."""
    calls = count_calls(monkeypatch, ["_step_matrices", "jacobi_matrix", "_replay",
                                      "christoffel", "diagnose", "frame_terms"])
    monkeypatch.setattr(flow, "JACOBI_BLOCK", block)
    entry = entries["s3_hopf"]
    traj = integrate_orbit(entry.manifold, entry.field, np.array([0.3, 0.2, 0.1]),
                           nsteps * 1e-3, 1e-3)
    blocks = math.ceil(nsteps / block)
    assert len(traj) == nsteps + 1 and not traj.truncated
    assert calls == {"_step_matrices": 2 * blocks, "jacobi_matrix": blocks, "_replay": 0,
                     "christoffel": 0, "diagnose": 1, "frame_terms": 1}


@pytest.mark.parametrize("nsteps,block", [(7, 3), (9, 3), (1200, flow.JACOBI_BLOCK)])
def test_in_chart_transport_is_one_christoffel_call_per_block(entries, monkeypatch,
                                                              nsteps, block):
    """Without the Jacobi pair, n steps make ceil(n / K) christoffel calls, one per
    block, where stage-form transport made 4n; the frame stage maps come from
    one ``_step_matrices`` call per block; the start is one ``diagnose`` call,
    and only the post-pass calls ``christoffel_with_partials`` and
    ``frame_terms`` (B and M), so no block calls ``jacobi_matrix``; nothing
    replays, so ``_replay`` is never called."""
    calls = count_calls(monkeypatch, ["rk4_step", "christoffel", "christoffel_with_partials",
                                      "_step_matrices", "jacobi_matrix", "_replay", "diagnose",
                                      "frame_terms"])
    monkeypatch.setattr(flow, "JACOBI_BLOCK", block)
    entry = entries["s3_hopf"]
    traj = integrate_orbit(entry.manifold, entry.field, np.array([0.3, 0.2, 0.1]),
                           nsteps * 1e-3, 1e-3, with_jacobi=False)
    blocks = math.ceil(nsteps / block)
    assert len(traj) == nsteps + 1 and not traj.truncated
    assert calls == {"rk4_step": nsteps, "christoffel": blocks, "christoffel_with_partials": 1,
                     "_step_matrices": blocks, "jacobi_matrix": 0, "_replay": 0,
                     "diagnose": 1, "frame_terms": 1}


def test_the_catalogs_t61_batches_never_replay(monkeypatch):
    """T6.1 on every catalog entry runs its 27 seeds' flow segments of 100
    steps as points alone (``orbit_points``), in blocks of 14 steps, with no
    curvature call and no ``diagnose`` of their own: no block raises, so
    ``_replay``, the seed-by-seed path that only a failed block takes, never runs."""
    calls = count_calls(monkeypatch, ["_jacobi_block", "_replay", "christoffel",
                                      "christoffel_with_partials", "diagnose"])
    reports = gc.verify_all(gc.catalog.all_entries(), theorems=("T6.1",))
    assert len(reports) == 7
    assert calls == {"_jacobi_block": 8 * len(reports), "_replay": 0, "christoffel": 0,
                     "christoffel_with_partials": 0, "diagnose": 0}


@pytest.mark.parametrize("with_jacobi", [False, True])
def test_orbit_ends_before_its_first_sample_whose_stencil_leaves_the_chart(with_jacobi):
    """Sample 5's stencil leaves the chart, and with the Jacobi pair so does the
    stencil of step 5's last stage, whose centre stays in: both stop at 5 samples."""
    man, z = slab()
    traj = integrate_orbit(man, z, np.array([0.0, 0.0, 0.949995]), 0.2, 1e-2, with_jacobi)
    assert traj.truncated and len(traj) == 5
    assert traj.points[-1, 2] == pytest.approx(0.989995, abs=1e-12)


@pytest.mark.parametrize("diff_mode,x3", [("dual", 0.999995), ("central", 0.999985)])
def test_orbit_start_whose_stencil_leaves_the_chart_is_named(diff_mode, x3):
    """The central mode also differences the metric at each stencil point, so
    its curvature reaches twice as far."""
    man, z = slab()
    man.diff_mode = diff_mode
    starts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, x3]])
    for with_jacobi in (False, True):
        with pytest.raises(OutOfChart, match=r"orbit start \[0\. +0\. +0\.9999.5\]: its "
                                             r"curvature stencil \(diff_step 1e-05\)"):
            integrate_orbits(man, z, starts, 0.1, 1e-2, with_jacobi)
    if diff_mode == "central":
        man.diff_mode = "dual"
        assert len(integrate_orbits(man, z, starts, 0.1, 1e-2)) == 2


@pytest.mark.parametrize("t_end", [-0.01, 0.0, np.nan, np.inf])
def test_orbit_rejects_t_end_not_positive_and_finite(entries, t_end):
    entry = entries["h3_vertical"]
    with pytest.raises(ValueError, match="t_end"):
        integrate_orbit(entry.manifold, entry.field, np.array([0.0, 0.0, 1.0]), t_end, 1e-3)


def test_step_too_large_raises(entries):
    entry = entries["s3_hopf"]
    with pytest.raises(StepTooLarge):
        integrate_orbit(entry.manifold, entry.field, np.array([0.3, 0.2, 0.1]), 2.0, 0.5)


def test_rk4_convergence_order(entries):
    """Halving the step cuts the endpoint error by at least 8x."""
    entry = entries["h3_vertical"]
    p0 = np.array([0.0, 0.0, 1.0])
    errors = []
    for h in (0.02, 0.01):
        traj = integrate_orbit(entry.manifold, entry.field, p0, 1.0, h, with_jacobi=False)
        errors.append(abs(traj.points[-1, 2] - np.e))
    assert errors[0] / errors[1] >= 8.0


#: the blocks of the 17-component orbit state, each at an orbit's last sample
STATE_BLOCKS = {"p": "points", "e1": "e1", "e2": "e2", "J": "J", "J'": "Jdot",
                "Jt": "Jt", "Jt'": "Jtdot"}


@pytest.mark.parametrize("name,start", [("h3_vertical", (0.0, 0.0, 1.0)),
                                        ("s3_hopf", (0.3, 0.2, 0.1)),
                                        ("heisenberg_reeb", (0.3, -0.2, 0.1))])
def test_rk4_is_fourth_order_in_every_state_block(entries, name, start):
    """Halving the step from 0.02 to 0.01 divides the endpoint error at t = 1,
    against a run at step 1e-3, of each block of the state by 14 to 18, where
    RK4's global error O(h^4) gives 16 (measured: 15.8 to 16.4). A block whose
    error at 0.02 is below 1e-12 is exact to rounding and is skipped, as
    heisenberg_reeb's p, which RK4 integrates exactly. s3_weighted(2,3) is
    left out: at step 0.02 its frame drift raises StepTooLarge."""
    entry = entries[name]
    ref, coarse, fine = (integrate_orbit(entry.manifold, entry.field, np.array(start), 1.0, h)
                         for h in (1e-3, 0.02, 0.01))
    ratios = {}
    for block, attr in STATE_BLOCKS.items():
        end = getattr(ref, attr)[-1]
        err = [np.abs(getattr(traj, attr)[-1] - end).max() for traj in (coarse, fine)]
        if err[0] >= 1e-12:
            ratios[block] = err[0] / err[1]
    assert len(ratios) >= 6
    assert all(14.0 <= r <= 18.0 for r in ratios.values()), ratios


def test_frames_stay_parallel(entries, orbit_cache):
    """Covariant derivative of the transported frame vanishes numerically."""
    from geocontact.curvature import christoffel
    entry = entries["s3_hopf"]
    traj = orbit_cache("s3_hopf")
    k = len(traj) // 2
    h = traj.step
    de1 = (traj.e1[k + 1] - traj.e1[k - 1]) / (2 * h)
    gam = christoffel(entry.manifold, traj.points[k])
    cov = de1 + np.einsum("kij,i,j->k", gam, traj.X_along[k], traj.e1[k])
    assert np.abs(cov).max() < 1e-5


# ---------------------------------------------------------------------------
# Adapted Jacobi fields
# ---------------------------------------------------------------------------

def test_h3_adapted_jacobi_decays(entries, orbit_cache):
    traj = orbit_cache("h3_vertical")
    norms = np.linalg.norm(traj.J, axis=1)
    expected = np.exp(-traj.t)
    assert np.abs(norms / expected - 1.0).max() < 1e-6


def test_flat_adapted_jacobi_constant(entries):
    entry = entries["euclidean_parallel"]
    traj = integrate_orbit(entry.manifold, entry.field, np.zeros(3), 1.0, 1e-2)
    assert np.abs(traj.J - traj.J[0]).max() < 1e-14


def test_hopf_adapted_jacobi_norm_constant(entries, orbit_cache):
    """The flow is isometric, so adapted solutions keep their length."""
    traj = orbit_cache("s3_hopf")
    norms = np.linalg.norm(traj.J, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-5


@pytest.mark.parametrize("name", ORBIT_NAMES)
def test_adaptedness_residual(entries, orbit_cache, name):
    assert orbit_cache(name).adapted_residual < 1e-4


@pytest.mark.parametrize("name", ["euclidean_parallel", "euclidean_skew",
                                  "s3_hopf", "heisenberg_reeb"])
def test_rigidity_no_interior_zeros(entries, orbit_cache, name):
    """Complete fields on these spaces admit no vanishing adapted solution."""
    traj = orbit_cache(name)
    assert np.linalg.norm(traj.J, axis=1).min() > 1e-9
    assert np.linalg.norm(traj.Jt, axis=1).min() > 1e-9


def test_commutation_flow_transversal(entries):
    """The adapted solution matches the finite-difference flow transversal."""
    entry = entries["h3_vertical"]
    p0 = np.array([0.0, 0.0, 1.0])
    step, t_end, s = 5e-3, 1.0, 1e-4
    traj = integrate_orbit(entry.manifold, entry.field, p0, t_end, step)
    v0 = traj.e1[0]
    shifted = integrate_orbit(entry.manifold, entry.field, p0 + s * v0, t_end, step,
                              with_jacobi=False)
    transversal = (shifted.points - traj.points) / s
    ambient = traj.J[:, 0, None] * traj.e1 + traj.J[:, 1, None] * traj.e2
    assert np.abs(transversal - ambient).max() < 1e-3


# ---------------------------------------------------------------------------
# Residuals along catalog orbits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ORBIT_NAMES)
def test_riccati_and_trace_residuals(entries, orbit_cache, name):
    entry = entries[name]
    traj = orbit_cache(name)
    assert riccati_residual(traj) < 1e-4
    assert trace_evolution_residual(traj) < 1e-4


def test_residuals_keep_a_nan_at_an_interior_sample(orbit_cache):
    """A NaN in B at an interior sample makes both maxima NaN, so no bound
    check passes it; the Riccati residual's NaN end samples are not read."""
    traj = dataclasses.replace(orbit_cache("h3_vertical"))
    assert np.isfinite(riccati_residual(traj))
    traj.B = traj.B.copy()
    traj.B[5, 0, 1] = np.nan
    assert np.isnan(riccati_residual(traj)) and np.isnan(trace_evolution_residual(traj))


def test_h3_trace_identity_values(entries, orbit_cache):
    traj = orbit_cache("h3_vertical")
    trb = np.trace(traj.B, axis1=1, axis2=2)
    ric = np.trace(traj.M, axis1=1, axis2=2)
    trb2 = np.einsum("nij,nji->n", traj.B, traj.B)
    assert np.abs(trb + 2.0).max() < 1e-9
    assert np.abs(ric + 2.0).max() < 1e-8
    assert np.abs(trb2 - 2.0).max() < 1e-9


def test_heisenberg_trace_values(entries, orbit_cache):
    traj = orbit_cache("heisenberg_reeb")
    assert np.abs(np.trace(traj.B, axis1=1, axis2=2)).max() < 1e-10
    assert np.abs(np.trace(traj.M, axis1=1, axis2=2) - 0.5).max() < 1e-8
    assert np.abs(np.einsum("nij,nji->n", traj.B, traj.B) + 0.5).max() < 1e-10


# ---------------------------------------------------------------------------
# Wronskian
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ORBIT_NAMES)
def test_wronskian_identity(entries, orbit_cache, name):
    wr = wronskian(orbit_cache(name))
    rel = np.abs(wr.A - wr.A_expected) / np.maximum(1.0, np.abs(wr.A))
    assert rel.max() < 1e-4


def test_wronskian_h3_closed_form(orbit_cache):
    wr = wronskian(orbit_cache("h3_vertical"))
    assert np.abs(wr.A / np.exp(-2.0 * wr.t) - 1.0).max() < 1e-4


def test_wronskian_flat_and_hopf(orbit_cache):
    assert np.abs(wronskian(orbit_cache("euclidean_parallel")).A - 1.0).max() < 1e-12
    assert np.abs(wronskian(orbit_cache("s3_hopf")).A - 1.0).max() < 1e-4


def test_wronskian_needs_jacobi_pair(entries):
    entry = entries["euclidean_parallel"]
    traj = integrate_orbit(entry.manifold, entry.field, np.zeros(3), 0.1, 1e-2,
                           with_jacobi=False)
    with pytest.raises(ValueError):
        wronskian(traj)


def test_parallel_jacobi_defect_h3(orbit_cache):
    assert max_parallel_jacobi_defect(orbit_cache("h3_vertical")) < 1e-6


def test_parallel_jacobi_defect_window(entries):
    entry = entries["s3_weighted(2,3)"]
    traj = integrate_orbit(entry.manifold, entry.field, np.array([0.3, 0.2, 0.1]), 0.1, 1e-3,
                           with_jacobi=False)
    dm = traj.M[10:] - traj.M[:-10]
    expected = np.sqrt((dm ** 2).sum(axis=(1, 2))).max() / (10 * traj.step)
    assert max_parallel_jacobi_defect(traj, window=0.0104) == expected
    one_step = np.sqrt((np.diff(traj.M, axis=0) ** 2).sum(axis=(1, 2))).max() / traj.step
    assert max_parallel_jacobi_defect(traj) == one_step
    assert max_parallel_jacobi_defect(traj, window=5.0) == \
        np.sqrt(((traj.M[-1] - traj.M[0]) ** 2).sum()) / (100 * traj.step)
    traj.M = traj.M[:1]
    traj.t = traj.t[:1]
    assert max_parallel_jacobi_defect(traj) == np.inf


def test_noncontact_eigen_drift_diagnostic(orbit_cache):
    drift = noncontact_eigen_drift(orbit_cache("h3_vertical"))
    assert drift is not None and drift < 1e-8
    assert noncontact_eigen_drift(orbit_cache("s3_hopf")) is None


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_closed_form_samples():
    assert abs(jacobi_component_closed_form(1.0, 1.0, 0.0, np.pi / 2)) < 1e-15
    assert jacobi_component_closed_form(0.0, 1.0, -2.0, 0.5) == 0.0
    t0 = arcoth(2.0)
    assert abs(jacobi_component_closed_form(-1.0, 1.0, -2.0, t0)) < 1e-15


def test_closed_form_matches_rk4_integration():
    rng = np.random.default_rng(53)
    for kappa in (-2.0, -1.0, 0.0, 0.5, 3.0):
        j0, jp0 = rng.uniform(-2, 2, 2)

        def f(t, y):
            return np.array([y[1], -kappa * y[0]])

        y = np.array([j0, jp0])
        h = 1e-3
        for k in range(1000):
            y = rk4_step(f, k * h, y, h)
        assert abs(y[0] - jacobi_component_closed_form(kappa, j0, jp0, 1.0)) < 1e-10


def test_arcoth():
    assert abs(arcoth(2.0) - 0.5 * np.log(3.0)) < 1e-15
    with pytest.raises(ValueError):
        arcoth(0.5)


def test_first_zero_examples():
    assert abs(first_zero_space_form(1.0, 0.0) - np.pi / 2) < 1e-15
    assert first_zero_space_form(0.0, -2.0) == 0.5
    assert first_zero_space_form(-1.0, -0.5) is None
    assert first_zero_space_form(0.0, 0.0) is None
    assert first_zero_space_form(0.0, 1.5) is None
    assert abs(first_zero_space_form(-1.0, -2.0) - arcoth(2.0)) < 1e-15


def test_first_zero_against_root_finder():
    """Independent oracle: bracket and bisect the closed-form component."""
    for c, lam in [(1.0, 0.0), (1.0, 1.3), (2.0, -0.4), (0.0, -2.0), (-1.0, -2.0),
                   (-4.0, -3.0)]:
        t0 = first_zero_space_form(c, lam)
        f = lambda t: jacobi_component_closed_form(c, 1.0, lam, t)
        ts = np.linspace(1e-9, 25.0, 40000)
        vals = f(ts)
        sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        assert len(sign_change) > 0
        k = sign_change[0]
        root = brentq(f, ts[k], ts[k + 1], xtol=1e-12)
        assert abs(root - t0) < 1e-9


def test_no_zero_in_rigidity_regime():
    ts = np.linspace(0.0, 20.0, 20001)
    for lam in (-0.5, 0.0, 0.7, 1.0):
        assert first_zero_space_form(-1.0, lam) is None
        assert np.all(jacobi_component_closed_form(-1.0, 1.0, lam, ts) > 0.0)
    # boundary eigenvalue: cosh(t) - sinh(t) = exp(-t) stays positive but
    # cancels catastrophically in floating point for large t
    assert first_zero_space_form(-1.0, -1.0) is None
    short = np.linspace(0.0, 5.0, 5001)
    assert np.all(jacobi_component_closed_form(-1.0, 1.0, -1.0, short) > 0.0)

