"""Orbit integration, parallel transport, adapted Jacobi fields and the
Riccati / trace-evolution / Wronskian diagnostics along flow lines.

The orbit, the parallel frame and the Jacobi components form one augmented
first-order system, integrated with classical fixed-step RK4:

    p'   = X(p)
    e_a' = -Gamma(p)(X(p), e_a)                   (parallel transport)
    J''  = -M(t) J     in frame components, M the Jacobi-tensor matrix

Since frames are parallel and X is geodesic, the second-order Jacobi
equation reduces exactly to scalar components in the transported frame.
The system is triangular: p' depends on p alone, e' on p and e, and M on p
and e but never on J. Once the stage points are known, the frame and Jacobi
equations are linear: e' = A e with A = -Gamma(X, .), and
(J, J')' = [[0, I], [-M, 0]] (J, J'). One RK4 step of y' = A y is then one
step matrix P = I + h/6 (K1 + 2 K2 + 2 K3 + K4), with K1 = A1 and
Kc = Ac Sc for the stage maps S2 = I + h/2 K1, S3 = I + h/2 K2 and
S4 = I + h K3; the c-th stage state is Sc y (Hairer, Norsett & Wanner,
Solving ODEs I, II.1 and IV.2).

With or without the Jacobi pair (``with_jacobi``), an orbit runs in blocks
of ``JACOBI_BLOCK`` steps. A block first runs RK4 on p alone, recording
every stage point and field value. A one-row block of a field given by
expressions takes its stage values from the table's scalar program
(``ExprTable.at_point``): the same statements on Python floats, bit for bit
the numpy program's values without its per-call overhead. ``rk4_step``
still makes every step. The block then makes one batched curvature call at all those
stages: ``christoffel`` for the transport alone, or
``christoffel_with_partials`` for Gamma and R with the Jacobi pair. The
frame step matrices of the block, from A = -Gamma(X, .) at every stage,
carry (e1, e2) step by step. With the Jacobi pair they also give the stage
frames, one batched ``jacobi_matrix`` call gives M at all of them, and the
Jacobi step matrices carry (J, J') and (Jt, Jt'). A block in which anything
fails is replayed as one-step blocks. A row's bits depend neither on its
batch nor on its block's length, so block and replay agree bit for bit, and
both agree with stage-form RK4 of all 9 or 17 components (k = f(y) at each
stage) to rounding. At most one block per truncating seed is replayed.

An orbit starts from its start's ``diagnose`` row: the frame (e1, e2) and
J'(0) = B(0) J(0). The samples' B and M come from ``frame_terms``, the
kernel behind ``diagnose``, so sample 0 is that row bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import (_partials_inside, assemble_riemann, christoffel,
                        christoffel_with_partials, jacobi_matrix, real_eigenvalues)
from .errors import DomainError, GeoContactError, OutOfChart, PoleReached, StepTooLarge
from .field import UnitField, diagnose, frame_terms
from .geometry import ChartedManifold, as_points, inner

FRAME_DRIFT_LIMIT = 1e-6

#: RK4 steps of one seed per batched curvature call, in both modes. N seeds
#: share blocks of JACOBI_BLOCK // N steps, so a block's curvature batch has
#: at most 4 * JACOBI_BLOCK rows, and with the Jacobi pair its stencil 7 times
#: as many (7.3 MB of Gamma partials). Its step matrices add about ten stacks
#: of at most (count, 4, N, 4, 4) floats, 0.2 MB each. A block then peaks
#: below the post-pass of a 2000-step orbit (7 * 2001 rows).
JACOBI_BLOCK = 400


def rk4_step(f, t, y, h):
    """One classical Runge-Kutta 4 step for y' = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class Trajectory:
    """Orbit of a unit field with per-sample frames, B, M and Jacobi data.

    Array layout: t (n,), points (n, 3), e1/e2 (n, 3), B/M (n, 2, 2); when
    the canonical adapted pair was integrated (``with_jacobi``), its blocks
    J, Jdot, Jt, Jtdot are (n, 2) and A and ``adapted`` are (n,).
    """

    t: np.ndarray
    points: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    B: np.ndarray
    M: np.ndarray
    X_along: np.ndarray  # unit field values at the samples, (n, 3)
    step: float
    truncated: bool = False
    J: Optional[np.ndarray] = None
    Jdot: Optional[np.ndarray] = None
    Jt: Optional[np.ndarray] = None
    Jtdot: Optional[np.ndarray] = None
    A: Optional[np.ndarray] = None
    adapted: Optional[np.ndarray] = None  # per sample: max over the pair of |Jdot - B J|

    def __len__(self):
        return self.t.shape[0]

    @property
    def adapted_residual(self) -> Optional[float]:
        """max |Jdot - B J| over the samples and the pair."""
        return None if self.adapted is None else float(self.adapted.max())

    def ambient_jacobi(self, which="J"):
        """Adapted solution as ambient chart vectors J1*e1 + J2*e2, shape (n, 3)."""
        comp = getattr(self, which)
        if comp is None:
            raise ValueError("trajectory carries no Jacobi data")
        return comp[:, 0, None] * self.e1 + comp[:, 1, None] * self.e2


def _step_matrices(a, h):
    """From A at every stage of a block, ``a`` (count, 4, N, d, d), the RK4 step
    matrices P = I + h/6 (K1 + 2 K2 + 2 K3 + K4) of y' = A y, (count, N, d, d),
    and the stage maps S2, S3, S4 (count, 3, N, d, d) of the module docstring.
    Every product is per matrix, so a row's bits do not depend on its batch."""
    eye = np.eye(a.shape[-1])
    ks, maps = [a[:, 0]], []
    for c, node in enumerate((0.5, 0.5, 1.0), 1):
        maps.append(eye + (node * h) * ks[-1])
        ks.append(a[:, c] @ maps[-1])
    k1, k2, k3, k4 = ks
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), np.stack(maps, axis=1)


def _transport_matrix(gam, xv):
    """A = -Gamma(X, .) per row, so that parallel transport is e' = A e:
    A[n, k, j] = -Gamma^k_ij X^i, summed term by term so that a row's bits
    do not depend on its batch."""
    x = xv[:, None, :, None]
    return -(x[:, :, 0] * gam[:, :, 0] + x[:, :, 1] * gam[:, :, 1] + x[:, :, 2] * gam[:, :, 2])


def _jacobi_rates(m):
    """[[0, I], [-M, 0]] per row: (J, J')' of J'' = -M J as a matrix."""
    rates = np.zeros(m.shape[:-2] + (4, 4))
    rates[..., 0:2, 2:4] = np.eye(2)
    rates[..., 2:4, 0:2] = -m
    return rates


def _columns(v, d):
    """The (N, k d) state slice v as k column vectors of length d, (N, d, k),
    in C order, so that its products take the same path at every N."""
    return np.ascontiguousarray(np.swapaxes(v.reshape(len(v), -1, d), 1, 2))


def _rows(cols):
    """Column vectors (..., d, k) back as the state slice (..., k d) they came from."""
    return np.swapaxes(cols, -1, -2).reshape(cols.shape[:-2] + (-1,))


def _carry(steps, z):
    """z (N, d, k) and its images under the step matrices (count, N, d, d) in
    turn, (count + 1, N, d, k)."""
    out = np.empty((len(steps) + 1,) + z.shape)
    out[0] = z
    for s, step in enumerate(steps):
        out[s + 1] = step @ out[s]
    return out


def _stage_field(man, X, q, at_point=None):
    """X at the stage points q, from ``at_point`` at a one-row stage if given:
    the field table's ``ExprTable.at_point``, the same values on Python floats.
    Where the field's expression fails (DomainError) at a row outside the
    chart, the stage has left the chart: OutOfChart naming the first such row,
    as the curvature stencil would raise."""
    try:
        return X.value(q) if at_point is None else np.array([at_point(*q.tolist()[0])])
    except DomainError:
        man.require_inside(q)
        raise


def _rk4_rows(man, step, y, h):
    """One step ``step(y, h)`` of every row of ``y`` and the mask of rows still
    in the chart.

    If a stage or a stencil leaves the chart (``OutOfChart``), the step is
    redone one row at a time, so only the rows that raise alone stop.
    """
    try:
        nxt = step(y, h)
    except OutOfChart:
        if len(y) == 1:
            return y, np.zeros(1, dtype=bool)
        nxt, ok = y.copy(), np.zeros(len(y), dtype=bool)
        for k in range(len(y)):
            nxt[k:k + 1], ok[k:k + 1] = _rk4_rows(man, step, y[k:k + 1], h)
        return nxt, ok
    return nxt, man.contains(nxt[:, 0:3])


def _steps(man, step, y, count, h):
    """Up to ``count`` steps of the rows of y: per step, the mask of the rows
    that stay in the chart and their states. Stops when no row is left."""
    for _ in range(count):
        y, ok = _rk4_rows(man, step, y, h)
        if not ok.all():
            y = y[ok]
        yield ok, y
        if not len(y):
            return


def _jacobi_steps(man, X, y, nsteps, h, with_jacobi):
    """``_steps`` of the (N, 9) or (N, 17) states, in blocks of ``_jacobi_block``.

    After a block the rows whose last step ended outside the chart are
    dropped, one chart check per block. A block that raises any
    GeoContactError is replayed by ``_steps`` as one-step blocks, so a seed
    stops before its first step that leaves the chart and the first other
    failure is raised. Each replay ends a seed or raises: one block per
    truncating seed at most.
    """
    done = 0
    while done < nsteps:
        count = min(nsteps - done, max(1, JACOBI_BLOCK // len(y)))
        try:
            out = _jacobi_block(man, X, y, count, h, with_jacobi)
        except GeoContactError:  # one-step blocks raise the same error, or an earlier one
            block = _steps(man, lambda z, k: _jacobi_block(man, X, z, 1, k, with_jacobi)[0],
                           y, count, h)
        else:
            ok = man.contains(out[-1, :, 0:3])
            block = [(np.ones(len(y), dtype=bool), z) for z in out[:-1]] + [(ok, out[-1][ok])]
        for ok, y in block:
            yield ok, y
        done += count


def _jacobi_block(man, X, y, count, h, with_jacobi):
    """The states (count, N, 9 or 17) after each of ``count`` steps of the
    (N, 9) or (N, 17) states y.

    The point pass integrates p alone, on the field table's scalar program
    when the block has one row; one curvature batch gives Gamma (and
    R) at all its stages, with the metric checked there in both modes; the
    frame step matrices, from A = -Gamma(X, .) at every stage, carry (e1, e2)
    step by step. With the Jacobi pair they also give the stage frames, one
    ``jacobi_matrix`` call gives M at all of them, and the Jacobi step
    matrices carry (J, J') and (Jt, Jt'). A row's bits depend neither on its
    batch nor on ``count``. Raises what the field or the curvature raises, in
    that order: the field at each stage in turn, then the chart check of all
    the curvature points, then their metric checks. Inside the block a step
    end is the next step's first stage, so one outside the chart makes the
    block raise; the last step's ends are not checked here.
    """
    n, stages = len(y), []  # (point, field value) of every stage of the point pass
    table = X.component_exprs
    at_point = table.at_point if n == 1 and table is not None else None

    def field(t, q):
        stages.append((q, _stage_field(man, X, q, at_point)))
        return stages[-1][1]

    p, points = y[:, 0:3], np.empty((count, n, 3))
    for s in range(count):
        p = points[s] = rk4_step(field, 0.0, p, h)
    q, xv = (np.concatenate(a) for a in zip(*stages))
    g = np.empty((len(q), 3, 3))  # the metric, checked positive definite in both modes
    if with_jacobi:
        gam, dgam = christoffel_with_partials(man, q, g)
    else:
        gam = christoffel(man, q, g)
    stack = (count, 4, n)
    frame_steps, maps = _step_matrices(_transport_matrix(gam, xv).reshape(stack + (3, 3)), h)
    es = _carry(frame_steps, _columns(y[:, 3:9], 3))
    out = [points, _rows(es[1:])]
    if with_jacobi:
        frames = np.concatenate([es[:-1, None], maps @ es[:-1, None]], axis=1)
        m = jacobi_matrix(assemble_riemann(gam, dgam), g, xv, _rows(frames).reshape(-1, 2, 3))
        jacobi_steps = _step_matrices(_jacobi_rates(m).reshape(stack + (4, 4)), h)[0]
        out.append(_rows(_carry(jacobi_steps, _columns(y[:, 9:], 4))[1:]))
    return np.concatenate(out, axis=-1)


def orbit_steps(t_end, step) -> int:
    """RK4 steps of the uniform grid from 0 that lands exactly on t_end.

    Raises ValueError if t_end / step is not finite or one seed's trajectory
    buffer, steps + 1 states of 17 floats (with the Jacobi pair), is larger
    than numpy can address.
    """
    ratio = t_end / step
    nsteps = max(1, int(round(ratio))) if np.isfinite(ratio) else np.inf
    if (nsteps + 1) * 17 * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"{t_end!r} is {nsteps:.3g} steps of {step!r}, "
                         "more than one trajectory buffer can hold")
    return nsteps


def integrate_orbits(man: ChartedManifold, X: UnitField, starts, t_end, step,
                     with_jacobi=True) -> list[Trajectory]:
    """Integrate the orbits of X from an (N, 3) batch of starts with transported frames.

    All orbits advance as one RK4 state, in blocks whose stages share one
    batched curvature call: ``christoffel`` for the transport alone, or
    ``christoffel_with_partials`` with ``with_jacobi`` (see the module
    docstring).
    A seed whose orbit or RK4 stage leaves the chart stops there
    (``truncated``) while the others go on; each trajectory equals the one
    its start gives alone. The frames and B(0) are the starts' ``diagnose``
    rows; with ``with_jacobi`` the canonical adapted pair, J(0) = e1 and
    Jt(0) = e2 with J'(0) = B(0) J(0), is integrated alongside.
    A trajectory also ends before its first sample whose curvature stencil
    leaves the chart, and is then ``truncated``. Raises OutOfChart naming the
    first start outside the chart or whose own stencil leaves it, ValueError
    for the step or t_end, then what ``diagnose`` raises at the first bad
    start: a metric error, NotUnit or DegenerateSeed.
    """
    starts = as_points(starts)[0]
    outside = np.flatnonzero(~man.contains(starts))
    if outside.size:
        raise OutOfChart(f"orbit start {starts[outside[0]]} outside the chart of {man.name!r}")
    near = np.flatnonzero(~_partials_inside(man, starts))
    if near.size:
        raise OutOfChart(f"orbit start {starts[near[0]]}: its curvature stencil (diff_step "
                         f"{man.diff_step!r}) leaves the chart of {man.name!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    if not 0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    start = diagnose(man, X, starts)  # sample 0's frames and B(0)
    y = [starts, start.frame[:, :, 1], start.frame[:, :, 2]]
    for j0 in np.eye(2):  # J(0) = e1 and Jt(0) = e2, with J'(0) = B(0) J(0)
        y += [np.broadcast_to(j0, (len(starts), 2)), start.B @ j0]
    y = np.concatenate(y, axis=1)[:, :17 if with_jacobi else 9]  # the transport: p, e1, e2

    nsteps = orbit_steps(t_end, step)
    step = t_end / nsteps
    hist = np.empty((len(y), nsteps + 1, y.shape[1]))  # per seed, its states in time order
    hist[:, 0] = y
    rows = np.arange(len(y))  # the seeds still in the chart
    samples = np.full(len(y), nsteps + 1)
    for s, (ok, y) in enumerate(_jacobi_steps(man, X, y, nsteps, step, with_jacobi), 1):
        if not ok.all():
            samples[rows[~ok]] = s
            rows = rows[ok]
            if not rows.size:
                break
        hist[rows, s] = y
    return [_trajectory(man, X, hist[k, :samples[k]], step, bool(samples[k] <= nsteps),
                        with_jacobi) for k in range(len(hist))]


def integrate_orbit(man: ChartedManifold, X: UnitField, p0, t_end, step,
                    with_jacobi=True) -> Trajectory:
    """The orbit of X from one start p0: ``integrate_orbits`` with N = 1."""
    return integrate_orbits(man, X, [p0], t_end, step, with_jacobi)[0]


def _trajectory(man, X, arr, step, truncated, with_jacobi) -> Trajectory:
    """One seed's trajectory from its states arr (n, state): frame-drift check, B, M, Jacobi.

    It ends before the first sample whose curvature stencil leaves the chart.
    """
    inside = _partials_inside(man, arr[:, 0:3])
    if not inside.all():
        arr, truncated = arr[:np.argmin(inside)], True
    n = arr.shape[0]
    t = np.arange(n) * step
    points = arr[:, 0:3]
    e1 = arr[:, 3:6]
    e2 = arr[:, 6:9]

    g = np.empty((n, 3, 3))
    gam, dgam = christoffel_with_partials(man, points, g)
    xv = X.value(points)
    xn = xv / np.sqrt(inner(g, xv, xv))[:, None]
    frame = np.stack([xn, e1, e2], axis=2)
    drift = float(np.abs(np.swapaxes(frame, 1, 2) @ g @ frame - np.eye(3)).max())
    if drift > FRAME_DRIFT_LIMIT:
        raise StepTooLarge(
            f"frame orthonormality drifted to {drift:.3e}; halve the step")

    _, gram, M = frame_terms(man, X, points, g, gam, dgam, xv, frame)
    traj = Trajectory(t=t, points=points, e1=e1, e2=e2, B=np.swapaxes(gram[:, 1:, 1:], 1, 2),
                      M=M, X_along=xn, step=step, truncated=truncated)
    if with_jacobi:
        traj.J, traj.Jdot, traj.Jt, traj.Jtdot = np.moveaxis(arr[:, 9:].reshape(n, 4, 2), 1, 0)
        traj.A = traj.J[:, 0] * traj.Jt[:, 1] - traj.J[:, 1] * traj.Jt[:, 0]
        traj.adapted = np.maximum(_adapted_defect(traj.B, traj.J, traj.Jdot),
                                  _adapted_defect(traj.B, traj.Jt, traj.Jtdot))
    return traj


def _adapted_defect(B, J, Jdot):
    """|Jdot - B J| per sample."""
    return np.linalg.norm(Jdot - np.einsum("nij,nj->ni", B, J), axis=1)


# ---------------------------------------------------------------------------
# Adapted Jacobi fields
# ---------------------------------------------------------------------------

@dataclass
class AdaptedJacobi:
    """An adapted Jacobi solution along an orbit, in frame components."""

    t: np.ndarray
    J: np.ndarray      # (n, 2)
    Jdot: np.ndarray   # (n, 2)
    residual: float    # max |Jdot - B J| over the samples

    def norms(self):
        return np.linalg.norm(self.J, axis=1)


def adapted_jacobi(man: ChartedManifold, traj: Trajectory, v0) -> AdaptedJacobi:
    """The adapted Jacobi field with J(0) = v0 along traj's orbit.

    v0 is an ambient tangent vector orthogonal to the field at the orbit
    start (to within 1e-8). The initial derivative J'(0) = B(0) J(0) is
    linear in J(0), so the field is c1 J + c2 Jt of the trajectory's
    canonical pair, (c1, c2) the frame components of v0. The reported
    residual measures how well J' = beta(J) persists along the orbit.
    """
    if traj.J is None:
        raise ValueError("trajectory was integrated without the adapted pair")
    g0 = man.metric_at(traj.points[0])
    v0 = np.asarray(v0, dtype=float)
    if abs(inner(g0, v0, traj.X_along[0])) > 1e-8:
        raise ValueError("v0 must be orthogonal to the field at the orbit start")
    c1, c2 = inner(g0, v0, traj.e1[0]), inner(g0, v0, traj.e2[0])
    J = c1 * traj.J + c2 * traj.Jt
    Jdot = c1 * traj.Jdot + c2 * traj.Jtdot
    return AdaptedJacobi(t=traj.t, J=J, Jdot=Jdot,
                         residual=float(_adapted_defect(traj.B, J, Jdot).max()))


# ---------------------------------------------------------------------------
# Residuals along trajectories
# ---------------------------------------------------------------------------

def riccati_residuals(traj: Trajectory) -> np.ndarray:
    """|| B' + B^2 + M ||_F per sample in the parallel frame, B' by central
    differences; NaN at the two end samples."""
    if len(traj) < 3:
        raise ValueError("need at least 3 samples")
    b, m, h = traj.B, traj.M, traj.step
    bdot = (b[2:] - b[:-2]) / (2.0 * h)
    res = bdot + np.einsum("nij,njk->nik", b[1:-1], b[1:-1]) + m[1:-1]
    out = np.full(len(traj), np.nan)
    out[1:-1] = np.sqrt((res ** 2).sum(axis=(1, 2)))
    return out


def riccati_residual(traj: Trajectory) -> float:
    """max over interior samples of || B' + B^2 + M ||_F in the parallel frame."""
    return float(np.nanmax(riccati_residuals(traj)))


def trace_evolution_residual(traj: Trajectory) -> float:
    """max over interior samples of | (tr B)' + Ric(X) + tr(B^2) |."""
    if len(traj) < 3:
        raise ValueError("need at least 3 samples")
    trb = np.trace(traj.B, axis1=1, axis2=2)
    ric = np.trace(traj.M, axis1=1, axis2=2)
    trb2 = np.einsum("nij,nji->n", traj.B, traj.B)
    ddt = (trb[2:] - trb[:-2]) / (2.0 * traj.step)
    return float(np.abs(ddt + ric[1:-1] + trb2[1:-1]).max())


@dataclass
class WronskianResult:
    t: np.ndarray
    A: np.ndarray            # measured determinant of the adapted pair
    A_expected: np.ndarray   # exp of the trapezoid integral of tr B
    residual: float          # max |A - A_expected|


def wronskian(traj: Trajectory) -> WronskianResult:
    """Wronskian A(t) of the canonical adapted pair against exp(int tr B)."""
    if traj.A is None:
        raise ValueError("trajectory was integrated without the adapted pair")
    trb = np.trace(traj.B, axis1=1, axis2=2)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (trb[1:] + trb[:-1]) * traj.step)])
    expected = np.exp(integral)
    return WronskianResult(t=traj.t, A=traj.A, A_expected=expected,
                           residual=float(np.abs(traj.A - expected).max()))


def max_parallel_jacobi_defect(traj: Trajectory, window: float = 0.0) -> float:
    """max of ||M(t + w) - M(t)||_F / w, w = ``window`` in whole steps (at least one,
    at most the orbit; inf for one sample). A longer window damps the 1/w gain on
    curvature noise while still detecting genuine drift of R_X along the flow."""
    if len(traj) < 2:
        return np.inf
    stride = max(1, min(len(traj) - 1, int(round(window / traj.step))))
    dm = traj.M[stride:] - traj.M[:-stride]
    return float(np.sqrt((dm ** 2).sum(axis=(1, 2))).max() / (stride * traj.step))


def noncontact_eigen_drift(traj: Trajectory):
    """Optional diagnostic: eigenvalue drift along a non-contact orbit.

    Returns the max deviation of the real shape-operator eigenvalues from
    their initial values, or None if any sample is contact (|B21 - B12|
    above 1e-8). Reported for information only.
    """
    defect = traj.B[:, 1, 0] - traj.B[:, 0, 1]
    if np.any(np.abs(defect) > 1e-8):
        return None
    lam, mu = real_eigenvalues(traj.B)
    return float(max(np.abs(lam - lam[0]).max(), np.abs(mu - mu[0]).max()))


# ---------------------------------------------------------------------------
# Space-form closed forms
# ---------------------------------------------------------------------------

def arcoth(x):
    """Inverse hyperbolic cotangent, 0.5 log((x+1)/(x-1)) for |x| > 1."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) <= 1.0):
        raise ValueError("arcoth requires |x| > 1")
    out = 0.5 * np.log((x + 1.0) / (x - 1.0))
    return float(out) if out.ndim == 0 else out


def jacobi_component_closed_form(kappa: float, j0: float, jp0: float, t):
    """Solution of j'' + kappa j = 0 with j(0) = j0, j'(0) = jp0."""
    t = np.asarray(t, dtype=float)
    if kappa > 0:
        r = np.sqrt(kappa)
        out = j0 * np.cos(r * t) + (jp0 / r) * np.sin(r * t)
    elif kappa < 0:
        r = np.sqrt(-kappa)
        out = j0 * np.cosh(r * t) + (jp0 / r) * np.sinh(r * t)
    else:
        out = j0 + jp0 * t
    return float(out) if out.ndim == 0 else out


def first_zero_space_form(c: float, lam: float):
    """Smallest positive zero of the normalised component (j0 = 1, j'0 = lam).

    Returns None when the component stays positive for positive times; for
    c < 0 this is exactly the rigidity regime lam >= -sqrt(|c|).
    """
    if c > 0:
        r = np.sqrt(c)
        return float((np.pi / 2 - np.arctan(-lam / r)) / r)  # arccot into (0, pi)
    if c == 0:
        return -1.0 / lam if lam < 0 else None
    r = np.sqrt(-c)
    ratio = -lam / r
    if ratio > 1.0:
        return float(arcoth(ratio) / r)
    return None


def trace_comparison(f0: float, t: float) -> float:
    """Comparison solution of f' + f^2/2 = 0 with f(0) = f0.

    Closed form ((t/2) + 1/f0)^(-1); blows up at t = -2/f0, where
    PoleReached is raised.
    """
    if f0 == 0.0:
        raise ValueError("f0 must be nonzero")
    if abs(t + 2.0 / f0) < 1e-12:
        raise PoleReached(f"comparison function pole at t = {-2.0 / f0!r}")
    return 1.0 / (t / 2.0 + 1.0 / f0)
