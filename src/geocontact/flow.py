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
expressions runs this point pass on Python floats: the state is a ``_Point``
of three floats and the stage values come from the table's scalar program
(``ExprTable.at_point``), the same statements on Python floats, bit for bit
the numpy pass's values without its per-call overhead. ``rk4_step`` still
makes every step, so its tableau is the only one. The block then makes one
batched curvature call at all those stages: ``christoffel`` for the
transport alone, or ``christoffel_with_partials`` for Gamma and its partials
with the Jacobi pair. The frame step matrices of the block, from A = -Gamma(X, .) at every
stage, carry (e1, e2) step by step. With the Jacobi pair they also give the
stage frames, one batched ``jacobi_matrix`` call gives M at all of them
(from Gamma and its partials, without the full Riemann tensor), and the
Jacobi step matrices carry (J, J') and (Jt, Jt'). A block in which anything
fails is replayed seed by seed as one-step blocks (``_replay``). A row's bits
depend neither on its batch nor on its block's length, so block and replay
agree bit for bit, and both agree with stage-form RK4 of all 9 or 17
components (k = f(y) at each stage) to rounding. The stop rule, in both
modes: a seed stops before its first step that leaves the chart or whose
end's curvature stencil does (``_partials_inside``, the post-pass's reach).
A block applies it once, at all its step ends, and hands back the steps each
seed made; the replay reads them from its one-step blocks, so the post-pass
keeps every sample it is given. Only the replay tells a chart exit
(OutOfChart, or a DomainError outside the chart), which stops a seed, from
any other error, which it raises; a failed block costs at most
``JACOBI_BLOCK`` one-seed steps.

Each sample but the last is the first stage of its step. ``integrate_orbits``
decides where a sample's g, Gamma and its partials come from: with the
Jacobi pair, the blocks' (and replays') rows there, and a one-row
``christoffel_with_partials`` call at each seed's last sample; without it,
whose blocks compute no partials, one such call at all the seed's samples.
The post-pass (``_trajectory``) reads what it is given.

An orbit starts from its start's ``diagnose`` row: the frame (e1, e2) and
J'(0) = B(0) J(0). The samples' B and M come from ``frame_terms``, the
kernel behind ``diagnose``, so sample 0 is that row bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import (_partials_inside, christoffel, christoffel_with_partials,
                        jacobi_matrix, real_eigenvalues)
from .errors import DegenerateSeed, DomainError, GeoContactError, OutOfChart, StepTooLarge
from .field import UnitField, diagnose, frame_terms
from .geometry import ChartedManifold, as_points, inner

FRAME_DRIFT_LIMIT = 1e-6

#: RK4 steps of one seed per batched curvature call, in both modes. N seeds
#: share blocks of JACOBI_BLOCK // N steps, so a block's curvature batch has
#: at most 4 * JACOBI_BLOCK rows, and with the Jacobi pair its stencil 7 times
#: as many (7.3 MB of Gamma partials). Its step matrices add about ten stacks
#: of at most (count, 4, N, 4, 4) floats, 0.2 MB each. With the Jacobi pair a
#: seed keeps g, Gamma and its partials at each sample, 117 floats (1.9 MB for a
#: 2000-step orbit), where a post-pass stencil of 7 * 2001 rows would peak higher.
JACOBI_BLOCK = 400

#: the shapes of g, Gamma and its partials at one point, the curvature rows
#: that a block with the Jacobi pair hands back at each step's first stage
_CURVATURE = ((3, 3), (3, 3, 3), (3, 3, 3, 3))


def rk4_step(f, t, y, h):
    """One classical Runge-Kutta 4 step for y' = f(t, y): the one RK4 tableau.

    y and f's values are numpy arrays, or one point's ``_Point`` of floats,
    whose arithmetic rounds each component as numpy rounds it in a (1, 3) row.
    """
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _Point(tuple):
    """Three floats with the two operations ``rk4_step`` applies to a state, p + q
    and c * p, component by component as numpy does them on a (1, 3) row, so a
    one-seed point pass on Python floats has the numpy pass's bits."""

    __slots__ = ()

    def __add__(self, other):
        return _Point((self[0] + other[0], self[1] + other[1], self[2] + other[2]))

    def __rmul__(self, c):
        return _Point((c * self[0], c * self[1], c * self[2]))


@dataclass
class Trajectory:
    """Orbit of a unit field with per-sample frames, B, M and Jacobi data.

    Array layout: t (n,), points (n, 3), e1/e2 (n, 3), B/M (n, 2, 2); when
    the canonical adapted pair was integrated (``with_jacobi``), its blocks
    J, Jdot, Jt, Jtdot are (n, 2) and A and ``adapted`` are (n,). The adapted
    field from c1 e1 + c2 e2 is c1 J + c2 Jt, in the chart J1 e1 + J2 e2.
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


def _replay(man, X, y, count, h, with_jacobi):
    """The block of ``count`` steps of y that raised, redone one step of one
    seed at a time, handed back as a block hands it back: the states (count,
    N, state) after each step, the curvature rows at each step's first stage
    and the steps each seed made. A seed stops at its first one-step block
    that makes no step or leaves the chart: OutOfChart, or a DomainError at a
    point outside the chart. Any other error is raised: the first failing
    seed's, as that seed alone raises it."""
    out, made = np.empty((count,) + y.shape), np.zeros(len(y), dtype=int)
    firsts = [np.empty((count, len(y)) + shape) for shape in _CURVATURE] if with_jacobi else []
    for k in range(len(y)):
        z = y[k:k + 1]
        for s in range(count):
            try:
                states, first, step_made = _jacobi_block(man, X, z, 1, h, with_jacobi)
            except OutOfChart:
                break
            except DomainError as exc:
                if man.contains(exc.point):
                    raise
                break
            if not step_made[0]:
                break
            z = states[0]
            out[s, k], made[k] = z[0], s + 1
            for buf, row in zip(firsts, first):
                buf[s, k] = row[0, 0]
    return out, firsts, made


def _jacobi_block(man, X, y, count, h, with_jacobi):
    """The states (count, N, 9 or 17) after each of ``count`` steps of the
    (N, 9) or (N, 17) states y; with the Jacobi pair g, Gamma and its
    partials at each step's first stage, (count, N, ...) each (else none);
    and the steps (N,) each seed made by the stop rule of the module docstring.

    The point pass integrates p alone: for one row of a field with a table,
    on Python floats, the state a ``_Point`` and the stage values from the
    table's scalar program (``ExprTable.at_point``); else on numpy rows. Its
    stage points, stage values and step ends become one array each. One
    curvature batch gives Gamma (and its partials) at all its stages, whose
    metric ``_require_metric`` checks; the frame step matrices, from
    A = -Gamma(X, .) at every stage, carry (e1, e2) step by step. With the
    Jacobi pair they also give the stage frames, one ``jacobi_matrix`` call
    gives M at all of them, and the Jacobi step matrices carry (J, J') and
    (Jt, Jt'). A row's bits depend neither on its batch nor on ``count``.
    Raises what the field or the curvature raises, in that order: the field
    at each stage in turn, then DegenerateSeed at the first stage point inside
    the chart where its value is not finite, then the chart check of all the
    curvature points, then their metric checks.
    """
    n, table = len(y), X.component_exprs
    at_point = table.at_point if n == 1 and table is not None else None  # fetched once
    qs, values, ends = [], [], []  # every stage's point and field value, every step's end
    record = list.extend if at_point else list.append  # flat float lists, or lists of rows

    def field(t, q):
        xv = _Point(at_point(*q)) if at_point else X.value(q)
        record(qs, q)
        record(values, xv)
        return xv

    p = _Point(y[0, 0:3].tolist()) if at_point else y[:, 0:3]
    for _ in range(count):
        p = rk4_step(field, 0.0, p, h)
        record(ends, p)
    points = np.array(ends).reshape(count, n, 3)
    q, xv = (np.array(a).reshape(-1, 3) for a in (qs, values))
    if not np.isfinite(xv).all():  # beyond the chart, the curvature's chart check stops the seed
        bad = q[~np.isfinite(xv).all(axis=1)]
        inside = man.contains(bad)
        if inside.any():
            raise DegenerateSeed(f"field {X.name!r} is not finite at {bad[np.argmax(inside)]}")
    if with_jacobi:
        g, gam, dgam = christoffel_with_partials(man, q)
    else:
        gam = christoffel(man, q)
    # the stop rule, once nothing can raise
    inside = _partials_inside(man, points.reshape(-1, 3)).reshape(count, n)
    made = np.where(inside.all(axis=0), count, inside.argmin(axis=0))
    stack = (count, 4, n)
    frame_steps, maps = _step_matrices(_transport_matrix(gam, xv).reshape(stack + (3, 3)), h)
    es = _carry(frame_steps, _columns(y[:, 3:9], 3))
    out = [points, _rows(es[1:])]
    if not with_jacobi:
        return np.concatenate(out, axis=-1), [], made
    frames = np.concatenate([es[:-1, None], maps @ es[:-1, None]], axis=1)
    m = jacobi_matrix(gam, dgam, g, xv, _rows(frames).reshape(-1, 2, 3))
    jacobi_steps = _step_matrices(_jacobi_rates(m).reshape(stack + (4, 4)), h)[0]
    out.append(_rows(_carry(jacobi_steps, _columns(y[:, 9:], 4))[1:]))
    # copies: views would hold the block's whole curvature batch through the next block
    firsts = [np.ascontiguousarray(a.reshape(stack + a.shape[1:])[:, 0]) for a in (g, gam, dgam)]
    return np.concatenate(out, axis=-1), firsts, made


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
    docstring). A seed stops before its first step that leaves the chart or
    whose end's curvature stencil does, and is then ``truncated``, while the
    others go on; each trajectory equals the one its start gives alone. The
    frames and B(0) are the starts' ``diagnose`` rows; with ``with_jacobi``
    the canonical adapted pair, J(0) = e1 and Jt(0) = e2 with
    J'(0) = B(0) J(0), is integrated alongside, and each seed keeps g, Gamma
    and its partials from its blocks at every sample but its last, whose
    rows come from one one-row ``christoffel_with_partials`` call; without
    it, one call at all its samples gives them. Raises OutOfChart naming the
    first start outside the chart or whose own stencil leaves it, ValueError
    for the step or t_end, then what ``diagnose`` raises at the first bad
    start: a metric error, NotUnit or DegenerateSeed. A failed block replays
    seed by seed, so an error along the orbits other than a chart exit is
    what the first such seed, in seed order, raises alone.
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
    # per seed, g, Gamma and its partials at its samples, with the Jacobi pair
    kept = [np.empty(hist.shape[:2] + shape) for shape in _CURVATURE] if with_jacobi else []
    rows = np.arange(len(y))  # the seeds still going
    samples, done = np.ones(len(y), dtype=int), 0
    while done < nsteps and rows.size:
        count = min(nsteps - done, max(1, JACOBI_BLOCK // len(rows)))
        try:
            out, firsts, made = _jacobi_block(man, X, y, count, step, with_jacobi)
        except GeoContactError:  # the seeds one at a time stop or raise
            out, firsts, made = _replay(man, X, y, count, step, with_jacobi)
        hist[rows, done + 1:done + 1 + count] = np.swapaxes(out, 0, 1)
        for buf, first in zip(kept, firsts):  # step s's first stage is sample s
            buf[rows, done:done + count] = np.swapaxes(first, 0, 1)
        samples[rows] += made
        rows, y, done = rows[made == count], out[-1, made == count], done + count
    trajectories = []
    for k, n in enumerate(samples):
        if with_jacobi:  # the last sample is the first stage of no step the seed made
            curvature = [buf[k, :n] for buf in kept]
            for buf, row in zip(curvature, christoffel_with_partials(man, hist[k, n - 1:n, 0:3])):
                buf[-1] = row[0]
        else:
            curvature = christoffel_with_partials(man, hist[k, :n, 0:3])
        trajectories.append(_trajectory(man, X, hist[k, :n], step, bool(n <= nsteps),
                                        with_jacobi, curvature))
    return trajectories


def integrate_orbit(man: ChartedManifold, X: UnitField, p0, t_end, step,
                    with_jacobi=True) -> Trajectory:
    """The orbit of X from one start p0: ``integrate_orbits`` with N = 1."""
    return integrate_orbits(man, X, [p0], t_end, step, with_jacobi)[0]


def _trajectory(man, X, arr, step, truncated, with_jacobi, curvature) -> Trajectory:
    """One seed's trajectory from all its states arr (n, state) and g, Gamma
    and its partials at every sample, ``curvature``, (n, ...) each: frame-drift
    check, B, M, Jacobi."""
    n = arr.shape[0]
    t = np.arange(n) * step
    points = arr[:, 0:3]
    e1 = arr[:, 3:6]
    e2 = arr[:, 6:9]

    g, gam, dgam = curvature
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
    """max over interior samples of || B' + B^2 + M ||_F in the parallel frame,
    NaN where one of them is."""
    return float(np.max(riccati_residuals(traj)[1:-1]))


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


def noncontact_eigen_drift(traj: Trajectory, not_contact=1e-8):
    """Optional diagnostic: eigenvalue drift along a non-contact orbit.

    Returns the max deviation of the real shape-operator eigenvalues from
    their initial values, or None if any sample is contact (|B21 - B12|
    above ``tolerances.not_contact``). Reported for information only.
    """
    defect = traj.B[:, 1, 0] - traj.B[:, 0, 1]
    if np.any(np.abs(defect) > not_contact):
        return None
    lam, mu = real_eigenvalues(traj.B)
    return float(max(np.abs(lam - lam[0]).max(), np.abs(mu - mu[0]).max()))


# ---------------------------------------------------------------------------
# Space-form closed forms
# ---------------------------------------------------------------------------

def arcoth(x):
    """0.5 log((x+1)/(x-1)) for |x| > 1, the c < 0 zero of ``first_zero_space_form``."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) <= 1.0):
        raise ValueError("arcoth requires |x| > 1")
    out = 0.5 * np.log((x + 1.0) / (x - 1.0))
    return float(out) if out.ndim == 0 else out


def first_zero_space_form(c: float, lam: float):
    """Smallest positive zero of the normalised component (j0 = 1, j'0 = lam).

    None when it stays positive for positive times; for c < 0 exactly the
    rigidity regime lam >= -sqrt(|c|). ``demos/03_space_form_eigenvalues.py`` prints it.
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
