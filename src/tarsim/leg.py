"""Four-joint robotic leg: DH kinematics, closed-form IK, retargeting.

The leg chain is coxa, trochanter, femur, tibia — four revolute joints
described by standard Denavit-Hartenberg rows: a yawing coxa carrying a
planar trochanter/femur/tibia chain.  The twists are fixed (pi/2 at the
coxa, 0 past it) and every d is 0, so a row is a link length and a
theta offset, and the tip has one closed form (``_tip``) that FK, the
Jacobian and the IK share: FK's position is bitwise the point the IK
measures its residual from.  IK tracks tip position only (3
constraints, 4 DOF) and is closed form: the candidate nearest the warm
start resolves the redundancy, and ``iterations`` counts the candidates
evaluated.  A target where no candidate lands within the joint limits
raises ``NotReachable``.  FK and the Jacobian are batched over joint
vectors of shape (..., 4).
A joint path (``trajectory_to_joints``) gets the answers of one warm-
started IK call per sample, bit for bit, but solves them in numpy batch
rounds that build every closed-form candidate of the path at once: a
round guesses each later sample's pick from the round's warm start,
checks every guess from the guess before it, and accepts the guesses up
to the first miss and that sample's own pick.  The two paths share one
arithmetic (numpy's arccos, arctan2, hypot, cos and sin in the same
formulas) and one pick rule (the landing candidate with the smallest
step from the warm start, ties to the first in one candidate order).
Whether a path is reachable at all needs no warm start: ``_reaches``
tests every sample at once on the candidates that do not depend on it.
Recorded walking trajectories are retargeted onto the leg by uniform
scaling about a reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .table import read_columns, write_table

JOINT_NAMES = ("coxa", "trochanter", "femur", "tibia")

IK_TOL_MM = 1e-6

JOINT_LIMIT_DEG = 150.0
RETARGET_SCALE = 8.0

# closed-form angles that miss a joint limit by no more than this are
# taken onto it: acos near +-1 turns rounding into errors of ~1e-8 rad,
# and a target on the workspace edge may be reachable only at a limit.
# The FK check still decides whether such a candidate lands.
LIMIT_SLACK_RAD = 1e-6
# a pin's cos(beta) past +-1 by no more than an angle of LIMIT_SLACK_RAD
# from 0 or pi would put it is rounding at full stretch or fold, and is
# taken onto +-1
COS_SLACK = 1.0 - math.cos(LIMIT_SLACK_RAD)


class NotReachable(RuntimeError):
    """IK failed to reach the target within tolerance."""

    def __init__(self, residual_mm: float, iterations: int,
                 sample_index: int | None = None):
        self.residual_mm = residual_mm
        self.iterations = iterations
        self.sample_index = sample_index
        at = f" at sample {sample_index}" if sample_index is not None else ""
        super().__init__(
            f"target not reachable{at}: best residual "
            f"{residual_mm:.6g} mm after {iterations} iterations")


@dataclass(frozen=True)
class DHRow:
    """One Denavit-Hartenberg row: link length a (mm) and theta offset
    (rad).  The twists are fixed, pi/2 at the coxa and 0 past it, and d
    is 0, so FK, the Jacobian and the IK share one closed-form tip law
    (``_tip``)."""

    a: float
    theta_offset: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.theta_offset)):
            raise ValueError("DH parameters must be finite")
        if self.a < 0:
            raise ValueError("link length a must be >= 0")
        # plain floats: the IK's scalar geometry must not turn numpy
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "theta_offset", float(self.theta_offset))


@dataclass(frozen=True)
class LegModel:
    """Four revolute joints plus per-joint angle limits (rad).

    The femur and tibia need a length: the closed-form IK closes the
    loop with them.  The coxa and trochanter may have none.

    The joint space is derived once, read-only: the limits ``lower`` and
    ``upper``, the mid-limit warm start, the link lengths, the theta
    offsets, the limits of the DH angles ``q + theta_offset`` that the
    IK kernels work on, and whether every DH joint spans less than a
    turn (less twice ``LIMIT_SLACK_RAD``: then each ``_wrap`` has at
    most one representative to take, whatever the warm start).
    """

    rows: tuple[DHRow, ...]
    joint_limits: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "joint_limits",
                          tuple((float(lo), float(hi))
                                for lo, hi in self.joint_limits))
        if len(self.rows) != 4:
            raise ValueError(f"leg model needs 4 joints, got {len(self.rows)}")
        for name, row in zip(JOINT_NAMES[2:], self.rows[2:]):
            if row.a == 0.0:
                raise ValueError(f"{name} link length a must be > 0, got "
                                 f"{row.a}")
        if len(self.joint_limits) != 4:
            raise ValueError("joint_limits must have 4 (min, max) pairs")
        for lo, hi in self.joint_limits:
            if not lo < hi:
                raise ValueError(f"joint limit min must be < max, got ({lo}, {hi})")
        lower, upper = (np.array(v) for v in zip(*self.joint_limits))
        offsets = np.array([r.theta_offset for r in self.rows])
        for name, arr in (("lower", lower), ("upper", upper),
                          ("_mid", 0.5 * (lower + upper)),
                          ("_offsets", offsets)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        dh_limits = tuple(zip((lower + offsets).tolist(),
                              (upper + offsets).tolist()))
        object.__setattr__(self, "_lengths", tuple(r.a for r in self.rows))
        object.__setattr__(self, "_dh_bounds", dh_limits)
        object.__setattr__(self, "_single_turn", all(
            hi - lo + 2.0 * LIMIT_SLACK_RAD < math.tau for lo, hi in dh_limits))

    def _to_dh(self, q) -> np.ndarray:
        """The DH angles of joint angles q (..., 4): clipped to the
        limits, then shifted by the theta offsets."""
        return np.minimum(np.maximum(q, self.lower), self.upper) + self._offsets

    def _to_joint(self, dh) -> np.ndarray:
        """The joint angles of DH angles (..., 4): shifted back by the
        theta offsets, then clipped to the limits."""
        return np.minimum(np.maximum(dh - self._offsets, self.lower),
                          self.upper)

    def reach_mm(self) -> float:
        """Radius of the sphere certainly containing the workspace."""
        return float(sum(r.a for r in self.rows))


@dataclass(frozen=True)
class Pose:
    """Tip pose: position (mm) and rotation matrix, batched as q was."""

    position: np.ndarray
    rotation: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped 3D points: t_ms (N,), points (N, 3) in mm."""

    t_ms: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_ms, dtype=float)
        p = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if t.shape[0] != p.shape[0]:
            raise ValueError("t_ms and points must have the same length")
        if t.shape[0] >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "t_ms", t)
        object.__setattr__(self, "points", p)

    def __len__(self) -> int:
        return self.t_ms.shape[0]


def forward_kinematics(model: LegModel, q) -> Pose:
    """Tip pose from joint angles of shape (..., 4), in closed form.

    The position is ``_tip``'s, which the IK decides with.  The rotation
    is Rz(yaw)·Rx(pi/2)·Rz(t3), t3 the tibia's absolute angle.  A single
    (4,) vector gives a (3,) position and a (3, 3) rotation; a batch of
    shape (..., 4) gives (..., 3) and (..., 3, 3).
    """
    q = np.asarray(q, dtype=float)
    if q.ndim == 0 or q.shape[-1] != 4 or not np.all(np.isfinite(q)):
        raise ValueError("q must be finite joint angles of shape (..., 4)")
    th = np.moveaxis(q + model._offsets, -1, 0)
    x, y, z, t3 = _tip(model._lengths, th)
    cy, sy, c3, s3 = np.cos(th[0]), np.sin(th[0]), np.cos(t3), np.sin(t3)
    rotation = np.stack([cy * c3, -cy * s3, sy, sy * c3, -sy * s3, -cy,
                         s3, c3, np.zeros_like(c3)], axis=-1)
    return Pose(np.stack([x, y, z], axis=-1),
                rotation.reshape(q.shape[:-1] + (3, 3)))


def jacobian(model: LegModel, q) -> np.ndarray:
    """3x4 position Jacobian (mm/rad); (..., 3, 4) for a batch of q.

    The derivative of ``_tip`` over the same angles: the coxa swings the
    tip about z, and a planar joint turns the links past it in the leg
    plane, whose reach h and height v they make.
    """
    a0, a1, a2, a3 = model._lengths
    yaw, t1, q2, q3 = np.moveaxis(np.asarray(q, dtype=float) + model._offsets,
                                  -1, 0)
    t2 = t1 + q2
    t3 = t2 + q3
    h3, v3 = a3 * np.cos(t3), a3 * np.sin(t3)
    h2, v2 = h3 + a2 * np.cos(t2), v3 + a2 * np.sin(t2)
    h1, v1 = h2 + a1 * np.cos(t1), v2 + a1 * np.sin(t1)
    cy, sy = np.cos(yaw), np.sin(yaw)
    out = a0 + h1
    J = np.zeros(np.shape(yaw) + (3, 4))
    J[..., 0, 0], J[..., 1, 0] = -out * sy, out * cy
    for col, (h, v) in enumerate(((h1, v1), (h2, v2), (h3, v3)), 1):
        J[..., 0, col], J[..., 1, col], J[..., 2, col] = -v * cy, -v * sy, h
    return J


@dataclass(frozen=True)
class IKResult:
    q: np.ndarray
    residual_mm: float
    iterations: int


def inverse_kinematics(model: LegModel, target, q0=None,
                       tol_mm: float = IK_TOL_MM) -> IKResult:
    """Position-only IK in closed form; see ``_closed_form``.

    That works on the DH angles ``q + theta_offset``: the warm start and
    the limits are shifted by the offsets and the answer is shifted back
    and clipped to the limits (``LegModel._to_dh`` and ``_to_joint``).
    Of the candidates that lie inside the joint limits and land within
    ``tol_mm``, the one nearest ``q0`` is returned.

    Args:
        model: leg model.
        target: 3D tip target, mm.
        q0: warm start, 4 finite joint angles (clipped to the limits);
            None for the middle of the limits.
        tol_mm: convergence threshold on the position residual.

    Returns:
        IKResult with the solution and its residual.  ``iterations`` is 0
        when ``q0`` already lands within ``tol_mm``; otherwise it counts
        the candidates evaluated: each coxa yaw tried and each joint
        vector checked by FK.

    Raises:
        NotReachable: at once when the target lies ``tol_mm`` or more
            outside the workspace (the residual is that distance,
            whatever the joint limits); otherwise when no candidate inside
            the limits lands (the residual is the smallest of the warm
            start's and the candidates').
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (3,) or not np.isfinite(target).all():
        raise ValueError("target must be a finite 3D point")
    warm = model._to_dh(model._mid if q0 is None else _checked_q0(q0))
    found = _closed_form(model._lengths, model._dh_bounds, target, warm, tol_mm)
    return IKResult(model._to_joint(found.q), found.residual_mm,
                    found.iterations)


def _checked_q0(q0) -> np.ndarray:
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (4,) or not np.isfinite(q0).all():
        raise ValueError("q0 must be finite joint angles of shape (4,)")
    return q0


def _closed_form(links, limits, target, warm, tol_mm):
    """Closed-form IK candidates for the yaw + planar-3R leg.

    The coxa yaw puts the target in the leg plane: ``arctan2(y, x)`` and
    that angle plus pi (on the z axis the warm yaw is kept).  In that
    plane the target sits at polar ``(rho, phi)``; ``_arc_angles`` lists
    the trochanter angles to try, and ``_close`` closes the loop with
    the femur and tibia from all of them at once, with either elbow.
    Candidates outside the joint limits are dropped; of the rest that
    land within ``tol_mm`` the one nearest ``warm`` is taken (ties to
    the first).  Only if none lands are the ``_pinned_batch`` angles
    tried the same way.  The arithmetic, the candidate order and the
    tie rule are the batched path's (see ``_PathCandidates``).

    Returns the IKResult nearest ``warm`` (the warm start itself, with 0
    iterations, if it already lands).  Raises NotReachable when the
    target lies ``tol_mm`` or more outside the workspace on both yaws,
    and when no candidate lands; then the residual is the smallest of
    the warm start's and those of the candidates, and the iterations
    are the candidates evaluated (checked by FK nearest ``warm`` first,
    up to the one that lands).
    """
    a0 = links[0]
    target = np.asarray(target, dtype=float)
    warm = np.asarray(warm, dtype=float)
    best = float(_residual(links, warm.tolist(), target.tolist()))
    if best < tol_mm:
        return IKResult(warm, best, 0)
    x, y, z = target.tolist()
    r = np.hypot(x, y)
    if r == 0.0:
        psi, u = warm[:1], np.array([-a0])
    else:
        aim = np.arctan2(y, x)
        psi, u = np.array([aim, aim + math.pi]), np.array([r - a0, -r - a0])
    rho = np.hypot(u, z)
    outside = _outside(links, rho)
    evaluated = len(u)
    gap = min(outside.tolist())
    if gap >= tol_mm:
        raise NotReachable(gap, evaluated)
    yaw = _wrap(psi, *limits[0], warm[0])
    tried = (outside < tol_mm) & ~np.isnan(yaw)
    if not tried.any():
        raise NotReachable(best, evaluated)
    yaw, u, rho = yaw[tried], u[tried], rho[tried]
    phi = np.arctan2(z, u)
    w1 = float(warm[1])

    def stages():
        """(plane, trochanter angle) pairs: the arcs', then the pins'."""
        held, ends = [], []
        for p, plane in enumerate(zip(rho.tolist(), phi.tolist())):
            on, at = _arc_angles(links, limits, *plane, w1)
            held += [(p, w1)] * on
            ends += [(p, q1) for q1 in at]
        yield held + ends
        with np.errstate(invalid="ignore", divide="ignore"):
            q1, ok = _pinned_batch(links, limits, rho, phi, w1)
        yield zip(np.nonzero(ok)[0].tolist(), q1[ok].tolist())

    for pairs in stages():
        # each pair once, so that iterations count distinct candidates
        pairs = list(dict.fromkeys(pairs))
        if not pairs:
            continue
        plane, q1 = np.array(pairs).T
        plane = plane.astype(int)
        q, trig = _close(links, limits, yaw[plane], u[plane], z, q1, warm)
        flat = q.reshape(-1, 4)
        step = _steps(flat, warm)
        step[np.isnan(step)] = np.inf
        # nearest first: it lands unless a limit or the reach clamped it
        c = int(step.argmin())
        res = float(_residual(links, flat[c].tolist(), target.tolist()))
        if res < tol_mm:
            return IKResult(flat[c], res, evaluated + 1)
        res = _residual(links, q.transpose(2, 0, 1), target, trig).ravel()
        lands = res < tol_mm
        if lands.any():
            c = int(np.where(lands, step, np.inf).argmin())
            evaluated += int((step < step[c]).sum()
                             + (step[:c] == step[c]).sum()) + 1
            return IKResult(flat[c], float(res[c]), evaluated)
        checked = res[~np.isnan(res)]
        evaluated += len(checked)
        best = min(best, float(checked.min(initial=np.inf)))
    raise NotReachable(best, evaluated)


def _arc_angles(links, limits, rho, phi, warm):
    """Trochanter angles from the reachable arcs, for a planar target:
    whether ``warm`` lies on an arc, and the window ends, in the order
    and with the arithmetic of ``_arc_windows``, which has the geometry.
    """
    _, a1, a2, a3 = links
    lo1, hi1 = limits[1]
    if a1 * rho == 0.0:
        arcs = (((phi + math.pi, -1), (phi + math.pi, 0)),)
    else:
        base = rho * rho + a1 * a1
        b_in, b_out = (float(np.arccos(min(1.0, max(-1.0, c)))) for c in (
            (base - (a2 - a3) ** 2) / (2.0 * a1 * rho),
            (base - (a2 + a3) ** 2) / (2.0 * a1 * rho)))
        arcs = (((phi + b_in, 0), (phi + b_out, 0)),
                ((phi + b_out, -1) if b_out == math.pi else (phi - b_out, 0),
                 (phi + b_in, -1) if b_in == math.pi else (phi - b_in, 0)))
    held, ends = False, []
    for (s, s_turn), (e, e_turn) in arcs:
        for k in range(math.ceil((lo1 - (e + e_turn * math.tau)
                                  - LIMIT_SLACK_RAD) / math.tau),
                       math.floor((hi1 - (s + s_turn * math.tau)
                                   + LIMIT_SLACK_RAD) / math.tau) + 1):
            lo = max(s + (k + s_turn) * math.tau, lo1)
            hi = min(e + (k + e_turn) * math.tau, hi1)
            if lo <= hi + LIMIT_SLACK_RAD:
                held = held or lo <= warm <= hi
                ends += [min(lo, hi1), max(hi, lo1)]
    return held, ends


def retarget_trajectory(beetle: Trajectory, scale: float = RETARGET_SCALE,
                        origin=None) -> Trajectory:
    """Scale a recorded trajectory onto the robot: p' = o + scale*(p - o).

    ``origin`` defaults to the first sample, so a stance-aligned recording
    scales about its initial touchdown.  Timestamps are preserved and
    pairwise distances multiply by exactly ``scale``.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    if len(beetle) == 0:
        return beetle
    o = beetle.points[0] if origin is None else np.asarray(origin, dtype=float)
    return Trajectory(beetle.t_ms.copy(), o + scale * (beetle.points - o))


def trajectory_to_joints(model: LegModel, traj: Trajectory, q0=None,
                         tol_mm: float = IK_TOL_MM) -> np.ndarray:
    """IK along a trajectory with warm starts; returns an (N, 4) array.

    The first sample starts from ``q0`` (default the middle of the joint
    limits) and each later one from the previous solution, which keeps
    the joint series on one solution branch for smooth inputs.

    The answer is that of one ``inverse_kinematics`` call per sample,
    bit for bit, but the samples are solved in numpy batch rounds
    (``_PathCandidates.round``).  The scalar and the batched path share
    one arithmetic: numpy's arccos, arctan2, hypot, cos and sin in the
    same formulas (``_close``, ``_residual``, ``_pinned_batch`` and
    ``_wrap`` serve both; the scalar ``_arc_angles`` gives
    ``_arc_windows``'s arc ends), and one rule for the pick: the landing
    candidate with the smallest step from the warm start, ties to the
    first in one candidate order.  Only a sample with no pick (a target
    on the z axis, or no candidate that lands) goes to the scalar path,
    and batching goes on after it.  A leg with a joint that spans a turn
    or more runs the scalar path alone.

    Raises ValueError for a ``q0`` that is not 4 finite angles, and
    NotReachable (tagged with the failing sample index) if any sample is
    not reachable; it is the scalar path's, residual and iterations
    included.
    """
    q = model._mid if q0 is None else _checked_q0(q0)
    n = len(traj)
    out = np.empty((n, 4))
    i = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        batch = _PathCandidates(model, traj.points, tol_mm) \
            if n > 1 and model._single_turn else None
        while i < n:
            rows = batch.round(i, q) if batch is not None else ()
            if len(rows):
                out[i:i + len(rows)] = rows
                q = rows[-1]
                i += len(rows)
                continue
            try:
                sol = inverse_kinematics(model, traj.points[i], q,
                                         tol_mm=tol_mm)
            except NotReachable as err:
                raise NotReachable(err.residual_mm, err.iterations,
                                   sample_index=i) from None
            q = out[i] = sol.q
            i += 1
    return out


class _Planes:
    """The leg planes of every target of a path, as ``_closed_form``
    builds them for one target: the two coxa yaws, the target's polar
    ``(rho, phi)`` from the trochanter in each plane, which planes are
    tried, and whether any is (``reach``; False on the z axis, whose yaw
    is the warm one).  Built for a leg whose every joint spans less than
    a turn (``LegModel._single_turn``), so that no yaw depends on a warm
    start.  Angles are DH angles; arrays are (N, 2), by sample and plane.
    """

    def __init__(self, model, targets, tol_mm):
        self.model, self.tol_mm = model, tol_mm
        self.links = links = model._lengths
        self.limits = limits = model._dh_bounds
        a0 = links[0]
        self.targets = targets
        x, y, z = targets.T
        r = np.hypot(x, y)
        aim = np.arctan2(y, x)
        u = np.column_stack([r - a0, -r - a0])
        rho = np.hypot(u, z[:, None])
        outside = _outside(links, rho)
        self.reach = (outside.min(axis=1) < tol_mm) & (r != 0.0)
        self.yaw = _wrap(np.column_stack([aim, aim + math.pi]), *limits[0])
        self.tried = (outside < tol_mm) & ~np.isnan(self.yaw)
        self.u, self.rho, self.z = u, rho, z[:, None]
        self.phi = np.arctan2(self.z, u)

    def _close_at(self, at, plane, q1):
        """``_close`` from trochanter angles q1 for samples ``at`` on
        planes ``plane``, all (k,): candidates and landing mask."""
        q, trig = _close(self.links, self.limits, self.yaw[at, plane],
                         self.u[at, plane], self.z[at, 0], q1)
        return q, _residual(self.links, q.transpose(2, 0, 1),
                            self.targets[at].T[..., None], trig) < self.tol_mm

    def landed(self, at, q1, ok):
        """Which of samples ``at`` (k,) some candidate lands from: the
        trochanter angles q1 (k, 2, M), by plane, kept where ok.  The
        candidates are closed one column at a time, each on the samples
        that no column before it landed."""
        k, _, m = q1.shape
        q1, ok = q1.reshape(k, -1), ok.reshape(k, -1)
        some = ok.any(axis=1)
        left = some.copy()
        for col in np.flatnonzero(ok.any(axis=0)).tolist():
            rows = np.flatnonzero(ok[:, col] & left)
            if rows.size:
                _, lands = self._close_at(at[rows], col // m, q1[rows, col])
                left[rows[lands.any(axis=1)]] = False
                if not left.any():
                    break
        return some & ~left


def _reaches(model: LegModel, points, tol_mm: float) -> np.ndarray:
    """A reach test of points (N, 3) that needs no warm start: True where
    some in-limit arc-end or pinned candidate lands within ``tol_mm``.
    ``_closed_form`` returns in its first stage as soon as any arc end
    lands, and in its second as soon as any pin does, so a True point
    lands from every warm start.  False on the z axis, whose yaw is the
    warm one, and for every point of a leg with a joint that spans a
    turn; the warm-started IK may still land those.  The pins are built
    only for the points no arc end reached.
    """
    out = np.zeros(len(points), dtype=bool)
    if not (len(points) and model._single_turn):
        return out
    with np.errstate(invalid="ignore", divide="ignore"):
        p = _Planes(model, points, tol_mm)
        tried = p.tried & p.reach[:, None]
        _, _, windows, ends = _arc_windows(p.links, p.limits, p.rho, p.phi)
        every = np.arange(len(points))
        out = p.landed(every, ends, np.repeat(windows & tried[..., None], 2,
                                              axis=-1))
        rest = every[~out & p.reach]
        if rest.size:
            q1, ok = _pinned_batch(p.links, p.limits, p.rho[rest],
                                   p.phi[rest])
            out[rest] = p.landed(rest, q1, ok & tried[rest, :, None])
    return out


class _PathCandidates(_Planes):
    """``_closed_form``'s candidates for every sample of a path at once.

    Built on the path's ``_Planes``, for a leg whose every joint spans
    less than a turn.  Each ``_wrap`` has at most one representative to
    take, whatever the warm start, so every candidate but one is the
    same for any warm start: the coxa yaws, the trochanter angles at the
    arc ends, the limits and the pins, and the femur and tibia closing
    the loop from each.  Those are built here once (the pinned ones when
    first needed).  The one left, the trochanter's warm angle where it
    lies on an arc, is built per warm start, and so are the ordering by
    step and the warm-start shortcut.  A target on the z axis gets no
    batched pick.

    Each column set is (candidates (N, C, 4), landing mask (N, C)): a
    candidate lands if it fits the limits on a tried plane within
    ``tol_mm`` of its target.  The columns run in ``_closed_form``'s
    candidate order: the held ones, then the arc ends, by plane; the
    pinned ones by plane.  Picks are DH angles; ``round`` takes joint
    angles and gives joint rows, as ``inverse_kinematics`` does.
    """

    def __init__(self, model, targets, tol_mm):
        super().__init__(model, targets, tol_mm)
        self.lo, self.hi, self.windows, ends = _arc_windows(
            self.links, self.limits, self.rho, self.phi)
        self.ends = self._columns(ends, np.repeat(self.windows, 2, axis=-1))
        self.pins = None
        self.last_held = None, np.empty(0), None

    def round(self, i, q):
        """The joint rows of samples i.. that one warm-started IK call
        per sample gives from joint angles q, up to the first sample with
        no pick (none if sample i has none).

        Each sample's pick from the warm start of q is its guess; at
        i == 0, q is ``q0``, not a pick, so only sample 0 is guessed.  A
        second ``picks`` call takes each later sample's pick from the
        guess before it.  The guesses up to the first that this misses
        are what the one-by-one loop finds, and so is that sample's own
        pick, whose warm start was right.
        """
        warm = self.model._to_dh(q)
        n = 1 if i == 0 else len(self.targets) - i
        picks = self.picks(i, np.broadcast_to(warm, (n, 4)))
        picks = picks[:_first(np.isnan(picks[:, 0])) + 1]
        if len(picks) > 1:
            check = self.picks(i, np.vstack([
                warm, self.model._to_dh(self.model._to_joint(picks[:-1]))]))
            picks = check[:_first(~(check == picks).all(axis=1)) + 1]
        return self.model._to_joint(picks[:_first(np.isnan(picks[:, 0]))])

    def _columns(self, q1, ok):
        """The column set of trochanter angles q1 (N, 2, M), kept where
        ok, on the tried planes."""
        n, _, m = q1.shape
        ok = (ok & self.tried[:, :, None]).reshape(n, -1)
        cols = np.flatnonzero(ok.any(axis=0))
        row, col = np.nonzero(ok[:, cols])
        flat = cols[col]
        q, lands = self._close_at(row, flat // m, q1.reshape(n, -1)[row, flat])
        return self._scatter((n, len(cols)), (row, col), q, lands)

    @staticmethod
    def _scatter(shape, where, q, lands):
        """``_close_at``'s output for the entries ``where`` of a grid of
        trochanter angles ``shape`` (n, M): candidates (n, 2M, 4) (NaN
        elsewhere) and landing mask (n, 2M)."""
        full_q = np.full(shape + (2, 4), np.nan)
        full_lands = np.zeros(shape + (2,), bool)
        full_q[where], full_lands[where] = q, lands
        n = shape[0]
        return full_q.reshape(n, -1, 4), full_lands.reshape(n, -1)

    def _pinned(self):
        if self.pins is None:
            self.pins = self._columns(*_pinned_batch(
                self.links, self.limits, self.rho, self.phi))
        return self.pins

    def _held(self, i, w1):
        """The held trochanter angles w1 (n,) of samples i..: candidates
        (n, 4, 4) and landing mask (n, 4), per plane and elbow."""
        n = len(w1)
        last_i, last_w1, last = self.last_held
        if last_i == i and n <= len(last_w1) \
                and np.array_equal(last_w1[:n], w1):
            return tuple(a[:n] for a in last)
        w = w1[:, None, None]
        on = (self.windows[i:i + n] & (self.lo[i:i + n] <= w)
              & (w <= self.hi[i:i + n])).any(axis=-1) & self.tried[i:i + n]
        row, plane = np.nonzero(on)
        held = self._scatter((n, 2), (row, plane),
                             *self._close_at(i + row, plane, w1[row]))
        self.last_held = i, w1, held
        return held

    def picks(self, i, warms):
        """Samples i..'s ``_closed_form`` picks from the DH warm starts
        ``warms`` (n, 4); NaN where there is none, and ``_closed_form``
        would raise.

        A pick is the warm start when that lands, else the nearest
        landing candidate (ties to the first) of the held and arc-end
        ones, else of the pinned ones.
        """
        n = len(warms)
        picks = np.full((n, 4), np.nan)
        short = _residual(self.links, warms.T, self.targets[i:i + n].T) \
            < self.tol_mm
        picks[short] = warms[short]
        todo = ~short & self.reach[i:i + n]
        q, lands = (np.concatenate([h, e[i:i + n]], axis=1)
                    for h, e in zip(self._held(i, warms[:, 1]), self.ends))
        col, has = _nearest(q, lands, warms)
        has &= todo
        picks[has] = q[has, col[has]]
        rows = np.flatnonzero(todo & ~has)
        if rows.size:
            q, lands = self._pinned()
            q = q[i + rows]
            col, got = _nearest(q, lands[i + rows], warms[rows])
            picks[rows[got]] = q[got, col[got]]
        return picks


def _first(mask) -> int:
    """The index of the first True of mask, or its length if none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _nearest(q, lands, warms):
    """Per row of candidates q (n, C, 4): the landing one nearest the
    warm start by ``_steps`` (ties to the first), and whether there is
    one."""
    n = len(q)
    if q.shape[1] == 0:
        return np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    col = np.where(lands, _steps(q, warms[:, None, :]), np.inf).argmin(axis=1)
    return col, lands[np.arange(n), col]


def _steps(q, warm):
    """Squared step from ``warm`` to each candidate of q (..., 4)."""
    d = q - warm
    d *= d
    return d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]


def _tip(links, q, trig=None):
    """The yaw + planar-3R tip of q: its x, y and z, and the tibia's
    absolute angle.  FK, the Jacobian and both IK paths take this law.

    ``q`` is the coxa yaw and the three planar joint angles: a sequence
    of floats or of arrays that broadcast (a (4, ...) array will do).
    ``trig`` may give the cos and sin of the trochanter's and the femur's
    absolute angles, as ``_close`` has them.
    """
    a0, a1, a2, a3 = links
    yaw, t1, q2, q3 = q
    t2 = t1 + q2
    t3 = t2 + q3
    c1, s1, c2, s2 = trig or (np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2))
    out = a0 + a1 * c1 + a2 * c2 + a3 * np.cos(t3)
    return (out * np.cos(yaw), out * np.sin(yaw),
            a1 * s1 + a2 * s2 + a3 * np.sin(t3), t3)


def _residual(links, q, target, trig=None):
    """Distance from ``_tip`` of q to target (x, y and z, each a float or
    an array that broadcasts with q's, such as a (3, ...) array)."""
    x, y, z, _ = _tip(links, q, trig)
    tx, ty, tz = target
    dx, dy, dz = x - tx, y - ty, z - tz
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def _outside(links, rho):
    """How far planar targets at distance rho from the trochanter lie
    outside the femur and tibia's reach (0 inside)."""
    _, a1, a2, a3 = links
    near = max(a1 - a2 - a3, abs(a2 - a3) - a1, 0.0)
    return np.maximum(np.maximum(rho - (a1 + a2 + a3), near - rho), 0.0)


def _close(links, limits, yaw, u, z, q1, warm=(None,) * 4):
    """Femur and tibia closing the loop from trochanter angles q1 (k,),
    per elbow (bent +, bent -), in the planes of coxa yaws ``yaw`` (k,)
    where the target lies at ``(u, z)`` (each (k,) or a float) from the
    trochanter joint.  Returns the candidates (k, 2, 4), NaN where the
    femur or the tibia misses its limits and for the second elbow where
    the elbow is straight; and ``_residual``'s ``trig`` for them.
    ``warm`` gives ``_wrap`` its reference angles, needed only for a
    joint that spans a turn.

    The tibia aims from the knee at the target: near a straight elbow
    this is exact where arccos is not.  Where that aim puts the tibia on
    a limit, the arccos split of the bend between femur and tibia may be
    off by its rounding (1e-8 rad near straight), so the tibia is held
    there and the femur re-aimed, and where that puts the femur on a
    limit, the trochanter.  A re-aim that misses its joint's limits is
    not taken.
    """
    _, a1, a2, a3 = links
    c1, s1 = np.cos(q1), np.sin(q1)
    wu = u - a1 * c1
    wv = z - a1 * s1
    elbow = np.arccos(np.minimum(np.maximum(
        (wu * wu + wv * wv - a2 * a2 - a3 * a3) / (2.0 * a2 * a3), -1.0), 1.0))
    bend = elbow[:, None] * np.array([1.0, -1.0])
    bend[:, 1][elbow == 0.0] = np.nan
    q1, wu, wv = q1[:, None], wu[:, None], wv[:, None]
    q2 = _wrap(np.arctan2(wv, wu) - q1
               - np.arctan2(a3 * np.sin(bend), a2 + a3 * np.cos(bend)),
               *limits[2], warm[2])
    t2 = q1 + q2
    c2, s2 = np.cos(t2), np.sin(t2)
    q3 = _wrap(np.arctan2(wv - a2 * s2, wu - a2 * c2) - t2, *limits[3],
               warm[3])
    c1, s1 = c1[:, None], s1[:, None]
    held = (q3 == limits[3][0]) | (q3 == limits[3][1])
    if held.any():
        # the tibia held on its limit, the femur and tibia are one link:
        # aim it at the target, and where that puts the femur on a limit,
        # aim the trochanter, femur and tibia as one link
        aimed = _wrap(np.arctan2(wv, wu) - q1 - np.arctan2(
            a3 * np.sin(q3), a2 + a3 * np.cos(q3)), *limits[2], warm[2])
        held &= ~np.isnan(aimed)
        q2 = np.where(held, aimed, q2)
        turned = _wrap(np.reshape(np.arctan2(z, u), (-1, 1)) - np.arctan2(
            a2 * np.sin(q2) + a3 * np.sin(q2 + q3),
            a1 + a2 * np.cos(q2) + a3 * np.cos(q2 + q3)), *limits[1], warm[1])
        q1 = np.where(held & ((q2 == limits[2][0]) | (q2 == limits[2][1]))
                      & ~np.isnan(turned), turned, q1)
        c1, s1, c2, s2 = np.cos(q1), np.sin(q1), np.cos(q1 + q2), np.sin(
            q1 + q2)
    q = np.empty(q2.shape + (4,))
    q[..., 0], q[..., 1], q[..., 2], q[..., 3] = yaw[:, None], q1, q2, q3
    return q, (c1, s1, c2, s2)


def _arc_windows(links, limits, rho, phi):
    """The trochanter windows of the reachable arcs, for planar targets
    at polar ``(rho, phi)`` of any shape S.

    The wrist, past the trochanter, sits at ``|w|^2 = rho^2 + a1^2 -
    2 a1 rho cos(q1 - phi)``, and the femur/tibia pair reaches it iff
    ``|w|`` lies in ``[|a2 - a3|, a2 + a3]``: two arcs ``beta_in <=
    |q1 - phi| <= beta_out`` from two arccos calls.  Each arc is shifted
    by every multiple of 2*pi any target needs and cut to the
    trochanter limits.

    An arc end is a point and a number of turns added to it.  Arc 1
    mirrors arc 0 about ``phi``; where a mirrored end falls on ``phi -
    pi`` (``beta`` clamped to pi), it is written as arc 0's end ``phi +
    pi`` a turn back, so that a point where the arcs meet is one
    candidate, to the bit, at every shift.  With no trochanter or no
    rho, one arc runs all the way round, from its own end a turn back.

    Returns the window ends lo and hi and whether each window is kept,
    all S + (W,), the W windows arc-major, then by shift; and the window
    ends taken onto the trochanter limits, S + (2W,), lo then hi per
    window.
    """
    _, a1, a2, a3 = links
    lo1, hi1 = limits[1]
    one = a1 * rho == 0.0
    base = rho * rho + a1 * a1
    b_in = np.arccos(np.minimum(np.maximum(
        (base - (a2 - a3) ** 2) / (2.0 * a1 * rho), -1.0), 1.0))
    b_out = np.arccos(np.minimum(np.maximum(
        (base - (a2 + a3) ** 2) / (2.0 * a1 * rho), -1.0), 1.0))

    def mirrored(b):
        back = b == math.pi
        return np.where(back, phi + b, phi - b), np.where(back, -1.0, 0.0)

    s1, s1_turn = mirrored(b_out)
    e1, e1_turn = mirrored(b_in)
    s = np.stack([np.where(one, phi + math.pi, phi + b_in), s1], -1)
    s_turn = np.stack([np.where(one, -1.0, 0.0), s1_turn], -1)
    e = np.stack([np.where(one, phi + math.pi, phi + b_out), e1], -1)
    e_turn = np.stack([np.zeros_like(phi), e1_turn], -1)
    k_lo = np.ceil((lo1 - (e + e_turn * math.tau) - LIMIT_SLACK_RAD)
                   / math.tau)
    k_hi = np.floor((hi1 - (s + s_turn * math.tau) + LIMIT_SLACK_RAD)
                    / math.tau)
    k_hi[..., 1][one] = -np.inf
    some = k_lo <= k_hi
    ks = np.arange(k_lo[some].min(), k_hi[some].max() + 1) if some.any() \
        else np.empty(0)
    lo = np.maximum(s[..., None] + (ks + s_turn[..., None]) * math.tau, lo1)
    hi = np.minimum(e[..., None] + (ks + e_turn[..., None]) * math.tau, hi1)
    kept = (k_lo[..., None] <= ks) & (ks <= k_hi[..., None]) \
        & (lo <= hi + LIMIT_SLACK_RAD)
    shape = np.shape(rho) + (-1,)
    ends = np.minimum(np.maximum(np.stack([lo, hi], axis=-1), lo1), hi1)
    return (lo.reshape(shape), hi.reshape(shape), kept.reshape(shape),
            ends.reshape(shape))


def _pinned_batch(links, limits, rho, phi, ref=None):
    """Trochanter angles that put the femur or the tibia on a limit, for
    planar targets at polar ``(rho, phi)`` of any shape S.

    Where the femur/tibia limits cut an arc short, the stretches of
    valid trochanter angles end at these; with the arc ends and the
    trochanter limits, every stretch then has an end among the
    candidates.  A pinned joint makes the chain a two-link one: a link
    of length b at angle q1 + gamma, then one of length c.  Returns the
    angles, wrapped near ``ref``, and whether each is kept, both S +
    (8,), pin-major, then by side.
    """
    _, a1, a2, a3 = links
    pins = [(a1, 0.0, math.sqrt(a2 * a2 + a3 * a3 + 2.0 * a2 * a3
                                * math.cos(lim))) for lim in limits[3]]
    pins += [(math.hypot(a1 + a2 * math.cos(lim), a2 * math.sin(lim)),
              math.atan2(a2 * math.sin(lim), a1 + a2 * math.cos(lim)), a3)
             for lim in limits[2]]
    b, gamma, c = (np.array(v) for v in zip(*pins))
    rho, phi = rho[..., None], phi[..., None]
    cos_beta = (rho * rho + b * b - c * c) / (2.0 * b * rho)
    beta = np.arccos(np.minimum(np.maximum(cos_beta, -1.0), 1.0))
    # per pin, the angle on either side of the line to the target
    q1 = np.stack([phi - gamma + beta, phi - gamma - beta], axis=-1)
    q1 = _wrap(q1.reshape(q1.shape[:-2] + (-1,)), *limits[1], ref)
    fits = (b * rho != 0.0) & (np.abs(cos_beta) <= 1.0 + COS_SLACK)
    return q1, np.repeat(fits, 2, axis=-1) & ~np.isnan(q1)


def _wrap(angle, lo, hi, ref=None):
    """The 2*pi-representative of each angle of the array ``angle`` in
    [lo, hi] nearest ``ref`` (itself in them); NaN where none fits.  One
    that misses the limits by no more than ``LIMIT_SLACK_RAD`` is taken
    onto them.

    Where the limits span less than a turn (less twice the slack), only
    the representative nearest their middle can fit them, so that is
    taken whatever ``ref`` (which may then be None).  Where they span
    more, the one nearest ``ref`` may miss them by a little while the
    next one round, a turn toward them, fits.
    """
    if hi - lo + 2.0 * LIMIT_SLACK_RAD < math.tau:
        turns = np.rint((angle - 0.5 * (lo + hi)) / math.tau)
    else:
        turns = np.rint((angle - ref) / math.tau)
        v = angle - turns * math.tau
        turns = turns - (v < lo - LIMIT_SLACK_RAD) + (v > hi + LIMIT_SLACK_RAD)
    # + 0.0 makes a zero turn +0.0, so that angle comes back as it was
    v = angle - (turns + 0.0) * math.tau
    out = np.minimum(np.maximum(v, lo), hi)
    out[(v < lo - LIMIT_SLACK_RAD) | (v > hi + LIMIT_SLACK_RAD)] = np.nan
    return out


TRAJECTORY_HEADER = ("t_ms", "x_mm", "y_mm", "z_mm")


def load_trajectory(path) -> Trajectory:
    """Read a trajectory CSV with header t_ms,x_mm,y_mm,z_mm."""
    data, = read_columns(path, TRAJECTORY_HEADER, range(4))
    return Trajectory(data[:, 0], data[:, 1:])


def save_trajectory(path, traj: Trajectory) -> None:
    write_table(path, TRAJECTORY_HEADER,
                np.column_stack([traj.t_ms, traj.points]).tolist())


def default_leg_model() -> LegModel:
    """Leg proportioned like the prototype: yawing coxa, pitching distal joints."""
    rows = (
        DHRow(a=30.0),
        DHRow(a=25.0),
        DHRow(a=80.0),
        DHRow(a=120.0),
    )
    lim = math.radians(JOINT_LIMIT_DEG)
    return LegModel(rows, ((-lim, lim),) * 4)
