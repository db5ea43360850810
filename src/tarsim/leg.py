"""Four-joint robotic leg: DH kinematics, damped-least-squares IK, retargeting.

The leg chain is coxa, trochanter, femur, tibia — four revolute joints
described by standard Denavit-Hartenberg rows.  The IK solver tracks tip
position only (3 constraints, 4 DOF); the damped minimum-norm update
resolves the redundancy.  Recorded walking trajectories are retargeted
onto the leg by uniform scaling about a reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .table import float_columns, read_table, write_table

JOINT_NAMES = ("coxa", "trochanter", "femur", "tibia")

IK_DAMPING = 1e-3
IK_STEP_CLAMP_RAD = 0.2
IK_TOL_MM = 1e-6
IK_MAX_ITER = 200


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
    """One Denavit-Hartenberg row: a (mm), twist (rad), d (mm), offset (rad)."""

    a: float
    alpha_twist: float
    d: float
    theta_offset: float = 0.0

    def __post_init__(self):
        vals = (self.a, self.alpha_twist, self.d, self.theta_offset)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("DH parameters must be finite")
        if self.a < 0:
            raise ValueError("link length a must be >= 0")


@dataclass(frozen=True)
class LegModel:
    """Four revolute joints plus per-joint angle limits (rad)."""

    rows: tuple[DHRow, ...]
    joint_limits: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "joint_limits",
                          tuple((float(lo), float(hi))
                                for lo, hi in self.joint_limits))
        if len(self.rows) != 4:
            raise ValueError(f"leg model needs 4 joints, got {len(self.rows)}")
        if len(self.joint_limits) != 4:
            raise ValueError("joint_limits must have 4 (min, max) pairs")
        for lo, hi in self.joint_limits:
            if not lo < hi:
                raise ValueError(f"joint limit min must be < max, got ({lo}, {hi})")

    @property
    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.joint_limits])

    @property
    def upper(self) -> np.ndarray:
        return np.array([hi for _, hi in self.joint_limits])

    def reach_mm(self) -> float:
        """Radius of the sphere certainly containing the workspace."""
        return float(sum(r.a for r in self.rows) + sum(abs(r.d) for r in self.rows))


@dataclass(frozen=True)
class Pose:
    """Tip pose: position (mm) and rotation matrix."""

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


def dh_transform(row: DHRow, q: float) -> np.ndarray:
    """Homogeneous transform of one joint at angle q (standard DH)."""
    th = q + row.theta_offset
    ct, st = math.cos(th), math.sin(th)
    ca, sa = math.cos(row.alpha_twist), math.sin(row.alpha_twist)
    return np.array([
        [ct, -st * ca,  st * sa, row.a * ct],
        [st,  ct * ca, -ct * sa, row.a * st],
        [0.0,      sa,       ca,      row.d],
        [0.0,     0.0,      0.0,        1.0],
    ])


def forward_kinematics(model: LegModel, q) -> Pose:
    """Tip pose from joint angles: product of the four DH transforms."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,) or not np.all(np.isfinite(q)):
        raise ValueError("q must be 4 finite joint angles")
    T = np.eye(4)
    for row, qi in zip(model.rows, q):
        T = T @ dh_transform(row, qi)
    return Pose(T[:3, 3].copy(), T[:3, :3].copy())


def _chain_frames(model: LegModel, q):
    """Joint origins and z axes along the chain, plus the tip position."""
    T = np.eye(4)
    origins = [T[:3, 3].copy()]
    axes = [T[:3, 2].copy()]
    for row, qi in zip(model.rows, q):
        T = T @ dh_transform(row, qi)
        origins.append(T[:3, 3].copy())
        axes.append(T[:3, 2].copy())
    return origins, axes


def jacobian(model: LegModel, q) -> np.ndarray:
    """3x4 position Jacobian (mm/rad): z_{i-1} x (p_tip - p_{i-1})."""
    q = np.asarray(q, dtype=float)
    origins, axes = _chain_frames(model, q)
    tip = origins[-1]
    J = np.empty((3, 4))
    for i in range(4):
        J[:, i] = np.cross(axes[i], tip - origins[i])
    return J


@dataclass(frozen=True)
class IKResult:
    q: np.ndarray
    residual_mm: float
    iterations: int


def inverse_kinematics(model: LegModel, target, q0,
                       damping: float = IK_DAMPING,
                       step_clamp: float = IK_STEP_CLAMP_RAD,
                       tol_mm: float = IK_TOL_MM,
                       max_iter: int = IK_MAX_ITER) -> IKResult:
    """Position-only IK via damped least squares.

    Iterates dq = J^T (J J^T + damping*I)^-1 err, with the step scaled so
    no joint moves more than ``step_clamp`` per iteration and the result
    clamped to the joint limits.  If a run stalls in a local minimum it
    restarts from a short deterministic seed list; all restarts share the
    single ``max_iter`` iteration budget, so the reported iteration count
    stays below it.

    Args:
        model: leg model.
        target: 3D tip target, mm.
        q0: starting joint vector (within limits).
        damping: least-squares damping factor.
        step_clamp: per-iteration joint step bound, rad.
        tol_mm: convergence threshold on the position residual.
        max_iter: iteration budget.

    Returns:
        IKResult with the solution, final residual and iteration count.

    Raises:
        NotReachable: residual still above tol_mm after max_iter
            iterations; carries the best residual seen.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (3,) or not np.all(np.isfinite(target)):
        raise ValueError("target must be a finite 3D point")
    q0 = np.clip(np.asarray(q0, dtype=float), model.lower, model.upper)

    def tip_at(q):
        return _chain_frames(model, q)[0][-1]

    best_res = math.inf
    eye3 = np.eye(3)
    spent = 0
    for seed in _restart_seeds(model, target, q0):
        if spent >= max_iter:
            break
        q = np.clip(np.asarray(seed, dtype=float), model.lower, model.upper)
        err = target - tip_at(q)
        res = float(np.linalg.norm(err))
        lam = damping
        rejected = 0
        used = 0
        while True:
            if res < best_res:
                best_res = res
            if res < tol_mm:
                return IKResult(q, res, spent)
            if spent >= max_iter or used >= 60 or lam > 1e8 or rejected > 8:
                break  # bogged down; move on to the next seed
            J = jacobian(model, q)
            dq = J.T @ np.linalg.solve(J @ J.T + lam * eye3, err)
            biggest = np.max(np.abs(dq))
            if biggest > step_clamp:
                dq *= step_clamp / biggest
            q_new = np.clip(q + dq, model.lower, model.upper)
            err_new = target - tip_at(q_new)
            res_new = float(np.linalg.norm(err_new))
            spent += 1
            used += 1
            if res_new < res:
                q, err, res = q_new, err_new, res_new
                lam = max(lam / 3.0, damping)
                rejected = 0
            else:
                # step made things worse: grow damping, keep the old q
                lam *= 5.0
                rejected += 1
    raise NotReachable(best_res, spent)


def _restart_seeds(model: LegModel, target, q0):
    """Deterministic IK starting points, warm start first (lazy).

    The scan candidates treat the leg as a yawing base link plus a planar
    three-bar (exact for the default geometry, a harmless guess
    otherwise): the coxa aims at the target azimuth, forward or wrapped
    backward; the redundant trochanter angle sweeps a grid; the
    femur/tibia pair closes the loop with either elbow in closed form.
    The few candidates with the smallest tip residual are yielded, then
    generic spread-out fallbacks.  Everything past the warm start is only
    computed if the warm start fails, keeping trajectory tracking cheap.
    """
    yield np.asarray(q0, dtype=float)

    a = [row.a for row in model.rows]
    tx, ty, tz = target
    aim = math.atan2(ty, tx)
    back = aim - math.copysign(math.pi, aim) if aim != 0.0 else math.pi
    scan = []
    if a[2] > 0 and a[3] > 0:
        lo2, hi2 = model.joint_limits[1]
        for psi in (aim, back):
            u = math.cos(psi) * tx + math.sin(psi) * ty - a[0]
            for th2 in np.linspace(lo2, hi2, 25):
                wu = u - a[1] * math.cos(th2)
                wv = tz - a[1] * math.sin(th2)
                elbow_cos = (wu * wu + wv * wv - a[2] ** 2 - a[3] ** 2) \
                    / (2.0 * a[2] * a[3])
                elbow_cos = max(-1.0, min(1.0, elbow_cos))
                for elbow in (1.0, -1.0):
                    th4 = elbow * math.acos(elbow_cos)
                    phi3 = math.atan2(wv, wu) - math.atan2(
                        a[3] * math.sin(th4), a[2] + a[3] * math.cos(th4))
                    th3 = phi3 - th2
                    th3 = math.atan2(math.sin(th3), math.cos(th3))  # wrap
                    q = np.clip(np.array([psi, th2, th3, th4]),
                                model.lower, model.upper)
                    tip = _chain_frames(model, q)[0][-1]
                    scan.append((float(np.linalg.norm(tip - target)), q))
        scan.sort(key=lambda c: c[0])
        for _, q in scan[:8]:
            yield q

    yield 0.5 * (model.lower + model.upper)
    rng = np.random.default_rng(0)  # fixed: restarts stay deterministic
    span = model.upper - model.lower
    for _ in range(8):
        yield model.lower + rng.random(4) * span


def retarget_trajectory(beetle: Trajectory, scale: float = 8.0,
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
                         hold_period_ms: float | None = None,
                         **ik_kwargs) -> np.ndarray:
    """IK along a trajectory with warm starts; returns an (N, 4) array.

    Each sample starts from the previous solution, which keeps the joint
    series on one solution branch for smooth inputs.  ``hold_period_ms``
    optionally quantizes the output as a zero-order hold (servo-update
    staircase); off by default.

    Raises NotReachable (tagged with the failing sample index) if any
    sample fails to converge.
    """
    if q0 is None:
        q = 0.5 * (model.lower + model.upper)
    else:
        q = np.asarray(q0, dtype=float).copy()
    out = np.empty((len(traj), 4))
    for i, p in enumerate(traj.points):
        try:
            sol = inverse_kinematics(model, p, q, **ik_kwargs)
        except NotReachable as err:
            raise NotReachable(err.residual_mm, err.iterations,
                               sample_index=i) from None
        q = sol.q
        out[i] = q
    if hold_period_ms is not None:
        if hold_period_ms <= 0:
            raise ValueError("hold_period_ms must be > 0")
        held = np.empty_like(out)
        last = out[0]
        next_update = traj.t_ms[0]
        for i, t in enumerate(traj.t_ms):
            if t >= next_update:
                last = out[i]
                next_update = t + hold_period_ms
            held[i] = last
        out = held
    return out


TRAJECTORY_HEADER = ("t_ms", "x_mm", "y_mm", "z_mm")


def load_trajectory(path) -> Trajectory:
    """Read a trajectory CSV with header t_ms,x_mm,y_mm,z_mm."""
    _, rows = read_table(path, TRAJECTORY_HEADER)
    data = float_columns(path, rows, range(4))
    return Trajectory(data[:, 0], data[:, 1:])


def save_trajectory(path, traj: Trajectory) -> None:
    write_table(path, TRAJECTORY_HEADER,
                np.column_stack([traj.t_ms, traj.points]).tolist())


def default_leg_model() -> LegModel:
    """Leg proportioned like the prototype: yawing coxa, pitching distal joints."""
    rows = (
        DHRow(a=30.0, alpha_twist=math.pi / 2, d=0.0),
        DHRow(a=25.0, alpha_twist=0.0, d=0.0),
        DHRow(a=80.0, alpha_twist=0.0, d=0.0),
        DHRow(a=120.0, alpha_twist=0.0, d=0.0),
    )
    lim = math.radians(150.0)
    return LegModel(rows, ((-lim, lim),) * 4)
