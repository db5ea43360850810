"""Tendon-driven tarsal chain: string-pull kinematics, inverse solve, forces.

Models an insect-style tarsus as five tarsomeres linked by ball-and-socket
joints and actuated by a single string running along the underside of the
chain.  Bending a joint shortens the string span across it; the pull the
actuator must reel in is the sum of the per-joint shortenings plus any
axial compression (and, optionally, socket-deformation slack) of the
segments.  Releasing the string lets the return springs straighten the
chain, so the whole structure switches between a flexible and a rigid,
bent-down state.

Planar convention (sagittal plane, x forward along the chain, z up):

* joint centre at the origin,
* the distal guide hole sits at radius ``radius`` straight below the joint,
* the proximal guide hole sits ``anchor_long`` behind and ``anchor_trans``
  above the distal one; the rest span ``rest_span`` is measured guide hole
  to guide hole and defaults to ``hypot(anchor_long, anchor_trans)``,
* bending rotates the distal segment clockwise (downward) about the joint.

All angles are radians internally; degrees appear only at I/O boundaries.
Lengths are mm, forces N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_SPRING_N_PER_MM = 0.54
DEFAULT_K_FLEX_N_PER_MM = 0.054
DEFAULT_K_RIGID_N_PER_MM = 0.54
# the rigid tarsus's vertical force cap (N): stiffness_curve and
# contact.ForceLimits default to it (contact imports chain, not back)
DEFAULT_VERTICAL_MAX_N = 2.46

# the actuation modes: string tight (rigid tarsus) or relaxed (flexible)
RIGID, FLEXIBLE = "rigid", "flexible"
MODES = (RIGID, FLEXIBLE)

NUM_TARSOMERES = 5
SEGMENT_LENGTH_MM = (18.0, 16.0, 14.0, 12.0, 10.0)

# inverse pull map defaults: bend-pull residual (mm), evaluation cap
SOLVE_TOL_MM = 1e-9
SOLVE_MAX_ITER = 200


@dataclass(frozen=True)
class SegmentGeometry:
    """Geometry of one tarsomere joint as seen by the actuation string.

    radius       rotation radius of the distal guide hole (mm)
    anchor_long  longitudinal offset of the proximal guide hole (mm)
    anchor_trans transverse offset of the proximal guide hole (mm)
    max_bend     bend limit of this joint (rad)
    rest_span    guide-hole-to-guide-hole span at rest (mm); derived from
                 the anchor offsets when not given
    axial_cap    maximum axial compression of the segment (mm)
    """

    radius: float
    anchor_long: float
    anchor_trans: float
    max_bend: float
    rest_span: float | None = None
    axial_cap: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.anchor_long <= 0:
            raise ValueError(f"anchor_long must be > 0, got {self.anchor_long}")
        if self.anchor_trans < 0:
            raise ValueError(f"anchor_trans must be >= 0, got {self.anchor_trans}")
        if not 0 < self.max_bend < math.pi / 2:
            raise ValueError(f"max_bend must be in (0, pi/2), got {self.max_bend}")
        if self.rest_span is None:
            object.__setattr__(
                self, "rest_span", math.hypot(self.anchor_long, self.anchor_trans)
            )
        if self.rest_span <= 0:
            raise ValueError(f"rest_span must be > 0, got {self.rest_span}")
        if self.axial_cap < 0:
            raise ValueError(f"axial_cap must be >= 0, got {self.axial_cap}")


@dataclass(frozen=True)
class ChainGeometry:
    """Full tarsal chain: five joints, body lengths, spring and stiffness data.

    ``socket_slack`` is an extra per-segment displacement capacity that
    absorbs string pull once bending and axial compression are exhausted
    (used to reproduce measured over-travel caused by joint-socket
    deformation).  Zero by default.
    """

    segments: tuple[SegmentGeometry, ...]
    k_spring: float = DEFAULT_SPRING_N_PER_MM
    segment_lengths: tuple[float, ...] = SEGMENT_LENGTH_MM
    socket_slack: tuple[float, ...] = (0.0,) * NUM_TARSOMERES
    k_flex: float = DEFAULT_K_FLEX_N_PER_MM
    k_rigid: float = DEFAULT_K_RIGID_N_PER_MM

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "segment_lengths", tuple(self.segment_lengths))
        object.__setattr__(self, "socket_slack", tuple(self.socket_slack))
        if len(self.segments) != NUM_TARSOMERES:
            raise ValueError(f"a tarsus has {NUM_TARSOMERES} tarsomeres, "
                             f"got {len(self.segments)}")
        if len(self.segment_lengths) != NUM_TARSOMERES:
            raise ValueError("segment_lengths must have one entry per tarsomere")
        if len(self.socket_slack) != NUM_TARSOMERES:
            raise ValueError("socket_slack must have one entry per tarsomere")
        if self.k_spring <= 0:
            raise ValueError(f"k_spring must be > 0, got {self.k_spring}")
        if any(s <= 0 for s in self.segment_lengths):
            raise ValueError("segment_lengths must be positive")
        if any(s < 0 for s in self.socket_slack):
            raise ValueError("socket_slack must be nonnegative")
        if self.k_flex <= 0 or self.k_rigid <= 0:
            raise ValueError("stiffness slopes must be positive")
        if not self.k_rigid > self.k_flex:
            raise ValueError(f"rigid slope must exceed flexible slope "
                             f"({self.k_rigid} <= {self.k_flex})")
        # per-segment arrays for the pull kernel, computed once, read-only
        segs = self.segments
        arrays = {
            "_radius": [s.radius for s in segs],
            "_rest_span": [s.rest_span for s in segs],
            "_anchor_angle": [math.atan2(s.anchor_trans, s.anchor_long)
                              for s in segs],
            "_max_bend": [s.max_bend for s in segs],
            "_axial_caps": [s.axial_cap for s in segs],
            "_slack_caps": self.socket_slack,
        }
        for name, values in arrays.items():
            arr = np.array(values, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        full = float(_bend_pull(self, 1.0)[0])
        object.__setattr__(self, "_full_bend_pull", full)
        object.__setattr__(self, "_capacity", full
                           + float(self._axial_caps.sum())
                           + float(self._slack_caps.sum()))

    @property
    def max_bend(self) -> np.ndarray:
        return self._max_bend

    @property
    def axial_caps(self) -> np.ndarray:
        return self._axial_caps


@dataclass(frozen=True)
class ChainState:
    """Per-segment bend angles (rad), axial compressions and slack (mm)."""

    theta: np.ndarray
    compression: np.ndarray
    slack: np.ndarray | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        comp = np.asarray(self.compression, dtype=float)
        slack = (np.zeros_like(comp) if self.slack is None
                 else np.asarray(self.slack, dtype=float))
        if not (theta.shape == comp.shape == slack.shape):
            raise ValueError("theta, compression and slack must match in shape")
        if np.any(theta < 0) or np.any(comp < 0) or np.any(slack < 0):
            raise ValueError("bend angles, compressions and slack are nonnegative")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "compression", comp)
        object.__setattr__(self, "slack", slack)


def _pull_and_slope(radius, rest_span, anchor_angle, alpha):
    """String-pull law: pull across each joint and its slope dP/dalpha.

    The one implementation of the pull map; the arguments broadcast, so a
    chain's per-segment arrays go through in one call.  The bent span d2
    follows from the law of cosines on the chord l = 2 radius sin(alpha/2)
    travelled by the distal guide hole (free of the cancellation in
    sqrt(2 radius^2 (1 - cos alpha)) at small bends), the rest span d1 and
    the pull angle beta = alpha/2 - anchor_angle.  The pull d1 - d2 is
    evaluated as (d1^2 - d2^2) / (d1 + d2) = l (2 d1 cos beta - l) /
    (d1 + d2), which keeps its relative precision at small bends, and
    dP/dalpha = (d1 l' cos beta - l l' - d1 l sin(beta) / 2) / d2 with
    l' = radius cos(alpha/2).  Where d2 is zero the slope is not finite.
    """
    alpha = np.asarray(alpha, dtype=float)
    half = alpha / 2.0
    d1 = rest_span
    l = 2.0 * radius * np.sin(half)
    beta = half - anchor_angle
    cos_b = np.cos(beta)
    sq = d1 * d1 + l * l - 2.0 * d1 * l * cos_b
    # the discriminant is >= (d1 - l)^2 analytically; clip rounding dust
    d2 = np.sqrt(np.maximum(sq, 0.0))
    # exactness at rest: l == 0 collapses the triangle to the rest span
    d2 = np.where(l == 0.0, d1, d2)
    pull = np.where(alpha == 0.0, 0.0,
                    l * (2.0 * d1 * cos_b - l) / (d1 + d2))
    dl = radius * np.cos(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (d1 * dl * cos_b - l * dl
                 - 0.5 * d1 * l * np.sin(beta)) / d2
    return pull, slope


def segment_pull(geom: SegmentGeometry, alpha):
    """String length reeled in across one joint bent by ``alpha`` (mm)."""
    alpha = np.asarray(alpha, dtype=float)
    if (alpha < 0).any() or (alpha > geom.max_bend + 1e-12).any():
        raise ValueError("alpha outside [0, max_bend]")
    out = _pull_and_slope(geom.radius, geom.rest_span,
                          math.atan2(geom.anchor_trans, geom.anchor_long),
                          alpha)[0]
    return float(out) if out.ndim == 0 else out


def validate_state(chain: ChainGeometry, state: ChainState) -> None:
    """Raise if ``state`` does not fit ``chain`` (shape or range)."""
    if state.theta.shape != (len(chain.segments),):
        raise ValueError(
            f"state has {state.theta.shape[0] if state.theta.ndim else 0} "
            f"segments, chain has {len(chain.segments)}")
    if np.any(state.theta > chain.max_bend + 1e-9):
        raise ValueError("bend angle exceeds max_bend")
    if np.any(state.compression > chain.axial_caps + 1e-9):
        raise ValueError("compression exceeds axial_cap")
    if np.any(state.slack > chain._slack_caps + 1e-9):
        raise ValueError("slack exceeds socket_slack capacity")


def rest_state(chain: ChainGeometry) -> ChainState:
    n = len(chain.segments)
    return ChainState(np.zeros(n), np.zeros(n), np.zeros(n))


class ChainSolveError(RuntimeError):
    """The inverse pull map did not converge within its iteration cap."""

    def __init__(self, pull: float, iterations: int, residual: float):
        super().__init__(
            f"chain solve for pull {pull:.6g} mm did not converge in "
            f"{iterations} iterations (residual {residual:.3g} mm)")
        self.pull = pull
        self.iterations = iterations
        self.residual = residual


def _joint_pulls(chain: ChainGeometry, theta) -> tuple:
    """Per-segment pulls and slopes dP/dtheta at the bend angles ``theta``."""
    return _pull_and_slope(chain._radius, chain._rest_span,
                           chain._anchor_angle, theta)


def _bend_pull(chain: ChainGeometry, s) -> tuple[np.ndarray, np.ndarray]:
    """Bend pull P(s) with every joint at s * max_bend, and its slope dP/ds.

    ``s`` may be an array of saturations.  Each value is summed over the
    segments on its own row, so it does not depend on the batch around it.
    """
    theta = np.asarray(s, dtype=float)[..., None] * chain._max_bend
    pull, slope = _joint_pulls(chain, theta)
    return pull.sum(axis=-1), (slope * chain._max_bend).sum(axis=-1)


def chain_pull(chain: ChainGeometry, state: ChainState) -> float:
    """Total string pull for a chain configuration (mm).

    Sum of per-joint string shortenings plus axial compressions plus
    socket slack; exactly zero at the rest state.
    """
    validate_state(chain, state)
    bend = _joint_pulls(chain, state.theta)[0].sum()
    return float(bend + state.compression.sum() + state.slack.sum())


def full_bend_pull(chain: ChainGeometry) -> float:
    """String pull with every joint at its bend limit, no compression."""
    return chain._full_bend_pull


def max_chain_pull(chain: ChainGeometry) -> float:
    """Pull capacity: full bend plus all compression and slack absorbed."""
    return chain._capacity


def _check_pulls(pulls: np.ndarray, max_iter: int) -> None:
    if not np.isfinite(pulls).all():
        raise ValueError(f"pull must be finite, got "
                         f"{pulls[~np.isfinite(pulls)][0]}")
    if (pulls < 0).any():
        raise ValueError(f"pull must be >= 0, got {pulls[pulls < 0][0]}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def _saturation(chain: ChainGeometry, targets: np.ndarray, tol: float,
                max_iter: int) -> np.ndarray:
    """Shared saturation s in [0, 1] whose bend pull meets each target.

    ``targets`` is a 1-D array of pulls already clamped to the capacity.
    A target at or past the full-bend pull gives s = 1 and a zero target
    s = 0, both without an evaluation.  The others run Newton's method
    together from the linear guess target / full_bend_pull, each inside
    its own shrinking bracket: a step that would leave the bracket is
    replaced by bisection.  Each round evaluates the bend pull once for
    every target still open, so every target counts one iteration per
    evaluation, and a target leaves the batch once its residual is below
    ``tol``.

    Raises:
        ChainSolveError: for the first target, in array order, whose
            residual is still >= tol after max_iter evaluations.
    """
    full = chain._full_bend_pull
    s = np.where(targets >= full, 1.0, 0.0)
    idx = np.flatnonzero((targets > 0.0) & (targets < full))
    goal = targets[idx]
    x = goal / full
    lo, hi = np.zeros_like(x), np.ones_like(x)
    for _ in range(max_iter if idx.size else 0):
        p, slope = _bend_pull(chain, x)
        err = p - goal
        done = np.abs(err) < tol
        if done.any():
            s[idx[done]] = x[done]
            keep = ~done
            idx, goal, x, err, slope, lo, hi = (
                a[keep] for a in (idx, goal, x, err, slope, lo, hi))
            if not idx.size:
                break
        over = err > 0
        hi = np.where(over, x, hi)
        lo = np.where(over, lo, x)
        # a slope that is not > 0 (or is NaN) gives a NaN step: bisect
        step = x - err / np.where(slope > 0, slope, math.nan)
        x = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    if idx.size:
        raise ChainSolveError(float(goal[0]), max_iter, float(abs(err[0])))
    return s


def solve_bend_from_pull(chain: ChainGeometry, pull: float,
                         tol: float = SOLVE_TOL_MM,
                         max_iter: int = SOLVE_MAX_ITER) -> ChainState:
    """Invert the pull map: distribute a commanded string pull over the chain.

    All joints bend together, theta_i = s * max_bend_i for a shared
    saturation parameter s in [0, 1], found by the bracketed Newton
    kernel that ``bend_angles`` runs over a whole array of pulls.  Pull
    beyond the all-saturated point goes into axial compressions
    proportional to their caps, then into socket slack proportional to
    its capacities.  Excess beyond the total capacity is clamped (with a
    warning).

    Args:
        chain: chain geometry.
        pull: commanded string pull, mm (finite, >= 0).
        tol: tolerance on the bend-pull residual, mm.
        max_iter: cap on the number of bend-pull evaluations (>= 1).

    Returns:
        ChainState whose chain_pull matches min(pull, capacity) within tol.

    Raises:
        ValueError: pull is negative or not finite, or max_iter < 1.
        ChainSolveError: the residual is still >= tol after max_iter
            evaluations.
    """
    _check_pulls(np.array([pull], dtype=float), max_iter)
    n = len(chain.segments)
    caps = chain.axial_caps
    slack_caps = chain._slack_caps

    bend_max = full_bend_pull(chain)
    capacity = max_chain_pull(chain)
    if pull > capacity + tol:
        warnings.warn(
            f"commanded pull {pull:.6g} mm exceeds chain capacity "
            f"{capacity:.6g} mm; clamping", stacklevel=2)
    target = min(pull, capacity)
    s = float(_saturation(chain, np.array([target]), tol, max_iter)[0])

    theta = s * chain.max_bend
    remainder = target - bend_max if s >= 1.0 else 0.0

    compression = np.zeros(n)
    slack = np.zeros(n)
    if remainder > 0 and caps.sum() > 0:
        frac = min(remainder / caps.sum(), 1.0)
        compression = frac * caps
        remainder -= compression.sum()
    if remainder > tol and slack_caps.sum() > 0:
        frac = min(remainder / slack_caps.sum(), 1.0)
        slack = frac * slack_caps

    return ChainState(theta, compression, slack)


def bend_angles(chain: ChainGeometry, pulls, tol: float = SOLVE_TOL_MM,
                max_iter: int = SOLVE_MAX_ITER) -> np.ndarray:
    """Total bend (degrees) for each commanded pull, in one batched solve.

    The same inverse map as ``solve_bend_from_pull``, run once over the
    whole array; each bend equals that function's ``total_bend_angle``.
    Pulls past the capacity are clamped without a warning: a sweep past
    it clamps by design, and ``pulls > max_chain_pull(chain)`` counts
    them.

    Raises:
        ValueError: a pull is negative or not finite, or max_iter < 1.
        ChainSolveError: for the first pull, in array order, that does not
            converge within max_iter evaluations.
    """
    pulls = np.asarray(pulls, dtype=float)
    _check_pulls(pulls, max_iter)
    targets = np.minimum(pulls, chain._capacity).ravel()
    s = _saturation(chain, targets, tol, max_iter)
    theta = s[:, None] * chain._max_bend
    return np.degrees(theta.sum(axis=-1)).reshape(pulls.shape)


def total_bend_angle(state: ChainState) -> float:
    """Summed bend of all joints, in degrees."""
    return float(np.degrees(state.theta.sum()))


def restoring_force(chain: ChainGeometry, state: ChainState) -> float:
    """Return-spring force opposing the string pull (N): k_spring * pull."""
    return chain.k_spring * chain_pull(chain, state)


def stiffness_curve(chain: ChainGeometry, mode: str, displacements,
                    vertical_max: float = DEFAULT_VERTICAL_MAX_N) -> np.ndarray:
    """Vertical force vs pressed displacement for one actuation mode.

    Piecewise linear: slope k_rigid (string tight) or k_flex (string
    relaxed); the rigid curve saturates at the vertical force cap
    ``vertical_max`` (N), the cap ``contact.ForceLimits`` enforces.
    """
    d = np.asarray(displacements, dtype=float)
    if np.any(d < 0):
        raise ValueError("displacements must be nonnegative")
    if np.any(np.diff(d) < 0):
        raise ValueError("displacements must be sorted ascending")
    if mode == RIGID:
        return np.minimum(chain.k_rigid * d, vertical_max)
    if mode == FLEXIBLE:
        return chain.k_flex * d
    raise ValueError(f"mode must be 'rigid' or 'flexible', got {mode!r}")


def chain_pose(chain: ChainGeometry, state: ChainState) -> np.ndarray:
    """Sagittal-plane tarsomere end positions, (5, 2) array of (x, z) mm.

    Segment lengths shrink by the compression and slack of the segment;
    cumulative joint bends rotate the chain downward (negative z).
    """
    validate_state(chain, state)
    lengths = np.asarray(chain.segment_lengths) - state.compression - state.slack
    if np.any(lengths <= 0):
        raise ValueError("compression/slack exceed a segment body length")
    return _pose(lengths, state.theta)


def _pose(lengths: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``chain_pose`` without its checks: the end positions of segments
    of ``lengths`` (mm) bent by ``theta`` (rad)."""
    heading = -np.cumsum(theta)
    steps = lengths[:, None] * np.column_stack([np.cos(heading), np.sin(heading)])
    return np.cumsum(steps, axis=0)


# Default calibrated geometry.  Shapes follow a plausible distally
# shrinking tarsomere profile; all lengths are then scaled uniformly so the
# full-bend string pull lands exactly on the design target (pull is exactly
# linear under uniform scaling of radius/anchor offsets/rest span).
_BASE_RADIUS = (2.5, 2.3, 2.1, 1.9, 1.7)
_BASE_ANCHOR_LONG = (3.2, 3.0, 2.8, 2.6, 2.4)
_BASE_ANCHOR_TRANS = (0.5, 0.45, 0.4, 0.35, 0.3)
_MAX_BEND_DEG = (10.575, 10.575, 10.575, 10.575, 23.5)
_AXIAL_CAP_MM = (1.07, 0.74, 1.9, 0.31, 0.68)

FULL_BEND_PULL_MM = 5.5
TOTAL_BEND_DEG = 65.8
MEASURED_FULL_PULL_MM = 13.1


def default_chain_geometry(socket_slack: bool = False) -> ChainGeometry:
    """Calibrated five-segment chain.

    Full-bend pull is 5.5 mm and the summed bend limit 65.8 deg.  With
    ``socket_slack=True`` an extra slack capacity on segment 2 brings the
    total pull capacity (bend + compression + slack) to 13.1 mm, matching
    bench measurements dominated by socket deformation at that joint.
    """
    base = [
        SegmentGeometry(r, h1, h2, math.radians(am))
        for r, h1, h2, am in zip(_BASE_RADIUS, _BASE_ANCHOR_LONG,
                                 _BASE_ANCHOR_TRANS, _MAX_BEND_DEG)
    ]
    unscaled = sum(segment_pull(s, s.max_bend) for s in base)
    scale = FULL_BEND_PULL_MM / unscaled
    segments = tuple(
        SegmentGeometry(
            radius=scale * s.radius,
            anchor_long=scale * s.anchor_long,
            anchor_trans=scale * s.anchor_trans,
            max_bend=s.max_bend,
            rest_span=scale * s.rest_span,
            axial_cap=cap,
        )
        for s, cap in zip(base, _AXIAL_CAP_MM)
    )
    slack = [0.0] * NUM_TARSOMERES
    if socket_slack:
        slack[1] = MEASURED_FULL_PULL_MM - FULL_BEND_PULL_MM - sum(_AXIAL_CAP_MM)
    return ChainGeometry(segments=segments, socket_slack=tuple(slack))
