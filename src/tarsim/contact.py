"""Quasi-static leg-on-mesh simulation: hooking, release, force limits.

The tarsus chain hangs from the leg tip in the world x-z plane; switching
the actuation mode bends it down (rigid, claws open) or lets it straighten
(flexible, claws closed).  A claw tip that dips through a cell opening of
the mesh while rigid hooks that cell; from then on the cell's strand rides
on the claw (hard kinematic coupling) until a flexible-mode lift releases
it or the horizontal force limit tears it free.  There are no dynamics,
and nothing kinematic depends on the contact state: the leg-tip path is
scripted, the mode follows the command, and the chain only ever takes its
rigid state (every joint at its bend limit, the full-bend pull) or its
flexible one (at rest, zero pull).  So a run takes every claw tip first,
the scripted leg-tip target plus the mode's claw offset, with one
batched reach test of the leg, and then runs the contact rules as array
passes:
the hook law and the release test on every tick at once, then one pass
per hold over its slice of ticks, from its Hook to its Release or
ClawFailure, and one for RepeatSwing.  Python steps once per hold, not
once per tick.  The mesh state is the hooked cell and its strand's
deflection; identical inputs always produce identical samples and event
logs.

Event kinds appearing in the log: Hook, Release, Saturation (vertical
force cap reached, deflection clamped), ClawFailure (hooking force limit
exceeded, attachment lost), RepeatSwing (release commanded but the
flexible transition is forbidden, as with a tubed tarsus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# solve_bend_from_pull is not used here; it stays importable from
# tarsim.contact
from .chain import (DEFAULT_VERTICAL_MAX_N, FLEXIBLE, MODES,  # noqa: F401
                    RIGID, ChainGeometry, _pose, solve_bend_from_pull)
from .leg import (IK_TOL_MM, LegModel, Trajectory, _reaches,
                  trajectory_to_joints)
from .table import read_columns, write_table

DEFAULT_CLAW_LENGTH_MM = 8.0
DEFAULT_CLAW_MAX_OPENING = math.radians(60.0)
DEFAULT_DT_MS = 10.0
DEFAULT_PENETRATION_MM = 5.0

# a claw tip must dip this far below the rest height to hook, so a tip
# scripted to end exactly on it hooks a tick later whatever the rounding
HOOK_TOL_MM = 1e-9


@dataclass(frozen=True)
class ForceLimits:
    """Structural limits of the printed tarsus and claws."""

    vertical_max: float = DEFAULT_VERTICAL_MAX_N
    hooking_max: float = 28.98

    def __post_init__(self):
        if self.vertical_max <= 0 or self.hooking_max <= 0:
            raise ValueError("force limits must be positive")


@dataclass(frozen=True)
class MeshGrid:
    """Compliant square mesh: strands every ``spacing`` mm around cells.

    ``origin`` is the (x, y) of the lowest-index strand crossing.  A
    hooked cell's strand deflects from ``rest_height``; the others rest.
    The defaults are the robot's mesh, placed under the default leg.
    """

    spacing: float = 25.0
    node_stiffness: float = 0.1
    rest_height: float = -120.0
    cells: tuple[int, int] = (4, 4)
    origin: tuple[float, float] = (100.0, -50.0)

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("spacing must be > 0")
        if self.node_stiffness <= 0:
            raise ValueError("node_stiffness must be > 0")
        nx, ny = self.cells
        if nx < 1 or ny < 1:
            raise ValueError("mesh needs at least one cell")
        object.__setattr__(self, "origin",
                          (float(self.origin[0]), float(self.origin[1])))

    def cell_of(self, x: float, y: float) -> tuple[int, int] | None:
        """Containing cell of a horizontal point, or None on a strand/outside."""
        inside, i, j = self._cells(float(x), float(y))
        return (int(i), int(j)) if inside else None

    def _cells(self, x, y) -> tuple:
        """The opening test over horizontal points, floats or arrays:
        (inside, i, j), whether each point is strictly inside a cell
        opening and the floors of its grid coordinates, which are that
        cell's indices where it is inside."""
        gx = (x - self.origin[0]) / self.spacing
        gy = (y - self.origin[1]) / self.spacing
        i, j = np.floor(gx), np.floor(gy)
        nx, ny = self.cells
        # exactly on a strand: no opening there
        inside = ((gx % 1.0 != 0.0) & (gy % 1.0 != 0.0)
                  & (0 <= i) & (i < nx) & (0 <= j) & (j < ny))
        return inside, i, j

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        i, j = cell
        return (self.origin[0] + (i + 0.5) * self.spacing,
                self.origin[1] + (j + 0.5) * self.spacing)


def hook_check(tip, mode: str, mesh: MeshGrid) -> tuple[int, int] | None:
    """Hooked cell of a claw tip, or None: it hooks in rigid mode (claws
    open), more than ``HOOK_TOL_MM`` below rest, in a cell opening."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    x, y, z = np.asarray(tip, dtype=float).reshape(3).tolist()
    hooks, i, j = _hooks(x, y, z, mode == RIGID, mesh)
    return (int(i), int(j)) if hooks else None


def _hooks(x, y, z, rigid, mesh: MeshGrid) -> tuple:
    """The hook law over claw tips, floats or arrays of coordinates:
    (hooks, i, j), where a tip hooks when ``rigid`` (a mask, or one bool
    for all), more than ``HOOK_TOL_MM`` below rest and inside a cell
    opening, and (i, j) is that cell where it hooks."""
    inside, i, j = mesh._cells(x, y)
    below = z < mesh.rest_height - HOOK_TOL_MM
    return rigid & below & inside, i, j


def claw_offset(chain: ChainGeometry, mode: str,
                claw_length: float = DEFAULT_CLAW_LENGTH_MM,
                ) -> tuple[float, float]:
    """Claw-tip (dx, dz) from the leg tip in one actuation mode.

    Rigid: every joint at its bend limit and the claw opened by
    ``DEFAULT_CLAW_MAX_OPENING``; flexible: the chain at rest and the
    claw closed.  The chain is mounted at the leg tip pointing along
    world +x with its bend plane vertical; the claw extends from the last
    tarsomere, rotated further down by its opening angle.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    rigid = mode == RIGID
    theta = chain.max_bend if rigid else np.zeros(len(chain.segments))
    opening = DEFAULT_CLAW_MAX_OPENING if rigid else 0.0
    heading = -float(np.sum(theta)) - opening
    # theta is the chain's own bend limits or zeros, which pass every
    # check of chain_pose
    tip = _pose(np.asarray(chain.segment_lengths), theta)[-1] \
        + claw_length * np.array([math.cos(heading), math.sin(heading)])
    return float(tip[0]), float(tip[1])


@dataclass(frozen=True)
class Phase:
    """One scripted stretch: hold a mode while the leg tip glides to an offset."""

    name: str
    duration_ms: float
    mode: str
    tip_offset: tuple[float, float, float]

    def __post_init__(self):
        if self.duration_ms <= 0:
            raise ValueError("duration must be > 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass(frozen=True)
class Scenario:
    """A phase schedule plus the home leg-tip point it is relative to."""

    name: str
    home_tip: tuple[float, float, float]
    phases: tuple[Phase, ...]
    allow_flexible: bool = True
    expect_failures: bool = False

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(self.phases))


class DemoSample(NamedTuple):
    """One tick: claw and hooked-strand heights (mm), mode, attachment
    (``free``, or ``hooked:i:j`` for cell (i, j)) when the tick ends, the
    tick's events joined by ``;`` and the coupling forces (N).  The
    fields follow ``DEMO_HEADER``, so a sample is a row of the demo CSV."""

    t_ms: float
    claw_z: float
    mesh_z: float
    mode: str
    attachment: str
    events: str
    vertical: float
    horizontal: float


@dataclass(frozen=True)
class FinalState:
    """When a run ends, and ``events``, its full time-ordered log of
    ``(t_ms, kind)`` pairs.  The attachment it ends in is its last
    sample's."""

    t_ms: float
    events: tuple = ()


def run_demo_cycle(leg: LegModel, chain: ChainGeometry, mesh: MeshGrid,
                   script: Scenario, dt_ms: float = DEFAULT_DT_MS,
                   limits: ForceLimits | None = None,
                   claw_length: float = DEFAULT_CLAW_LENGTH_MM,
                   tol_mm: float = IK_TOL_MM
                   ) -> tuple[list[DemoSample], FinalState]:
    """Run a scripted stand/swing schedule and log claw vs mesh heights.

    First the schedule: each tick's commanded mode, its mode in effect
    (rigid throughout when the flexible transition is forbidden) and a
    leg-tip target interpolated linearly within its phase.  Then the
    kinematics: each claw tip is its tick's target plus the rigid or
    flexible claw offset.  Reach is one batched test (``leg._reaches``):
    a target that some warm-start-free IK candidate lands within
    ``tol_mm`` is landed by the warm-started IK too.  Only if a tick
    fails it is the joint path solved (``trajectory_to_joints``, from
    the home point and a mid-limit warm start, each tick warm-started
    from the one before), which raises NotReachable with the index of
    its tick, 0 being the home point; a tick it lands after all changes
    nothing.  A claw tip is built on the scripted target, not on FK of
    an IK answer (which lies within ``tol_mm`` of it), so a loose
    tolerance widens reach but does not make the claw lag its script.
    Last, the contact rules (see ``_scan``): hook while free, else
    release on a flexible lift, else the strand rides the claw (its
    deflection clamped at the vertical cap) until the hooking limit
    tears it free; then the RepeatSwing check.  Limit violations become
    events, never exceptions.  While hooked the forces are stiffness
    times the deflection and times the tangential stretch since
    engagement; on a ClawFailure tick they are the loads that broke the
    hold.

    Returns the per-tick samples and the final state: the end time and
    the event log.  Raises ValueError for a phase of more ticks than an
    array can hold.
    """
    if not (math.isfinite(dt_ms) and dt_ms > 0):
        raise ValueError(f"dt_ms must be finite and > 0, got {dt_ms}")
    limits = limits or ForceLimits()
    home = np.asarray(script.home_tip, dtype=float)
    counts, targets, prev = [], [], np.zeros(3)
    for phase in script.phases:
        ticks = phase.duration_ms / dt_ms
        try:
            n = max(1, int(round(ticks)))
            frac = np.arange(1, n + 1)[:, None] / n
        except (OverflowError, ValueError):  # inf, or numpy refuses n
            raise ValueError(f"phase {phase.name!r}: {ticks:g} ticks are "
                             f"more than an array can hold") from None
        goal = np.asarray(phase.tip_offset, dtype=float)
        # a target past the float range lands nowhere, as _reaches finds
        with np.errstate(over="ignore", invalid="ignore"):
            targets.append(home + prev + frac * (goal - prev))
        counts.append(n)
        prev = goal
    if not counts:
        return [], FinalState(0.0)
    commanded_flexible = np.repeat(
        [phase.mode == FLEXIBLE for phase in script.phases], counts)

    points = np.vstack([home, *targets])
    if not _reaches(leg, points, tol_mm).all():
        # the warm-started joint path raises NotReachable at its tick
        trajectory_to_joints(leg, Trajectory(
            np.arange(len(points)) * dt_ms, points), tol_mm=tol_mm)
    offsets = {}
    for mode in MODES:
        dx, dz = claw_offset(chain, mode, claw_length)
        offsets[mode] = (dx, 0.0, dz)
    # the mode in effect: rigid throughout when flexible is forbidden
    rigid = ~commanded_flexible | (not script.allow_flexible)
    # row 0 is the start, at the first commanded mode
    tips = points + np.where(np.r_[not commanded_flexible[0], rigid][:, None],
                             offsets[RIGID], offsets[FLEXIBLE])
    # the flexible command is forbidden on these ticks
    swings = commanded_flexible & (not script.allow_flexible)
    return _scan(tips, rigid, swings, mesh, limits, dt_ms)


def _scan(tips: np.ndarray, rigid: np.ndarray, swings: np.ndarray,
          mesh: MeshGrid, limits: ForceLimits,
          dt_ms: float) -> tuple[list[DemoSample], FinalState]:
    """The contact rules of ``run_demo_cycle`` over whole arrays of ticks.

    ``tips`` holds the claw tip of the start (row 0) and of each tick;
    the ``rigid`` mask gives each tick's mode in effect, and ``swings``
    marks the ticks whose flexible command is forbidden.  The hook law
    and the release test run on every tick at once.  A hold runs from its
    Hook to the first tick that releases (flexible, tip above rest) or
    whose tangential force tears the claw free, and each hold is one pass
    over its slice: the strand deflection, clamped at the vertical cap,
    Saturation where a tick saturates after one that did not, and the
    forces.  The next hold is looked for from the tick after the one that
    ended this one.  Last, RepeatSwing opens each run of ticks that are
    hooked, moving up and forbidden a flexible command.
    """
    n = len(rigid)
    modes = np.where(rigid, RIGID, FLEXIBLE).tolist()
    x, y, z = tips[1:].T
    rest, k = mesh.rest_height, mesh.node_stiffness
    cap = limits.vertical_max / k
    t = np.cumsum(np.full(n, float(dt_ms))).tolist()
    hooks, cell_i, cell_j = _hooks(x, y, z, rigid, mesh)
    hook_ticks = np.flatnonzero(hooks)
    release_ticks = np.flatnonzero(~rigid & (z > rest))
    mesh_z = np.full(n, rest)
    vertical, horizontal = np.zeros(n), np.zeros(n)
    hooked = np.zeros(n, dtype=bool)  # still hooked when the tick ends
    attachments = ["free"] * n
    events = []  # (tick, kind)
    tick = 0
    while (p := np.searchsorted(hook_ticks, tick)) < hook_ticks.size:
        h = int(hook_ticks[p])
        hx, hy, hz = tips[h + 1]
        q = np.searchsorted(release_ticks, h + 1)
        end = int(release_ticks[q]) if q < release_ticks.size else n
        hold = slice(h + 1, end)
        # the strand rides the claw
        deflection = z[hold] + (rest - hz) - rest
        over = np.abs(deflection) > cap
        deflection = np.where(over, np.copysign(cap, deflection), deflection)
        saturated = np.abs(deflection) >= cap * (1.0 - 1e-12)
        pull = k * np.hypot(x[hold] - hx, y[hold] - hy)
        # the hold ends on its first tick past the hooking limit, which
        # carries the loads that broke it, else on the release tick
        torn = np.flatnonzero(pull > limits.hooking_max)
        if torn.size:
            end = h + 1 + int(torn[0])
        m = end - h if torn.size else end - h - 1  # ticks with forces
        vertical[h + 1:h + 1 + m] = np.minimum(k * np.abs(deflection[:m]),
                                               limits.vertical_max)
        horizontal[h + 1:h + 1 + m] = pull[:m]
        mesh_z[h] = rest + 0.0  # the hook tick's deflection is 0.0
        mesh_z[h + 1:end] = rest + deflection[:end - h - 1]
        hooked[h:end] = True
        label = f"hooked:{int(cell_i[h])}:{int(cell_j[h])}"
        attachments[h:end] = [label] * (end - h)
        events.append((h, "Hook"))
        saturates = (over & ~np.r_[False, saturated][:-1])[:m]
        events += [(h + 1 + i, "Saturation")
                   for i in np.flatnonzero(saturates).tolist()]
        if torn.size:
            events.append((end, "ClawFailure"))
        elif end < n:
            events.append((end, "Release"))
        tick = end + 1
    # a swing that cannot release: flexible commanded but forbidden, still
    # hooked, tip moving up; one event per contiguous attempt
    blocked = swings & hooked & (z > tips[:-1, 2])
    events += [(i, "RepeatSwing") for i in np.flatnonzero(
        blocked & ~np.r_[False, blocked][:-1]).tolist()]
    events.sort(key=lambda event: event[0])  # stable: RepeatSwing last
    labels = [""] * n
    for i, kind in events:
        labels[i] = f"{labels[i]};{kind}" if labels[i] else kind
    samples = list(map(DemoSample, t, z.tolist(), mesh_z.tolist(), modes,
                       attachments, labels, vertical.tolist(),
                       horizontal.tolist()))
    return samples, FinalState(t[-1],
                               tuple((t[i], kind) for i, kind in events))


def builtin_scenario(name: str, chain: ChainGeometry, mesh: MeshGrid,
                     claw_length: float = DEFAULT_CLAW_LENGTH_MM,
                     penetration_mm: float = DEFAULT_PENETRATION_MM,
                     ) -> Scenario:
    """The shipped demo scripts: ``walk_cycle`` and its ``tubed`` pathology.

    The home point is derived from the mesh so that the rigid-mode claw
    lands mid-cell at ``penetration_mm`` below the rest height: descend
    flexible, hook rigid, press, carry the mesh up and back down, then
    release flexible and swing clear.  The tubed variant runs the same
    schedule with the flexible transition disabled.
    """
    if name not in ("walk_cycle", "tubed"):
        raise ValueError(f"unknown scenario {name!r}; "
                         f"built-ins are 'walk_cycle' and 'tubed'")
    dx, dz = claw_offset(chain, RIGID, claw_length)
    nx, ny = mesh.cells
    cx, cy = mesh.cell_center((max(0, nx // 2 - 1), ny // 2))
    engage_z = mesh.rest_height - penetration_mm - dz  # leg-tip height
    home = (cx - dx, cy, engage_z + 40.0)
    descend = (0.0, 0.0, -40.0)
    phases = (
        Phase("approach", 200.0, FLEXIBLE, descend),
        Phase("engage", 100.0, RIGID, descend),
        Phase("press", 150.0, RIGID, (0.0, 0.0, -45.0)),
        Phase("carry_up", 250.0, RIGID, (0.0, 0.0, -20.0)),
        Phase("carry_down", 250.0, RIGID, (0.0, 0.0, -45.0)),
        Phase("release", 100.0, FLEXIBLE, (0.0, 0.0, -45.0)),
        Phase("swing", 300.0, FLEXIBLE, (0.0, 0.0, 0.0)),
    )
    return Scenario(name=name, home_tip=home, phases=phases,
                    allow_flexible=(name != "tubed"))


DEMO_HEADER = ("t_ms", "claw_z_mm", "mesh_z_mm", "mode", "attachment",
               "event", "vertical_N", "horizontal_N")


def save_demo_csv(path, samples) -> None:
    write_table(path, DEMO_HEADER, samples)


def load_demo_csv(path) -> list[DemoSample]:
    numbers, *texts = read_columns(path, DEMO_HEADER, (0, 1, 2, 6, 7))
    return [DemoSample(t, claw_z, mesh_z, mode, attachment, events, vertical,
                       horizontal)
            for (t, claw_z, mesh_z, vertical, horizontal), mode, attachment,
            events in zip(numbers.tolist(), *texts)]
