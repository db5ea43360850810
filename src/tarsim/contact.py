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
flexible one (at rest, zero pull).  So a run solves the whole joint path
and every claw tip first, then one scan over the ticks runs the contact
rules.  The mesh state is the hooked cell and its strand's deflection;
identical inputs always produce identical samples and event logs.

Event kinds appearing in the log: Hook, Release, Saturation (vertical
force cap reached, deflection clamped), ClawFailure (hooking force limit
exceeded, attachment lost), RepeatSwing (release commanded but the
flexible transition is forbidden, as with a tubed tarsus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# solve_bend_from_pull is not used here; it stays importable from
# tarsim.contact
from .chain import (DEFAULT_VERTICAL_MAX_N, ChainGeometry,  # noqa: F401
                    ChainState, chain_pose, solve_bend_from_pull)
from .leg import LegModel, Trajectory, forward_kinematics, trajectory_to_joints
from .table import read_columns, write_table

DEFAULT_CLAW_LENGTH_MM = 8.0
DEFAULT_CLAW_MAX_OPENING = math.radians(60.0)
DEFAULT_DT_MS = 10.0
DEFAULT_PENETRATION_MM = 5.0

# a claw tip must dip this far below the rest height to hook, so a tip
# scripted to end exactly on it hooks a tick later whatever the rounding
HOOK_TOL_MM = 1e-9

RIGID, FLEXIBLE = "rigid", "flexible"
MODES = (RIGID, FLEXIBLE)


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
        gx = (x - self.origin[0]) / self.spacing
        gy = (y - self.origin[1]) / self.spacing
        if gx % 1.0 == 0.0 or gy % 1.0 == 0.0:
            return None  # exactly on a strand: no opening here
        i, j = int(math.floor(gx)), int(math.floor(gy))
        nx, ny = self.cells
        if 0 <= i < nx and 0 <= j < ny:
            return (i, j)
        return None

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        i, j = cell
        return (self.origin[0] + (i + 0.5) * self.spacing,
                self.origin[1] + (j + 0.5) * self.spacing)


@dataclass(frozen=True)
class Attachment:
    """Free, or hooked into one mesh cell (with the tip pose at engagement)."""

    node: tuple[int, int] | None = None
    tip_at_hook: np.ndarray | None = None

    def __post_init__(self):
        if (self.node is None) != (self.tip_at_hook is None):
            raise ValueError("hooked attachment needs both node and tip")
        if self.tip_at_hook is not None:
            object.__setattr__(self, "tip_at_hook",
                              np.asarray(self.tip_at_hook, dtype=float).reshape(3))

    @property
    def hooked(self) -> bool:
        return self.node is not None

    @property
    def free(self) -> bool:
        return self.node is None

    def __str__(self):
        if self.free:
            return "free"
        return f"hooked:{self.node[0]}:{self.node[1]}"


FREE = Attachment()


def hook_check(tip, mode: str, mesh: MeshGrid) -> Attachment:
    """Hook predicate: rigid mode (claws open), tip more than
    ``HOOK_TOL_MM`` below rest, in a cell opening."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tip = np.asarray(tip, dtype=float).reshape(3)
    if mode != RIGID or not tip[2] < mesh.rest_height - HOOK_TOL_MM:
        return FREE
    cell = mesh.cell_of(tip[0], tip[1])
    if cell is None:
        return FREE
    return Attachment(cell, tip.copy())


def _claw_offset(chain: ChainGeometry, mode: str,
                 claw_length: float) -> tuple[float, float]:
    """Claw-tip (dx, dz) from the leg tip in one actuation mode.

    Rigid: every joint at its bend limit and the claw opened by
    ``DEFAULT_CLAW_MAX_OPENING``; flexible: the chain at rest and the
    claw closed.  The chain is mounted at the leg tip pointing along
    world +x with its bend plane vertical; the claw extends from the last
    tarsomere, rotated further down by its opening angle.
    """
    rigid = mode == RIGID
    theta = chain.max_bend if rigid else np.zeros(len(chain.segments))
    opening = DEFAULT_CLAW_MAX_OPENING if rigid else 0.0
    heading = -float(np.sum(theta)) - opening
    tip = chain_pose(chain, ChainState(theta, np.zeros_like(theta)))[-1] \
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


@dataclass(frozen=True)
class DemoSample:
    """One tick: claw and hooked-strand heights (mm), mode, attachment,
    the tick's events joined by ``;`` and the coupling forces (N)."""

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
    """Where a run ends; ``events`` is the full time-ordered log of
    ``(t_ms, kind)`` pairs."""

    t_ms: float
    attachment: Attachment
    events: tuple = ()


def run_demo_cycle(leg: LegModel, chain: ChainGeometry, mesh: MeshGrid,
                   script: Scenario, dt_ms: float = DEFAULT_DT_MS,
                   limits: ForceLimits | None = None,
                   claw_length: float = DEFAULT_CLAW_LENGTH_MM,
                   **ik_kwargs) -> tuple[list[DemoSample], FinalState]:
    """Run a scripted stand/swing schedule and log claw vs mesh heights.

    First the schedule: each tick's commanded mode, its mode in effect
    (rigid throughout when the flexible transition is forbidden) and a
    leg-tip target interpolated linearly within its phase.  Then the
    kinematics: the joint path from ``trajectory_to_joints``, which
    starts at the home point from a mid-limit warm start and warm-starts
    each tick's IK from the tick before (``ik_kwargs`` go to the IK; a
    NotReachable carries the index of its tick, 0 being the home point),
    the rigid and flexible claw offsets, and every claw tip from one
    batched FK call.  Last, one scan over the ticks runs the contact
    rules: hook while free, else release on a flexible lift, else the
    strand rides the claw (its deflection clamped at the vertical cap)
    until the hooking limit tears it free; then the RepeatSwing check.
    Limit violations become events, never exceptions.  While hooked the
    forces are stiffness times the deflection and times the tangential
    stretch since engagement; on a ClawFailure tick they are the loads
    that broke the hold.

    Returns the per-tick samples and the final state with the event log.
    """
    if not (math.isfinite(dt_ms) and dt_ms > 0):
        raise ValueError(f"dt_ms must be finite and > 0, got {dt_ms}")
    limits = limits or ForceLimits()
    home = np.asarray(script.home_tip, dtype=float)
    commanded, targets, prev = [], [], np.zeros(3)
    for phase in script.phases:
        n = max(1, int(round(phase.duration_ms / dt_ms)))
        goal = np.asarray(phase.tip_offset, dtype=float)
        frac = np.arange(1, n + 1)[:, None] / n
        targets.append(home + prev + frac * (goal - prev))
        commanded += [phase.mode] * n
        prev = goal
    if not commanded:
        return [], FinalState(0.0, FREE)
    modes = [m if script.allow_flexible else RIGID for m in commanded]

    path = trajectory_to_joints(leg, Trajectory(
        np.arange(len(modes) + 1) * dt_ms, np.vstack([home, *targets])),
        **ik_kwargs)
    offsets = {}
    for mode in MODES:
        dx, dz = _claw_offset(chain, mode, claw_length)
        offsets[mode] = (dx, 0.0, dz)
    # row 0 is the start, at the first commanded mode
    tips = (forward_kinematics(leg, path).position + np.array(
        [offsets[m] for m in [commanded[0]] + modes])).tolist()

    rest, k = mesh.rest_height, mesh.node_stiffness
    cap = limits.vertical_max / k
    samples, events = [], []
    attachment, deflection, blocked, t = FREE, 0.0, False, 0.0
    for i, mode in enumerate(modes, 1):
        t += dt_ms
        x, y, z = tips[i]
        kinds = []
        vertical = horizontal = 0.0
        if attachment.free:
            attachment = hook_check(tips[i], mode, mesh)
            if attachment.hooked:
                kinds.append("Hook")
        elif mode == FLEXIBLE and z > rest:
            attachment, deflection = FREE, 0.0
            kinds.append("Release")
        else:
            hx, hy, hz = attachment.tip_at_hook
            was_saturated = abs(deflection) >= cap * (1.0 - 1e-12)
            deflection = z + (rest - hz) - rest  # the strand rides the claw
            if abs(deflection) > cap:
                deflection = math.copysign(cap, deflection)
                if not was_saturated:
                    kinds.append("Saturation")
            vertical = min(k * abs(deflection), limits.vertical_max)
            horizontal = k * float(np.hypot(x - hx, y - hy))
            if horizontal > limits.hooking_max:
                attachment, deflection = FREE, 0.0
                kinds.append("ClawFailure")
        # a swing that cannot release: flexible commanded but forbidden,
        # still hooked, tip moving up; one event per contiguous attempt
        was_blocked, blocked = blocked, (
            commanded[i - 1] == FLEXIBLE and not script.allow_flexible
            and attachment.hooked and z > tips[i - 1][2])
        if blocked and not was_blocked:
            kinds.append("RepeatSwing")
        events += [(t, kind) for kind in kinds]
        samples.append(DemoSample(
            t, z, rest + deflection if attachment.hooked else rest, mode,
            str(attachment), ";".join(kinds), vertical, horizontal))
    return samples, FinalState(t, attachment, tuple(events))


def rigid_claw_offset(chain: ChainGeometry,
                      claw_length: float = DEFAULT_CLAW_LENGTH_MM,
                      ) -> tuple[float, float]:
    """Claw-tip (dx, dz) relative to the leg tip at full rigid actuation."""
    return _claw_offset(chain, RIGID, claw_length)


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
    dx, dz = rigid_claw_offset(chain, claw_length)
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
    write_table(path, DEMO_HEADER,
                [[float(s.t_ms), float(s.claw_z), float(s.mesh_z), s.mode,
                  s.attachment, s.events, float(s.vertical),
                  float(s.horizontal)] for s in samples])


def load_demo_csv(path) -> list[DemoSample]:
    numbers, *texts = read_columns(path, DEMO_HEADER, (0, 1, 2, 6, 7))
    return [DemoSample(t, claw_z, mesh_z, mode, attachment, events, vertical,
                       horizontal)
            for (t, claw_z, mesh_z, vertical, horizontal), mode, attachment,
            events in zip(numbers.tolist(), *texts)]
