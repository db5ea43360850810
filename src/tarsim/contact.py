"""Quasi-static leg-on-mesh simulation: hooking, release, force limits.

The tarsus chain hangs from the leg tip in the world x-z plane; switching
the actuation mode bends it down (rigid, claws open) or lets it straighten
(flexible, claws closed).  A claw tip that dips through a cell opening of
the mesh while rigid hooks that cell; from then on the cell's strand rides
on the claw (hard kinematic coupling) until a flexible-mode lift releases
it or the horizontal force limit tears it free.  There are no dynamics:
every step solves positions first, then forces, so identical inputs always
produce identical successor states.

Event kinds appearing in the log: Hook, Release, Saturation (vertical
force cap reached, deflection clamped), ClawFailure (hooking force limit
exceeded, attachment lost), RepeatSwing (release commanded but the
flexible transition is forbidden, as with a tubed tarsus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import (ChainGeometry, ChainState, ClawState, chain_pose,
                    claw_actuation, full_bend_pull, solve_bend_from_pull,
                    DEFAULT_CLAW_THRESHOLD, DEFAULT_CLAW_MAX_OPENING)
from .leg import LegModel, forward_kinematics, inverse_kinematics
from .table import float_columns, read_table, write_table

DEFAULT_VERTICAL_MAX_N = 2.46
DEFAULT_HOOKING_MAX_N = 28.98
DEFAULT_CLAW_LENGTH_MM = 8.0
DEFAULT_NODE_STIFFNESS = 0.1
ROBOT_MESH_SPACING_MM = 25.0
BEETLE_MESH_SPACING_MM = 2.0

RIGID, FLEXIBLE = "rigid", "flexible"
MODES = (RIGID, FLEXIBLE)


@dataclass(frozen=True)
class ForceLimits:
    """Structural limits of the printed tarsus and claws."""

    vertical_max: float = DEFAULT_VERTICAL_MAX_N
    hooking_max: float = DEFAULT_HOOKING_MAX_N

    def __post_init__(self):
        if self.vertical_max <= 0 or self.hooking_max <= 0:
            raise ValueError("force limits must be positive")


@dataclass(frozen=True)
class MeshGrid:
    """Compliant square mesh: strands every ``spacing`` mm, per-cell deflection.

    ``deflection`` holds the vertical offset of each cell's strand crossing
    from ``rest_height`` (positive up); all zeros at rest.  ``origin`` is
    the (x, y) of the lowest-index strand crossing.
    """

    spacing: float = ROBOT_MESH_SPACING_MM
    node_stiffness: float = DEFAULT_NODE_STIFFNESS
    rest_height: float = 0.0
    cells: tuple[int, int] = (4, 4)
    origin: tuple[float, float] = (0.0, 0.0)
    deflection: np.ndarray | None = None

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("spacing must be > 0")
        if self.node_stiffness <= 0:
            raise ValueError("node_stiffness must be > 0")
        nx, ny = self.cells
        if nx < 1 or ny < 1:
            raise ValueError("mesh needs at least one cell")
        d = (np.zeros((nx, ny)) if self.deflection is None
             else np.asarray(self.deflection, dtype=float))
        if d.shape != (nx, ny):
            raise ValueError(f"deflection shape {d.shape} != cells {self.cells}")
        if not np.all(np.isfinite(d)):
            raise ValueError("deflections must be finite")
        object.__setattr__(self, "deflection", d)
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

    def at_rest(self) -> "MeshGrid":
        return replace(self, deflection=np.zeros(self.cells))


_FREE = None


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


def hook_check(tip, engaged: bool, mode: str, mesh: MeshGrid) -> Attachment:
    """Hook predicate: rigid mode, claws engaged, tip below rest, in a cell."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tip = np.asarray(tip, dtype=float).reshape(3)
    if mode != RIGID or not engaged or not tip[2] < mesh.rest_height:
        return FREE
    cell = mesh.cell_of(tip[0], tip[1])
    if cell is None:
        return FREE
    return Attachment(cell, tip.copy())


@dataclass(frozen=True)
class SimWorld:
    """Immutable simulation setup shared by every step."""

    leg: LegModel
    chain: ChainGeometry
    limits: ForceLimits = ForceLimits()
    claw_threshold: float = DEFAULT_CLAW_THRESHOLD
    claw_max_opening: float = DEFAULT_CLAW_MAX_OPENING
    claw_length: float = DEFAULT_CLAW_LENGTH_MM
    allow_flexible: bool = True
    rigid_pull_mm: float | None = None  # defaults to the full-bend pull

    def pull_for(self, fraction: float) -> float:
        full = self.rigid_pull_mm if self.rigid_pull_mm is not None \
            else full_bend_pull(self.chain)
        return fraction * full


@dataclass(frozen=True)
class StepCommand:
    """One control tick: joint targets plus the commanded tarsus mode."""

    q_target: np.ndarray
    mode: str
    pull_fraction: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "q_target",
                          np.asarray(self.q_target, dtype=float).reshape(4))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.pull_fraction is not None \
                and not 0.0 <= self.pull_fraction <= 1.0:
            raise ValueError("pull_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class SimState:
    """Simulation snapshot; ``events`` is the full time-ordered log."""

    t_ms: float
    q: np.ndarray
    chain_state: ChainState
    mode: str
    attachment: Attachment
    mesh: MeshGrid
    claw_tip: np.ndarray
    events: tuple = ()
    blocked_release: bool = False

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(4))
        object.__setattr__(self, "claw_tip",
                          np.asarray(self.claw_tip, dtype=float).reshape(3))

    def hooked_node_height(self) -> float:
        """Height of the hooked strand, or the rest height when free.

        This is the single hooked cell's strand; a physical measurement
        averaging markers around the contact would read slightly smoother.
        """
        if self.attachment.free:
            return self.mesh.rest_height
        i, j = self.attachment.node
        return self.mesh.rest_height + float(self.mesh.deflection[i, j])


def claw_tip_position(world: SimWorld, q, chain_state: ChainState,
                      claw: ClawState) -> np.ndarray:
    """World claw-tip point: leg tip plus the sagittal chain and claw.

    The chain is mounted at the leg tip pointing along world +x with its
    bend plane vertical; the claw extends from the last tarsomere, rotated
    further down by its opening angle.
    """
    leg_tip = forward_kinematics(world.leg, q).position
    pose = chain_pose(world.chain, chain_state)
    heading = -float(np.sum(chain_state.theta)) - claw.opening_angle
    tip2d = pose[-1] + world.claw_length * np.array(
        [math.cos(heading), math.sin(heading)])
    return leg_tip + np.array([tip2d[0], 0.0, tip2d[1]])


def initial_state(world: SimWorld, q0, mode: str = FLEXIBLE,
                  mesh: MeshGrid | None = None) -> SimState:
    mesh = (mesh or MeshGrid()).at_rest()
    fraction = 1.0 if mode == RIGID else 0.0
    chain_state = solve_bend_from_pull(world.chain, world.pull_for(fraction))
    claw = claw_actuation(fraction, world.claw_threshold, world.claw_max_opening)
    tip = claw_tip_position(world, q0, chain_state, claw)
    return SimState(0.0, q0, chain_state, mode, FREE, mesh, tip)


def step(world: SimWorld, state: SimState, command: StepCommand,
         dt: float) -> SimState:
    """Advance one quasi-static tick.

    Joints snap to the commanded targets (trajectory interpolation is the
    caller's job), the chain re-solves for the commanded pull, then hook,
    release, coupling and force-limit rules run in that order.  Limit
    violations become events, never exceptions.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    t = state.t_ms + dt
    events = []

    mode = command.mode
    if command.mode == FLEXIBLE and not world.allow_flexible:
        mode = RIGID  # tubed tarsus: the flexible transition is disabled
    fraction = command.pull_fraction
    if fraction is None:
        fraction = 1.0 if mode == RIGID else 0.0
    q = command.q_target.copy()
    chain_state = solve_bend_from_pull(world.chain, world.pull_for(fraction))
    claw = claw_actuation(fraction, world.claw_threshold, world.claw_max_opening)
    tip = claw_tip_position(world, q, chain_state, claw)

    mesh = state.mesh
    rest = mesh.rest_height
    k = mesh.node_stiffness
    deflection = np.zeros(mesh.cells)  # free cells relax within one step
    attachment = state.attachment

    if attachment.hooked:
        if mode == FLEXIBLE and tip[2] > rest:
            attachment = FREE
            events.append((t, "Release"))
        else:
            i, j = attachment.node
            offset = rest - attachment.tip_at_hook[2]  # engagement depth
            defl = tip[2] + offset - rest  # strand rides on the claw
            cap = world.limits.vertical_max / k
            was_saturated = abs(float(state.mesh.deflection[i, j])) \
                >= cap * (1.0 - 1e-12)
            if abs(defl) > cap:
                defl = math.copysign(cap, defl)
                if not was_saturated:
                    events.append((t, "Saturation"))
            stretch = float(np.hypot(tip[0] - attachment.tip_at_hook[0],
                                     tip[1] - attachment.tip_at_hook[1]))
            if k * stretch > world.limits.hooking_max:
                events.append((t, "ClawFailure"))
                attachment = FREE
            else:
                deflection[i, j] = defl
    else:
        attachment = hook_check(tip, claw.engaged, mode, mesh)
        if attachment.hooked:
            events.append((t, "Hook"))

    # a swing attempt that cannot release: flexible commanded but forbidden,
    # still hooked, tip moving upward; one event per contiguous attempt
    blocked = (command.mode == FLEXIBLE and not world.allow_flexible
               and attachment.hooked and tip[2] > state.claw_tip[2])
    if blocked and not state.blocked_release:
        events.append((t, "RepeatSwing"))

    return SimState(
        t_ms=t, q=q, chain_state=chain_state, mode=mode,
        attachment=attachment,
        mesh=replace(mesh, deflection=deflection),
        claw_tip=tip,
        events=state.events + tuple(events),
        blocked_release=blocked,
    )


def coupling_force(state: SimState,
                   limits: ForceLimits | None = None) -> tuple[float, float]:
    """(vertical, horizontal) coupling forces in N; zeros when free.

    Vertical is stiffness times the hooked strand's deflection magnitude,
    horizontal is stiffness times the tangential stretch since engagement.
    With ``limits`` given, the vertical force is clamped at the cap.
    """
    if state.attachment.free:
        return (0.0, 0.0)
    i, j = state.attachment.node
    k = state.mesh.node_stiffness
    vertical = k * abs(float(state.mesh.deflection[i, j]))
    stretch = float(np.hypot(state.claw_tip[0] - state.attachment.tip_at_hook[0],
                             state.claw_tip[1] - state.attachment.tip_at_hook[1]))
    horizontal = k * stretch
    if limits is not None:
        vertical = min(vertical, limits.vertical_max)
    return (vertical, horizontal)


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
    t_ms: float
    claw_z: float
    mesh_z: float
    mode: str
    attachment: str
    events: str


def run_demo_cycle(leg: LegModel, chain: ChainGeometry, mesh: MeshGrid,
                   script: Scenario, dt_ms: float = 10.0,
                   limits: ForceLimits | None = None,
                   claw_length: float = DEFAULT_CLAW_LENGTH_MM,
                   ) -> tuple[list[DemoSample], SimState]:
    """Run a scripted stand/swing schedule and log claw vs mesh heights.

    Leg-tip targets interpolate linearly within each phase (IK per tick,
    warm-started), so NotReachable propagates if the script leaves the
    workspace.  Returns the per-tick samples and the final state with the
    full event log.
    """
    world = SimWorld(leg=leg, chain=chain,
                     limits=limits or ForceLimits(),
                     claw_length=claw_length,
                     allow_flexible=script.allow_flexible)
    home = np.asarray(script.home_tip, dtype=float)
    q = inverse_kinematics(leg, home, 0.5 * (leg.lower + leg.upper)).q
    state = initial_state(world, q, mode=script.phases[0].mode
                          if script.phases else FLEXIBLE, mesh=mesh)

    samples = []
    prev_offset = np.zeros(3)
    n_events_seen = 0
    for phase in script.phases:
        target_offset = np.asarray(phase.tip_offset, dtype=float)
        n_ticks = max(1, int(round(phase.duration_ms / dt_ms)))
        for tick in range(1, n_ticks + 1):
            frac = tick / n_ticks
            tip_target = home + prev_offset + frac * (target_offset - prev_offset)
            sol = inverse_kinematics(leg, tip_target, q)
            q = sol.q
            state = step(world, state,
                         StepCommand(q_target=q, mode=phase.mode), dt_ms)
            new_events = state.events[n_events_seen:]
            n_events_seen = len(state.events)
            samples.append(DemoSample(
                t_ms=state.t_ms,
                claw_z=float(state.claw_tip[2]),
                mesh_z=state.hooked_node_height(),
                mode=state.mode,
                attachment=str(state.attachment),
                events=";".join(kind for _, kind in new_events),
            ))
        prev_offset = target_offset
    return samples, state


def rigid_claw_offset(chain: ChainGeometry,
                      claw_length: float = DEFAULT_CLAW_LENGTH_MM,
                      claw_max_opening: float = DEFAULT_CLAW_MAX_OPENING,
                      ) -> tuple[float, float]:
    """Claw-tip (dx, dz) relative to the leg tip at full rigid actuation."""
    st = solve_bend_from_pull(chain, full_bend_pull(chain))
    pose = chain_pose(chain, st)
    heading = -float(np.sum(st.theta)) - claw_max_opening
    tip = pose[-1] + claw_length * np.array([math.cos(heading),
                                             math.sin(heading)])
    return (float(tip[0]), float(tip[1]))


def builtin_scenario(name: str, chain: ChainGeometry, mesh: MeshGrid,
                     claw_length: float = DEFAULT_CLAW_LENGTH_MM,
                     penetration_mm: float = 5.0) -> Scenario:
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
               "event")


def save_demo_csv(path, samples) -> None:
    write_table(path, DEMO_HEADER,
                [[float(s.t_ms), float(s.claw_z), float(s.mesh_z), s.mode,
                  s.attachment, s.events] for s in samples])


def load_demo_csv(path) -> list[DemoSample]:
    _, rows = read_table(path, DEMO_HEADER)
    numbers = float_columns(path, rows, range(3)).tolist()
    return [DemoSample(*xs, *row[3:]) for xs, row in zip(numbers, rows)]
