"""Seeded input generator: every file a benchmarked command receives.

``Generator(seed, root).command(workload, i)`` writes the inputs of the
``i``-th command of a workload under ``root/in/<workload>/<i>/`` and
returns a ``Command`` with its argument vector, its work units and the
ground truth its output is checked against.  Command ``i`` depends only on
``(seed, workload, i)``, so the same seed gives byte-identical files
whatever else was generated before, and every command gets inputs of its
own (an in-process result cache sees no repeats).

Paths in the argument vector are relative to ``root``; commands run with
``root`` as the working directory.

The ground truth is computed here, independently of tarsim: the leg's
forward kinematics is re-derived from the prototype's DH table, the
scenario tick count from the built-in phase durations, and the gait
touchdowns from the injected period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sim", "chain_sweep", "leg_ik", "gait")

# built-in scenario phase durations (approach, engage, press, carry_up,
# carry_down, release, swing) and the events each scenario must log
SCENARIO_PHASES_MS = (200.0, 100.0, 150.0, 250.0, 250.0, 100.0, 300.0)
SCENARIO_EVENTS = {
    "walk_cycle": {"Hook": 1, "Release": 1},
    "tubed": {"Hook": 1, "Saturation": 1, "RepeatSwing": 1},
}

SIM_SPACINGS_MM = (20, 25, 30)
SIM_REST_HEIGHTS_MM = (-120, -60, 0)

# chain calibration: full bend of 65.8 deg is reached at 5.5 mm of pull
SWEEP_STOP_MM = 13.1
SWEEP_STEP_MM = 0.1
FULL_BEND_PULL_MM = 5.5
TOTAL_BEND_DEG = 65.8

# prototype leg: standard DH rows (a_mm, alpha_twist_rad), d = 0, and
# joint limits of +-150 deg
LEG_DH = ((30.0, math.pi / 2), (25.0, 0.0), (80.0, 0.0), (120.0, 0.0))
LEG_LIMIT_RAD = math.radians(150.0)
LEG_REACH_MM = sum(a for a, _ in LEG_DH)
UNREACHABLE_EVERY = 20   # one --ik target in 20 lies just outside reach
RETARGET_EVERY = 10      # one leg command in 10 retargets a step path
RETARGET_SCALE = 8.0
RETARGET_SAMPLES = 40

# marker recordings
GAIT_FRAMES = 3000
GAIT_RATE_FPS = 100.0
GAIT_DT_MS = 1000.0 / GAIT_RATE_FPS
GAIT_SPAN_MS = (GAIT_FRAMES - 1) * GAIT_DT_MS
# cycles per recording; the period is the span over this count, so each
# recording starts and ends half a period away from a touchdown
GAIT_CYCLES = {"mesh": (62, 67), "plate": (70, 75)}
GAIT_CONDITIONS = ("mesh", "mesh", "plate", "plate")
MARKER_NOISE_MM = 0.05
DROPOUT_START_P = 0.002   # per marker and frame: a dropout run starts
DROPOUT_MAX_FRAMES = 5
ABSENT_FRAME_P = 0.001    # per frame: no marker rows at all


@dataclass
class Command:
    """One tarsim invocation with its truth and, once run, its timing."""

    workload: str
    index: int
    argv: list
    units: int          # work units: ticks, pull solves, IK solves, frames
    truth: dict
    out: str            # output directory, relative to the work root
    rc: int | None = None
    stderr: str = ""
    wall_s: float = 0.0
    norm_s: float = 0.0
    files: int = 0      # files the command wrote, and their size
    bytes: int = 0
    problems: list = field(default_factory=list)


def leg_fk(q) -> np.ndarray:
    """Tip position of the prototype leg (independent DH product)."""
    T = np.eye(4)
    for (a, alpha), th in zip(LEG_DH, q):
        ct, st = math.cos(th), math.sin(th)
        ca, sa = math.cos(alpha), math.sin(alpha)
        T = T @ np.array([[ct, -st * ca, st * sa, a * ct],
                          [st, ct * ca, -ct * sa, a * st],
                          [0.0, sa, ca, 0.0],
                          [0.0, 0.0, 0.0, 1.0]])
    return T[:3, 3]


def sweep_rows(start: float) -> int:
    """Row count of ``--sweep start:13.1:0.1`` (last point within half a step)."""
    return int(math.floor((SWEEP_STOP_MM - start) / SWEEP_STEP_MM + 0.5)) + 1


class Generator:
    """Writes command inputs under ``root`` from one seed."""

    def __init__(self, seed: int, root):
        self.seed = seed
        self.root = Path(root)

    def command(self, workload: str, i: int) -> Command:
        rng = np.random.default_rng(
            [self.seed, WORKLOADS.index(workload), i])
        rel = Path("in") / workload / str(i)
        (self.root / rel).mkdir(parents=True, exist_ok=True)
        make = getattr(self, "_" + workload)
        return make(rng, i, rel, f"out/{workload}/{i}")

    def _write(self, rel: Path, name: str, text: str) -> str:
        with open(self.root / rel / name, "w", newline="") as fh:
            fh.write(text)
        return str(rel / name)

    # -- sim ---------------------------------------------------------------

    def _sim(self, rng, i, rel, out) -> Command:
        scenario = "walk_cycle" if i % 2 == 0 else "tubed"
        # dt 5 ms (twice the ticks) on two commands in twelve, one per
        # scenario: the latency median then sits well inside the 10 ms mode
        dt = 5 if i % 12 in (5, 8) else 10
        # each block of nine commands meets every mesh spacing and rest
        # height pair once, in a seeded order, so runs share one input mix
        block = np.random.default_rng(
            [self.seed, WORKLOADS.index("sim"), i // 9, 9]).permutation(9)
        spacing = SIM_SPACINGS_MM[block[i % 9] // 3]
        rest = SIM_REST_HEIGHTS_MM[block[i % 9] % 3]
        origin = 100.0 + rng.uniform(-5.0, 5.0), -50.0 + rng.uniform(-5.0, 5.0)
        conf = self._write(rel, "sim.conf", (
            f"[mesh]\nspacing_mm = {spacing}\nrest_height_mm = {rest}\n"
            f"origin_x_mm = {origin[0]!r}\norigin_y_mm = {origin[1]!r}\n"
            f"[sim]\ndt_ms = {dt}\n"))
        ticks = sum(max(1, int(round(d / dt))) for d in SCENARIO_PHASES_MS)
        return Command("sim", i, [
            "sim", "--scenario", scenario, "--format", "both",
            "--config", conf, "--out", out],
            units=ticks,
            truth={"scenario": scenario, "ticks": ticks, "dt_ms": float(dt),
                   "events": SCENARIO_EVENTS[scenario]},
            out=out)

    # -- chain_sweep ---------------------------------------------------------

    def _chain_sweep(self, rng, i, rel, out) -> Command:
        slack = i % 2 == 1
        # a start offset per command keeps the pulls distinct between
        # commands; offsets near half a step are skipped so the last
        # point's inclusion is never a rounding question
        start = float(rng.choice(np.r_[1:41, 60:100])) / 1000.0
        conf = self._write(rel, "chain.conf",
                           f"[chain]\nsocket_slack = {str(slack).lower()}\n")
        rows = sweep_rows(start)
        return Command("chain_sweep", i, [
            "chain", "--sweep", f"{start!r}:{SWEEP_STOP_MM}:{SWEEP_STEP_MM}",
            "--format", "both", "--config", conf, "--out", out],
            units=rows,
            truth={"start": start, "rows": rows},
            out=out)

    # -- leg_ik ---------------------------------------------------------------

    def _leg_ik(self, rng, i, rel, out) -> Command:
        conf = self._write(rel, "leg.conf", "[ik]\ntol_mm = 1e-06\n")
        if i % RETARGET_EVERY == RETARGET_EVERY - 1:
            return self._retarget(rng, i, rel, out, conf)
        if i % UNREACHABLE_EVERY == UNREACHABLE_EVERY // 2:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            target = d * (LEG_REACH_MM + rng.uniform(0.5, 5.0))
            reachable = False
        else:
            q = rng.uniform(-LEG_LIMIT_RAD, LEG_LIMIT_RAD, 4)
            target = leg_fk(q)
            reachable = True
        return Command("leg_ik", i, [
            # the = form: a target may start with a minus sign
            "leg", "--ik=" + ",".join(repr(float(v)) for v in target),
            "--config", conf, "--out", out],
            units=1,
            truth={"kind": "ik", "target": target.tolist(),
                   "reachable": reachable},
            out=out)

    def _retarget(self, rng, i, rel, out, conf) -> Command:
        """A beetle step (stance stroke, then swing arc) scaled onto the leg."""
        q0 = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3),
                       rng.uniform(-1.2, -0.6), rng.uniform(-1.4, -0.8)])
        home = leg_fk(q0)
        stroke = rng.uniform(2.0, 4.0)     # beetle mm
        lift = rng.uniform(0.6, 1.2)
        heading = rng.uniform(-math.pi, math.pi)
        u = np.array([math.cos(heading), math.sin(heading), 0.0])
        n = RETARGET_SAMPLES
        phase = np.arange(n) / (n - 1)
        stance = phase < 0.6
        along = np.where(stance, -stroke * phase / 0.6,
                         -stroke + stroke * (phase - 0.6) / 0.4)
        up = np.where(stance, 0.0, lift * np.sin(math.pi * (phase - 0.6) / 0.4))
        pts = home + along[:, None] * u + up[:, None] * np.array([0, 0, 1.0])
        pts[0] = home
        t = 10.0 * np.arange(n) + float(rng.integers(0, 1000))
        lines = ["t_ms,x_mm,y_mm,z_mm"]
        lines += [f"{tt!r},{p[0]!r},{p[1]!r},{p[2]!r}"
                  for tt, p in zip(t.tolist(), pts.tolist())]
        path = self._write(rel, "beetle.csv", "\n".join(lines) + "\n")
        scaled = home + RETARGET_SCALE * (pts - home)
        return Command("leg_ik", i, [
            "leg", "--retarget", path, "--scale", repr(RETARGET_SCALE),
            "--to-joints", "--config", conf, "--out", out],
            units=n,
            truth={"kind": "retarget", "points": scaled.tolist()},
            out=out)

    # -- gait --------------------------------------------------------------------

    def _gait(self, rng, i, rel, out) -> Command:
        conf = self._write(rel, "gait.conf",
                           f"[analytics]\nrate_fps = {GAIT_RATE_FPS!r}\n")
        argv = ["gait"]
        trials = []
        frames = 0
        for k, condition in enumerate(GAIT_CONDITIONS):
            lo, hi = GAIT_CYCLES[condition]
            cycles = int(rng.integers(lo, hi + 1))
            text, present, truth = recording(rng, cycles)
            path = self._write(rel, f"trial{k + 1}.csv", text)
            argv += ["--input", path, "--condition", condition]
            trials.append(dict(truth, input=path, condition=condition))
            frames += present
        argv += ["--config", conf, "--out", out]
        return Command("gait", i, argv, units=frames,
                       truth={"trials": trials}, out=out)


def recording(rng, cycles: int):
    """Long-format marker CSV of a leg stepping with a known period.

    The right leg bobs against a fixed body plane, claw height and
    claw-tibia angle sharing one phase; the left leg runs half a period
    behind.  Markers carry Gaussian noise and short dropouts (absent rows),
    and a few frames are missing altogether.  Returns (text, frames
    present, truth) with the touchdown times (claw lowest) in ms.
    """
    period = GAIT_SPAN_MS / cycles
    amp_deg = rng.uniform(30.0, 50.0)
    lift = rng.uniform(6.0, 10.0)
    t = GAIT_DT_MS * np.arange(GAIT_FRAMES)
    base = np.array([0.0, 0.0, 30.0])
    body = {"B1": base, "B2": base + [5.0, 0.0, 0.0],
            "B3": base + [0.0, 5.0, 0.0]}
    points = {}
    for side, shift in (("R", 0.0), ("L", 0.5)):
        # claw-to-body distance (the displacement series) largest and the
        # claw most bent at t = 0 (right leg); the touchdown, where the
        # displacement is smallest, falls mid-period
        phase = 2.0 * math.pi * (t / period + shift)
        rise = 0.5 * (1.0 - np.cos(phase))
        bend = np.radians(amp_deg) * (1.0 - rise)
        y = -8.0 if side == "R" else 8.0
        m3 = np.column_stack([np.zeros_like(t), np.full_like(t, y),
                              np.full_like(t, 20.0)])
        m2 = m3 + np.array([10.0, 0.0, -12.0])
        m1 = m2 + 6.0 * np.column_stack(
            [np.cos(-bend), np.zeros_like(t), np.sin(-bend)])
        dz = (6.0 + lift * rise) - m1[:, 2]
        for m in (m1, m2, m3):
            m[:, 2] += dz
        points.update({f"{side}1": m1, f"{side}2": m2, f"{side}3": m3})
    labels = sorted(list(body) + list(points))
    present = np.ones((GAIT_FRAMES, len(labels)), dtype=bool)
    for j in range(len(labels)):
        starts = np.flatnonzero(rng.random(GAIT_FRAMES) < DROPOUT_START_P)
        for s in starts:
            present[s:s + int(rng.integers(1, DROPOUT_MAX_FRAMES + 1)), j] = False
    absent = rng.random(GAIT_FRAMES) < ABSENT_FRAME_P
    absent[[0, -1]] = False
    present[absent] = False
    noise = rng.normal(0.0, MARKER_NOISE_MM, (GAIT_FRAMES, len(labels), 3))
    coords = np.stack([np.broadcast_to(body[l], (GAIT_FRAMES, 3))
                       if l in body else points[l] for l in labels], axis=1)
    coords = coords + noise
    lines = ["t_ms,label,x_mm,y_mm,z_mm"]
    ts = [repr(v) for v in t.tolist()]
    cl = coords.tolist()
    for f in range(GAIT_FRAMES):
        row = cl[f]
        for j, label in enumerate(labels):
            if present[f, j]:
                x, y, z = row[j]
                lines.append(f"{ts[f]},{label},{x!r},{y!r},{z!r}")
    touchdowns = (period * (np.arange(cycles) + 0.5)).tolist()
    frames_present = int(np.count_nonzero(present.any(axis=1)))
    truth = {"period_ms": period, "cycles": cycles - 1,
             "touchdowns_ms": touchdowns}
    return "\n".join(lines) + "\n", frames_present, truth
