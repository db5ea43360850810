"""Per-command output checks against the generator's ground truth.

``check(cmd, root)`` returns a list of problems, empty when the command's
exit code and emitted files agree with the truth.  Expected failures count
as correct: exit 1 with NotReachable for a target outside the leg's reach.
Files are read back with tarsim's own readers where the package has one,
so a broken round trip shows as a failed check too.  The readers are bound
at import, before the traced run wraps tarsim, so checks add no spans.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import numpy as np
from tarsim.cli import read_table
from tarsim.contact import load_demo_csv
from tarsim.leg import load_trajectory

from . import gen

IK_TOL_MM = 1e-6
# joint angles pass through degrees in the CSV; allow that round trip
ANGLE_ROUNDTRIP_MM = 1e-9
BEND_TOL_DEG = 1e-6


def check(cmd: gen.Command, root) -> list:
    out = Path(root) / cmd.out
    try:
        return CHECKS[cmd.workload](cmd, out)
    except (OSError, ValueError, IndexError, KeyError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def check_sim(cmd, out: Path) -> list:
    truth = cmd.truth
    if cmd.rc != 0:
        return [f"exit code {cmd.rc}, expected 0"]
    problems = []
    name = truth["scenario"]
    samples = load_demo_csv(out / f"{name}_demo.csv")
    if len(samples) != truth["ticks"]:
        problems.append(f"{len(samples)} ticks, expected {truth['ticks']}")
    times = [s.t_ms for s in samples]
    expect_t = [truth["dt_ms"] * (k + 1) for k in range(truth["ticks"])]
    if len(times) == len(expect_t) and \
            not np.allclose(times, expect_t, rtol=0, atol=1e-9):
        problems.append("tick times are not the dt grid")
    demo_events = Counter(e for s in samples for e in s.events.split(";") if e)
    if demo_events != Counter(truth["events"]):
        problems.append(f"demo events {dict(demo_events)}, "
                        f"expected {truth['events']}")
    header, rows = read_table(out / f"{name}_events.csv")
    logged = Counter(r[1] for r in rows)
    if header != ["t_ms", "event"] or logged != demo_events:
        problems.append(f"events CSV {dict(logged)} disagrees with the "
                        f"demo CSV {dict(demo_events)}")
    if not (out / f"{name}_heights.svg").is_file():
        problems.append("no heights SVG")
    return problems


def check_chain_sweep(cmd, out: Path) -> list:
    truth = cmd.truth
    if cmd.rc != 0:
        return [f"exit code {cmd.rc}, expected 0"]
    header, rows = read_table(out / "bend_vs_pull.csv")
    problems = []
    if header != ["pull_mm", "total_bend_deg"]:
        problems.append(f"bad header {header}")
    if len(rows) != truth["rows"]:
        problems.append(f"{len(rows)} rows, expected {truth['rows']}")
    pulls = np.array([float(r[0]) for r in rows])
    bends = np.array([float(r[1]) for r in rows])
    expect_pulls = truth["start"] + gen.SWEEP_STEP_MM * np.arange(len(rows))
    if not np.allclose(pulls, expect_pulls, rtol=0, atol=1e-9):
        problems.append("pulls are not the requested grid")
    if np.any(np.diff(bends) < 0):
        problems.append("bend is not monotone in pull")
    full = pulls >= gen.FULL_BEND_PULL_MM
    if not np.all(np.abs(bends[full] - gen.TOTAL_BEND_DEG) <= BEND_TOL_DEG):
        problems.append(f"bend at or past {gen.FULL_BEND_PULL_MM} mm is not "
                        f"{gen.TOTAL_BEND_DEG} deg")
    if not np.all(bends[~full] < gen.TOTAL_BEND_DEG - BEND_TOL_DEG):
        problems.append("bend saturates below full-bend pull")
    if not (out / "bend_vs_pull.svg").is_file():
        problems.append("no sweep SVG")
    return problems


def check_leg_ik(cmd, out: Path) -> list:
    truth = cmd.truth
    if truth["kind"] == "retarget":
        return _check_retarget(cmd, out)
    if not truth["reachable"]:
        if cmd.rc != 1 or "not reachable" not in cmd.stderr:
            return [f"target outside reach gave exit {cmd.rc}, expected 1 "
                    f"with NotReachable"]
        return []
    if cmd.rc != 0:
        return [f"exit code {cmd.rc}, expected 0: {cmd.stderr.strip()}"]
    _, rows = read_table(out / "leg_ik.csv")
    q = np.radians([float(v) for v in rows[0][:4]])
    miss = float(np.linalg.norm(gen.leg_fk(q) - np.array(truth["target"])))
    if miss > IK_TOL_MM + ANGLE_ROUNDTRIP_MM:
        return [f"IK joints land {miss:.3g} mm from the target"]
    return []


def _check_retarget(cmd, out: Path) -> list:
    if cmd.rc != 0:
        return [f"exit code {cmd.rc}, expected 0: {cmd.stderr.strip()}"]
    problems = []
    want = np.array(cmd.truth["points"])
    scaled = load_trajectory(out / "retargeted.csv").points
    if scaled.shape != want.shape or \
            not np.allclose(scaled, want, rtol=0, atol=1e-9):
        problems.append("retargeted path is not the scaled step")
    _, rows = read_table(out / "joints.csv")
    if len(rows) != len(want):
        return problems + [f"{len(rows)} joint rows, expected {len(want)}"]
    miss = max(float(np.linalg.norm(
        gen.leg_fk(np.radians([float(v) for v in r[1:5]])) - p))
        for r, p in zip(rows, want))
    if miss > IK_TOL_MM + ANGLE_ROUNDTRIP_MM:
        problems.append(f"joint series lands {miss:.3g} mm off the path")
    return problems


def check_gait(cmd, out: Path) -> list:
    if cmd.rc != 0:
        return [f"exit code {cmd.rc}, expected 0: {cmd.stderr.strip()}"]
    problems = []
    _, rows = read_table(out / "metrics.csv")
    by_input = {r[0]: r for r in rows}
    for trial in cmd.truth["trials"]:
        row = by_input.get(trial["input"])
        if row is None:
            problems.append(f"{trial['input']}: no metrics row")
            continue
        n_cycles = int(row[3])
        if n_cycles != trial["cycles"]:
            problems.append(f"{trial['input']}: {n_cycles} cycles, "
                            f"expected {trial['cycles']}")
        mean = float(row[4]) if row[4] else math.nan
        if not abs(mean - trial["period_ms"]) <= gen.GAIT_DT_MS:
            problems.append(f"{trial['input']}: mean cycle {mean} ms, "
                            f"injected {trial['period_ms']:.3f} ms")
    _, report = read_table(out / "report.csv")
    if len(report) != 2:
        problems.append(f"{len(report)} report rows, expected 2")
    return problems


CHECKS = {"sim": check_sim, "chain_sweep": check_chain_sweep,
          "leg_ik": check_leg_ik, "gait": check_gait}
