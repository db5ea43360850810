"""Gait metrics from motion-capture marker recordings.

A trial carries labeled 3D markers at a fixed frame rate: three per front
leg (L1..L3 / R1..R3, claw tip to tibia) and three on the body (B1..B3,
an L-shaped frame defining the reference plane).  From these we compute
the claw-tibia bend angle, the signed claw displacement relative to the
body plane, and step cycles segmented from touchdown events.

Missing markers are gaps (NaN in derived series), never interpolated by
default; frames with gaps drop out of per-cycle statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .table import float_columns, line_of, read_table, write_table

LEG_LABELS = {"left": ("L1", "L2", "L3"), "right": ("R1", "R2", "R3")}
BODY_LABELS = ("B1", "B2", "B3")
ALL_LABELS = frozenset(("L1", "L2", "L3", "R1", "R2", "R3", "B1", "B2", "B3"))

DEFAULT_RATE_FPS = 100.0
HYSTERESIS_FRAC = 0.10
MIN_SEPARATION_MS = 50.0


class MissingMarker(KeyError):
    """A marker required by the computation is absent from the frame."""


class DegenerateVector(ValueError):
    """Consecutive markers coincide; the segment direction is undefined."""


class CollinearMarkers(ValueError):
    """Body markers are collinear; no reference plane exists."""


class NoCyclesFound(ValueError):
    """The series contains no detectable step cycles."""


@dataclass(frozen=True)
class MarkerFrame:
    """One capture frame: time (ms) and label -> 3D point (mm)."""

    t_ms: float
    points: dict

    def __post_init__(self):
        pts = {label: np.asarray(p, dtype=float).reshape(3)
               for label, p in self.points.items()}
        # one finiteness check per frame: the recording loader builds
        # thousands of frames, and a check per marker is most of its time
        if not np.isfinite(list(pts.values())).all():
            label = next(l for l, p in pts.items() if not np.isfinite(p).all())
            raise ValueError(f"marker {label} has non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def get(self, label: str) -> np.ndarray:
        try:
            return self.points[label]
        except KeyError:
            raise MissingMarker(label) from None


@dataclass(frozen=True)
class TrialRecording:
    """Time-ordered marker frames at a uniform rate (frames/s)."""

    frames: tuple
    rate: float = DEFAULT_RATE_FPS

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        ts = [f.t_ms for f in self.frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("frames must be strictly time-ordered")
        unknown = {l for f in self.frames for l in f.points} - ALL_LABELS
        if unknown:
            raise ValueError(f"unknown marker labels: {sorted(unknown)}")

    def __len__(self):
        return len(self.frames)


@dataclass(frozen=True)
class StepCycle:
    """One touchdown-to-touchdown step with its bend amplitude."""

    touchdown_t: float
    liftoff_t: float
    next_touchdown_t: float
    cycle_time: float
    bend_amplitude: float

    def __post_init__(self):
        if not self.touchdown_t < self.liftoff_t < self.next_touchdown_t:
            raise ValueError("cycle events must be ordered "
                             "touchdown < liftoff < next touchdown")


@dataclass(frozen=True)
class Plane:
    """Reference plane: a point on it and a unit normal."""

    point: np.ndarray
    normal: np.ndarray

    def signed_distance(self, p) -> float:
        return float(np.dot(np.asarray(p, dtype=float) - self.point, self.normal))


def claw_tibia_angle(frame: MarkerFrame, side: str) -> float:
    """Bend angle between the tibia and tarsus marker segments, degrees.

    The tibia runs marker 3 -> 2, the tarsus/claw marker 2 -> 1; the
    returned angle between the two directions lies in [0, 180].
    """
    if side not in LEG_LABELS:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    m1, m2, m3 = (frame.get(l) for l in LEG_LABELS[side])
    tibia = m2 - m3
    tarsus = m1 - m2
    nt, nu = np.linalg.norm(tibia), np.linalg.norm(tarsus)
    if nt == 0.0 or nu == 0.0:
        raise DegenerateVector(f"coincident {side} markers at t={frame.t_ms}")
    c = np.dot(tibia, tarsus) / (nt * nu)
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def reference_plane(frame: MarkerFrame, collinear_tol: float = 1e-9) -> Plane:
    """Body plane through the three body markers.

    The normal is oriented so that any leg markers present in the frame
    sit on its positive side (legs hang below the body, so displacement
    series come out positive at rest).
    """
    b1, b2, b3 = (frame.get(l) for l in BODY_LABELS)
    n = np.cross(b2 - b1, b3 - b1)
    scale = max(np.linalg.norm(b2 - b1), np.linalg.norm(b3 - b1))
    norm = np.linalg.norm(n)
    if scale == 0.0 or norm <= collinear_tol * scale * scale:
        raise CollinearMarkers(f"body markers collinear at t={frame.t_ms}")
    n = n / norm
    legs = [p for l, p in frame.points.items() if l[0] in "LR"]
    if legs:
        mean_side = float(np.mean([np.dot(p - b1, n) for p in legs]))
        if mean_side < 0:
            n = -n
    return Plane(b1.copy(), n)


def claw_displacement(recording: TrialRecording, side: str) -> np.ndarray:
    """Signed claw-to-body-plane distance per frame, mm; NaN where missing."""
    claw_label = LEG_LABELS[side][0]
    out = np.full(len(recording), np.nan)
    for i, frame in enumerate(recording.frames):
        try:
            plane = reference_plane(frame)
            out[i] = plane.signed_distance(frame.get(claw_label))
        except (MissingMarker, CollinearMarkers):
            continue
    return out


def angle_series(recording: TrialRecording, side: str) -> np.ndarray:
    """Claw-tibia angle per frame, degrees; NaN where markers are missing."""
    out = np.full(len(recording), np.nan)
    for i, frame in enumerate(recording.frames):
        try:
            out[i] = claw_tibia_angle(frame, side)
        except (MissingMarker, DegenerateVector):
            continue
    return out


def fill_gaps(series, max_gap_frames: int | None = None) -> np.ndarray:
    """Linearly interpolate interior NaN runs; leading/trailing stay NaN.

    Gap handling is a policy choice: the conservative default everywhere
    is to leave gaps out of the statistics, and this opt-in fill exists
    for recordings with short dropouts.  Runs longer than
    ``max_gap_frames`` (when given) are left as gaps.
    """
    s = np.asarray(series, dtype=float).copy()
    finite = np.isfinite(s)
    if finite.sum() < 2:
        return s
    idx = np.flatnonzero(finite)
    start, end = idx[0], idx[-1]
    runs = []
    i = start
    while i <= end:
        if not finite[i]:
            j = i
            while not finite[j]:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    for a, b in runs:
        if max_gap_frames is not None and (b - a) > max_gap_frames:
            continue
        x0, x1 = a - 1, b
        frac = (np.arange(a, b) - x0) / (x1 - x0)
        s[a:b] = s[x0] + frac * (s[x1] - s[x0])
    return s


def segment_cycles(series, rate: float = DEFAULT_RATE_FPS,
                   hysteresis_frac: float = HYSTERESIS_FRAC,
                   min_separation_ms: float = MIN_SEPARATION_MS,
                   amplitude_mode: str = "peak_minus_touchdown") -> list[StepCycle]:
    """Segment a claw height (or bend angle) series into step cycles.

    Touchdowns are the local minima inside excursions below the low
    hysteresis threshold (mid-range minus half the hysteresis band);
    liftoff is the following crossing above the high threshold.  Candidate
    touchdowns closer than ``min_separation_ms`` are merged (deepest
    wins).  Per-cycle ``bend_amplitude`` is the in-cycle peak minus the
    value at touchdown (or peak minus trough with
    ``amplitude_mode='peak_to_trough'``).

    Raises NoCyclesFound for flat series or fewer than two touchdowns.
    """
    s = np.asarray(series, dtype=float)
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if amplitude_mode not in ("peak_minus_touchdown", "peak_to_trough"):
        raise ValueError(f"unknown amplitude_mode {amplitude_mode!r}")
    finite = np.isfinite(s)
    if finite.sum() < 4:
        raise NoCyclesFound("series too short")
    lo_v, hi_v = np.nanmin(s), np.nanmax(s)
    span = hi_v - lo_v
    if span <= 0:
        raise NoCyclesFound("series is constant")
    band = hysteresis_frac * span
    mid = 0.5 * (lo_v + hi_v)
    low_thr, high_thr = mid - 0.5 * band, mid + 0.5 * band
    dt = 1000.0 / rate

    # candidate touchdowns: deepest sample of every below-threshold
    # excursion; a trailing excursion that never rises back above the high
    # threshold is incomplete and does not count
    touchdowns = []
    i = 0
    n = len(s)
    while i < n:
        if finite[i] and s[i] < low_thr:
            j = i
            while j < n and not (finite[j] and s[j] > high_thr):
                j += 1
            if j < n:
                seg = np.where(finite[i:j], s[i:j], np.inf)
                touchdowns.append(i + int(np.argmin(seg)))
            i = j
        else:
            i += 1
    # debounce: merge touchdowns closer than the minimum separation
    merged = []
    for idx in touchdowns:
        if merged and (idx - merged[-1]) * dt < min_separation_ms:
            if s[idx] < s[merged[-1]]:
                merged[-1] = idx
        else:
            merged.append(idx)
    if len(merged) < 2:
        raise NoCyclesFound("fewer than two touchdowns detected")

    cycles = []
    for a, b in zip(merged, merged[1:]):
        window = s[a:b + 1]
        wfinite = np.isfinite(window)
        lift_rel = np.argmax(wfinite & (window > high_thr)) \
            if np.any(wfinite & (window > high_thr)) else None
        if lift_rel is None or lift_rel == 0:
            continue
        peak = np.nanmax(window)
        base = s[a] if amplitude_mode == "peak_minus_touchdown" \
            else np.nanmin(window)
        cycles.append(StepCycle(
            touchdown_t=a * dt,
            liftoff_t=(a + lift_rel) * dt,
            next_touchdown_t=b * dt,
            cycle_time=(b - a) * dt,
            bend_amplitude=float(peak - base),
        ))
    if not cycles:
        raise NoCyclesFound("no complete touchdown-liftoff-touchdown cycle")
    return cycles


RECORDING_HEADER = ("t_ms", "label", "x_mm", "y_mm", "z_mm")


def load_recording(path, rate: float = DEFAULT_RATE_FPS) -> TrialRecording:
    """Read a long-format marker CSV: t_ms,label,x_mm,y_mm,z_mm.

    Rows are sorted by time then label; a missing marker is simply an
    absent row.  Raises ValueError with the offending row number on parse
    problems.
    """
    _, rows = read_table(path, RECORDING_HEADER)
    values = float_columns(path, rows, (0, 2, 3, 4))
    t, xyz = values[:, 0], values[:, 1:]
    labels = [row[1] for row in rows]
    del rows  # the cells take more memory than the frames built below
    unknown = set(labels) - ALL_LABELS
    if unknown:
        i = next(i for i, label in enumerate(labels) if label in unknown)
        raise ValueError(f"row {line_of(path, i)}: unknown label "
                         f"{labels[i]!r}")
    # the NaN before the first row makes row 0 start a frame
    step = np.diff(t, prepend=np.nan)
    if (step < 0).any():
        raise ValueError(f"row {line_of(path, int(np.argmax(step < 0)))}: "
                         f"time goes backwards")
    starts = np.flatnonzero(step).tolist()
    return TrialRecording(tuple(
        MarkerFrame(t_ms, dict(zip(labels[a:b], xyz[a:b])))
        for t_ms, a, b in zip(t[starts].tolist(), starts,
                              starts[1:] + [len(t)])), rate)


def save_recording(path, recording: TrialRecording) -> None:
    write_table(path, RECORDING_HEADER,
                [[float(frame.t_ms), label, *frame.points[label].tolist()]
                 for frame in recording.frames
                 for label in sorted(frame.points)])


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial summary: cycle times (ms) and bend amplitudes (deg)."""

    side: str
    cycle_times: tuple
    bend_amplitudes: tuple

    @property
    def mean_cycle_time(self) -> float:
        return float(np.mean(self.cycle_times))

    @property
    def mean_bend_amplitude(self) -> float:
        return float(np.mean(self.bend_amplitudes))


def trial_metrics(recording: TrialRecording, side: str,
                  interpolate_gaps: bool = False,
                  **cycle_kwargs) -> TrialMetrics:
    """Cycle times from claw displacement; bend amplitudes from the angle.

    Cycles are segmented on the displacement series (stance is the low
    plateau); each cycle's amplitude is read from the angle series over
    the same frame window.  Gaps are excluded unless ``interpolate_gaps``
    turns on the linear fill.
    """
    disp = claw_displacement(recording, side)
    ang = angle_series(recording, side)
    if interpolate_gaps:
        disp = fill_gaps(disp)
        ang = fill_gaps(ang)
    cycles = segment_cycles(disp, recording.rate, **cycle_kwargs)
    dt = 1000.0 / recording.rate
    amps = []
    for c in cycles:
        a = int(round(c.touchdown_t / dt))
        b = int(round(c.next_touchdown_t / dt))
        window = ang[a:b + 1]
        if np.all(np.isnan(window)) or np.isnan(ang[a]):
            continue
        amps.append(float(np.nanmax(window) - ang[a]))
    return TrialMetrics(
        side=side,
        cycle_times=tuple(c.cycle_time for c in cycles),
        bend_amplitudes=tuple(amps),
    )
