"""Gait metrics from motion-capture marker recordings.

A trial carries labeled 3D markers at a fixed frame rate: three per front
leg (L1..L3 / R1..R3, claw tip to tibia) and three on the body (B1..B3,
an L-shaped frame defining the reference plane).  A recording is one
NaN-padded (frames, markers, xyz) array on a uniform time grid.  From it
we compute the claw-tibia bend angle, the signed claw displacement
relative to the body plane, and step cycles segmented from touchdown
events.

Missing markers are gaps (NaN in derived series), never interpolated by
default; frames with gaps drop out of per-cycle statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .table import read_columns, row_at, write_table

# the marker axis of TrialRecording.markers, which is also the order in
# which save_recording writes the rows of a frame
LABELS = ("B1", "B2", "B3", "L1", "L2", "L3", "R1", "R2", "R3")
LEG_LABELS = {"left": ("L1", "L2", "L3"), "right": ("R1", "R2", "R3")}

DEFAULT_RATE_FPS = 100.0
HYSTERESIS_FRAC = 0.10
MIN_SEPARATION_MS = 50.0
COLLINEAR_TOL = 1e-9
GRID_TOL_FRAMES = 0.01  # how far off the frame grid a timestamp may lie


def _check_rate(rate) -> None:
    """Reject a frame rate that is not a finite number > 0."""
    if not 0 < rate < np.inf:
        raise ValueError("rate must be finite and > 0")


class NoCyclesFound(ValueError):
    """The series contains no detectable step cycles."""


@dataclass(frozen=True)
class TrialRecording:
    """Marker positions (mm) on a uniform time grid.

    ``markers`` is an (N, 9, 3) array whose marker axis follows ``LABELS``;
    frame i is at ``t0_ms + i * 1000 / rate`` ms.  An absent marker, or a
    whole absent frame, is NaN.  The array is stored as a read-only copy.
    """

    markers: np.ndarray
    rate: float = DEFAULT_RATE_FPS
    t0_ms: float = 0.0

    def __post_init__(self):
        markers = np.array(self.markers, dtype=float)
        if markers.ndim != 3 or markers.shape[1:] != (len(LABELS), 3):
            raise ValueError(f"markers must have shape (N, {len(LABELS)}, 3),"
                             f" got {markers.shape}")
        if np.isinf(markers).any():
            raise ValueError("marker coordinates must be finite or NaN")
        _check_rate(self.rate)
        markers.flags.writeable = False
        object.__setattr__(self, "markers", markers)

    def __len__(self):
        return len(self.markers)


@dataclass(frozen=True)
class StepCycle:
    """One touchdown-to-touchdown step with its bend amplitude.

    Times are in ms from the first frame of the series.
    """

    touchdown_t: float
    liftoff_t: float
    next_touchdown_t: float
    cycle_time: float
    bend_amplitude: float

    def __post_init__(self):
        if not self.touchdown_t < self.liftoff_t < self.next_touchdown_t:
            raise ValueError("cycle events must be ordered "
                             "touchdown < liftoff < next touchdown")


def _claw_column(side: str) -> int:
    """Index in ``LABELS`` of the side's claw marker; its leg follows it."""
    if side not in LEG_LABELS:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return LABELS.index(LEG_LABELS[side][0])


def _dot(a, b) -> np.ndarray:
    """Dot products over the last axis, summed as ``np.dot`` sums them."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def angle_series(recording: TrialRecording, side: str) -> np.ndarray:
    """Claw-tibia bend angle per frame, degrees.

    The tibia runs marker 3 -> 2, the tarsus/claw marker 2 -> 1; the angle
    between the two directions lies in [0, 180].  NaN where a marker is
    missing or two consecutive markers coincide (no direction).
    """
    j = _claw_column(side)
    m1, m2, m3 = (recording.markers[:, j + k] for k in range(3))
    tibia, tarsus = m2 - m3, m1 - m2
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = _dot(tibia, tarsus) / (np.sqrt(_dot(tibia, tibia))
                                     * np.sqrt(_dot(tarsus, tarsus)))
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


def claw_displacement(recording: TrialRecording, side: str) -> np.ndarray:
    """Signed claw-to-body-plane distance per frame, mm.

    The plane runs through B1, B2 and B3.  Its normal is oriented so that
    the mean of the leg markers present in the frame sits on its positive
    side (legs hang below the body, so the series comes out positive at
    rest).  NaN where a marker is missing or the body markers are
    collinear.
    """
    claw = _claw_column(side)
    m = recording.markers
    b1 = m[:, 0]
    u, v = m[:, 1] - b1, m[:, 2] - b1
    normal = np.cross(u, v)
    size = np.sqrt(_dot(normal, normal))
    scale = np.sqrt(np.maximum(_dot(u, u), _dot(v, v)))
    size[~(size > COLLINEAR_TOL * scale * scale)] = np.nan
    # distance of every leg marker, LABELS[3:], along the unit normal
    legs = _dot(m[:, 3:] - b1[:, None], (normal / size[:, None])[:, None])
    return legs[:, claw - 3] * np.where(np.nansum(legs, axis=1) < 0, -1, 1)


def fill_gaps(series) -> np.ndarray:
    """Linearly interpolate interior NaN runs; leading/trailing stay NaN.

    Gap handling is a policy choice: the conservative default everywhere
    is to leave gaps out of the statistics, and this opt-in fill exists
    for recordings with short dropouts.
    """
    s = np.array(series, dtype=float)
    known = np.flatnonzero(np.isfinite(s))
    if len(known) < 2:
        return s
    gaps = known[0] + np.flatnonzero(~np.isfinite(s[known[0]:known[-1]]))
    s[gaps] = np.interp(gaps, known, s[known])
    return s


def segment_cycles(series, rate: float = DEFAULT_RATE_FPS,
                   hysteresis_frac: float = HYSTERESIS_FRAC,
                   min_separation_ms: float = MIN_SEPARATION_MS,
                   ) -> list[StepCycle]:
    """Segment a claw height (or bend angle) series into step cycles.

    Touchdowns are the local minima inside excursions below the low
    hysteresis threshold (mid-range minus half the hysteresis band);
    liftoff is the following crossing above the high threshold.  Candidate
    touchdowns closer than ``min_separation_ms`` are merged (deepest
    wins).  Per-cycle ``bend_amplitude`` is the in-cycle peak minus the
    value at touchdown.  Sample i is at ``i * 1000 / rate`` ms.

    Raises NoCyclesFound for flat series or fewer than two touchdowns.
    """
    s = np.asarray(series, dtype=float)
    _check_rate(rate)
    finite = np.isfinite(s)
    if finite.sum() < 4:
        raise NoCyclesFound("series too short")
    lo_v, hi_v = np.nanmin(s), np.nanmax(s)
    span = hi_v - lo_v
    if span <= 0:
        raise NoCyclesFound("series is constant")
    band = hysteresis_frac * span
    mid = 0.5 * (lo_v + hi_v)
    low = finite & (s < mid - 0.5 * band)
    high = finite & (s > mid + 0.5 * band)
    dt = 1000.0 / rate

    # an excursion starts at a low sample whose last low-or-high sample
    # before it was high (or that has none) and runs to the next high
    # sample; its touchdown is its deepest sample.  A trailing excursion,
    # which never rises back above the high threshold (its end is the
    # sentinel len(s)), does not count.
    marks = np.flatnonzero(low | high)
    is_low = low[marks]
    starts = marks[is_low & np.append(True, ~is_low[:-1])]
    highs = np.append(marks[~is_low], len(s))
    ends = highs[np.searchsorted(highs, starts)]
    depth = np.where(finite, s, np.inf)
    touchdowns = [a + int(np.argmin(depth[a:b])) for a, b in
                  zip(starts.tolist(), ends.tolist()) if b < len(s)]
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

    # each cycle runs from a touchdown to the next; its liftoff is the
    # first high sample after the touchdown, and a cycle with none before
    # the next touchdown (a touchdown is low) is left out
    a, b = np.array(merged[:-1]), np.array(merged[1:])
    lift = highs[np.searchsorted(highs, a)]
    keep = lift < b
    if not keep.any():
        raise NoCyclesFound("no complete touchdown-liftoff-touchdown cycle")
    a, b, lift = a[keep], b[keep], lift[keep]
    return list(map(StepCycle, (a * dt).tolist(), (lift * dt).tolist(),
                    (b * dt).tolist(), ((b - a) * dt).tolist(),
                    (_window_max(s, a, b) - s[a]).tolist()))


def _window_max(s, a, b) -> np.ndarray:
    """NaN-ignoring max of each window ``s[a[k]:b[k] + 1]``; the windows
    are in order, meeting at most at an end (a[k] < b[k] <= a[k + 1])."""
    return np.fmax(np.fmax.reduceat(s, np.column_stack([a, b]).ravel())[::2],
                   s[b])


RECORDING_HEADER = ("t_ms", "label", "x_mm", "y_mm", "z_mm")


def load_recording(path, rate: float = DEFAULT_RATE_FPS) -> TrialRecording:
    """Read a long-format marker CSV: t_ms,label,x_mm,y_mm,z_mm.

    Rows are in time order, one per marker present in a frame.  The frame
    grid runs from the first ``t_ms`` at ``rate`` frames/s; a frame with no
    rows is a NaN row.  Raises ValueError naming the file row for a bad
    cell or label, a timestamp past as many frames as the file has data
    rows, time going backwards, a timestamp more than 1% of a frame period
    off the grid and a second row for one label in one frame.
    """
    _check_rate(rate)
    values, column = read_columns(path, RECORDING_HEADER, (0, 2, 3, 4),
                                  codes={1: LABELS})
    t = values[:, 0]
    t0 = float(t[0]) if len(t) else 0.0
    position = (t - t0) * (rate / 1000.0)  # in frames from the first
    frame = np.rint(position)
    for bad, why in (
            (column < 0, "unknown label"),
            (frame >= len(t), "more frames than the file has rows"),
            (np.diff(t, prepend=t0) < 0, "time goes backwards"),
            (np.abs(position - frame) > GRID_TOL_FRAMES,
             f"timestamp off the {rate:g} fps grid")):
        _reject_first(path, bad, why)
    # past those checks every (frame, label) key is an int from 0 up, and
    # only a file with a repeated key needs the sort
    frame = frame.astype(int)
    key = frame * len(LABELS) + column
    if np.bincount(key).max(initial=0) > 1:
        # a row that is not the first of its (frame, label)
        _, first = np.unique(key, return_index=True)
        _reject_first(path, np.bincount(first, minlength=len(t)) == 0,
                      "second row for this label in this frame")
    markers = np.full((frame.max(initial=-1) + 1, len(LABELS), 3), np.nan)
    markers[frame, column] = values[:, 1:]
    return TrialRecording(markers, rate, t0)


def _reject_first(path, bad, why) -> None:
    """Raise ValueError naming the file row of the first ``bad`` row."""
    if bad.any():
        line, row = row_at(path, int(np.argmax(bad)))
        raise ValueError(f"row {line}: {why}: {','.join(row)}")


def save_recording(path, recording: TrialRecording) -> None:
    """Write ``recording`` in the format ``load_recording`` reads.

    One row per marker present: frames in time order, markers in
    ``LABELS`` order.
    """
    frame, column = np.nonzero(~np.isnan(recording.markers).any(axis=2))
    t = recording.t0_ms + frame * (1000.0 / recording.rate)
    write_table(path, RECORDING_HEADER, zip(
        t.tolist(), [LABELS[j] for j in column.tolist()],
        *recording.markers[frame, column].T.tolist()))


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
        disp, ang = fill_gaps(disp), fill_gaps(ang)
    cycles = segment_cycles(disp, recording.rate, **cycle_kwargs)
    dt = 1000.0 / recording.rate
    a, b = np.rint(np.array([(c.touchdown_t, c.next_touchdown_t)
                             for c in cycles]) / dt).astype(int).T
    amps = _window_max(ang, a, b) - ang[a]
    return TrialMetrics(
        side=side,
        cycle_times=tuple(c.cycle_time for c in cycles),
        bend_amplitudes=tuple(amps[~np.isnan(ang[a])].tolist()),
    )
