"""Cycle segmentation and trial metrics against their per-cycle loops.

``segment_cycles`` and ``trial_metrics`` find every cycle's liftoff and
window maximum in one pass.  They are checked against frozen copies of
the loops that took one numpy call per cycle, field by field and bit for
bit, on drawn series, on recordings built from drawn series and on
recordings shaped like the benchmark's.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tarsim import gait
from tarsim.gait import (LABELS, NoCyclesFound, StepCycle, TrialMetrics,
                         TrialRecording)


# -- the per-cycle loops (frozen) ---------------------------------------------

def old_segment_cycles(series, rate=gait.DEFAULT_RATE_FPS,
                       hysteresis_frac=gait.HYSTERESIS_FRAC,
                       min_separation_ms=gait.MIN_SEPARATION_MS):
    s = np.asarray(series, dtype=float)
    if rate <= 0:
        raise ValueError("rate must be > 0")
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
    marks = np.flatnonzero(low | high)
    is_low = low[marks]
    starts = marks[is_low & np.append(True, ~is_low[:-1])]
    highs = np.append(marks[~is_low], len(s))
    ends = highs[np.searchsorted(highs, starts)]
    depth = np.where(finite, s, np.inf)
    touchdowns = [a + int(np.argmin(depth[a:b])) for a, b in
                  zip(starts.tolist(), ends.tolist()) if b < len(s)]
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
        lift = int(np.argmax(high[a:b + 1]))
        if lift == 0:
            continue
        cycles.append(StepCycle(
            touchdown_t=a * dt,
            liftoff_t=(a + lift) * dt,
            next_touchdown_t=b * dt,
            cycle_time=(b - a) * dt,
            bend_amplitude=float(np.nanmax(s[a:b + 1]) - s[a]),
        ))
    if not cycles:
        raise NoCyclesFound("no complete touchdown-liftoff-touchdown cycle")
    return cycles


def old_trial_metrics(recording, side, interpolate_gaps=False,
                      **cycle_kwargs):
    disp = gait.claw_displacement(recording, side)
    ang = gait.angle_series(recording, side)
    if interpolate_gaps:
        disp, ang = gait.fill_gaps(disp), gait.fill_gaps(ang)
    cycles = old_segment_cycles(disp, recording.rate, **cycle_kwargs)
    dt = 1000.0 / recording.rate
    amps = []
    for c in cycles:
        a = int(round(c.touchdown_t / dt))
        b = int(round(c.next_touchdown_t / dt))
        if not np.isnan(ang[a]):
            amps.append(float(np.nanmax(ang[a:b + 1]) - ang[a]))
    return TrialMetrics(
        side=side,
        cycle_times=tuple(c.cycle_time for c in cycles),
        bend_amplitudes=tuple(amps),
    )


# -- comparing results bit for bit -------------------------------------------

def canon(x):
    """A value that compares equal only for bit-identical results."""
    if isinstance(x, StepCycle):
        return [canon(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, TrialMetrics):
        return [x.side, canon(x.cycle_times), canon(x.bend_amplitudes)]
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    assert type(x) is float
    return x.hex()


def outcome(fn, *args, **kwargs):
    try:
        return canon(fn(*args, **kwargs))
    except ValueError as err:  # NoCyclesFound is one
        return ("raises", type(err).__name__, str(err))


# -- drawn series -------------------------------------------------------------

# runs of one value: NaN gaps, flat stretches (ties for the deepest
# sample), one-sample chatter under the debounce and a trailing excursion
# all come out of a list of (value, length) runs
LEVEL = st.one_of(st.sampled_from([np.nan, 0.0, -0.0, 1.0, 5.0, 9.0, 10.0]),
                  st.floats(-2.0, 12.0))
SETTINGS = st.fixed_dictionaries({
    "hysteresis_frac": st.sampled_from([0.0, 0.1, 0.4]),
    "min_separation_ms": st.sampled_from([0.0, 50.0, 120.0]),
})


@st.composite
def run_series(draw, level=LEVEL):
    runs = draw(st.lists(st.tuples(level, st.integers(1, 12)),
                         min_size=3, max_size=40))
    return np.repeat([v for v, _ in runs], [n for _, n in runs])


@settings(max_examples=400, deadline=None)
@given(run_series(), st.sampled_from([30.0, 100.0, 120.0, 240.0]), SETTINGS)
@example(np.array([5.0, 0.0, 0.0, 10.0, 10.0, 0.0, 10.0, 0.0]), 100.0,
         {"hysteresis_frac": 0.1, "min_separation_ms": 0.0})
def test_segment_cycles_as_the_loop(series, rate, kwargs):
    assert outcome(gait.segment_cycles, series, rate, **kwargs) == \
        outcome(old_segment_cycles, series, rate, **kwargs)


# -- recordings built from drawn series ---------------------------------------

BODY = {"B1": (0.0, 0.0, 0.0), "B2": (1.0, 0.0, 0.0), "B3": (0.0, 1.0, 0.0)}
REACH = 100.0  # tibia and tarsus length, far above any drawn height


def leg_markers(height, angle_deg):
    """Claw, tarsus and tibia markers (N, 3, 3) whose claw displacement
    from the body plane of ``BODY`` is ``height`` (mm) and whose claw-tibia
    angle is ``angle_deg``; the long leg keeps the plane's normal pointing
    at the claw.  A NaN height leaves the leg out, a NaN angle the tibia.
    """
    n = len(height)
    claw = np.column_stack([np.zeros(n), np.zeros(n), height])
    tarsus = claw + [0.0, 0.0, REACH]
    theta = np.radians(angle_deg)
    tibia = tarsus + REACH * np.column_stack(
        [np.sin(theta), np.zeros(n), np.cos(theta)])
    return np.stack([claw, tarsus, tibia], axis=1)


def recording_from(left, right, rate=gait.DEFAULT_RATE_FPS):
    """A recording whose legs follow ``(height, angle)`` series pairs."""
    n = len(left[0])
    markers = np.empty((n, len(LABELS), 3))
    for label, p in BODY.items():
        markers[:, LABELS.index(label)] = p
    for prefix, (height, angle) in (("L", left), ("R", right)):
        j = LABELS.index(f"{prefix}1")
        markers[:, j:j + 3] = leg_markers(height, angle)
    return TrialRecording(markers, rate)


ANGLE = st.one_of(st.sampled_from([np.nan, 0.0, 30.0, 90.0, 180.0]),
                  st.floats(0.0, 180.0))


@st.composite
def drawn_recordings(draw):
    heights = draw(run_series())
    n = len(heights)
    angles = np.resize(draw(run_series(ANGLE)), n)
    return recording_from((heights, angles), (heights[::-1], angles[::-1]),
                          draw(st.sampled_from([30.0, 100.0, 240.0])))


@settings(max_examples=300, deadline=None)
@given(drawn_recordings(), st.sampled_from(["left", "right"]),
       st.booleans(), SETTINGS)
def test_trial_metrics_as_the_loop(recording, side, interpolate_gaps, kwargs):
    assert outcome(gait.trial_metrics, recording, side, interpolate_gaps,
                   **kwargs) == \
        outcome(old_trial_metrics, recording, side, interpolate_gaps,
                **kwargs)


def test_amplitude_window_holds_the_next_touchdown():
    # the angle peaks at the next touchdown, the last sample of the window
    height = np.array([5.0, 0.0, 10.0, 10.0, 0.0, 10.0, 10.0, 0.0, 10.0, 5.0])
    angle = np.array([0.0, 10.0, 20.0, 20.0, 90.0, 20.0, 20.0, 60.0, 0.0,
                      0.0])
    rec = recording_from((height, angle), (height, angle))
    tm = gait.trial_metrics(rec, "left", min_separation_ms=0.0)
    assert canon(tm) == canon(old_trial_metrics(rec, "left",
                                                min_separation_ms=0.0))
    assert tm.bend_amplitudes == pytest.approx((80.0, 0.0), abs=1e-9)


def stepping_recording(rng, frames=3000, rate=100.0):
    """Both legs stepping with a random period, as the benchmark's trials
    do: Gaussian noise, short dropouts of single markers and a few absent
    frames."""
    t = np.arange(frames) * (1000.0 / rate)
    period = rng.uniform(400.0, 500.0)
    legs = []
    for shift in (0.0, 0.5):
        rise = 0.5 * (1.0 - np.cos(2.0 * np.pi * (t / period + shift)))
        legs.append((6.0 + rng.uniform(6.0, 10.0) * rise
                     + rng.normal(0.0, 0.3, frames),
                     rng.uniform(30.0, 50.0) * (1.0 - rise)
                     + rng.normal(0.0, 1.0, frames)))
    markers = recording_from(*legs, rate).markers.copy()
    for j in range(len(LABELS)):
        for s in np.flatnonzero(rng.random(frames) < 0.002):
            markers[s:s + int(rng.integers(1, 6)), j] = np.nan
    markers[rng.random(frames) < 0.001] = np.nan
    return TrialRecording(markers, rate)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bench_shaped_recordings_as_the_loop(seed):
    rec = stepping_recording(np.random.default_rng(seed))
    for side in ("left", "right"):
        for interpolate_gaps in (False, True):
            new = gait.trial_metrics(rec, side, interpolate_gaps)
            assert canon(new) == canon(old_trial_metrics(
                rec, side, interpolate_gaps))
            assert len(new.cycle_times) >= 50
