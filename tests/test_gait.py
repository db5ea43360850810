"""Marker analytics: angles, planes, displacement, cycle segmentation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tarsim.gait import (LABELS, NoCyclesFound, StepCycle, TrialRecording,
                         angle_series, claw_displacement, fill_gaps,
                         load_recording, save_recording, segment_cycles,
                         trial_metrics)


def rigid_transform(rng):
    """Random rotation (QR of a Gaussian) plus translation."""
    M = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(M)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    t = rng.uniform(-50.0, 50.0, 3)
    return Q, t


def recording_of(*frames, rate=100.0):
    """A recording with one frame per ``{label: xyz}`` dict; absent = NaN."""
    markers = np.full((len(frames), len(LABELS), 3), np.nan)
    for i, points in enumerate(frames):
        for label, p in points.items():
            markers[i, LABELS.index(label)] = p
    return TrialRecording(markers, rate)


def leg_frame(m1, m2, m3, side="right"):
    prefix = "R" if side == "right" else "L"
    return {f"{prefix}1": m1, f"{prefix}2": m2, f"{prefix}3": m3}


def angle_of(*frames, side="right"):
    return angle_series(recording_of(*frames), side)


def displacement_of(*frames, side="right"):
    return claw_displacement(recording_of(*frames), side)


BODY = {"B1": [0, 0, 0], "B2": [1, 0, 0], "B3": [0, 1, 0]}


class TestClawTibiaAngle:
    def test_collinear_markers_zero(self):
        f = leg_frame([2.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0])
        assert angle_of(f)[0] == pytest.approx(0.0, abs=1e-12)

    def test_right_angle(self):
        f = leg_frame([1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert angle_of(f)[0] == pytest.approx(90.0, abs=1e-12)

    def test_against_dot_product_oracle(self):
        rng = np.random.default_rng(41)
        legs = rng.uniform(-10, 10, (300, 3, 3))
        got = angle_of(*(leg_frame(*m) for m in legs))
        for (m1, m2, m3), a in zip(legs, got):
            expect = math.degrees(math.acos(np.clip(
                np.dot(m2 - m3, m1 - m2)
                / (np.linalg.norm(m2 - m3) * np.linalg.norm(m1 - m2)),
                -1.0, 1.0)))
            assert a == pytest.approx(expect, abs=1e-9)
            assert 0.0 <= a <= 180.0

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(42)
        m = rng.uniform(-10, 10, (3, 3))
        base = angle_of(leg_frame(*m))[0]
        moved = []
        for _ in range(50):
            Q, t = rigid_transform(rng)
            moved.append(leg_frame(*(m @ Q.T + t)))
        assert angle_of(*moved) == pytest.approx(np.full(50, base), abs=1e-9)

    def test_missing_marker(self):
        f = {"R1": [0, 0, 0], "R2": [1, 0, 0]}
        assert np.isnan(angle_of(f)[0])

    def test_degenerate_vector(self):
        f = leg_frame([1.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0])
        tibia_point = leg_frame([1.0, 0, 0], [0.0, 0, 0], [0.0, 0, 0])
        assert np.isnan(angle_of(f, tibia_point)).all()

    def test_left_side_labels(self):
        f = leg_frame([2.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0], side="left")
        assert angle_of(f, side="left")[0] == pytest.approx(0.0, abs=1e-12)
        assert np.isnan(angle_of(f, side="right")[0])

    @pytest.mark.parametrize("series", [angle_series, claw_displacement])
    def test_unknown_side_rejected(self, series):
        with pytest.raises(ValueError, match="side must be"):
            series(recording_of(BODY), "middle")


class TestReferencePlane:
    """The body plane that ``claw_displacement`` measures against."""

    def test_axis_aligned(self):
        on_plane = {**BODY, "R1": [5.0, -3.0, 0.0]}
        below = {**BODY, "R1": [5.0, -3.0, -4.0]}
        assert displacement_of(on_plane, below) == pytest.approx(
            [0.0, 4.0], abs=1e-12)

    def test_normal_oriented_toward_legs(self):
        below = {**BODY, "R1": [0.0, 0.0, -4.0]}
        above = {**BODY, "R1": [0.0, 0.0, 4.0]}
        assert displacement_of(below, above) == pytest.approx([4.0, 4.0])
        # the mean of all leg markers present sets the side, so a claw
        # across the plane from the rest of the legs reads negative
        across = {**BODY, "R1": [0.0, 0.0, 1.0], "R2": [0.0, 0.0, -2.0],
                  "L1": [0.0, 0.0, -3.0]}
        assert displacement_of(across)[0] == pytest.approx(-1.0)

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(43)
        b = rng.uniform(-10, 10, (3, 3))
        probe = rng.uniform(-10, 10, 3)

        def frame(points):
            return dict(zip(("B1", "B2", "B3", "R1"), points))

        d0 = displacement_of(frame([*b, probe]))[0]
        moved = []
        for _ in range(50):
            Q, t = rigid_transform(rng)
            moved.append(frame(np.array([*b, probe]) @ Q.T + t))
        assert displacement_of(*moved) == pytest.approx(np.full(50, d0),
                                                        abs=1e-9)

    def test_collinear_gives_nan(self):
        probe = {"R1": [0.0, 0.0, -4.0]}
        collinear = {"B1": [0, 0, 0], "B2": [1, 0, 0], "B3": [2, 0, 0],
                     **probe}
        coincident = {"B1": [1, 1, 1], "B2": [1, 1, 1], "B3": [1, 1, 1],
                      **probe}
        d = displacement_of(collinear, coincident, {**BODY, **probe})
        assert np.isnan(d[:2]).all() and d[2] == pytest.approx(4.0)


def synthetic_markers(n=400, rate=100.0, period_ms=400.0, amp_deg=40.0,
                      rest_height=6.0, lift=8.0):
    """Leg bobbing against a fixed body frame with a known period.

    The claw height and the claw-tibia angle share the driving phase, so
    the injected period and angle amplitude are both recoverable.  The
    left leg is absent.
    """
    phase = 2 * np.pi * (np.arange(n) * (1000.0 / rate)) / period_ms
    height = rest_height + lift * 0.5 * (1.0 - np.cos(phase))
    bend = np.radians(amp_deg) * 0.5 * (1.0 - np.cos(phase))
    m3 = np.array([0.0, 0.0, 20.0])
    m2 = np.array([10.0, 0.0, 8.0])
    m1 = m2 + 6.0 * np.column_stack(
        [np.cos(-bend), np.zeros(n), np.sin(-bend)])
    offset = np.zeros((n, 3))
    offset[:, 2] = height - m1[:, 2]
    markers = np.full((n, len(LABELS), 3), np.nan)
    for label, p in (("B1", [0.0, 0.0, 30.0]), ("B2", [5.0, 0.0, 30.0]),
                     ("B3", [0.0, 5.0, 30.0]), ("R1", m1 + offset),
                     ("R2", m2 + offset), ("R3", m3 + offset)):
        markers[:, LABELS.index(label)] = p
    return markers


def synthetic_recording(n=400, rate=100.0, **kwargs):
    return TrialRecording(synthetic_markers(n, rate, **kwargs), rate)


class TestClawDisplacement:
    def test_on_plane_zero(self):
        f = {**BODY, "R1": [3.0, 2.0, 0.0], "R2": [3, 2, -1],
             "R3": [3, 2, -2]}
        assert displacement_of(f)[0] == pytest.approx(0.0)

    def test_offset_along_normal(self):
        f = {**BODY, "R1": [0.0, 0.0, -5.0]}
        assert displacement_of(f)[0] == pytest.approx(5.0)

    def test_gap_becomes_nan(self):
        d = displacement_of({**BODY, "R1": [0, 0, -5.0]}, BODY,
                            {"B1": [0, 0, 0], "R1": [0, 0, -5.0]}, {})
        assert np.isfinite(d[0]) and np.isnan(d[1:]).all()

    def test_sinusoid_amplitude_recovered(self):
        rec = synthetic_recording(period_ms=400.0, lift=8.0)
        d = claw_displacement(rec, "right")
        assert np.nanmax(d) - np.nanmin(d) == pytest.approx(8.0, abs=1e-9)


class TestSegmentCycles:
    def test_constant_series_raises(self):
        with pytest.raises(NoCyclesFound):
            segment_cycles(np.full(100, 3.0), 100.0)

    def test_short_series_raises(self):
        with pytest.raises(NoCyclesFound):
            segment_cycles(np.array([1.0, 2.0]), 100.0)

    def test_two_cycle_construction(self):
        t = np.arange(0, 800, 10.0)
        s = -np.cos(2 * math.pi * t / 400.0)
        cycles = segment_cycles(s, 100.0)
        assert len(cycles) == 1  # two touchdowns bound one full cycle
        c = cycles[0]
        assert c.touchdown_t < c.liftoff_t < c.next_touchdown_t

    def test_period_recovery_446(self):
        t = np.arange(0, 4500, 10.0)
        s = -np.cos(2 * math.pi * t / 446.1)
        cycles = segment_cycles(s, 100.0)
        times = np.array([c.cycle_time for c in cycles])
        assert abs(times.mean() - 446.1) <= 10.0
        assert np.all(np.abs(times - 446.1) <= 10.0)

    def test_period_recovery_406(self):
        t = np.arange(0, 4100, 10.0)
        s = -np.cos(2 * math.pi * t / 406.6)
        cycles = segment_cycles(s, 100.0)
        assert abs(np.mean([c.cycle_time for c in cycles]) - 406.6) <= 10.0

    def test_amplitude_grid_aligned(self):
        # period on the sample grid: peaks and troughs land on samples
        t = np.arange(0, 2000, 10.0)
        s = 20.0 + 17.5 * 0.5 * (1.0 - np.cos(2 * math.pi * t / 400.0))
        cycles = segment_cycles(s, 100.0)
        for c in cycles:
            assert c.bend_amplitude == pytest.approx(17.5, abs=1e-6)

    def test_debounce_merges_chatter(self):
        t = np.arange(0, 3000, 10.0)
        s = -np.cos(2 * math.pi * t / 500.0) + 0.02 * np.sin(
            2 * math.pi * t / 20.0)
        cycles = segment_cycles(s, 100.0, min_separation_ms=50.0)
        times = [c.cycle_time for c in cycles]
        assert all(abs(ct - 500.0) <= 20.0 for ct in times)

    def test_cycle_ordering_invariant(self):
        with pytest.raises(ValueError):
            StepCycle(10.0, 5.0, 20.0, 10.0, 1.0)


class TestTrialMetrics:
    def test_synthetic_recording(self):
        rec = synthetic_recording(n=500, period_ms=400.0, amp_deg=40.0)
        tm = trial_metrics(rec, "right")
        assert abs(tm.mean_cycle_time - 400.0) <= 10.0
        assert tm.mean_bend_amplitude == pytest.approx(40.0, abs=0.5)

    def test_flat_recording_raises(self):
        rec = synthetic_recording(n=100, lift=0.0, amp_deg=0.0)
        with pytest.raises(NoCyclesFound):
            trial_metrics(rec, "right")


def write_recording(path, text_rows):
    path.write_text("t_ms,label,x_mm,y_mm,z_mm\n" + "".join(
        row + "\n" for row in text_rows))
    return path


def metrics_after_save(path, markers, rate=100.0):
    """trial_metrics of ``markers`` read back from a CSV at ``path``."""
    save_recording(path, TrialRecording(markers, rate))
    return trial_metrics(load_recording(path, rate), "right")


class TestRecordingCsv:
    def test_round_trip(self, tmp_path):
        rec = synthetic_recording(n=20)
        p = tmp_path / "trial.csv"
        save_recording(p, rec)
        back = load_recording(p)
        assert len(back) == len(rec) and back.t0_ms == rec.t0_ms
        assert np.array_equal(back.markers, rec.markers, equal_nan=True)

    def test_bad_header_row_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope\n")
        with pytest.raises(ValueError, match="row 1"):
            load_recording(p)

    def test_bad_value_row_number(self, tmp_path):
        p = write_recording(tmp_path / "bad.csv", ["0.0,R1,1,2,oops"])
        with pytest.raises(ValueError, match="row 2"):
            load_recording(p)

    def test_unknown_label_rejected(self, tmp_path):
        p = write_recording(tmp_path / "bad.csv", ["0.0,X9,1,2,3"])
        with pytest.raises(ValueError, match="X9"):
            load_recording(p)

    def test_backwards_time_names_the_file_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,label,x_mm,y_mm,z_mm\n10.0,R1,1,2,3\n\n"
                     "10.0,R2,1,2,3\n0.0,R1,1,2,3\n")
        with pytest.raises(ValueError, match="row 5: time goes backwards"):
            load_recording(p)

    def test_non_finite_coordinate_names_row(self, tmp_path):
        p = write_recording(tmp_path / "bad.csv",
                            ["0.0,R1,1,2,3", "0.0,R2,1,nan,3"])
        with pytest.raises(ValueError, match="row 3: not a finite number"):
            load_recording(p)

    def test_duplicate_label_in_a_frame_names_its_row(self, tmp_path):
        p = write_recording(tmp_path / "dup.csv", [
            "0.0,R1,1,2,3", "0.0,R2,1,2,3", "10.0,R1,1,2,3", "10.0,R2,1,2,3",
            "10.0,R1,4,5,6", "20.0,R1,1,2,3"])
        with pytest.raises(ValueError, match="row 6: second row for this "
                                             "label in this frame"):
            load_recording(p)

    def test_off_grid_timestamp_names_its_row(self, tmp_path):
        rows = ["0.0,R1,1,2,3", "10.0,R1,1,2,3", "20.0,R1,1,2,3"]
        assert len(load_recording(write_recording(
            tmp_path / "ok.csv", rows + ["30.09,R1,1,2,3"]))) == 4
        p = write_recording(tmp_path / "bad.csv", rows + ["30.2,R1,1,2,3"])
        with pytest.raises(ValueError, match="row 5: timestamp off the 100 "
                                             "fps grid"):
            load_recording(p)
        # the grid is the configured rate, not whatever the file implies
        with pytest.raises(ValueError, match="row 3: timestamp off the 30 "):
            load_recording(write_recording(tmp_path / "ok2.csv", rows), 30.0)

    @pytest.mark.parametrize("stray", ["1e9", "1e300", "60.0"])
    def test_stray_timestamp_names_its_row(self, tmp_path, stray):
        p = write_recording(tmp_path / "bad.csv", [
            "0.0,R1,1,2,3", "10.0,R1,1,2,3", f"{stray},R1,1,2,3",
            "20.0,R1,1,2,3", "30.0,R1,1,2,3"])
        with pytest.raises(ValueError, match="row 4: more frames than the "
                                             "file has rows"):
            load_recording(p)

    def test_absent_frames_are_nan_rows_on_the_time_grid(self, tmp_path):
        p = write_recording(tmp_path / "gap.csv", [
            "1000.0,R1,1,2,3", "1000.0,B1,0,0,0", "1000.0,B2,1,0,0",
            "1030.0,R1,4,5,6", "1040.0,B1,0,0,1", "1040.0,R1,1,2,3"])
        rec = load_recording(p)
        assert len(rec) == 5 and rec.t0_ms == 1000.0
        assert np.isnan(rec.markers[1:3]).all()
        assert rec.markers[3, LABELS.index("R1")].tolist() == [4, 5, 6]
        assert np.isnan(rec.markers[3, LABELS.index("B1")]).all()

    def test_empty_recording_has_no_frames(self, tmp_path):
        rec = load_recording(write_recording(tmp_path / "empty.csv", []))
        assert len(rec) == 0
        with pytest.raises(NoCyclesFound):
            trial_metrics(rec, "right")

    def test_recording_validates_its_array(self):
        with pytest.raises(ValueError, match="shape"):
            TrialRecording(np.zeros((4, 6, 3)))
        with pytest.raises(ValueError, match="finite or NaN"):
            TrialRecording(np.full((1, len(LABELS), 3), np.inf))
        with pytest.raises(ValueError, match="rate"):
            TrialRecording(np.zeros((1, len(LABELS), 3)), rate=0.0)
        rec = TrialRecording(np.zeros((1, len(LABELS), 3)))
        with pytest.raises(ValueError):
            rec.markers[0, 0, 0] = 1.0

    def test_absent_frames_keep_the_cycle_time(self, tmp_path):
        # 50 scattered whole frames missing from a 1500-frame trial: read
        # by frame index instead of timestamp, the gaps would close up and
        # shorten the mean cycle by about 15 ms
        markers = synthetic_markers(n=1500, period_ms=461.38)
        full = metrics_after_save(tmp_path / "full.csv", markers)
        rng = np.random.default_rng(5)
        markers[rng.choice(np.arange(1, 1499), 50, replace=False)] = np.nan
        holey = metrics_after_save(tmp_path / "holey.csv", markers)
        assert len(holey.cycle_times) == len(full.cycle_times)
        assert abs(holey.mean_cycle_time - 461.38) <= 10.0


@st.composite
def padded_recordings(draw):
    """NaN-padded marker arrays, whole frames absent at times, whose first
    and last frames hold a marker and with no more frames than rows."""
    n = draw(st.integers(1, 25))

    def flags(size):
        return np.array(draw(st.lists(st.booleans(), min_size=size,
                                      max_size=size)), dtype=bool)

    present = flags(n * len(LABELS)).reshape(n, len(LABELS))
    present[[0, -1], draw(st.integers(0, len(LABELS) - 1))] = True
    absent = flags(n)
    absent[[0, -1]] = False
    present[absent] = False
    assume(present.sum() >= n)
    values = draw(hnp.arrays(float, (n, len(LABELS), 3), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    return TrialRecording(np.where(present[..., None], values, np.nan),
                          rate=draw(st.sampled_from([30.0, 100.0, 120.0,
                                                     240.0])),
                          t0_ms=draw(st.floats(-1e4, 1e4)))


@settings(max_examples=100, deadline=None)
@given(padded_recordings())
def test_save_load_is_lossless(tmp_path_factory, rec):
    path = tmp_path_factory.mktemp("rec") / "r.csv"
    save_recording(path, rec)
    back = load_recording(path, rec.rate)
    assert back.t0_ms == rec.t0_ms
    assert np.array_equal(back.markers, rec.markers, equal_nan=True)


@settings(max_examples=25, deadline=None)
@given(st.floats(300.0, 600.0), st.lists(st.integers(1, 598), max_size=40))
def test_dropping_isolated_frames_keeps_cycles(tmp_path_factory, period_ms,
                                               picks):
    # at most one dropped frame per step period: a cycle whose two
    # touchdown frames were both dropped can move by two frames
    spacing = int(period_ms // 10.0) + 2
    drops = []
    for i in sorted(set(picks)):
        if not drops or i - drops[-1] >= spacing:
            drops.append(i)
    markers = synthetic_markers(n=600, period_ms=period_ms)
    root = tmp_path_factory.mktemp("drop")
    full = metrics_after_save(root / "full.csv", markers)
    markers[drops] = np.nan
    dropped = metrics_after_save(root / "dropped.csv", markers)
    assert len(dropped.cycle_times) == len(full.cycle_times)
    assert np.abs(np.subtract(dropped.cycle_times, full.cycle_times)).max(
        initial=0.0) <= 10.0


class TestFillGaps:
    def test_interior_gap_interpolated(self):
        s = np.array([0.0, np.nan, np.nan, 3.0, 4.0])
        out = fill_gaps(s)
        assert np.allclose(out, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_edges_stay_nan(self):
        s = np.array([np.nan, 1.0, np.nan, 3.0, np.nan])
        out = fill_gaps(s)
        assert np.isnan(out[0]) and np.isnan(out[-1])
        assert out[2] == pytest.approx(2.0)

    def test_metrics_with_dropouts(self):
        markers = synthetic_markers(n=500, period_ms=400.0, amp_deg=40.0)
        # knock the claw marker out of a few scattered frames
        markers[[50, 51, 160, 300], LABELS.index("R1")] = np.nan
        holey = TrialRecording(markers)
        tm = trial_metrics(holey, "right", interpolate_gaps=True)
        assert abs(tm.mean_cycle_time - 400.0) <= 10.0
