"""Marker analytics: angles, planes, displacement, cycle segmentation."""

import math

import numpy as np
import pytest

from tarsim.gait import (CollinearMarkers, DegenerateVector, MarkerFrame,
                         MissingMarker, NoCyclesFound, StepCycle,
                         TrialRecording, claw_displacement,
                         claw_tibia_angle, load_recording, reference_plane,
                         save_recording, segment_cycles, trial_metrics)


def rigid_transform(rng):
    """Random rotation (QR of a Gaussian) plus translation."""
    M = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(M)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    t = rng.uniform(-50.0, 50.0, 3)
    return Q, t


def frame_with(points, t=0.0):
    return MarkerFrame(t, points)


def leg_frame(m1, m2, m3, side="right", t=0.0):
    prefix = "R" if side == "right" else "L"
    return frame_with({f"{prefix}1": m1, f"{prefix}2": m2, f"{prefix}3": m3},
                      t=t)


class TestClawTibiaAngle:
    def test_collinear_markers_zero(self):
        f = leg_frame([2.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0])
        assert claw_tibia_angle(f, "right") == pytest.approx(0.0, abs=1e-12)

    def test_right_angle(self):
        f = leg_frame([1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert claw_tibia_angle(f, "right") == pytest.approx(90.0, abs=1e-12)

    def test_against_dot_product_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            m1, m2, m3 = rng.uniform(-10, 10, (3, 3))
            expect = math.degrees(math.acos(np.clip(
                np.dot(m2 - m3, m1 - m2)
                / (np.linalg.norm(m2 - m3) * np.linalg.norm(m1 - m2)),
                -1.0, 1.0)))
            got = claw_tibia_angle(leg_frame(m1, m2, m3), "right")
            assert got == pytest.approx(expect, abs=1e-9)
            assert 0.0 <= got <= 180.0

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(42)
        m1, m2, m3 = rng.uniform(-10, 10, (3, 3))
        base = claw_tibia_angle(leg_frame(m1, m2, m3), "right")
        for _ in range(50):
            Q, t = rigid_transform(rng)
            moved = leg_frame(Q @ m1 + t, Q @ m2 + t, Q @ m3 + t)
            assert claw_tibia_angle(moved, "right") == pytest.approx(
                base, abs=1e-9)

    def test_missing_marker(self):
        f = frame_with({"R1": [0, 0, 0], "R2": [1, 0, 0]})
        with pytest.raises(MissingMarker):
            claw_tibia_angle(f, "right")

    def test_degenerate_vector(self):
        f = leg_frame([1.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0])
        with pytest.raises(DegenerateVector):
            claw_tibia_angle(f, "right")

    def test_left_side_labels(self):
        f = leg_frame([2.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0], side="left")
        assert claw_tibia_angle(f, "left") == pytest.approx(0.0, abs=1e-12)


class TestReferencePlane:
    def test_axis_aligned(self):
        f = frame_with({"B1": [0, 0, 0], "B2": [1, 0, 0], "B3": [0, 1, 0]})
        plane = reference_plane(f)
        assert abs(abs(plane.normal[2]) - 1.0) < 1e-12
        assert plane.signed_distance([5.0, -3.0, 0.0]) == pytest.approx(0.0)

    def test_normal_oriented_toward_legs(self):
        f = frame_with({"B1": [0, 0, 0], "B2": [1, 0, 0], "B3": [0, 1, 0],
                        "R1": [0.0, 0.0, -4.0]})
        plane = reference_plane(f)
        assert plane.signed_distance([0, 0, -4.0]) > 0

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(43)
        b = rng.uniform(-10, 10, (3, 3))
        probe = rng.uniform(-10, 10, 3)
        f = frame_with({"B1": b[0], "B2": b[1], "B3": b[2], "R1": probe})
        d0 = reference_plane(f).signed_distance(probe)
        for _ in range(50):
            Q, t = rigid_transform(rng)
            moved = frame_with({"B1": Q @ b[0] + t, "B2": Q @ b[1] + t,
                                "B3": Q @ b[2] + t, "R1": Q @ probe + t})
            d1 = reference_plane(moved).signed_distance(Q @ probe + t)
            assert d1 == pytest.approx(d0, abs=1e-9)

    def test_collinear_raises(self):
        f = frame_with({"B1": [0, 0, 0], "B2": [1, 0, 0], "B3": [2, 0, 0]})
        with pytest.raises(CollinearMarkers):
            reference_plane(f)


def synthetic_recording(n=400, rate=100.0, period_ms=400.0, amp_deg=40.0,
                        rest_height=6.0, lift=8.0):
    """Leg bobbing against a fixed body frame with a known period.

    The claw height and the claw-tibia angle share the driving phase, so
    the injected period and angle amplitude are both recoverable.
    """
    frames = []
    dt = 1000.0 / rate
    for i in range(n):
        t = i * dt
        phase = 2 * math.pi * t / period_ms
        height = rest_height + lift * 0.5 * (1.0 - math.cos(phase))
        bend = math.radians(amp_deg) * 0.5 * (1.0 - math.cos(phase))
        m3 = np.array([0.0, 0.0, 20.0])
        m2 = np.array([10.0, 0.0, 8.0])
        direction = np.array([math.cos(-bend), 0.0, math.sin(-bend)])
        m1 = m2 + 6.0 * direction
        offset = np.array([0.0, 0.0, height - m1[2]])
        frames.append(MarkerFrame(t, {
            "B1": [0.0, 0.0, 30.0], "B2": [5.0, 0.0, 30.0],
            "B3": [0.0, 5.0, 30.0],
            "R3": m3 + offset, "R2": m2 + offset, "R1": m1 + offset,
        }))
    return TrialRecording(tuple(frames), rate)


class TestClawDisplacement:
    def test_on_plane_zero(self):
        f = frame_with({"B1": [0, 0, 0], "B2": [1, 0, 0], "B3": [0, 1, 0],
                        "R1": [3.0, 2.0, 0.0], "R2": [3, 2, -1],
                        "R3": [3, 2, -2]})
        rec = TrialRecording((f,))
        assert claw_displacement(rec, "right")[0] == pytest.approx(0.0)

    def test_offset_along_normal(self):
        f = frame_with({"B1": [0, 0, 0], "B2": [1, 0, 0], "B3": [0, 1, 0],
                        "R1": [0.0, 0.0, -5.0]})
        rec = TrialRecording((f,))
        assert claw_displacement(rec, "right")[0] == pytest.approx(5.0)

    def test_gap_becomes_nan(self):
        f1 = frame_with({"B1": [0, 0, 0], "B2": [1, 0, 0], "B3": [0, 1, 0],
                         "R1": [0, 0, -5.0]}, t=0.0)
        f2 = frame_with({"B1": [0, 0, 0], "B2": [1, 0, 0],
                         "B3": [0, 1, 0]}, t=10.0)
        rec = TrialRecording((f1, f2))
        d = claw_displacement(rec, "right")
        assert np.isfinite(d[0]) and np.isnan(d[1])

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


class TestRecordingCsv:
    def test_round_trip(self, tmp_path):
        rec = synthetic_recording(n=20)
        p = tmp_path / "trial.csv"
        save_recording(p, rec)
        back = load_recording(p)
        assert len(back) == len(rec)
        for fa, fb in zip(rec.frames, back.frames):
            assert fa.t_ms == fb.t_ms
            assert set(fa.points) == set(fb.points)
            for label in fa.points:
                assert np.array_equal(fa.points[label], fb.points[label])

    def test_bad_header_row_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope\n")
        with pytest.raises(ValueError, match="row 1"):
            load_recording(p)

    def test_bad_value_row_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,label,x_mm,y_mm,z_mm\n0.0,R1,1,2,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            load_recording(p)

    def test_unknown_label_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,label,x_mm,y_mm,z_mm\n0.0,X9,1,2,3\n")
        with pytest.raises(ValueError, match="X9"):
            load_recording(p)

    def test_backwards_time_names_the_file_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,label,x_mm,y_mm,z_mm\n10.0,R1,1,2,3\n\n"
                     "10.0,R2,1,2,3\n0.0,R1,1,2,3\n")
        with pytest.raises(ValueError, match="row 5: time goes backwards"):
            load_recording(p)

    def test_non_finite_coordinate_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,label,x_mm,y_mm,z_mm\n0.0,R1,1,2,3\n"
                     "0.0,R2,1,nan,3\n")
        with pytest.raises(ValueError, match="row 3: not a finite number"):
            load_recording(p)

    def test_recording_orders_frames(self):
        f1 = frame_with({"B1": [0, 0, 0]}, t=10.0)
        f2 = frame_with({"B1": [0, 0, 0]}, t=0.0)
        with pytest.raises(ValueError):
            TrialRecording((f1, f2))


class TestFillGaps:
    def test_interior_gap_interpolated(self):
        from tarsim.gait import fill_gaps
        s = np.array([0.0, np.nan, np.nan, 3.0, 4.0])
        out = fill_gaps(s)
        assert np.allclose(out, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_edges_stay_nan(self):
        from tarsim.gait import fill_gaps
        s = np.array([np.nan, 1.0, np.nan, 3.0, np.nan])
        out = fill_gaps(s)
        assert np.isnan(out[0]) and np.isnan(out[-1])
        assert out[2] == pytest.approx(2.0)

    def test_max_gap_respected(self):
        from tarsim.gait import fill_gaps
        s = np.array([0.0, np.nan, np.nan, np.nan, 4.0, np.nan, 6.0])
        out = fill_gaps(s, max_gap_frames=1)
        assert np.isnan(out[1]) and np.isnan(out[2]) and np.isnan(out[3])
        assert out[5] == pytest.approx(5.0)

    def test_metrics_with_dropouts(self):
        rec = synthetic_recording(n=500, period_ms=400.0, amp_deg=40.0)
        frames = list(rec.frames)
        # knock the claw marker out of a few scattered frames
        for k in (50, 51, 160, 300):
            pts = dict(frames[k].points)
            del pts["R1"]
            frames[k] = MarkerFrame(frames[k].t_ms, pts)
        holey = TrialRecording(tuple(frames), rec.rate)
        tm = trial_metrics(holey, "right", interpolate_gaps=True)
        assert abs(tm.mean_cycle_time - 400.0) <= 10.0
