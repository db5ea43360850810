"""End-to-end CLI flows: commands, exit codes, outputs, manifest."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tarsim import cli
from tarsim.chain import (chain_pull, default_chain_geometry, max_chain_pull,
                          segment_pull, solve_bend_from_pull,
                          total_bend_angle)
from tarsim.cli import build_parser, main, read_table
from tarsim.contact import load_demo_csv
from tarsim.gait import LABELS, TrialRecording, save_recording
from tarsim.leg import Trajectory, load_trajectory, save_trajectory
from tarsim.stats import (ConditionPair, GroupStats, REPORT_COLUMNS,
                          comparison_report)


def run(args, tmp_path, out="out"):
    return main([*args, "--out", str(tmp_path / out)]), tmp_path / out


def floats(row, idx):
    return [float(row[i]) for i in idx]


class TestChainCommand:
    def test_zero_pull_all_zero_table(self, tmp_path, capsys):
        rc, out = run(["chain", "--pull", "0"], tmp_path)
        assert rc == 0
        header, rows = read_table(out / "chain_state.csv")
        assert header == ["segment", "theta_deg", "compression_mm",
                          "slack_mm", "pull_mm"]
        assert len(rows) == 6
        for row in rows:
            assert floats(row, range(1, 5)) == [0.0, 0.0, 0.0, 0.0]

    def test_full_pull_bend(self, tmp_path, capsys):
        rc, out = run(["chain", "--pull", "5.5"], tmp_path)
        assert rc == 0
        _, rows = read_table(out / "chain_state.csv")
        total = rows[-1]
        assert total[0] == "total"
        assert float(total[1]) == pytest.approx(65.8, abs=0.1)
        assert "65.8" in capsys.readouterr().out

    def test_sweep_monotone(self, tmp_path):
        rc, out = run(["chain", "--sweep", "0:13.1:0.25"], tmp_path)
        assert rc == 0
        _, rows = read_table(out / "bend_vs_pull.csv")
        bends = [float(r[1]) for r in rows]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bends, bends[1:]))

    def test_sweep_in_tenths_past_capacity(self, tmp_path, capsys):
        rc, out = run(["chain", "--sweep", "0:13.1:0.1"], tmp_path)
        assert rc == 0
        assert "over 132 points" in capsys.readouterr().out
        _, rows = read_table(out / "bend_vs_pull.csv")
        assert len(rows) == 132

    def test_stiffness_csv_and_svg(self, tmp_path):
        rc, out = run(["chain", "--stiffness", "--format", "both"], tmp_path)
        assert rc == 0
        _, rows = read_table(out / "stiffness_rigid.csv")
        assert float(rows[-1][1]) == pytest.approx(2.46)
        assert (out / "stiffness.svg").read_text().startswith("<svg")

    def test_no_action_is_domain_error(self, tmp_path, capsys):
        rc, out = run(["chain"], tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: chain needs --pull, --sweep or --stiffness\n"
        assert not out.exists()

    def test_negative_pull_is_domain_error(self, tmp_path):
        rc, _ = run(["chain", "--pull", "-1"], tmp_path)
        assert rc == 1

    def test_non_finite_pull_is_domain_error(self, tmp_path, capsys):
        for bad in ("nan", "inf"):
            rc, out = run(["chain", "--pull", bad], tmp_path, out=bad)
            assert rc == 1
            assert not (out / "chain_state.csv").exists()
        assert "finite" in capsys.readouterr().err

    def test_non_finite_sweep_is_domain_error(self, tmp_path, capsys):
        for i, bad in enumerate(("nan:1:0.5", "0:nan:0.5", "0:inf:0.5",
                                 "0:1:nan")):
            rc, _ = run(["chain", "--sweep", bad], tmp_path, out=f"o{i}")
            assert rc == 1
        assert "finite" in capsys.readouterr().err

    def test_sweep_too_long_for_an_array_is_domain_error(self, tmp_path,
                                                           capsys):
        rc, out = run(["chain", "--sweep", "0:1e308:1e-300"], tmp_path)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: --sweep '0:1e308:1e-300': ")
        assert "Traceback" not in err
        assert not (out / "bend_vs_pull.csv").exists()

    def test_sweep_too_large_to_allocate_is_an_error(self, tmp_path,
                                                     capsys):
        # 1e17 points: far more bytes than any machine can allocate
        rc, out = run(["chain", "--sweep", "0:1e8:1e-9"], tmp_path)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (out / "bend_vs_pull.csv").exists()

    def test_sweep_counts_clamped_points(self, tmp_path, capsys):
        # capacity without slack is 5.5 + 4.7 = 10.2 mm; the grid
        # 0, 0.25, ..., 13.0 has 12 points above it (10.25 .. 13.0)
        rc, _ = run(["chain", "--sweep", "0:13.1:0.25"], tmp_path)
        assert rc == 0
        assert "53 points, 12 clamped at capacity 10.2 mm" in \
            capsys.readouterr().out
        rc, _ = run(["chain", "--sweep", "0:10:0.25"], tmp_path, out="o2")
        assert rc == 0
        assert "41 points, 0 clamped at capacity" in capsys.readouterr().out

    def test_pull_past_capacity_clamps_without_a_warning(self, tmp_path,
                                                         capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run(["chain", "--pull", "20"], tmp_path)
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.rstrip().endswith(
            "clamped at capacity 10.2 mm")
        capacity = repr(max_chain_pull(default_chain_geometry()))
        _, at_capacity = run(["chain", "--pull", capacity], tmp_path, "o2")
        assert "clamped" not in capsys.readouterr().out
        assert (out / "chain_state.csv").read_text() == \
            (at_capacity / "chain_state.csv").read_text()

    def test_vertical_cap_is_read_from_limits(self, tmp_path, capsys):
        conf = tmp_path / "t.conf"
        conf.write_text("[limits]\nvertical_max_n = 2.0\n")
        rc, out = run(["chain", "--stiffness", "--config", str(conf)],
                      tmp_path)
        assert rc == 0
        assert "rigid caps at 2.0 N" in capsys.readouterr().out
        _, rows = read_table(out / "stiffness_rigid.csv")
        assert max(float(r[1]) for r in rows) == 2.0
        rc, out = run(["sim", "--scenario", "tubed", "--config", str(conf)],
                      tmp_path, "o2")
        assert rc == 0
        assert max(s.vertical for s in
                   load_demo_csv(out / "tubed_demo.csv")) == 2.0

    def test_stiffness_axis_past_the_float_range_is_domain_error(
            self, tmp_path, capsys):
        # 1.5 * 1e308 N / 0.54 N/mm overflows: the axis would hold nan and
        # inf cells; nothing is written, the --pull table included
        conf = tmp_path / "t.conf"
        conf.write_text("[limits]\nvertical_max_n = 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run(["chain", "--pull", "1", "--stiffness", "--config",
                           str(conf), "--format", "both"], tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --stiffness: the displacement axis end 1.5 * 1e+308 N / "
            "0.54 N/mm overflows\n")
        assert not out.exists()

    def test_chain_vertical_cap_key_names_its_replacement(self, tmp_path,
                                                          capsys):
        conf = tmp_path / "t.conf"
        conf.write_text("[chain]\nvertical_cap_n = 3\n")
        rc, out = run(["chain", "--stiffness", "--config", str(conf)],
                      tmp_path)
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "[limits] vertical_max_n" in err
        assert not out.exists()

    def test_solver_iteration_cap_exits_one(self, tmp_path, capsys):
        conf = tmp_path / "t.conf"
        conf.write_text("[solver]\nmax_iter = 1\n")
        rc = main(["chain", "--pull", "2.0", "--config", str(conf),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "did not converge" in capsys.readouterr().err

    def test_solver_max_iter_below_one_is_config_error(self, tmp_path):
        conf = tmp_path / "t.conf"
        conf.write_text("[solver]\nmax_iter = 0\n")
        rc = main(["chain", "--pull", "2.0", "--config", str(conf),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_sweep_names_first_unconverged_pull(self, tmp_path, capsys):
        conf = tmp_path / "t.conf"
        conf.write_text("[solver]\nmax_iter = 1\ntol_mm = 1e-14\n")
        rc, out = run(["chain", "--sweep", "0:1:0.25", "--config", str(conf)],
                      tmp_path)
        assert rc == 1
        assert ("chain solve for pull 0.25 mm did not converge in 1 "
                "iterations") in capsys.readouterr().err
        assert not (out / "bend_vs_pull.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("tol_mm", "-1"), ("tol_mm", "nan"), ("tol_mm", "0"),
        ("tol_mm", "inf"), ("max_iter", "0"), ("max_iter", "-5"),
    ])
    def test_bad_solver_setting_is_config_error(self, tmp_path, capsys, key,
                                                value):
        conf = tmp_path / "t.conf"
        conf.write_text(f"[solver]\n{key} = {value}\n")
        rc, out = run(["chain", "--pull", "2.0", "--sweep", "0:1:0.5",
                       "--config", str(conf)], tmp_path)
        assert rc == 2
        assert f"line 2: solver.{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_round_trip_losslessly(self, tmp_path):
        rc, out = run(["chain", "--pull", "3.3"], tmp_path)
        header, rows = read_table(out / "chain_state.csv")
        # re-serializing the parsed floats reproduces the file exactly
        from tarsim.cli import write_table
        again = out / "again.csv"
        write_table(again, header,
                    [[r[0], *[float(v) for v in r[1:]]] for r in rows])
        assert again.read_text() == (out / "chain_state.csv").read_text()

    @pytest.mark.parametrize("socket_slack", [False, True])
    @pytest.mark.parametrize("pull", [0.0, 0.37, 2.0, 3.3, 5.5, 9.0, 13.1,
                                      20.0])
    def test_pull_table_is_the_per_segment_pull_table(self, tmp_path,
                                                      socket_slack, pull):
        # the table as built from one scalar segment_pull call per segment
        chain = default_chain_geometry(socket_slack=socket_slack)
        state = solve_bend_from_pull(chain, min(pull, max_chain_pull(chain)))
        rows = [[f"segment_{i + 1}", np.degrees(state.theta[i]),
                 state.compression[i], state.slack[i],
                 segment_pull(chain.segments[i], float(state.theta[i]))]
                for i in range(len(chain.segments))]
        rows.append(["total", total_bend_angle(state),
                     state.compression.sum(), state.slack.sum(),
                     chain_pull(chain, state)])
        expected = tmp_path / "expected.csv"
        cli.write_table(expected, ["segment", "theta_deg", "compression_mm",
                                   "slack_mm", "pull_mm"], rows)
        conf = tmp_path / "t.conf"
        conf.write_text("[chain]\nsocket_slack = "
                        f"{str(socket_slack).lower()}\n")
        rc, out = run(["chain", "--pull", repr(pull), "--config", str(conf)],
                      tmp_path)
        assert rc == 0
        assert (out / "chain_state.csv").read_bytes() == expected.read_bytes()


class TestLegCommand:
    def test_fk_straight(self, tmp_path, capsys):
        rc, out = run(["leg", "--fk", "0,0,0,0"], tmp_path)
        assert rc == 0
        _, rows = read_table(out / "leg_fk.csv")
        x, y, z = floats(rows[0], range(3))
        assert (x, y, z) == pytest.approx((255.0, 0.0, 0.0), abs=1e-9)

    def test_ik_round_trip_prints_residual(self, tmp_path, capsys):
        rc, out = run(["leg", "--fk", "10,-20,30,-40"], tmp_path)
        _, rows = read_table(out / "leg_fk.csv")
        x, y, z = floats(rows[0], range(3))
        rc, out = run(["leg", "--ik", f"{x},{y},{z}"], tmp_path, out="out2")
        assert rc == 0
        text = capsys.readouterr().out
        assert "residual" in text and "iterations" in text
        _, rows = read_table(out / "leg_ik.csv")
        assert float(rows[0][4]) < 1e-6

    def test_no_action_is_domain_error(self, tmp_path, capsys):
        rc, out = run(["leg", "--q0", "0,0,0,0"], tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: leg needs --fk, --ik or --retarget\n"
        assert not out.exists()

    def test_ik_unreachable_exit_code(self, tmp_path, capsys):
        rc, _ = run(["leg", "--ik", "900,0,0"], tmp_path)
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: target not reachable: best residual ")

    def test_help_names_the_leg_options(self, capsys):
        assert main(["leg", "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: tarsim leg ")
        for flag in ("--fk", "--ik", "--q0", "--retarget", "--to-joints"):
            assert flag in out

    @pytest.mark.parametrize("args, message", [
        (["leg", "--ik=1e308,0,0"],
         "target not reachable: best residual 1e+308 mm after 2 iterations"),
        (["sim", "--scenario", "walk_cycle", "--config", "spacing.conf"],
         "target not reachable at sample 0: best residual 2.91548e+300 mm"),
        (["sim", "--scenario", "walk_cycle", "--config", "claw.conf"],
         "target not reachable at sample 0: best residual 1e+308 mm"),
        # a scripted target past the float range is inf
        (["sim", "--scenario", "far", "--config", "offsets.conf"],
         "target not reachable at sample 1: best residual 1e+308 mm"),
        (["sim", "--scenario", "far", "--config", "home.conf"],
         "target not reachable at sample 0: best residual 1e+308 mm"),
    ], ids=["ik", "mesh_spacing", "claw_length", "scenario_offsets",
            "scenario_home"])
    def test_target_past_the_float_range_warns_nothing(
            self, tmp_path, capsys, monkeypatch, args, message):
        # the residual overflows to inf there: that target does not land
        monkeypatch.chdir(tmp_path)
        Path("spacing.conf").write_text("[mesh]\nspacing_mm = 1e300\n")
        Path("claw.conf").write_text("[claw]\nlength_mm = 1e308\n")
        far = "[scenario:far]\nphase_1 = out rigid 10 1e308 0 0\n"
        Path("offsets.conf").write_text(
            far + "home = 120 0 -60\nphase_2 = back rigid 10 -1e308 0 0\n")
        Path("home.conf").write_text(far + "home = 1e308 0 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run(args, tmp_path)
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("damping", "nan"), ("damping", "-1e-3"), ("damping", "0"),
        ("max_iter", "0"), ("max_iter", "-5"),
        ("step_clamp_rad", "0"), ("step_clamp_rad", "inf"),
        ("tol_mm", "nan"), ("tol_mm", "-1"), ("tol_mm", "0"),
        ("tol_mm", "inf"),
    ])
    def test_bad_ik_setting_is_config_error(self, tmp_path, capsys, key,
                                            value):
        # The closed form reads only tol_mm; the damped least squares keys
        # it replaced are now unknown keys, still refused on their line.
        conf = tmp_path / "ik.conf"
        conf.write_text(f"[ik]\n{key} = {value}\n")
        rc, out = run(["leg", "--ik", "120,30,-60", "--config", str(conf)],
                      tmp_path)
        assert rc == 2
        err = capsys.readouterr().err
        if key == "tol_mm":
            assert f"line 2: ik.{key} must be" in err
        else:
            assert f"line 2: unknown key {key!r} in [ik]" in err
        assert not (out / "leg_ik.csv").exists()

    def test_retarget_scales_distances(self, tmp_path):
        rng = np.random.default_rng(51)
        pts = rng.uniform(-3, 3, (10, 3))
        src = tmp_path / "beetle.csv"
        save_trajectory(src, Trajectory(np.arange(10.0) * 10.0, pts))
        rc, out = run(["leg", "--retarget", str(src)], tmp_path)
        assert rc == 0
        scaled = load_trajectory(out / "retargeted.csv")
        d0 = np.linalg.norm(pts[3] - pts[7])
        d1 = np.linalg.norm(scaled.points[3] - scaled.points[7])
        assert d1 == pytest.approx(8.0 * d0, rel=1e-12)

    def test_retarget_to_joints(self, tmp_path):
        t = np.arange(0.0, 200.0, 10.0)
        pts = np.column_stack([
            15.0 + 0.5 * np.cos(2 * math.pi * t / 200.0),
            0.05 * np.sin(2 * math.pi * t / 200.0),
            -7.5 + 0.5 * np.sin(2 * math.pi * t / 200.0),
        ])
        src = tmp_path / "beetle.csv"
        save_trajectory(src, Trajectory(t, pts))
        rc, out = run(["leg", "--retarget", str(src), "--to-joints",
                       "--origin", "0,0,0"], tmp_path)
        assert rc == 0
        header, rows = read_table(out / "joints.csv")
        assert header[0] == "t_ms" and len(rows) == len(t)

    def test_retarget_header_only_to_joints(self, tmp_path):
        src = tmp_path / "beetle.csv"
        save_trajectory(src, Trajectory(np.empty(0), np.empty((0, 3))))
        rc, out = run(["leg", "--retarget", str(src), "--to-joints"],
                      tmp_path)
        assert rc == 0
        header, rows = read_table(out / "joints.csv")
        assert header[0] == "t_ms" and rows == []

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf"])
    def test_retarget_bad_scale_is_domain_error(self, tmp_path, capsys,
                                                scale):
        src = tmp_path / "beetle.csv"
        save_trajectory(src, Trajectory([0.0, 10.0], np.ones((2, 3))))
        rc, out = run(["leg", "--retarget", str(src), "--scale", scale],
                      tmp_path)
        assert rc == 1
        assert "scale must be finite and > 0" in capsys.readouterr().err
        assert not (out / "retargeted.csv").exists()

    @pytest.mark.parametrize("args", [
        ["--fk", "0,inf,0,0"], ["--ik", "nan,0,0"],
        ["--ik", "120,30,-60", "--q0", "0,nan,0,0"],
        ["--retarget", "beetle.csv", "--origin", "nan,0,0", "--to-joints"],
    ])
    def test_non_finite_vector_is_domain_error(self, tmp_path, capsys,
                                               monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        save_trajectory("beetle.csv", Trajectory([0.0], np.zeros((1, 3))))
        rc, out = run(["leg", *args], tmp_path)
        assert rc == 1
        assert "values must be finite" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("args, message", [
        (["--fk="], "--fk: expected 4 values, got 0"),
        (["--ik=150,0,-50", "--q0="], "--q0: expected 4 values, got 0"),
        (["--retarget", "beetle.csv", "--origin="],
         "--origin: expected 3 values, got 0"),
    ])
    def test_empty_vector_is_domain_error(self, tmp_path, capsys,
                                          monkeypatch, args, message):
        # an empty --q0 or --origin is a bad vector, not "no value given"
        monkeypatch.chdir(tmp_path)
        save_trajectory("beetle.csv", Trajectory([0.0], np.zeros((1, 3))))
        rc, out = run(["leg", *args], tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("to_joints", [[], ["--to-joints"]])
    def test_retarget_nan_coordinate_is_domain_error(self, tmp_path, capsys,
                                                     to_joints):
        src = tmp_path / "beetle.csv"
        src.write_text("t_ms,x_mm,y_mm,z_mm\n0.0,1.0,0.0,0.0\n"
                       "10.0,nan,0.0,0.0\n")
        rc, out = run(["leg", "--retarget", str(src), *to_joints], tmp_path)
        assert rc == 1
        assert "row 3: not a finite number" in capsys.readouterr().err
        assert not (out / "retargeted.csv").exists()

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_retarget_unreadable_file_is_domain_error(self, tmp_path, capsys,
                                                      name):
        rc, out = run(["leg", "--retarget", str(tmp_path / name)], tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --retarget: [Errno ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_retarget_cell_past_the_csv_field_limit_is_domain_error(
            self, tmp_path, capsys):
        src = tmp_path / "beetle.csv"
        src.write_text("t_ms,x_mm,y_mm,z_mm\n0.0,"
                       + "1" * (csv.field_size_limit() + 1) + ",0.0,0.0\n")
        rc, out = run(["leg", "--retarget", str(src)], tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --retarget: row 2: field larger than "
                              "field limit")
        assert "Traceback" not in err
        assert not out.exists()

    def test_retarget_past_the_float_range_is_domain_error(self, tmp_path,
                                                          capsys):
        src = tmp_path / "traj.csv"
        src.write_text("t_ms,x_mm,y_mm,z_mm\n0,150,0,-50\n10,151,0,-50\n")
        rc, out = run(["leg", "--retarget", str(src), "--origin", "1e308,0,0",
                       "--to-joints"], tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --retarget: scaled points must be finite; scale and "
            "origin overflow the float range\n")
        assert not out.exists()

    def test_retarget_going_back_in_time_names_its_row(self, tmp_path,
                                                       capsys):
        src = tmp_path / "back.csv"
        src.write_text("t_ms,x_mm,y_mm,z_mm\n0.0,1.0,2.0,3.0\n"
                       "10.0,1.0,2.0,3.0\n5.0,1.0,2.0,3.0\n")
        rc, out = run(["leg", "--retarget", str(src)], tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --retarget: row 4: timestamps must be strictly "
            "increasing: 5.0,1.0,2.0,3.0\n")
        assert not out.exists()


class TestSimCommand:
    def test_walk_cycle_exit_zero(self, tmp_path):
        rc, out = run(["sim", "--scenario", "walk_cycle"], tmp_path)
        assert rc == 0
        samples = load_demo_csv(out / "walk_cycle_demo.csv")
        assert samples
        _, events = read_table(out / "walk_cycle_events.csv")
        kinds = [r[1] for r in events]
        assert "Hook" in kinds and "Release" in kinds

    def test_tubed_repeat_swing(self, tmp_path):
        # a hold that lasts to the end of the run: tubed never releases
        rc, out = run(["sim", "--scenario", "tubed", "--format", "both"],
                      tmp_path)
        assert rc == 0
        _, events = read_table(out / "tubed_events.csv")
        assert any(r[1] == "RepeatSwing" for r in events)
        assert (out / "tubed_heights.svg").exists()

    def test_unknown_scenario_usage_error(self, tmp_path, capsys):
        rc, _ = run(["sim", "--scenario", "wat"], tmp_path)
        assert rc == 2

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_bad_dt_is_config_error(self, tmp_path, capsys, value):
        conf = tmp_path / "t.conf"
        conf.write_text(f"[sim]\ndt_ms = {value}\n")
        rc, out = run(["sim", "--scenario", "walk_cycle", "--config",
                       str(conf)], tmp_path)
        assert rc == 2
        assert "line 2: sim.dt_ms must be finite and > 0" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_dt_too_small_to_allocate_is_an_error(self, tmp_path, capsys):
        # 1e17 ticks: far more bytes than any machine can allocate
        conf = tmp_path / "t.conf"
        conf.write_text("[sim]\ndt_ms = 1e-15\n")
        rc, out = run(["sim", "--scenario", "walk_cycle", "--config",
                       str(conf)], tmp_path)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (out / "walk_cycle_demo.csv").exists()

    @pytest.mark.parametrize("sim, ticks", [("", "1e+307"),
                                            ("[sim]\ndt_ms = 0.001\n", "inf")],
                             ids=["default_dt", "ticks_past_the_float_range"])
    def test_scenario_too_long_for_an_array_is_an_error(self, tmp_path,
                                                        capsys, sim, ticks):
        conf = tmp_path / "t.conf"
        conf.write_text(sim + "[scenario:long]\n"
                        "phase_1 = hold rigid 1e308 0 0 0\n")
        rc, out = run(["sim", "--scenario", "long", "--config", str(conf)],
                      tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --scenario long: phase 'hold': {ticks} ticks are more "
            "than an array can hold\n")
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        *(("sim", "penetration_mm", v) for v in ("nan", "0", "-1")),
        *(("limits", k, v) for k in ("vertical_max_n", "hooking_max_n")
          for v in ("nan", "-1"))])
    def test_bad_setting_is_config_error(self, tmp_path, capsys, section,
                                         key, value):
        conf = tmp_path / "t.conf"
        conf.write_text(f"[{section}]\n{key} = {value}\n")
        rc, out = run(["sim", "--scenario", "walk_cycle", "--config",
                       str(conf)], tmp_path)
        assert rc == 2
        assert f"line 2: {section}.{key} must be finite and > 0" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_ik_settings_reach_the_sim(self, tmp_path, capsys):
        # [ik] tol_mm decides reach: a phase that ends 2 mm past the 255
        # mm reach runs under a 5 mm tolerance, and not under the default
        edge = ("[scenario:edge]\nhome = 200 0 0\n"
                "phase_1 = out flexible 50 57 0 0\n")
        loose, exact = tmp_path / "loose.conf", tmp_path / "exact.conf"
        loose.write_text("[ik]\ntol_mm = 5\n" + edge)
        exact.write_text(edge)
        rc, out = run(["sim", "--scenario", "edge", "--config", str(loose)],
                      tmp_path, "a")
        assert rc == 0
        assert len(load_demo_csv(out / "edge_demo.csv")) == 5
        capsys.readouterr()
        rc, _ = run(["sim", "--scenario", "edge", "--config", str(exact)],
                    tmp_path, "b")
        assert rc == 1
        assert "not reachable at sample 5: best residual 2 mm" \
            in capsys.readouterr().err

    def test_a_loose_ik_tolerance_does_not_make_the_claw_lag(self, tmp_path):
        # a claw tip is the scripted target plus its mode's offset
        conf = tmp_path / "ik.conf"
        conf.write_text("[ik]\ntol_mm = 5\n")
        _, exact = run(["sim", "--scenario", "walk_cycle"], tmp_path, "a")
        _, loose = run(["sim", "--scenario", "walk_cycle", "--config",
                        str(conf)], tmp_path, "b")
        assert (loose / "walk_cycle_demo.csv").read_bytes() \
            == (exact / "walk_cycle_demo.csv").read_bytes()

    @pytest.mark.parametrize("conf", [
        # the chart's 4% pad takes its y span past the float range
        "[mesh]\nrest_height_mm = 1.7e308\n[scenario:x]\nhome = 120 0 -60\n"
        "phase_1 = a flexible 100 0 0 0\n",
        # one tick, at a time where adding a unit rounds away
        "[sim]\ndt_ms = 1e20\n[scenario:x]\nhome = 120 0 -60\n"
        "phase_1 = a flexible 1e20 0 0 0\n"],
        ids=["rest_height_near_the_float_range", "one_tick_past_2_53"])
    def test_heights_chart_near_the_float_range_is_finite(self, tmp_path,
                                                          capsys, conf):
        path = tmp_path / "t.conf"
        path.write_text(conf)
        rc, out = run(["sim", "--scenario", "x", "--format", "both",
                       "--config", str(path)], tmp_path)
        assert rc == 0
        assert capsys.readouterr().err == ""
        svg = (out / "x_heights.svg").read_text()
        assert "nan" not in svg and "inf" not in svg

    def test_empty_scenario_header_only(self, tmp_path):
        conf = tmp_path / "t.conf"
        conf.write_text("[scenario:noop]\nhome = 120 0 -60\n")
        rc = main(["sim", "--scenario", "noop", "--config", str(conf),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        text = (tmp_path / "out" / "noop_demo.csv").read_text()
        assert text.strip() == ("t_ms,claw_z_mm,mesh_z_mm,mode,attachment,"
                                "event,vertical_N,horizontal_N")

    @pytest.mark.parametrize("phases, key", [
        ("phase_1 = down flexible 100 0 0 -10\n"
         "phase_3 = up flexible 100 0 0 0\n", "phase_3"),
        ("phase_0 = down flexible 100 0 0 -10\n", "phase_0")],
        ids=["gap", "phase_0"])
    def test_phase_after_a_gap_is_config_error(self, tmp_path, capsys,
                                               phases, key):
        conf = tmp_path / "t.conf"
        conf.write_text(f"[scenario:gap]\n{phases}")
        rc = main(["sim", "--scenario", "gap", "--config", str(conf),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"gap.{key}: phases are numbered" in capsys.readouterr().err
        assert not (tmp_path / "out" / "gap_demo.csv").exists()

    @pytest.mark.parametrize("name", ["../../esc", "a&b<c"])
    def test_scenario_name_that_is_no_file_name_is_config_error(
            self, tmp_path, capsys, name):
        # "../../esc" would write esc_demo.csv two directories above --out,
        # "a&b<c" an SVG that is not well-formed XML
        conf = tmp_path / "t.conf"
        conf.write_text(f"[scenario:{name}]\nhome = 120 0 -60\n")
        rc = main(["sim", "--scenario", name, "--config", str(conf),
                   "--format", "both", "--out", str(tmp_path / "o2" / "deep")])
        assert rc == 2
        assert "scenario name" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")
                if p.is_file()] == ["t.conf"]

    def test_expected_failures_exit_zero(self, tmp_path):
        # drag sideways while hooked with a tiny hooking limit
        conf = tmp_path / "t.conf"
        conf.write_text(
            "[limits]\nhooking_max_n = 0.2\n"
            "[scenario:drag]\nexpect_failures = true\n"
            "phase_1 = down flexible 100 0 0 -40\n"
            "phase_2 = grip rigid 100 0 0 -40\n"
            "phase_3 = drag rigid 200 0 30 -40\n")
        rc = main(["sim", "--scenario", "drag", "--config", str(conf),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        _, events = read_table(tmp_path / "out" / "drag_events.csv")
        assert any(r[1] == "ClawFailure" for r in events)

    def test_unexpected_failures_exit_one(self, tmp_path):
        conf = tmp_path / "t.conf"
        conf.write_text(
            "[limits]\nhooking_max_n = 0.2\n"
            "[scenario:drag]\nexpect_failures = false\n"
            "phase_1 = down flexible 100 0 0 -40\n"
            "phase_2 = grip rigid 100 0 0 -40\n"
            "phase_3 = drag rigid 200 0 30 -40\n")
        rc = main(["sim", "--scenario", "drag", "--config", str(conf),
                   "--out", str(tmp_path / "out")])
        assert rc == 1


def make_recording(path, period_ms, n=500, amp_deg=40.0):
    phase = 2 * np.pi * (np.arange(n) * 10.0) / period_ms
    height = 6.0 + 8.0 * 0.5 * (1.0 - np.cos(phase))
    bend = np.radians(amp_deg) * 0.5 * (1.0 - np.cos(phase))
    m3 = np.array([0.0, 0.0, 20.0])
    m2 = np.array([10.0, 0.0, 8.0])
    m1 = m2 + 6.0 * np.column_stack(
        [np.cos(-bend), np.zeros(n), np.sin(-bend)])
    off = np.zeros((n, 3))
    off[:, 2] = height - m1[:, 2]
    markers = np.full((n, len(LABELS), 3), np.nan)
    for label, p in (("B1", [0, 0, 30.0]), ("B2", [5, 0, 30.0]),
                     ("B3", [0, 5, 30.0]), ("R3", m3 + off),
                     ("R2", m2 + off), ("R1", m1 + off)):
        markers[:, LABELS.index(label)] = p
    save_recording(path, TrialRecording(markers))


TARSOMERES_2_TO_5 = "".join(f"[tarsomere_{i}]\nradius_mm = 2\n"
                            for i in range(2, 6))
LEG_JOINTS_2_TO_4 = "".join(f"[leg_{name}]\na_mm = 30\n"
                            for name in ("trochanter", "femur", "tibia"))
ZERO_FEMUR = "".join(f"[leg_{name}]\na_mm = {0 if name == 'femur' else 30}\n"
                     for name in ("coxa", "trochanter", "femur", "tibia"))
CHAIN_PULL = ["chain", "--pull", "3"]
SIM_WALK = ["sim", "--scenario", "walk_cycle"]
SIM_HOP = ["sim", "--scenario", "hop"]
GAIT_INPUT = ["gait", "--input", "trial.csv"]


class TestConfigValues:
    """Config numbers that are not finite or out of range: each is a
    config error naming its line or section, exit 2, nothing written."""

    @pytest.mark.parametrize("text, command, message", [
        ("[chain]\nk_spring_n_per_mm = nan\n", CHAIN_PULL,
         "line 2: chain.k_spring_n_per_mm must be finite, got nan"),
        ("[mesh]\nnode_stiffness_n_per_mm = nan\n", SIM_WALK,
         "line 2: mesh.node_stiffness_n_per_mm must be finite"),
        ("[tarsomere_1]\nradius_mm = nan\n" + TARSOMERES_2_TO_5,
         CHAIN_PULL, "line 2: tarsomere_1.radius_mm must be finite"),
        ("[mesh]\nspacing_mm = nan\n", SIM_WALK,
         "line 2: mesh.spacing_mm must be finite"),
        ("[claw]\nlength_mm = nan\n", SIM_WALK,
         "line 2: claw.length_mm must be finite and > 0"),
        ("[mesh]\ncells_x = 0\n", SIM_WALK,
         "[mesh] mesh needs at least one cell"),
        ("[chain]\nk_flex_n_per_mm = 1\n", CHAIN_PULL,
         "[chain] rigid slope must exceed flexible slope"),
        ("[leg_coxa]\na_mm = -1\n" + LEG_JOINTS_2_TO_4,
         ["leg", "--fk", "0,0,0,0"], "[leg_coxa] link length a must be"),
        ("[leg_coxa]\nmin_deg = 10\nmax_deg = 5\n" + LEG_JOINTS_2_TO_4,
         ["leg", "--fk", "0,0,0,0"],
         "[leg_coxa] min_deg must be < max_deg, got 10.0 and 5.0"),
        (ZERO_FEMUR,
         ["leg", "--fk", "0,0,0,0"],
         "[leg_coxa..tibia] femur link length a must be > 0, got 0.0"),
        ("[leg_coxa]\nmin_deg = -200\nmax_deg = 200\n" + LEG_JOINTS_2_TO_4,
         ["leg", "--fk", "0,0,0,0"],
         "[leg_coxa..tibia] coxa joint limits must be min < max <= min + "
         "2 pi (one turn)"),
        ("[tarsomere_1]\nradius_mm = -1\n" + TARSOMERES_2_TO_5,
         CHAIN_PULL, "[tarsomere_1] radius must be > 0"),
        ("[retarget]\nscale = nan\n", ["leg", "--retarget", "beetle.csv"],
         "line 2: retarget.scale must be finite and > 0"),
        ("[claw]\nlength_mm = -8\n", SIM_WALK,
         "line 2: claw.length_mm must be finite and > 0"),
        ("[scenario:hop]\nhome = 120 nan -60\n", SIM_HOP,
         "line 2: scenario:hop.home"),
        ("[scenario:hop]\nphase_1 = down flexible nan 0 0 -40\n", SIM_HOP,
         "line 2: scenario:hop.phase_1: duration and offsets must be"),
        ("[scenario:hop]\nphase_1 = down flexible 100 0 inf -40\n",
         SIM_HOP, "line 2: scenario:hop.phase_1: duration and offsets"),
        ("[analytics]\nrate_fps = 0\n", GAIT_INPUT,
         "line 2: analytics.rate_fps must be finite and > 0, got 0.0"),
        ("[analytics]\nhysteresis_frac = -5\n", GAIT_INPUT,
         "line 2: analytics.hysteresis_frac must be finite, >= 0 and < 1, "
         "got -5.0"),
        ("[analytics]\n\nhysteresis_frac = 1\n", GAIT_INPUT,
         "line 3: analytics.hysteresis_frac must be finite, >= 0 and < 1"),
        ("[analytics]\nmin_separation_ms = -1\n", GAIT_INPUT,
         "line 2: analytics.min_separation_ms must be finite and >= 0"),
    ], ids=["k_spring-nan", "node_stiffness-nan", "tarsomere_radius-nan",
            "spacing-nan", "claw_length-nan", "cells_x-0", "k_flex-1",
            "leg_a-neg", "leg_limits-order", "leg_femur_a-0",
            "leg_limits-over-a-turn",
            "tarsomere_radius-neg",
            "retarget_scale-nan", "claw_length-neg", "home-nan",
            "phase_duration-nan", "phase_offset-inf", "rate_fps-0",
            "hysteresis_frac-neg", "hysteresis_frac-1",
            "min_separation-neg"])
    def test_bad_value_is_config_error(self, tmp_path, capsys, text,
                                       command, message):
        save_trajectory(tmp_path / "beetle.csv",
                        Trajectory([0.0, 10.0], np.ones((2, 3))))
        make_recording(tmp_path / "trial.csv", 440.0, n=200)
        conf = tmp_path / "bad.conf"
        conf.write_text(text)
        command = [str(tmp_path / a) if a.endswith(".csv") else a
                   for a in command]
        rc, out = run([*command, "--config", str(conf)], tmp_path)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestGaitCommand:
    def test_summary_stats_bypass(self, tmp_path, capsys):
        rc, out = run([
            "gait", "--summary-stats",
            "--pair", "angle,55.7,4.4,5,27.7,5.4,5,9.04E-06",
            "--pair", "cycle,446.1,50.5,5,406.6,67.8,5,0.1631",
        ], tmp_path)
        assert rc == 0
        header, rows = read_table(out / "report.csv")
        assert rows[0][7] == "8"  # df
        p_one = float(rows[0][9])
        assert p_one == pytest.approx(9.354e-06, rel=1e-3)
        assert (out / "report.txt").exists()

    def test_recording_metrics_and_report(self, tmp_path):
        a1, a2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        b1, b2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        make_recording(a1, 440.0)
        make_recording(a2, 450.0)
        make_recording(b1, 400.0)
        make_recording(b2, 410.0)
        rc, out = run([
            "gait",
            "--input", str(a1), "--condition", "mesh",
            "--input", str(a2), "--condition", "mesh",
            "--input", str(b1), "--condition", "plate",
            "--input", str(b2), "--condition", "plate",
        ], tmp_path)
        assert rc == 0
        _, rows = read_table(out / "metrics.csv")
        assert len(rows) == 4
        mesh_rows = [r for r in rows if r[1] == "mesh"]
        assert all(abs(float(r[4]) - 445.0) < 20.0 for r in mesh_rows)
        header, report = read_table(out / "report.csv")
        assert len(report) == 2  # cycle time + amplitude comparisons

    def test_trial_without_amplitude_is_left_out_of_that_row(
            self, tmp_path, capsys):
        # one plate trial has no R2 marker, so no bend angle and no
        # amplitude: the amplitude row has one plate trial and is dropped
        paths = [tmp_path / f"{name}.csv" for name in ("m1", "m2", "p1", "p2")]
        for path, period in zip(paths, (440.0, 450.0, 400.0, 410.0)):
            make_recording(path, period)
        _, rows = read_table(paths[3])
        paths[3].write_text("t_ms,label,x_mm,y_mm,z_mm\n" + "".join(
            ",".join(r) + "\n" for r in rows if r[1] != "R2"))
        args = ["gait"]
        for path, condition in zip(paths, ("mesh", "mesh", "plate", "plate")):
            args += ["--input", str(path), "--condition", condition]
        rc, out = run(args, tmp_path)
        err = capsys.readouterr().err
        assert rc == 0
        assert "bend_amplitude_deg:mesh_vs_plate" in err
        assert "Traceback" not in err
        _, metrics = read_table(out / "metrics.csv")
        assert metrics[3][5] == ""
        _, report = read_table(out / "report.csv")
        assert [r[0] for r in report] == ["cycle_time_ms:mesh_vs_plate"]

    def test_single_frame_no_cycles_warning(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("t_ms,label,x_mm,y_mm,z_mm\n"
                     "0.0,B1,0,0,30\n0.0,B2,5,0,30\n0.0,B3,0,5,30\n"
                     "0.0,R1,1,0,0\n0.0,R2,2,0,5\n0.0,R3,3,0,12\n")
        rc, out = run(["gait", "--input", str(p)], tmp_path)
        assert rc == 0
        assert "no cycles" in capsys.readouterr().err
        _, rows = read_table(out / "metrics.csv")
        assert rows[0][3] == "0"

    def test_commas_in_input_and_condition_stay_in_their_cells(self,
                                                               tmp_path):
        p = tmp_path / "trial,a.csv"
        make_recording(p, 440.0, n=200)
        rc, out = run(["gait", "--input", str(p), "--condition", "mesh,wet"],
                      tmp_path)
        assert rc == 0
        header, rows = read_table(out / "metrics.csv")
        assert len(header) == 6
        assert [r[:3] for r in rows] == [[str(p), "mesh,wet", "right"]]

    @pytest.mark.parametrize("pair, message", [
        ("x,nan,1.0,5,2.0,1.0,5", "mean must be finite, got nan"),
        ("x,1.0,1.0,5,-inf,1.0,5", "mean must be finite, got -inf"),
        ("x,1.0,inf,5,2.0,1.0,5", "sd must be finite, got inf"),
        ("x,1.0,1.0,5,2.0,nan,5", "sd must be finite, got nan"),
        ("x,1.0,1.0,5,2.0,1.0,5,0", "published p must lie in (0, 1], got 0.0"),
        ("x,1.0,1.0,5,2.0,1.0,5,-0.3",
         "published p must lie in (0, 1], got -0.3"),
        ("x,1.0,1.0,5,2.0,1.0,5,1.5",
         "published p must lie in (0, 1], got 1.5"),
        ("x,1.0,1.0,5,2.0,1.0,5,nan",
         "published p must lie in (0, 1], got nan"),
        # summaries past the float range: the t-test refuses them
        ("a,1e308,1,5,-1e308,1,5", "mean difference and pooled variance "
         "must be finite, got inf and 1.0"),
        ("a,1,1e308,5,2,1e308,5", "mean difference and pooled variance "
         "must be finite, got -1.0 and inf"),
        # the difference is finite, the rounding box's far corner is not
        ("a,1e308,1,5,-7e307,1,5", "mean difference over the rounding box "
         "must be finite, got inf")],
        ids=["nan_mean", "inf_mean", "inf_sd", "nan_sd", "p_zero",
             "p_negative", "p_above_one", "p_nan", "overflowing_difference",
             "overflowing_variance", "overflowing_rounding_box"])
    def test_pair_value_out_of_domain_is_error(self, tmp_path, capsys, pair,
                                               message):
        rc, out = run(["gait", "--summary-stats", "--pair", pair], tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: --pair {pair!r}: {message}\n"
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("pair, half_a, half_b", [
        ("x,55.7,4.4,5,27.7,5.4,5", 0.05, 0.05),
        ("x,55.72,4.41,5,27.71,5.43,5", 0.005, 0.005),
        ("x,56,4,5,28,5,5", 0.5, 0.5),
        ("x,446.8,50.5,25,443.36,48.4,25", 0.05, 0.05),
        ("x,55.7,4.4,5,27.71,5.43,5", 0.05, 0.005)],
        ids=["one_decimal", "two_decimals", "integers", "mixed_in_a_group",
             "mixed_across_groups"])
    def test_pair_half_step_is_the_coarser_printed_digit(
            self, tmp_path, pair, half_a, half_b):
        rc, out = run(["gait", "--summary-stats", "--pair", pair], tmp_path)
        assert rc == 0
        cells = [c.strip() for c in pair.split(",")]
        a, b = (GroupStats(float(m), float(s), int(n), half)
                for (m, s, n), half in ((cells[1:4], half_a),
                                        (cells[4:7], half_b)))
        expected, = comparison_report([ConditionPair("x", a, b)])
        _, rows = read_table(out / "report.csv")
        row = dict(zip(REPORT_COLUMNS, rows[0]))
        assert float(row["p_span_lo"]) == expected["p_span_lo"]
        assert float(row["p_span_hi"]) == expected["p_span_hi"]
        assert row["p_span_lo"] != row["p_span_hi"]

    def test_published_rows_are_not_flagged(self, tmp_path):
        rc, out = run([
            "gait", "--summary-stats",
            "--pair", "angle,55.7,4.4,5,27.7,5.4,5,9.04E-06",
            "--pair", "cycle,446.1,50.5,5,406.6,67.8,5,0.1631",
            "--pair", "membrane,55.9,2.3,3,25.5,1.6,3,2.42E-05",
            "--pair", "tubed,446.1,50.5,5,1594.4,142.5,5,7.33E-08",
        ], tmp_path)
        assert rc == 0
        header, rows = read_table(out / "report.csv")
        assert header == list(REPORT_COLUMNS)
        assert len(rows) == 4
        for row in (dict(zip(header, r)) for r in rows):
            assert row["flag"] == ""
            assert (float(row["p_span_lo"])
                    <= float(row["published_p_one_tail"])
                    <= float(row["p_span_hi"]))

    def test_pair_published_p_of_one_is_taken(self, tmp_path):
        rc, out = run(["gait", "--summary-stats", "--pair",
                       "x,1.0,1.0,5,2.0,1.0,5,1"], tmp_path)
        assert rc == 0
        _, rows = read_table(out / "report.csv")
        assert float(rows[0][11]) == 1.0

    def test_pair_without_flag_is_error(self, tmp_path):
        rc, _ = run(["gait", "--summary-stats"], tmp_path)
        assert rc == 1

    def test_garbled_input_domain_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,label,x_mm,y_mm,z_mm\n0.0,R1,a,b,c\n")
        rc, _ = run(["gait", "--input", str(p)], tmp_path)
        assert rc == 1

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_unreadable_input_is_domain_error(self, tmp_path, capsys, name):
        p = tmp_path / name
        rc, out = run(["gait", "--input", str(p)], tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: [Errno ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_cell_past_the_csv_field_limit_is_domain_error(self, tmp_path,
                                                           capsys):
        p = tmp_path / "huge.csv"
        p.write_text("t_ms,label,x_mm,y_mm,z_mm\n0.0,"
                     + "R" * csv.field_size_limit() + "1,1.0,2.0,3.0\n")
        rc, out = run(["gait", "--input", str(p)], tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: row 2: field larger than field "
                              "limit")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name, line, message", [
        ("huge.csv", b"10.0," + b"R" * 140000 + b",1.0,2.0,3.0\n",
         f"field larger than field limit ({csv.field_size_limit()})"),
        ("bad_utf8.csv", b"10.0,R\xff,1.0,2.0,3.0\n",
         "not UTF-8 text (byte 0xff)"),
    ], ids=["field limit", "0xff"])
    def test_bad_third_line_names_its_row(self, tmp_path, capsys, name, line,
                                          message):
        p = tmp_path / name
        p.write_bytes(b"t_ms,label,x_mm,y_mm,z_mm\n0.0,B1,1.0,2.0,3.0\n"
                      + line)
        rc, out = run(["gait", "--input", str(p)], tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {p}: row 3: {message}\n"
        assert not out.exists()


class TestConfigAndManifest:
    def test_manifest_written(self, tmp_path):
        rc, out = run(["chain", "--pull", "1.0"], tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"][0] == "tarsim"
        assert manifest["tool_version"]
        assert "config_hash" in manifest
        assert any(p.endswith("chain_state.csv") for p in manifest["outputs"])

    def test_config_applies(self, tmp_path, capsys):
        conf = tmp_path / "t.conf"
        conf.write_text("[chain]\nk_spring_n_per_mm = 1.0\n")
        rc = main(["chain", "--pull", "5.5", "--config", str(conf),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "5.5000 N" in capsys.readouterr().out

    def test_missing_config_exit_2(self, tmp_path, capsys):
        rc = main(["chain", "--pull", "1", "--config",
                   str(tmp_path / "absent.conf"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(tmp_path / "absent.conf") in err

    def test_unknown_key_names_the_keys_of_its_section(self, tmp_path,
                                                       capsys):
        conf = tmp_path / "typo.conf"
        conf.write_text("[sim]\ndt = 5\n")
        rc, out = run(["sim", "--scenario", "walk_cycle", "--config",
                       str(conf)], tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: line 2: unknown key 'dt' in [sim]; valid keys: "
            "dt_ms, penetration_mm\n")
        assert not out.exists()

    @pytest.mark.parametrize("route", ["--config", "TARSIM_CONFIG"])
    @pytest.mark.parametrize("cause", ["directory", "not utf-8"])
    def test_unreadable_config_exit_2(self, tmp_path, monkeypatch, capsys,
                                      route, cause):
        conf = tmp_path / "t.conf"
        if cause == "directory":
            conf.mkdir()
        else:
            conf.write_bytes(b"[sim]\n# \xff\xfe\n")
        args = ["sim", "--scenario", "walk_cycle"]
        if route == "--config":
            args += ["--config", str(conf)]
        else:
            monkeypatch.setenv(route, str(conf))
        rc, out = run(args, tmp_path)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ")
        assert str(conf) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_through_a_file_exit_2(self, tmp_path, capsys, sub):
        # --out names a regular file, or a directory under one
        blocker = tmp_path / "out"
        blocker.write_text("keep\n")
        rc, _ = run(["chain", "--pull", "1"], tmp_path,
                    out=f"out/{sub}" if sub else "out")
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{blocker} is not a directory" in err
        assert "Traceback" not in err
        assert blocker.read_text() == "keep\n"

    def test_bad_config_line_number(self, tmp_path, capsys):
        conf = tmp_path / "t.conf"
        conf.write_text("[chain]\nbogus_key = 1\n")
        rc = main(["chain", "--pull", "1", "--config", str(conf),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_config_in_the_working_directory_names_it_in_errors(
            self, tmp_path, monkeypatch, capsys):
        (tmp_path / "tarsim.conf").write_text("[chain]\nbogus = 1\n")
        monkeypatch.delenv("TARSIM_CONFIG", raising=False)
        monkeypatch.chdir(tmp_path)
        rc, out = run(["chain", "--pull", "1"], tmp_path)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ./tarsim.conf: line 2: ")
        assert not out.exists()

    def test_env_var_config(self, tmp_path, monkeypatch, capsys):
        conf = tmp_path / "env.conf"
        conf.write_text("[chain]\nk_spring_n_per_mm = 1.0\n")
        monkeypatch.setenv("TARSIM_CONFIG", str(conf))
        rc = main(["chain", "--pull", "5.5", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "5.5000 N" in capsys.readouterr().out

    def test_env_var_naming_a_missing_file_exit_2(self, tmp_path,
                                                  monkeypatch, capsys):
        conf = tmp_path / "absent.conf"
        monkeypatch.setenv("TARSIM_CONFIG", str(conf))
        rc, out = run(["chain", "--pull", "1"], tmp_path)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ")
        assert "$TARSIM_CONFIG" in err and str(conf) in err
        assert not out.exists()

    def test_config_in_the_working_directory_is_read(self, tmp_path,
                                                     monkeypatch, capsys):
        (tmp_path / "tarsim.conf").write_text(
            "[chain]\nk_spring_n_per_mm = 1.0\n")
        monkeypatch.delenv("TARSIM_CONFIG", raising=False)
        monkeypatch.chdir(tmp_path)
        rc, out = run(["chain", "--pull", "5.5"], tmp_path)
        assert rc == 0
        assert "5.5000 N" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_file"] == "tarsim.conf"

    def test_usage_error_exit_2(self, tmp_path, capsys):
        assert main(["chain", "--no-such-flag"]) == 2

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        rc, out = run(["chain", "--pull", "1", "--seed", "5"], tmp_path)
        assert rc == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
        run(["chain", "--pull", "1"], tmp_path)
        assert "seed" not in json.loads((out / "manifest.json").read_text())

    def test_determinism(self, tmp_path):
        _, out1 = run(["chain", "--sweep", "0:5.5:0.5"], tmp_path, out="o1")
        _, out2 = run(["chain", "--sweep", "0:5.5:0.5"], tmp_path, out="o2")
        assert (out1 / "bend_vs_pull.csv").read_text() == \
            (out2 / "bend_vs_pull.csv").read_text()


def _format_inputs(tmp_path):
    """The input files the format-policy cases name."""
    t = np.arange(0.0, 200.0, 10.0)
    w = 2 * math.pi * t / 200.0
    save_trajectory(tmp_path / "traj.csv", Trajectory(t, np.column_stack(
        [15.0 + 0.5 * np.cos(w), 0.05 * np.sin(w), -7.5 + 0.5 * np.sin(w)])))
    for name, period in (("m1", 440.0), ("m2", 450.0), ("p1", 400.0),
                         ("p2", 410.0)):
        make_recording(tmp_path / f"{name}.csv", period)


GAIT_RECORDINGS = ["gait", "--input", "m1.csv", "--condition", "mesh",
                   "--input", "m2.csv", "--condition", "mesh",
                   "--input", "p1.csv", "--condition", "plate",
                   "--input", "p2.csv", "--condition", "plate"]
# argv, then the CSV tables, the SVG charts and the other files it writes
FORMAT_CASES = {
    "chain-pull": (["chain", "--pull", "1"], {"chain_state.csv"}, set(),
                   set()),
    "chain-sweep": (["chain", "--sweep", "0:5:1"], {"bend_vs_pull.csv"},
                    {"bend_vs_pull.svg"}, set()),
    "chain-stiffness": (["chain", "--stiffness"], {"stiffness_rigid.csv",
                        "stiffness_flexible.csv"}, {"stiffness.svg"}, set()),
    "leg-fk": (["leg", "--fk", "0,0,0,0"], {"leg_fk.csv"}, set(), set()),
    "leg-ik": (["leg", "--ik=150,0,-50"], {"leg_ik.csv"}, set(), set()),
    "leg-retarget": (["leg", "--retarget", "traj.csv", "--to-joints",
                      "--origin", "0,0,0"],
                     {"retargeted.csv", "joints.csv"}, set(), set()),
    "sim": (["sim", "--scenario", "walk_cycle"],
            {"walk_cycle_demo.csv", "walk_cycle_events.csv"},
            {"walk_cycle_heights.svg"}, set()),
    "gait-input": (GAIT_RECORDINGS, {"metrics.csv", "report.csv"}, set(),
                   {"report.txt"}),
    "gait-summary-stats": (["gait", "--summary-stats", "--pair",
                            "angle,55.7,4.4,5,27.7,5.4,5,9.04E-06"],
                           {"report.csv"}, set(), {"report.txt"}),
}


class TestFormatPolicy:
    """--format selects every CSV table and every SVG chart; any other
    file is always written, and manifest.json whenever some output is."""

    @pytest.mark.parametrize("fmt", ["csv", "svg", "both"])
    @pytest.mark.parametrize("case", FORMAT_CASES)
    def test_files_written(self, tmp_path, monkeypatch, fmt, case):
        argv, tables, charts, always = FORMAT_CASES[case]
        _format_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        rc, out = run([*argv, "--format", fmt], tmp_path)
        assert rc == 0
        expected = set(always)
        if fmt in ("csv", "both"):
            expected |= tables
        if fmt in ("svg", "both"):
            expected |= charts
        if expected:
            expected.add("manifest.json")
        written = {p.name for p in out.iterdir()} if out.exists() else set()
        assert written == expected


class TestParserReuse:
    """main builds its parser once per process and reuses it."""

    def test_reused_parser_carries_no_state(self, tmp_path, monkeypatch,
                                            capsys):
        seen = []
        for name in ("cmd_chain", "cmd_leg", "cmd_gait"):
            def spy(args, ctx, command=getattr(cli, name)):
                seen.append(args)
                return command(args, ctx)
            monkeypatch.setattr(cli, name, spy)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        make_recording(a, 440.0, n=200)
        make_recording(b, 450.0, n=200)
        out = {name: str(tmp_path / name)
               for name in ("two", "one", "fk", "ik", "both", "csv")}
        steps = [
            (["gait", "--input", str(a), "--input", str(b),
              "--out", out["two"]], 0),
            (["gait", "--input", str(a), "--out", out["one"]], 0),
            (["leg", "--fk", "0,0,0,0", "--out", out["fk"]], 0),
            (["chain", "--no-such-flag"], 2),
            (["leg", "--ik=150,0,-50", "--out", out["ik"]], 0),
            (["--help"], 0),
            (["chain", "--sweep", "0:5:1", "--format", "both",
              "--out", out["both"]], 0),
            (["chain", "--sweep", "0:5:1", "--out", out["csv"]], 0),
        ]
        fresh = []
        for argv, code in steps:
            assert main(argv) == code, argv
            if code == 0 and argv != ["--help"]:
                fresh.append(build_parser().parse_args(argv))
        assert seen == fresh
        _, rows = read_table(tmp_path / "one" / "metrics.csv")
        assert len(rows) == 1
        assert sorted(p.name for p in (tmp_path / "ik").iterdir()) == \
            ["leg_ik.csv", "manifest.json"]
        assert (tmp_path / "both" / "bend_vs_pull.svg").exists()
        assert sorted(p.name for p in (tmp_path / "csv").iterdir()) == \
            ["bend_vs_pull.csv", "manifest.json"]
        assert "usage: tarsim" in capsys.readouterr().out

    def test_dispatch_runs_a_command_patched_after_the_first_call(
            self, tmp_path, monkeypatch):
        rc, _ = run(["leg", "--ik=150,0,-50"], tmp_path)
        assert rc == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_leg",
                            lambda args, ctx: calls.append(args.ik) or 7)
        rc, out = run(["leg", "--ik=150,0,-50"], tmp_path, out="patched")
        assert rc == 7
        assert calls == ["150,0,-50"]
        assert not out.exists()

    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(1) or build())
        assert main(["chain", "--no-such-flag"]) == 2
        assert main(["--help"]) == 0
        assert run(["chain", "--pull", "1"], tmp_path)[0] == 0
        assert run(["leg", "--ik=150,0,-50"], tmp_path, out="o2")[0] == 0
        assert builds == [1]

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counted(self, *args, **kwargs):\n"
                "    built.append(1)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counted\n"
                "import tarsim.cli\n"
                "print(len(built), tarsim.cli._parser)\n")
        # the subprocess does not get pytest's pythonpath setting
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 None\n"

class TestConfigGeometryIntegration:
    def test_custom_tarsomere_set_drives_chain_command(self, tmp_path, capsys):
        text = "".join(
            f"[tarsomere_{i}]\nradius_mm = {3.0 + i}\n"
            f"anchor_long_mm = 5.0\nanchor_trans_mm = 0.4\n"
            f"max_bend_deg = {8.0 + i}\naxial_cap_mm = 0.5\n"
            f"length_mm = 14.0\n" for i in range(1, 6))
        conf = tmp_path / "custom.conf"
        conf.write_text(text)

        from tarsim.config import load_config
        from tarsim.chain import full_bend_pull
        chain = load_config(conf).build_chain()
        expect_pull = full_bend_pull(chain)
        expect_bend = sum(8.0 + i for i in range(1, 6))

        rc = main(["chain", "--pull", repr(expect_pull), "--config",
                   str(conf), "--out", str(tmp_path / "out")])
        assert rc == 0
        _, rows = read_table(tmp_path / "out" / "chain_state.csv")
        total = rows[-1]
        assert float(total[1]) == pytest.approx(expect_bend, abs=1e-6)
        assert float(total[4]) == pytest.approx(expect_pull, abs=1e-9)
