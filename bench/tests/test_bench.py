"""Tests of the benchmark itself: generator, checks, spans, normaliser.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from tarsim.cli import write_table

from tarbench import checks, gen, refkernel, runner, spans
from tarbench.gen import Generator, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]


def tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_byte_identical_for_one_seed(tmp_path, workload):
    n = 3 if workload == "gait" else 12
    made = []
    for run in ("a", "b"):
        g = Generator(7, tmp_path / run)
        made.append([g.command(workload, i) for i in range(n)])
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    for a, b in zip(*made):
        assert a.argv == b.argv and a.truth == b.truth and a.units == b.units
    other = Generator(8, tmp_path / "c")
    argv = [other.command(workload, i).argv for i in range(n)]
    assert (tree(tmp_path / "c"), argv) != \
        (tree(tmp_path / "a"), [c.argv for c in made[0]])


def test_command_inputs_do_not_depend_on_order(tmp_path):
    first = Generator(3, tmp_path / "a").command("leg_ik", 5)
    g = Generator(3, tmp_path / "b")
    g.command("leg_ik", 9)
    assert g.command("leg_ik", 5).argv == first.argv


def run_in(root: Path, cmd):
    cwd = os.getcwd()
    os.chdir(root)
    try:
        runner.execute(cmd)
    finally:
        os.chdir(cwd)


def test_sim_check_passes_then_catches_a_corrupted_events_csv(tmp_path):
    cmd = Generator(1, tmp_path).command("sim", 0)
    run_in(tmp_path, cmd)
    assert checks.check(cmd, tmp_path) == []
    events = tmp_path / cmd.out / "walk_cycle_events.csv"
    text = events.read_text()
    assert "Release" in text
    events.write_text(text.replace("Release", "Hook"))
    assert checks.check(cmd, tmp_path)
    events.write_text("\n".join(text.splitlines()[:-1]) + "\n")  # drop one
    assert checks.check(cmd, tmp_path)


def fake_gait_outputs(root: Path, cmd, shift_cycles=0):
    out = root / cmd.out
    out.mkdir(parents=True, exist_ok=True)
    rows = [[t["input"], t["condition"], "right", t["cycles"] + shift_cycles,
             t["period_ms"], 40.0] for t in cmd.truth["trials"]]
    write_table(out / "metrics.csv",
                ["input", "condition", "side", "n_cycles", "mean_cycle_ms",
                 "mean_amplitude_deg"], rows)
    write_table(out / "report.csv", ["label"], [["cycle"], ["amplitude"]])
    cmd.rc = 0


def test_gait_check_catches_an_off_by_one_cycle_count(tmp_path):
    cmd = Generator(2, tmp_path).command("gait", 0)
    fake_gait_outputs(tmp_path, cmd)
    assert checks.check(cmd, tmp_path) == []
    fake_gait_outputs(tmp_path, cmd, shift_cycles=1)
    assert any("cycles" in p for p in checks.check(cmd, tmp_path))
    fake_gait_outputs(tmp_path, cmd, shift_cycles=-1)
    assert checks.check(cmd, tmp_path)


def test_unreachable_target_is_an_expected_exit_1(tmp_path):
    g = Generator(4, tmp_path)
    cmd = g.command("leg_ik", gen.UNREACHABLE_EVERY // 2)
    assert cmd.truth["reachable"] is False
    run_in(tmp_path, cmd)
    assert cmd.rc == 1
    assert checks.check(cmd, tmp_path) == []
    cmd.rc = 0
    assert checks.check(cmd, tmp_path)


def test_self_time_of_a_hand_built_span_tree():
    #   0: [0, 10]            root
    #   1:   [1, 4]           child of 0
    #   2:     [2, 3]         child of 1
    #   3:   [5, 9]           child of 0
    #   4:     [6, 7], 5: [7, 8.5]  children of 3
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.5]
    parents = [-1, 0, 1, 0, 3, 3]
    got = spans.self_times(starts, ends, parents)
    assert got == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])


def test_self_time_clips_children_to_the_parent():
    got = spans.self_times([0.0, 1.0, 2.0], [4.0, 3.0, 6.0], [-1, 0, 0])
    assert got[0] == pytest.approx(1.0)  # [1, 4] covered


def snapshot():
    import tarsim  # noqa: F401  (loads every layer module)
    from tarsim.config import Config
    owners = [m for n, m in sorted(sys.modules.items())
              if n == "tarsim" or n.startswith("tarsim.")] + [Config]
    return {(getattr(o, "__name__", repr(o)), k): v
            for o in owners for k, v in list(vars(o).items())}


def test_wrapping_restores_every_patched_name():
    import tarsim.chain
    import tarsim.contact
    from tarsim.config import Config
    before = snapshot()
    rec = spans.SpanRecorder()
    patches = spans.instrument(rec)
    try:
        names = {(getattr(o, "__name__", ""), k) for o, k, _ in patches}
        # the by-name import in contact and the package re-export are
        # wrapped as well as the defining module's binding
        assert ("tarsim.contact", "solve_bend_from_pull") in names
        assert ("tarsim", "solve_bend_from_pull") in names
        assert ("tarsim.chain", "solve_bend_from_pull") in names
        assert ("Config", "build_chain") in names
        chain = Config.default().build_chain()
        tarsim.contact.solve_bend_from_pull(chain, 1.0)
        assert "chain.solve_bend_from_pull" in rec.names
        assert "chain.segment_pull" in rec.names
        assert "config.Config.build_chain" in rec.names
    finally:
        spans.restore(patches)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tarsim.contact.solve_bend_from_pull is tarsim.chain.solve_bend_from_pull


def test_normaliser_scales_by_the_adjacent_kernel_samples(monkeypatch):
    samples = iter([2.0, 4.0, 4.0])
    monkeypatch.setattr(refkernel, "kernel_sample", lambda: next(samples))

    class Rec:
        def __init__(self, wall_s):
            self.wall_s, self.norm_s = wall_s, math.nan

    norm = refkernel.Normaliser(nominal_s=1.0, cadence_s=1.0)
    a, b, c = Rec(3.0), Rec(6.0), Rec(8.0)
    norm.tick(0.0)
    norm.add(a)
    norm.tick(0.5)          # not due yet
    norm.add(b)
    norm.tick(1.5)          # due: second sample
    norm.add(c)
    norm.close()            # third sample closes the last window
    assert norm.samples == [2.0, 4.0, 4.0]
    assert (a.norm_s, b.norm_s, c.norm_s) == (1.0, 2.0, 2.0)


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--ref-nominal-ms", "1",
         "--workload", "sim", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_traced_metric_names_match_benchmark_json():
    import json
    from tarbench import layers
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics, _ = layers.per_layer(spans.SpanRecorder(), [])
    names = list(metrics) + ["trace.throughput_ratio"]
    assert names == [m["name"] for m in declared["per_layer"]]
    assert [metrics[n][1] for n in metrics] == \
        [m["unit"] for m in declared["per_layer"]][:len(metrics)]
