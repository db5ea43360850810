"""Leg-on-mesh attachment machine: hooking, coupling, release, events.

The tick-level tests run short scenarios through ``run_demo_cycle``: a
one-tick rigid phase that hooks, then one tick per move of the leg tip.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarsim import chain as chain_mod
from tarsim import contact
from tarsim import leg as leg_mod
from tarsim.chain import default_chain_geometry
from tarsim.contact import (DEMO_HEADER, ForceLimits, MeshGrid, Phase,
                            Scenario, builtin_scenario, claw_offset,
                            hook_check, load_demo_csv, run_demo_cycle,
                            save_demo_csv)
from tarsim.config import parse_config
from tarsim.leg import default_leg_model, forward_kinematics
from test_leg import OFFSET_LEG, count_calls, later_rounds, scalar_joints
from test_table import frozen_write_table

LEG = default_leg_model()
CHAIN = default_chain_geometry()
MESH = MeshGrid(spacing=25.0, node_stiffness=0.1, rest_height=-120.0,
                cells=(4, 4), origin=(100.0, -50.0))


@pytest.fixture
def mesh():
    return MESH


@pytest.fixture
def chain():
    return CHAIN


@pytest.fixture
def leg():
    return LEG


def hook_then(mesh, moves=(), depth_mm=1.0, cell=(1, 2), limits=None,
              allow_flexible=True):
    """Hook a cell at 10 ms, then take one 10 ms tick per (delta, mode).

    Each delta moves the leg-tip target from the hooking point.  Returns
    the samples and the final state.
    """
    dx, dz = claw_offset(CHAIN, "rigid")
    cx, cy = mesh.cell_center(cell)
    home = (cx - dx, cy, mesh.rest_height - depth_mm - dz)
    phases = [Phase("hook", 10.0, "rigid", (0.0, 0.0, 0.0))]
    phases += [Phase(f"move_{i}", 10.0, mode, tuple(map(float, delta)))
               for i, (delta, mode) in enumerate(moves)]
    script = Scenario("probe", home, phases, allow_flexible=allow_flexible)
    samples, final = run_demo_cycle(LEG, CHAIN, mesh, script, limits=limits)
    assert samples[0].attachment == f"hooked:{cell[0]}:{cell[1]}"
    return samples, final


def kinds(final):
    return [k for _, k in final.events]


class TestMeshGrid:
    def test_cell_lookup(self, mesh):
        assert mesh.cell_of(112.5, -37.5) == (0, 0)
        assert mesh.cell_of(187.5, 37.5) == (3, 3)
        assert mesh.cell_of(99.0, 0.0) is None   # outside
        assert mesh.cell_of(260.0, 0.0) is None

    def test_strand_is_not_a_cell(self, mesh):
        assert mesh.cell_of(125.0, -37.5) is None
        assert mesh.cell_of(112.5, -25.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshGrid(spacing=0.0)
        with pytest.raises(ValueError):
            MeshGrid(node_stiffness=-1.0)
        with pytest.raises(ValueError):
            MeshGrid(cells=(0, 4))


class TestHookCheck:
    def test_flexible_never_hooks(self, mesh):
        tip = [112.5, -37.5, mesh.rest_height - 5.0]
        assert hook_check(tip, "flexible", mesh) is None

    def test_rigid_engaged_below_inside_hooks(self, mesh):
        tip = [112.5, -37.5, mesh.rest_height - 1.0]
        assert hook_check(tip, "rigid", mesh) == (0, 0)

    def test_strand_boundary_resolves_free(self, mesh):
        tip = [125.0, -37.5, mesh.rest_height - 1.0]
        assert hook_check(tip, "rigid", mesh) is None

    def test_above_rest_free(self, mesh):
        tip = [112.5, -37.5, mesh.rest_height + 1.0]
        assert hook_check(tip, "rigid", mesh) is None

    def test_exactly_at_rest_free(self, mesh):
        tip = [112.5, -37.5, mesh.rest_height]
        assert hook_check(tip, "rigid", mesh) is None

    def test_hooks_only_strictly_past_the_tolerance(self, mesh):
        edge = mesh.rest_height - contact.HOOK_TOL_MM
        assert hook_check([112.5, -37.5, edge], "rigid", mesh) is None
        below = np.nextafter(edge, -np.inf)
        assert hook_check([112.5, -37.5, below], "rigid", mesh) == (0, 0)

    def test_exhaustive_predicate_space(self, mesh):
        # hook iff rigid (claws open) AND below AND inside a cell opening
        below = mesh.rest_height - 1.0
        above = mesh.rest_height + 1.0
        for mode, is_below, inside in itertools.product(
                ("rigid", "flexible"), (True, False), (True, False)):
            xy = (112.5, -37.5) if inside else (125.0, -37.5)
            tip = [xy[0], xy[1], below if is_below else above]
            expect = mode == "rigid" and is_below and inside
            assert hook_check(tip, mode, mesh) == ((0, 0) if expect else None)

    def test_unknown_mode_is_refused(self, chain, mesh):
        with pytest.raises(ValueError, match="mode must be one of"):
            hook_check([112.5, -37.5, mesh.rest_height - 1.0], "open", mesh)
        with pytest.raises(ValueError, match="mode must be one of"):
            claw_offset(chain, "open")


class TestStepMachine:
    def test_high_leg_stays_free(self, leg, chain, mesh):
        q = np.array([0.0, 0.5, -0.4, 0.2])  # tip far above the mesh
        home = tuple(forward_kinematics(leg, q).position)
        script = Scenario("high", home, [Phase(m, 10.0, m, (0.0, 0.0, 0.0))
                                         for m in ("rigid", "flexible",
                                                   "rigid")])
        samples, final = run_demo_cycle(leg, chain, mesh, script)
        assert samples[-1].attachment == "free"
        assert all(s.mesh_z == mesh.rest_height for s in samples)
        assert final.events == ()

    def test_hook_on_rigid_descent(self, mesh):
        _, final = hook_then(mesh)
        assert kinds(final) == ["Hook"]

    def test_coupling_tracks_tip(self, mesh):
        samples, _ = hook_then(mesh, [((0.0, 0.0, -3.0), "rigid")],
                               depth_mm=2.0)
        hook_z = samples[0].claw_z
        moved = samples[1]
        assert moved.mesh_z - mesh.rest_height == pytest.approx(
            moved.claw_z - hook_z, abs=1e-9)

    def test_release_needs_flexible_and_lift(self, mesh):
        # rigid lift: still hooked, mesh follows above rest
        rigid, _ = hook_then(mesh, [((0.0, 0.0, 30.0), "rigid")],
                             depth_mm=2.0)
        assert rigid[-1].attachment.startswith("hooked")
        assert rigid[-1].mesh_z > mesh.rest_height
        # flexible lift: released within one step, mesh back to rest
        flexible, final = hook_then(mesh, [((0.0, 0.0, 30.0), "flexible")],
                                    depth_mm=2.0)
        assert flexible[-1].attachment == "free"
        assert flexible[-1].mesh_z == mesh.rest_height
        assert final.events[-1][1] == "Release"

    def test_flexible_below_rest_stays_hooked(self, mesh):
        # deep engagement: even the straightened chain leaves the tip
        # below the strands, so the flexible switch alone cannot release
        samples, _ = hook_then(mesh, [((0.0, 0.0, 0.0), "flexible")],
                               depth_mm=45.0)
        assert samples[-1].claw_z < mesh.rest_height
        assert samples[-1].attachment.startswith("hooked")

    def test_saturation_event_at_threshold(self, mesh):
        limits = ForceLimits()
        cap_defl = limits.vertical_max / mesh.node_stiffness
        _, just_below = hook_then(
            mesh, [((0, 0, -(cap_defl - 0.01)), "rigid")], depth_mm=2.0)
        assert all(k != "Saturation" for k in kinds(just_below))
        beyond, final = hook_then(
            mesh, [((0, 0, -(cap_defl + 0.5)), "rigid")], depth_mm=2.0)
        assert any(k == "Saturation" for k in kinds(final))
        assert abs(beyond[-1].mesh_z - mesh.rest_height) == pytest.approx(
            cap_defl)
        assert beyond[-1].vertical == pytest.approx(limits.vertical_max)

    def test_claw_failure_releases(self, mesh):
        # low hooking limit so a small horizontal drag tears the claw out
        limits = ForceLimits(vertical_max=2.46, hooking_max=0.5)
        samples, final = hook_then(mesh, [((0.0, 6.0, 0.0), "rigid")],
                                   depth_mm=2.0, limits=limits)  # 0.6 N
        assert any(k == "ClawFailure" for k in kinds(final))
        assert samples[-1].attachment == "free"
        assert samples[-1].mesh_z == mesh.rest_height

    def test_below_hooking_limit_holds(self, mesh):
        limits = ForceLimits(vertical_max=2.46, hooking_max=0.5)
        samples, final = hook_then(mesh, [((0.0, 4.0, 0.0), "rigid")],
                                   depth_mm=2.0, limits=limits)  # 0.4 N
        assert samples[-1].attachment == "hooked:1:2"
        assert all(k != "ClawFailure" for k in kinds(final))

    def test_repeat_swing_only_when_blocked(self, mesh):
        samples, final = hook_then(mesh, [((0.0, 0.0, 30.0), "flexible")],
                                   depth_mm=2.0, allow_flexible=False)
        assert samples[-1].mode == "rigid"  # transition forbidden
        assert any(k == "RepeatSwing" for k in kinds(final))
        assert samples[-1].attachment == "hooked:1:2"

    def test_determinism(self, mesh):
        moves = [((0.0, 0.0, -3.0), "rigid")]
        a_samples, a = hook_then(mesh, moves, depth_mm=2.0)
        b_samples, b = hook_then(mesh, moves, depth_mm=2.0)
        assert a_samples == b_samples
        assert a.events == b.events

    def test_coupling_force_zero_when_free(self, leg, chain, mesh):
        q = np.array([0.0, 0.5, -0.4, 0.2])
        home = tuple(forward_kinematics(leg, q).position)
        script = Scenario("high", home, [Phase("hold", 10.0, "rigid",
                                               (0.0, 0.0, 0.0))])
        samples, _ = run_demo_cycle(leg, chain, mesh, script)
        assert [(s.vertical, s.horizontal) for s in samples] == [(0.0, 0.0)]

    def test_unit_deflection_unit_force(self):
        mesh1 = MeshGrid(spacing=25.0, node_stiffness=1.0, rest_height=-120.0,
                         cells=(4, 4), origin=(100.0, -50.0))
        samples, _ = hook_then(mesh1, [((0.0, 0.0, -1.0), "rigid")],
                               depth_mm=2.0)
        assert samples[-1].vertical == pytest.approx(1.0, abs=1e-6)


class TestDemoCycle:
    def test_walk_cycle_properties(self, leg, chain, mesh):
        sc = builtin_scenario("walk_cycle", chain, mesh)
        samples, final = run_demo_cycle(leg, chain, mesh, sc)
        kinds = [k for _, k in final.events]
        assert kinds == ["Hook", "Release"]
        hooked = [s for s in samples if s.attachment.startswith("hooked")]
        assert hooked
        offsets = {round(s.mesh_z - s.claw_z, 9) for s in hooked}
        assert len(offsets) == 1  # hard coupling: constant offset
        release_t = [t for t, k in final.events if k == "Release"][0]
        after = [s for s in samples if s.t_ms >= release_t]
        assert all(s.mesh_z == mesh.rest_height for s in after)
        assert all(s.mesh_z <= mesh.rest_height
                   for s in samples if s.attachment == "free")

    def test_tubed_emits_repeat_swing(self, leg, chain, mesh):
        sc = builtin_scenario("tubed", chain, mesh)
        _, final = run_demo_cycle(leg, chain, mesh, sc)
        kinds = [k for _, k in final.events]
        assert kinds.count("RepeatSwing") >= 1
        assert "Release" not in kinds

    def test_all_flexible_script_leaves_mesh_at_rest(self, leg, chain, mesh):
        sc = builtin_scenario("walk_cycle", chain, mesh)
        phases = tuple(Phase(p.name, p.duration_ms, "flexible", p.tip_offset)
                       for p in sc.phases)
        flex = Scenario("all_flexible", sc.home_tip, phases)
        samples, final = run_demo_cycle(leg, chain, mesh, flex)
        assert final.events == ()
        assert all(s.mesh_z == mesh.rest_height for s in samples)

    def test_empty_scenario(self, leg, chain, mesh):
        sc = Scenario("empty", (120.0, 0.0, -60.0), ())
        samples, final = run_demo_cycle(leg, chain, mesh, sc)
        assert samples == []
        assert final.events == ()

    # the four ways a run ends, with the attachment of its last sample
    # and its event log
    @pytest.mark.parametrize("end, attachment, events", [
        ("held", "hooked:1:2", ((180.0, "Hook"), (1060.0, "RepeatSwing"),
                                (1280.0, "Saturation"))),
        ("released", "free", ((210.0, "Hook"), (960.0, "Release"))),
        ("torn", "free", ((10.0, "Hook"), (20.0, "ClawFailure"))),
        ("no phases", None, ()),
    ])
    def test_the_end_state_is_the_last_sample(self, leg, chain, mesh, end,
                                              attachment, events):
        if end == "torn":
            samples, final = hook_then(
                mesh, [((0.0, 6.0, 0.0), "rigid")], depth_mm=2.0,
                limits=ForceLimits(vertical_max=2.46, hooking_max=0.5))
        else:
            script = {"held": builtin_scenario("tubed", chain, mesh),
                      "released": builtin_scenario("walk_cycle", chain, mesh),
                      "no phases": Scenario("empty", (120.0, 0.0, -60.0), ())
                      }[end]
            samples, final = run_demo_cycle(leg, chain, mesh, script)
        assert [f.name for f in dataclasses.fields(final)] \
            == ["t_ms", "events"]
        assert final.events == events
        if samples:
            assert samples[-1].attachment == attachment
            assert samples[-1].t_ms == final.t_ms
        else:
            assert (attachment, final.t_ms) == (None, 0.0)

    def test_unknown_builtin(self, chain, mesh):
        with pytest.raises(ValueError):
            builtin_scenario("nope", chain, mesh)

    def test_demo_csv_round_trip(self, leg, chain, mesh, tmp_path):
        sc = builtin_scenario("walk_cycle", chain, mesh)
        samples, _ = run_demo_cycle(leg, chain, mesh, sc)
        p = tmp_path / "demo.csv"
        save_demo_csv(p, samples)
        back = load_demo_csv(p)
        assert back == samples

    def test_sample_fields_follow_the_header(self):
        column = {"t_ms": "t_ms", "claw_z": "claw_z_mm",
                  "mesh_z": "mesh_z_mm", "mode": "mode",
                  "attachment": "attachment", "events": "event",
                  "vertical": "vertical_N", "horizontal": "horizontal_N"}
        assert tuple(map(column.get, contact.DemoSample._fields)) \
            == DEMO_HEADER

    @pytest.mark.parametrize("name, dt", [("walk_cycle", 5.0),
                                          ("walk_cycle", 10.0),
                                          ("tubed", 5.0), ("tubed", 10.0)])
    def test_demo_csv_bytes_match_per_attribute_rows(self, leg, chain, mesh,
                                                      tmp_path, name, dt):
        # the samples go to the writer as they are; the oracle is the
        # per-cell writer fed each row attribute by attribute
        sc = builtin_scenario(name, chain, mesh)
        samples, _ = run_demo_cycle(leg, chain, mesh, sc, dt_ms=dt)
        save_demo_csv(tmp_path / "new.csv", samples)
        frozen_write_table(tmp_path / "old.csv", DEMO_HEADER, [
            [s.t_ms, s.claw_z, s.mesh_z, s.mode, s.attachment, s.events,
             s.vertical, s.horizontal] for s in samples])
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("row, match", [
        ("20.0,1.0,2.0,rigid,free", "row 3: expected 8 fields, got 7"),
        ("20.0,1.0,high,rigid,free,", "row 3: not a finite number"),
    ])
    def test_demo_csv_bad_rows_named(self, tmp_path, row, match):
        # each row gets its two force cells
        p = tmp_path / "demo.csv"
        p.write_text(",".join(DEMO_HEADER) + "\n"
                     f"10.0,1.0,2.0,rigid,free,Hook,0.0,0.0\n{row},0.0,0.0\n")
        with pytest.raises(ValueError, match=match):
            load_demo_csv(p)


def leg_tip_targets(script, dt_ms):
    """The scripted leg-tip target of every tick, built independently."""
    home = np.asarray(script.home_tip, dtype=float)
    prev = np.zeros(3)
    out = []
    for phase in script.phases:
        goal = np.asarray(phase.tip_offset, dtype=float)
        n = max(1, round(phase.duration_ms / dt_ms))
        out += [home + prev + (k / n) * (goal - prev) for k in range(1, n + 1)]
        prev = goal
    return out


# claw-tip x from the leg tip: the bent chain with open claws when rigid,
# the straight chain with closed claws when flexible; z does not matter
CLAW_DX = {"rigid": claw_offset(CHAIN, "rigid")[0],
           "flexible": sum(CHAIN.segment_lengths)
           + contact.DEFAULT_CLAW_LENGTH_MM}
HOME = builtin_scenario("walk_cycle", CHAIN, MESH).home_tip

PHASE_LISTS = st.lists(
    st.builds(Phase, st.just("p"), st.integers(1, 8).map(lambda n: 10.0 * n),
              st.sampled_from(("rigid", "flexible")),
              st.tuples(st.floats(-15.0, 15.0), st.floats(-15.0, 15.0),
                        st.floats(-85.0, 5.0))),
    min_size=1, max_size=6)
LIMITS = st.builds(ForceLimits, st.floats(0.2, 3.0), st.floats(0.2, 30.0))
RUNS = st.tuples(PHASE_LISTS, st.booleans(), LIMITS)


def run_random(phases, allow_flexible, limits):
    script = Scenario("random", HOME, phases, allow_flexible=allow_flexible)
    samples, final = run_demo_cycle(LEG, CHAIN, MESH, script, limits=limits)
    return script, samples, final


class TestScan:
    @settings(max_examples=60, deadline=None)
    @given(run=RUNS)
    def test_release_only_follows_a_hook(self, run):
        _, samples, final = run_random(*run)
        hooked = False
        for _, kind in final.events:
            if kind == "Hook":
                assert not hooked
                hooked = True
            elif kind in ("Release", "ClawFailure"):
                assert hooked
                hooked = False
        # and the attachment column changes only on those events
        was_hooked = False
        for s in samples:
            events = s.events.split(";")
            hooked = s.attachment.startswith("hooked")
            if "Hook" in events:
                assert not was_hooked and hooked
            elif "Release" in events or "ClawFailure" in events:
                assert was_hooked and not hooked
            else:
                assert hooked == was_hooked
            was_hooked = hooked

    @settings(max_examples=60, deadline=None)
    @given(run=RUNS)
    def test_deflection_within_the_vertical_cap(self, run):
        _, samples, final = run_random(*run)
        limits = run[2]
        cap = limits.vertical_max / MESH.node_stiffness
        for s in samples:
            assert abs(s.mesh_z - MESH.rest_height) <= cap + 1e-9
            assert s.vertical <= limits.vertical_max
            if s.attachment == "free":
                assert s.mesh_z == MESH.rest_height

    @settings(max_examples=60, deadline=None)
    @given(run=RUNS)
    def test_claw_failure_exactly_beyond_the_hooking_limit(self, run):
        script, samples, _ = run_random(*run)
        limits, k = run[2], MESH.node_stiffness
        # claw-tip (x, y) of each tick, from the scripted targets
        claw = [t[:2] + (CLAW_DX[s.mode], 0.0)
                for t, s in zip(leg_tip_targets(script, 10.0), samples)]
        for i, s in enumerate(samples):
            events = s.events.split(";")
            if "Hook" in events:
                hook = claw[i]
            held = i > 0 and samples[i - 1].attachment.startswith("hooked")
            if not held or "Release" in events:
                assert "ClawFailure" not in events
                continue
            stretch = float(np.hypot(*(claw[i] - hook)))
            assert s.horizontal == pytest.approx(k * stretch, abs=1e-5)
            assert ("ClawFailure" in events) == \
                (s.horizontal > limits.hooking_max)

    @settings(max_examples=40, deadline=None)
    @given(phases=PHASE_LISTS, limits=LIMITS)
    def test_tubed_never_releases(self, phases, limits):
        _, samples, final = run_random(phases, False, limits)
        assert "Release" not in kinds(final)
        assert all(s.mode == "rigid" for s in samples)

    @settings(max_examples=30, deadline=None)
    @given(run=RUNS)
    def test_same_inputs_same_samples_and_log(self, run):
        _, a_samples, a = run_random(*run)
        _, b_samples, b = run_random(*run)
        assert a_samples == b_samples
        assert a.events == b.events

    @pytest.mark.parametrize("drag, fails", [(9.9999, False),
                                             (10.0001, True)])
    def test_claw_failure_at_the_hooking_limit(self, drag, fails):
        # 1 N at 0.1 N/mm is 10 mm of stretch
        limits = ForceLimits(vertical_max=2.46, hooking_max=1.0)
        samples, final = hook_then(MESH, [((0.0, drag, 0.0), "rigid")],
                                   depth_mm=2.0, limits=limits)
        assert samples[-1].horizontal == pytest.approx(0.1 * drag, abs=1e-9)
        assert ("ClawFailure" in kinds(final)) == fails

    def test_one_walk_cycle_solves_no_chain_and_no_joint_path(
            self, monkeypatch):
        # a claw tip is the scripted target plus its mode's offset: a
        # reachable script needs no chain solve, no FK and no joint path
        calls = {"solve": 0, "fk": 0, "path": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        solve = counted("solve", chain_mod.solve_bend_from_pull)
        for module in (chain_mod, contact):
            monkeypatch.setattr(module, "solve_bend_from_pull", solve)
        monkeypatch.setattr(leg_mod, "forward_kinematics",
                            counted("fk", leg_mod.forward_kinematics))
        path = counted("path", leg_mod.trajectory_to_joints)
        for module in (leg_mod, contact):
            monkeypatch.setattr(module, "trajectory_to_joints", path)
        script = builtin_scenario("walk_cycle", CHAIN, MESH)
        calls.update(solve=0, fk=0, path=0)
        samples, _ = run_demo_cycle(LEG, CHAIN, MESH, script)
        assert len(samples) == 135
        assert calls == {"solve": 0, "fk": 0, "path": 0}

    def test_tubed_at_dt_5_hooks_at_180_ms(self):
        # the approach ends with the rigid claw exactly on the rest height
        # at 175 ms; it hooks only once below it
        origins = ((100.0, -50.0), (96.31, -53.07), (104.72, -46.18),
                   (101.9, -45.3))
        hooks = set()
        for spacing, rest, origin in itertools.product(
                (20.0, 25.0, 30.0), (-120.0, -60.0, 0.0), origins):
            mesh = MeshGrid(spacing=spacing, rest_height=rest, origin=origin)
            script = builtin_scenario("tubed", CHAIN, mesh)
            _, final = run_demo_cycle(LEG, CHAIN, mesh, script, dt_ms=5.0)
            hooks.add(final.events[0])
        assert hooks == {(180.0, "Hook")}

    def test_not_reachable_names_its_tick(self):
        # tick 0 is the home point; the first move leaves the workspace
        script = Scenario("away", HOME,
                          [Phase("out", 30.0, "flexible", (900.0, 0.0, 0.0))])
        with pytest.raises(leg_mod.NotReachable) as err:
            run_demo_cycle(LEG, CHAIN, MESH, script)
        assert err.value.sample_index == 1

    def test_rejects_non_positive_dt(self):
        script = builtin_scenario("walk_cycle", CHAIN, MESH)
        with pytest.raises(ValueError, match="dt_ms"):
            run_demo_cycle(LEG, CHAIN, MESH, script, dt_ms=0.0)


# the bench's sim inputs: mesh spacing x rest height x scenario x tick
BENCH_SIMS = list(itertools.product((20, 25, 30), (-120, -60, 0),
                                    ("walk_cycle", "tubed"), (5, 10)))
# bounds on the batch rounds past sample 0 and the scalar solves of any
# BENCH_SIMS joint path: the most any took when this guard was set (they
# now take at most 2 rounds, 1.33 per path on average)
MAX_ROUNDS, MAX_SCALAR_SOLVES = 3, 0


def closed_columns(monkeypatch, cfg, name):
    """The candidate columns ``leg._reaches`` closes (``_close_at``
    calls) in a sim of scenario ``name`` on ``cfg``."""
    chain, leg, mesh = cfg.build_chain(), cfg.build_leg(), cfg.build_mesh()
    script = cfg.build_scenario(name, chain, mesh)
    closed = count_calls(monkeypatch, leg_mod._Planes, "_close_at")
    run_demo_cycle(leg, chain, mesh, script, dt_ms=cfg.value("sim", "dt_ms"),
                   limits=cfg.build_limits(), tol_mm=cfg.value("ik", "tol_mm"))
    monkeypatch.undo()
    return len(closed)


@pytest.mark.parametrize("name", ["walk_cycle", "tubed"])
def test_reach_test_closes_one_column_by_default(monkeypatch, name):
    # the straight-elbow arc ends go first, and one of them lands every
    # tick: one pass, where folded-elbow ends first took two
    assert closed_columns(monkeypatch, parse_config(""), name) == 1


@pytest.mark.parametrize("spacing, rest, name, dt", BENCH_SIMS)
def test_reach_test_closes_at_most_two_columns_on_bench_inputs(
        monkeypatch, spacing, rest, name, dt):
    # the bench moves the mesh origin up to 5 mm off (100, -50)
    for ox, oy in [(100.0, -50.0), *itertools.product((95.5, 104.5),
                                                      (-54.5, -45.5))]:
        cfg = parse_config(f"[mesh]\nspacing_mm = {spacing}\n"
                           f"rest_height_mm = {rest}\norigin_x_mm = {ox}\n"
                           f"origin_y_mm = {oy}\n[sim]\ndt_ms = {dt}\n")
        assert closed_columns(monkeypatch, cfg, name) <= 2, (ox, oy)


@pytest.mark.parametrize("spacing, rest, name, dt", BENCH_SIMS)
def test_batched_joint_path_matches_the_scalar_loop(monkeypatch, spacing,
                                                    rest, name, dt):
    # the sim solves no joint path on these inputs, but their leg-tip
    # paths (the home point, then every tick's target) are the smooth
    # walking paths the batch rounds are guarded on
    cfg = parse_config(f"[mesh]\nspacing_mm = {spacing}\n"
                       f"rest_height_mm = {rest}\n[sim]\ndt_ms = {dt}\n")
    chain, leg, mesh = cfg.build_chain(), cfg.build_leg(), cfg.build_mesh()
    script = cfg.build_scenario(name, chain, mesh)
    points = np.vstack([script.home_tip, *leg_tip_targets(script, dt)])
    traj = leg_mod.Trajectory(np.arange(len(points)) * float(dt), points)
    tol_mm = cfg.value("ik", "tol_mm")
    want = scalar_joints(leg, traj, tol_mm=tol_mm)
    rounds = count_calls(monkeypatch, leg_mod._PathCandidates, "round")
    scalar = count_calls(monkeypatch, leg_mod, "inverse_kinematics")
    got = leg_mod.trajectory_to_joints(leg, traj, tol_mm=tol_mm)
    assert np.array_equal(got, want)
    assert len(later_rounds(rounds)) <= MAX_ROUNDS
    assert len(scalar) <= MAX_SCALAR_SOLVES
    # a claw tip is its scripted target: FK of the path is within tol_mm
    miss = np.linalg.norm(forward_kinematics(leg, got).position - traj.points,
                          axis=1)
    assert miss.max() < tol_mm


# -- the scan against the per-tick loop it replaced ---------------------------

def loop_cell_of(mesh, x, y):
    """The opening test as one scalar step per point: the oracle for the
    array test ``MeshGrid.cell_of`` and the scan share."""
    gx = (x - mesh.origin[0]) / mesh.spacing
    gy = (y - mesh.origin[1]) / mesh.spacing
    if gx % 1.0 == 0.0 or gy % 1.0 == 0.0:
        return None
    i, j = int(math.floor(gx)), int(math.floor(gy))
    nx, ny = mesh.cells
    if 0 <= i < nx and 0 <= j < ny:
        return (i, j)
    return None


def loop_hook_check(tip, mode, mesh):
    x, y, z = tip
    if mode != "rigid" or not z < mesh.rest_height - contact.HOOK_TOL_MM:
        return None
    return loop_cell_of(mesh, x, y)


@settings(max_examples=300, deadline=None)
@given(spacing=st.floats(0.5, 50.0), origin=st.tuples(
    st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    cells=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    # on a strand crossing or off it, inside the mesh or beyond its edge
    at=st.tuples(st.integers(-2, 8), st.integers(-2, 8)),
    off=st.tuples(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                  st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
    z=st.floats(-1.0, 1.0), mode=st.sampled_from(("rigid", "flexible")))
def test_hook_law_matches_the_scalar_test(spacing, origin, cells, at, off, z,
                                          mode):
    mesh = MeshGrid(spacing=spacing, cells=cells, origin=origin,
                    rest_height=0.0)
    x, y = (o + (k + d) * spacing for o, k, d in zip(origin, at, off))
    assert mesh.cell_of(x, y) == loop_cell_of(mesh, x, y)
    assert hook_check((x, y, z), mode, mesh) \
        == loop_hook_check((x, y, z), mode, mesh)


def tick_loop(leg, chain, mesh, script, dt_ms=contact.DEFAULT_DT_MS,
              limits=None, claw_length=contact.DEFAULT_CLAW_LENGTH_MM,
              tol_mm=leg_mod.IK_TOL_MM):
    """``run_demo_cycle`` as one Python step per tick: the oracle the
    array scan must match field for field."""
    limits = limits or ForceLimits()
    home = np.asarray(script.home_tip, dtype=float)
    commanded, targets, prev = [], [], np.zeros(3)
    for phase in script.phases:
        n = max(1, int(round(phase.duration_ms / dt_ms)))
        goal = np.asarray(phase.tip_offset, dtype=float)
        frac = np.arange(1, n + 1)[:, None] / n
        targets.append(home + prev + frac * (goal - prev))
        commanded += [phase.mode] * n
        prev = goal
    if not commanded:
        return [], contact.FinalState(0.0)
    modes = [m if script.allow_flexible else "rigid" for m in commanded]

    points = np.vstack([home, *targets])
    # reach: one warm-started scalar IK per tick, raising with its index
    scalar_joints(leg, leg_mod.Trajectory(
        np.arange(len(points)) * dt_ms, points), tol_mm=tol_mm)
    offsets = {}
    for mode in contact.MODES:
        dx, dz = claw_offset(chain, mode, claw_length)
        offsets[mode] = (dx, 0.0, dz)
    tips = (points + np.array(
        [offsets[m] for m in [commanded[0]] + modes])).tolist()

    rest, k = mesh.rest_height, mesh.node_stiffness
    cap = limits.vertical_max / k
    samples, events = [], []
    # the hooked cell (None while free) and the claw tip where it hooked
    cell, hook_tip, deflection, blocked, t = None, None, 0.0, False, 0.0
    for i, mode in enumerate(modes, 1):
        t += dt_ms
        x, y, z = tips[i]
        kinds = []
        vertical = horizontal = 0.0
        if cell is None:
            cell, hook_tip = loop_hook_check(tips[i], mode, mesh), tips[i]
            if cell is not None:
                kinds.append("Hook")
        elif mode == "flexible" and z > rest:
            cell, deflection = None, 0.0
            kinds.append("Release")
        else:
            hx, hy, hz = hook_tip
            was_saturated = abs(deflection) >= cap * (1.0 - 1e-12)
            deflection = z + (rest - hz) - rest
            if abs(deflection) > cap:
                deflection = math.copysign(cap, deflection)
                if not was_saturated:
                    kinds.append("Saturation")
            vertical = min(k * abs(deflection), limits.vertical_max)
            horizontal = k * float(np.hypot(x - hx, y - hy))
            if horizontal > limits.hooking_max:
                cell, deflection = None, 0.0
                kinds.append("ClawFailure")
        was_blocked, blocked = blocked, (
            commanded[i - 1] == "flexible" and not script.allow_flexible
            and cell is not None and z > tips[i - 1][2])
        if blocked and not was_blocked:
            kinds.append("RepeatSwing")
        events += [(t, kind) for kind in kinds]
        samples.append(contact.DemoSample(
            t, z, rest if cell is None else rest + deflection, mode,
            "free" if cell is None else f"hooked:{cell[0]}:{cell[1]}",
            ";".join(kinds), vertical, horizontal))
    return samples, contact.FinalState(t, tuple(events))


def assert_scan_matches_loop(*args, **kwargs):
    """Both runs on the same inputs: equal samples (and so the attachment
    each tick ends in), log and end time.  Returns the scan's run."""
    samples, final = run_demo_cycle(*args, **kwargs)
    want_samples, want = tick_loop(*args, **kwargs)
    assert samples == want_samples
    assert final.events == want.events
    assert final.t_ms == want.t_ms
    return samples, final


# a leg-tip offset across the mesh: none, or a drag that may cross
# strands, leave the mesh and tear the claw free
SIDEWAYS = st.one_of(st.just(0.0), st.floats(-40.0, 40.0))
# a leg-tip height offset; below -35 mm the rigid claw is under the strands
HEIGHT = st.one_of(st.floats(-60.0, -35.0), st.floats(-60.0, 30.0))


@st.composite
def scan_inputs(draw):
    """A random mesh near the default leg and a script around it.

    The home point puts the rigid claw mid-cell 5 mm under the strands
    after a 40 mm descent (as the built-in scripts do); phase offsets
    reach past the mesh edge sideways and above and below it.
    """
    spacing = draw(st.floats(8.0, 40.0))
    cells = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    # the cell the built-in scripts aim at is centred near x = 137.5 mm,
    # as on the default mesh
    aim = max(0, cells[0] // 2 - 1) + 0.5
    mesh = MeshGrid(spacing=spacing,
                    node_stiffness=draw(st.floats(0.05, 1.0)),
                    rest_height=draw(st.floats(-125.0, 0.0)), cells=cells,
                    origin=(137.5 - aim * spacing + draw(st.floats(-5.0, 5.0)),
                            -50.0 + draw(st.floats(-10.0, 10.0))))
    home = builtin_scenario("walk_cycle", CHAIN, mesh).home_tip
    dt_ms = draw(st.floats(1.0, 20.0))
    phases = draw(st.lists(st.builds(
        Phase, st.just("p"), st.floats(dt_ms, 4.0 * dt_ms + 40.0),
        st.sampled_from(("rigid", "flexible")),
        st.tuples(SIDEWAYS, SIDEWAYS, HEIGHT)),
        min_size=1, max_size=6))
    script = Scenario("random", home, phases,
                      allow_flexible=draw(st.booleans()))
    limits = ForceLimits(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 30.0)))
    return mesh, script, limits, dt_ms


def not_reachable(err):
    return (err.sample_index, err.residual_mm, err.iterations, str(err))


def assert_run_matches_loop(*args, **kwargs):
    """``assert_scan_matches_loop``, or, where the tick loop's IK raises,
    the same NotReachable from ``run_demo_cycle``: its tick, residual,
    iterations and message."""
    try:
        tick_loop(*args, **kwargs)
    except leg_mod.NotReachable as want:
        with pytest.raises(leg_mod.NotReachable) as got:
            run_demo_cycle(*args, **kwargs)
        assert not_reachable(got.value) == not_reachable(want)
        return
    assert_scan_matches_loop(*args, **kwargs)


@settings(max_examples=150, deadline=None)
@given(run=scan_inputs())
def test_scan_matches_the_tick_loop(run):
    mesh, script, limits, dt_ms = run
    assert_run_matches_loop(LEG, CHAIN, mesh, script, dt_ms=dt_ms,
                            limits=limits)


# leg-tip points (and offsets) in a box past the default leg's 255 mm
# reach, or near the trochanter, where the joint limits block the leg
EDGE = st.one_of(*(st.tuples(*[st.floats(-w, w)] * 3) for w in (270.0, 60.0)))


@settings(max_examples=150, deadline=None)
@given(leg=st.sampled_from([LEG, OFFSET_LEG]),
       home=EDGE,
       phases=st.lists(st.builds(
           Phase, st.just("p"), st.integers(1, 6).map(lambda n: 10.0 * n),
           st.sampled_from(contact.MODES), EDGE),
           min_size=1, max_size=4),
       tol=st.sampled_from([leg_mod.IK_TOL_MM, 0.5, 5.0]))
def test_scripts_across_the_edge_raise_the_joint_paths_not_reachable(
        leg, home, phases, tol):
    # reach is one batched test; a script it fails runs the joint path,
    # whose NotReachable the scalar loop of the tick oracle must match
    assert_run_matches_loop(leg, CHAIN, MESH, Scenario("edge", home, phases),
                            tol_mm=tol)


def scan_then(moves, limits=None, **kwargs):
    """``hook_then`` checked against the tick loop."""
    samples, final = hook_then(MESH, moves, depth_mm=2.0, limits=limits,
                               **kwargs)
    dx, dz = claw_offset(CHAIN, "rigid")
    cx, cy = MESH.cell_center((1, 2))
    phases = [Phase("hook", 10.0, "rigid", (0.0, 0.0, 0.0))]
    phases += [Phase(f"move_{i}", 10.0, mode, tuple(map(float, delta)))
               for i, (delta, mode) in enumerate(moves)]
    script = Scenario("probe", (cx - dx, cy, MESH.rest_height - 2.0 - dz),
                      phases, **kwargs)
    assert_scan_matches_loop(LEG, CHAIN, MESH, script, limits=limits)
    return samples, final


WEAK = ForceLimits(vertical_max=2.46, hooking_max=0.5)


@pytest.mark.parametrize("moves, limits, want", [
    # a hold that fails on the tick after its Hook
    ([((0.0, 6.0, 0.0), "rigid")], WEAK,
     [(10.0, "Hook"), (20.0, "ClawFailure")]),
    # a re-hook after a failure: the torn claw is still in the opening
    ([((0.0, 6.0, 0.0), "rigid"), ((0.0, 6.0, 0.0), "rigid")], WEAK,
     [(10.0, "Hook"), (20.0, "ClawFailure"), (30.0, "Hook")]),
    # a re-hook after a release: lift flexible, come back down rigid
    ([((0.0, 0.0, 30.0), "flexible"), ((0.0, 0.0, 0.0), "rigid")], None,
     [(10.0, "Hook"), (20.0, "Release"), (30.0, "Hook")]),
    # a hook on the last tick
    ([], None, [(10.0, "Hook")]),
    # saturation, then a drag that tears the saturated hold
    ([((0.0, 0.0, -30.0), "rigid"), ((0.0, 0.0, -31.0), "rigid"),
      ((0.0, 6.0, -31.0), "rigid")], WEAK,
     [(10.0, "Hook"), (20.0, "Saturation"), (40.0, "ClawFailure")]),
])
def test_named_scan_cases_match_the_tick_loop(moves, limits, want):
    samples, final = scan_then(moves, limits)
    assert list(final.events) == want
    assert samples[-1].attachment.startswith("hooked") \
        == (want[-1][1] == "Hook")


def test_hook_on_the_last_tick_after_free_ticks():
    dx, dz = claw_offset(CHAIN, "rigid")
    cx, cy = MESH.cell_center((2, 1))
    home = (cx - dx, cy, MESH.rest_height - 3.0 - dz + 30.0)
    script = Scenario("late", home, [
        Phase("hover", 30.0, "rigid", (0.0, 0.0, 0.0)),
        Phase("dip", 10.0, "rigid", (0.0, 0.0, -30.0))])
    samples, final = assert_scan_matches_loop(LEG, CHAIN, MESH, script)
    assert final.events == ((40.0, "Hook"),)
    assert samples[-1].attachment == "hooked:2:1"


def test_repeat_swing_on_a_hook_tick_matches_the_tick_loop():
    # tubed: a forbidden flexible lift after a rigid approach
    _, final = scan_then([((0.0, 0.0, 10.0), "flexible"),
                          ((0.0, 0.0, 5.0), "rigid"),
                          ((0.0, 0.0, 12.0), "flexible")],
                         allow_flexible=False)
    assert kinds(final) == ["Hook", "RepeatSwing", "RepeatSwing"]


@pytest.mark.parametrize("spacing, rest, name, dt", BENCH_SIMS)
def test_scan_matches_the_tick_loop_on_bench_inputs(spacing, rest, name, dt):
    cfg = parse_config(f"[mesh]\nspacing_mm = {spacing}\n"
                       f"rest_height_mm = {rest}\n[sim]\ndt_ms = {dt}\n")
    chain, leg, mesh = cfg.build_chain(), cfg.build_leg(), cfg.build_mesh()
    assert_scan_matches_loop(leg, chain, mesh,
                             cfg.build_scenario(name, chain, mesh),
                             dt_ms=dt, limits=cfg.build_limits(),
                             tol_mm=cfg.value("ik", "tol_mm"))
