"""Leg-on-mesh attachment machine: hooking, coupling, release, events."""

import itertools

import numpy as np
import pytest

from tarsim.chain import default_chain_geometry
from tarsim.contact import (FREE, Attachment, ForceLimits, MeshGrid, Phase,
                            Scenario, SimWorld, StepCommand, builtin_scenario,
                            coupling_force, hook_check, initial_state,
                            load_demo_csv, rigid_claw_offset, run_demo_cycle,
                            save_demo_csv, step)
from tarsim.leg import default_leg_model, inverse_kinematics


@pytest.fixture
def mesh():
    return MeshGrid(spacing=25.0, node_stiffness=0.1, rest_height=-120.0,
                    cells=(4, 4), origin=(100.0, -50.0))


@pytest.fixture
def chain():
    return default_chain_geometry()


@pytest.fixture
def leg():
    return default_leg_model()


@pytest.fixture
def world(leg, chain):
    return SimWorld(leg=leg, chain=chain)


def hooked_state(world, mesh, depth_mm=1.0, cell=(1, 2)):
    """Drive the claw into a cell and return the hooked state."""
    q_neutral = np.array([0.0, -0.3, 0.6, -0.9])
    dx, dz = rigid_claw_offset(world.chain, world.claw_length)
    cx, cy = mesh.cell_center(cell)
    tip_target = np.array([cx - dx, cy, mesh.rest_height - depth_mm - dz])
    q = inverse_kinematics(world.leg, tip_target, q_neutral).q
    st = initial_state(world, q_neutral, mesh=mesh)
    st = step(world, st, StepCommand(q, "rigid"), 10.0)
    assert st.attachment.hooked
    return st, q


def move_tip(world, st, q, delta, mode="rigid"):
    from tarsim.leg import forward_kinematics
    tip = forward_kinematics(world.leg, q).position + np.asarray(delta)
    q2 = inverse_kinematics(world.leg, tip, q).q
    return step(world, st, StepCommand(q2, mode), 10.0), q2


class TestMeshGrid:
    def test_rest_deflections_zero(self, mesh):
        assert np.all(mesh.deflection == 0.0)

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
        assert hook_check(tip, True, "flexible", mesh).free

    def test_rigid_engaged_below_inside_hooks(self, mesh):
        tip = [112.5, -37.5, mesh.rest_height - 1.0]
        att = hook_check(tip, True, "rigid", mesh)
        assert att.hooked and att.node == (0, 0)

    def test_strand_boundary_resolves_free(self, mesh):
        tip = [125.0, -37.5, mesh.rest_height - 1.0]
        assert hook_check(tip, True, "rigid", mesh).free

    def test_above_rest_free(self, mesh):
        tip = [112.5, -37.5, mesh.rest_height + 1.0]
        assert hook_check(tip, True, "rigid", mesh).free

    def test_exactly_at_rest_free(self, mesh):
        tip = [112.5, -37.5, mesh.rest_height]
        assert hook_check(tip, True, "rigid", mesh).free

    def test_disengaged_claws_free(self, mesh):
        tip = [112.5, -37.5, mesh.rest_height - 1.0]
        assert hook_check(tip, False, "rigid", mesh).free

    def test_exhaustive_predicate_space(self, mesh):
        # hook iff rigid AND engaged AND below AND inside a cell opening
        below = mesh.rest_height - 1.0
        above = mesh.rest_height + 1.0
        for mode, engaged, is_below, inside in itertools.product(
                ("rigid", "flexible"), (True, False), (True, False),
                (True, False)):
            xy = (112.5, -37.5) if inside else (125.0, -37.5)
            tip = [xy[0], xy[1], below if is_below else above]
            att = hook_check(tip, engaged, mode, mesh)
            expect = mode == "rigid" and engaged and is_below and inside
            assert att.hooked == expect


class TestStepMachine:
    def test_high_leg_stays_free(self, world, mesh):
        q = np.array([0.0, 0.5, -0.4, 0.2])  # tip far above the mesh
        st = initial_state(world, q, mesh=mesh)
        for mode in ("rigid", "flexible", "rigid"):
            st = step(world, st, StepCommand(q, mode), 10.0)
        assert st.attachment.free
        assert np.all(st.mesh.deflection == 0.0)
        assert st.events == ()

    def test_hook_on_rigid_descent(self, world, mesh):
        st, _ = hooked_state(world, mesh)
        assert [k for _, k in st.events] == ["Hook"]

    def test_coupling_tracks_tip(self, world, mesh):
        st, q = hooked_state(world, mesh, depth_mm=2.0)
        hook_z = st.claw_tip[2]
        st2, _ = move_tip(world, st, q, (0.0, 0.0, -3.0))
        i, j = st2.attachment.node
        assert st2.mesh.deflection[i, j] == pytest.approx(
            st2.claw_tip[2] - hook_z, abs=1e-9)

    def test_release_needs_flexible_and_lift(self, world, mesh):
        st, q = hooked_state(world, mesh, depth_mm=2.0)
        # rigid lift: still hooked, mesh follows above rest
        st_r, q_r = move_tip(world, st, q, (0.0, 0.0, 30.0), mode="rigid")
        assert st_r.attachment.hooked
        assert st_r.hooked_node_height() > mesh.rest_height
        # flexible lift: released within one step, mesh back to rest
        st_f, _ = move_tip(world, st, q, (0.0, 0.0, 30.0), mode="flexible")
        assert st_f.attachment.free
        assert np.all(st_f.mesh.deflection == 0.0)
        assert st_f.events[-1][1] == "Release"

    def test_flexible_below_rest_stays_hooked(self, world, mesh):
        # deep engagement: even the straightened chain leaves the tip
        # below the strands, so the flexible switch alone cannot release
        st, q = hooked_state(world, mesh, depth_mm=45.0)
        st2 = step(world, st, StepCommand(q, "flexible"), 10.0)
        assert st2.claw_tip[2] < mesh.rest_height
        assert st2.attachment.hooked

    def test_saturation_event_at_threshold(self, world, mesh):
        cap_defl = world.limits.vertical_max / mesh.node_stiffness
        st, q = hooked_state(world, mesh, depth_mm=2.0)
        just_below, _ = move_tip(world, st, q, (0, 0, -(cap_defl - 0.01)))
        assert all(k != "Saturation" for _, k in just_below.events)
        beyond, _ = move_tip(world, st, q, (0, 0, -(cap_defl + 0.5)))
        assert any(k == "Saturation" for _, k in beyond.events)
        i, j = beyond.attachment.node
        assert abs(beyond.mesh.deflection[i, j]) == pytest.approx(cap_defl)
        assert coupling_force(beyond, world.limits)[0] == pytest.approx(
            world.limits.vertical_max)

    def test_claw_failure_releases(self, leg, chain, mesh):
        # low hooking limit so a small horizontal drag tears the claw out
        world = SimWorld(leg=leg, chain=chain,
                         limits=ForceLimits(vertical_max=2.46,
                                            hooking_max=0.5))
        st, q = hooked_state(world, mesh, depth_mm=2.0)
        st2, _ = move_tip(world, st, q, (0.0, 6.0, 0.0))  # 0.6 N > 0.5 N
        assert any(k == "ClawFailure" for _, k in st2.events)
        assert st2.attachment.free
        assert np.all(st2.mesh.deflection == 0.0)

    def test_below_hooking_limit_holds(self, leg, chain, mesh):
        world = SimWorld(leg=leg, chain=chain,
                         limits=ForceLimits(vertical_max=2.46,
                                            hooking_max=0.5))
        st, q = hooked_state(world, mesh, depth_mm=2.0)
        st2, _ = move_tip(world, st, q, (0.0, 4.0, 0.0))  # 0.4 N < 0.5 N
        assert st2.attachment.hooked
        assert all(k != "ClawFailure" for _, k in st2.events)

    def test_repeat_swing_only_when_blocked(self, leg, chain, mesh):
        tubed = SimWorld(leg=leg, chain=chain, allow_flexible=False)
        st, q = hooked_state(tubed, mesh, depth_mm=2.0)
        st2, _ = move_tip(tubed, st, q, (0.0, 0.0, 30.0), mode="flexible")
        assert st2.mode == "rigid"  # transition forbidden
        assert any(k == "RepeatSwing" for _, k in st2.events)
        assert st2.attachment.hooked

    def test_determinism(self, world, mesh):
        st, q = hooked_state(world, mesh, depth_mm=2.0)
        cmd = StepCommand(q, "rigid")
        a = step(world, st, cmd, 10.0)
        b = step(world, st, cmd, 10.0)
        assert np.array_equal(a.claw_tip, b.claw_tip)
        assert np.array_equal(a.mesh.deflection, b.mesh.deflection)
        assert a.events == b.events

    def test_coupling_force_zero_when_free(self, world, mesh):
        st = initial_state(world, np.array([0.0, 0.5, -0.4, 0.2]), mesh=mesh)
        assert coupling_force(st) == (0.0, 0.0)

    def test_unit_deflection_unit_force(self, leg, chain):
        mesh1 = MeshGrid(spacing=25.0, node_stiffness=1.0, rest_height=-120.0,
                         cells=(4, 4), origin=(100.0, -50.0))
        world = SimWorld(leg=leg, chain=chain)
        st, q = hooked_state(world, mesh1, depth_mm=2.0)
        st2, _ = move_tip(world, st, q, (0.0, 0.0, -1.0))
        v, h = coupling_force(st2)
        assert v == pytest.approx(1.0, abs=1e-6)


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

    @pytest.mark.parametrize("row, match", [
        ("20.0,1.0,2.0,rigid,free", "row 3: expected 6 fields, got 5"),
        ("20.0,1.0,high,rigid,free,", "row 3: not a finite number"),
    ])
    def test_demo_csv_bad_rows_named(self, tmp_path, row, match):
        p = tmp_path / "demo.csv"
        p.write_text("t_ms,claw_z_mm,mesh_z_mm,mode,attachment,event\n"
                     f"10.0,1.0,2.0,rigid,free,Hook\n{row}\n")
        with pytest.raises(ValueError, match=match):
            load_demo_csv(p)


class TestAttachment:
    def test_free_singleton_str(self):
        assert str(FREE) == "free"
        assert FREE.free and not FREE.hooked

    def test_hooked_str(self):
        att = Attachment((2, 3), np.array([1.0, 2.0, 3.0]))
        assert str(att) == "hooked:2:3"

    def test_needs_both_fields(self):
        with pytest.raises(ValueError):
            Attachment((1, 1), None)
