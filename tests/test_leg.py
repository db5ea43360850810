"""Leg FK/IK against independent transform-product and finite-difference oracles."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tarsim import leg
from tarsim.leg import (IK_TOL_MM, DHRow, LegModel, NotReachable, Trajectory,
                        default_leg_model, forward_kinematics,
                        inverse_kinematics, jacobian, load_trajectory,
                        retarget_trajectory, save_trajectory,
                        trajectory_to_joints)

LEG = default_leg_model()
# joint vectors within the default leg's +-150 degree limits
JOINTS = st.tuples(*(st.floats(lo, hi) for lo, hi in LEG.joint_limits))
# the default links under tight, lopsided limits: femur and tibia limits
# cut the reachable trochanter arcs short
TIGHT = LegModel(LEG.rows, tuple(
    (math.radians(lo), math.radians(hi))
    for lo, hi in ((-60, 170), (-90, 30), (-120, 10), (0, 150))))
TIGHT_JOINTS = st.tuples(*(st.floats(lo, hi) for lo, hi in TIGHT.joint_limits))


def oracle_fk_position(model, q):
    """Independent route: compose elementary 4x4 matrices one by one; the
    coxa twists the rest of the leg by pi/2, every d is 0."""
    def rot_z(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s, 0, 0], [s, c, 0, 0],
                         [0, 0, 1, 0], [0, 0, 0, 1]])

    def rot_x(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[1, 0, 0, 0], [0, c, -s, 0],
                         [0, s, c, 0], [0, 0, 0, 1]])

    def trans(x, y, z):
        T = np.eye(4)
        T[:3, 3] = (x, y, z)
        return T

    T = np.eye(4)
    for row, qi, twist in zip(model.rows, q, (math.pi / 2, 0.0, 0.0, 0.0)):
        T = T @ rot_z(qi + row.theta_offset) @ trans(row.a, 0, 0) \
            @ rot_x(twist)
    return T[:3, 3]


@pytest.fixture
def model():
    return default_leg_model()


@pytest.fixture
def straight_model():
    rows = tuple(DHRow(a=a) for a in (10.0, 20.0, 30.0, 40.0))
    return LegModel(rows, ((-3.0, 3.0),) * 4)


class TestForwardKinematics:
    def test_straight_chain(self, straight_model):
        pose = forward_kinematics(straight_model, np.zeros(4))
        assert pose.position == pytest.approx([100.0, 0.0, 0.0], abs=1e-12)

    def test_against_matrix_product_oracle(self, model):
        rng = np.random.default_rng(31)
        for _ in range(300):
            q = rng.uniform(model.lower, model.upper)
            got = forward_kinematics(model, q).position
            assert np.max(np.abs(got - oracle_fk_position(model, q))) < 1e-12

    def test_revolute_periodicity(self, model):
        rng = np.random.default_rng(32)
        q = rng.uniform(-1.0, 1.0, 4)
        p1 = forward_kinematics(model, q).position
        p2 = forward_kinematics(model, q + 2 * math.pi).position
        assert np.max(np.abs(p1 - p2)) < 1e-9

    def test_rotation_is_orthonormal(self, model):
        pose = forward_kinematics(model, np.array([0.3, -0.4, 0.8, -1.1]))
        assert np.allclose(pose.rotation @ pose.rotation.T, np.eye(3),
                           atol=1e-12)

    def test_batch_matches_single_calls_bit_for_bit(self, model):
        rng = np.random.default_rng(34)
        qs = rng.uniform(model.lower, model.upper, (200, 4))
        batch = forward_kinematics(model, qs)
        assert batch.position.shape == (200, 3)
        assert batch.rotation.shape == (200, 3, 3)
        for q, p, r in zip(qs, batch.position, batch.rotation):
            single = forward_kinematics(model, q)
            assert np.array_equal(single.position, p)
            assert np.array_equal(single.rotation, r)
        grid = forward_kinematics(model, qs.reshape(10, 20, 4))
        assert np.array_equal(grid.position.reshape(200, 3), batch.position)
        jac = jacobian(model, qs)
        assert jac.shape == (200, 3, 4)
        assert all(np.array_equal(jacobian(model, q), j)
                   for q, j in zip(qs, jac))

    def test_rejects_bad_q(self, model):
        with pytest.raises(ValueError):
            forward_kinematics(model, np.array([0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            forward_kinematics(model, np.array([0.0, np.nan, 0.0, 0.0]))


class TestJacobian:
    def test_matches_central_differences(self, model):
        rng = np.random.default_rng(33)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(model.lower, model.upper)
            J = jacobian(model, q)
            Jfd = np.empty((3, 4))
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                Jfd[:, i] = (forward_kinematics(model, q + e).position
                             - forward_kinematics(model, q - e).position) \
                    / (2 * h)
            worst = max(worst, float(np.max(np.abs(J - Jfd))))
        assert worst < 1e-6

    def test_straight_chain_base_column_perpendicular(self, straight_model):
        J = jacobian(straight_model, np.zeros(4))
        # base joint swings the whole chain sideways
        axis = np.array([1.0, 0.0, 0.0])
        assert abs(np.dot(J[:, 0], axis)) < 1e-12
        assert np.linalg.norm(J[:, 0]) > 0


class TestInverseKinematics:
    def test_already_converged(self, model):
        q0 = np.array([0.2, -0.4, 0.8, -1.0])
        target = forward_kinematics(model, q0).position
        r = inverse_kinematics(model, target, q0)
        assert r.iterations == 0
        assert np.allclose(r.q, q0)

    def test_round_trip_random_targets(self, model):
        rng = np.random.default_rng(34)
        q0 = np.array([0.0, -0.3, 0.6, -0.9])
        for _ in range(200):
            qstar = rng.uniform(model.lower, model.upper)
            target = forward_kinematics(model, qstar).position
            r = inverse_kinematics(model, target, q0)
            assert r.residual_mm < 1e-6
            assert r.iterations < 200
            assert np.all(r.q >= model.lower) and np.all(r.q <= model.upper)
            replay = forward_kinematics(model, r.q).position
            assert np.linalg.norm(replay - target) < 1e-6

    def test_out_of_reach_raises(self, model):
        beyond = np.array([model.reach_mm() * 1.2, 0.0, 0.0])
        with pytest.raises(NotReachable) as err:
            inverse_kinematics(model, beyond, np.zeros(4))
        assert err.value.residual_mm > 0
        assert err.value.iterations > 0

    def test_out_of_reach_residual_is_distance_to_workspace(self, model):
        # on +x the nearest workspace point is the stretched leg at 255 mm
        reach = model.reach_mm()
        with pytest.raises(NotReachable) as err:
            inverse_kinematics(model, [1.2 * reach, 0.0, 0.0], np.zeros(4))
        assert err.value.residual_mm == pytest.approx(0.2 * reach, abs=1e-9)

    def test_limit_blocked_residual_is_the_best_pose_checked(self, model):
        # inside the reach sphere, but reaching it needs the tibia folded
        # or the coxa turned past its limit: no candidate fits, so the
        # best pose checked is the warm start, after the two coxa yaws
        target = np.array([15.5, 0.0, -7.5])
        with pytest.raises(NotReachable) as err:
            inverse_kinematics(model, target, np.zeros(4))
        assert err.value.residual_mm == pytest.approx(np.linalg.norm(
            forward_kinematics(model, np.zeros(4)).position - target))
        assert err.value.iterations == 2

    def test_a_farther_candidate_lands_where_the_nearest_misses(self, model):
        # warm start = target pose, its femur 1.0e-7 rad past its limit:
        # the nearest candidate is that pose clipped onto the limit, which
        # misses, so the pick falls to a farther candidate that lands
        q = np.array([2.267546886005938, 0.9170477727737065,
                      -2.617993978952357, -1.7269953871528594])
        assert q[2] < model.lower[2]
        target = forward_kinematics(model, q).position
        r = inverse_kinematics(model, target, q)
        assert r.residual_mm < IK_TOL_MM
        assert r.iterations == 4
        path = trajectory_to_joints(
            model, Trajectory(np.array([0.0]), target[None]), q0=q)
        assert np.array_equal(path[0], r.q)

    def test_deterministic(self, model):
        target = np.array([100.0, 40.0, -80.0])
        q0 = np.array([0.1, -0.2, 0.3, -0.4])
        r1 = inverse_kinematics(model, target, q0)
        r2 = inverse_kinematics(model, target, q0)
        assert np.array_equal(r1.q, r2.q)
        assert r1.iterations == r2.iterations


BAD_Q0 = [[math.nan, 0.0, 0.0, 0.0], [0.0, math.inf, 0.0, 0.0],
          [0.0, 0.0, 0.0], [[0.0] * 4] * 2, 0.0]


class TestBadWarmStart:
    @pytest.mark.parametrize("q0", BAD_Q0)
    def test_inverse_kinematics_rejects_it(self, model, q0):
        with pytest.raises(ValueError, match=r"q0 must be finite joint "
                                             r"angles of shape \(4,\)"):
            inverse_kinematics(model, [120.0, 0.0, -60.0], q0)

    @pytest.mark.parametrize("q0", BAD_Q0)
    def test_trajectory_to_joints_rejects_it(self, model, q0):
        # the batch never calls inverse_kinematics on this path
        traj = synthetic_workspace_arc(model)
        with pytest.raises(ValueError, match=r"q0 must be finite joint "
                                             r"angles of shape \(4,\)"):
            trajectory_to_joints(model, traj, q0)


class TestInverseKinematicsProperties:
    @settings(max_examples=300, deadline=None)
    @given(qstar=JOINTS, warm=JOINTS)
    def test_fk_of_ik_is_identity(self, qstar, warm):
        target = forward_kinematics(LEG, np.array(qstar)).position
        r = inverse_kinematics(LEG, target, np.array(warm))
        replay = forward_kinematics(LEG, r.q).position
        assert np.linalg.norm(replay - target) < IK_TOL_MM

    @settings(max_examples=300, deadline=None)
    @given(qstar=JOINTS, warm=JOINTS)
    def test_solution_within_limits(self, qstar, warm):
        target = forward_kinematics(LEG, np.array(qstar)).position
        q = inverse_kinematics(LEG, target, np.array(warm)).q
        assert np.all(q >= LEG.lower) and np.all(q <= LEG.upper)

    @settings(max_examples=100, deadline=None)
    @given(qstar=JOINTS, warm=JOINTS)
    def test_same_inputs_same_answer(self, qstar, warm):
        target = forward_kinematics(LEG, np.array(qstar)).position
        r1 = inverse_kinematics(LEG, target, np.array(warm))
        r2 = inverse_kinematics(LEG, target, np.array(warm))
        assert np.array_equal(r1.q, r2.q)
        assert r1.iterations == r2.iterations


# the default leg with a theta offset on every joint
OFFSET_LEG = LegModel(tuple(DHRow(r.a, o) for r, o in
                            zip(LEG.rows, (0.2, -0.3, 0.4, 0.1))),
                      LEG.joint_limits)


class TestMidLimitWarmStart:
    @settings(max_examples=150, deadline=None)
    @given(m=st.sampled_from([LEG, OFFSET_LEG]), qstar=JOINTS)
    def test_no_q0_is_the_mid_limit_warm_start(self, m, qstar):
        # bit for bit: float.hex tells -0.0 from 0.0, as == does not
        target = forward_kinematics(m, np.array(qstar)).position
        r = inverse_kinematics(m, target)
        mid = inverse_kinematics(m, target, 0.5 * (m.lower + m.upper))
        assert list(map(float.hex, r.q.tolist())) == \
            list(map(float.hex, mid.q.tolist()))
        assert r.residual_mm.hex() == mid.residual_mm.hex()
        assert r.iterations == mid.iterations


class TestOneTipLaw:
    """FK's position is, to the bit, the tip the IK measures residuals
    from: both take ``leg._tip``."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.sampled_from([LEG, OFFSET_LEG]), q=JOINTS)
    def test_residual_is_zero_at_the_fk_tip(self, m, q):
        q = np.array(q)
        off = np.array([r.theta_offset for r in m.rows])
        tip = forward_kinematics(m, q).position
        assert leg._residual(tuple(r.a for r in m.rows), q + off,
                             tip) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(qstar=JOINTS)
    def test_residual_mm_is_the_distance_from_the_fk_tip(self, qstar):
        target = forward_kinematics(LEG, np.array(qstar)).position
        r = inverse_kinematics(LEG, target, 0.5 * (LEG.lower + LEG.upper))
        dx, dy, dz = forward_kinematics(LEG, r.q).position - target
        assert r.residual_mm == np.sqrt(dx * dx + dy * dy + dz * dz)


def offset_leg(**femur):
    """The default leg with its femur DH row changed by ``femur``."""
    rows = list(LEG.rows)
    rows[2] = dataclasses.replace(rows[2], **femur)
    return LegModel(tuple(rows), LEG.joint_limits)


class TestClosedFormGuard:
    @settings(max_examples=300, deadline=None)
    @given(qstar=TIGHT_JOINTS, warm=TIGHT_JOINTS)
    def test_tight_limits_land_inside_the_limits(self, qstar, warm):
        target = forward_kinematics(TIGHT, np.array(qstar)).position
        q = inverse_kinematics(TIGHT, target, np.array(warm)).q
        assert np.linalg.norm(forward_kinematics(TIGHT, q).position
                              - target) < IK_TOL_MM
        assert np.all(q >= TIGHT.lower) and np.all(q <= TIGHT.upper)

    @settings(max_examples=300, deadline=None)
    @given(target=st.tuples(*[st.floats(-TIGHT.reach_mm(), TIGHT.reach_mm())]
                            * 3),
           warm=TIGHT_JOINTS, tol=st.sampled_from([IK_TOL_MM, 0.5, 5.0]))
    def test_reach_box_lands_or_raises(self, target, warm, tol):
        # a point of the reach box either lands inside the limits or
        # raises with a residual no better than the tolerance
        try:
            q = inverse_kinematics(TIGHT, target, np.array(warm), tol).q
        except NotReachable as err:
            assert err.residual_mm >= tol
            return
        assert np.linalg.norm(forward_kinematics(TIGHT, q).position
                              - target) < tol
        assert np.all(q >= TIGHT.lower) and np.all(q <= TIGHT.upper)

    @pytest.mark.parametrize("offset", [0.3, -0.5])
    def test_theta_offsets_land_inside_the_limits(self, offset):
        m = offset_leg(theta_offset=offset)
        rng = np.random.default_rng(1)
        warm = np.array([0.0, -0.3, 0.6, -0.9])
        for _ in range(600):
            qstar = rng.uniform(m.lower, m.upper)
            target = forward_kinematics(m, qstar).position
            r = inverse_kinematics(m, target, warm)
            assert np.linalg.norm(forward_kinematics(m, r.q).position
                                  - target) < IK_TOL_MM
            assert np.all(r.q >= m.lower) and np.all(r.q <= m.upper)

    def test_default_leg_lands_criterion_4_targets(self):
        # criterion 4's targets: seed 104, cold start q_start
        rng = np.random.default_rng(104)
        q_start = np.array([0.0, -0.3, 0.6, -0.9])
        for _ in range(1000):
            qstar = rng.uniform(LEG.lower, LEG.upper)
            target = forward_kinematics(LEG, qstar).position
            r = inverse_kinematics(LEG, target, q_start)
            assert r.residual_mm < 1e-9


class TestRetarget:
    def test_fixed_point_at_origin(self):
        traj = Trajectory(np.array([0.0]), np.zeros((1, 3)))
        out = retarget_trajectory(traj, 8.0, origin=(0.0, 0.0, 0.0))
        assert np.allclose(out.points, 0.0)

    def test_linear_map(self):
        traj = Trajectory(np.array([0.0, 10.0]),
                          np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
        out = retarget_trajectory(traj, 8.0, origin=(0.0, 0.0, 0.0))
        assert np.allclose(out.points[1], [8.0, 16.0, 24.0])

    def test_pairwise_distances_scale_exactly(self):
        rng = np.random.default_rng(35)
        pts = rng.uniform(-20.0, 20.0, (40, 3))
        traj = Trajectory(np.arange(40.0) * 10.0, pts)
        out = retarget_trajectory(traj, 8.0)
        for _ in range(300):
            i, j = rng.integers(0, 40, 2)
            d0 = np.linalg.norm(pts[i] - pts[j])
            d1 = np.linalg.norm(out.points[i] - out.points[j])
            assert d1 == pytest.approx(8.0 * d0, rel=1e-12, abs=1e-12)

    def test_timestamps_preserved(self):
        traj = Trajectory(np.array([0.0, 10.0, 20.0]),
                          np.arange(9.0).reshape(3, 3))
        out = retarget_trajectory(traj, 8.0)
        assert np.array_equal(out.t_ms, traj.t_ms)

    def test_default_origin_is_first_sample(self):
        pts = np.array([[5.0, 1.0, -2.0], [6.0, 1.0, -2.0]])
        out = retarget_trajectory(Trajectory(np.array([0.0, 10.0]), pts), 8.0)
        assert np.allclose(out.points[0], pts[0])

    def test_rejects_bad_scale(self):
        traj = Trajectory(np.array([0.0]), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            retarget_trajectory(traj, 0.0)


def synthetic_workspace_arc(model, n=120):
    t = np.arange(n) * 10.0
    phase = 2 * math.pi * t / (t[-1] + 10.0)
    pts = np.column_stack([
        120.0 + 22.0 * np.cos(phase),
        12.0 * np.sin(phase),
        -60.0 + 18.0 * np.sin(phase),
    ])
    return Trajectory(t, pts)


class TestTrajectoryToJoints:
    def test_constant_trajectory(self, model):
        pts = np.tile([110.0, 10.0, -50.0], (5, 1))
        traj = Trajectory(np.arange(5.0) * 10.0, pts)
        qs = trajectory_to_joints(model, traj)
        assert np.allclose(qs, qs[0], atol=1e-6)

    def test_arc_round_trip(self, model):
        traj = synthetic_workspace_arc(model)
        qs = trajectory_to_joints(model, traj)
        for q, p in zip(qs, traj.points):
            assert np.linalg.norm(forward_kinematics(model, q).position
                                  - p) < 1e-6

    def test_warm_start_continuity(self, model):
        traj = synthetic_workspace_arc(model)
        qs = trajectory_to_joints(model, traj)
        assert np.max(np.abs(np.diff(qs, axis=0))) < 0.1

    def test_unreachable_sample_index(self, model):
        pts = np.array([[120.0, 0.0, -60.0],
                        [model.reach_mm() * 2.0, 0.0, 0.0]])
        traj = Trajectory(np.array([0.0, 10.0]), pts)
        with pytest.raises(NotReachable) as err:
            trajectory_to_joints(model, traj)
        assert err.value.sample_index == 1


def scalar_joints(model, traj, q0=None, tol_mm=IK_TOL_MM):
    """Oracle: one scalar inverse_kinematics call per sample, each warm
    started from the sample before (the loop trajectory_to_joints ran
    before it solved in batches)."""
    q = 0.5 * (model.lower + model.upper) if q0 is None \
        else np.asarray(q0, dtype=float).copy()
    out = np.empty((len(traj), 4))
    for i, p in enumerate(traj.points):
        try:
            q = inverse_kinematics(model, p, q, tol_mm).q
        except NotReachable as err:
            raise NotReachable(err.residual_mm, err.iterations,
                               sample_index=i) from None
        out[i] = q
    return out


def planar_leg(links, limits_deg, offsets=(0.0,) * 4):
    rows = tuple(DHRow(a, o) for a, o in zip(links, offsets))
    return LegModel(rows, tuple((math.radians(lo), math.radians(hi))
                                for lo, hi in limits_deg))


@st.composite
def planar_legs(draw, widest_deg=179.0):
    """Yaw + planar-3R legs: links of 5 to 150 mm, limits within
    +-widest_deg, theta offsets in [-pi, pi]."""
    links = [draw(st.floats(5.0, 150.0)) for _ in range(4)]
    offsets = [draw(st.sampled_from([0.0, draw(st.floats(-math.pi,
                                                         math.pi))]))
               for _ in range(4)]
    limits = []
    for _ in range(4):
        lo = draw(st.floats(-widest_deg, widest_deg - 1.0))
        limits.append((lo, draw(st.floats(lo + 1.0, widest_deg))))
    return planar_leg(links, limits, offsets)


def joint_path(model, seed, n, wiggle):
    """FK of a smooth joint path between two random in-limit points."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(model.lower, model.upper, (2, 4))
    s = np.linspace(0.0, 1.0, n)[:, None]
    q = a + (b - a) * (3 * s ** 2 - 2 * s ** 3) + wiggle * np.sin(
        2 * np.pi * rng.uniform(0.5, 3.0) * s) * (model.upper - model.lower)
    q = np.clip(q, model.lower, model.upper)
    return Trajectory(np.arange(n) * 10.0,
                      forward_kinematics(model, q).position)


def count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to log each call's arguments; returns the
    log."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def retarget_step(seed, k, n=40):
    """A beetle step retargeted onto the default leg, shaped as a
    ``leg --retarget`` input is: a stance stroke, then a swing arc, from
    a home tip at a random pose, scaled x8 about that tip."""
    rng = np.random.default_rng([seed, k])
    home = forward_kinematics(LEG, rng.uniform(
        (-0.5, -0.3, -1.2, -1.4), (0.5, 0.3, -0.6, -0.8))).position
    stroke, lift = rng.uniform(2.0, 4.0), rng.uniform(0.6, 1.2)
    heading = rng.uniform(-math.pi, math.pi)
    phase = np.arange(n) / (n - 1)
    stance = phase < 0.6
    along = np.where(stance, -stroke * phase / 0.6,
                     -stroke + stroke * (phase - 0.6) / 0.4)
    up = np.where(stance, 0.0, lift * np.sin(math.pi * (phase - 0.6) / 0.4))
    pts = home + np.column_stack([along * math.cos(heading),
                                  along * math.sin(heading), up])
    return retarget_trajectory(Trajectory(np.arange(n) * 10.0, pts))


# the most rounds past sample 0 any retarget step of seeds 11 and 41
# took when this guard was set (1.09 per step on average)
MAX_STEP_ROUNDS = 3


def later_rounds(rounds):
    """The logged ``_PathCandidates.round`` calls past sample 0."""
    return [args for args in rounds if args[1] > 0]


def stretch_path(model, straight=(0.0, 1.0), n=135):
    """FK of a path whose femur and tibia are straight over the fraction
    ``straight`` of it and bend away from it: every pick there has its
    elbow at the acos edge."""
    s = np.linspace(0.0, 1.0, n)
    knee = 1.2 * np.maximum(np.maximum(straight[0] - s, s - straight[1]), 0.0)
    q = np.column_stack([0.6 * np.sin(2 * np.pi * s), -0.4 + 0.8 * s,
                         -knee, 2.0 * knee])
    return Trajectory(np.arange(n) * 10.0,
                      forward_kinematics(model, q).position)


def solve_both(model, traj, q0=None, tol_mm=IK_TOL_MM):
    """(joints or the NotReachable fields) from the oracle and the
    batched path."""
    out = []
    for solve in (scalar_joints, trajectory_to_joints):
        try:
            out.append(solve(model, traj, q0, tol_mm))
        except NotReachable as err:
            out.append((err.sample_index, err.residual_mm, err.iterations))
    return out


class TestBatchedJointPath:
    """trajectory_to_joints solves in batches; the scalar loop is the
    oracle: the same joints bit for bit, the same NotReachable."""

    @settings(max_examples=150, deadline=None)
    @given(model=planar_legs(), seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(2, 60), wiggle=st.sampled_from([0.0, 0.02, 0.2]),
           cold=st.booleans(), tol=st.sampled_from([IK_TOL_MM, 0.5, 5.0]),
           hold=st.tuples(st.integers(0, 59), st.integers(0, 30)),
           far=st.one_of(st.none(), st.integers(0, 59)))
    def test_matches_the_scalar_loop(self, model, seed, n, wiggle, cold, tol,
                                     hold, far):
        traj = joint_path(model, seed, n, wiggle)
        start, length = hold
        traj.points[start:start + length] = traj.points[min(start, n - 1)]
        if far is not None:
            traj.points[far % n] = (2.0 * model.reach_mm(), 0.0, 0.0)
        q0 = None if cold else np.random.default_rng(seed).uniform(
            model.lower, model.upper)
        oracle, batched = solve_both(model, traj, q0, tol_mm=tol)
        if isinstance(oracle, tuple):
            assert batched == oracle
        else:
            assert np.array_equal(batched, oracle)

    def test_solves_most_samples_in_batches(self, model, monkeypatch):
        # a smooth path: one pick, one round past it, no scalar solve
        traj = synthetic_workspace_arc(model)
        rounds = count_calls(monkeypatch, leg._PathCandidates, "round")
        calls = count_calls(monkeypatch, leg, "inverse_kinematics")
        qs = trajectory_to_joints(model, traj)
        monkeypatch.undo()
        assert len(later_rounds(rounds)) == 1 and calls == []
        assert np.array_equal(qs, scalar_joints(model, traj))

    @pytest.mark.parametrize("seed", [11, 41])
    def test_retarget_steps_are_batched(self, model, monkeypatch, seed):
        # the traffic of leg --retarget --to-joints: 40 bench-shaped steps
        most = 0
        for k in range(40):
            traj = retarget_step(seed, k)
            rounds = count_calls(monkeypatch, leg._PathCandidates, "round")
            scalar = count_calls(monkeypatch, leg, "inverse_kinematics")
            qs = trajectory_to_joints(model, traj)
            monkeypatch.undo()
            assert scalar == []
            assert np.array_equal(qs, scalar_joints(model, traj))
            most = max(most, len(later_rounds(rounds)))
        assert most <= MAX_STEP_ROUNDS

    @pytest.mark.parametrize("straight", [(0.0, 1.0), (0.0, 0.3),
                                          (0.45, 0.55)])
    def test_a_stretched_leg_is_batched(self, model, monkeypatch, straight):
        # a straight elbow is a pick like any other: the batch takes it,
        # with no scalar solve, as the scalar loop does to the bit
        traj = stretch_path(model, straight)
        scalar = count_calls(monkeypatch, leg, "inverse_kinematics")
        qs = trajectory_to_joints(model, traj)
        monkeypatch.undo()
        assert scalar == []
        assert np.array_equal(qs, scalar_joints(model, traj))

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_a_smooth_joint_path_is_batched(self, model, monkeypatch, seed):
        # some of these meet a straight elbow midway
        traj = joint_path(model, seed, 120, 0.05)
        scalar = count_calls(monkeypatch, leg, "inverse_kinematics")
        qs = trajectory_to_joints(model, traj)
        monkeypatch.undo()
        assert scalar == []
        assert np.array_equal(qs, scalar_joints(model, traj))

    @pytest.mark.parametrize("n", [0, 1])
    def test_short_path(self, model, n):
        traj = synthetic_workspace_arc(model)
        traj = Trajectory(traj.t_ms[:n], traj.points[:n])
        qs = trajectory_to_joints(model, traj)
        assert qs.shape == (n, 4)
        assert np.array_equal(qs, scalar_joints(model, traj))

    def test_not_reachable_mid_batch(self, model):
        traj = synthetic_workspace_arc(model)
        traj.points[70] = (model.reach_mm() * 2.0, 0.0, 0.0)
        oracle, batched = solve_both(model, traj)
        assert batched == oracle
        assert oracle[0] == 70

    @pytest.mark.parametrize("offsets", [(0.0, 0.3, -0.5, 0.0),
                                         (0.2, -1.1, 0.4, 2.5)])
    def test_theta_offsets(self, offsets):
        m = planar_leg((30.0, 25.0, 80.0, 120.0), [(-150.0, 150.0)] * 4,
                       offsets)
        traj = joint_path(m, 7, 120, 0.05)
        oracle, batched = solve_both(m, traj)
        assert np.array_equal(batched, oracle)
        assert np.all(batched >= m.lower) and np.all(batched <= m.upper)

    @pytest.mark.parametrize("which", ["wide_limits", "wide_tibia"])
    def test_scalar_geometry_is_the_scalar_loop(self, which):
        # a joint spanning a whole turn leaves the batch: the coxa or the
        # tibia, the path runs the scalar loop alone
        limits = list(LEG.joint_limits)
        limits[0 if which == "wide_limits" else 3] = (-math.pi, math.pi)
        m = LegModel(LEG.rows, limits)
        traj = synthetic_workspace_arc(m)
        oracle, batched = solve_both(m, traj)
        assert np.array_equal(batched, oracle)

    def test_constant_run_repeats_the_row(self, model):
        traj = synthetic_workspace_arc(model)
        traj.points[40:90] = traj.points[40]
        oracle, batched = solve_both(model, traj)
        assert np.array_equal(batched, oracle)
        assert (batched[40:90] == batched[40]).all()


# the numpy functions both IK paths take, with the domains they take them on
NUMPY_FUNCS = {
    "arccos": (np.arccos, st.floats(-1.0, 1.0)),
    "arctan2": (np.arctan2, st.floats(-1e3, 1e3)),
    "hypot": (np.hypot, st.floats(-1e3, 1e3)),
    "cos": (np.cos, st.floats(-20.0, 20.0)),
    "sin": (np.sin, st.floats(-20.0, 20.0)),
}


class TestOneArithmetic:
    """The batched path equals the scalar loop to the bit because both
    take numpy's functions, and numpy gives an argument the same bits in
    any layout: a long contiguous array, a strided view, a 0-d array, a
    float, or the short arrays of one target's candidates.  Should a
    platform's SIMD loops break that, this names the function."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(NUMPY_FUNCS)),
           n=st.integers(1, 70))
    def test_numpy_gives_the_same_bits_in_every_layout(self, data, name, n):
        f, floats = NUMPY_FUNCS[name]
        binary = f.nin == 2
        args = [np.array(data.draw(st.lists(floats, min_size=n, max_size=n)))
                for _ in range(f.nin)]
        whole = f(*args)

        def strided(a):
            wide = np.full(3 * n + 1, 7.0)
            wide[1::3] = a
            return wide[1::3]

        layouts = {
            "strided": f(*map(strided, args)),
            "0-d": np.array([f(*(np.array(a[i]) for a in args))
                             for i in range(n)]),
            "float": np.array([f(*(float(a[i]) for a in args))
                               for i in range(n)]),
            "7-element chunk": np.concatenate(
                [f(*(a[k:k + 7] for a in args)) for k in range(0, n, 7)]),
            "offset chunk": np.concatenate(
                [f(*(a[:1] for a in args))]
                + [f(*(a[k:k + 5] for a in args)) for k in range(1, n, 5)]),
        }
        if binary:
            # one argument a float, as a plane's z against its u
            layouts["broadcast float"] = np.array(
                [f(args[0][i], args[1]).tolist()[i] for i in range(n)])
        for layout, got in layouts.items():
            bad = np.flatnonzero(got != whole)
            assert bad.size == 0, (
                f"np.{name} gives other bits in a {layout} layout than in a "
                f"contiguous array of {n}: at "
                f"{[a[bad[0]] for a in args]} {got[bad[0]]!r} != "
                f"{whole[bad[0]]!r}")


class TestArcMeetingPoint:
    """Where b_out clamps to pi the two trochanter arcs meet; the point
    they share is one candidate, on the scalar and the batched path."""

    @settings(max_examples=200, deadline=None)
    @given(links=st.tuples(*(st.floats(5.0, 150.0) for _ in range(3))),
           frac=st.floats(0.001, 0.999), phi=st.floats(-math.pi, math.pi),
           lo=st.floats(-179.0, 178.0), span=st.floats(1.0, 358.0),
           warm=st.floats(-math.pi, math.pi))
    def test_the_meeting_point_is_one_candidate(self, links, frac, phi, lo,
                                                span, warm):
        a1, a2, a3 = links
        assume(a2 + a3 - a1 > 1.0)
        # rho + a1 <= a2 + a3: every trochanter angle keeps the wrist
        # within the femur and tibia's outer reach
        rho = frac * (a2 + a3 - a1)
        lo1 = math.radians(lo)
        hi1 = math.radians(min(lo + span, 179.0))
        limits = [None, (lo1, hi1)]
        meets = [phi + math.pi + k * math.tau for k in (-2, -1, 0, 1)]
        meets = [m for m in meets if lo1 < m < hi1]
        # the warm angle and the limits are candidates of their own
        assume(all(abs(c - m) > 1e-6 for m in meets for c in (warm, lo1, hi1)))
        held, angles = leg._arc_angles((0.0, a1, a2, a3), limits, rho, phi,
                                       warm)
        for m in meets:
            # the arcs' ends there are bitwise one angle: one candidate
            assert len({a for a in angles if abs(a - m) < 1e-9}) == 1
        lo_w, hi_w, kept, ends_w = leg._arc_windows(
            (0.0, a1, a2, a3), limits, np.array([[rho]]), np.array([[phi]]))
        # the scalar and the batched arc ends are the same, to the bit
        assert angles == ends_w[np.repeat(kept, 2, axis=-1)].tolist()
        assert held == bool((kept & (lo_w <= warm) & (warm <= hi_w)).any())
        # the windows run arc-major, then by shift
        lo_w, hi_w = lo_w.reshape(2, -1), hi_w.reshape(2, -1)
        for k, v in enumerate(hi_w[0].tolist()):
            if lo1 < v < hi1:
                # arc 0's end, one turn on, is arc 1's start to the bit
                assert lo_w[1, k + 1] == v
                assert v in angles


def in_limits(model):
    return st.tuples(*(st.floats(lo, hi) for lo, hi in model.joint_limits))


@st.composite
def fk_images(draw, widest_deg=179.0):
    """A leg, an in-limit pose (whose FK image is the target) and an
    in-limit warm start."""
    model = draw(planar_legs(widest_deg))
    return model, draw(in_limits(model)), draw(in_limits(model))


def lands_from_the_warm_start(model, q, warm):
    target = forward_kinematics(model, np.array(q)).position
    off = [r.theta_offset for r in model.rows]
    found = leg._closed_form(
        tuple(r.a for r in model.rows),
        [(lo + o, hi + o) for (lo, hi), o in zip(model.joint_limits, off)],
        target.tolist(), [w + o for w, o in zip(warm, off)], IK_TOL_MM)
    assert found.residual_mm < IK_TOL_MM


# a pose at full stretch with the trochanter, femur and tibia on their
# lower limits, the tibia's 1e-6 degrees off straight: arccos cannot put
# a candidate's trochanter within 1.5e-8 rad of that limit nor its tibia
# off straight, and 1.5e-8 rad there is a 1.01e-6 mm miss
STRETCHED = planar_leg((5.0, 5.0, 5.0, 58.0),
                       ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (1e-6, 2.0)))
STRETCHED_Q = [0.0, 0.0, 0.0, STRETCHED.joint_limits[3][0]]


class TestClosedFormCompleteness:
    @settings(max_examples=300, deadline=None)
    @given(case=fk_images())
    @example(case=(STRETCHED, STRETCHED_Q, [0.0, 0.0, 0.0, 0.03125]))
    def test_fk_images_always_land(self, case):
        # the closed form finds every in-limit pose from any warm start
        lands_from_the_warm_start(*case)

    @settings(max_examples=150, deadline=None)
    @given(case=fk_images(widest_deg=400.0))
    def test_fk_images_land_on_joints_spanning_turns(self, case):
        # where a joint spans a turn or more, two representatives of an
        # angle can fit its limits: the one nearest the warm angle is
        # wrapped a turn toward the limits when it misses them
        lands_from_the_warm_start(*case)


class TestFullStretch:
    @pytest.mark.parametrize("free", [(), (1, 2)])
    def test_lands_from_every_warm_start(self, free):
        # the tibia held on its limit re-aims the femur; on STRETCHED that
        # puts the femur on its own limit, which re-aims the trochanter
        # onto its limit; with the two free of limits, the femur's re-aim
        # is enough
        model = LegModel(STRETCHED.rows, [
            (-0.02, 0.02) if j in free else limits
            for j, limits in enumerate(STRETCHED.joint_limits)])
        target = forward_kinematics(model, np.array(STRETCHED_Q)).position
        for warm in itertools.product(*(np.linspace(lo, hi, 3) for lo, hi
                                        in model.joint_limits)):
            r = inverse_kinematics(model, target, warm)
            assert r.residual_mm < IK_TOL_MM
        assert leg._reaches(model, target[None], IK_TOL_MM).all()

    def test_a_pin_within_rounding_of_straight_is_kept(self):
        # the tibia pin's cos(beta) is 1 + 2.4e-15 here: it is taken
        # onto 1, as an arc end's is, not dropped
        target = forward_kinematics(STRETCHED, np.array(STRETCHED_Q)).position
        links = tuple(r.a for r in STRETCHED.rows)
        u = np.array([target[0] - links[0]])
        rho, phi = np.hypot(u, target[2]), np.arctan2(target[2], u)
        with np.errstate(invalid="ignore"):
            q1, ok = leg._pinned_batch(links, list(STRETCHED.joint_limits),
                                       rho, phi)
        assert ok[0, :2].all()
        assert q1[0, 0] == q1[0, 1] == phi[0]


# the default leg with no trochanter length: the trochanter then only
# turns the femur-tibia pair about its own axis
NO_TROCHANTER = LegModel((LEG.rows[0], DHRow(0.0), *LEG.rows[2:]),
                         LEG.joint_limits)


class TestZeroTrochanter:
    @settings(max_examples=150, deadline=None)
    @given(q=in_limits(NO_TROCHANTER), warm=in_limits(NO_TROCHANTER))
    def test_fk_images_land(self, q, warm):
        lands_from_the_warm_start(NO_TROCHANTER, q, warm)

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_batched_path_matches_the_scalar_loop(self, seed):
        traj = joint_path(NO_TROCHANTER, seed, 60, 0.02)
        oracle, batched = solve_both(NO_TROCHANTER, traj)
        assert np.array_equal(batched, oracle)


def ik_lands(model, target, warm):
    try:
        inverse_kinematics(model, target, warm)
    except NotReachable:
        return False
    return True


class TestReaches:
    """``leg._reaches`` is True exactly where warm-started IK lands a
    target, from any warm start in the limits."""

    @settings(max_examples=200, deadline=None)
    @given(model=st.one_of(st.sampled_from([LEG, OFFSET_LEG]), planar_legs()),
           data=st.data())
    def test_true_exactly_where_the_ik_lands(self, model, data):
        reach = model.reach_mm()
        images = data.draw(st.lists(in_limits(model), max_size=6))
        box = data.draw(st.lists(st.tuples(*[st.floats(-reach, reach)] * 3),
                                 max_size=6))
        targets = np.array(
            [forward_kinematics(model, np.array(q)).position for q in images]
            + box).reshape(-1, 3)
        reached = leg._reaches(model, targets, IK_TOL_MM)
        assert reached.shape == (len(targets),)
        for target, want in zip(targets, reached.tolist()):
            if not target[:2].any():
                # the z axis is left to the joint path (see below)
                assert not want
                continue
            for _ in range(2):
                warm = np.array(data.draw(in_limits(model)))
                assert ik_lands(model, target, warm) == want

    def test_a_target_on_the_z_axis_is_left_to_the_joint_path(self):
        # its yaw is the warm start's, so no warm-free test is sound there
        target = np.array([0.0, 0.0, -100.0])
        assert ik_lands(LEG, target, 0.5 * (LEG.lower + LEG.upper))
        assert not leg._reaches(LEG, target[None], IK_TOL_MM).any()

    def test_a_joint_spanning_a_turn_is_left_to_the_joint_path(self):
        model = planar_leg((30.0, 25.0, 80.0, 120.0),
                           ((-200.0, 200.0), (-150.0, 150.0),
                            (-150.0, 150.0), (-150.0, 150.0)))
        targets = forward_kinematics(
            model, np.zeros((3, 4)) + [0.0, 0.2, -0.3, 0.4]).position
        assert not leg._reaches(model, targets, IK_TOL_MM).any()
        assert trajectory_to_joints(
            model, Trajectory(np.arange(3.0), targets)).shape == (3, 4)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(36)
        traj = Trajectory(np.arange(7.0) * 10.0, rng.uniform(-5, 5, (7, 3)))
        path = tmp_path / "traj.csv"
        save_trajectory(path, traj)
        back = load_trajectory(path)
        assert np.array_equal(back.t_ms, traj.t_ms)
        assert np.array_equal(back.points, traj.points)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y,z\n0,1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_trajectory(path)

    @pytest.mark.parametrize("row, match", [
        ("10.0,1,2", "row 3: expected 4 fields, got 3"),
        ("10.0,1,2,z", "row 3: not a finite number"),
        ("10.0,1,inf,3", "row 3: not a finite number"),
        ("nan,1,2,3", "row 3: not a finite number"),
    ])
    def test_rejects_bad_rows_by_row(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text(f"t_ms,x_mm,y_mm,z_mm\n0.0,1,2,3\n{row}\n")
        with pytest.raises(ValueError, match=match):
            load_trajectory(path)

    def test_trajectory_requires_increasing_time(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)))


class TestModelValidation:
    def test_limits_are_stored_read_only(self):
        assert LEG.lower is LEG.lower
        assert LEG.upper is LEG.upper
        for limits in (LEG.lower, LEG.upper):
            with pytest.raises(ValueError):
                limits[0] = 0.0

    def test_needs_four_rows(self):
        rows = (DHRow(1.0),) * 3
        with pytest.raises(ValueError):
            LegModel(rows, ((-1.0, 1.0),) * 3)

    def test_limits_ordered(self):
        rows = (DHRow(1.0),) * 4
        with pytest.raises(ValueError):
            LegModel(rows, ((1.0, -1.0),) * 4)

    def test_dh_row_finite(self):
        with pytest.raises(ValueError):
            DHRow(math.nan)
        with pytest.raises(ValueError):
            DHRow(1.0, math.inf)
        with pytest.raises(ValueError):
            DHRow(-1.0)
        with pytest.raises(TypeError):
            DHRow("25")

    def test_numpy_scalar_parameters_are_taken_as_floats(self):
        # numpy scalars in a row once made the IK's arc test a numpy bool,
        # which cannot repeat a list
        row = DHRow(np.float64(25.0), np.float64(0.3))
        assert type(row.a) is float and type(row.theta_offset) is float
        m = LegModel((LEG.rows[0], row, *LEG.rows[2:]), tuple(
            (-0.5, 0.5) if j == 1 else limits
            for j, limits in enumerate(LEG.joint_limits)))
        rng = np.random.default_rng(7)
        for q in rng.uniform(m.lower, m.upper, (60, 4)):
            target = forward_kinematics(m, q).position
            r = inverse_kinematics(m, target, 0.5 * (m.lower + m.upper))
            assert r.residual_mm < IK_TOL_MM

    @pytest.mark.parametrize("joint", [2, 3])
    def test_femur_and_tibia_need_a_length(self, joint):
        # the closed form closes the loop with the femur and the tibia;
        # the coxa and the trochanter may have no length
        rows = [DHRow(0.0), DHRow(0.0), DHRow(80.0), DHRow(120.0)]
        LegModel(rows, LEG.joint_limits)
        rows[joint] = DHRow(0.0)
        with pytest.raises(ValueError, match=f"{leg.JOINT_NAMES[joint]} "
                                             f"link length a must be > 0"):
            LegModel(rows, LEG.joint_limits)
