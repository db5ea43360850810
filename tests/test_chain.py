"""Tarsal chain kinematics against a brute-force planar construction.

The oracle never uses the closed-form span equations: it places the guide
holes explicitly, rotates the distal anchor with a 2D rotation matrix and
measures Euclidean distances.
"""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tarsim.chain import (ChainGeometry, ChainSolveError, ChainState,
                          SegmentGeometry, _bend_pull, _pull_and_slope,
                          bend_angles, chain_pose, chain_pull,
                          default_chain_geometry, full_bend_pull,
                          max_chain_pull, rest_state, restoring_force,
                          segment_pull, solve_bend_from_pull,
                          stiffness_curve, total_bend_angle)
from tarsim.contact import DEFAULT_CLAW_MAX_OPENING, ForceLimits, claw_offset


def oracle_joint(radius, anchor_long, anchor_trans, rest_span, alpha):
    """Planar construction: chord, bent span and pull, no trig identities.

    Joint centre at the origin; distal guide hole A at (0, -radius);
    proximal guide hole B a distance rest_span from A along the direction
    (-anchor_long, +anchor_trans); bending rotates A clockwise by alpha.
    """
    radius = np.asarray(radius, dtype=float)
    A = np.stack([np.zeros_like(radius), -radius], axis=-1)
    u = np.stack([-np.asarray(anchor_long, dtype=float),
                  np.asarray(anchor_trans, dtype=float)], axis=-1)
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    B = A + np.asarray(rest_span, dtype=float)[..., None] * u
    c, s = np.cos(-np.asarray(alpha)), np.sin(-np.asarray(alpha))
    A2 = np.stack([c * A[..., 0] - s * A[..., 1],
                   s * A[..., 0] + c * A[..., 1]], axis=-1)
    chord = np.linalg.norm(A2 - A, axis=-1)
    span = np.linalg.norm(B - A2, axis=-1)
    return chord, span, np.asarray(rest_span) - span


def oracle_beta(radius, anchor_long, anchor_trans, alpha):
    """Signed angle from the chord direction to the string direction."""
    A = np.array([0.0, -radius])
    u = np.array([-anchor_long, anchor_trans])
    c, s = math.cos(-alpha), math.sin(-alpha)
    A2 = np.array([c * A[0] - s * A[1], s * A[0] + c * A[1]])
    chord = A2 - A
    ang = math.atan2(u[1], u[0]) - math.atan2(chord[1], chord[0])
    return math.atan2(math.sin(ang), math.cos(ang))


def random_geometries(rng, n):
    radius = rng.uniform(0.5, 5.0, n)
    anchor_long = rng.uniform(0.5, 6.0, n)
    anchor_trans = rng.uniform(0.0, 3.0, n)
    rest_span = rng.uniform(0.5, 8.0, n)
    alpha_max = rng.uniform(0.05, 0.95 * math.pi / 2, n)
    alpha = rng.uniform(0.0, 1.0, n) * alpha_max
    return radius, anchor_long, anchor_trans, rest_span, alpha_max, alpha


def collinear_joint(radius, alpha):
    """A joint whose pull angle is zero at the bend ``alpha``: there the
    string runs along the chord, so the pull across it is the chord."""
    return SegmentGeometry(radius, 3.0, 3.0 * math.tan(alpha / 2.0), 1.5,
                           rest_span=10.0)


def law_of_cosines_pull(radius, rest_span, beta, alpha):
    """d1 - d2, d2 from the law of cosines on the chord and the rest span
    with the pull angle ``beta`` between them."""
    l = 2.0 * radius * math.sin(alpha / 2.0)
    return rest_span - math.sqrt(rest_span ** 2 + l * l
                                 - 2.0 * rest_span * l * math.cos(beta))


class TestChordLength:
    """The chord 2 R sin(alpha / 2) the distal guide hole travels, read
    through ``segment_pull`` on joints whose string runs along it."""

    def test_zero_bend_is_zero(self):
        assert segment_pull(collinear_joint(3.7, 0.0), 0.0) == 0.0

    def test_quarter_turn(self):
        # past every joint's bend range (max_bend < pi/2), so on the pull
        # law itself: a zero pull angle makes the pull the chord
        pull = _pull_and_slope(1.7, 10.0, math.pi / 4, math.pi / 2)[0]
        assert pull == pytest.approx(2.4041630560342617, abs=1e-12)

    def test_against_rotation_oracle(self):
        # frozen from the explicit 2D-rotation oracle
        assert segment_pull(collinear_joint(1.0, 0.41), 0.41) == \
            pytest.approx(0.40713431980955594, abs=1e-12)

    def test_monotone_on_range(self):
        a = np.linspace(0.0, 1.5, 500)
        l = [segment_pull(collinear_joint(2.0, x), x) for x in a]
        assert np.all(np.diff(l) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            collinear_joint(-1.0, 0.5)
        with pytest.raises(ValueError):
            segment_pull(collinear_joint(1.0, 0.5), -0.1)
        with pytest.raises(ValueError):
            segment_pull(collinear_joint(1.0, 0.5), math.pi)


class TestPullAngle:
    """The pull angle alpha/2 - atan(anchor_trans / anchor_long) between
    the chord and the rest string, read through ``segment_pull``."""

    def test_zero(self):
        assert segment_pull(SegmentGeometry(2.0, 3.0, 0.0, 1.0), 0.0) == 0.0

    def test_no_transverse_offset(self):
        # the pull angle is alpha / 2
        assert segment_pull(SegmentGeometry(2.0, 3.0, 0.0, 1.0), 0.84) == \
            pytest.approx(law_of_cosines_pull(2.0, 3.0, 0.42, 0.84),
                          abs=1e-12)

    def test_direct_value(self):
        assert segment_pull(SegmentGeometry(2.0, 3.0, 1.0, 1.0), 0.41) == \
            pytest.approx(law_of_cosines_pull(2.0, math.hypot(3.0, 1.0),
                                              -0.1167505543966422, 0.41),
                          abs=1e-12)

    def test_matches_geometric_angle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = rng.uniform(0.5, 5.0)
            h1 = rng.uniform(0.5, 6.0)
            h2 = rng.uniform(0.0, 3.0)
            a = rng.uniform(1e-6, 1.4)
            g = SegmentGeometry(r, h1, h2, 1.4)
            assert segment_pull(g, a) == pytest.approx(law_of_cosines_pull(
                r, g.rest_span, oracle_beta(r, h1, h2, a), a), abs=1e-9)

    def test_requires_positive_h1(self):
        with pytest.raises(ValueError):
            SegmentGeometry(2.0, 0.0, 1.0, 0.3)


class TestSegmentSpanAndPull:
    def test_rest_span_at_zero(self):
        g = SegmentGeometry(2.0, 3.0, 0.5, 0.4)
        assert segment_pull(g, 0.0) == 0.0  # the span is the rest span

    def test_collinear_case(self):
        # anchor_trans chosen so beta hits zero at alpha*: span is |d1 - l|
        alpha_star = 0.6
        h1, h2 = 3.0, 3.0 * math.tan(alpha_star / 2)
        g = SegmentGeometry(2.0, h1, h2, 0.7)
        l = 2.0 * 2.0 * math.sin(alpha_star / 2)
        assert g.rest_span - segment_pull(g, alpha_star) == pytest.approx(
            abs(g.rest_span - l), abs=1e-12)

    def test_pull_zero_exactly_for_any_geometry(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            g = SegmentGeometry(rng.uniform(0.5, 5), rng.uniform(0.5, 6),
                                rng.uniform(0, 3), rng.uniform(0.05, 1.5))
            assert segment_pull(g, 0.0) == 0.0

    def test_against_planar_oracle(self):
        rng = np.random.default_rng(21)
        r, h1, h2, d1, amax, a = random_geometries(rng, 2000)
        _, span_o, pull_o = oracle_joint(r, h1, h2, d1, a)
        for i in range(2000):
            g = SegmentGeometry(r[i], h1[i], h2[i], amax[i], rest_span=d1[i])
            pull = segment_pull(g, a[i])
            assert d1[i] - pull == pytest.approx(span_o[i], abs=1e-9)
            assert pull == pytest.approx(pull_o[i], abs=1e-9)

    def test_alpha_out_of_range(self):
        g = SegmentGeometry(2.0, 3.0, 0.5, 0.4)
        with pytest.raises(ValueError):
            segment_pull(g, 0.5)


class TestDefaultGeometry:
    def test_five_segments(self):
        g = default_chain_geometry()
        assert len(g.segments) == 5

    def test_bend_budget(self):
        g = default_chain_geometry()
        assert math.degrees(g.max_bend.sum()) == pytest.approx(65.8, abs=1e-9)
        assert math.degrees(g.segments[-1].max_bend) == pytest.approx(23.5)

    def test_full_bend_pull_is_calibrated(self):
        assert full_bend_pull(default_chain_geometry()) == pytest.approx(
            5.5, abs=1e-9)

    def test_measured_capacity_with_slack(self):
        g = default_chain_geometry(socket_slack=True)
        assert max_chain_pull(g) == pytest.approx(13.1, abs=1e-9)
        assert g.socket_slack[1] == pytest.approx(2.9, abs=1e-12)

    # repr of (radius, anchor_long, anchor_trans, max_bend, rest_span,
    # axial_cap) of each calibrated segment; the socket slack only adds
    # capacity, so both chains have these segments
    CALIBRATED = [
        ("5.9565580637406415", "7.624394321588021", "1.1913116127481282",
         "0.18456856839840033", "7.71690431000231", "1.07"),
        ("5.48003341864139", "7.147869676488769", "1.0721804514733155",
         "0.18456856839840033", "7.227835902439208", "0.74"),
        ("5.003508773542139", "6.671345031389518", "0.9530492901985026",
         "0.18456856839840033", "6.7390761590438695", "1.9"),
        ("4.526984128442887", "6.194820386290267", "0.8339181289236898",
         "0.18456856839840033", "6.250697486212645", "0.31"),
        ("4.050459483343636", "5.718295741191016", "0.714786967648877",
         "0.41015237421866746", "5.7627967683099826", "0.68"),
    ]

    @pytest.mark.parametrize("slack, capacity", [(False, "10.2"),
                                                 (True, "13.1")])
    def test_calibration_bit_for_bit(self, slack, capacity):
        g = default_chain_geometry(slack)
        assert [tuple(repr(getattr(seg, f.name)) for f in fields(seg))
                for seg in g.segments] == self.CALIBRATED
        assert repr(full_bend_pull(g)) == "5.5"
        assert repr(max_chain_pull(g)) == capacity

    def test_segment_pull_monotone(self):
        for seg in default_chain_geometry().segments:
            a = np.linspace(0.0, seg.max_bend, 400)
            assert np.all(np.diff(segment_pull(seg, a)) > 0)


class TestChainPull:
    def test_rest_is_zero(self):
        g = default_chain_geometry()
        assert chain_pull(g, rest_state(g)) == 0.0

    def test_full_bend_reaches_quoted_total(self):
        g = default_chain_geometry()
        state = ChainState(g.max_bend, np.zeros(5))
        assert chain_pull(g, state) == pytest.approx(5.5, abs=1e-9)

    def test_compression_adds_but_does_not_reach_measured_total(self):
        # measured per-segment shortenings on top of the full bend: the sum
        # documents that compression alone leaves a gap to the measured
        # 13.1 mm (socket deformation accounts for the rest)
        g = default_chain_geometry()
        comp = np.array([1.07, 0.74, 1.9, 0.31, 0.68])
        state = ChainState(g.max_bend, comp)
        total = chain_pull(g, state)
        assert total == pytest.approx(5.5 + 4.7, abs=1e-9)
        assert total < 13.1

    def test_monotone_in_each_joint(self):
        g = default_chain_geometry()
        rng = np.random.default_rng(5)
        for _ in range(50):
            frac = rng.uniform(0.0, 0.9, 5)
            theta = frac * g.max_bend
            base = chain_pull(g, ChainState(theta, np.zeros(5)))
            for i in range(5):
                bumped = theta.copy()
                bumped[i] += 0.05 * g.max_bend[i]
                assert chain_pull(g, ChainState(bumped, np.zeros(5))) > base

    def test_dimension_mismatch(self):
        g = default_chain_geometry()
        with pytest.raises(ValueError):
            chain_pull(g, ChainState(np.zeros(4), np.zeros(4)))


class TestSolveBendFromPull:
    def test_zero_gives_rest(self):
        g = default_chain_geometry()
        st = solve_bend_from_pull(g, 0.0)
        assert np.all(st.theta == 0.0) and np.all(st.compression == 0.0)

    def test_full_bend_total(self):
        g = default_chain_geometry()
        st = solve_bend_from_pull(g, 5.5)
        assert total_bend_angle(st) == pytest.approx(65.8, abs=0.1)
        assert np.allclose(st.theta, g.max_bend, atol=1e-9)

    def test_round_trip_random_pulls(self):
        g = default_chain_geometry(socket_slack=True)
        cap = max_chain_pull(g)
        rng = np.random.default_rng(9)
        for p in rng.uniform(0.0, cap, 1000):
            st = solve_bend_from_pull(g, float(p))
            assert abs(chain_pull(g, st) - p) < 1e-9

    def test_overflow_goes_to_compression_then_slack(self):
        g = default_chain_geometry(socket_slack=True)
        st = solve_bend_from_pull(g, 13.1)
        assert np.allclose(st.theta, g.max_bend, atol=1e-12)
        assert np.allclose(st.compression, g.axial_caps, atol=1e-9)
        assert st.slack[1] == pytest.approx(2.9, abs=1e-9)

    def test_excess_pull_clamps_with_warning(self):
        g = default_chain_geometry()
        with pytest.warns(UserWarning, match="clamp"):
            st = solve_bend_from_pull(g, 50.0)
        assert chain_pull(g, st) == pytest.approx(max_chain_pull(g), abs=1e-9)

    def test_non_finite_pull_rejected(self):
        g = default_chain_geometry()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_bend_from_pull(g, bad)

    def test_iteration_cap_raises(self):
        g = default_chain_geometry()
        with pytest.raises(ChainSolveError) as info:
            solve_bend_from_pull(g, 2.0, tol=1e-14, max_iter=1)
        err = info.value
        assert (err.pull, err.iterations) == (2.0, 1)
        assert err.residual >= 1e-14
        assert "2 mm" in str(err) and "1 iterations" in str(err)

    def test_small_pulls_keep_relative_precision(self):
        # the pull of a tiny bend must not be lost to cancellation
        g = default_chain_geometry()
        for p in (1e-10, 1e-8, 1e-6):
            st = solve_bend_from_pull(g, p, tol=1e-6 * p)
            assert chain_pull(g, st) == pytest.approx(p, rel=1e-6)

    def test_converges_in_few_iterations(self):
        # Newton from the linear guess; bisection alone needs about 30
        g = default_chain_geometry()
        for p in (0.01, 1.0, 2.75, 4.0, 5.49):
            st = solve_bend_from_pull(g, p, tol=1e-12, max_iter=8)
            assert abs(chain_pull(g, st) - p) < 1e-12

    def test_geometry_arrays_are_stored_read_only(self):
        g = default_chain_geometry()
        assert g.max_bend is g.max_bend
        assert g.axial_caps is g.axial_caps
        with pytest.raises(ValueError):
            g.max_bend[0] = 0.0

    def test_identity_on_reachable_states(self):
        # states on the solver's distribution path map back to themselves
        g = default_chain_geometry(socket_slack=True)
        rng = np.random.default_rng(23)
        for p in rng.uniform(0.0, max_chain_pull(g), 200):
            st = solve_bend_from_pull(g, float(p))
            st2 = solve_bend_from_pull(g, chain_pull(g, st))
            assert np.allclose(st2.theta, st.theta, atol=1e-7)
            assert np.allclose(st2.compression, st.compression, atol=1e-7)
            assert np.allclose(st2.slack, st.slack, atol=1e-7)


@st.composite
def monotone_chains(draw):
    """Valid five-segment chains whose pull rises with every joint's bend.

    A joint's pull rises on [0, max_bend] exactly when
    rest_span * cos(max_bend - atan2(anchor_trans, anchor_long)) exceeds
    radius * sin(max_bend); the radius is drawn below that bound.
    """
    segments = []
    for _ in range(5):
        h1 = draw(st.floats(0.5, 6.0))
        h2 = draw(st.floats(0.0, 3.0))
        derived = draw(st.booleans())
        d1 = math.hypot(h1, h2) if derived else draw(st.floats(0.5, 8.0))
        amax = draw(st.floats(0.05, 0.95 * math.pi / 2))
        bound = d1 * math.cos(amax - math.atan2(h2, h1)) / math.sin(amax)
        radius = min(5.0, draw(st.floats(0.05, 0.9)) * bound)
        segments.append(SegmentGeometry(
            radius, h1, h2, amax, rest_span=None if derived else d1,
            axial_cap=draw(st.floats(0.0, 2.0))))
    slack = draw(st.lists(st.floats(0.0, 3.0), min_size=5, max_size=5))
    return ChainGeometry(segments=tuple(segments), socket_slack=tuple(slack))


class TestPullMapProperties:
    @settings(max_examples=60, deadline=None)
    @given(monotone_chains(), st.floats(0.0, 1.0))
    def test_solve_then_pull_round_trips(self, g, frac):
        pull = frac * max_chain_pull(g)
        st_ = solve_bend_from_pull(g, pull)
        assert abs(chain_pull(g, st_) - pull) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(monotone_chains())
    def test_bend_pull_strictly_increasing_in_s(self, g):
        pulls = [chain_pull(g, ChainState(s * g.max_bend, np.zeros(5)))
                 for s in np.linspace(0.0, 1.0, 41)]
        assert np.all(np.diff(pulls) > 0)

    @settings(max_examples=60, deadline=None)
    @given(monotone_chains(), st.floats(0.01, 0.99))
    def test_slope_matches_central_difference(self, g, s):
        h = 1e-6
        _, slope = _bend_pull(g, s)
        numeric = (_bend_pull(g, s + h)[0] - _bend_pull(g, s - h)[0]) / (2 * h)
        assert slope == pytest.approx(numeric, rel=1e-6, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(monotone_chains(), st.floats(0.0, 1.0))
    def test_chain_kernel_equals_segment_sum(self, g, s):
        per_segment = sum(segment_pull(seg, s * seg.max_bend)
                          for seg in g.segments)
        assert _bend_pull(g, s)[0] == pytest.approx(per_segment, abs=1e-12)


GEOMETRIES = {slack: default_chain_geometry(socket_slack=slack)
              for slack in (False, True)}


@st.composite
def sweep_pulls(draw):
    """A default chain, either slack setting, and a shuffled pull array
    holding 0, the full-bend pull, a pull past capacity and random pulls
    up to 1.5 times the capacity."""
    g = GEOMETRIES[draw(st.booleans())]
    cap = max_chain_pull(g)
    fracs = draw(st.lists(st.floats(0.0, 1.5), max_size=40))
    pulls = [0.0, full_bend_pull(g), 1.2 * cap, *(f * cap for f in fracs)]
    return g, np.array(draw(st.permutations(pulls)))


def scalar_solves(g, pulls, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return [solve_bend_from_pull(g, float(p), **kw) for p in pulls]


class TestBendAngles:
    @settings(max_examples=60, deadline=None)
    @given(sweep_pulls())
    def test_batched_matches_scalar_solve(self, case):
        g, pulls = case
        scalar = [total_bend_angle(st_) for st_ in scalar_solves(g, pulls)]
        assert np.all(np.abs(bend_angles(g, pulls) - scalar) <= 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(sweep_pulls())
    def test_scalar_states_meet_clamped_pull(self, case):
        g, pulls = case
        tol = 1e-9
        for p, st_ in zip(pulls, scalar_solves(g, pulls, tol=tol)):
            assert abs(chain_pull(g, st_) - min(p, max_chain_pull(g))) < tol

    @settings(max_examples=60, deadline=None)
    @given(sweep_pulls())
    def test_bend_monotone_in_pull(self, case):
        g, pulls = case
        pulls = np.sort(pulls)
        assert np.all(np.diff(bend_angles(g, pulls)) >= 0)

    @settings(max_examples=40, deadline=None)
    @given(monotone_chains(), st.lists(st.floats(0.0, 1.2), max_size=20))
    def test_batched_matches_scalar_on_any_chain(self, g, fracs):
        pulls = np.array(fracs) * max_chain_pull(g)
        scalar = [total_bend_angle(st_) for st_ in scalar_solves(g, pulls)]
        assert np.all(np.abs(bend_angles(g, pulls) - scalar) <= 1e-12)

    def test_first_unconverged_pull_raises(self):
        g = default_chain_geometry()
        with pytest.raises(ChainSolveError) as info:
            bend_angles(g, [0.0, 5.5, 20.0, 2.0, 3.0], tol=1e-14, max_iter=1)
        assert (info.value.pull, info.value.iterations) == (2.0, 1)
        assert info.value.residual >= 1e-14

    def test_clamps_without_warning(self):
        g = default_chain_geometry()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bends = bend_angles(g, [50.0, max_chain_pull(g)])
        assert bends[0] == bends[1] == pytest.approx(65.8, abs=0.1)

    def test_keeps_the_input_shape(self):
        g = default_chain_geometry()
        assert bend_angles(g, []).shape == (0,)
        grid = np.linspace(0.0, 6.0, 6).reshape(2, 3)
        assert np.array_equal(bend_angles(g, grid).ravel(),
                              bend_angles(g, grid.ravel()))

    @pytest.mark.parametrize("pulls, max_iter, match", [
        ([1.0, math.nan], 200, "finite"), ([1.0, math.inf], 200, "finite"),
        ([1.0, -0.5], 200, ">= 0"), ([1.0], 0, "max_iter")])
    def test_bad_arguments_rejected(self, pulls, max_iter, match):
        with pytest.raises(ValueError, match=match):
            bend_angles(default_chain_geometry(), pulls, max_iter=max_iter)


class TestTotalBendAngle:
    def test_rest(self):
        assert total_bend_angle(rest_state(default_chain_geometry())) == 0.0

    def test_measured_fixture_sum(self):
        # bench-measured per-segment angles; plain arithmetic sum
        st = ChainState(np.radians([2.0, 13.4, 10.0, 9.9, 26.3]), np.zeros(5))
        assert total_bend_angle(st) == pytest.approx(61.6, abs=1e-9)


class TestRestoringForce:
    def test_rest_zero(self):
        g = default_chain_geometry()
        assert restoring_force(g, rest_state(g)) == 0.0

    def test_full_pull_value(self):
        g = default_chain_geometry()
        st = solve_bend_from_pull(g, 5.5)
        assert restoring_force(g, st) == pytest.approx(0.54 * 5.5, abs=1e-9)

    def test_monotone_in_pull(self):
        g = default_chain_geometry()
        pulls = np.linspace(0.0, max_chain_pull(g), 30)
        forces = [restoring_force(g, solve_bend_from_pull(g, float(p)))
                  for p in pulls]
        assert np.all(np.diff(forces) > 0)


class TestStiffnessCurve:
    def test_zero_displacement(self):
        g = default_chain_geometry()
        assert stiffness_curve(g, "flexible", [0.0]) == pytest.approx([0.0])

    def test_rigid_saturates_at_cap(self):
        g = default_chain_geometry()
        cap = ForceLimits().vertical_max
        d = np.linspace(0.0, 3.0 * cap / g.k_rigid, 200)
        f = stiffness_curve(g, "rigid", d)
        assert f[-1] == pytest.approx(2.46, abs=1e-12)
        assert np.all(f <= 2.46 + 1e-12)

    def test_slope_ordering_everywhere_below_saturation(self):
        g = default_chain_geometry()
        d = np.linspace(0.0, ForceLimits().vertical_max / g.k_rigid, 100)
        fr = stiffness_curve(g, "rigid", d)
        ff = stiffness_curve(g, "flexible", d)
        slopes_r, slopes_f = np.diff(fr) / np.diff(d), np.diff(ff) / np.diff(d)
        assert np.all(slopes_r > slopes_f)

    def test_constructor_enforces_ordering(self):
        g = default_chain_geometry()
        with pytest.raises(ValueError):
            ChainGeometry(segments=g.segments, k_flex=1.0, k_rigid=0.5)

    def test_rejects_unsorted(self):
        g = default_chain_geometry()
        with pytest.raises(ValueError):
            stiffness_curve(g, "rigid", [1.0, 0.5])


class TestClawActuation:
    """The claw in the two actuation states the sim uses."""

    def test_no_pull_closed(self):
        # flexible: the chain at rest with the claw in line with it
        g = default_chain_geometry()
        dx, dz = claw_offset(g, "flexible", 8.0)
        assert dx == pytest.approx(sum(g.segment_lengths) + 8.0, abs=1e-12)
        assert dz == 0.0

    @pytest.mark.parametrize("socket_slack", [False, True])
    @pytest.mark.parametrize("mode", ["rigid", "flexible"])
    @pytest.mark.parametrize("claw_length", [8.0, 3.3, 0.0])
    def test_offset_is_the_checked_pose_bit_for_bit(self, socket_slack, mode,
                                                    claw_length):
        # the reference builds the state and goes through chain_pose's
        # checks, as claw_offset did before it called the pose kernel
        g = default_chain_geometry(socket_slack=socket_slack)
        rigid = mode == "rigid"
        theta = g.max_bend if rigid else np.zeros(len(g.segments))
        heading = -float(np.sum(theta)) - (
            DEFAULT_CLAW_MAX_OPENING if rigid else 0.0)
        tip = chain_pose(g, ChainState(theta, np.zeros_like(theta)))[-1] \
            + claw_length * np.array([math.cos(heading), math.sin(heading)])
        want = (float(tip[0]), float(tip[1]))
        assert [v.hex() for v in claw_offset(g, mode, claw_length)] \
            == [v.hex() for v in want]

    def test_full_pull_open(self):
        # rigid: every joint at its bend limit, the claw opened down from
        # the last tarsomere by the full opening angle
        g = default_chain_geometry()
        ends = chain_pose(g, ChainState(g.max_bend, np.zeros(5)))
        last = ends[-1] - ends[-2]
        claw = np.array(claw_offset(g, "rigid", 8.0)) - ends[-1]
        opening = -math.atan2(last[0] * claw[1] - last[1] * claw[0],
                              last @ claw)
        assert np.hypot(*claw) == pytest.approx(8.0, abs=1e-12)
        assert opening == pytest.approx(DEFAULT_CLAW_MAX_OPENING, abs=1e-12)


class TestChainPose:
    def test_rest_collinear(self):
        g = default_chain_geometry()
        pose = chain_pose(g, rest_state(g))
        assert np.allclose(pose[:, 1], 0.0)
        assert np.allclose(pose[:, 0], np.cumsum(g.segment_lengths))

    def test_full_bend_tip_below_base(self):
        g = default_chain_geometry()
        pose = chain_pose(g, solve_bend_from_pull(g, 5.5))
        assert pose[-1, 1] < 0.0

    def test_against_complex_exponential_oracle(self):
        g = default_chain_geometry()
        rng = np.random.default_rng(17)
        for _ in range(100):
            theta = rng.uniform(0.0, 1.0, 5) * g.max_bend
            comp = rng.uniform(0.0, 1.0, 5) * g.axial_caps
            st = ChainState(theta, comp)
            z = np.cumsum((np.array(g.segment_lengths) - comp)
                          * np.exp(-1j * np.cumsum(theta)))
            pose = chain_pose(g, st)
            assert np.allclose(pose[:, 0], z.real, atol=1e-9)
            assert np.allclose(pose[:, 1], z.imag, atol=1e-9)


class TestValidation:
    def test_segment_geometry_invariants(self):
        with pytest.raises(ValueError):
            SegmentGeometry(0.0, 3.0, 0.5, 0.4)
        with pytest.raises(ValueError):
            SegmentGeometry(2.0, -1.0, 0.5, 0.4)
        with pytest.raises(ValueError):
            SegmentGeometry(2.0, 3.0, -0.5, 0.4)
        with pytest.raises(ValueError):
            SegmentGeometry(2.0, 3.0, 0.5, math.pi / 2)
        with pytest.raises(ValueError):
            SegmentGeometry(2.0, 3.0, 0.5, 0.4, axial_cap=-1.0)

    def test_rest_span_derived_from_anchors(self):
        g = SegmentGeometry(2.0, 3.0, 4.0, 0.4)
        assert g.rest_span == pytest.approx(5.0)

    def test_chain_needs_five_segments(self):
        seg = SegmentGeometry(2.0, 3.0, 0.5, 0.4)
        with pytest.raises(ValueError):
            ChainGeometry(segments=(seg,) * 4)

    def test_state_nonnegative(self):
        with pytest.raises(ValueError):
            ChainState(np.array([-0.1] * 5), np.zeros(5))
