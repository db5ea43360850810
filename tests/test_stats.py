"""Pooled t-test and incomplete beta against scipy and published tables.

The in-package survival function is the code under test; scipy.special /
scipy.stats serve purely as the independent oracle, alongside a numeric
quadrature of the beta integrand as a second cross-check route.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

from tarsim.stats import (ConditionPair, GroupStats, ZeroVariance,
                          comparison_report, format_report_text,
                          regularized_incomplete_beta, t_sf,
                          two_sample_ttest)

# published group summaries from the walking experiments; the coarser of
# each group's mean and sd is printed to one decimal
ANGLE_MESH = GroupStats(55.7, 4.4, 5, 0.05)
ANGLE_PLATE = GroupStats(27.7, 5.4, 5, 0.05)
CYCLE_MESH = GroupStats(446.1, 50.5, 5, 0.05)
CYCLE_PLATE = GroupStats(406.6, 67.8, 5, 0.05)
ANGLE_INTACT3 = GroupStats(55.9, 2.3, 3, 0.05)
ANGLE_CUT3 = GroupStats(25.5, 1.6, 3, 0.05)
CYCLE_TUBED = GroupStats(1594.4, 142.5, 5, 0.05)
CYCLE_INTACT25 = GroupStats(446.8, 50.5, 25, 0.05)
CYCLE_RELEASED25 = GroupStats(443.36, 48.4, 25, 0.05)


class TestIncompleteBeta:
    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(5000):
            a = rng.uniform(0.5, 40.0)
            b = rng.uniform(0.5, 40.0)
            x = rng.uniform(0.0, 1.0)
            ref = scipy.special.betainc(a, b, x)
            got = regularized_incomplete_beta(a, b, x)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_against_quadrature(self):
        # second, slower route: integrate the density directly
        from scipy.integrate import quad
        rng = np.random.default_rng(14)
        for _ in range(50):
            a = rng.uniform(0.5, 8.0)
            b = rng.uniform(0.5, 8.0)
            x = rng.uniform(0.05, 0.95)
            norm = math.exp(math.lgamma(a + b) - math.lgamma(a)
                            - math.lgamma(b))
            val, _ = quad(lambda u: norm * u ** (a - 1) * (1 - u) ** (b - 1),
                          0.0, x)
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                val, rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)


class TestTSurvival:
    def test_zero_is_half(self):
        assert t_sf(0.0, 8) == 0.5

    def test_against_scipy(self):
        rng = np.random.default_rng(15)
        for _ in range(2000):
            t = rng.uniform(-30.0, 30.0)
            df = int(rng.integers(1, 80))
            assert t_sf(t, df) == pytest.approx(
                scipy.stats.t.sf(t, df), rel=1e-12, abs=1e-300)

    def test_symmetry(self):
        assert t_sf(2.5, 6) + t_sf(-2.5, 6) == pytest.approx(1.0, abs=1e-14)


class TestTwoSampleTTest:
    def test_identical_groups(self):
        g = GroupStats(10.0, 2.0, 5)
        r = two_sample_ttest(g, GroupStats(10.0, 2.0, 5))
        assert r.t == 0.0
        assert r.p_one_tail == 0.5
        assert r.p_two_tail == 1.0

    def test_angle_mesh_vs_plate(self):
        r = two_sample_ttest(ANGLE_MESH, ANGLE_PLATE)
        assert r.df == 8
        assert r.t == pytest.approx(8.988405098569679, rel=1e-12)
        # frozen value, cross-checked against scipy.stats.t.sf; the
        # published 9.04E-06 sits 3.5% away (rounded table inputs)
        assert r.p_one_tail == pytest.approx(9.353815662113935e-06, rel=1e-9)
        assert r.p_two_tail == pytest.approx(2 * r.p_one_tail)

    def test_cycle_mesh_vs_plate_matches_published(self):
        r = two_sample_ttest(CYCLE_MESH, CYCLE_PLATE)
        assert r.df == 8
        assert r.p_one_tail == pytest.approx(0.1631, rel=0.02)

    def test_membrane_cut_small_groups(self):
        r = two_sample_ttest(ANGLE_INTACT3, ANGLE_CUT3)
        assert r.df == 4
        assert r.p_one_tail == pytest.approx(2.36031595805659e-05, rel=1e-9)

    def test_tubed_cycle_matches_published(self):
        r = two_sample_ttest(CYCLE_MESH, CYCLE_TUBED)
        assert r.df == 8
        assert r.t < 0
        assert r.p_one_tail == pytest.approx(7.33e-08, rel=0.02)

    def test_group_swap_flips_t_keeps_p(self):
        r1 = two_sample_ttest(ANGLE_MESH, ANGLE_PLATE)
        r2 = two_sample_ttest(ANGLE_PLATE, ANGLE_MESH)
        assert r2.t == pytest.approx(-r1.t, rel=1e-14)
        assert r2.p_one_tail == pytest.approx(r1.p_one_tail, rel=1e-14)
        assert r2.p_two_tail == pytest.approx(r1.p_two_tail, rel=1e-14)

    def test_zero_variance_equal_means(self):
        g = GroupStats(5.0, 0.0, 4)
        with pytest.raises(ZeroVariance):
            two_sample_ttest(g, GroupStats(5.0, 0.0, 4))

    @pytest.mark.parametrize("a, b", [
        (GroupStats(1e308, 1.0, 5), GroupStats(-1e308, 1.0, 5)),
        (GroupStats(1.0, 1e308, 5), GroupStats(2.0, 1e308, 5)),
        (GroupStats(1.0, 1e154, 5), GroupStats(2.0, 1.0, 5))],
        ids=["mean_difference", "sd_squared", "pooled_sum"])
    def test_past_the_float_range_is_refused(self, a, b):
        with pytest.raises(ValueError, match="must be finite"):
            two_sample_ttest(a, b)

    def test_zero_variance_different_means(self):
        r = two_sample_ttest(GroupStats(5.0, 0.0, 4), GroupStats(4.0, 0.0, 4))
        assert math.isinf(r.t) and r.t > 0
        assert r.p_one_tail == 0.0

    def test_groupstats_validation(self):
        with pytest.raises(ValueError):
            GroupStats(1.0, -0.1, 5)
        with pytest.raises(ValueError):
            GroupStats(1.0, 1.0, 1)

    @pytest.mark.parametrize("half_step, message", [
        (-0.05, "half_step must be >= 0"),
        (math.nan, "half_step must be finite, got nan"),
        (math.inf, "half_step must be finite, got inf")])
    def test_half_step_validation(self, half_step, message):
        with pytest.raises(ValueError, match=message):
            GroupStats(1.0, 1.0, 5, half_step)


HALF_STEPS = (0.0, 0.005, 0.05, 0.5)


@st.composite
def printed_pairs(draw):
    """Two groups as printed.  The second mean lies from none to many
    half-steps from the first, so that some boxes hold equal means, and an
    sd may be printed below its half-step."""
    mean_a = draw(st.floats(-500.0, 500.0))
    offset = draw(st.sampled_from(
        (0.0, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 10.0, 100.0)))
    groups = []
    for mean in (mean_a, mean_a + draw(st.sampled_from((-1, 1))) * offset):
        half = draw(st.sampled_from(HALF_STEPS))
        sd = draw(st.one_of(st.floats(0.0, 1.0).map(lambda u: u * half),
                            st.floats(0.0, 100.0)))
        groups.append(GroupStats(mean, sd, draw(st.integers(2, 30)), half))
    return groups


def box_p(a, b, fa, fb, ga, gb):
    """One-tail p at a point of the rounding box: each mean moved by fa,
    fb and each sd by ga, gb of its half-step (an sd stops at 0).  The p
    depends on the means only through their difference, which is taken
    exactly, so that the box is the true one and not its rounded sums."""
    diff = float(Fraction(a.mean) + Fraction(fa) * Fraction(a.half_step)
                 - Fraction(b.mean) - Fraction(fb) * Fraction(b.half_step))
    return two_sample_ttest(
        GroupStats(diff, max(a.sd + ga * a.half_step, 0.0), a.n),
        GroupStats(0.0, max(b.sd + gb * b.half_step, 0.0), b.n)).p_one_tail


class TestRoundingSpan:
    # t_sf is accurate to ~1e-13 relative (test_against_scipy asserts
    # 1e-12), so a point of the box may compute a few ulps outside
    REL = 1e-12
    FRACTIONS = (-1.0, -0.5, 0.0, 0.5, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(printed_pairs())
    # a box holding equal means: the printed point's p is 0.4878, and the
    # near end must be 0.5, not the far side of t = 0
    @example([GroupStats(10.0, 1.0, 5, 0.05), GroupStats(10.02, 1.0, 5, 0.05)])
    # an sd printed below its half-step stops at 0 at the far corner
    @example([GroupStats(3.0, 0.0, 5, 0.05), GroupStats(2.0, 0.04, 5, 0.05)])
    def test_span_holds_every_point_of_the_box(self, groups):
        a, b = groups
        try:
            row, = comparison_report([ConditionPair("box", a, b)])
        except ZeroVariance:
            assume(False)
        lo, hi = row["p_span_lo"], row["p_span_hi"]
        assert lo <= row["p_one_tail"] <= hi
        for f in itertools.product(self.FRACTIONS, repeat=4):
            try:
                p = box_p(a, b, *f)
            except ZeroVariance:
                continue
            assert lo * (1 - self.REL) <= p <= hi * (1 + self.REL), f

    def test_straddling_box_reaches_half(self):
        row, = comparison_report([ConditionPair(
            "x", GroupStats(10.0, 1.0, 5, 0.05),
            GroupStats(10.02, 1.0, 5, 0.05))])
        assert row["p_one_tail"] == pytest.approx(0.4878, abs=1e-4)
        assert row["p_span_hi"] == 0.5

    def test_exact_summaries_give_a_point(self):
        row, = comparison_report([ConditionPair(
            "x", GroupStats(55.7, 4.4, 5), GroupStats(27.7, 5.4, 5))])
        assert row["p_span_lo"] == row["p_one_tail"] == row["p_span_hi"]

    def test_published_rows_lie_inside(self):
        rows = comparison_report([
            ConditionPair("angle", ANGLE_MESH, ANGLE_PLATE, 9.04e-06),
            ConditionPair("cycle", CYCLE_MESH, CYCLE_PLATE, 0.1631),
            ConditionPair("membrane", ANGLE_INTACT3, ANGLE_CUT3, 2.42e-05),
            ConditionPair("tubed", CYCLE_MESH, CYCLE_TUBED, 7.33e-08),
        ])
        spans = [p for r in rows for p in (r["p_span_lo"], r["p_span_hi"])]
        assert spans == pytest.approx([8.456e-06, 1.034e-05,
                                       0.1626, 0.1641,
                                       2.109e-05, 2.636e-05,
                                       7.301e-08, 7.360e-08], rel=1e-3)
        assert [r["flag"] for r in rows] == [""] * 4


class TestComparisonReport:
    def test_layout_and_values(self):
        rows = comparison_report([
            ConditionPair("angle", ANGLE_MESH, ANGLE_PLATE, 9.04e-06),
            ConditionPair("cycle", CYCLE_MESH, CYCLE_PLATE, 0.1631),
        ])
        assert [r["label"] for r in rows] == ["angle", "cycle"]
        assert rows[0]["df"] == 8
        # 3.5% and 0.14% from the printed point, and both inside the span
        # that one printed decimal allows
        assert [r["flag"] for r in rows] == ["", ""]
        assert all(r["p_span_lo"] <= r["published_p_one_tail"]
                   <= r["p_span_hi"] for r in rows)

    def test_known_nonreproducible_pairs_are_flagged(self):
        # no summaries that round to the printed ones give either
        # published value: 0.4418 lies below [0.4585, 0.4865] and 0.4664
        # above [0.4006, 0.4063]
        rows = comparison_report([
            ConditionPair("intact_vs_cut_leg", ANGLE_MESH, ANGLE_INTACT3,
                          0.4418),
            ConditionPair("tube_removed", CYCLE_INTACT25, CYCLE_RELEASED25,
                          0.4664),
        ])
        assert rows[0]["df"] == 6
        assert rows[1]["df"] == 48
        assert [(round(r["p_span_lo"], 4), round(r["p_span_hi"], 4))
                for r in rows] == [(0.4585, 0.4865), (0.4006, 0.4063)]
        assert all(r["flag"] == "outside-rounding-span" for r in rows)

    def test_empty_difference_pair(self):
        g = GroupStats(3.0, 1.0, 5)
        rows = comparison_report([ConditionPair("nil", g, g)])
        assert rows[0]["t"] == 0.0
        assert rows[0]["p_one_tail"] == 0.5

    def test_requires_pairs(self):
        with pytest.raises(ValueError):
            comparison_report([])

    def test_text_format_aligns(self):
        rows = comparison_report([ConditionPair("a", ANGLE_MESH, ANGLE_PLATE)])
        text = format_report_text(rows)
        lines = text.splitlines()
        assert lines[0].startswith("label")
        assert len(lines) == 2
        # columns line up: every header starts where its value does
        for col in ("mean_a", "df", "p_one_tail"):
            pos = lines[0].index(col)
            assert lines[1][pos] != " "


def as_numpy(g):
    return GroupStats(np.float64(g.mean), np.float64(g.sd), g.n,
                      np.float64(g.half_step))


class TestNumpyScalars:
    def test_overflowing_t_gives_zero_p_without_a_warning(self):
        # t * t overflows in t_sf; a numpy scalar would warn there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = two_sample_ttest(GroupStats(np.float64(1.0), 1e-160, 5),
                                 GroupStats(0.0, 1e-160, 5))
            assert r.p_one_tail == 0.0
            assert t_sf(np.float64(1e200), 8) == 0.0

    def test_report_matches_python_floats_bit_for_bit(self):
        def canon(rows):
            return [[(k, type(v).__name__,
                      v.hex() if isinstance(v, float) else v)
                     for k, v in row.items()] for row in rows]

        pairs = [("angle", ANGLE_MESH, ANGLE_PLATE, 9.04e-06),
                 ("cycle", CYCLE_MESH, CYCLE_PLATE, 0.1631),
                 ("membrane", ANGLE_INTACT3, ANGLE_CUT3, 2.42e-05),
                 ("tube_removed", CYCLE_INTACT25, CYCLE_RELEASED25, 0.4664)]
        plain = comparison_report(
            [ConditionPair(label, a, b, p) for label, a, b, p in pairs])
        numpy = comparison_report(
            [ConditionPair(label, as_numpy(a), as_numpy(b), np.float64(p))
             for label, a, b, p in pairs])
        assert canon(numpy) == canon(plain)
        assert format_report_text(numpy) == format_report_text(plain)
