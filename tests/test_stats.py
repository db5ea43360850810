"""Pooled t-test and incomplete beta against scipy and published tables.

The in-package survival function is the code under test; scipy.special /
scipy.stats serve purely as the independent oracle, alongside a numeric
quadrature of the beta integrand as a second cross-check route.
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from tarsim.stats import (ConditionPair, GroupStats, ZeroVariance,
                          comparison_report, format_report_text,
                          regularized_incomplete_beta, t_sf,
                          two_sample_ttest)

# published group summaries from the walking experiments
ANGLE_MESH = GroupStats(55.7, 4.4, 5)
ANGLE_PLATE = GroupStats(27.7, 5.4, 5)
CYCLE_MESH = GroupStats(446.1, 50.5, 5)
CYCLE_PLATE = GroupStats(406.6, 67.8, 5)
ANGLE_INTACT3 = GroupStats(55.9, 2.3, 3)
ANGLE_CUT3 = GroupStats(25.5, 1.6, 3)
CYCLE_TUBED = GroupStats(1594.4, 142.5, 5)
CYCLE_INTACT25 = GroupStats(446.8, 50.5, 25)
CYCLE_RELEASED25 = GroupStats(443.36, 48.4, 25)


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

    def test_zero_variance_different_means(self):
        r = two_sample_ttest(GroupStats(5.0, 0.0, 4), GroupStats(4.0, 0.0, 4))
        assert math.isinf(r.t) and r.t > 0
        assert r.p_one_tail == 0.0

    def test_groupstats_validation(self):
        with pytest.raises(ValueError):
            GroupStats(1.0, -0.1, 5)
        with pytest.raises(ValueError):
            GroupStats(1.0, 1.0, 1)


class TestComparisonReport:
    def test_layout_and_values(self):
        rows = comparison_report([
            ConditionPair("angle", ANGLE_MESH, ANGLE_PLATE, 9.04e-06),
            ConditionPair("cycle", CYCLE_MESH, CYCLE_PLATE, 0.1631),
        ])
        assert [r["label"] for r in rows] == ["angle", "cycle"]
        assert rows[0]["df"] == 8
        assert rows[1]["flag"] == ""  # 0.14% off: reproducible
        assert rows[0]["flag"] != ""  # 3.5% off: beyond the 2% margin

    def test_known_nonreproducible_pairs_are_flagged(self):
        # both published values are more than 2% from the pooled result
        # recomputed from their rounded summaries
        rows = comparison_report([
            ConditionPair("intact_vs_cut_leg", ANGLE_MESH, ANGLE_INTACT3,
                          0.4418),
            ConditionPair("tube_removed", CYCLE_INTACT25, CYCLE_RELEASED25,
                          0.4664),
        ])
        assert rows[0]["df"] == 6
        assert rows[1]["df"] == 48
        assert all(r["flag"] == "more-than-2pct-from-recomputed-p"
                   for r in rows)

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
