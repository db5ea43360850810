"""
Gait metrics and group statistics
=================================

Builds synthetic marker recordings for two walking conditions with known
step periods, runs the marker pipeline (claw-tibia angle, claw-to-body
displacement, cycle segmentation), and compares the conditions with the
pooled two-sample t-test.  A second report reruns the published group
summaries from the walking experiments through the same test.

Run:  python demos/04_gait_statistics.py
"""

import numpy as np

from tarsim.gait import LABELS, TrialRecording, trial_metrics
from tarsim.stats import (ConditionPair, GroupStats, comparison_report,
                          format_report_text)


def synthetic_trial(period_ms, amp_deg, n=600, seed=0):
    """Leg bobbing against a fixed body frame with slight per-trial noise."""
    rng = np.random.default_rng(seed)
    period = period_ms * (1.0 + 0.01 * rng.standard_normal())
    amp_deg = amp_deg * (1.0 + 0.05 * rng.standard_normal())
    phase = 2 * np.pi * (np.arange(n) * 10.0) / period
    height = 6.0 + 8.0 * 0.5 * (1.0 - np.cos(phase))
    bend = np.radians(amp_deg) * 0.5 * (1.0 - np.cos(phase))
    m3 = np.array([0.0, 0.0, 20.0])
    m2 = np.array([10.0, 0.0, 8.0])
    m1 = m2 + 6.0 * np.column_stack(
        [np.cos(-bend), np.zeros(n), np.sin(-bend)])
    off = np.zeros((n, 3))
    off[:, 2] = height - m1[:, 2]
    # one (frame, marker, xyz) array; the left leg is not tracked (NaN)
    markers = np.full((n, len(LABELS), 3), np.nan)
    for label, p in (("B1", [0.0, 0.0, 30.0]), ("B2", [5.0, 0.0, 30.0]),
                     ("B3", [0.0, 5.0, 30.0]), ("R3", m3 + off),
                     ("R2", m2 + off), ("R1", m1 + off)):
        markers[:, LABELS.index(label)] = p
    return TrialRecording(markers)


conditions = {
    "mesh": dict(period_ms=446.0, amp_deg=56.0),
    "plate": dict(period_ms=407.0, amp_deg=28.0),
}
print("synthetic trials (5 per condition):")
summaries = {}
for k, (label, params) in enumerate(conditions.items()):
    cycles, amps = [], []
    for trial in range(5):
        rec = synthetic_trial(seed=100 * k + trial, **params)
        tm = trial_metrics(rec, "right")
        cycles.append(tm.mean_cycle_time)
        amps.append(tm.mean_bend_amplitude)
    summaries[label] = (cycles, amps)
    print(f"  {label:6s}: cycle {np.mean(cycles):6.1f} +- "
          f"{np.std(cycles, ddof=1):5.1f} ms,  bend amplitude "
          f"{np.mean(amps):5.1f} +- {np.std(amps, ddof=1):4.2f} deg")

pairs = []
for idx, metric in ((0, "cycle_time"), (1, "bend_amplitude")):
    groups = [GroupStats(float(np.mean(summaries[c][idx])),
                         float(np.std(summaries[c][idx], ddof=1)), 5)
              for c in ("mesh", "plate")]
    pairs.append(ConditionPair(metric, *groups))
print("\nsynthetic-condition comparison:")
print(format_report_text(comparison_report(pairs)))

# the published group summaries through the same machinery.  They are
# printed to one decimal, so each true value may lie up to 0.05 away;
# p_span_lo..p_span_hi is the p those summaries allow, and a published p
# outside it would be flagged outside-rounding-span
def printed(mean, sd, n):
    return GroupStats(mean, sd, n, half_step=0.05)


published = [
    ConditionPair("angle_mesh_vs_plate", printed(55.7, 4.4, 5),
                  printed(27.7, 5.4, 5), 9.04e-06),
    ConditionPair("cycle_mesh_vs_plate", printed(446.1, 50.5, 5),
                  printed(406.6, 67.8, 5), 0.1631),
    ConditionPair("angle_intact_vs_cut", printed(55.9, 2.3, 3),
                  printed(25.5, 1.6, 3), 2.42e-05),
    ConditionPair("cycle_intact_vs_tubed", printed(446.1, 50.5, 5),
                  printed(1594.4, 142.5, 5), 7.33e-08),
]
print("\npublished-summary comparison:")
print(format_report_text(comparison_report(published)))
