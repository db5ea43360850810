"""Pooled two-sample t-tests from summary statistics.

Works from (mean, sd, n) triples rather than raw samples, since published
gait comparisons usually report only group summaries.  The Student-t
survival function is computed in-package through the regularized
incomplete beta function (continued fraction), so tail probabilities down
to 1e-8 carry full double precision.

A published p is checked against the summaries it was computed from as
they were printed: each mean and sd may lie up to half a unit of its last
printed digit (``GroupStats.half_step``) from the true value, and the
comparison report gives the span of one-tail p over every set of
summaries that round to the printed ones.  A published p outside that
span is flagged; the width of the span comes from the printed precision,
not from a fixed margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ZeroVariance(ValueError):
    """Both groups have zero spread and equal means; t is undefined."""


@dataclass(frozen=True)
class GroupStats:
    """Summary of one condition group: mean, standard deviation, count.

    ``half_step`` is half a unit in the last printed digit of the mean and
    sd (0.05 for one decimal); 0 means the summaries are exact.
    """

    mean: float
    sd: float
    n: int
    half_step: float = 0.0

    def __post_init__(self):
        for name in ("mean", "sd", "half_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        if self.sd < 0:
            raise ValueError("sd must be >= 0")
        if self.half_step < 0:
            raise ValueError("half_step must be >= 0")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        # plain floats: numpy scalars would warn where Python floats
        # overflow silently to the same value (t * t in t_sf)
        for name in ("mean", "sd", "half_step"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p_one_tail: float
    p_two_tail: float


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # one Lentz update per term: the even one, then the odd one
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # continued fraction converges fast on one side of the mean; use the
    # symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: float) -> float:
    """Student-t survival function P(T > t)."""
    t, df = float(t), float(df)
    if df <= 0:
        raise ValueError("df must be positive")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    p = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return p if t > 0 else 1.0 - p


def two_sample_ttest(a: GroupStats, b: GroupStats) -> TTestResult:
    """Pooled-variance (Student) two-sample t-test from group summaries.

    df = n_a + n_b - 2.  The one-tail p is reported for the tail matching
    the observed difference (survival beyond |t|), so swapping the groups
    flips the sign of t but leaves both p values unchanged.

    Raises ValueError when the mean difference or the pooled variance
    overflows the float range.
    """
    df = a.n + b.n - 2
    try:
        pooled_var = ((a.n - 1) * a.sd ** 2 + (b.n - 1) * b.sd ** 2) / df
    except OverflowError:  # an sd ** 2 past the float range
        pooled_var = math.inf
    diff = a.mean - b.mean
    if not (math.isfinite(diff) and math.isfinite(pooled_var)):
        raise ValueError(f"mean difference and pooled variance must be "
                         f"finite, got {diff!r} and {pooled_var!r}")
    se = math.sqrt(pooled_var * (1.0 / a.n + 1.0 / b.n))
    if se == 0.0:
        if diff == 0.0:
            raise ZeroVariance("both groups have zero sd and equal means")
        t = math.inf if diff > 0 else -math.inf
        return TTestResult(t, df, 0.0, 0.0)
    t = diff / se
    p_one = t_sf(abs(t), df)
    return TTestResult(t, df, p_one, 2.0 * p_one)


def _p_span(a: GroupStats, b: GroupStats) -> tuple[float, float]:
    """Smallest and largest one-tail p over summaries that round to a, b.

    The pooled p falls as |mean difference| grows and rises with either
    sd, so its extremes over the rounding box lie at two corners: the far
    one moves the means apart and lowers both sds by their half-steps, the
    near one does the reverse.  A box that holds equal means has its near
    end at t = 0, p = 0.5, and an sd is never lowered below 0.  Raises
    ValueError when the far corner's mean difference overflows.
    """
    gap = abs(a.mean - b.mean)
    step = a.half_step + b.half_step
    if not math.isfinite(gap + step):
        raise ValueError(f"mean difference over the rounding box must be "
                         f"finite, got {gap + step!r}")

    def p(diff, sign):
        return two_sample_ttest(
            GroupStats(diff, max(a.sd + sign * a.half_step, 0.0), a.n),
            GroupStats(0.0, max(b.sd + sign * b.half_step, 0.0), b.n),
        ).p_one_tail

    return p(gap + step, -1.0), p(max(gap - step, 0.0), 1.0)


@dataclass(frozen=True)
class ConditionPair:
    """One comparison row: two condition groups, optionally the published p."""

    label: str
    a: GroupStats
    b: GroupStats
    published_p_one_tail: float | None = None

    def __post_init__(self):
        p = self.published_p_one_tail
        if p is not None and not 0.0 < p <= 1.0:
            raise ValueError(f"published p must lie in (0, 1], got {p!r}")
        if p is not None:  # a plain float, as GroupStats stores its fields
            object.__setattr__(self, "published_p_one_tail", float(p))


REPORT_COLUMNS = (
    "label", "mean_a", "sd_a", "n_a", "mean_b", "sd_b", "n_b",
    "df", "t", "p_one_tail", "p_two_tail", "published_p_one_tail",
    "p_span_lo", "p_span_hi", "flag",
)


def comparison_report(pairs) -> list[dict]:
    """t-test every condition pair; one dict per row, REPORT_COLUMNS keys.

    ``p_span_lo``/``p_span_hi`` bound the one-tail p over the groups'
    rounding boxes; a published p outside them is flagged
    ``outside-rounding-span``.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("at least one condition pair is required")
    rows = []
    for pair in pairs:
        res = two_sample_ttest(pair.a, pair.b)
        lo, hi = _p_span(pair.a, pair.b)
        published = pair.published_p_one_tail
        flag = ""
        if published is not None and not lo <= published <= hi:
            flag = "outside-rounding-span"
        rows.append({
            "label": pair.label,
            "mean_a": pair.a.mean, "sd_a": pair.a.sd, "n_a": pair.a.n,
            "mean_b": pair.b.mean, "sd_b": pair.b.sd, "n_b": pair.b.n,
            "df": res.df, "t": res.t,
            "p_one_tail": res.p_one_tail, "p_two_tail": res.p_two_tail,
            "published_p_one_tail": published,
            "p_span_lo": lo, "p_span_hi": hi, "flag": flag,
        })
    return rows


def format_report_text(rows) -> str:
    """Aligned plain-text table of comparison_report rows."""
    def fmt(key, value):
        if value is None:
            return "-"
        if key in ("t",):
            return f"{value:.4f}"
        if key.startswith("p_") or key == "published_p_one_tail":
            return f"{value:.3E}" if value < 1e-3 else f"{value:.4f}"
        return str(value)

    table = [[fmt(c, row[c]) for c in REPORT_COLUMNS] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in table))
        for i, c in enumerate(REPORT_COLUMNS)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(REPORT_COLUMNS, widths))]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in table]
    return "\n".join(lines)
