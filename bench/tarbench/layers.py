"""Per-layer metrics from the traced run's spans and kept return values.

Counts are exact and repeat from run to run on one seed.  Times are self
times (a span minus its child spans) or inclusive times, as each name
says.  ``KEEP`` lists the functions whose arguments and results the
recorder keeps, reduced at call time to what the metrics need.
"""

from __future__ import annotations

import inspect
import statistics
from collections import Counter

import numpy as np
from tarsim.chain import max_chain_pull, solve_bend_from_pull
from tarsim.leg import NotReachable, forward_kinematics, inverse_kinematics

from . import gen
from .spans import SpanRecorder, self_times

EVENT_KINDS = ("Hook", "Release", "Saturation", "ClawFailure", "RepeatSwing")
SETUP = "setup"  # command id of the traced set-up pass

_SOLVE_SIG = inspect.signature(solve_bend_from_pull)
_IK_SIG = inspect.signature(inverse_kinematics)


def _solve_args(args, kwargs, result):
    bound = _SOLVE_SIG.bind(*args, **kwargs)
    return bound.arguments["chain"], float(bound.arguments["pull"])


def _ik_args(args, kwargs, result):
    bound = _IK_SIG.bind(*args, **kwargs)
    return bound.arguments["model"], bound.arguments["target"], result


def _frames(args, kwargs, result):
    return len(result) if not isinstance(result, BaseException) else 0


def _touchdowns(args, kwargs, result):
    if isinstance(result, BaseException):
        return []
    return [c.touchdown_t for c in result]


def _events(args, kwargs, result):
    if isinstance(result, BaseException):
        return Counter()
    _, final = result
    return Counter(kind for _, kind in final.events)


KEEP = {
    "chain.solve_bend_from_pull": _solve_args,
    "leg.inverse_kinematics": _ik_args,
    "gait.load_recording": _frames,
    "gait.segment_cycles": _touchdowns,
    "contact.run_demo_cycle": _events,
}


def _ms(seconds) -> float:
    return 1e3 * float(seconds)


class _Spans:
    """Span columns grouped by name; the set-up pass only when asked."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.self_s = self_times(rec.starts, rec.ends, rec.parents)
        self.by_name: dict = {}
        for idx, name in enumerate(rec.names):
            self.by_name.setdefault(name, []).append(idx)

    def ids(self, name, setup=False):
        return [i for i in self.by_name.get(name, ())
                if (self.rec.commands[i] == SETUP) == setup]

    def count(self, name) -> int:
        return len(self.ids(name))

    def total_ms(self, name, self_time=False, setup=False) -> float:
        if self_time:
            return _ms(sum(self.self_s[i] for i in self.ids(name, setup)))
        return _ms(sum(self.rec.ends[i] - self.rec.starts[i]
                       for i in self.ids(name, setup)))

    def durations_ms(self, name) -> list:
        return [_ms(self.rec.ends[i] - self.rec.starts[i])
                for i in self.ids(name)]

    def kept(self, name):
        return [(idx, v) for idx, v in self.rec.returns.get(name, ())
                if self.rec.commands[idx] != SETUP]

    def has_ancestor(self, idx, name) -> bool:
        p = self.rec.parents[idx]
        while p >= 0:
            if self.rec.names[p] == name:
                return True
            p = self.rec.parents[p]
        return False


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(rec: SpanRecorder, cmds) -> tuple[dict, dict]:
    """(metrics for the result line, extra times for the report only).

    Both map a name to (value, unit).  The first holds every count and the
    times no workload can leave at zero; the second holds times of layers
    that some workloads bypass, which read a constant zero there.
    """
    sp = _Spans(rec)
    m: dict = {}
    extra: dict = {}

    # chain
    solves = sp.kept("chain.solve_bend_from_pull")
    solve_ids = sp.ids("chain.solve_bend_from_pull")
    m["chain.solve_calls"] = (len(solve_ids), "count")
    m["chain.segment_pull_calls"] = (sp.count("chain.segment_pull"), "count")
    in_solve = sum(1 for i in sp.ids("chain.segment_pull")
                   if sp.has_ancestor(i, "chain.solve_bend_from_pull"))
    m["chain.segment_pull_per_solve"] = (
        in_solve / len(solve_ids) if solve_ids else 0.0, "calls/solve")
    m["chain.full_bend_pull_calls"] = (sp.count("chain.full_bend_pull"),
                                       "count")
    m["chain.clamped_solves"] = (
        sum(1 for _, (chain, pull) in solves if pull > max_chain_pull(chain)),
        "count")
    solve_self = [_ms(sp.self_s[i]) for i in solve_ids]
    extra["chain.solve_self_ms_p50"] = (_pct(solve_self, 50), "ms")
    extra["chain.solve_self_ms_total"] = (sum(solve_self), "ms")

    # leg
    iks = [v for _, v in sp.kept("leg.inverse_kinematics")]
    iters = [r.iterations for _, _, r in iks]
    residuals = [float(np.linalg.norm(
        forward_kinematics(model, r.q).position - np.asarray(target, float)))
        for model, target, r in iks if not isinstance(r, BaseException)]
    m["leg.ik_calls"] = (len(iks), "count")
    m["leg.ik_not_reachable"] = (
        sum(1 for _, _, r in iks if isinstance(r, NotReachable)), "count")
    m["leg.ik_iters_mean"] = (float(np.mean(iters)) if iters else 0.0,
                              "iterations")
    m["leg.ik_iters_max"] = (max(iters, default=0), "iterations")
    m["leg.ik_residual_max_mm"] = (max(residuals, default=0.0), "mm")
    m["leg.jacobian_calls"] = (sp.count("leg.jacobian"), "count")
    m["leg.fk_calls"] = (sp.count("leg.forward_kinematics"), "count")
    ik_ms = sp.durations_ms("leg.inverse_kinematics")
    extra["leg.ik_ms_p50"] = (_pct(ik_ms, 50), "ms")
    extra["leg.ik_ms_p90"] = (_pct(ik_ms, 90), "ms")
    extra["leg.jacobian_self_ms"] = (
        sp.total_ms("leg.jacobian", self_time=True), "ms")
    extra["leg.fk_self_ms"] = (
        sp.total_ms("leg.forward_kinematics", self_time=True), "ms")

    # contact
    m["contact.step_calls"] = (sp.count("contact.step"), "count")
    events = sum((v for _, v in sp.kept("contact.run_demo_cycle")), Counter())
    for kind in EVENT_KINDS:
        m[f"contact.events_{kind}"] = (events[kind], "count")
    extra["contact.step_self_ms_p50"] = (_pct(
        [_ms(sp.self_s[i]) for i in sp.ids("contact.step")], 50), "ms")
    extra["contact.run_self_ms"] = (
        sp.total_ms("contact.run_demo_cycle", self_time=True), "ms")
    extra["contact.save_demo_csv_ms"] = (
        sp.total_ms("contact.save_demo_csv"), "ms")

    # gait
    frames = sum(v for _, v in sp.kept("gait.load_recording"))
    m["gait.frames_loaded"] = (frames, "count")
    found = sp.kept("gait.segment_cycles")
    m["gait.cycles_found"] = (sum(len(tds) for _, tds in found), "count")
    m["gait.touchdown_err_frames_max"] = (
        _touchdown_error(rec, found, cmds), "frames")
    kframes = frames / 1000.0 if frames else 1.0
    extra["gait.load_recording_ms_per_kframe"] = (
        sp.total_ms("gait.load_recording") / kframes, "ms")
    extra["gait.trial_metrics_ms_per_kframe"] = (
        sp.total_ms("gait.trial_metrics") / kframes, "ms")
    extra["gait.series_ms"] = (sp.total_ms("gait.angle_series")
                               + sp.total_ms("gait.claw_displacement"), "ms")
    extra["gait.segment_cycles_ms"] = (sp.total_ms("gait.segment_cycles"),
                                       "ms")

    # stats
    m["stats.report_calls"] = (sp.count("stats.comparison_report"), "count")
    extra["stats.report_ms"] = (sp.total_ms("stats.comparison_report"), "ms")

    # config: the traced set-up pass, the in-process part of setup_s
    m["config.build_ms"] = (sum(
        sp.total_ms(n, setup=True) for n in sp.by_name
        if n.startswith("config.Config.build_")), "ms")

    # cli: a command's own time outside every other layer
    per_cmd: dict = {}
    for idx, name in enumerate(rec.names):
        if name.startswith("cli.") and rec.commands[idx] != SETUP:
            cid = rec.commands[idx]
            per_cmd[cid] = per_cmd.get(cid, 0.0) + sp.self_s[idx]
    m["cli.self_ms_p50"] = (_ms(statistics.median(per_cmd.values()))
                            if per_cmd else 0.0, "ms")
    m["cli.write_table_ms"] = (sp.total_ms("cli.write_table"), "ms")
    m["cli.files_written"] = (sum(c.files for c in cmds), "count")
    m["cli.bytes_written"] = (sum(c.bytes for c in cmds), "bytes")

    # svgplot
    m["svgplot.line_chart_calls"] = (sp.count("svgplot.line_chart"), "count")
    extra["svgplot.self_ms"] = (sp.total_ms("svgplot.line_chart",
                                            self_time=True), "ms")
    m["trace.spans"] = (len(rec), "count")
    return m, extra


def _touchdown_error(rec, found, cmds) -> float:
    """Largest distance, in frames, from a detected touchdown to the truth.

    trial_metrics segments each trial once, in input order, so the k-th
    segment_cycles call of a command belongs to its k-th trial.
    """
    truth = {c.index: c.truth["trials"] for c in cmds if c.workload == "gait"}
    seen: Counter = Counter()
    worst = 0.0
    for idx, tds in found:
        cid = rec.commands[idx]
        trial = truth[cid][seen[cid]]
        seen[cid] += 1
        true_td = np.asarray(trial["touchdowns_ms"])
        for t in tds:
            worst = max(worst, float(np.min(np.abs(true_td - t))))
    return worst / gen.GAIT_DT_MS
