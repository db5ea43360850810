"""Command-line entry point: ``tarsim chain|leg|sim|gait``.

Every run that writes an output writes it into ``--out`` together with
a ``manifest.json`` recording the command line, the configuration hash
and the input file hashes, so any result can be reproduced bit for bit.
``--format`` selects the CSV tables and the SVG charts; any other output,
such as ``report.txt``, is always written.

Exit codes: 0 success, 1 domain error (unreachable target, no cycles
found, bad input data, chain solve not converged), 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import chain as chain_mod
from . import contact as contact_mod
from . import gait as gait_mod
from . import leg as leg_mod
from . import stats as stats_mod
from . import svgplot
from .config import Config, ConfigError, load_config
# read_table is not used here; it stays importable from tarsim.cli
from .table import parse_row, read_table, write_table  # noqa: F401

DEFAULT_CONFIG_NAME = "tarsim.conf"
CONFIG_ENV_VAR = "TARSIM_CONFIG"


class DomainError(RuntimeError):
    """Input-data problem mapped to exit code 1."""


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


class RunContext:
    """Output directory, format selection and manifest bookkeeping: the
    one place that decides what a run writes."""

    def __init__(self, cfg: Config, out: Path, fmt: str, config_path=None):
        self.cfg = cfg
        self.out = out
        # the file kinds --format leaves out
        self.skip = {"csv": (".svg",), "svg": (".csv",), "both": ()}[fmt]
        self.config_path = config_path
        self.inputs: dict = {}
        self.outputs: list = []

    def note_input(self, path) -> None:
        self.inputs[str(path)] = _sha256(path)

    def write(self, name: str, writer, *args, **kwargs) -> None:
        """``writer(path, *args, **kwargs)`` on output ``name`` in --out,
        unless --format leaves its kind out."""
        if name.endswith(self.skip):
            return
        if not self.outputs:
            self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        self.outputs.append(str(path))
        writer(path, *args, **kwargs)

    def write_manifest(self, argv) -> None:
        if not self.outputs:
            return
        manifest = {
            "command": ["tarsim"] + list(argv),
            "tool_version": __version__,
            "config_file": str(self.config_path) if self.config_path else None,
            "config_hash": self.cfg.hash(),
            "input_hashes": self.inputs,
            "outputs": sorted(self.outputs),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        with open(self.out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    try:
        vals = [float(v) for v in parse_row(text)]
    except ValueError:
        raise DomainError(f"{what}: expected comma-separated numbers, "
                          f"got {text!r}") from None
    if len(vals) != n:
        raise DomainError(f"{what}: expected {n} values, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise DomainError(f"{what}: values must be finite, got {text!r}")
    return np.array(vals)


# -- chain command -----------------------------------------------------------

def cmd_chain(args, ctx: RunContext) -> int:
    if args.pull is None and args.sweep is None and not args.stiffness:
        raise DomainError("chain needs --pull, --sweep or --stiffness")
    chain = ctx.cfg.build_chain()
    solver = ctx.cfg.solver_params()

    if args.pull is not None:
        if not (math.isfinite(args.pull) and args.pull >= 0):
            raise DomainError(f"--pull must be finite and >= 0, "
                              f"got {args.pull}")
        # clamp here: the library's clamp warning is for library callers
        capacity = chain_mod.max_chain_pull(chain)
        state = chain_mod.solve_bend_from_pull(
            chain, min(args.pull, capacity), **solver)
        rows = []
        for i in range(len(chain.segments)):
            rows.append([f"segment_{i + 1}", np.degrees(state.theta[i]),
                         state.compression[i], state.slack[i],
                         chain_mod.segment_pull(chain.segments[i],
                                                float(state.theta[i]))])
        total_bend = chain_mod.total_bend_angle(state)
        total_pull = chain_mod.chain_pull(chain, state)
        rows.append(["total", total_bend, state.compression.sum(),
                     state.slack.sum(), total_pull])
        ctx.write("chain_state.csv", write_table,
                  ["segment", "theta_deg", "compression_mm", "slack_mm",
                   "pull_mm"], rows)
        clamped = (f", clamped at capacity {capacity:.6g} mm"
                   if args.pull > capacity else "")
        print(f"pull {args.pull} mm -> total bend {total_bend:.4f} deg, "
              f"total pull {total_pull:.6f} mm, spring force "
              f"{chain_mod.restoring_force(chain, state):.4f} N{clamped}")

    if args.sweep is not None:
        try:
            start, stop, step_ = (float(v) for v in args.sweep.split(":"))
        except ValueError:
            raise DomainError(
                f"--sweep: expected start:stop:step, got {args.sweep!r}") \
                from None
        if not all(math.isfinite(v) for v in (start, stop, step_)):
            raise DomainError(f"--sweep: values must be finite, "
                              f"got {args.sweep!r}")
        if step_ <= 0 or stop < start or start < 0:
            raise DomainError("--sweep: need 0 <= start <= stop and step > 0")
        try:
            pulls = np.arange(start, stop + 0.5 * step_, step_)
        except ValueError as err:  # more points than an array can hold
            raise DomainError(f"--sweep {args.sweep!r}: {err}") from None
        capacity = chain_mod.max_chain_pull(chain)
        clamped = int(np.count_nonzero(pulls > capacity))
        bends = chain_mod.bend_angles(chain, pulls, **solver)
        ctx.write("bend_vs_pull.csv", write_table,
                  ["pull_mm", "total_bend_deg"],
                  zip(pulls.tolist(), bends.tolist()))
        ctx.write("bend_vs_pull.svg", svgplot.line_chart,
                  [("total bend", pulls, bends)],
                  title="Tarsal bend vs string pull",
                  xlabel="pull (mm)", ylabel="bend (deg)")
        print(f"sweep {start}..{stop} mm: bend {bends[0]:.3f} -> "
              f"{bends[-1]:.3f} deg over {len(pulls)} points, {clamped} "
              f"clamped at capacity {capacity:.6g} mm")

    if args.stiffness:
        cap = ctx.cfg.build_limits().vertical_max
        disp = np.linspace(0.0, 1.5 * cap / chain.k_rigid, 101)
        curves = [(mode, disp,
                   chain_mod.stiffness_curve(chain, mode, disp, cap))
                  for mode in chain_mod.MODES]
        for mode, _, force in curves:
            ctx.write(f"stiffness_{mode}.csv", write_table,
                      ["displacement_mm", "force_N"],
                      zip(disp.tolist(), force.tolist()))
        ctx.write("stiffness.svg", svgplot.line_chart, curves,
                  title="Force vs displacement",
                  xlabel="displacement (mm)", ylabel="force (N)")
        print(f"stiffness curves written (rigid caps at {cap} N)")
    return 0


# -- leg command --------------------------------------------------------------

def cmd_leg(args, ctx: RunContext) -> int:
    if args.fk is None and args.ik is None and args.retarget is None:
        raise DomainError("leg needs --fk, --ik or --retarget")
    model = ctx.cfg.build_leg()
    ik_kwargs = ctx.cfg.ik_params()

    if args.fk is not None:
        q = np.radians(_parse_vector(args.fk, 4, "--fk"))
        pose = leg_mod.forward_kinematics(model, q)
        p, r = pose.position, pose.rotation
        ctx.write("leg_fk.csv", write_table,
                  ["x_mm", "y_mm", "z_mm", "r11", "r12", "r13",
                   "r21", "r22", "r23", "r31", "r32", "r33"],
                  [[*p, *r.flatten()]])
        print(f"fk({args.fk} deg) -> tip ({p[0]:.4f}, {p[1]:.4f}, "
              f"{p[2]:.4f}) mm")

    if args.ik is not None:
        target = _parse_vector(args.ik, 3, "--ik")
        q0 = None if args.q0 is None \
            else np.radians(_parse_vector(args.q0, 4, "--q0"))
        result = leg_mod.inverse_kinematics(model, target, q0, **ik_kwargs)
        qd = np.degrees(result.q)
        ctx.write("leg_ik.csv", write_table,
                  ["coxa_deg", "trochanter_deg", "femur_deg", "tibia_deg",
                   "residual_mm", "iterations"],
                  [[*qd, result.residual_mm, result.iterations]])
        print(f"ik({args.ik}) -> q = ({qd[0]:.4f}, {qd[1]:.4f}, "
              f"{qd[2]:.4f}, {qd[3]:.4f}) deg, residual "
              f"{result.residual_mm:.3e} mm, {result.iterations} iterations")

    if args.retarget is not None:
        try:
            ctx.note_input(args.retarget)
            traj = leg_mod.load_trajectory(args.retarget)
        except (OSError, ValueError) as err:
            raise DomainError(f"--retarget: {err}") from None
        scale = args.scale if args.scale is not None \
            else ctx.cfg.retarget_params()["scale"]
        origin = _parse_vector(args.origin, 3, "--origin") \
            if args.origin is not None else None
        try:
            scaled = leg_mod.retarget_trajectory(traj, scale, origin)
        except ValueError as err:
            raise DomainError(f"--retarget: {err}") from None
        ctx.write("retargeted.csv", leg_mod.save_trajectory, scaled)
        print(f"retargeted {len(traj)} samples by x{scale}")
        if args.to_joints:
            qs = leg_mod.trajectory_to_joints(model, scaled, **ik_kwargs)
            ctx.write("joints.csv", write_table,
                      ["t_ms", "coxa_deg", "trochanter_deg", "femur_deg",
                       "tibia_deg"],
                      np.column_stack([scaled.t_ms, np.degrees(qs)]).tolist())
            print(f"joint series written ({len(qs)} samples)")
    return 0


# -- sim command --------------------------------------------------------------

def _heights_chart(path, samples, rest_height, title) -> None:
    """The claw, mesh and rest heights of the samples over time, as an
    SVG chart; its arrays are built only when the chart is written."""
    # a sample's first three fields: t_ms, claw_z, mesh_z
    t, claw_z, mesh_z = np.array([s[:3] for s in samples]).T
    svgplot.line_chart(path, [("claw", t, claw_z), ("mesh", t, mesh_z),
                              ("rest", t, np.full(len(t), rest_height))],
                       title=title, xlabel="time (ms)", ylabel="height (mm)")


def cmd_sim(args, ctx: RunContext) -> int:
    chain = ctx.cfg.build_chain()
    leg = ctx.cfg.build_leg()
    mesh = ctx.cfg.build_mesh()
    limits = ctx.cfg.build_limits()
    dt = ctx.cfg.sim_params()["dt_ms"]
    scenario = ctx.cfg.build_scenario(args.scenario, chain, mesh)
    claw_len = ctx.cfg.claw_params()["length_mm"]

    samples, final = contact_mod.run_demo_cycle(
        leg, chain, mesh, scenario, dt_ms=dt, limits=limits,
        claw_length=claw_len, **ctx.cfg.ik_params())
    ctx.write(f"{scenario.name}_demo.csv", contact_mod.save_demo_csv, samples)
    ctx.write(f"{scenario.name}_events.csv", write_table, ["t_ms", "event"],
              [[float(t), kind] for t, kind in final.events])
    if samples:
        ctx.write(f"{scenario.name}_heights.svg", _heights_chart, samples,
                  mesh.rest_height, title=f"Scenario {scenario.name}")
    for t, kind in final.events:
        print(f"event t={t:.0f} ms: {kind}")
    failures = sum(1 for _, kind in final.events if kind == "ClawFailure")
    if failures and not scenario.expect_failures:
        print(f"{failures} ClawFailure event(s) in scenario "
              f"{scenario.name!r}", file=sys.stderr)
        return 1
    return 0


# -- gait command -------------------------------------------------------------

def _parse_pair(text: str):
    parts = [p.strip() for p in parse_row(text)]
    if len(parts) not in (7, 8):
        raise DomainError(
            f"--pair: expected label,mean_a,sd_a,n_a,mean_b,sd_b,n_b"
            f"[,published_p], got {text!r}")
    try:
        a, b = (stats_mod.GroupStats(float(mean), float(sd), int(n))
                for mean, sd, n in (parts[1:4], parts[4:7]))
        pub = float(parts[7]) if len(parts) == 8 else None
        return stats_mod.ConditionPair(parts[0], a, b, pub)
    except ValueError as err:
        raise DomainError(f"--pair {text!r}: {err}") from None


def _write_report(ctx: RunContext, pairs) -> None:
    """Print the comparison report and write report.csv and report.txt."""
    rows = stats_mod.comparison_report(pairs)
    text = stats_mod.format_report_text(rows)
    print(text)
    ctx.write("report.csv", write_table, stats_mod.REPORT_COLUMNS,
              [[r[c] for c in stats_mod.REPORT_COLUMNS] for r in rows])
    ctx.write("report.txt", Path.write_text, text + "\n")


def cmd_gait(args, ctx: RunContext) -> int:
    if args.summary_stats:
        if not args.pair:
            raise DomainError("--summary-stats needs at least one --pair")
        _write_report(ctx, [_parse_pair(p) for p in args.pair])
        return 0

    if not args.input:
        raise DomainError("gait needs --input files (or --summary-stats "
                          "with --pair)")
    conditions = args.condition or []
    if conditions and len(conditions) != len(args.input):
        raise DomainError("--condition must be given once per --input")
    if not conditions:
        conditions = ["all"] * len(args.input)

    ap = ctx.cfg.analytics_params()
    cycle_kwargs = dict(hysteresis_frac=ap["hysteresis_frac"],
                        min_separation_ms=ap["min_separation_ms"])
    metric_rows = []
    grouped: dict = {}
    for path, condition in zip(args.input, conditions):
        try:
            ctx.note_input(path)
            rec = gait_mod.load_recording(path, rate=ap["rate_fps"])
        except (OSError, ValueError) as err:
            raise DomainError(f"{path}: {err}") from None
        try:
            tm = gait_mod.trial_metrics(
                rec, args.side, interpolate_gaps=ap["interpolate_gaps"],
                **cycle_kwargs)
        except gait_mod.NoCyclesFound as err:
            print(f"warning: {path}: no cycles found ({err})",
                  file=sys.stderr)
            metric_rows.append([str(path), condition, args.side, 0,
                                None, None])
            continue
        metric_rows.append([
            str(path), condition, args.side, len(tm.cycle_times),
            tm.mean_cycle_time,
            tm.mean_bend_amplitude if tm.bend_amplitudes else None,
        ])
        grouped.setdefault(condition, []).append(tm)
    ctx.write("metrics.csv", write_table,
              ["input", "condition", "side", "n_cycles", "mean_cycle_ms",
               "mean_amplitude_deg"], metric_rows)
    for row in metric_rows:
        cyc = "n/a" if row[4] is None else f"{row[4]:.1f} ms"
        print(f"{row[0]} [{row[1]}]: {row[3]} cycles, mean cycle {cyc}")

    labels = [c for c in grouped if len(grouped[c]) >= 2]
    if len(labels) == 2:
        pairs = []
        for metric, pick in (("cycle_time_ms", lambda m: m.cycle_times),
                             ("bend_amplitude_deg",
                              lambda m: m.bend_amplitudes)):
            label = f"{metric}:{labels[0]}_vs_{labels[1]}"
            # per trial, the mean of its values; a trial with none is
            # left out of the metric
            groups = [np.array([np.mean(pick(m)) for m in grouped[c]
                                if pick(m)]) for c in labels]
            if min(map(len, groups)) < 2:
                print(f"warning: {label}: fewer than 2 trials with a value "
                      f"in a condition; row left out of the report",
                      file=sys.stderr)
                continue
            pairs.append(stats_mod.ConditionPair(label, *(
                stats_mod.GroupStats(float(v.mean()), float(v.std(ddof=1)),
                                     len(v)) for v in groups)))
        _write_report(ctx, pairs)
    return 0


# -- parser / dispatch --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"configuration file (default "
                        f"./{DEFAULT_CONFIG_NAME}, or ${CONFIG_ENV_VAR})")
    common.add_argument("--out", default="tarsim_out",
                        help="output directory (default tarsim_out)")
    common.add_argument("--format", choices=("csv", "svg", "both"),
                        default="csv", help="output formats to emit")

    parser = argparse.ArgumentParser(
        prog="tarsim",
        description="Tendon-driven tarsus simulator and gait analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chain", parents=[common],
                       help="tarsal chain bend/pull tables and curves")
    p.add_argument("--pull", type=float, help="string pull in mm")
    p.add_argument("--sweep", help="pull sweep start:stop:step (mm)")
    p.add_argument("--stiffness", action="store_true",
                   help="emit force-displacement curves for both modes")

    p = sub.add_parser("leg", parents=[common],
                       help="leg forward/inverse kinematics and retargeting")
    p.add_argument("--fk", help="joint angles in degrees: q1,q2,q3,q4")
    p.add_argument("--ik", help="tip target in mm: x,y,z")
    p.add_argument("--q0", help="IK start joint angles in degrees")
    p.add_argument("--retarget", help="trajectory CSV to scale onto the leg")
    p.add_argument("--scale", type=float, default=None,
                   help=f"retarget scale factor (default from config, "
                   f"{leg_mod.RETARGET_SCALE:g})")
    p.add_argument("--origin", help="scaling origin x,y,z (default first "
                   "sample)")
    p.add_argument("--to-joints", action="store_true",
                   help="also solve the retargeted trajectory to joints")

    p = sub.add_parser("sim", parents=[common],
                       help="run a scripted leg-on-mesh scenario")
    p.add_argument("--scenario", required=True,
                   help="scenario name (walk_cycle, tubed, or from config)")

    p = sub.add_parser("gait", parents=[common],
                       help="marker-recording metrics and group statistics")
    p.add_argument("--input", action="append",
                   help="marker CSV (repeatable)")
    p.add_argument("--condition", action="append",
                   help="condition label, one per --input")
    p.add_argument("--side", choices=("left", "right"), default="right")
    p.add_argument("--summary-stats", action="store_true",
                   help="bypass recordings; t-test summary pairs directly")
    p.add_argument("--pair", action="append",
                   help="label,mean_a,sd_a,n_a,mean_b,sd_b,n_b[,published_p]")
    return parser


def _resolve_config(args) -> tuple[Config, Path | None]:
    """The first of --config, $TARSIM_CONFIG and ./tarsim.conf that is
    set, read; the built-in defaults when none is."""
    env = os.environ.get(CONFIG_ENV_VAR)
    path = args.config or env or (DEFAULT_CONFIG_NAME if os.path.exists(
        DEFAULT_CONFIG_NAME) else None)
    if path is None:
        return Config.default(), None
    try:
        return load_config(path), Path(path)
    except ConfigError as err:
        if args.config:
            raise
        where = f"${CONFIG_ENV_VAR}" if env else f"./{DEFAULT_CONFIG_NAME}"
        raise ConfigError(f"{where}: {err}") from None


# Built by the first call to main and reused by every later one in the
# process: parse_args keeps no state in the parser between calls.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if argv is None:
        argv = sys.argv[1:]
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the output directory, or the nearest part of its path that exists,
    # must be a directory
    found = args.out
    while found and not os.path.exists(found):
        found = os.path.dirname(found)
    if found and not os.path.isdir(found):
        print(f"error: --out {args.out}: {found} is not a directory",
              file=sys.stderr)
        return 2
    try:
        cfg, config_path = _resolve_config(args)
        ctx = RunContext(cfg, Path(args.out), args.format, config_path)
        # looked up per call, so a cmd_* rebound after the parser was
        # built (a wrapper, a test's patch) is the one that runs
        rc = globals()[f"cmd_{args.command}"](args, ctx)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (DomainError, chain_mod.ChainSolveError, leg_mod.NotReachable,
            gait_mod.NoCyclesFound, stats_mod.ZeroVariance) as err:
        print(f"error: {err}", file=sys.stderr)
        ctx.write_manifest(argv)
        return 1
    ctx.write_manifest(argv)
    return rc


def entry() -> None:
    sys.exit(main())
