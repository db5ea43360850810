"""Runs of one workload: set-up timing, the timed closed loop, the traced run.

One client in one process sends the next command only after the previous
one has returned (a closed loop); there are no threads and no queue, so no
command ever waits and there is no waiting time to report.  Each command
is ``tarsim.cli.main(argv)`` called in-process, with the work root as the
working directory and its stdout and stderr captured.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from tarsim import cli

from . import checks, layers, setup_pass
from .gen import Generator
from .refkernel import Normaliser
from .spans import SpanRecorder, instrument, restore

CADENCE_S = 0.1          # workload time between reference-kernel samples
SETUP_RUNS = 7           # fresh interpreters timed per run (plus a warm-up)
SETUP_TIMEOUT_S = 60
WARMUP_INDEX = 10**6     # warm-up commands use indices no timed run uses
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10         # samples a tail percentile needs beyond it

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import tarsim
from tarbench import setup_pass
setup_pass.build()
elapsed = time.perf_counter() - t0
from tarbench.refkernel import kernel_sample
print(repr(elapsed), repr(kernel_sample()))
"""


@dataclass(frozen=True)
class Plan:
    unit: str            # what one work unit is
    period: int          # commands in one period of the generator's pattern
    min_commands: int    # a timed loop runs at least this many commands
    trace_commands: int  # fixed command count of each traced-run pass


PLANS = {
    "sim": Plan("ticks", 6, 12, 12),
    "chain_sweep": Plan("pull solves", 2, 4, 4),
    "leg_ik": Plan("IK solves", 20, 40, 200),
    "gait": Plan("frames", 1, 3, 3),
}


def execute(cmd) -> None:
    """Run one command in-process and time it."""
    err = io.StringIO()
    argv = list(cmd.argv)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        cmd.wall_s = time.perf_counter() - t0
    cmd.rc, cmd.stderr = rc, err.getvalue()


def _finish(cmd, root) -> None:
    """Check a command's outputs, note what it wrote, drop its files."""
    cmd.problems = checks.check(cmd, root)
    out = root / cmd.out
    written = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() \
        else []
    cmd.files = len(written)
    cmd.bytes = sum(p.stat().st_size for p in written)
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(root / "in" / cmd.workload / str(cmd.index),
                  ignore_errors=True)


def closed_loop(gen: Generator, workload: str, indices, norm: Normaliser,
                root, seconds=None, min_commands=0, recorder=None) -> list:
    """Run commands back to back; stop after ``seconds`` of loop time
    (generation and checks included) once ``min_commands`` have run."""
    done = []
    t0 = time.perf_counter()
    for i in indices:
        if seconds is not None and len(done) >= min_commands \
                and time.perf_counter() - t0 >= seconds:
            break
        cmd = gen.command(workload, i)
        gc.collect()  # no command pays for another's garbage
        norm.tick(time.perf_counter() - t0)
        if recorder is not None:
            recorder.command_id = i
        execute(cmd)
        if recorder is not None:
            recorder.command_id = None
        norm.add(cmd)
        norm.tick(time.perf_counter() - t0)
        _finish(cmd, root)
        done.append(cmd)
    norm.close()
    return done


def warm_up(gen: Generator, workload: str, root) -> None:
    """One untimed command, so caches fill and lazy set-up finishes."""
    cmd = gen.command(workload, WARMUP_INDEX)
    execute(cmd)
    _finish(cmd, root)


def measure_setup(src, nominal_s: float) -> tuple[list, list]:
    """Set-up time of fresh interpreters: (raw seconds, normalised).

    Each child times its own set-up, then a reference-kernel sample, so
    the two share one process and one stretch of host speed.
    """
    bench = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(bench)]))
    raw, norm = [], []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        if k == 0:
            continue  # warm-up: bytecode and file caches
        seconds, kernel_s = map(float, done.stdout.split())
        raw.append(seconds)
        norm.append(seconds * nominal_s / kernel_s)
    return raw, norm


def throughput(cmds, period: int) -> float:
    """Median over whole pattern periods of work units per second.

    A period holds every kind of command in its usual share, so each
    period's rate is comparable, and the median drops a period that a
    host-speed change caught between two kernel samples.
    """
    blocks = [cmds[k:k + period]
              for k in range(0, len(cmds) - period + 1, period)] or [cmds]
    return statistics.median(sum(c.units for c in b) / sum(c.norm_s for c in b)
                             for b in blocks)


def tail(ms) -> tuple[float, float, int] | None:
    """Highest ladder percentile with TAIL_BEYOND samples beyond it."""
    for q in TAIL_LADDER:
        if len(ms) * (1.0 - q / 100.0) >= TAIL_BEYOND:
            return q, float(np.percentile(ms, q)), len(ms)
    return None


@dataclass
class Result:
    cmds: list
    metrics: dict        # name -> (value, unit), the result line
    report: list         # human-readable lines


def run_untraced(workload, seed, seconds, nominal_s, root, src) -> Result:
    plan = PLANS[workload]
    setup_raw, setup_norm = measure_setup(src, nominal_s)
    gen = Generator(seed, root)
    warm_up(gen, workload, root)
    norm = Normaliser(nominal_s, CADENCE_S)
    cmds = closed_loop(gen, workload, itertools.count(), norm, root,
                       seconds=seconds, min_commands=plan.min_commands)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = [1e3 * c.norm_s for c in cmds]
    raw_ms = [1e3 * c.wall_s for c in cmds]
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "throughput": (throughput(cmds, plan.period), "1/s"),
        "cmd_ms_p50": (statistics.median(ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    failed = sum(1 for c in cmds if c.problems)
    report = [
        f"workload {workload}: closed loop, 1 client, {len(cmds)} commands "
        f"in {seconds} s; throughput counts {plan.unit}",
        f"  fail_ratio {failed / len(cmds):.4f} ratio "
        f"({failed} of {len(cmds)} commands failed their output check)",
    ]
    t = tail(ms)
    if t is None:
        report.append(f"  cmd_ms_tail omitted: {len(ms)} commands leave "
                      f"no percentile above p50 with {TAIL_BEYOND} beyond")
    else:
        q, v, n = t
        report.append(f"  cmd_ms_tail p{q:g} = {v:.4f} ms "
                      f"({n} samples, {TAIL_BEYOND}+ beyond it)")
    report += [
        f"  raw, not normalised: setup {statistics.median(setup_raw):.4f} s, "
        f"cmd p50 {statistics.median(raw_ms):.4f} ms",
        f"  reference kernel: nominal {1e3 * nominal_s:.4f} ms, run median "
        f"{1e3 * statistics.median(norm.samples):.4f} ms, spread "
        f"(p90-p10)/median {norm.spread():.3f} over {len(norm.samples)} "
        f"samples",
        "  waiting time: none to report (single-threaded, queue-free)",
    ]
    return Result(cmds, metrics, report)


def run_traced(workload, seed, nominal_s, root, spans_path) -> Result:
    """Untraced then traced pass over fixed command lists of equal size.

    The traced pass runs commands 0..n-1, so its counts repeat exactly for
    a seed; the untraced pass runs n..2n-1, inputs of the same pattern
    that no cache can share with the traced pass.
    """
    plan = PLANS[workload]
    n = plan.trace_commands
    gen = Generator(seed, root)
    warm_up(gen, workload, root)
    plain = closed_loop(gen, workload, range(n, 2 * n),
                        Normaliser(nominal_s, CADENCE_S), root)
    rec = SpanRecorder()
    rec.keep = dict(layers.KEEP)
    patches = instrument(rec)
    try:
        rec.command_id = layers.SETUP
        setup_pass.build()
        rec.command_id = None
        traced = closed_loop(gen, workload, range(n),
                             Normaliser(nominal_s, CADENCE_S), root,
                             recorder=rec)
    finally:
        restore(patches)
    metrics, extra = layers.per_layer(rec, traced)
    ratio = throughput(traced, plan.period) / throughput(plain, plan.period)
    metrics["trace.throughput_ratio"] = (ratio, "ratio")
    rec.dump(spans_path)
    report = [f"workload {workload}: traced run, {n} commands untraced "
              f"then the same number traced; {len(rec)} spans written to "
              f"{spans_path.name}",
              f"  tracing overhead: traced/untraced throughput {ratio:.3f}"]
    report += [f"  {name} {value:.6g} {unit}"
               for name, (value, unit) in sorted(extra.items())]
    report.append("  waiting time: none to report (single-threaded, "
                  "queue-free)")
    return Result(plain + traced, metrics, report)
