"""Benchmark of the tarsim commands: one workload, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --ref-nominal-ms 3.0 --workload sim --seed 1 \\
        --seconds 20 --trace 0

Workloads: sim, chain_sweep, leg_ik, gait (see BENCHMARK.json for why
each one is there), or ``all`` to run each in turn; the result line then
names every metric ``<workload>.<metric>``.  ``--trace 0`` measures the
end-to-end metrics: setup_s, throughput, cmd_ms_p50 and peak_rss_mb.
``--trace 1`` runs a fixed command list untraced and then traced, and
reports per-layer counts and times and the tracing overhead.  Timings are
normalised by a reference kernel (see tarbench/refkernel.py) and read as
seconds or ms at the kernel's nominal speed, ``--ref-nominal-ms``.

Every command's output is checked against the seeded generator's truth.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The benchmark uses tarsim from ``src/`` of the working
directory and exits with code 2, printing no result, when it is missing.
Scratch files go to ``.bench_work/`` and are removed at the end, except
the traced run's spans file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

# one thread for numpy's BLAS, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TARSIM_CONFIG", None)  # only generated inputs reach tarsim

from tarbench.gen import WORKLOADS  # noqa: E402  (after the thread setting)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ref-nominal-ms", type=float, required=True,
                   help="reference kernel time at nominal host speed")
    return p.parse_args(argv)


def run_one(workload, args, root: Path, scratch: Path):
    from tarbench import runner
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    nominal_s = args.ref_nominal_ms / 1e3
    os.chdir(work)
    try:
        if args.trace:
            spans = scratch / f"spans-{workload}-seed{args.seed}.json"
            return runner.run_traced(workload, args.seed, nominal_s, work,
                                     spans)
        return runner.run_untraced(workload, args.seed, args.seconds,
                                   nominal_s, work, root / "src")
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "tarsim" / "__init__.py").is_file():
        print(f"error: no tarsim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tarsim
    if Path(tarsim.__file__).resolve().parent != (src / "tarsim").resolve():
        print(f"error: tarsim imported from {tarsim.__file__}, not {src}",
              file=sys.stderr)
        return 2

    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, cmds = {}, []
    for workload in names:
        result = run_one(workload, args, root, scratch)
        for line in result.report:
            print(line)
        for name, (value, unit) in result.metrics.items():
            print(f"  {name} {value:.6g} {unit}")
        prefix = f"{workload}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in result.metrics.items()})
        cmds += result.cmds

    failed = [c for c in cmds if c.problems]
    for c in failed[:5]:
        print(f"check failed: {c.workload}[{c.index}] {' '.join(c.argv)}: "
              f"{'; '.join(c.problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(cmds),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
