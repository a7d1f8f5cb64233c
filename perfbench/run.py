"""struveint benchmark: one workload per run, measured from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload {verify-cli,point-small,point-hard}
        --seed N --seconds S --trace {0,1}

One caller drives a closed loop: the next op starts when the previous one
has returned, and at most one struveint child runs at a time.  Children
run the package from ``src/`` with STRUVE_MAX_TERMS removed from their
environment.  The run prints the environment, every metric with its unit
and sample count, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
``end_to_end`` entries of BENCHMARK.json with --trace 0 and the
``per_layer`` entries with --trace 1.  Metric names and units are read
from BENCHMARK.json; README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

from common import ROOT, SRC, WORK, child_env
from workloads import WORKLOADS


def describe_environment(seed: int) -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"python {platform.python_version()} | sha {git_sha()} | cpu {cpu} | "
        f"nproc {os.cpu_count()} | seed {seed} | STRUVE_MAX_TERMS unset in children"
    )


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "struveint" / "__init__.py").is_file():
        print(f"error: no struveint package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # SIGTERM unwinds like an exception, so that every child is still waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    print(f"# {args.workload}, {args.seconds:g} s, trace {args.trace} | "
          + describe_environment(args.seed))

    if args.workload == "verify-cli":
        from verify_cli import run
    else:
        from point import run
    run_result = run(args, child_env())

    figures = run_result["figures"]
    for name, (value, unit, note) in sorted(figures.items()):
        print(f"  {name:<36} {value:<14.6g} {unit:<8} {note}")
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        # A per-layer counter that never moved was never recorded.
        value = figures[entry["name"]][0] if args.trace == 0 or entry["name"] in figures else 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for line in run_result["notes"]:
        print(f"# {line}")
    print(json.dumps({
        "correct": run_result["failed"] == 0,
        "attempted": run_result["attempted"],
        "failed": run_result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
