"""The verify-cli workload: one ``python -m struveint.cli verify`` child per op.

The configs cycle through the default grid and the seeded grids, so each
config runs several times per run and its CSV can be compared across
invocations.  Every child runs through ``cli_child.py``, which calls the
CLI's entry point as ``python -m struveint.cli`` would while sampling its
own CPU speed.  setup_s times ``--version``.  With --trace 1 the children
also install the tracer, and each is followed by the same verify
untraced, to price the tracing.
"""

from __future__ import annotations

import csv
import io
import json
import resource
import subprocess
import sys
from time import perf_counter

import workloads
from common import (
    HERE, ROOT, SETUP_REPEATS, WORK, add_counters, end_to_end, layer_figures, per_op,
)
from speed import CAL_REF_S

CHECKS = (
    "oracle_triangle",
    "closed_form_agreement",
    "ordering",
    "equality_boundary",
    "tightness_large_x",
    "tightness_small_x",
    "asymptote_large_x",
    "d_properties",
    "struve_monotonicity",
    "integral_monotonicity",
)

#: The one known failure (README, "Verification status"): the bi5 ratio
#: at x = 300 sits just below the published 0.99 window.
EXCUSED = ("tightness_large_x", "bound=bi5 gamma=0.5 nu=1 x=300")

#: Longest a single verify may take before the run is abandoned.
OP_TIMEOUT_S = 150

def judge(returncode: int, stdout: bytes) -> str:
    """Why a verify's output is wrong, or "" if it is right."""
    rows = list(csv.DictReader(io.StringIO(stdout.decode())))
    names = tuple(r["check"] for r in rows)
    if names != CHECKS:
        return f"unexpected checks {names}"
    failing = [r for r in rows if r["status"] != "pass"]
    for r in failing:
        if r["check"] != EXCUSED[0] or not r["witness"].startswith(EXCUSED[1]):
            return f"{r['check']} failed at {r['witness']}"
    if returncode != (1 if failing else 0):
        return f"exit status {returncode} with {len(failing)} failing checks"
    return ""


def configs(seed: int) -> list[tuple[str, list[str]]]:
    out = [("default", [])]
    for i, grid in enumerate(workloads.verify_grids(seed)):
        path = WORK / f"grid-{seed}-{i}.json"
        path.write_text(json.dumps(grid))
        out.append((f"seeded-{i}", ["--config", str(path)]))
    return out


def run(args, env) -> dict:
    cfgs = configs(args.seed)
    report_path = WORK / f"child-{args.seed}.json"

    def child(cli_args, traced=False):
        """Run one CLI child; return (latency at reference speed, wall,
        its report, the finished process)."""
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(report_path),
               str(int(traced)), *cli_args]
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              timeout=OP_TIMEOUT_S)
        wall = perf_counter() - t0
        report = json.loads(report_path.read_text())
        # Interpreter start-up and exit lie outside the child's own
        # calibrations; they are scaled by its first one.
        outside = wall - report["span_s"] + report["unsampled_s"]
        latency = report["scaled_s"] + outside * CAL_REF_S / report["first_cal_s"]
        return latency, wall, report, proc

    ready, setup = [], []
    for _ in range(SETUP_REPEATS):
        latency, wall, _, proc = child(["--version"])
        if proc.returncode != 0:
            raise RuntimeError(f"--version failed: {proc.stderr.decode()}")
        setup.append(latency)
        ready.append(wall)

    first_csv: dict[str, bytes] = {}
    why: list[str] = []

    def op(i: int, traced: bool):
        """Run config i; return (latency at reference speed, wall, counters)."""
        label, extra = cfgs[i % len(cfgs)]
        latency, wall, report, proc = child(["verify", *extra], traced)
        problem = judge(proc.returncode, proc.stdout)
        if not problem and first_csv.setdefault(label, proc.stdout) != proc.stdout:
            problem = "CSV differs from an earlier run of the same config"
        why.append(f"{label}: {problem}" if problem else "")
        return latency, wall, report["counters"]

    results = []  # (latency, raw wall, counters)
    untraced = []  # with --trace 1, each traced op's untraced twin
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline:
        i = len(results)
        results.append(op(i, bool(args.trace)))
        if args.trace:
            untraced.append(op(i, False)[0])
    ops = len(results)
    latencies = [lat for lat, _, _ in results]

    figures = {}
    notes = []
    if not args.trace:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        figures.update(end_to_end(latencies, setup, rss, "largest child"))
        raw = sorted(wall for _, wall, _ in results)
        figures["raw.op_p50_ms"] = (raw[len(raw) // 2] * 1e3, "ms", "unscaled")
        figures["raw.setup_s"] = (sorted(ready)[len(ready) // 2], "s", "unscaled")
    else:
        totals: dict = {}
        overhead = 0.0
        for _, wall, counters in results:
            add_counters(totals, counters)
            work = sum(v for k, v in counters.items() if k.startswith("gridcheck."))
            overhead += wall - work
        layers = per_op(totals, ops)
        layers["cli.overhead_s"] = overhead / ops
        layers["trace.overhead_frac"] = sum(latencies) / sum(untraced) - 1.0
        figures.update(layer_figures(layers))
        anchor = results[0][2]
        notes.append(
            "default grid, first op: "
            + ", ".join(f"{k} {anchor.get(k, 0):g}" for k in (
                "integrals.quadrature.calls", "integrals.quadrature.distinct",
                "quadrature.calls", "quadrature.subdivisions",
                "specfun.struve_l.calls", "specfun.struve_l.terms",
                "specfun.struve_l_scaled.calls", "specfun.struve_l_scaled.terms",
                "specfun.gamma.calls", "bounds.ratio_fn.calls", "bounds.d_constant.scans",
            ))
        )
    failed = sum(bool(w) for w in why)
    figures["fail_frac"] = (failed / len(why), "ratio", f"{failed} of {len(why)} ops")
    notes.extend(w for w in why if w)
    return {"figures": figures, "attempted": len(why), "failed": failed, "notes": notes}
