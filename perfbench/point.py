"""The point-small and point-hard workloads: single library calls.

Each run starts SETUP_REPEATS fresh worker processes and times each one
from spawn to ``ready`` (import plus warm-up), scaled by the
calibration the worker runs right after; the last one goes on to the
closed loop of ops.  References are computed afterwards, outside
both the timed phase and set-up, and every op is checked against its
own.
"""

from __future__ import annotations

import json
import subprocess
import sys
from time import perf_counter

import reference
from common import HERE, ROOT, SETUP_REPEATS, WORK, end_to_end, layer_figures, per_op
from speed import CAL_REF_S, scaled

#: Ops whose result comes from a layer, for the per-layer error figures.
LAYER_KINDS = {
    "specfun": ("struve_l", "struve_l_scaled"),
    "integrals": ("quadrature", "series", "log_quadrature", "bound_report"),
}


def spawn_worker(args, env, setup_only: bool):
    """Start a worker; return (seconds until it was ready, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           repr(args.seconds), str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready_s = perf_counter() - t0
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait()
    if first.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit status {proc.returncode})")
    return ready_s, [json.loads(line) for line in rest.splitlines()]


def run(args, env) -> dict:
    ready, setup = [], []
    for i in range(SETUP_REPEATS):
        seconds, lines = spawn_worker(args, env, setup_only=i < SETUP_REPEATS - 1)
        ready.append(seconds)
        setup.append(seconds * CAL_REF_S / lines[0]["ready_cal"])
    records, result = lines[1:-1], lines[-1]

    refs = reference.references(
        [(kind, a) for kind, a, _, _ in records],
        WORK / f"refs-{args.workload}-{args.seed}.json",
    )
    checks = [reference.check(kind, out, refs[reference.op_key(kind, a)])
              for kind, a, _, out in records]
    failures = [(r, c) for r, c in zip(records, checks) if c["failed"]]
    worst_i = max(range(len(records)), key=lambda i: checks[i]["rel_err"])
    ops = len(records)
    latencies = [min(scaled(result["samples"], t0, t1) for t0, t1 in calls)
                 for _, _, calls, _ in records]

    figures = {
        "fail_frac": (len(failures) / ops, "ratio", f"{len(failures)} of {ops} ops"),
        "worst_rel_err": (checks[worst_i]["rel_err"], "ratio",
                          f"{records[worst_i][0]}{tuple(records[worst_i][1])}"),
    }
    if not args.trace:
        figures.update(end_to_end(latencies, setup, result["peak_rss_mb"], "worker process"))
        figures["raw.setup_s"] = (sorted(ready)[len(ready) // 2], "s", "unscaled")
    layers = {}
    for layer, kinds in LAYER_KINDS.items():
        mine = [c for r, c in zip(records, checks) if r[0] in kinds and not c["failed"]]
        claimed = [c for r, c in zip(records, checks)
                   if r[0] in kinds and "est" in r[3]]
        layers[f"{layer}.worst_rel_err"] = max((c["rel_err"] for c in mine), default=0.0)
        layers[f"{layer}.est_violations"] = (
            sum(c["est_violation"] for c in claimed) / len(claimed) if claimed else 0.0
        )
    if args.trace:
        layers.update(per_op(result["counters"], ops))
        layers["trace.overhead_frac"] = sum(latencies) / result["untraced_s"] - 1.0
    figures.update(layer_figures(layers))

    notes = [f"op {kind}{tuple(a)}: {c['why']}" for (kind, a, *_), c in failures[:5]]
    return {"figures": figures, "attempted": ops, "failed": len(failures), "notes": notes}
