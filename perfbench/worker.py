"""One process of a point workload: set-up, then a closed loop of ops.

Usage: PYTHONPATH=src python perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Prints ``ready`` once struveint is imported and the workload's warm-up
is done, then one JSON line with a calibration of its speed (speed.py).
Unless --setup-only, it then runs a closed loop of ops from the seeded
stream for SECONDS, printing one JSON line per op (inputs, call times,
outcome), and last a line with the loop's calibration samples, the
process's peak RSS, and with TRACE=1 the tracer's totals plus the time
of the same ops replayed untraced.
"""

from __future__ import annotations

import json
import resource
import sys
from itertools import islice
from time import perf_counter

import workloads
from speed import SpeedSampler, calibrate, scaled
from struveint import bounds, d_constant, integrals, specfun


def _call(kind: str, args: list) -> dict:
    # Functions are looked up on their modules at each call, so that
    # installed tracer wrappers are the ones used.
    if kind == "struve_l":
        r = specfun.struve_l(*args)
        return {"value": r.value, "est": r.abs_error_estimate}
    if kind == "struve_l_scaled":
        r = specfun.struve_l_scaled(*args)
        return {"value": r.value, "est": r.abs_error_estimate}
    spec = integrals.IntegralSpec(*args)
    if kind == "quadrature":
        r = integrals.integral_quadrature(spec)
        return {"value": r.value, "est": r.abs_error_estimate}
    if kind == "series":
        if spec.gamma > 0.0:
            r = integrals.integral_series_oracle(spec)
        else:
            r = integrals.integral_power_series(spec.nu, spec.n, spec.x)
        return {"value": r.value, "est": r.abs_error_estimate}
    if kind == "log_quadrature":
        return {"value": integrals.log_integral_quadrature(spec)}
    if kind == "bound_report":
        r = bounds.bound_report(spec)
        return {"value": r.integral, "bounds": r.applicable_bounds}
    raise ValueError(f"unknown op kind {kind!r}")


#: An op is called back to back until it has run REPEATS times or for
#: REPEAT_BUDGET_S, and timed by its fastest call.  Calibration takes out
#: the host's slow drifts in speed; the fastest of a few calls takes out
#: its bursts of a few milliseconds, which matter only for short ops.
#: Long ops run once, so that a run still holds enough of them for its
#: 90th percentile.
REPEATS = 3
REPEAT_BUDGET_S = 0.01


def run_ops(ops, seconds: float | None, emit, repeats: int = REPEATS) -> list:
    """Closed loop over ``ops``, passing each op's record to ``emit``.

    A record is ``[kind, args, calls, outcome]`` with ``calls`` the
    ``[t0, t1]`` of each call; the op's latency is its fastest call at
    the reference speed (speed.scaled with the returned calibration
    samples).  With ``seconds``, stops starting ops once that much time
    has passed.  An op that raises, or whose repeated calls disagree, is
    recorded with that as its error and the loop goes on.  Traced runs
    pass ``repeats=1`` so that the layer counters hold one call per op.
    """
    deadline = None if seconds is None else perf_counter() + seconds
    with SpeedSampler() as sampler:
        for kind, args in ops:
            if deadline is not None and perf_counter() >= deadline:
                break
            calls, outcomes = [], []
            start = perf_counter()
            while len(calls) < repeats and perf_counter() - start < REPEAT_BUDGET_S:
                t0 = perf_counter()
                try:
                    outcome = _call(kind, args)
                except Exception as exc:  # counted as a failed op, never fatal
                    outcome = {"error": f"{type(exc).__name__}: {exc}"}
                calls.append([t0, perf_counter()])
                outcomes.append(outcome)
            outcome = outcomes[0]
            if any(o != outcome for o in outcomes):
                outcome = {"error": f"repeated calls disagree: {outcomes}"}
            emit([kind, list(args), calls, outcome])
    return sampler.samples


def _emit_line(record) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def main() -> None:
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    trace = sys.argv[4] == "1"
    if workload == "point-small":
        for nu, n in workloads.DEFAULT_PAIRS:
            d_constant(nu, n)
    print("ready", flush=True)
    # The speed of this process's set-up, measured in this process.
    _emit_line({"ready_cal": calibrate()})
    if "--setup-only" in sys.argv[5:]:
        return
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # Records go out as they complete, so that the bookkeeping does not
    # grow this process's peak RSS with the number of ops.
    ops = 0

    def emit(record):
        nonlocal ops
        ops += 1
        _emit_line(record)

    repeats = 1 if trace else REPEATS
    result = {"samples": run_ops(workloads.point_ops(workload, seed), seconds, emit, repeats)}
    if tracer is not None:
        tracer.uninstall()
        result["counters"] = tracer.snapshot()
        replay = []
        samples = run_ops(islice(workloads.point_ops(workload, seed), ops), None,
                          replay.append, repeats)
        result["untraced_s"] = sum(
            min(scaled(samples, t0, t1) for t0, t1 in calls) for _, _, calls, _ in replay
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _emit_line(result)


if __name__ == "__main__":
    main()
