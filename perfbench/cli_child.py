"""Run one struveint CLI command as a verify-cli op.

Usage: PYTHONPATH=src python perfbench/cli_child.py REPORT_JSON TRACE ARGS...

ARGS go to ``struveint.cli.main`` exactly as to ``python -m
struveint.cli``; stdout, stderr and the exit status are the CLI's own.
The process samples its own CPU speed while it runs (speed.py), and with
TRACE=1 it installs the layer tracer.  REPORT_JSON receives the time
from the start of this script to the CLI's return (raw and at the
reference speed) and the tracer's totals.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from speed import SpeedSampler, scaled  # noqa: E402


def main() -> None:
    report_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    status = 0
    with SpeedSampler() as sampler:
        import struveint.cli

        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        sys.argv = ["struveint", *cli_args]
        try:
            struveint.cli.main()
        except SystemExit as exc:
            status = exc.code
        t1 = perf_counter()
    first_begin, _, first_cal = sampler.samples[0]
    report = {
        "span_s": t1 - T0,
        "scaled_s": scaled(sampler.samples, T0, t1),
        # Before the first calibration; scaled by it in the parent.
        "unsampled_s": first_begin - T0,
        "first_cal_s": first_cal,
        "counters": tracer.snapshot() if tracer is not None else None,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    sys.exit(status)


if __name__ == "__main__":
    main()
