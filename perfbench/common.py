"""Paths and measurement helpers shared by the benchmark's workloads."""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Configs, counters and the reference cache; listed in .gitignore.
WORK = HERE / ".work"

#: Fresh processes timed per run; setup_s is their median.
SETUP_REPEATS = 9


class Percentile(NamedTuple):
    value: float
    samples: int


def percentile(values, q: float) -> Percentile:
    """q-th percentile (0-100) by linear interpolation between order
    statistics, with the number of samples it was taken from."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return Percentile(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs))


def child_env() -> dict:
    """Environment for struveint children: the checkout's src/ and no
    STRUVE_MAX_TERMS."""
    env = dict(os.environ)
    env.pop("STRUVE_MAX_TERMS", None)  # it changes the series term caps
    env["PYTHONPATH"] = str(SRC)
    return env


def end_to_end(latencies, setup_samples, peak_rss_mb, rss_note) -> dict:
    """End-to-end figures from speed-scaled latencies and set-up times:
    name -> (value, unit, note)."""
    n = len(latencies)
    busy = sum(latencies)
    return {
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes"),
        "ops_per_s": (n / busy, "1/s", f"{n} ops in {busy:.3f} s"),
        "op_p50_ms": (percentile(latencies, 50).value * 1e3, "ms", f"n={n}"),
        "op_p90_ms": (percentile(latencies, 90).value * 1e3, "ms", f"n={n}"),
        "peak_rss_mb": (peak_rss_mb, "MB", rss_note),
    }


def per_op(counters: dict, ops: int) -> dict:
    """Tracer totals as per-op means, plus the derived layer ratios."""
    out = {name: value / ops for name, value in counters.items()}
    calls = counters.get("integrals.quadrature.calls", 0)
    out["integrals.quadrature.distinct_frac"] = (
        counters.get("integrals.quadrature.distinct", 0) / calls if calls else 0.0
    )
    out["quadrature.panels"] = (
        counters.get("quadrature.calls", 0) + 2 * counters.get("quadrature.subdivisions", 0)
    ) / ops
    return out


def add_counters(total: dict, more: dict) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/op"
    if name.endswith(("_frac", "est_violations", "worst_rel_err")):
        return "ratio"
    return "count/op"


def layer_figures(values: dict) -> dict:
    """Per-layer values as figures: name -> (value, unit, note)."""
    return {name: (value, layer_unit(name), "") for name, value in values.items()}
