"""Tests of the benchmark itself: inputs, statistics, checks and tracing."""

from itertools import islice

import pytest

import reference
import workloads
from common import per_op, percentile
from speed import CAL_REF_S, scaled
from tracer import Tracer
from verify_cli import CHECKS, judge


@pytest.mark.parametrize("workload", ["point-small", "point-hard"])
def test_same_seed_gives_same_inputs(workload):
    first = list(islice(workloads.point_ops(workload, 7), 500))
    assert first == list(islice(workloads.point_ops(workload, 7), 500))
    assert first != list(islice(workloads.point_ops(workload, 8), 500))
    assert workloads.verify_grids(7) == workloads.verify_grids(7)
    assert workloads.verify_grids(7) != workloads.verify_grids(8)


def test_point_small_never_repeats_a_spec():
    ops = list(islice(workloads.point_small_ops(3), 20000))
    assert len(set(ops)) == len(ops)


def test_percentile_reports_its_sample_count():
    p = percentile([5.0, 1.0, 3.0, 2.0, 4.0], 90)
    assert p.samples == 5
    assert p.value == pytest.approx(4.6)
    assert percentile([2.0], 50) == (2.0, 1)


def test_scaled_time_skips_calibrations_and_rescales_each_gap():
    # Calibrations at [0, 1] and [3, 4] took CAL_REF_S and 2 CAL_REF_S: the
    # gap between them ran at 2/3 of the reference speed on average.
    samples = [[0.0, 1.0, CAL_REF_S], [3.0, 4.0, 2 * CAL_REF_S], [6.0, 7.0, 2 * CAL_REF_S]]
    assert scaled(samples, 1.5, 2.5) == pytest.approx(1.0 / 1.5)
    assert scaled(samples, 2.0, 5.0) == pytest.approx(1.0 / 1.5 + 1.0 / 2.0)


def test_injected_wrong_value_counts_as_failure():
    ref = reference.reference("struve", (0.0, 1.0))
    right = float(ref)
    assert not reference.check("struve_l", {"value": right, "est": 1e-15}, ref)["failed"]
    assert reference.check("struve_l", {"value": right * (1 + 1e-6)}, ref)["failed"]
    assert reference.check("struve_l", {"error": "ConvergenceError: x"}, ref)["failed"]
    # A lower bound above the integral is wrong even if the integral is right.
    outcome = {"value": right, "bounds": {"bi4": right * 1.01}}
    assert reference.check("bound_report", outcome, ref)["failed"]


def test_error_estimate_violation_is_reported_not_failed():
    ref = reference.reference("struve", (0.0, 1.0))
    got = reference.check("struve_l", {"value": float(ref) * (1 + 1e-12), "est": 1e-20}, ref)
    assert got["est_violation"] and not got["failed"]


def test_references_come_from_children_that_are_waited_for(tmp_path):
    ops = [("struve_l", (0.0, 1.0)), ("struve_l_scaled", (1.0, 40.0)), ("struve_l", (0.0, 1.0))]
    cache = tmp_path / "refs.json"
    got = reference.references(ops, cache)
    assert got == {
        reference.op_key("struve_l", (0.0, 1.0)): reference.reference("struve", (0.0, 1.0)),
        reference.op_key("struve_l_scaled", (1.0, 40.0)):
            reference.reference("struve_scaled", (1.0, 40.0)),
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == ["refs.json"]
    assert reference.references(ops, cache) == got


def test_integral_reference_matches_closed_form():
    from struveint import integral_closed_form

    want = integral_closed_form(0.0, 1.0)
    assert float(reference.integral(0.0, 0.0, 0.0, 1.0)) == pytest.approx(want, rel=1e-14)


def test_verify_judge_excuses_only_the_documented_failure():
    header = "check,status,points,skipped,worst_margin,witness,note\n"
    rows = [f"{name},pass,1,0,1,w,n\n" for name in CHECKS]
    ok = header + "".join(rows)
    assert judge(0, ok.encode()) == ""
    excused = ok.replace(
        "tightness_large_x,pass,1,0,1,w",
        "tightness_large_x,fail,8,0,-6e-05,bound=bi5 gamma=0.5 nu=1 x=300 ratio=0.98994",
    )
    assert judge(1, excused.encode()) == ""
    assert judge(0, excused.encode()) != ""
    assert judge(1, ok.replace("ordering,pass", "ordering,fail").encode()) != ""


def test_counter_plumbing_on_a_spec_without_subdivisions():
    from struveint import IntegralSpec, bounds, integrals, quadrature

    original = integrals.integral_quadrature
    tracer = Tracer()
    tracer.install()
    try:
        assert bounds.integral_quadrature is not original  # from-import rebound too
        result = integrals.integral_quadrature(IntegralSpec(0.0, 0.0, 1.0, 0.5))
    finally:
        tracer.uninstall()
    assert result.subdivisions == 0
    assert integrals.integral_quadrature is original
    assert quadrature.adaptive_quadrature is integrals.adaptive_quadrature
    layers = per_op(tracer.snapshot(), 1)
    assert layers["quadrature.calls"] == 1
    assert layers["quadrature.subdivisions"] == 0
    assert layers["quadrature.panels"] == 1
    assert layers["integrals.quadrature.distinct_frac"] == 1.0
