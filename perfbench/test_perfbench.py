"""Tests of the benchmark's own helpers: tail selection, span arithmetic,
the per-design correctness check, host-speed scaling, run sizing and the
tracer's wrapping."""

import copy
import math
import signal
import time

import pytest

import hostspeed
from checks import check_design, result_digest, tail_percentile
from spans import Span, Tracer, self_times
from workloads import WORKLOADS


def _ok_result():
    return {
        "status": "ok",
        "solution": {"dv_total_ms": 0.05, "solve_wall_time_s": 0.01},
        "validation": {"chan_quadrature_agree": True, "poc_log_error": 0.002,
                       "dv_total_ms": 0.05},
        "wall_time_s": 0.4,
    }


def test_tail_below_twenty_samples_is_the_median():
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tail_percentile(range(19)) == (50.0, 9)


@pytest.mark.parametrize("n", [20, 25, 100, 1000])
def test_tail_keeps_ten_samples_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    percentile, value = tail_percentile(samples)
    assert sum(s > value for s in samples) == 10
    assert value == n - 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_self_time_subtracts_children_and_algebra_time():
    spans = [
        Span(0, None, 7, "root", 0.0, 10.0),
        Span(1, 0, 7, "a", 1.0, 4.0, leaf_s=0.5),
        Span(2, 1, 7, "b", 2.0, 3.0),
        Span(3, 0, 7, "c", 5.0, 9.0, leaf_s=1.0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 1.5, 2: 1.0, 3: 3.0})


def test_check_passes_a_good_result():
    assert check_design(0, _ok_result()) == []


@pytest.mark.parametrize("doctor", [
    lambda r: r["validation"].__setitem__("chan_quadrature_agree", False),
    lambda r: r["validation"].__setitem__("poc_log_error", 0.2),
    lambda r: r["validation"].__setitem__("poc_log_error", math.inf),
    lambda r: r["solution"].__setitem__("dv_total_ms", math.nan),
    lambda r: r.__setitem__("status", "error"),
])
def test_check_flags_a_doctored_result(doctor):
    result = _ok_result()
    doctor(result)
    assert check_design(0, result)


def test_check_flags_a_nonzero_exit():
    assert check_design(4, {"status": "error", "error": {}})


def test_digest_ignores_only_timing_fields():
    result = _ok_result()
    retimed = copy.deepcopy(result)
    retimed["wall_time_s"] = 9.0
    retimed["solution"]["solve_wall_time_s"] = 3.0
    assert result_digest(result) == result_digest(retimed)
    retimed["validation"]["poc_log_error"] = 0.003
    assert result_digest(result) != result_digest(retimed)


def test_scale_maps_host_time_to_reference_time():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(ref, ref) == pytest.approx(1.0)
    # A host running the kernel twice as slow halves the work's time.
    assert hostspeed.scale(1.5 * ref, 2.5 * ref) == pytest.approx(0.5)


def test_kernel_sample_is_positive_and_finite():
    assert 0.0 < hostspeed.sample() < 1.0


def test_sampler_samples_during_work_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        began = time.perf_counter()
        while time.perf_counter() - began < 1.5 * hostspeed.INTERVAL_S:
            pass
    assert len(sampler.samples) == 1
    assert 0.0 < sampler.spent_s < hostspeed.INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_size_follows_seconds_and_rate():
    workload = WORKLOADS["node_search"]
    assert workload.count(0.0) == 1
    assert workload.count(20.0) == round(20.0 * workload.rate)


def test_single_impulse_list_keeps_length_and_mix():
    pytest.importorskip("polycam.scenarios")
    designs = WORKLOADS["single_impulse"].build(5, 12)
    assert len(designs) == 12
    kinds = [d.label.rsplit("/", 1)[-1] if "/" in d.label else "cislunar"
             for d in designs]
    assert kinds[:5] == ["kepler", "j2", "kepler", "j2", "cislunar"]
    assert kinds.count("cislunar") == 2
    assert len({d.label for d in designs}) == 12
    assert WORKLOADS["single_impulse"].build(5, 12) == designs


def test_tracer_nests_layers_and_restores_call_sites():
    mapbuilder = pytest.importorskip("polycam.mapbuilder")
    from polycam.dapoly import TaylorPoly
    from polycam.dynamics import PropagationConfig
    from polycam.scenarios import generate_synthetic_suite, scenario_to_event

    event = scenario_to_event(generate_synthetic_suite(3, 1, "LEO")[0])
    schedule = mapbuilder.ControlSchedule(mode=mapbuilder.IMPULSIVE,
                                          node_epochs=(-600.0,))
    original_build = mapbuilder.build_poc_map
    original_mul = TaylorPoly.__dict__["__mul__"]
    tracer = Tracer()
    with tracer.installed():
        with tracer.design(0):
            mapbuilder.build_poc_map(event, schedule, 1,
                                     PropagationConfig(steps=5))
    assert mapbuilder.build_poc_map is original_build
    assert TaylorPoly.__dict__["__mul__"] is original_mul
    assert TaylorPoly.__dict__["__rmul__"] is original_mul

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["cli.run_scenario"]
    (build,) = by_name["mapbuilder.build_poc_map"]
    assert build.parent == root.id
    steps = by_name["dynamics.propagate_vector"]
    assert {s.attrs["kind"] for s in steps} == {"poly", "float"}
    assert all(s.design == 0 for s in tracer.spans)
    assert tracer.leaf_calls["mul"] > 0
    own = self_times(tracer.spans)
    assert all(value >= -1e-9 for value in own.values())
