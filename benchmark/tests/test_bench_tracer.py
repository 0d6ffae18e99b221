"""Tracer: self-time arithmetic, which attributes it patches, and clean exit."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import becqubit  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from becqubit import analysis, dynamics, engine, params  # noqa: E402
from tracer import Span  # noqa: E402


def test_self_time_of_nested_tree():
    spans = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 3.5, 5.0, 0),  # overlaps b: the overlap is covered once
        Span("e", 6.0, 7.0, 0),
        Span("f", 12.0, 13.0, None),
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 5.0, 3 - 1.0, 1.0, 1.5, 1.0, 1.0])


def test_function_stats_counts_recursion_once():
    spans = [
        Span("g", 0.0, 8.0, None, work=3),
        Span("g", 1.0, 3.0, 0, work=4),
        Span("h", 4.0, 6.0, 0),
        Span("g", 9.0, 10.0, None),
    ]
    stats = tracer.function_stats(spans)
    assert stats["g"]["calls"] == 3
    assert stats["g"]["work"] == 7
    assert stats["g"]["total_s"] == pytest.approx(8.0 + 1.0)
    assert stats["g"]["self_s"] == pytest.approx(4.0 + 2.0 + 1.0)
    assert stats["h"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0, "work": 0}


def _attributes():
    modules = [becqubit, params, engine, dynamics, analysis]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_wraps_the_attribute_callers_look_up():
    before = _attributes()
    with tracer.Tracer():
        assert analysis.classify_config is not before[("becqubit.analysis", "classify_config")]
        assert engine.angular_kernel is not before[("becqubit.engine", "angular_kernel")]
        # analysis calls model_from_config through its own module namespace
        assert analysis.model_from_config is params.model_from_config
        assert analysis.model_from_config is not before[("becqubit.params", "model_from_config")]
        # private helpers and the package re-exports stay as they were
        assert engine._node_set is before[("becqubit.engine", "_node_set")]
        assert becqubit.classify_config is before[("becqubit", "classify_config")]
        assert becqubit.angular_kernel is before[("becqubit", "angular_kernel")]
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_count_work():
    model = params.model_from_config(params.default_config())
    with tracer.Tracer() as tr:
        engine.rate(model, 3.0 * model.t0)
        engine.build_rate_trace(model, 5.0 * model.t0, n_points=40)
    names = [s.name for s in tr.spans]
    assert names[0] == "engine.rate"
    kernels = [s for s in tr.spans if s.name == "engine.angular_kernel"]
    assert kernels and all(s.work > 0 for s in kernels)
    assert tr.spans[kernels[0].parent].name == "engine.rate"
    (trace,) = [s for s in tr.spans if s.name == "engine.build_rate_trace"]
    assert trace.work == 40 and trace.parent is None


def _tiny_pointwise_state():
    """Two draws at t = 2 t0, where a call takes milliseconds."""
    draws = inputs.generate("pointwise", 1)["draws"][:2]
    return workloads.Pointwise().setup({"draws": [dict(d, t_over_t0=2.0) for d in draws]})


def test_untraced_round_leaves_attributes_untouched():
    before = _attributes()
    seconds, calls, failures = run.run_round(workloads.Pointwise(), _tiny_pointwise_state())
    after = _attributes()
    assert all(after[k] is before[k] for k in before)
    assert len(calls) == 4 and failures == [None] * 4 and seconds > 0


def test_traced_round_records_and_restores():
    before = _attributes()
    spans = tracer.Tracer()
    _, calls, failures = run.run_round(workloads.Pointwise(), _tiny_pointwise_state(), spans)
    after = _attributes()
    assert all(after[k] is before[k] for k in before)
    assert failures == [None] * 4
    roots = [s.name for s in spans.spans if s.parent is None]
    assert roots == ["engine.rate", "engine.decoherence"] * 2


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [row[0] for row in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [row[3] for row in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
