"""Span arithmetic and wrapping used by the traced run."""

import json
from pathlib import Path

import numpy as np
import pytest

import layers
import spans
from spans import Tracer, covered, self_times


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert covered([(1.0, 3.0), (0.0, 2.0), (1.5, 1.7)]) == 3.0


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]
    spans_ = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert self_times(spans_) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # Two children overlap on [3, 4] and one sticks out past the parent.
    spans_ = [
        ["p", 0.0, 10.0, -1],
        ["c", 2.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],
        ["c", 9.0, 12.0, 0],
    ]
    assert self_times(spans_)[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert min(self_times(spans_)) >= 0.0


def test_totals_do_not_double_count_recursion():
    tracer = Tracer()
    tracer.spans.extend([
        ["f", 0.0, 10.0, -1],
        ["g", 1.0, 9.0, 0],
        ["f", 2.0, 5.0, 1],
        ["f", 20.0, 21.0, -1],
    ])
    total, self_total = tracer.totals()
    assert total["f"] == 11.0
    assert self_total["f"] == pytest.approx(2.0 + 3.0 + 1.0)
    assert self_total["g"] == pytest.approx(5.0)


class _Module:
    """Stand-in for a module namespace."""


def test_install_patches_every_reference_and_restores():
    def work(x):
        return x + 1

    defining, importer = _Module(), _Module()
    defining.work = importer.work = importer.alias = work
    tracer = Tracer()
    tracer.install([defining, importer], work, tracer.span("m.work", work))
    assert defining.work is not work and importer.alias is defining.work
    assert importer.work(1) == 2 and defining.work(2) == 3
    assert tracer.counts["m.work.calls"] == 2
    assert [s[0] for s in tracer.spans] == ["m.work", "m.work"]
    tracer.uninstall()
    assert defining.work is work and importer.work is work and importer.alias is work


def test_span_records_parent_and_closes_on_error():
    tracer = Tracer()

    def inner():
        raise ValueError("boom")

    wrapped_inner = tracer.span("inner", inner)
    outer = tracer.span("outer", lambda: wrapped_inner())
    with pytest.raises(ValueError):
        outer()
    (o_name, o_start, o_end, o_parent), (i_name, i_start, i_end, i_parent) = tracer.spans
    assert (o_name, o_parent, i_name, i_parent) == ("outer", -1, "inner", 0)
    assert o_start <= i_start <= i_end <= o_end
    assert tracer._stack == []


def test_peak_measured_only_when_enabled():
    tracer = Tracer()
    alloc = tracer.span("m.alloc", lambda: bytearray(4 * 2**20), peak=True)
    alloc()
    assert "m.alloc.peak_mb" not in tracer.peaks
    tracer.measure_peaks = True
    alloc()
    assert tracer.peaks["m.alloc.peak_mb"] >= 4.0


def test_objective_counter_splits_scalar_and_vector():
    tracer = Tracer()

    def argmax(objective, lo=0.0):
        objective(np.linspace(0.0, 1.0, 5))
        return objective(0.5) + objective(lo)

    wrapped = tracer.span("optimizer.argmax_grid", argmax, on_call=spans.count_objective)
    assert wrapped(lambda x: x * 2, lo=1.0) == 3.0
    assert tracer.counts["optimizer.objective.scalar_evals"] == 2
    assert tracer.counts["optimizer.objective.vector_evals"] == 1
    names = [s[0] for s in tracer.spans]
    assert names == ["optimizer.argmax_grid"] + ["optimizer.objective"] * 3


def test_layer_metrics_match_benchmark_json():
    root = Path(__file__).resolve().parents[2]
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == list(layers.PER_LAYER)
    assert {name.split(".")[0] for name, _, _ in layers.PER_LAYER} == {*layers.MODULES, "trace"}
