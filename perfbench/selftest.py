"""The benchmark's own tests (not part of the tier-1 suite).

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import protocol  # noqa: E402
from repro.engine.accumulator import MomentAccumulator  # noqa: E402
from repro.obs import TraceRecorder, use_recorder  # noqa: E402
from repro.runtime import PooledProcessExecutor  # noqa: E402


@pytest.fixture
def wrappers():
    layers.install()
    try:
        yield
    finally:
        layers.uninstall()


def _ingest(rows: int) -> int:
    X = np.full((rows, 2), 0.1)
    return MomentAccumulator(dim=2).update(X, np.zeros(rows)).n_rows


def test_worker_spans_reach_parent_totals(wrappers):
    recorder = TraceRecorder("trace")
    with use_recorder(recorder), recorder.span(layers.ROOT) as root:
        with PooledProcessExecutor(2) as executor:
            assert executor.map(_ingest, [3, 4, 5, 6]) == [3, 4, 5, 6]
    spans = layers.bench_events(recorder.events())
    by_id = {span["id"]: span for span in spans}
    updates = [span for span in spans if span["name"] == layers.PREFIX + "engine.update"]
    assert len(updates) == 4
    assert sum(span["rows"] for span in updates) == 18
    for span in updates:
        item = by_id[span["bparent"]]
        assert item["name"] == layers.WORKER_ITEM
        assert by_id[item["bparent"]]["name"] == layers.MAP
    rows = layers.layer_totals(spans, root.span_id)
    assert sum(rows.values()) == pytest.approx(root.seconds, rel=1e-9)
    assert rows["engine"] > 0.0


def test_uninstall_restores_every_attribute(wrappers):
    assert layers.patched_attributes()
    layers.uninstall()
    assert layers.patched_attributes() == []


def test_untraced_unit_carries_no_wrappers(monkeypatch):
    monkeypatch.setattr(protocol, "FULL_REPS", 2)
    given = protocol.candidate_inputs(3)
    unit = protocol.run_unit("fm-full-sweep", protocol.load("fm-full-sweep", given), given)
    assert layers.patched_attributes() == []
    assert unit["session"].recorder.events() == []
    assert sum(unit["cells"].values()) == 2 * protocol.FOLDS * 6


def test_traced_unit_rows_sum_to_wall(monkeypatch, wrappers):
    monkeypatch.setattr(protocol, "FULL_REPS", 2)
    given = protocol.candidate_inputs(3)
    unit = protocol.run_unit("fm-full-sweep", protocol.load("fm-full-sweep", given), given, "trace")
    recorder = unit["session"].recorder
    spans = layers.bench_events(recorder.events())
    rows = layers.layer_totals(spans, unit["root_id"])
    assert sum(rows.values()) == pytest.approx(unit["wall_s"], rel=1e-9)
    values = layers.per_layer(spans, recorder.summary()["counters"], rows, unit["wall_s"], 1.0)
    assert values["runtime.moment_blocks_calls"] > 0
    assert values["runtime.tiles"] == 2
    assert values["baselines.fits.DPME"] == 0
    assert 0.0 < values["runtime.executor_busy_ratio"] <= 1.0


def test_gate_tolerates_reduction_order_only():
    expected = {"linear/FM/0.1": [0.5, 0.25]}
    cells = {"linear/FM/0.1": 5}
    assert protocol.gate({"linear/FM/0.1": [0.5 * (1 + 1e-14), 0.25]}, cells, expected)[1] == 0
    assert protocol.gate({"linear/FM/0.1": [0.5 * (1 + 1e-6), 0.25]}, cells, expected)[1] == 5
    assert protocol.gate({}, {}, expected)[1] == 1


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in layers.PER_LAYER
    ]
