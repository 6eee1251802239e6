"""Tests of the benchmark itself. Run from the repository root:

    python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracing import NullTracer, Span, Tracer, self_time_by_layer, self_times  # noqa: E402

TINY = workloads.Sizes(
    gen_frames=2, gen_sequences=1, gen_sequence_length=2, sequence_length=4,
    train_frames=4, train_steps=2, infer_frames=4, infer_batch=4,
    interact_sequences=4, heldout_sequences=2, latency_items=10, setup_repeats=2,
    probe_repeats=1)


def declared(kind):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_declared_metric(tmp_path, name, trace):
    result = workloads.run_workload(name, seed=3, seconds=0.01, trace=trace,
                                    work=tmp_path, sizes=TINY)
    assert result.correct and result.counter.attempted > 0
    want = declared("per_layer" if trace else "end_to_end")
    assert result.units == want
    assert set(result.metrics) == set(want)
    assert all(np.isfinite(v) for v in result.metrics.values())
    if not trace:
        assert all(v > 0 for v in result.metrics.values())


def test_self_time_on_hand_built_tree():
    spans = [
        Span("bench.cycle", 0.0, 10.0, None),
        Span("synth.sample_scene", 1.0, 4.0, 0),
        Span("pipeline.gen_data", 5.0, 9.0, 0),
        Span("synth.save_frames", 6.0, 8.0, 2),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert self_time_by_layer(spans) == {"bench": 3.0, "synth": 5.0, "pipeline": 2.0}


class Constant:
    """A workload whose rounds and items report fixed times."""

    name = "constant"

    def items(self, st):
        return 3

    def bulk(self, st, tracer):
        with tracer.span("constant.bulk"):
            return 10, 0.5

    def single(self, st, i, tracer):
        return 0.001 * (i + 1)


def test_measure_alternates_tracers_and_runs_every_setup():
    tracer, setups = Tracer(), []
    (plain, traced), cycles, ref_ms = workloads.measure(
        Constant(), None, 0.0, [NullTracer(), tracer], workloads.Counter(),
        lambda: setups.append(1), 4)
    assert cycles == 2 * workloads.MIN_CYCLES and len(setups) == 4
    assert ref_ms > 0
    assert plain == traced
    assert plain.metrics()["throughput_per_s"] == 20.0
    assert plain.pass_p50_ms() == [2.0] * workloads.MIN_CYCLES
    assert workloads.paired_ratio(plain.rates, traced.rates) == 1.0
    assert len(tracer.durations("bench.cycle")) == workloads.MIN_CYCLES
    assert len(tracer.durations("constant.bulk")) == workloads.MIN_CYCLES


def test_nan_in_a_prediction_copy_trips_the_infer_check(tmp_path):
    st = workloads.Infer().setup(TINY, 4, tmp_path)
    preds = workloads.pipeline.predict_frames(st.cfg, st.data["params"], st.data["frames"])
    assert workloads.check_predictions(preds, preds) == []
    hand = preds[1].hand_points.copy()
    hand[3, 2] = np.nan
    broken = list(preds)
    broken[1] = replace(preds[1], hand_points=hand)
    assert workloads.check_predictions(broken)
    assert workloads.check_predictions(preds, broken)
    with pytest.raises(workloads.CheckFailed):
        workloads.require(workloads.check_predictions(broken))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "infer", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
