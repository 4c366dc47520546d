"""Checks of the benchmark itself: traced counts, cross-checks and output checks.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import time
from array import array
from dataclasses import replace

import pytest

import pipeline
import run
import tracer
from hcccsim import mac, simulation
from hcccsim.engine import Engine, RandomStream

WORKLOADS = pipeline.WORKLOADS


def shortened(name, duration):
    w = WORKLOADS[name]
    return replace(w, overrides=dict(w.overrides, duration=duration))


def test_none_saturated_seed1_counts_reproduce(tmp_path):
    rep = pipeline.repetition(WORKLOADS["none_saturated"], 1, str(tmp_path),
                              traced=True)
    counts = rep["counts"]
    assert rep["errors"] == []
    assert counts["engine.events"] == 1_016_046
    assert counts["engine.events.backoff_wake"] == 727_206
    assert counts["channel.frames"] == 106_146
    assert sum(counts["engine.events." + h] for h in run.HANDLERS) == 1_016_046
    assert all(counts["congestion.calls." + fn] == 0
               for fn in tracer.CONGESTION_FNS)


@pytest.mark.parametrize("name,duration", [("hccc_default", 60.0),
                                           ("none_saturated", 10.0),
                                           ("aimd_lossy_large", 3.0)])
def test_traced_run_matches_untraced_and_cross_checks_hold(tmp_path, name, duration):
    workload = shortened(name, duration)
    traced = pipeline.repetition(workload, 3, str(tmp_path), traced=True)
    plain = pipeline.repetition(workload, 3, str(tmp_path))
    assert traced["errors"] == [] and plain["errors"] == []
    assert traced["digest"] == plain["digest"]
    counts = traced["counts"]
    handled = sum(counts["engine.events." + h] for h in run.HANDLERS)
    assert handled == traced["events"] == counts["engine.events"]
    assert counts["channel.frames"] == traced["frames"]
    calls = sum(counts["congestion.calls." + fn] for fn in tracer.CONGESTION_FNS)
    assert (calls > 0) == (name == "hccc_default")
    if name == "hccc_default":
        detected = sum(counts["congestion.detect." + a] for a in
                       ("declare_congestion", "damp_local_rate",
                        "clear_congestion", "no_change"))
        assert detected == counts["congestion.calls.apply_detect"]
    if name == "aimd_lossy_large":
        assert counts["channel.dst.corrupted"] > 0


def test_count_errors_flag_a_broken_cross_check(tmp_path):
    workload = shortened("hccc_default", 20.0)
    cfg = pipeline.workload_config(workload, 1, traced=True)
    t = tracer.Tracer()
    with t.installed():
        result = pipeline.build_simulation(cfg).run()
    counts = t.counts(cfg, result, [])
    assert tracer.count_errors(cfg, result, counts) == []
    counts["engine.events.tx_end"] += 1
    counts["channel.frames"] -= 1
    assert len(tracer.count_errors(cfg, result, counts)) == 2
    cfg_none = replace(cfg, scheme="none")
    assert len(tracer.count_errors(cfg_none, result, counts)) == 3


def test_invariant_errors_detect_broken_accounting():
    cfg = pipeline.workload_config(shortened("hccc_default", 20.0), 1, traced=False)
    result = pipeline.build_simulation(cfg).run()
    assert pipeline.invariant_errors(cfg, result) == []
    result.delivered += 1
    result.data_attempts += 1
    result.nodes[1].admitted += 1
    errors = pipeline.invariant_errors(cfg, result)
    assert [e.split(":")[0] for e in errors] == [
        "outcome partition", "energy identity", "buffer conservation at node 1"]


def test_seed_one_is_the_plain_cli_run():
    cfg = pipeline.workload_config(shortened("hccc_default", 10.0), 1, traced=False)
    a = pipeline.build_simulation(cfg).run()
    b = simulation.Simulation(cfg).run()
    assert a.events_processed == b.events_processed
    assert [r.outcome for r in a.records] == [r.outcome for r in b.records]


def test_tracer_restores_every_entry_point():
    before = (Engine.schedule, Engine.run_until, RandomStream.next_u64,
              mac.draw_backoff, simulation.draw_backoff, simulation.build_topology)
    t = tracer.Tracer()
    with t.installed():
        assert simulation.draw_backoff is not before[4]
        assert simulation.draw_backoff is mac.draw_backoff
    assert (Engine.schedule, Engine.run_until, RandomStream.next_u64,
            mac.draw_backoff, simulation.draw_backoff,
            simulation.build_topology) == before


def test_self_time_subtracts_covered_children():
    names = ["outer", "a", "b", "leaf"]
    spans = (array("i", [0, 1, 2, 3]), array("i", [-1, 0, 0, 2]),
             array("d", [0.0, 1.0, 4.0, 5.0]), array("d", [10.0, 3.0, 8.0, 6.0]))
    assert tracer.self_times(names, *spans) == {
        "outer": 4.0, "a": 2.0, "b": 3.0, "leaf": 1.0}


def test_spans_round_trip_through_the_written_files(tmp_path):
    t = tracer.Tracer()
    nid = t.name_id("work")
    t._call(nid, lambda: t._call(t.name_id("inner"), lambda: None, ()), ())
    path = str(tmp_path / "spans")
    t.write(path)
    names, name, parent, start, end = tracer.load_spans(path)
    assert names == ["work", "inner"]
    assert list(name) == [0, 1] and list(parent) == [-1, 0]
    assert list(start) == list(t.span_start) and list(end) == list(t.span_end)


def test_peak_rss_is_the_repetition_process_not_its_parent():
    ballast = bytearray(150 * 1024 * 1024)  # resident: zero-filled and touched
    ballast[::4096] = b"x" * len(ballast[::4096])
    rep = run.repetition("hccc_default", 1, False, time.monotonic() + 120)
    del ballast
    assert rep["peak_rss_mb"] < 100


def test_end_to_end_times_are_rescaled_by_the_reference_kernel():
    rep = {"wall_s": 2.0, "setup_s": 0.01, "run_s": 1.5, "frames": 3000,
           "peak_rss_mb": 20.0, "reference_s": 2 * run.REFERENCE_S}
    values = run.end_to_end([(False, rep)])
    assert values["wall_s"] == 1.0 and values["setup_s"] == 0.005
    assert values["frames_per_s"] == 4000.0 and values["peak_rss_mb"] == 20.0


def test_digest_mismatch_fails_the_odd_repetition():
    reps = [(False, {"digest": d, "errors": []}) for d in ("a", "a", "b")]
    reasons = run.failures(reps)
    assert [bool(r) for r in reasons] == [False, False, True]


def test_metric_names_follow_the_tracer_tables():
    assert run.HANDLERS == tuple(h.lstrip("_") for h in tracer.HANDLER_LAYER)
    names = [name for name, _, _ in run.PER_LAYER]
    for fn in tracer.CONGESTION_FNS:
        assert "congestion.calls." + fn in names
    for action in tracer.DETECT_ACTIONS:
        assert "congestion.detect." + action in names


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "bench")
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, name), tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "hccc_default", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
