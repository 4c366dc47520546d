"""hcccsim benchmark: host time per workload, plus a traced per-layer split.

    python3 bench/run.py                   # every workload, untraced and traced
    python3 bench/run.py --workload none_saturated --seed 1 --seconds 25 --trace 0

Each repetition runs in a fresh interpreter (``pipeline.py``).  A run keeps
starting repetitions until ``--seconds`` have passed and reports medians.
With ``--trace 0`` every repetition is untraced and the end-to-end metrics are
reported, with host times rescaled by the reference kernel (``reference.py``);
with ``--trace 1`` untraced and traced repetitions alternate and the
per-layer metrics are reported.  Every repetition checks the output
invariants and digests its CSVs; a repetition whose digest differs from the
run's other repetitions, traced or not, counts as failed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

from reference import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PIPELINE = os.path.join(HERE, "pipeline.py")
OUT = os.path.join(ROOT, ".bench_out")

# A run must end within 180 s; no repetition is started past this point.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("frames_per_s", "frames/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

HANDLERS = ("tx_end", "tx_cts", "tx_data", "tx_ack", "backoff_wake",
            "cts_timeout", "ack_timeout", "access_begin", "on_generate",
            "on_sample", "on_aimd_tick")
PER_LAYER = (
    ("engine.events", "count", "lower"),
    *(("engine.events." + h, "count", "lower") for h in HANDLERS),
    ("engine.events.unmapped", "count", "lower"),
    ("engine.queue_peak", "count", "lower"),
    ("engine.rng_draws", "count", "lower"),
    ("engine.loop_self_s", "s", "lower"),
    ("topology.build_s", "s", "lower"),
    ("topology.edges", "count", "lower"),
    ("topology.mean_degree", "count", "lower"),
    ("channel.busy_s", "s", "lower"),
    ("channel.frames", "count", "lower"),
    *(("channel.frames." + k, "count", "lower") for k in ("rts", "cts", "data", "ack")),
    ("channel.rx_fanout", "rx/frame", "lower"),
    ("channel.dst.ok", "count", "higher"),
    *(("channel.dst." + o, "count", "lower")
      for o in ("collided", "corrupted", "no_receiver", "dead_receiver")),
    ("channel.useful_ratio", "ratio", "higher"),
    ("mac.busy_s", "s", "lower"),
    ("mac.backoff_wakes", "count", "lower"),
    ("mac.backoff_stale", "count", "lower"),
    ("mac.backoff_useful_ratio", "ratio", "higher"),
    ("mac.backoff_draws", "count", "lower"),
    ("mac.timeouts", "count", "lower"),
    ("mac.access_delay_mean_us", "us", "lower"),
    ("congestion.busy_s", "s", "lower"),
    *(("congestion.calls." + f, "count", "lower")
      for f in ("on_packet_arrival", "on_packet_departure", "apply_detect",
                "apply_feedback", "should_relay")),
    *(("congestion.detect." + a, "count", "lower")
      for a in ("declare_congestion", "damp_local_rate", "clear_congestion",
                "no_change")),
    ("traffic.busy_s", "s", "lower"),
    ("traffic.generated", "count", "higher"),
    ("traffic.delivered", "count", "higher"),
    ("traffic.overflow_drops", "count", "lower"),
    ("traffic.mac_drops", "count", "lower"),
    ("traffic.in_flight_frac", "ratio", "lower"),
    ("traffic.goodput_ratio", "ratio", "higher"),
    ("traffic.dead_nodes", "count", "lower"),
    ("traffic.aimd_loss_signals", "count", "lower"),
    ("metrics.report_s", "s", "lower"),
    ("metrics.write_s", "s", "lower"),
    ("metrics.bytes_written", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class BenchError(Exception):
    pass


def repetition(workload, seed, traced, deadline):
    """Run pipeline.py once in a fresh interpreter and return its JSON result."""
    out_dir = os.path.join(OUT, workload)
    cmd = [sys.executable, PIPELINE, "--workload", workload, "--seed", str(seed),
           "--traced", str(int(traced)), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s repetition did not finish within the run limit"
                         % workload)
    if proc.returncode != 0:
        raise BenchError("%s repetition failed:\n%s" % (workload, proc.stderr[-2000:]))
    rep = json.loads(proc.stdout.splitlines()[-1])
    if traced:
        # The next traced repetition overwrites the spans file.
        rep["times"] = layer_times(rep["spans"])
    return rep


def measure(workload, seed, seconds, trace):
    """Repetitions for `seconds` (at least one of each kind); returns (traced, rep) pairs."""
    kinds = (False, True) if trace else (False,)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps = []
    while len(reps) < len(kinds) or time.monotonic() - start < seconds:
        traced = kinds[len(reps) % len(kinds)]
        reps.append((traced, repetition(workload, seed, traced, deadline)))
    return reps


def failures(reps):
    """Per repetition, the reasons it failed the output check."""
    majority = Counter(rep["digest"] for _, rep in reps).most_common(1)[0][0]
    traced_counts = [rep["counts"] for traced, rep in reps if traced]
    out = []
    for traced, rep in reps:
        reasons = list(rep["errors"])
        if rep["digest"] != majority:
            reasons.append("digest %s differs from the run's %s"
                           % (rep["digest"][:16], majority[:16]))
        if traced and rep["counts"] != traced_counts[0]:
            reasons.append("traced counts differ between repetitions")
        out.append(reasons)
    return out


def end_to_end(reps):
    """Medians over the repetitions; times rescaled to the reference speed."""
    plain = [rep for _, rep in reps]
    scale = [REFERENCE_S / r["reference_s"] for r in plain]
    return {
        "wall_s": statistics.median(r["wall_s"] * k for r, k in zip(plain, scale)),
        "setup_s": statistics.median(r["setup_s"] * k for r, k in zip(plain, scale)),
        "frames_per_s": statistics.median(r["frames"] / (r["run_s"] * k)
                                          for r, k in zip(plain, scale)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "reference_s": statistics.median(r["reference_s"] for r in plain),
    }


def layer_times(spans_path):
    """Self time per layer from the spans a traced repetition wrote."""
    from tracer import SPAN_LAYER, WRITERS, load_spans, self_times
    per_name = self_times(*load_spans(spans_path))
    busy = Counter()
    for name, seconds in per_name.items():
        busy[SPAN_LAYER.get(name)] += seconds
    return {
        "engine.loop_self_s": per_name.get("run_until", 0.0),
        "topology.build_s": per_name.get("build_topology", 0.0),
        "channel.busy_s": busy["channel"],
        "mac.busy_s": busy["mac"],
        "congestion.busy_s": busy["congestion"],
        "traffic.busy_s": busy["traffic"],
        "metrics.report_s": per_name.get("build_report", 0.0),
        "metrics.write_s": sum(per_name.get(w, 0.0) for w in WRITERS),
    }


def per_layer(reps):
    traced = [rep for t, rep in reps if t]
    plain = [rep for t, rep in reps if not t]
    times = [rep["times"] for rep in traced]
    out = dict(traced[0]["counts"])
    for name in times[0]:
        out[name] = statistics.median(t[name] for t in times)
    out["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                  / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return out


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result line, all values, digest, failure reasons)."""
    reps = measure(workload, seed, seconds, trace)
    reasons = failures(reps)
    failed = sum(1 for r in reasons if r)
    if trace:
        values = per_layer(reps)
        table = PER_LAYER
    else:
        values = end_to_end([(t, rep) for t, rep in reps if not t])
        table = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table},
    }
    digest = Counter(rep["digest"] for _, rep in reps).most_common(1)[0][0]
    return result, values, digest, [r for r in reasons if r]


def print_result(workload, seed, result, values, digest, reasons):
    print("%s seed=%d digest sha256=%s" % (workload, seed, digest))
    for reason in reasons:
        print("%s FAILED: %s" % (workload, "; ".join(reason)))
    for name, metric in result["metrics"].items():
        print("%s %s = %.6g %s" % (workload, name, metric["value"], metric["unit"]))
    if "reference_s" in values:
        print("%s reference kernel = %.6g s of host time; the times above are "
              "rescaled to %g s" % (workload, values["reference_s"], REFERENCE_S))
    print("%s failed_frac = %.6g ratio (%d of %d repetitions)"
          % (workload, result["failed"] / result["attempted"], result["failed"],
             result["attempted"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="one workload; omitted: every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        # Imported here so that a checkout without the simulator sources
        # fails with a message instead of a traceback.
        from pipeline import WORKLOADS
    except ImportError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    try:
        if args.workload is not None:
            result, values, digest, reasons = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace))
            print_result(args.workload, args.seed, result, values, digest, reasons)
            print(json.dumps(result))
            return 0
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result, values, digest, reasons = run_workload(
                    workload, args.seed, args.seconds, trace)
                print_result(workload, args.seed, result, values, digest, reasons)
                ok = ok and result["correct"]
        return 0 if ok else 1
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
