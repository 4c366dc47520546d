"""Spans and counters for the traced repetition, installed from outside the simulator.

``Tracer.installed()`` wraps public entry points of hcccsim for the duration
of a ``with`` block and restores them afterwards:

* ``Engine.schedule``: every event it queues is dispatched through a span
  named after its handler, so each handler is timed and counted;
* ``Engine.run_until``, ``topology.build_topology``, ``mac.draw_backoff``, the
  ``congestion`` transition functions, ``metrics.build_report`` and the CSV
  writers: one span per call;
* ``RandomStream.next_u64`` and ``AimdSource.on_loss_signal``: counts only,
  because a span per random draw would cost more than the draw.

A span is (name, parent, start, end) in four flat arrays held in memory;
``write`` saves them when the run ends and ``load_spans``/``self_times``
turn them into per-name self time (duration minus the child spans inside).
"""

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import Counter

from hcccsim import congestion, mac, metrics, topology
from hcccsim.engine import Engine, RandomStream
from hcccsim.simulation import AWAIT_ACK, AWAIT_CTS, BACKOFF
from hcccsim.traffic import AimdSource

# Layer of every event handler the simulation schedules.
HANDLER_LAYER = {
    "_tx_end": "channel", "_tx_cts": "channel", "_tx_data": "channel",
    "_tx_ack": "channel",
    "_backoff_wake": "mac", "_cts_timeout": "mac", "_ack_timeout": "mac",
    "_access_begin": "mac",
    "_on_generate": "traffic", "_on_sample": "traffic", "_on_aimd_tick": "traffic",
}
CONGESTION_FNS = ("on_packet_arrival", "on_packet_departure", "apply_detect",
                  "apply_feedback", "should_relay")
DETECT_ACTIONS = (congestion.DECLARE_CONGESTION, congestion.DAMP_LOCAL_RATE,
                  congestion.CLEAR_CONGESTION, congestion.NO_CHANGE)
WRITERS = ("write_summary_csv", "write_series_csv", "write_packets_csv")
# Layer of every other span name.
SPAN_LAYER = dict(
    HANDLER_LAYER, run_until="engine", build_topology="topology",
    draw_backoff="mac", build_report="metrics",
    **{w: "metrics" for w in WRITERS}, **{f: "congestion" for f in CONGESTION_FNS})
DST_OUTCOMES = ("ok", "collided", "corrupted", "no_receiver", "dead_receiver")
FRAME_KINDS = (mac.RTS, mac.CTS, mac.DATA, mac.ACK)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = -1
        self.rng_draws = 0
        self.aimd_loss_signals = 0
        self.queue_peak = 0
        self.backoff_stale = 0
        self.backoff_rts = 0
        self.timeouts = 0
        self.detect = Counter()
        self.handler_ids = {}
        self._restore = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, nid, fn, args):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open)
        self.span_end.append(0.0)
        self._open = idx
        self.span_start.append(time.perf_counter())
        try:
            return fn(*args)
        finally:
            self.span_end[idx] = time.perf_counter()
            self._open = self.span_parent[idx]

    # ---- event dispatch probes ------------------------------------------

    def _backoff_wake(self, nid, fn, args):
        node, epoch = args
        if epoch != node.epoch:
            self.backoff_stale += 1
        before = node.phase
        self._call(nid, fn, args)
        if before == BACKOFF and node.phase == AWAIT_CTS:
            self.backoff_rts += 1

    def _timeout(self, phase, nid, fn, args):
        node, epoch = args
        if epoch == node.epoch and node.phase == phase:
            self.timeouts += 1
        self._call(nid, fn, args)

    # ---- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, module, attr, make_wrapper):
        """Wrap module.attr and every hcccsim module that imported it by name."""
        orig = getattr(module, attr)
        wrapper = functools.wraps(orig)(make_wrapper(orig))
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "hcccsim" and vars(mod).get(attr) is orig:
                self._set(mod, attr, wrapper)

    def _span_function(self, module, attr):
        nid = self.name_id(attr)
        call = self._call
        self._replace_function(
            module, attr,
            lambda orig: lambda *args: call(nid, orig, args))

    @contextlib.contextmanager
    def installed(self):
        probes = {
            "_backoff_wake": self._backoff_wake,
            "_cts_timeout": functools.partial(self._timeout, AWAIT_CTS),
            "_ack_timeout": functools.partial(self._timeout, AWAIT_ACK),
        }
        call = self._call
        name_id = self.name_id
        handler_ids = self.handler_ids
        orig_schedule = Engine.schedule

        def schedule(engine, time_us, fn, *args):
            name = fn.__name__
            nid = handler_ids.get(name)
            if nid is None:
                nid = handler_ids[name] = name_id(name)
            orig_schedule(engine, time_us, probes.get(name, call), nid, fn, args)
            pending = engine.pending()
            if pending > self.queue_peak:
                self.queue_peak = pending

        orig_run_until = Engine.run_until
        run_until_id = name_id("run_until")

        def run_until(engine, limit):
            return call(run_until_id, orig_run_until, (engine, limit))

        orig_next = RandomStream.next_u64

        def next_u64(stream):
            self.rng_draws += 1
            return orig_next(stream)

        orig_loss = AimdSource.on_loss_signal

        def on_loss_signal(source, now_us):
            self.aimd_loss_signals += 1
            return orig_loss(source, now_us)

        detect_id = name_id("apply_detect")
        detect = self.detect

        def wrap_detect(orig):
            def apply_detect(*args):
                action = call(detect_id, orig, args)
                detect[action] += 1
                return action
            return apply_detect

        try:
            self._set(Engine, "schedule", schedule)
            self._set(Engine, "run_until", run_until)
            self._set(RandomStream, "next_u64", next_u64)
            self._set(AimdSource, "on_loss_signal", on_loss_signal)
            self._span_function(topology, "build_topology")
            self._span_function(mac, "draw_backoff")
            for fn in CONGESTION_FNS:
                if fn == "apply_detect":
                    self._replace_function(congestion, fn, wrap_detect)
                else:
                    self._span_function(congestion, fn)
            for fn in ("build_report",) + WRITERS:
                self._span_function(metrics, fn)
            yield self
        finally:
            while self._restore:
                owner, attr, orig = self._restore.pop()
                setattr(owner, attr, orig)

    # ---- output ---------------------------------------------------------

    def write(self, path):
        """Save the spans as PATH.names (one name per line) and PATH.bin."""
        with open(path + ".names", "w") as f:
            f.write("".join(name + "\n" for name in self.names))
        with open(path + ".bin", "wb") as f:
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(f)

    def counts(self, cfg, result, paths):
        """Per-layer counts of one traced run, from the tracer and the run result."""
        spans = Counter(self.names[i] for i in self.span_name)
        out = {"engine.events": result.events_processed,
               "engine.queue_peak": self.queue_peak,
               "engine.rng_draws": self.rng_draws}
        dispatched = {name: spans[name] for name in self.handler_ids}
        for name in HANDLER_LAYER:
            out["engine.events." + name.lstrip("_")] = dispatched.get(name, 0)
        out["engine.events.unmapped"] = sum(
            n for name, n in dispatched.items() if name not in HANDLER_LAYER)

        adjacency = result.topology.adjacency
        edges = sum(len(a) for a in adjacency) // 2
        out["topology.edges"] = edges
        out["topology.mean_degree"] = 2.0 * edges / len(adjacency)

        out.update(channel_counts(result))

        wakes = dispatched.get("_backoff_wake", 0)
        out["mac.backoff_wakes"] = wakes
        out["mac.backoff_stale"] = self.backoff_stale
        out["mac.backoff_useful_ratio"] = self.backoff_rts / wakes if wakes else 0.0
        out["mac.backoff_draws"] = spans.get("draw_backoff", 0)
        out["mac.timeouts"] = self.timeouts
        delay_n = sum(n.access_delay_n for n in result.nodes)
        out["mac.access_delay_mean_us"] = (
            sum(n.access_delay_sum for n in result.nodes) / delay_n if delay_n else 0.0)

        for fn in CONGESTION_FNS:
            out["congestion.calls." + fn] = spans.get(fn, 0)
        for action in DETECT_ACTIONS:
            out["congestion.detect." + action] = self.detect.get(action, 0)

        generated = result.generated
        offered = cfg.offered_load * len(result.source_ids) * cfg.duration
        out["traffic.generated"] = generated
        out["traffic.delivered"] = result.delivered
        out["traffic.overflow_drops"] = result.overflow_drops
        out["traffic.mac_drops"] = result.mac_drops
        out["traffic.in_flight_frac"] = result.in_flight / generated if generated else 0.0
        out["traffic.goodput_ratio"] = result.delivered / offered if offered else 0.0
        out["traffic.dead_nodes"] = sum(1 for n in result.nodes
                                        if n.death_time is not None)
        out["traffic.aimd_loss_signals"] = self.aimd_loss_signals

        out["metrics.bytes_written"] = sum(os.path.getsize(p) for p in paths)
        return out


def count_errors(cfg, result, counts):
    """Cross-checks between the traced counts and the run's own totals."""
    errors = []
    handled = counts["engine.events.unmapped"] + sum(
        counts["engine.events." + name.lstrip("_")] for name in HANDLER_LAYER)
    if handled != result.events_processed:
        errors.append("dispatched handler events %d != events_processed %d"
                      % (handled, result.events_processed))
    frames = result.data_attempts + result.ctrl_attempts
    if counts["channel.frames"] != frames:
        errors.append("channel.frames %d != data_attempts + ctrl_attempts %d"
                      % (counts["channel.frames"], frames))
    calls = sum(counts["congestion.calls." + fn] for fn in CONGESTION_FNS)
    if cfg.scheme != "hccc" and calls:
        errors.append("%d congestion calls under scheme %s" % (calls, cfg.scheme))
    return errors


def channel_counts(result):
    """Frames by kind, destination outcomes and receptions per frame, from the MAC trace."""
    kinds = Counter()
    outcomes = Counter()
    receptions = 0
    death = [n.death_time for n in result.nodes]
    adjacency = result.topology.adjacency
    for t, src, kind, _dst, event in result.mac_trace:
        if event == "tx_start":
            kinds[kind] += 1
            receptions += sum(1 for j in adjacency[src]
                              if death[j] is None or death[j] > t)
        else:
            outcomes[event] += 1
    frames = sum(kinds.values())
    out = {"channel.frames": frames}
    for kind in FRAME_KINDS:
        out["channel.frames." + kind.lower()] = kinds.get(kind, 0)
    out["channel.rx_fanout"] = receptions / frames if frames else 0.0
    for outcome in DST_OUTCOMES:
        out["channel.dst." + outcome] = outcomes.get(outcome, 0)
    out["channel.useful_ratio"] = outcomes.get("ok", 0) / frames if frames else 0.0
    return out


def load_spans(path):
    """Read back what Tracer.write saved: (names, name ids, parents, starts, ends)."""
    with open(path + ".names") as f:
        names = f.read().splitlines()
    with open(path + ".bin", "rb") as f:
        data = f.read()
    n = len(data) // 24
    columns = []
    offset = 0
    for code, size in (("i", 4), ("i", 4), ("d", 8), ("d", 8)):
        column = array(code)
        column.frombytes(data[offset:offset + n * size])
        columns.append(column)
        offset += n * size
    return (names, *columns)


def self_times(names, span_name, span_parent, span_start, span_end):
    """Total self time per span name: each span's duration minus its children's."""
    duration = [e - s for s, e in zip(span_start, span_end)]
    covered = [0.0] * len(duration)
    for i, parent in enumerate(span_parent):
        if parent >= 0:
            covered[parent] += duration[i]
    per_name = [0.0] * len(names)
    for i, nid in enumerate(span_name):
        per_name[nid] += duration[i] - covered[i]
    return dict(zip(names, per_name))
