"""Whole-run behaviour: determinism, conservation, lifecycle, scheme wiring."""

import gc
import importlib.util
import sys
import tracemalloc
import weakref
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from hcccsim import congestion
from hcccsim.config import ScenarioConfig, validate
from hcccsim.congestion import CongestionState
from hcccsim.engine import RandomStream
from hcccsim.mac import ACK, DATA, RTS, MacTiming
from hcccsim.metrics import build_report, summary_row
from hcccsim.simulation import PENDING, Simulation, run_scenario
from hcccsim.traffic import (DELIVERED, BUFFER_OVERFLOW, MAC_RETRY_EXHAUSTED,
                             IN_FLIGHT, PacketLog)

from conftest import (inject_packet, invariant_errors, make_topology, small_cfg,
                      two_node_topology, unreachable_source_topology)
from test_channel_audit import short_run
from test_golden import SCENARIOS, golden_run


def mid_cfg(**overrides):
    base = dict(node_count=30, source_count=6, duration=20.0, warmup=5.0,
                offered_load=8.0, seed=4)
    base.update(overrides)
    return validate(ScenarioConfig(**base))


def outcome_tally(result):
    tally = {DELIVERED: 0, BUFFER_OVERFLOW: 0, MAC_RETRY_EXHAUSTED: 0, IN_FLIGHT: 0}
    for r in result.records:
        tally[r.outcome] += 1
    return tally


def test_run_twice_identical_state():
    cfg = mid_cfg(scheme="hccc")
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.generated == b.generated
    assert a.delivered == b.delivered
    assert a.overflow_drops == b.overflow_drops
    assert a.mac_drops == b.mac_drops
    assert a.data_attempts == b.data_attempts
    assert a.ctrl_attempts == b.ctrl_attempts
    assert a.energy_remaining_nj == b.energy_remaining_nj
    assert a.events_processed == b.events_processed
    assert a.rate_samples == b.rate_samples
    assert [(r.outcome, r.end_us) for r in a.records] \
        == [(r.outcome, r.end_us) for r in b.records]
    assert summary_row(build_report(a)) == summary_row(build_report(b))


def test_seeds_change_the_run():
    a = run_scenario(mid_cfg(seed=4))
    b = run_scenario(mid_cfg(seed=5))
    assert (a.generated, a.delivered) != (b.generated, b.delivered)


def test_packet_outcome_partition_exact():
    for scheme in ("hccc", "none", "aimd_e2e"):
        result = run_scenario(mid_cfg(scheme=scheme))
        tally = outcome_tally(result)
        assert sum(tally.values()) == result.generated == len(result.records)
        assert tally[DELIVERED] == result.delivered
        assert tally[BUFFER_OVERFLOW] == result.overflow_drops
        assert tally[MAC_RETRY_EXHAUSTED] == result.mac_drops
        assert tally[IN_FLIGHT] == result.in_flight


def test_per_node_buffer_conservation():
    result = run_scenario(mid_cfg(scheme="hccc"))
    for node in result.nodes:
        assert node.admitted - node.removed == len(node.cc.buffer), node.id


def test_only_carriers_hold_a_buffer_array():
    # In the default field 27 of 100 nodes carry a source's traffic.  The
    # other 73 never admit a packet, and each ends the run with the empty
    # tuple as its buffer, no array.
    sim = Simulation(validate(ScenarioConfig()))
    result = sim.run()
    others = [node for node in result.nodes if not sim.carrier[node.id]]
    assert len(others) == 73
    for node in others:
        assert (node.cc.buffer, node.admitted) == ((), 0), node.id
    for node in result.nodes:
        if sim.carrier[node.id]:
            assert isinstance(node.cc.buffer, array), node.id


def inert_runs():
    """(Simulation, config) after a default-field run under each scheme, and
    after an HCCC run with a source that has no route to the sink."""
    for scheme in ("hccc", "none", "aimd_e2e"):
        cfg = validate(ScenarioConfig(scheme=scheme, duration=60.0))
        sim = Simulation(cfg)
        sim.run()
        yield sim, cfg
    cfg = small_cfg(scheme="hccc", offered_load=5.0)
    sim = Simulation(cfg, topology=unreachable_source_topology())
    sim.run()
    yield sim, cfg


def test_non_carriers_share_one_inert_congestion_state():
    # Every node that carries no source's traffic holds the same inert
    # state, untouched by the run: what a fresh one holds, with R = r_cap.
    for sim, cfg in inert_runs():
        timing = MacTiming(cfg)
        fresh = CongestionState(cfg.buffer_capacity,
                                float(timing.data_air + timing.slot),
                                cfg.r_cap, False)
        others = [n for n in sim.nodes if not sim.carrier[n.id]]
        carriers = [n for n in sim.nodes if sim.carrier[n.id]]
        assert others and carriers
        assert len({id(n.cc) for n in others}) == 1
        assert ({name: getattr(others[0].cc, name) for name in CongestionState.__slots__}
                == {name: getattr(fresh, name) for name in CongestionState.__slots__})
        assert len({id(n.cc) for n in carriers}) == len(carriers)


@pytest.mark.parametrize("scheme", ["hccc", "none", "aimd_e2e"])
def test_run_invariants(scheme):
    assert invariant_errors(run_scenario(mid_cfg(scheme=scheme))) == []


def test_energy_identity_with_control_cost():
    result = run_scenario(mid_cfg(scheme="none", duration=10.0,
                                  energy_control=1e-6))
    consumed = result.energy_initial_nj - result.energy_remaining_nj
    assert consumed == 100_000 * result.data_attempts + 1000 * result.ctrl_attempts
    assert invariant_errors(result) == []


def test_dead_nodes_stop_transmitting():
    # tiny budget: 10 DATA attempts per node
    result = run_scenario(mid_cfg(scheme="none", energy_initial=1e-3,
                                  duration=30.0, trace_mac=True))
    dead = [n for n in result.nodes if not n.alive]
    assert dead
    data_attempts = Counter(node_id for _, node_id, kind, _, event
                            in result.mac_trace
                            if kind == DATA and event == "tx_start")
    assert max(data_attempts.values()) <= 10
    death = {n.id: n.death_time for n in dead}
    for t, node_id, kind, dst, event in result.mac_trace:
        if event == "tx_start" and node_id in death:
            assert t <= death[node_id]


def test_a_node_that_dies_while_pending_begins_no_access():
    # Source 1 relays for source 2.  Control frames cost energy, and the ACK
    # it sends source 2 at 1.47 s leaves it below one DATA charge while an
    # access of its own is pending: that access must not begin, so node 1
    # stays PENDING, runs no HCCC detect and queues no backoff.
    cfg = validate(ScenarioConfig(
        node_count=3, source_count=2, scheme="hccc", offered_load=5.0, seed=1,
        duration=60.0, energy_initial=0.003, energy_per_packet=1e-4,
        energy_control=1e-4, trace_mac=True, trace_hccc=True))
    result = run_scenario(cfg, topology=make_topology(
        [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0)], ["sink", "source", "source"]))
    relay = result.nodes[1]
    last = [row for row in result.mac_trace
            if row[1] == 1 and row[4] == "tx_start"][-1]
    assert (last[0], last[2]) == (relay.death_time, ACK)
    assert relay.phase == PENDING
    assert invariant_errors(result) == []
    assert result.events_processed == 299


def test_zero_offered_load():
    result = run_scenario(mid_cfg(offered_load=0.0))
    assert result.generated == 0
    report = build_report(result)
    assert report.packet_loss_ratio == 0.0
    assert report.energy_efficiency == 1.0


def test_node_streams_are_made_at_the_first_draw(monkeypatch):
    # Source 1 reaches the sink through relay 2.  Relay 3 hears only the
    # sink, a carrier that listens to the relay but never contends.
    topo = make_topology([(0.0, 0.0), (50.0, 0.0), (25.0, 0.0), (0.0, 25.0)],
                         ["sink", "source", "relay", "relay"])
    cfg = small_cfg(node_count=4, source_count=1, offered_load=5.0,
                    traffic="poisson", access_jitter_us=1000, seed=9)
    drawn = {}
    next_u64 = RandomStream.next_u64

    def recorded(stream):
        value = next_u64(stream)
        drawn.setdefault(stream.stream_id, []).append(value)
        return value

    monkeypatch.setattr(RandomStream, "next_u64", recorded)
    sim = Simulation(cfg, topology=topo)
    assert [node.stream for node in sim.nodes] == [None] * 4
    result = sim.run()
    sink, source, relay, idle = result.nodes
    assert result.delivered > 0 and relay.access_delay_n > 0
    assert sink in sim.listeners[relay.id]
    assert sink.stream is None and idle.stream is None
    assert sorted(drawn) == [source.id + 1, relay.id + 1]
    for node in (source, relay):
        assert node.stream.stream_id == node.id + 1
        # The draws of a fresh stream for (seed, id + 1), in order.
        fresh = RandomStream(cfg.seed, node.id + 1)
        assert drawn[node.id + 1] == [next_u64(fresh)
                                      for _ in drawn[node.id + 1]]


def test_only_carriers_listen_for_feedback():
    # Source 2 reaches the sink through relay 1.  Relay 3 hears only node 1
    # and routes through it, but lies on no source's route: it never holds a
    # packet, so it neither listens for node 1's feedback nor decodes it.
    topo = make_topology([(0.0, 0.0), (25.0, 0.0), (50.0, 0.0), (25.0, 25.0)],
                         ["sink", "relay", "source", "relay"])
    cfg = small_cfg(node_count=4, source_count=1, scheme="hccc",
                    offered_load=5.0, trace_mac=True, trace_hccc=True)
    sim = Simulation(cfg, topology=topo)
    assert topo.next_hop[3] == 1 and topo.adjacency[3] == [1]
    sim.run()
    assert any(row[1] == 1 and row[2] == RTS and row[4] == "tx_start"
               for row in sim.mac_trace)
    idle = sim.nodes[3]
    assert not any(idle in listeners for listeners in sim.listeners
                   if listeners is not None)
    assert idle.pending_feedback is None
    assert "feedback" in [row[6] for row in sim.hccc_trace if row[1] == 2]


def test_simulation_keeps_its_instance_dict_shared():
    # See the Simulation docstring: a 30th instance attribute slows every
    # self attribute load of the event handlers.
    sim = Simulation(small_cfg(scheme="aimd_e2e", offered_load=5.0,
                               duration=1.0))
    sim.run()
    assert len(vars(sim)) <= 29


def test_scenario_config_keeps_its_instance_dict_shared():
    # The same limit holds for the config: congestion.py reads cfg.p on
    # every packet arrival and departure and cfg.b_max on every HCCC detect
    # and feedback, and CPython 3.11 specialises those loads to
    # LOAD_ATTR_INSTANCE_VALUE only up to 29 attributes.
    assert len(vars(ScenarioConfig())) <= 29


@pytest.mark.parametrize("scheme", ["hccc", "none", "aimd_e2e"])
def test_finished_run_is_freed_by_reference_counting(scheme):
    # Events queued past the horizon must not keep the Simulation alive in
    # a reference cycle until the next full collection.
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulation(mid_cfg(scheme=scheme, duration=3.0))
        result = sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
        assert result.generated > 0
    finally:
        if enabled:
            gc.enable()


def test_dropped_run_leaves_no_cyclic_garbage():
    # Node links live on the Simulation and next_hop forms a tree, so
    # reference counting alone frees a built field and a finished run.
    cfg = validate(ScenarioConfig(duration=2.0))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sim = Simulation(cfg)
        del sim
        assert gc.collect() == 0
        sim = Simulation(cfg)
        result = sim.run()
        assert result.generated > 0
        del sim, result
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_packet_accounting_takes_few_bytes_per_packet():
    # Saturated: most packets end in a buffer or overflow it.  Dropping the
    # run's packet log must free it (at least 16 B a packet, so nothing
    # else holds it) and it must take at most 64 B a packet.
    #
    # Emptying every node's buffer must free at least one 4-byte machine int
    # per buffered packet and at most two, plus one empty buffer's size per
    # node: an array grown to n items holds at most n + n // 16 + 7, and
    # popping its head keeps them, so a drained buffer keeps a few items'
    # room.  A list of int objects frees about 40 B a packet.
    cfg = validate(ScenarioConfig(node_count=30, source_count=6, scheme="none",
                                  offered_load=15.0, duration=20.0))
    item, header = array("i").itemsize, sys.getsizeof(array("i"))
    tracemalloc.start()
    try:
        result = run_scenario(cfg)
        before = tracemalloc.get_traced_memory()[0]
        result.records = None
        freed = before - tracemalloc.get_traced_memory()[0]
        buffered = sum(len(node.cc.buffer) for node in result.nodes)
        before = tracemalloc.get_traced_memory()[0]
        for node in result.nodes:
            node.cc.buffer = node.cc.buffer[:0]
        freed_buffers = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.overflow_drops > 0 and result.in_flight > 0
    assert 16 * result.generated <= freed <= 64 * result.generated
    assert buffered > 0
    assert (item * buffered <= freed_buffers
            <= 2 * item * buffered + header * len(result.nodes)), (
        buffered, freed_buffers)


def hop_mismatches(sim):
    """Rows whose hop count disagrees with the static routes.  A delivered
    packet took hop_count[origin] hops; one in flight took as many as lie
    between its origin and the node furthest along that holds it (a packet
    whose ACK was lost is held by both the sender and the receiver)."""
    hop_count = sim.topology.hop_count
    holders = {}
    for node in sim.nodes:
        for pkt in node.cc.buffer:
            holders.setdefault(pkt, []).append(hop_count[node.id])
    bad = []
    for r in sim.log:
        if r.outcome == DELIVERED:
            expect = hop_count[r.origin]
        elif r.outcome == IN_FLIGHT:
            expect = hop_count[r.origin] - min(holders[r.id])
        else:
            continue
        if r.hops != expect:
            bad.append((r.id, r.outcome, r.hops, expect))
    return bad


def test_in_flight_rows_carry_the_buffered_hop_count():
    sims = [golden_run(name)[1] for name in ("hccc", "none_saturated",
                                               "hccc_lossy")]
    sims += [short_run(name) for name in ("aimd_e2e_lossy", "none_dying")]
    for sim in sims:
        assert any(r.hops for r in sim.log if r.outcome == IN_FLIGHT)
        assert hop_mismatches(sim) == []


def test_single_source_under_capacity_delivers_everything():
    # 5 pps one hop from the sink: channel is far under capacity
    cfg = small_cfg(node_count=2, source_count=1, offered_load=5.0,
                    duration=10.0, scheme="none", access_jitter_us=1000)
    result = run_scenario(cfg, topology=two_node_topology())
    assert result.generated >= 49
    assert result.overflow_drops == 0
    assert result.mac_drops == 0
    assert result.generated - result.delivered <= 1   # at most one in flight


def test_hccc_state_stays_in_bounds():
    result = run_scenario(mid_cfg(scheme="hccc", offered_load=15.0))
    cfg = mid_cfg()
    for node in result.nodes:
        assert cfg.r_min <= node.cc.R <= cfg.r_cap
        assert node.cc.R_max >= node.cc.R - 1e-12
        assert 0.0 <= node.cc.b_r <= 1.0
        assert 1.0 <= node.w <= 63.0 or node.w == float(cfg.w_max)


def test_hccc_trace_rows_shape():
    result = run_scenario(mid_cfg(scheme="hccc", duration=10.0, trace_hccc=True))
    assert result.hccc_trace
    for row in result.hccc_trace[:50]:
        t, node_id, b_r, c_d, rate, w, event = row
        assert 0 <= b_r <= 1
        assert rate > 0


def test_aimd_sources_react_to_losses():
    # small buffers so drops (and hence sink-observed sequence gaps) occur
    # well inside the run horizon
    cfg = mid_cfg(scheme="aimd_e2e", offered_load=15.0, duration=30.0,
                  buffer_capacity=30)
    result = run_scenario(cfg)
    rates = [n.aimd.rate for n in result.nodes if n.aimd is not None]
    assert rates
    assert all(cfg.r_min <= r <= cfg.r_cap for r in rates)
    # overload must have produced at least one halving somewhere
    assert any(n.aimd.last_halve_us is not None for n in result.nodes
               if n.aimd is not None)


def test_aimd_first_rate_is_capped_like_hccc():
    # A source offered more than r_cap starts at r_cap under either scheme.
    cfg = validate(ScenarioConfig(node_count=10, source_count=2, duration=3.0,
                                  warmup=0.0, scheme="aimd_e2e",
                                  offered_load=300.0))
    result = run_scenario(cfg)
    assert result.rate_samples[0][1] == (cfg.r_cap,) * len(result.source_ids)
    assert all(r <= cfg.r_cap for _, rates in result.rate_samples
               for r in rates)


def test_poisson_traffic_runs_deterministically():
    cfg = mid_cfg(traffic="poisson", duration=10.0)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.generated == b.generated > 0
    assert a.delivered == b.delivered


def test_malformed_feedback_raises_and_changes_nothing():
    sim = Simulation(mid_cfg(scheme="hccc", duration=5.0))
    source = sim.sources[0]
    inject_packet(sim, source)
    w_before, r_before = source.w, source.cc.R
    source.pending_feedback = 1.7
    with pytest.raises(ValueError):
        sim._access_begin(source)
    assert source.w == w_before
    assert source.cc.R == r_before


def test_zero_feedback_is_applied():
    # An empty downstream buffer (ratio 0.0) is a signal, not its absence:
    # case 4 gives W' = 10 * W * 0, clamped to w_min.
    sim = Simulation(mid_cfg(scheme="hccc", duration=5.0, trace_hccc=True))
    source = sim.sources[0]
    inject_packet(sim, source)
    assert source.w > sim.cfg.w_min
    source.pending_feedback = 0.0
    sim._access_begin(source)
    assert source.w == sim.cfg.w_min
    assert source.pending_feedback is None
    assert [row[6] for row in sim.hccc_trace].count("feedback") == 1


def relay_chain():
    """Chain sink 0 <- 1 <- 2 <- 3, 25 m apart: each node hears only its neighbours."""
    cfg = small_cfg(node_count=4, source_count=3, scheme="hccc", trace_mac=True)
    topo = make_topology([(0.0, 0.0), (25.0, 0.0), (50.0, 0.0), (75.0, 0.0)],
                         ["sink", "relay", "relay", "source"])
    return Simulation(cfg, topology=topo)


def send_one_via_node_2(sim, incoming):
    """Hand node 2 a downstream signal and one packet; run until it is forwarded."""
    relay, upstream = sim.nodes[2], sim.nodes[3]
    start, forwarded = sim.engine.now, relay.access_delay_n
    upstream.pending_feedback = None
    relay.pending_feedback = incoming
    inject_packet(sim, relay)
    sim.engine.run_until(start + 500_000)
    assert relay.access_delay_n == forwarded + 1
    rts = [row for row in sim.mac_trace if row[0] >= start and row[1] == 2
           and row[2] == RTS and row[4] == "tx_start"]
    assert len(rts) == 1
    return upstream.pending_feedback


def test_congested_downstream_signal_is_relayed_once():
    sim = relay_chain()
    relay = sim.nodes[2]
    relay.cc.sent_own = True
    assert send_one_via_node_2(sim, 0.9) == 0.9
    assert not relay.cc.sent_own
    # A second congested signal is suppressed: node 3 hears node 2's own ratio.
    assert send_one_via_node_2(sim, 0.9) == 1 / sim.cfg.buffer_capacity
    assert not relay.cc.sent_own


def test_node_without_own_signal_does_not_relay():
    sim = relay_chain()
    relay = sim.nodes[2]
    assert not relay.cc.sent_own
    assert send_one_via_node_2(sim, 0.9) == 1 / sim.cfg.buffer_capacity
    assert not relay.cc.sent_own


def test_schemes_differ_under_load():
    runs = {scheme: run_scenario(mid_cfg(scheme=scheme, offered_load=15.0))
            for scheme in ("hccc", "none", "aimd_e2e")}
    losses = {s: build_report(r).packet_loss_ratio for s, r in runs.items()}
    assert len(set(losses.values())) == 3


def bench_congestion_fns():
    """The congestion functions the benchmark's traced run wraps and counts."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.CONGESTION_FNS


def test_only_hccc_calls_the_traced_congestion_functions(monkeypatch):
    # The benchmark fails a traced baseline run that calls any of them.
    calls = Counter()
    for name in bench_congestion_fns():
        orig = getattr(congestion, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "hcccsim" and vars(mod).get(name) is orig:
                monkeypatch.setattr(mod, name, counted)
    totals = {}
    for scheme in ("none", "aimd_e2e", "hccc"):
        calls.clear()
        run_scenario(mid_cfg(scheme=scheme, duration=5.0, warmup=1.0))
        totals[scheme] = sum(calls.values())
    assert totals["none"] == 0
    assert totals["aimd_e2e"] == 0
    assert totals["hccc"] > 0


@pytest.mark.parametrize("seed", range(1, 6))
def test_packet_the_next_hop_accepted_is_not_a_mac_drop(seed):
    # When every ACK of a DATA frame the next hop accepted is lost, the
    # sender gives up, but the packet travels on from the next hop: its row
    # must not end as a MAC drop while a buffer still holds it.
    cfg = validate(ScenarioConfig(scheme="aimd_e2e", traffic="poisson",
                                  frame_error_rate=0.1, duration=20.0,
                                  seed=seed))
    result = run_scenario(cfg)
    held = {pkt for node in result.nodes for pkt in node.cc.buffer}
    dropped_but_held = [pkt for pkt in held
                        if result.records[pkt].outcome == MAC_RETRY_EXHAUSTED]
    assert result.mac_drops > 0
    assert dropped_but_held == []


def test_no_run_finishes_a_log_row_twice(monkeypatch):
    # The log is the only outcome record: a second finish on a row would
    # mean two outcomes for one packet, of which the log keeps the first.
    calls, repeats = [0], []
    finish = PacketLog.finish

    def counted(log, pkt, outcome, end_us):
        calls[0] += 1
        if log.outcome[pkt]:
            repeats.append((pkt, outcome, end_us))
        return finish(log, pkt, outcome, end_us)
    monkeypatch.setattr(PacketLog, "finish", counted)
    runs = [
        dict(scheme="aimd_e2e", traffic="poisson", frame_error_rate=0.1,
             duration=20.0, seed=3),
        SCENARIOS["hccc_lossy"],
        dict(scheme="none", offered_load=15.0, buffer_capacity=30,
             frame_error_rate=0.1, duration=20.0),
        SCENARIOS["none_energy_death"],
    ]
    tally = Counter()
    for overrides in runs:
        tally.update(outcome_tally(run_scenario(
            validate(ScenarioConfig(**overrides)))))
    assert repeats == []
    assert tally[DELIVERED] and tally[BUFFER_OVERFLOW] and tally[MAC_RETRY_EXHAUSTED]
    assert calls[0] == sum(tally.values()) - tally[IN_FLIGHT]
