"""MAC timing, backoff draws, collisions, retries and the exchange sequence."""

import math

import pytest

from hcccsim.engine import RandomStream
from hcccsim.mac import (MacTiming, airtime_us, draw_backoff, effective_window,
                         frame_error_probability, ACK, CTS, DATA, RTS,
                         Frame)
from hcccsim.simulation import (AWAIT_CTS, BACKOFF, PENDING, Simulation,
                                run_scenario)

from conftest import (contention_topology, hidden_terminal_topology,
                      inject_packet, make_topology, queued_events,
                      small_cfg, two_node_topology)
from test_mac_audit import audit


def test_airtimes_at_1mbps():
    assert airtime_us(200, 1_000_000) == 1600
    assert airtime_us(20, 1_000_000) == 160


def test_frame_error_probability():
    assert frame_error_probability(0.0, 0.0, 200) == 0.0
    assert abs(frame_error_probability(0.1, 0.0, 200) - 0.1) < 1e-15
    ber = frame_error_probability(0.0, 1e-5, 200)
    assert abs(ber - (1.0 - (1.0 - 1e-5) ** 1600)) < 1e-15
    # combining both is never below either alone
    both = frame_error_probability(0.1, 1e-5, 200)
    assert both > 0.1 and both > ber


def test_timing_block():
    t = MacTiming(small_cfg())
    assert t.ctrl_air == 160 and t.data_air == 1600
    assert t.cts_timeout == 160 + 200 + 160 + 1000
    assert t.ack_timeout == 1600 + 200 + 160 + 1000


def test_effective_window_rounding():
    assert effective_window(1.0) == 1
    assert effective_window(21.6) == 22
    assert effective_window(21.4) == 21
    assert effective_window(0.3) == 1
    assert effective_window(63.0) == 63


def test_draw_backoff_degenerate_window():
    s = RandomStream(1)
    assert all(draw_backoff(1.0, s) == 0 for _ in range(100))


def test_draw_backoff_full_window_coverage():
    s = RandomStream(2)
    draws = [draw_backoff(63.0, s) for _ in range(10_000)]
    assert min(draws) == 0
    assert max(draws) == 62
    assert len(set(draws)) == 63


def test_draw_backoff_fractional_window():
    s = RandomStream(3)
    draws = [draw_backoff(21.6, s) for _ in range(5000)]
    assert min(draws) >= 0
    assert max(draws) == 21


def test_uncontended_exchange_timing():
    # source one hop from the sink, W=1, no jitter: delivery time is closed form
    cfg = small_cfg(node_count=2, source_count=1)
    sim = Simulation(cfg, topology=two_node_topology())
    sim.nodes[1].w = 1.0
    inject_packet(sim, sim.nodes[1])
    result = sim.run()
    assert result.delivered == 1
    rec = result.records[0]
    t = sim.timing
    expect = (t.difs + t.ctrl_air            # DIFS + RTS
              + t.sifs + t.ctrl_air          # CTS
              + t.sifs + t.data_air)         # DATA arrives at the sink
    assert rec.end_us == expect == 3320
    assert rec.hops == 1
    # sender's buffer drained by the ACK
    assert len(sim.nodes[1].cc.buffer) == 0


def test_simultaneous_rts_collide_forever_without_jitter():
    # W=1 and zero jitter: both senders start every attempt in the same
    # microsecond, so every RTS collides until the retry limit fires.
    cfg = small_cfg()
    sim = Simulation(cfg, topology=contention_topology())
    sim.nodes[1].w = sim.nodes[2].w = 1.0
    inject_packet(sim, sim.nodes[1])
    inject_packet(sim, sim.nodes[2])
    result = sim.run()
    assert result.delivered == 0
    assert result.mac_drops == 2


def test_access_jitter_breaks_the_tie():
    cfg = small_cfg(access_jitter_us=1000)
    sim = Simulation(cfg, topology=contention_topology())
    sim.nodes[1].w = sim.nodes[2].w = 1.0
    inject_packet(sim, sim.nodes[1])
    inject_packet(sim, sim.nodes[2])
    result = sim.run()
    assert result.delivered == 2
    assert result.mac_drops == 0


def test_hidden_terminal_collision_at_receiver():
    # senders out of each other's range: carrier sense cannot see the
    # conflict and the symmetric schedules collide at the sink every time
    cfg = small_cfg(trace_mac=True)
    sim = Simulation(cfg, topology=hidden_terminal_topology())
    sim.nodes[1].w = sim.nodes[2].w = 1.0
    inject_packet(sim, sim.nodes[1])
    inject_packet(sim, sim.nodes[2])
    result = sim.run()
    assert result.delivered == 0
    assert result.mac_drops == 2
    assert any(row[4] == "collided" for row in result.mac_trace)


def test_heavy_frame_errors_exhaust_retries():
    cfg = small_cfg(node_count=2, source_count=1, frame_error_rate=0.99)
    sim = Simulation(cfg, topology=two_node_topology())
    sim.nodes[1].w = 1.0
    inject_packet(sim, sim.nodes[1])
    result = sim.run()
    assert result.mac_drops == 1
    assert result.delivered == 0


def test_a_node_with_a_queued_access_answers_an_rts():
    # Chain sink 0 <- relay 1 <- source 2.  The relay holds a packet whose
    # access waits out its pacing gap, so its _access_begin is queued (the
    # node is PENDING) when the source's RTS reaches it: it answers with a
    # CTS and takes the DATA frame, as an IDLE node would.
    cfg = small_cfg(trace_mac=True)
    sim = Simulation(cfg, topology=make_topology(
        [(0.0, 0.0), (25.0, 0.0), (50.0, 0.0)], ["sink", "relay", "source"]))
    relay, source = sim.nodes[1], sim.nodes[2]
    relay.next_access_time = 1_000_000
    inject_packet(sim, relay)
    source.w = 1.0
    inject_packet(sim, source)
    sim.engine.run_until(100_000)
    assert relay.phase == PENDING
    assert [row[1:4] for row in sim.mac_trace if row[4] == "tx_start"] == [
        (2, RTS, 1), (1, CTS, 2), (2, DATA, 1), (1, ACK, 2)]
    assert len(relay.cc.buffer) == 2
    assert len(source.cc.buffer) == 0


def test_dead_receiver_gives_cts_timeouts():
    cfg = small_cfg(node_count=2, source_count=1, trace_mac=True)
    sim = Simulation(cfg, topology=two_node_topology())
    sim.nodes[1].w = 1.0
    sim.nodes[0].alive = False
    inject_packet(sim, sim.nodes[1])
    result = sim.run()
    assert result.delivered == 0
    assert result.mac_drops == 1
    assert not any(row[2] == CTS for row in result.mac_trace)
    # one RTS per attempt: initial try plus retry_limit retries
    assert result.ctrl_attempts == cfg.retry_limit + 1


def test_carrier_sense_boundary():
    # 20-byte control frames at 16 Mbps: node 0 is on air over [0, 10) us.
    # Node 1 has a packet and a countdown that has run out; its wake-up
    # sends the RTS unless it senses the medium busy.
    for now, senses in ((5, True),
                        (10, False),  # the frame ended this very microsecond
                        (0, False)):  # starting now: not yet detectable
        cfg = small_cfg(bit_rate=16_000_000.0)
        sim = Simulation(cfg, topology=two_node_topology())
        node = sim.nodes[1]
        sim._start_tx(sim.nodes[0], Frame(CTS, 0, 1))
        node.cc.buffer.append(sim._new_packet(node))
        node.phase = BACKOFF
        node.remaining = 0
        sim.engine.now = now
        sim._backoff_wake(node, node.epoch)
        assert node.phase == (BACKOFF if senses else AWAIT_CTS), now
        assert sim.ctrl_attempts == (1 if senses else 2), now
        if senses:
            # Deferred to one DIFS after the frame's end.
            assert (10 + sim.difs, node.epoch) in [
                (t, args[1]) for t, _, fn, args in queued_events(sim.engine)
                if fn == sim._backoff_wake]


@pytest.mark.parametrize("jitter", [0, 1, 1000])
@pytest.mark.parametrize("top_first", [False, True])
def test_defer_draws_the_jitter_as_uniform_int(monkeypatch, jitter, top_first):
    # Each deferral waits DIFS plus uniform_int(0, jitter - 1) after its
    # base, from the node's stream and nothing else: a jitter of 1 or 0
    # draws nothing.  With top_first the stream's first value is the top
    # one, 2**64 - 1, past the last multiple of any jitter: it is redrawn.
    cfg = small_cfg(node_count=2, source_count=1, access_jitter_us=jitter)
    sim = Simulation(cfg, topology=two_node_topology())
    node = sim.nodes[1]
    node.stream = RandomStream(cfg.seed, node.id + 1)
    ref = RandomStream(cfg.seed, node.id + 1)
    forced = {id(node.stream), id(ref)} if top_first else set()
    orig = RandomStream.next_u64

    def next_u64(stream):
        if id(stream) in forced:
            forced.discard(id(stream))
            return 2 ** 64 - 1
        return orig(stream)
    monkeypatch.setattr(RandomStream, "next_u64", next_u64)
    for base in range(100, 5100, 100):
        sim._defer(node, base)
        (at, _, fn, args), = queued_events(sim.engine)
        sim.engine.clear()
        jitter_us = ref.uniform_int(0, jitter - 1) if jitter else 0
        assert (at, fn, args) == (base + jitter_us + sim.difs,
                                  sim._backoff_wake, (node, node.epoch))
        assert node.stream._state == ref._state
    # The forced top value is taken only where a draw is made.
    assert len(forced) == (2 if top_first and jitter <= 1 else 0)


def test_no_transmission_into_sensed_busy_medium():
    # the MAC audit over every RTS of a contended run
    cfg = small_cfg(offered_load=50.0, duration=5.0, access_jitter_us=1000,
                    scheme="none", trace_mac=True)
    sim = Simulation(cfg, topology=contention_topology())
    result = sim.run()
    assert result.delivered > 0
    assert audit(sim) == []


def test_frozen_countdown_keeps_its_partial_slot():
    # All in range, no jitter.  Node 1 counts k slots down from DIFS; an ACK
    # from node 2 that nobody answers freezes it 2.5 slots in.  The half
    # counted slot is not done, so k - 2 slots remain after the next DIFS.
    cfg = small_cfg(trace_mac=True)
    sim = Simulation(cfg, topology=contention_topology())
    a, b = sim.nodes[1], sim.nodes[2]
    k = draw_backoff(a.w, RandomStream(cfg.seed, a.id + 1))
    assert k >= 3
    t = sim.timing
    frozen_at = t.difs + 5 * t.slot // 2
    inject_packet(sim, a)
    sim.engine.schedule(frozen_at, sim._start_tx, b, Frame(ACK, b.id, a.id))
    sim.run()
    rts_starts = [row[0] for row in sim.mac_trace
                  if row[1:3] == (a.id, RTS) and row[4] == "tx_start"]
    frame_end = frozen_at + t.ctrl_air
    assert rts_starts[0] == frame_end + t.difs + (k - 2) * t.slot


@pytest.mark.parametrize("w", [1, 4, 16])
def test_saturated_rate_matches_the_renewal_closed_form(w):
    # One always-backlogged sender next to the sink: each packet is one
    # renewal cycle of DIFS + jitter J + k slots + RTS + SIFS + CTS + SIFS
    # + DATA + SIFS + ACK, with J uniform on [0, 999] us and k on
    # [0, W - 1].  So E[cycle] = 4179.5 + 1000 (W - 1) / 2 us, and the
    # rate is 239.26, 176.07 and 85.62 pps for W = 1, 4 and 16.
    jitter, duration = 1000, 30.0
    cfg = small_cfg(node_count=2, source_count=1, offered_load=1000.0,
                    r_cap=1000.0, w_max=w, access_jitter_us=jitter,
                    duration=duration, seed=1)
    t = MacTiming(cfg)
    mean = (t.difs + (jitter - 1) / 2 + t.slot * (w - 1) / 2
            + t.ctrl_air + t.response_us)
    var = (jitter ** 2 - 1) / 12 + t.slot ** 2 * (w * w - 1) / 12
    # Renewal count over T us: mean T / mean, variance T var / mean^3.
    # Allow four standard deviations, plus one packet at either end.
    T = duration * 1e6
    tolerance = (4 * math.sqrt(T * var / mean ** 3) + 2) / duration
    result = run_scenario(cfg, topology=two_node_topology())
    assert result.mac_drops == 0
    rate = result.delivered / duration
    assert abs(rate - 1e6 / mean) < tolerance, (rate, 1e6 / mean, tolerance)


@pytest.mark.parametrize("w", [1, 16])
@pytest.mark.parametrize("hops", range(3, 9))
def test_chain_never_beats_its_data_exclusion_bound(hops, w):
    """Nodes 25 m apart on a line with radius 30, so only neighbours hear
    each other; node `hops` is the only source.  The successful DATA frames
    of the three links nearest the sink, 1->0, 2->1 and 3->2, never overlap
    in time:

    - 2->1 and 1->0 share node 1, and 3->2 and 2->1 share node 2, which
      would have to receive DATA in an exchange it answered while it sends
      DATA in one it opened.  A node answers an RTS only while idle or in
      backoff, and sends no RTS of its own until its answer's ACK is over.
    - 3->2 and 1->0: node 1 is in range of node 2, and two overlapping
      frames in range of a receiver are both lost there.

    Each delivered packet crossed all three links, on a DATA frame of its
    own of 1,600 us, so a run of T us delivers at most T / (3 x 1,600 us):
    208.3 pps, whatever W, the jitter or the chain's length.
    """
    duration = 30.0
    cfg = small_cfg(node_count=hops + 1, source_count=1, offered_load=1000.0,
                    r_cap=1000.0, w_max=w, access_jitter_us=1000,
                    duration=duration, seed=1)
    topology = make_topology([(25.0 * i, 0.0) for i in range(hops + 1)],
                             ["sink"] + ["relay"] * (hops - 1) + ["source"])
    assert [len(a) for a in topology.adjacency] == [1] + [2] * (hops - 1) + [1]
    data_air = MacTiming(cfg).data_air
    result = run_scenario(cfg, topology=topology)
    assert result.delivered > 0
    assert result.delivered / duration <= 1e6 / (3 * data_air)
