"""Channel boundaries: same-instant end/start, half duplex, dead receivers, error draws."""

from collections import Counter

import pytest

from hcccsim.engine import RandomStream
from hcccsim.mac import RTS, CTS, ACK, Frame
from hcccsim.simulation import Simulation

from conftest import (hidden_terminal_topology, inject_packet, make_topology,
                      small_cfg, two_node_topology)
from test_channel_audit import audit


def star_topology():
    """Sink 0 with senders 1, 2 and 3, all mutually in range."""
    return make_topology([(0.0, 0.0), (10.0, 0.0), (-10.0, 0.0), (0.0, 10.0)],
                         ["sink", "source", "source", "source"])


def send_at(sim, t, src, dst, kind=CTS):
    """Queue a transmission of a bare control frame; CTS/ACK frames that
    match no pending exchange have no effect at their destination."""
    frame = Frame(kind, src, dst)
    sim.engine.schedule(t, sim._start_tx, sim.nodes[src], frame)


def outcomes(sim):
    """(end time, sender, destination outcome) for every finished frame."""
    return [(row[0], row[1], row[4]) for row in sim.mac_trace
            if row[4] != "tx_start"]


def run_star(starts, **cfg_overrides):
    cfg = small_cfg(node_count=4, source_count=3, trace_mac=True, **cfg_overrides)
    sim = Simulation(cfg, topology=star_topology())
    for t, src in starts:
        send_at(sim, t, src, 0)
    sim.engine.run_until(10_000)
    return sim


def test_reception_ending_as_another_starts_both_clean():
    # Node 2's start is queued first, so at t=160 it is processed before the
    # end of node 1's frame: the receiver holds one frame that has ended
    # and one that has just begun.  Neither overlaps the other.
    sim = run_star([(160, 2), (0, 1)])
    assert outcomes(sim) == [(160, 1, "ok"), (320, 2, "ok")]


def test_third_start_at_the_boundary_collides_only_with_the_second():
    sim = run_star([(160, 2), (160, 3), (0, 1)])
    assert outcomes(sim) == [(160, 1, "ok"), (320, 2, "collided"),
                             (320, 3, "collided")]


def test_one_microsecond_overlap_collides():
    sim = run_star([(159, 2), (0, 1)])
    assert outcomes(sim) == [(160, 1, "collided"), (319, 2, "collided")]


def test_destination_that_starts_listening_on_the_air_sees_the_overlap():
    # Node 2 has sent and been sent nothing when node 1's frame to the sink
    # goes out over [0, 160).  Node 3's frame to node 2 starts at t=80,
    # under node 1's frame, so node 2 must lose it.
    cfg = small_cfg(node_count=4, source_count=3, trace_mac=True)
    sim = Simulation(cfg, topology=star_topology())
    send_at(sim, 0, 1, 0)
    send_at(sim, 80, 3, 2)
    sim.engine.run_until(10_000)
    assert outcomes(sim) == [(160, 1, "collided"), (240, 3, "collided")]
    assert audit(sim) == []


def test_node_entering_backoff_on_the_air_defers_past_the_frame():
    # At 100 kbps node 1's control frame to the sink is on the air over
    # [0, 1600).  Node 2 is idle until it enters backoff at t=100; with
    # w = 1 and no jitter it must sense that frame and send its RTS one
    # DIFS after the frame's end, not one DIFS after t=100.
    cfg = small_cfg(node_count=4, source_count=3, trace_mac=True,
                    bit_rate=100_000.0)
    sim = Simulation(cfg, topology=star_topology())
    t = sim.timing
    assert t.ctrl_air == 1600 and 100 + t.difs < 1600
    node = sim.nodes[2]
    node.w = 1.0
    send_at(sim, 0, 1, 0)
    sim.engine.schedule(100, inject_packet, sim, node)
    sim.engine.run_until(5_000)
    rts_starts = [row[0] for row in sim.mac_trace
                  if row[1:3] == (2, RTS) and row[4] == "tx_start"]
    assert rts_starts == [1600 + t.difs]
    assert audit(sim) == []


def test_listener_list_made_after_a_neighbour_died_leaves_it_out():
    # Every node starts below one DATA charge and control frames are free,
    # so node 1 dies as its first DATA frame starts.  Node 3 sends its first
    # frame only after that: its listener list is made without node 1.
    cfg = small_cfg(node_count=4, source_count=3, trace_mac=True,
                    energy_initial=5e-5, energy_per_packet=1e-4)
    sim = Simulation(cfg, topology=star_topology())
    dying, late = sim.nodes[1], sim.nodes[3]
    inject_packet(sim, dying)
    sim.engine.run_until(200_000)
    assert dying.death_time is not None
    assert sim.listeners[late.id] is None
    inject_packet(sim, late)
    sim.engine.run_until(400_000)
    assert [row[4] for row in sim.mac_trace
            if row[1] == late.id and row[2] == RTS] == ["tx_start", "ok"]
    assert sim.listeners[late.id] == [sim.nodes[0], sim.nodes[2]]
    assert dying not in sim.listeners[0]
    assert audit(sim) == []


@pytest.mark.parametrize("kind", [CTS, ACK])
def test_receiver_transmitting_mid_reception_keeps_it(kind):
    # Half duplex is checked when a reception starts only: a receiver that
    # begins its own response mid-frame still decodes the frame.  Node 2
    # does not hear node 1.
    cfg = small_cfg(trace_mac=True)
    sim = Simulation(cfg, topology=hidden_terminal_topology())
    send_at(sim, 0, 1, 0)
    send_at(sim, 80, 0, 2, kind)
    sim.engine.run_until(10_000)
    assert outcomes(sim) == [(160, 1, "ok"), (240, 0, "ok")]


def test_reception_starting_while_receiver_transmits_is_lost():
    cfg = small_cfg(trace_mac=True)
    sim = Simulation(cfg, topology=hidden_terminal_topology())
    send_at(sim, 0, 0, 2)
    send_at(sim, 80, 1, 0)
    sim.engine.run_until(10_000)
    assert outcomes(sim) == [(160, 0, "ok"), (240, 1, "collided")]


def test_destination_dead_at_start_versus_dying_mid_frame():
    # One control frame exhausts either node.  Node 1 dies as its frame to
    # node 0 starts; node 0 hears that start, then dies starting its own
    # frame at t=80, so node 1's frame ends at a dead receiver and node 0's
    # frame never had one.
    cfg = small_cfg(node_count=2, source_count=1, trace_mac=True,
                    energy_initial=5e-5, energy_control=1e-4)
    sim = Simulation(cfg, topology=two_node_topology())
    send_at(sim, 0, 1, 0)
    send_at(sim, 80, 0, 1)
    sim.engine.run_until(10_000)
    assert [n.death_time for n in sim.nodes] == [80, 0]
    assert outcomes(sim) == [(160, 1, "dead_receiver"), (240, 0, "no_receiver")]


def test_deaths_in_one_microsecond_keep_their_order():
    # Both frames start at t=0 and each kills its sender.  Node 1's frame
    # started before node 0 died, so it ends at a dead receiver; node 0's
    # started after node 1 died, so it never had one.
    cfg = small_cfg(node_count=2, source_count=1, trace_mac=True,
                    energy_initial=5e-5, energy_control=1e-4)
    sim = Simulation(cfg, topology=two_node_topology())
    send_at(sim, 0, 1, 0)
    send_at(sim, 0, 0, 1)
    sim.engine.run_until(10_000)
    assert [n.death_time for n in sim.nodes] == [0, 0]
    assert outcomes(sim) == [(160, 1, "dead_receiver"), (160, 0, "no_receiver")]


def test_destination_dead_before_the_frame():
    cfg = small_cfg(node_count=2, source_count=1, trace_mac=True)
    sim = Simulation(cfg, topology=two_node_topology())
    sim.nodes[0].alive = False
    send_at(sim, 0, 1, 0)
    sim.engine.run_until(10_000)
    assert outcomes(sim) == [(160, 1, "no_receiver")]


def two_hop_topology():
    """Relay 1 forwards for source 2; source 3 hears every other node."""
    return make_topology([(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (20.0, 20.0)],
                         ["sink", "relay", "source", "source"])


@pytest.mark.parametrize("scheme", ["hccc", "none"])
def test_frame_error_draws_per_stream(scheme, monkeypatch):
    # Frame errors are keyed draws, not stream draws: while a frame ends no
    # node's stream advances, so none depends on who a frame is for or on
    # what it overhears.
    draws = Counter()
    ending = []
    next_u64 = RandomStream.next_u64
    tx_end = Simulation._tx_end

    def counted(stream):
        if ending:
            draws[stream.stream_id] += 1
        return next_u64(stream)

    def watched(sim, node, frame):
        ending.append(frame)
        tx_end(sim, node, frame)
        ending.pop()

    monkeypatch.setattr(RandomStream, "next_u64", counted)
    monkeypatch.setattr(Simulation, "_tx_end", watched)
    cfg = small_cfg(node_count=4, source_count=2, scheme=scheme,
                    offered_load=20.0, duration=5.0, access_jitter_us=1000,
                    frame_error_rate=0.2, trace_mac=True)
    sim = Simulation(cfg, topology=two_hop_topology())
    result = sim.run()
    assert result.delivered > 0
    assert "corrupted" in {row[4] for row in result.mac_trace}
    assert draws == Counter()


def test_frame_error_outcome_is_the_same_whatever_the_destination():
    # Node 2 is node 1's child.  The same run of frames from node 1 goes to
    # node 2 in one run and, with feedback, to the sink in the other: frame
    # k is corrupted at node 2 in the first exactly when node 2 misses the
    # feedback of frame k in the second.
    feedback = object()
    decoded = {}
    for dst in (2, 0):
        cfg = small_cfg(node_count=4, source_count=2, trace_mac=True,
                        frame_error_rate=0.5)
        sim = Simulation(cfg, topology=two_hop_topology())
        assert sim.nodes[2].next_hop is sim.nodes[1]
        seen = decoded[dst] = []
        for k in range(200):
            t = 1000 * k
            sim.engine.schedule(t, sim._start_tx, sim.nodes[1],
                                Frame(CTS, 1, dst,
                                      feedback if dst == 0 else None))
            sim.engine.run_until(t + 500)
            if dst == 2:
                seen.append(sim.mac_trace[-1][4] == "ok")
            else:
                seen.append(sim.nodes[2].pending_feedback is feedback)
                sim.nodes[2].pending_feedback = None
    assert 50 < sum(decoded[2]) < 150
    assert decoded[2] == decoded[0]
