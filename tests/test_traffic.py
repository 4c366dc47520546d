"""Packet records, the AIMD baseline controller and when a sending node dies."""

import pytest

from hcccsim.mac import RTS, CTS, DATA, ACK, Frame
from hcccsim.simulation import Simulation
from hcccsim.traffic import (AimdSource, PacketLog, joules_to_nj, DELIVERED,
                             IN_FLIGHT)

from conftest import small_cfg, two_node_topology


def test_joules_to_nanojoules_exact():
    assert joules_to_nj(0.1) == 100_000_000
    assert joules_to_nj(1e-4) == 100_000


# Node 1 sends these frames to node 0, one every GAP us.  Each case: the
# [energy] keys, the frames, the index of the frame at whose start node 1
# dies, and the nJ it has left after the last one.
GAP = 5000
DEATH_CASES = {
    "thousandth_data": (dict(energy_initial=0.1, energy_per_packet=1e-4),
                        [DATA] * 1000, 999, 0),
    "free_control_then_data": (dict(energy_initial=5e-5,
                                    energy_per_packet=1e-4),
                               [RTS, CTS, ACK] * 100 + [DATA], 300, -50_000),
    "chargeable_cts": (dict(energy_initial=5e-5, energy_per_packet=1e-4,
                            energy_control=1e-5),
                       [CTS], 0, 40_000),
    "second_data": (dict(energy_initial=2.5e-4, energy_per_packet=1e-4),
                    [DATA, DATA], 1, 50_000),
}


@pytest.mark.parametrize("case", DEATH_CASES)
def test_sender_dies_as_its_last_chargeable_frame_starts(case):
    energy, kinds, last, left = DEATH_CASES[case]
    cfg = small_cfg(node_count=2, source_count=1,
                    duration=(len(kinds) + 1) * GAP / 1e6, **energy)
    sim = Simulation(cfg, topology=two_node_topology())
    sender = sim.nodes[1]
    pkt = sim._new_packet(sender)
    for i, kind in enumerate(kinds):
        sim.engine.schedule((i + 1) * GAP, sim._start_tx, sender,
                            Frame(kind, 1, 0, None, pkt))
    result = sim.run()
    # A node dies once, so the time also says it lived through every
    # frame before.
    assert sender.death_time == (last + 1) * GAP
    # Node 0 sends only free frames or none, so its budget is untouched.
    assert result.nodes[0].alive
    assert result.energy_remaining_nj - result.energy_initial_nj // 2 == left


def test_packet_record_single_terminal_outcome():
    log = PacketLog()
    pkt_id = log.add(1, 0, 100)
    assert log[pkt_id].outcome == IN_FLIGHT
    log.hops[pkt_id] = 3
    assert log.finish(pkt_id, DELIVERED, 5000) is True
    assert log.finish(pkt_id, "buffer_overflow", 6000) is False
    rec = log[pkt_id]
    assert rec.outcome == DELIVERED
    assert rec.end_us == 5000
    assert rec.hops == 3


def test_aimd_halving():
    src = AimdSource(4.0, 0.25, 0.1, 200.0)
    src.on_loss_signal(1_000_000)
    assert src.rate == 2.0


def test_aimd_additive_increase_over_quiet_seconds():
    src = AimdSource(2.0, 0.25, 0.1, 200.0)
    for k in range(1, 5):
        src.on_second_tick(k * 1_000_000)
    assert src.rate == 3.0


def test_aimd_tick_suppressed_right_after_halving():
    src = AimdSource(4.0, 0.25, 0.1, 200.0)
    src.on_loss_signal(1_500_000)
    src.on_second_tick(2_000_000)       # only 0.5 s since the halving
    assert src.rate == 2.0
    src.on_second_tick(2_500_000)       # a full second elapsed
    assert src.rate == 2.25


def test_aimd_rate_floor():
    src = AimdSource(0.15, 0.25, 0.1, 200.0)
    src.on_loss_signal(0)
    assert src.rate == 0.1
    src.on_loss_signal(1)
    assert src.rate == 0.1


def test_aimd_rate_cap():
    src = AimdSource(199.9, 0.25, 0.1, 200.0)
    src.on_second_tick(1_000_000)
    assert src.rate == 200.0
