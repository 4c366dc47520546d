"""Energy accounting, packet records and the AIMD baseline controller."""

from hcccsim.traffic import (AimdSource, EnergyBook, PacketLog,
                             joules_to_nj, DELIVERED, IN_FLIGHT)


def test_joules_to_nanojoules_exact():
    assert joules_to_nj(0.1) == 100_000_000
    assert joules_to_nj(1e-4) == 100_000


def test_single_data_charge():
    book = EnergyBook(0.1, 1e-4)
    book.charge_data()
    assert book.remaining_nj == 99_900_000          # 0.0999 J exactly
    assert book.initial_nj - book.remaining_nj == 100_000
    assert not book.exhausted


def test_thousand_sends_exhaust_the_budget():
    book = EnergyBook(0.1, 1e-4)
    for _ in range(999):
        book.charge_data()
        assert not book.exhausted
    book.charge_data()
    assert book.remaining_nj == 0
    assert book.exhausted


def test_control_frames_free_by_default():
    book = EnergyBook(0.1, 1e-4)
    for _ in range(100):
        book.charge_control()
    assert book.remaining_nj == book.initial_nj


def test_control_frames_chargeable():
    book = EnergyBook(0.1, 1e-4, control_j=1e-5)
    book.charge_control()
    assert book.initial_nj - book.remaining_nj == 10_000


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
