"""The packet metrics and the packets CSV checked against a row-wise reference.

The reference functions below walk the per-packet rows one at a time, the
way the metrics were first written.  The tests compare them with
``hcccsim.metrics`` on short runs of every scheme and on hand-built packet
sets that sit on the boundaries: no packets, everything in flight, end
times exactly on a window edge or at the run's end, and drops before the
warmup.
"""

import math

import pytest

from hcccsim import metrics
from hcccsim.config import ScenarioConfig, validate
from hcccsim.simulation import run_scenario
from hcccsim.traffic import (PacketLog, DELIVERED, BUFFER_OVERFLOW,
                             MAC_RETRY_EXHAUSTED, IN_FLIGHT)

DROPS = (BUFFER_OVERFLOW, MAC_RETRY_EXHAUSTED)


# ---- row-wise reference ---------------------------------------------------

def ref_loss_ratio(rows):
    terminal = drops = 0
    for r in rows:
        if r.outcome == IN_FLIGHT:
            continue
        terminal += 1
        if r.outcome in DROPS:
            drops += 1
    return drops / terminal if terminal else 0.0


def ref_throughput_mean(rows, warmup_us, duration_us):
    span_us = duration_us - warmup_us
    if span_us <= 0:
        return 0.0
    count = 0
    for r in rows:
        if r.outcome == DELIVERED and r.end_us >= warmup_us:
            count += 1
    return count / (span_us / 1e6)


def ref_window_series(rows, window_us, duration_us):
    if duration_us <= 0 or window_us <= 0:
        return []
    n = max(1, math.ceil(duration_us / window_us))
    gen = [0] * n
    dlv = [0] * n
    drp = [0] * n
    for r in rows:
        gen[min(r.created_us // window_us, n - 1)] += 1
        if r.outcome == DELIVERED:
            dlv[min(r.end_us // window_us, n - 1)] += 1
        elif r.outcome in DROPS:
            drp[min(r.end_us // window_us, n - 1)] += 1
    out = []
    for w in range(n):
        t0 = w * window_us / 1e6
        t1 = min((w + 1) * window_us, duration_us) / 1e6
        span = t1 - t0
        out.append((t0, t1, gen[w], dlv[w], drp[w],
                    drp[w] / gen[w] if gen[w] else 0.0,
                    dlv[w] / span if span > 0 else 0.0))
    return out


def ref_packets_csv(rows):
    lines = ["id,origin,seq,created_us,outcome,end_us,hops\n"]
    for r in rows:
        end = "" if r.outcome == IN_FLIGHT else str(r.end_us)
        lines.append("%d,%d,%d,%d,%s,%s,%d\n" % (
            r.id, r.origin, r.seq, r.created_us, r.outcome, end, r.hops))
    return "".join(lines).encode()


# ---- comparison -------------------------------------------------------------

def build(rows):
    """A packet log from (origin, seq, created_us, outcome, end_us, hops)
    rows; an outcome of None leaves the packet in flight."""
    log = PacketLog()
    for origin, seq, created, outcome, end, hops in rows:
        pkt_id = log.add(origin, seq, created)
        log.hops[pkt_id] = hops
        if outcome is not None:
            log.finish(pkt_id, outcome, end)
    return log


def assert_matches_reference(records, warmup_us, window_us, duration_us,
                             tmp_path):
    rows = list(records)
    assert len(rows) == len(records)
    assert [r.id for r in rows] == list(range(len(rows)))
    assert metrics.packet_loss_ratio(records) == ref_loss_ratio(rows)
    assert (metrics.throughput_mean(records, warmup_us, duration_us)
            == ref_throughput_mean(rows, warmup_us, duration_us))
    assert (metrics.window_series(records, window_us, duration_us)
            == ref_window_series(rows, window_us, duration_us))
    path = tmp_path / "packets.csv"
    metrics.write_packets_csv(str(path), records)
    assert path.read_bytes() == ref_packets_csv(rows)


@pytest.mark.parametrize("scheme", ["hccc", "none", "aimd_e2e"])
def test_run_metrics_match_row_wise_reference(scheme, tmp_path):
    # 10 s in 3 s windows: the last window is partial.  Small buffers, a
    # lossy channel and one retry put every outcome in every scheme's run.
    cfg = validate(ScenarioConfig(node_count=30, source_count=6, duration=10.0,
                                  warmup=3.0, window=3.0, offered_load=20.0,
                                  buffer_capacity=8, frame_error_rate=0.05,
                                  retry_limit=1, seed=4, scheme=scheme))
    result = run_scenario(cfg)
    assert ({r.outcome for r in result.records}
            == {DELIVERED, BUFFER_OVERFLOW, MAC_RETRY_EXHAUSTED, IN_FLIGHT})
    assert_matches_reference(result.records, 3_000_000, 3_000_000, 10_000_000,
                             tmp_path)


def test_no_packets_match_reference(tmp_path):
    assert_matches_reference(build([]), 0, 1_000_000, 5_000_000, tmp_path)


def test_all_in_flight_match_reference(tmp_path):
    records = build([(1 + i % 3, i // 3, 100_000 * i, None, None, 0)
                     for i in range(12)])
    assert metrics.packet_loss_ratio(records) == 0.0
    assert_matches_reference(records, 200_000, 400_000, 1_200_000, tmp_path)


def test_boundary_end_times_match_reference(tmp_path):
    window, duration = 1_000_000, 3_500_000
    records = build([
        (1, 0, 0, DELIVERED, window, 1),              # on the first edge
        (1, 1, window, BUFFER_OVERFLOW, window, 0),   # made and lost on an edge
        (2, 0, window - 1, DELIVERED, 2 * window, 4),
        (2, 1, 2 * window, MAC_RETRY_EXHAUSTED, 3 * window, 2),
        (3, 0, 3 * window, DELIVERED, duration, 3),   # at the run's end
        (3, 1, duration, BUFFER_OVERFLOW, duration, 0),
        (3, 2, duration, None, None, 0),
    ])
    rows = metrics.window_series(records, window, duration)
    assert [r[2:5] for r in rows] == [(2, 0, 0), (1, 1, 1), (1, 1, 0),
                                      (3, 1, 2)]
    assert_matches_reference(records, 2 * window, window, duration, tmp_path)


def test_drops_before_warmup_match_reference(tmp_path):
    warmup, duration = 5_000_000, 10_000_000
    records = build([
        (1, 0, 1_000_000, BUFFER_OVERFLOW, 1_500_000, 0),
        (1, 1, 2_000_000, MAC_RETRY_EXHAUSTED, 4_999_999, 2),
        (2, 0, 3_000_000, DELIVERED, 4_000_000, 1),    # before warmup
        (2, 1, 4_000_000, DELIVERED, warmup, 1),       # exactly at warmup
        (2, 2, 6_000_000, DELIVERED, 7_000_000, 1),
        (1, 2, 8_000_000, None, None, 0),
    ])
    assert metrics.throughput_mean(records, warmup, duration) == 2 / 5.0
    assert metrics.packet_loss_ratio(records) == 2 / 5
    assert_matches_reference(records, warmup, 2_000_000, duration, tmp_path)


def test_packets_csv_across_write_blocks_matches_reference(tmp_path):
    # The packets CSV is written in blocks of CSV_BLOCK rows.
    n = 2 * metrics.CSV_BLOCK + 3
    outcomes = (DELIVERED, None, BUFFER_OVERFLOW, MAC_RETRY_EXHAUSTED)
    records = build([(1 + i % 7, i // 7, 1000 * i, outcomes[i % 4],
                      1000 * i + 500, i % 5) for i in range(n)])
    assert_matches_reference(records, 0, 1_000_000, 1000 * n, tmp_path)
