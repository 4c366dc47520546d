"""Metric computations on hand-built record sets and small runs."""

import math

from hcccsim import metrics
from hcccsim.simulation import run_scenario
from hcccsim.traffic import PacketLog, DELIVERED, BUFFER_OVERFLOW

from conftest import small_cfg, two_node_topology


def rec(i, outcome=None, created=0, end=None, origin=1):
    """Packet i of a log_of list; an outcome of None leaves it in flight."""
    return origin, i, created, outcome, end if end is not None else created + 1000


def log_of(recs):
    log = PacketLog()
    for origin, seq, created, outcome, end in recs:
        pkt_id = log.add(origin, seq, created)
        if outcome is not None:
            log.finish(pkt_id, outcome, end)
    return log


def test_loss_ratio_counting():
    records = log_of([rec(i, DELIVERED) for i in range(90)]
                     + [rec(90 + i, BUFFER_OVERFLOW) for i in range(10)])
    assert metrics.packet_loss_ratio(records) == 0.10


def test_loss_ratio_empty_is_zero():
    assert metrics.packet_loss_ratio(PacketLog()) == 0.0


def test_loss_ratio_all_dropped():
    records = log_of([rec(i, "mac_retry_exhausted") for i in range(5)])
    assert metrics.packet_loss_ratio(records) == 1.0


def test_loss_ratio_excludes_in_flight():
    records = log_of([rec(0, DELIVERED), rec(1, BUFFER_OVERFLOW), rec(2)])
    assert metrics.packet_loss_ratio(records) == 0.5


def test_window_series_hand_tally():
    # 3 generated in window 0, 1 in window 1; delivery/drop times land
    # in their own windows
    records = log_of([
        rec(0, DELIVERED, created=1_000_000, end=2_000_000),
        rec(1, BUFFER_OVERFLOW, created=2_000_000, end=12_000_000),
        rec(2, None, created=3_000_000),
        rec(3, DELIVERED, created=11_000_000, end=19_000_000),
    ])
    rows = metrics.window_series(records, 10_000_000, 20_000_000)
    assert len(rows) == 2
    t0, t1, gen, dlv, drp, loss, tput = rows[0]
    assert (t0, t1, gen, dlv, drp) == (0.0, 10.0, 3, 1, 0)
    t0, t1, gen, dlv, drp, loss, tput = rows[1]
    assert (gen, dlv, drp) == (1, 1, 1)
    assert tput == 1 / 10.0


def test_throughput_steady_rate():
    # one delivery per second for 100 s, warmup 20 s
    records = log_of([rec(i, DELIVERED, created=i * 1_000_000,
                          end=i * 1_000_000) for i in range(100)])
    mean = metrics.throughput_mean(records, 20_000_000, 100_000_000)
    assert mean == 80 / 80.0


def test_throughput_no_deliveries():
    records = log_of([rec(i, BUFFER_OVERFLOW) for i in range(10)])
    assert metrics.throughput_mean(records, 0, 10_000_000) == 0.0


def test_fairness_equal_rates():
    assert metrics.fairness([3.0, 3.0, 3.0, 3.0]) == 1.0


def test_fairness_single_active_source():
    assert abs(metrics.fairness([5.0, 0.0, 0.0, 0.0]) - 0.25) < 1e-12


def test_fairness_fixture_123():
    phi = metrics.fairness([1.0, 2.0, 3.0])
    assert abs(phi - 6.0 / 7.0) < 1e-9


def test_fairness_degenerate_inputs():
    assert metrics.fairness([]) is None
    assert metrics.fairness([0.0, 0.0]) is None


def test_mean_std_fixture():
    m, s = metrics.mean_std([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert m == 5.0
    assert s == 2.0


def test_aggregate_single_report_and_fixture():
    cfg = small_cfg(node_count=2, source_count=1, offered_load=2.0,
                    duration=5.0, scheme="none")
    report = metrics.build_report(run_scenario(cfg, topology=two_node_topology()))
    agg = metrics.aggregate([report])
    assert agg["packet_loss_ratio"]["mean"] == report.packet_loss_ratio
    assert agg["packet_loss_ratio"]["stddev"] == 0.0
    agg2 = metrics.aggregate([report, report])
    assert agg2["throughput_mean_pps"]["stddev"] == 0.0
    assert agg2["throughput_mean_pps"]["min"] == agg2["throughput_mean_pps"]["max"]


def test_outcome_partition_fractions_sum_to_one():
    records = log_of([rec(i, DELIVERED) for i in range(6)]
                     + [rec(6 + i, BUFFER_OVERFLOW) for i in range(3)]
                     + [rec(9)])
    n = len(records)
    delivered = sum(1 for r in records if r.outcome == DELIVERED) / n
    dropped = sum(1 for r in records if r.outcome == BUFFER_OVERFLOW) / n
    in_flight = sum(1 for r in records if r.end_us is None) / n
    assert math.isclose(delivered + dropped + in_flight, 1.0)


def test_efficiency_identity_cross_module():
    cfg = small_cfg(node_count=2, source_count=1, offered_load=2.0,
                    duration=5.0, scheme="none", energy_per_packet=1e-4)
    result = run_scenario(cfg, topology=two_node_topology())
    report = metrics.build_report(result)
    n_nodes = len(result.nodes)
    expect = 1.0 - (1e-4 * result.data_attempts) / (n_nodes * cfg.energy_initial)
    assert abs(report.energy_efficiency - expect) < 1e-12


def test_summary_csv_layout(tmp_path):
    cfg = small_cfg(node_count=2, source_count=1, offered_load=2.0,
                    duration=5.0, scheme="none")
    report = metrics.build_report(run_scenario(cfg, topology=two_node_topology()))
    path = tmp_path / "summary.csv"
    metrics.write_summary_csv(str(path), [report])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(metrics.SUMMARY_COLUMNS)
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "none"
