"""Evaluation metrics computed from run records: loss ratio, throughput,
average source rate, energy efficiency and the fairness degree.

The packet metrics and the packets CSV read the columns of the run's
``traffic.PacketLog`` directly, without building a row per packet.
Steady-state means exclude a configurable warmup interval; full time series
are retained so transient behaviour stays plottable from the CSV output.
"""

import math
from dataclasses import dataclass, field, fields

from .traffic import (DELIVERED, BUFFER_OVERFLOW, MAC_RETRY_EXHAUSTED,
                      IN_FLIGHT, NO_END, OUTCOMES, OUTCOME_CODE)

_DELIVERED = OUTCOME_CODE[DELIVERED]
_DROPS = (OUTCOME_CODE[BUFFER_OVERFLOW], OUTCOME_CODE[MAC_RETRY_EXHAUSTED])


@dataclass
class MetricsReport:
    scheme: str
    seed: int
    node_count: int
    duration_s: float
    generated: int
    delivered: int
    overflow_drops: int
    mac_drops: int
    in_flight: int
    packet_loss_ratio: float
    # Post-warmup means; None when the run has no post-warmup interval.
    throughput_mean_pps: float      # at the sink
    avg_source_rate_mean_pps: float
    source_rate_cov: float          # coefficient of variation
    energy_efficiency: float
    fairness: float                 # None when not applicable
    data_attempts: int
    energy_consumed_j: float
    # series: list of rows (t_start_s, t_end_s, generated, delivered, drops,
    #                       loss_ratio, throughput_pps)
    windows: list = field(default_factory=list)
    rate_series: list = field(default_factory=list)  # (t_s, mean source rate)


def packet_loss_ratio(log):
    """Dropped / generated, with packets still in flight at run end excluded
    from both numerator and denominator."""
    codes = log.outcome
    terminal = len(codes) - codes.count(OUTCOME_CODE[IN_FLIGHT])
    if terminal == 0:
        return 0.0
    return sum(codes.count(c) for c in _DROPS) / terminal


def window_series(log, window_us, duration_us):
    """Per-window generation, delivery and drop counts; window_us >= 1."""
    if duration_us <= 0:
        return []
    n_windows = max(1, math.ceil(duration_us / window_us))
    last = n_windows - 1
    gen = [0] * n_windows
    dlv = [0] * n_windows
    drp = [0] * n_windows
    for created in log.created_us:
        gen[min(int(created // window_us), last)] += 1
    for code, end in zip(log.outcome, log.end_us):
        if code == _DELIVERED:
            dlv[min(int(end // window_us), last)] += 1
        elif code in _DROPS:
            drp[min(int(end // window_us), last)] += 1
    rows = []
    for w in range(n_windows):
        t0 = w * window_us / 1e6
        t1 = min((w + 1) * window_us, duration_us) / 1e6
        span = t1 - t0
        loss = drp[w] / gen[w] if gen[w] else 0.0
        tput = dlv[w] / span if span > 0 else 0.0
        rows.append((t0, t1, gen[w], dlv[w], drp[w], loss, tput))
    return rows


def throughput_mean(log, warmup_us, duration_us):
    """Mean sink delivery rate (pps) over the post-warmup interval."""
    span_us = duration_us - warmup_us
    if span_us <= 0:
        return 0.0
    count = sum(1 for code, end in zip(log.outcome, log.end_us)
                if code == _DELIVERED and end >= warmup_us)
    return count / (span_us / 1e6)


def fairness(rates):
    """Fairness degree of a per-source rate vector.

    (sum r)^2 / (N sum r^2), the standard dimensionless index: 1 for equal
    rates, 1/N when a single source is active.  Returns None for an all-zero
    or empty vector.
    """
    n = len(rates)
    if n == 0:
        return None
    total = sum(rates)
    sq = sum(r * r for r in rates)
    if sq == 0:
        return None
    return (total * total) / (n * sq)


def mean_std(values):
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    m = sum(values) / n
    var = sum((v - m) ** 2 for v in values) / n
    return m, math.sqrt(var)


def aggregate(reports):
    """Cross-seed mean/stddev/min/max for every scalar metric, over the runs
    that measured it; all four are None for a metric no run measured."""
    if not reports:
        raise ValueError("aggregate requires at least one report")
    out = {}
    for name in ("packet_loss_ratio", "throughput_mean_pps",
                 "avg_source_rate_mean_pps", "source_rate_cov",
                 "energy_efficiency", "fairness"):
        values = [getattr(r, name) for r in reports]
        values = [v for v in values if v is not None]
        if not values:
            out[name] = dict.fromkeys(("mean", "stddev", "min", "max"))
            continue
        m, s = mean_std(values)
        out[name] = {"mean": m, "stddev": s, "min": min(values), "max": max(values)}
    return out


def build_report(result):
    """Assemble the full metrics report for one run."""
    cfg = result.config
    duration_us = int(round(cfg.duration * 1e6))
    warmup_us = int(round(cfg.warmup * 1e6))
    window_us = int(round(cfg.window * 1e6))

    post = [(t, sum(rates) / len(rates)) for t, rates in result.rate_samples
            if rates]
    post_warm = [m for t, m in post if t >= warmup_us]
    rate_mean = cov = None
    if post_warm:
        rate_mean, rate_std = mean_std(post_warm)
        cov = rate_std / rate_mean if rate_mean > 0 else 0.0

    # Per-source mean rate over the post-warmup samples, for the fairness degree.
    post_rates = [rates for t, rates in result.rate_samples if t >= warmup_us]
    per_source = [sum(col) / len(post_rates) for col in zip(*post_rates)]
    phi = fairness(per_source) if per_source else None

    efficiency = (result.energy_remaining_nj / result.energy_initial_nj
                  if result.energy_initial_nj else 1.0)

    return MetricsReport(
        scheme=cfg.scheme,
        seed=cfg.seed,
        node_count=cfg.node_count,
        duration_s=cfg.duration,
        generated=result.generated,
        delivered=result.delivered,
        overflow_drops=result.overflow_drops,
        mac_drops=result.mac_drops,
        in_flight=result.in_flight,
        packet_loss_ratio=packet_loss_ratio(result.records),
        throughput_mean_pps=(throughput_mean(result.records, warmup_us, duration_us)
                             if duration_us > warmup_us else None),
        avg_source_rate_mean_pps=rate_mean,
        source_rate_cov=cov,
        energy_efficiency=efficiency,
        fairness=phi,
        data_attempts=result.data_attempts,
        energy_consumed_j=(result.energy_initial_nj - result.energy_remaining_nj)
        / 1e9,
        windows=window_series(result.records, window_us, duration_us),
        rate_series=[(t / 1e6, m) for t, m in post],
    )


# ---- CSV emission -------------------------------------------------------

# The summary's columns are the report's scalar fields, in declaration order.
SUMMARY_COLUMNS = tuple(f.name for f in fields(MetricsReport) if f.type is not list)


def _fmt(value):
    if value is None:
        return "na"
    if isinstance(value, float):
        return "%.10g" % value
    return str(value)


def _write_table(f, header, rows):
    f.write(",".join(header) + "\n")
    for row in rows:
        f.write(",".join([_fmt(v) for v in row]) + "\n")


def write_csv(path, header, rows):
    """Write one CSV table: a header line of column names, then one line per
    row with every value formatted by ``_fmt`` (``na`` for None)."""
    with open(path, "w") as f:
        _write_table(f, header, rows)


def summary_row(report):
    return [getattr(report, name) for name in SUMMARY_COLUMNS]


def write_summary_csv(path, reports):
    write_csv(path, SUMMARY_COLUMNS, [summary_row(r) for r in reports])


def write_series_csv(path, report):
    """The window table, a blank line, then the source-rate table."""
    with open(path, "w") as f:
        _write_table(f, ("window_start_s", "window_end_s", "generated",
                         "delivered", "dropped", "loss_ratio", "throughput_pps"),
                     report.windows)
        f.write("\n")
        _write_table(f, ("t_s", "mean_source_rate_pps"), report.rate_series)


# Packets CSV rows formatted per write call.  The joined block is held in
# memory until written: 4096 rows held about 0.35 MB at the process's peak,
# while 256 rows write as fast.
CSV_BLOCK = 256


def write_packets_csv(path, log):
    """One line per generated packet, in id order; end_us is empty while in
    flight.  Lines are joined and written CSV_BLOCK rows at a time."""
    n = len(log)
    # Origins and hop counts stay below the node count: format each once.
    small = [str(v) for v in range(max(max(log.origin, default=0),
                                       max(log.hops, default=0)) + 1)]
    with open(path, "w") as f:
        f.write("id,origin,seq,created_us,outcome,end_us,hops\n")
        for lo in range(0, n, CSV_BLOCK):
            hi = lo + CSV_BLOCK
            f.write("".join([
                f"{i},{small[origin]},{seq},{created},{OUTCOMES[code]},"
                f"{'' if end == NO_END else end},{small[hops]}\n"
                for i, origin, seq, created, code, end, hops in zip(
                    range(lo, min(hi, n)), log.origin[lo:hi], log.seq[lo:hi],
                    log.created_us[lo:hi], log.outcome[lo:hi],
                    log.end_us[lo:hi], log.hops[lo:hi])]))
