"""An independent audit of channel access: every RTS, checked from the MAC
trace, the adjacency and the MAC timing.

For an RTS that node s starts at t0:
  * carrier sense: no frame of s or of a neighbour of s started before t0
    and is still on the air at t0.  A frame starting in the same microsecond
    is not sensed (detection takes nonzero time);
  * response exchange: s sent no CTS at a time c with
    c - SIFS <= t0 < c - SIFS + response_us, where response_us is
    3 SIFS + 2 ctrl_air + data_air.  The RTS that
    s answered ended at c - SIFS, and from there s holds off its own access
    until the DATA it expects has been acknowledged.

A node's own frames never overlap, so at most one of them, the last to
start before t0, can still be on the air at t0.
"""

import copy
from bisect import bisect_left

import pytest

from hcccsim.mac import CTS, RTS, MacTiming

from test_channel_audit import RUNS, short_run, transmissions
from test_golden import SCENARIOS, golden_run

CARRIER_SENSE = "carrier_sense"
RESPONSE_EXCHANGE = "response_exchange"


def audit(sim):
    """[(trace row, rule)] for every RTS start that breaks a rule, in row
    order."""
    timing = MacTiming(sim.cfg)
    frames = transmissions(sim.mac_trace, timing)
    n = len(sim.nodes)
    starts = [[] for _ in range(n)]
    ends = [[] for _ in range(n)]
    rts = [[] for _ in range(n)]
    # By start time, not by row: a doctored trace may break the row order.
    for tx in sorted(frames, key=lambda tx: tx.t0):
        starts[tx.src].append(tx.t0)
        ends[tx.src].append(tx.t1)
        if tx.kind == RTS:
            rts[tx.src].append(tx)
    adjacency = sim.topology.adjacency
    violations = []
    for s in range(n):
        for tx in rts[s]:
            for m in [s] + adjacency[s]:
                i = bisect_left(starts[m], tx.t0) - 1
                if i >= 0 and ends[m][i] > tx.t0:
                    violations.append((tx.row, CARRIER_SENSE))
                    break
    window = timing.response_us
    for cts in frames:
        if cts.kind != CTS:
            continue
        own = rts[cts.src]
        lo = cts.t0 - timing.sifs
        i = bisect_left(own, lo, key=lambda tx: tx.t0)
        while i < len(own) and own[i].t0 < lo + window:
            violations.append((own[i].row, RESPONSE_EXCHANGE))
            i += 1
    return sorted(violations)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_scenario_access_passes_the_audit(name):
    assert audit(golden_run(name)[1]) == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_short_run_access_passes_the_audit(name):
    assert audit(short_run(name)) == []


def moved(sim, tx, t0):
    """A copy of a finished run whose trace starts frame tx at t0."""
    air = tx.t1 - tx.t0
    broken = copy.copy(sim)
    broken.mac_trace = list(sim.mac_trace)
    for row, t in ((tx.row, t0), (tx.end_row, t0 + air)):
        broken.mac_trace[row] = (t,) + sim.mac_trace[row][1:]
    return broken


def test_audit_flags_an_rts_moved_inside_a_neighbours_frame():
    # The first RTS with a whole neighbour frame between its sender's
    # previous frame and itself moves into that frame, so its sender's own
    # frames keep their order.
    sim = short_run("none_dying")
    frames = transmissions(sim.mac_trace, MacTiming(sim.cfg))
    adjacency = sim.topology.adjacency
    free_since = {}
    for tx in frames:
        if tx.kind == RTS:
            heard = [f for f in frames if f.src in adjacency[tx.src]
                     and free_since.get(tx.src, 0) <= f.t0 and f.t1 <= tx.t0]
            if heard:
                break
        free_since[tx.src] = tx.t1
    f = heard[-1]
    for t0, expected in ((f.t0, []),
                         (f.t0 + 1, [(tx.row, CARRIER_SENSE)]),
                         (f.t1 - 1, [(tx.row, CARRIER_SENSE)]),
                         (f.t1, [])):
        assert audit(moved(sim, tx, t0)) == expected, t0 - f.t0


def test_audit_flags_an_rts_placed_inside_its_senders_response_window():
    # A CTS whose sender sent no ACK after it but an RTS: the RTS moves to
    # either end of the response window the CTS opened.
    sim = short_run("none_dying")
    timing = MacTiming(sim.cfg)
    last = {}
    for tx in transmissions(sim.mac_trace, timing):
        cts = last.get(tx.src)
        if tx.kind == RTS and cts is not None and cts.kind == CTS:
            break
        last[tx.src] = tx
    lo = cts.t0 - timing.sifs
    hi = lo + timing.response_us
    for t0, expected in ((lo, [(tx.row, RESPONSE_EXCHANGE)]),
                         (hi - 1, [(tx.row, RESPONSE_EXCHANGE)]),
                         (hi, [])):
        assert audit(moved(sim, tx, t0)) == expected, t0 - lo
