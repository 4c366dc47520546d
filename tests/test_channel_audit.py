"""An independent audit of the channel: each frame's destination outcome,
recomputed from the MAC trace, the adjacency and the node death times.

A frame from s to d on the air over [t0, t1) is clean at d if and only if:
  * d is alive when the frame starts and when it ends;
  * d is not transmitting at t0 (an own frame with start <= t0 < end);
  * no other frame from a neighbour of d overlaps [t0, t1), half-open.
A dead destination at the start gives ``no_receiver``, one that died on the
air ``dead_receiver``, a frame that is not clean ``collided``.  A clean frame
is ``corrupted`` if and only if the frame-error draw keyed by (run seed,
destination, attempt number) falls below the frame's error rate, else ``ok``.
A DATA frame has the DATA airtime and error rate, any other frame the
control frame's.
The attempt number counts the run's frames from 1 in start order.

Instants are ordered by the trace itself: rows are appended in the order the
events run, and a node dies only as it starts its own last frame, so "before
t0" means "an earlier row" wherever two things share a microsecond.
"""

import copy
import functools
from bisect import bisect_right
from collections import Counter, deque

import pytest

from hcccsim.config import ScenarioConfig, validate
from hcccsim.engine import keyed_random
from hcccsim.mac import DATA, MacTiming
from hcccsim.simulation import Simulation

from test_golden import SCENARIOS, golden_run


class Tx:
    __slots__ = ("serial", "row", "t0", "t1", "src", "kind", "dst", "end_row",
                 "outcome")

    def __init__(self, serial, row, t0, t1, src, kind, dst):
        self.serial, self.row, self.t0, self.t1 = serial, row, t0, t1
        self.src, self.kind, self.dst = src, kind, dst
        self.end_row = self.outcome = None


def transmissions(trace, timing):
    """Every frame of a MAC trace, in start order; end_row and outcome stay
    None for a frame still on the air at the horizon."""
    frames = []
    on_air = {}
    for row, (t, src, kind, dst, event) in enumerate(trace):
        if event == "tx_start":
            airtime = timing.data_air if kind == DATA else timing.ctrl_air
            tx = Tx(len(frames) + 1, row, t, t + airtime, src, kind, dst)
            frames.append(tx)
            on_air.setdefault(src, deque()).append(tx)
        else:
            tx = on_air[src].popleft()
            assert (t, kind, dst) == (tx.t1, tx.kind, tx.dst), row
            tx.end_row, tx.outcome = row, event
    return frames


def audit(sim):
    """[(trace row, traced outcome, predicted outcome)] for every finished
    frame whose traced outcome differs from the rule."""
    timing = MacTiming(sim.cfg)
    frames = transmissions(sim.mac_trace, timing)
    n = len(sim.nodes)
    starts = [[] for _ in range(n)]
    ends = [[] for _ in range(n)]
    own = [[] for _ in range(n)]
    for tx in frames:
        starts[tx.src].append(tx.t0)
        ends[tx.src].append(tx.t1)
        own[tx.src].append(tx)
    death_row = [None] * n
    for node in sim.nodes:
        if node.death_time is not None:
            i = bisect_right(starts[node.id], node.death_time) - 1
            assert i >= 0 and starts[node.id][i] == node.death_time
            death_row[node.id] = own[node.id][i].row
    adjacency = sim.topology.adjacency

    def transmitting(d, tx):
        i = bisect_right(starts[d], tx.t0) - 1
        if i < 0 or ends[d][i] <= tx.t0:
            return False
        return starts[d][i] < tx.t0 or own[d][i].row < tx.row

    def overlapped(d, tx):
        for m in adjacency[d]:
            i = bisect_right(ends[m], tx.t0)
            while i < len(starts[m]) and starts[m][i] < tx.t1:
                if own[m][i] is not tx:
                    return True
                i += 1
        return False

    mismatches = []
    for tx in frames:
        if tx.outcome is None:
            continue
        d = tx.dst
        if death_row[d] is not None and death_row[d] < tx.row:
            predicted = "no_receiver"
        elif death_row[d] is not None and death_row[d] < tx.end_row:
            predicted = "dead_receiver"
        elif transmitting(d, tx) or overlapped(d, tx):
            predicted = "collided"
        elif keyed_random(sim.cfg.seed, d, tx.serial) < (
                timing.data_fer if tx.kind == DATA else timing.ctrl_fer):
            predicted = "corrupted"
        else:
            predicted = "ok"
        if tx.outcome != predicted:
            mismatches.append((tx.end_row, tx.outcome, predicted))
    return mismatches


def outcome_counts(sim):
    return Counter(row[4] for row in sim.mac_trace if row[4] != "tx_start")


# Short runs beside the golden scenarios: a lossy aimd_e2e field, and a
# saturated field whose nodes die of control-frame energy, one of them
# while a frame to it is on the air (dead_receiver).
RUNS = {
    "aimd_e2e_lossy": dict(scheme="aimd_e2e", traffic="poisson",
                           frame_error_rate=0.1, duration=10.0, seed=3),
    "none_dying": dict(scheme="none", offered_load=20.0, energy_initial=0.02,
                       energy_control=2e-4, access_jitter_us=0,
                       duration=20.0, seed=4),
}


@functools.lru_cache(maxsize=None)
def short_run(name):
    cfg = validate(ScenarioConfig(warmup=2.0, trace_mac=True, **RUNS[name]))
    sim = Simulation(cfg)
    sim.run()
    return sim


def all_runs():
    return ([golden_run(name)[1] for name in sorted(SCENARIOS)]
            + [short_run(name) for name in sorted(RUNS)])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_scenario_outcomes_match_the_audit(name):
    assert audit(golden_run(name)[1]) == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_short_run_outcomes_match_the_audit(name):
    assert audit(short_run(name)) == []


def test_audit_sees_every_destination_outcome():
    seen = Counter()
    for sim in all_runs():
        seen += outcome_counts(sim)
    assert set(seen) == {"ok", "collided", "corrupted", "no_receiver",
                         "dead_receiver"}


def test_audit_flags_a_changed_outcome():
    sim = short_run("none_dying")
    first = {}
    for i, row in enumerate(sim.mac_trace):
        first.setdefault(row[4], i)
    for event, swapped in (("ok", "collided"), ("collided", "ok"),
                           ("no_receiver", "dead_receiver"),
                           ("dead_receiver", "ok")):
        i = first[event]
        broken = copy.copy(sim)
        broken.mac_trace = list(sim.mac_trace)
        broken.mac_trace[i] = sim.mac_trace[i][:4] + (swapped,)
        assert audit(broken) == [(i, swapped, event)]
