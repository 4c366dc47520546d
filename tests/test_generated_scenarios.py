"""Invariants over generated scenarios.

Each case is a small scenario drawn from a fixed-seed RandomStream: 3-12
nodes, a random field side, radius, offered load, buffer size, window and
scheme, access jitter 0 or 1000 us, a lossless or lossy channel and, in some
cases, an energy budget that kills nodes.  16 more cases, from stream ids
of their own, run ``hccc`` with control frames that cost as much as a DATA
frame, as in the 3-node chain test of ``test_simulation.py``: there a node
can die on a CTS or ACK while its own access is pending.  A draw that puts
fewer than 100 frames on the air is redrawn from the same stream.  Every
case runs with the MAC and HCCC traces on and must pass the channel audit,
the MAC audit and the run invariants of ``conftest.invariant_errors``: the
outcome partition, the energy identity, buffer conservation at every node,
the bounds on R and W and the time order of both traces.  Each listener list a
run made must hold exactly the live carriers among its sender's neighbours,
in id order, and every node that entered backoff or was a live destination
must be a carrier: a source or a hop of a source's route.  Every RTS and
DATA frame must go to its sender's next hop: ``Simulation.last_accepted``
is keyed by the sender alone, which is only right while that holds.  Each
case runs on a ``test_mac_invariants.GuardedSimulation``, so a handler that
meets a condition the MAC's phase and epoch rule out fails the case.
"""

import dataclasses
import functools

import pytest

from hcccsim.config import SCHEMES, ScenarioConfig, validate
from hcccsim.engine import RandomStream
from hcccsim.mac import DATA, RTS

import test_mac_audit
from conftest import invariant_errors
from test_channel_audit import audit
from test_mac_invariants import GuardedSimulation

CASES = 40
DYING_HCCC_CASES = 16
MIN_FRAMES = 100
DYING_HCCC = dict(scheme="hccc", energy_initial=0.003,
                  energy_per_packet=1e-4, energy_control=1e-4)


class CountingSimulation(GuardedSimulation):
    """Counts freezes and ``_access_begin`` calls on dead nodes; records
    every node that entered backoff or was the live destination of a frame."""

    freezes = 0
    dead_access_begins = 0

    def __init__(self, cfg):
        super().__init__(cfg)
        self.must_listen = set()

    def _freeze(self, node, now):
        self.freezes += 1
        super()._freeze(node, now)

    def _access_begin(self, node):
        if not node.alive:
            self.dead_access_begins += 1
        super()._access_begin(node)

    def _begin_backoff(self, node):
        self.must_listen.add(node.id)
        super()._begin_backoff(node)

    def _start_tx(self, node, frame):
        if self.nodes[frame.dst].alive:
            self.must_listen.add(frame.dst)
        super()._start_tx(node, frame)


def listener_errors(sim):
    """Each listener list made holds the live carriers among its sender's
    neighbours, in ascending id order, and every node that entered backoff
    or was a live destination is a source or a hop of a source's route."""
    errors = []
    for j, listeners in enumerate(sim.listeners):
        if listeners is None:
            continue
        ids = [n.id for n in listeners]
        live = [i for i in sim.topology.adjacency[j]
                if sim.carrier[i] and sim.nodes[i].alive]
        if ids != live:
            errors.append("listeners[%d] is %r, not the live carriers %r"
                          % (j, ids, live))
    on_route = set()
    for src in sim.sources:
        i = src.id
        while i is not None:
            on_route.add(i)
            i = sim.topology.next_hop[i]
    if {i for i, c in enumerate(sim.carrier) if c} != on_route:
        errors.append("carriers are not the hops of the sources' routes")
    stray = sorted(sim.must_listen - on_route)
    if stray:
        errors.append("nodes %r contend or are addressed but lie on no "
                      "source's route" % stray)
    return errors


def off_route_frames(sim):
    """The MAC trace rows of RTS and DATA frames sent anywhere but to the
    sender's next hop."""
    next_hop = sim.topology.next_hop
    return [row for row in sim.mac_trace
            if row[4] == "tx_start" and row[2] in (RTS, DATA)
            and row[3] != next_hop[row[1]]]


def draw_config(stream, **fixed):
    """A drawn config, with the fields in ``fixed`` set to their values
    instead; the draws are the same either way."""
    node_count = stream.uniform_int(3, 12)
    lossy = stream.random() < 0.3
    dying = stream.random() < 0.25
    return validate(dataclasses.replace(ScenarioConfig(
        node_count=node_count,
        source_count=stream.uniform_int(1, node_count - 1),
        area_side=20.0 + 60.0 * stream.random(),
        radius=15.0 + 35.0 * stream.random(),
        offered_load=1.0 + 39.0 * stream.random(),
        buffer_capacity=stream.uniform_int(2, 50),
        w_max=stream.uniform_int(1, 63),
        scheme=SCHEMES[stream.uniform_int(0, len(SCHEMES) - 1)],
        traffic=("cbr", "poisson")[stream.uniform_int(0, 1)],
        access_jitter_us=(0, 1000)[stream.uniform_int(0, 1)],
        frame_error_rate=0.2 * stream.random() if lossy else 0.0,
        # 20 DATA attempts, or 100 control frames
        energy_initial=0.002 if dying else 0.1,
        energy_control=2e-5 if dying else 0.0,
        duration=4.0, warmup=1.0, seed=stream.uniform_int(1, 10_000),
        trace_mac=True, trace_hccc=True), **fixed))


@functools.lru_cache(maxsize=None)
def case(i):
    """(simulation, result) of generated case i; the cases from CASES on
    are the dying HCCC ones."""
    stream = RandomStream(10, i)
    fixed = DYING_HCCC if i >= CASES else {}
    for _ in range(50):
        sim = CountingSimulation(draw_config(stream, **fixed))
        result = sim.run()
        if result.data_attempts + result.ctrl_attempts >= MIN_FRAMES:
            return sim, result
    raise AssertionError("case %d: no draw put %d frames on the air"
                         % (i, MIN_FRAMES))


@pytest.mark.parametrize("i", range(CASES + DYING_HCCC_CASES))
def test_generated_scenario_invariants(i):
    sim, result = case(i)
    assert audit(sim) == []
    assert test_mac_audit.audit(sim) == []
    assert invariant_errors(result) == []
    assert listener_errors(sim) == []
    assert off_route_frames(sim) == []


def test_generated_cases_cover_the_hard_paths():
    runs = [case(i) for i in range(CASES + DYING_HCCC_CASES)]
    assert any(sim.freezes for sim, _ in runs)
    assert any(node.death_time is not None
               for _, result in runs for node in result.nodes)
    assert any(sim.cfg.frame_error_rate > 0 for sim, _ in runs)
    assert any(sim.cfg.access_jitter_us == 0 for sim, _ in runs)
    assert {sim.cfg.scheme for sim, _ in runs} == set(SCHEMES)
    assert any(sim.dead_access_begins for sim, _ in runs)
