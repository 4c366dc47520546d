"""Shared fixture builders for the test suite."""

import os
from concurrent.futures import ProcessPoolExecutor

from hcccsim.config import ScenarioConfig, validate
from hcccsim.topology import NodeSpec, Topology, build_adjacency, compute_routes
from hcccsim.traffic import IN_FLIGHT, OUTCOME_CODE, joules_to_nj


def make_topology(positions, roles, radius=30.0):
    """Hand-built topology; node 0 must be the sink."""
    nodes = [NodeSpec(i, x, y, roles[i]) for i, (x, y) in enumerate(positions)]
    adjacency = build_adjacency(nodes, radius)
    next_hop, hop_count = compute_routes(adjacency)
    return Topology(nodes, adjacency, next_hop, hop_count)


def two_node_topology():
    """Source 1 adjacent to sink 0."""
    return make_topology([(0.0, 0.0), (10.0, 0.0)], ["sink", "source"])


def contention_topology():
    """Two senders and the sink, all mutually in range."""
    return make_topology([(0.0, 0.0), (15.0, 0.0), (25.0, 0.0)],
                         ["sink", "source", "source"])


def hidden_terminal_topology():
    """Senders 1 and 2 both reach the sink but not each other."""
    return make_topology([(25.0, 0.0), (0.0, 0.0), (50.0, 0.0)],
                         ["sink", "source", "source"])


def unreachable_source_topology():
    """Source 1 adjacent to sink 0; source 2 has no neighbour, so no route."""
    return make_topology([(0.0, 0.0), (10.0, 0.0), (200.0, 0.0)],
                         ["sink", "source", "source"])


def small_cfg(**overrides):
    base = dict(node_count=3, source_count=2, duration=2.0, warmup=0.0,
                scheme="none", offered_load=0.0, access_jitter_us=0,
                energy_per_packet=0.0)
    base.update(overrides)
    return validate(ScenarioConfig(**base))


def inject_packet(sim, node):
    """Generate a packet at a node now and admit it to the node's buffer,
    which kicks off channel access; returns the packet.

    Used with offered_load=0 scenarios to control send timing exactly.
    Only a carrier, a reachable source or a hop of a source's route, holds
    packets in a run, so only a carrier may be given one.
    """
    assert sim.carrier[node.id], "node %d carries no source's traffic" % node.id
    pkt = sim._new_packet(node)
    sim._admit(node, pkt)
    return pkt


def queued_events(engine):
    """The events pending in an Engine, as (time, seq, fn, args) tuples in
    dispatch order: the part of the open bucket not yet walked, then every
    other bucket."""
    bucket = engine._open
    events = bucket[len(bucket) - engine._walk.__length_hint__():]
    for bucket in engine._buckets.values():
        events.extend(bucket)
    return sorted(events)


def map_runs(worker, configs):
    """[worker(cfg) for cfg in configs], run on at most four worker
    processes, and serially on one CPU.  worker must be a module-level
    function, and it and its results must pickle."""
    workers = min(os.cpu_count() or 1, 4)
    if workers <= 1:
        return [worker(cfg) for cfg in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, configs))


def invariant_errors(result):
    """Outcome partition, energy identity, buffer conservation, rate and
    window bounds and trace time order of a run; an empty list when all hold.

    The run's outcome counts are read off its packet log, so the partition
    is checked against state the log does not derive from: the packets the
    nodes generated, and the buffers that hold every packet still in flight.
    Every node must end with r_min <= R <= R_max <= r_cap and
    w_min <= W <= w_max, and every HCCC trace row must show R and W in the
    same bounds and come no later than its node's death.
    """
    errors = []
    generated = sum(node.gen_seq for node in result.nodes)
    if not generated == result.generated == len(result.records):
        errors.append("outcome partition: nodes generated %d, result %d, "
                      "log rows %d" % (generated, result.generated,
                                       len(result.records)))
    held = {pkt for node in result.nodes for pkt in node.cc.buffer}
    in_flight = OUTCOME_CODE[IN_FLIGHT]
    unheld = [pkt for pkt, code in enumerate(result.records.outcome)
              if code == in_flight and pkt not in held]
    if unheld:
        errors.append("outcome partition: %d in-flight rows in no buffer, "
                      "first %d" % (len(unheld), unheld[0]))
    cfg = result.config
    consumed = result.energy_initial_nj - result.energy_remaining_nj
    expected = (joules_to_nj(cfg.energy_per_packet) * result.data_attempts
                + joules_to_nj(cfg.energy_control) * result.ctrl_attempts)
    if consumed != expected:
        errors.append("energy identity: consumed %d nJ, expected %d nJ"
                      % (consumed, expected))
    for node in result.nodes:
        if node.admitted - node.removed != len(node.cc.buffer):
            errors.append("buffer conservation at node %d: admitted %d - "
                          "removed %d != %d buffered" % (
                              node.id, node.admitted, node.removed,
                              len(node.cc.buffer)))
        cc = node.cc
        if not (cfg.r_min <= cc.R <= cc.R_max <= cfg.r_cap
                and cfg.w_min <= node.w <= cfg.w_max):
            errors.append("bounds at node %d: R %r, R_max %r, W %r" % (
                node.id, cc.R, cc.R_max, node.w))
    for t, node, _, _, rate, window, event in result.hccc_trace:
        if not (cfg.r_min <= rate <= cfg.r_cap
                and cfg.w_min <= window <= cfg.w_max):
            errors.append("bounds in the HCCC trace: node %d at t=%d (%s): "
                          "R %r, W %r" % (node, t, event, rate, window))
        death = result.nodes[node].death_time
        if death is not None and t > death:
            errors.append("HCCC trace row of node %d at t=%d (%s) after its "
                          "death at t=%d" % (node, t, event, death))
    for name, trace in (("MAC", result.mac_trace),
                        ("HCCC", result.hccc_trace)):
        back = [i for i in range(1, len(trace))
                if trace[i][0] < trace[i - 1][0]]
        if back:
            errors.append("%s trace time goes back at %d rows, first row %d"
                          % (name, len(back), back[0]))
    return errors
