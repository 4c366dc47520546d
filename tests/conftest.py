"""Shared fixture builders for the test suite."""

from hcccsim.config import ScenarioConfig, validate
from hcccsim.topology import NodeSpec, Topology, build_adjacency, compute_routes


def make_topology(positions, roles, radius=30.0):
    """Hand-built topology; node 0 must be the sink."""
    nodes = [NodeSpec(i, x, y, roles[i]) for i, (x, y) in enumerate(positions)]
    adjacency = build_adjacency(nodes, radius)
    next_hop, hop_count = compute_routes(adjacency, 0)
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


def small_cfg(**overrides):
    base = dict(node_count=3, source_count=2, duration=2.0, warmup=0.0,
                scheme="none", offered_load=0.0, access_jitter_us=0,
                energy_per_packet=0.0)
    base.update(overrides)
    return validate(ScenarioConfig(**base))


def inject_packet(sim, node):
    """Hand a packet straight to a node's buffer and kick off channel access.

    Used with offered_load=0 scenarios to control send timing exactly.
    """
    pkt = sim._new_packet(node)
    node.cc.buffer.append(pkt)
    node.admitted += 1
    sim._start_access(node)
    return pkt
