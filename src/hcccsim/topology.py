"""Node placement, unit-disk connectivity and static shortest-hop routing.

Routing is intentionally static: breadth-first shortest hop count toward the
sink, ties broken by the lowest neighbor id.  This isolates the congestion
control behaviour from routing dynamics.  The search visits one hop level at
a time in ascending id, so it sets each next hop as it goes.  Connectivity
uses the unit-disk rule with an inclusive boundary, compared on squared
distances so the result is exact.

Neighbors are found through a uniform grid of square cells slightly wider than
the radius, so a node is compared only with nodes in its own and the eight
surrounding cells rather than with every other node; coordinates are read
from two flat lists built once.  The grid changes the search, not the test:
the edges and the ascending order of every neighbor list are those of a scan
over all pairs, and the simulation iterates the lists in that order.
Adjacency is indexed by position in the node list.  A ``Topology`` keeps the
lists as ``NeighbourRows``: every row in one flat ``array("i")`` of
neighbour ids, 4 bytes an entry, plus one array of row starts, where a list
of lists takes an 8-byte slot an entry and a list object a node.  A
``NodeSpec`` has slots and no ``__dict__``: the largest field places 1,600
of them.
"""

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate


class TopologyError(Exception):
    pass


@dataclass(slots=True)
class NodeSpec:
    id: int
    x: float
    y: float
    role: str  # "sink" | "source" | "relay"


class NeighbourRows:
    """Neighbour lists in compressed sparse row form: row i is
    ``ids[starts[i]:starts[i + 1]]``.  ``len``, indexing and iteration read
    like the list of lists it was built from; each row reads back as a new
    list."""

    __slots__ = ("ids", "starts")

    def __init__(self, rows):
        ids = self.ids = array("i")
        for row in rows:
            ids.fromlist(row)
        self.starts = array("i", list(accumulate(map(len, rows), initial=0)))

    def __len__(self):
        return len(self.starts) - 1

    def __getitem__(self, i):
        # i in range(len(self)): a negative index is not supported.
        starts = self.starts
        return self.ids[starts[i]:starts[i + 1]].tolist()

    def __iter__(self):
        ids, starts = self.ids.tolist(), self.starts
        for i in range(len(starts) - 1):
            yield ids[starts[i]:starts[i + 1]]


class Topology:
    """Immutable after construction; node 0 is the sink by convention.

    ``adjacency`` takes the lists ``build_adjacency`` returns and holds them
    as ``NeighbourRows``."""

    def __init__(self, nodes, adjacency, next_hop, hop_count):
        self.nodes = nodes
        self.adjacency = NeighbourRows(adjacency)
        self.next_hop = next_hop
        self.hop_count = hop_count

    def reachable(self, node_id):
        return self.hop_count[node_id] is not None

    def write_csv(self, path):
        """Dump positions, roles, routes and edges for debugging/plotting."""
        with open(path, "w") as f:
            f.write("record,id,x,y,role,next_hop,hop_count\n")
            for spec in self.nodes:
                nh = self.next_hop[spec.id]
                hc = self.hop_count[spec.id]
                f.write("node,%d,%.10g,%.10g,%s,%s,%s\n" % (
                    spec.id, spec.x, spec.y, spec.role,
                    "" if nh is None else nh, "" if hc is None else hc))
            f.write("record,a,b,,,,\n")
            for a in range(len(self.nodes)):
                for b in self.adjacency[a]:
                    if b > a:
                        f.write("edge,%d,%d,,,,\n" % (a, b))


def place_random(n, side, source_count, stream):
    """Uniform placement of n nodes in a side x side square.

    Node 0 is the sink; the next source_count ids are sources, the rest relays.
    """
    if n < 2:
        raise TopologyError("need at least 2 nodes (sink plus one source), got %d" % n)
    if not 1 <= source_count <= n - 1:
        raise TopologyError("source_count %d out of range [1, %d]" % (source_count, n - 1))
    if side <= 0:
        raise TopologyError("region side must be positive")
    random = stream.random
    roles = ["sink"] + ["source"] * source_count + ["relay"] * (n - 1 - source_count)
    # x is drawn before y: arguments are evaluated left to right.
    return [NodeSpec(i, side * random(), side * random(), role)
            for i, role in enumerate(roles)]


def build_adjacency(nodes, radius):
    """Symmetric neighbor lists; an edge exists iff squared distance <= radius^2.

    ``adjacency[i]`` lists the positions in ``nodes`` of node i's neighbors,
    in ascending order.  The search buckets the nodes into square cells of
    side ``radius * (1 + 1e-9)``: the margin keeps float rounding from
    putting an in-range pair two cells apart, so each node is compared only
    with the higher-indexed nodes of its own cell and the eight around it.
    Nodes are visited in ascending index and each cell's candidate list is
    sorted once, so appending to both endpoints keeps every list ascending,
    exactly as a scan over all pairs would build it.
    """
    n = len(nodes)
    r2 = radius * radius
    cell_side = radius * (1.0 + 1e-9)
    xs = [spec.x for spec in nodes]
    ys = [spec.y for spec in nodes]
    home = [(math.floor(x / cell_side), math.floor(y / cell_side))
            for x, y in zip(xs, ys)]
    members = {}
    for i, cell in enumerate(home):
        members.setdefault(cell, []).append(i)
    candidates = {}
    for cx, cy in members:
        ids = []
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                ids += members.get((gx, gy), ())
        ids.sort()
        candidates[cx, cy] = ids
    adjacency = [[] for _ in range(n)]
    for i in range(n):
        xi, yi = xs[i], ys[i]
        ids = candidates[home[i]]
        for j in ids[bisect_right(ids, i):]:
            dx = xs[j] - xi
            dy = ys[j] - yi
            if dx * dx + dy * dy <= r2:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return adjacency


def compute_routes(adjacency):
    """BFS hop counts toward the sink, node 0; next hop is the lowest-id neighbor one hop closer.

    Each hop level is visited in ascending id, so the first node of level h
    to reach a node of level h + 1 is its lowest-id neighbor at level h.
    Unreachable nodes get (None, None).
    """
    n = len(adjacency)
    hop_count = [None] * n
    next_hop = [None] * n
    hop_count[0] = 0
    level, hops = [0], 0
    while level:
        hops += 1
        found = []
        for u in level:
            for v in adjacency[u]:
                if hop_count[v] is None:
                    hop_count[v] = hops
                    next_hop[v] = u
                    found.append(v)
        found.sort()
        level = found
    return next_hop, hop_count


def build_topology(config, stream):
    """Random topology per a scenario config.  A source with no route to the
    sink stays in it; the run leaves such a source out, so it generates
    nothing."""
    nodes = place_random(config.node_count, config.area_side, config.source_count, stream)
    adjacency = build_adjacency(nodes, config.radius)
    next_hop, hop_count = compute_routes(adjacency)
    return Topology(nodes, adjacency, next_hop, hop_count)
