"""Placement, unit-disk adjacency and BFS routing."""

import hashlib
import random
import sys

import networkx as nx
import pytest

from hcccsim.config import ScenarioConfig, validate
from hcccsim.engine import RandomStream
from hcccsim.topology import (NodeSpec, Topology, TopologyError, build_adjacency,
                              build_topology, compute_routes, place_random)

from conftest import make_topology, unreachable_source_topology


def test_place_random_bounds_and_roles():
    nodes = place_random(100, 100.0, 20, RandomStream(1, 0))
    assert len(nodes) == 100
    assert all(0.0 <= n.x <= 100.0 and 0.0 <= n.y <= 100.0 for n in nodes)
    assert nodes[0].role == "sink"
    assert sum(1 for n in nodes if n.role == "source") == 20
    assert all(n.role == "source" for n in nodes[1:21])
    assert all(n.role == "relay" for n in nodes[21:])


def test_place_random_minimal_network():
    nodes = place_random(2, 1.0, 1, RandomStream(1, 0))
    assert [n.role for n in nodes] == ["sink", "source"]


def test_place_random_determinism():
    a = place_random(50, 100.0, 10, RandomStream(7, 0))
    b = place_random(50, 100.0, 10, RandomStream(7, 0))
    assert [(n.x, n.y) for n in a] == [(n.x, n.y) for n in b]


def test_place_random_errors():
    with pytest.raises(TopologyError):
        place_random(1, 100.0, 1, RandomStream(1, 0))
    with pytest.raises(TopologyError):
        place_random(10, 100.0, 10, RandomStream(1, 0))
    with pytest.raises(TopologyError):
        place_random(10, 0.0, 2, RandomStream(1, 0))


def test_adjacency_boundary_inclusive():
    near = [NodeSpec(0, 0.0, 0.0, "sink"), NodeSpec(1, 30.0, 0.0, "source")]
    assert build_adjacency(near, 30.0)[0] == [1]
    far = [NodeSpec(0, 0.0, 0.0, "sink"), NodeSpec(1, 30.01, 0.0, "source")]
    assert build_adjacency(far, 30.0)[0] == []


def test_adjacency_symmetric_no_self_loops():
    nodes = place_random(100, 100.0, 20, RandomStream(3, 0))
    adj = build_adjacency(nodes, 30.0)
    for i, neigh in enumerate(adj):
        assert i not in neigh
        for j in neigh:
            assert i in adj[j]


def all_pairs_adjacency(nodes, radius):
    """Reference for build_adjacency: every pair compared, lower id first."""
    r2 = radius * radius
    adjacency = [[] for _ in nodes]
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            dx = nodes[j].x - a.x
            dy = nodes[j].y - a.y
            if dx * dx + dy * dy <= r2:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return adjacency


def _specs(points):
    return [NodeSpec(i, x, y, "sink" if i == 0 else "relay")
            for i, (x, y) in enumerate(points)]


def _check_against_reference(nodes, radius):
    adj = build_adjacency(nodes, radius)
    assert adj == all_pairs_adjacency(nodes, radius)
    for neigh in adj:
        assert all(a < b for a, b in zip(neigh, neigh[1:]))
    return adj


def test_adjacency_matches_all_pairs_on_seeded_layouts():
    # 2-300 nodes (log-uniform), sides 1-1000, radii 0.001x-10x the side, and
    # the field's corner anywhere from -side to 0 so coordinates go negative.
    rng = random.Random(20261018)
    for _ in range(250):
        n = int(2 * 150 ** rng.random())
        side = 10 ** rng.uniform(0, 3)
        radius = side * 10 ** rng.uniform(-3, 1)
        ox, oy = -side * rng.random(), -side * rng.random()
        points = [(ox + side * rng.random(), oy + side * rng.random())
                  for _ in range(n)]
        _check_against_reference(_specs(points), radius)


def test_adjacency_pairs_exactly_radius_apart_across_cell_edges():
    # Every pair below is exactly the radius apart (3-4-5 triangles are exact
    # in binary) and its two nodes sit in different radius-sized cells.
    cases = [
        (30.0, [(29.0, 5.0), (59.0, 5.0)]),            # across an x edge
        (30.0, [(5.0, 29.0), (5.0, 59.0)]),            # across a y edge
        (30.0, [(20.0, 20.0), (38.0, 44.0)]),          # diagonal, 18-24-30
        (5.0, [(4.5, 4.5), (7.5, 8.5)]),               # diagonal, 3-4-5
        (5.0, [(7.5, 8.5), (4.5, 4.5)]),               # same, higher id first
    ]
    for radius, points in cases:
        assert _check_against_reference(_specs(points), radius) == [[1], [0]]
    just_out = _specs([(29.0, 5.0), (59.000001, 5.0)])
    assert _check_against_reference(just_out, 30.0) == [[], []]


def test_adjacency_negative_coordinates():
    points = [(-15.0, -15.0), (15.0, -15.0), (-15.0, 15.0), (-45.0, -15.0),
              (-75.0001, -15.0), (-3.0, -4.0)]
    adj = _check_against_reference(_specs(points), 30.0)
    assert adj[0] == [1, 2, 3, 5]
    assert adj[4] == []


def test_adjacency_coincident_nodes():
    points = [(10.0, 10.0), (10.0, 10.0), (50.0, 50.0), (10.0, 10.0)]
    adj = _check_against_reference(_specs(points), 1.0)
    assert adj == [[1, 3], [0, 3], [], [0, 1]]


def test_adjacency_field_within_one_cell():
    points = [(0.1 * i, 0.05 * i * i) for i in range(12)]
    adj = _check_against_reference(_specs(points), 100.0)
    assert adj == [[j for j in range(12) if j != i] for i in range(12)]


def test_adjacency_sparse_field_with_empty_cells():
    points = [(0.0, 0.0), (500.0, 500.0), (10.0, 0.0), (1000.0, -1000.0),
              (510.0, 500.0), (-900.0, 700.0)]
    adj = _check_against_reference(_specs(points), 30.0)
    assert adj == [[2], [4], [0], [], [1], []]


# The aimd_lossy_large benchmark field: build_topology at placement seed 1.
# Digests of repr(list(adjacency)), which reads as the neighbour lists did
# before they were held in flat arrays, and repr((next_hop, hop_count)).
LARGE_FIELD_ADJACENCY_SHA256 = (
    "518921cda3c760d492325d469d83aa0ba3f1ee828e355a1e59fda638b9565d89")
LARGE_FIELD_ROUTES_SHA256 = (
    "067848bc85b8f776f429188331ba0a293f4ccd71b9a6af58caa34a6852a3ac38")


def test_large_field_adjacency_and_routes_pinned():
    cfg = validate(ScenarioConfig(node_count=1600, area_side=400.0,
                                  radius=30.0, source_count=320))
    topo = build_topology(cfg, RandomStream(1, 0))
    assert sum(len(neigh) for neigh in topo.adjacency) == 2 * 21380
    assert (hashlib.sha256(repr(list(topo.adjacency)).encode()).hexdigest()
            == LARGE_FIELD_ADJACENCY_SHA256)
    assert (hashlib.sha256(repr((topo.next_hop, topo.hop_count)).encode())
            .hexdigest() == LARGE_FIELD_ROUTES_SHA256)


# Topology.write_csv of the default field and of the aimd_lossy_large field,
# both placed with RandomStream(1, 0).
DEFAULT_FIELD_CSV_SHA256 = (
    "c2607f1733fa0b4cba5fd488f56b8d5587af1946b07eb1a1964648e96a78f706")
LARGE_FIELD_CSV_SHA256 = (
    "242522b2cefded5a8bbe24845d0f84bd193fde001eb21bdf5285baecc7ff3cee")


@pytest.mark.parametrize("overrides, expected", [
    ({}, DEFAULT_FIELD_CSV_SHA256),
    (dict(node_count=1600, area_side=400.0, radius=30.0, source_count=320),
     LARGE_FIELD_CSV_SHA256),
])
def test_topology_csv_pinned(tmp_path, overrides, expected):
    topo = build_topology(validate(ScenarioConfig(**overrides)), RandomStream(1, 0))
    path = tmp_path / "topology.csv"
    topo.write_csv(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


def held_bytes(obj):
    """sys.getsizeof of obj and of every object it holds: the items of a
    list or tuple and the values of its slots."""
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        return size + sum(held_bytes(item) for item in obj)
    return size + sum(held_bytes(getattr(obj, name))
                      for name in getattr(type(obj), "__slots__", ()))


def neighbour_fields():
    """(nodes, radius) of the default field, the aimd_lossy_large field and
    40 seeded random fields of 2-400 nodes, some sparse enough to leave
    nodes with no neighbour."""
    for overrides in ({}, dict(node_count=1600, area_side=400.0, source_count=320)):
        cfg = validate(ScenarioConfig(**overrides))
        yield (place_random(cfg.node_count, cfg.area_side, cfg.source_count,
                            RandomStream(1, 0)), cfg.radius)
    rng = random.Random(20261021)
    for seed in range(40):
        n = rng.randint(2, 400)
        side = rng.uniform(10.0, 400.0)
        yield (place_random(n, side, 1, RandomStream(seed, 0)),
               side * rng.uniform(0.01, 0.5))


def test_neighbour_rows_read_back_as_the_lists():
    for nodes, radius in neighbour_fields():
        rows = build_adjacency(nodes, radius)
        store = Topology(nodes, rows, *compute_routes(rows)).adjacency
        assert len(store) == len(nodes)
        assert list(store) == rows
        assert [store[i] for i in range(len(nodes))] == rows
        # 4 B an entry and a row start, the 1/16 spare that an array grown
        # by appends may hold, and a fixed overhead.  A list of lists takes
        # an 8 B slot an entry and a list object a node.
        entries = sum(map(len, rows))
        bound = 4 * entries + 4 * len(nodes) + entries // 4 + 256
        assert held_bytes(store) <= bound, (len(nodes), entries)


def test_isolated_node_row_is_empty():
    topo = unreachable_source_topology()
    assert list(topo.adjacency) == [[1], [0], []]
    assert topo.adjacency[2] == [] and topo.hop_count[2] is None


def test_routes_line_topology():
    # 2 -- 1 -- 0(sink), spacing 25m, radius 30
    topo = make_topology([(0.0, 0.0), (25.0, 0.0), (50.0, 0.0)],
                         ["sink", "relay", "source"])
    assert topo.hop_count == [0, 1, 2]
    assert topo.next_hop == [None, 0, 1]


def test_routes_tie_break_lowest_id():
    # node 3 is adjacent to both 1 and 2 at hop 1; expect next hop 1
    topo = make_topology([(0.0, 0.0), (20.0, 10.0), (20.0, -10.0), (40.0, 0.0)],
                         ["sink", "relay", "relay", "source"])
    assert topo.hop_count[3] == 2
    assert topo.next_hop[3] == 1


def test_routes_tie_break_after_a_level_found_out_of_id_order():
    # Hop 1 is [1, 2]; 1 finds 5 before 2 finds 3, so hop 2 is found as
    # [5, 3].  Node 4 neighbours both 3 and 5 and must route through 3: a
    # search that visited hop 2 in the order found would pick 5.
    adjacency = [[1, 2], [0, 5], [0, 3], [2, 4], [3, 5], [1, 4]]
    next_hop, hop_count = compute_routes(adjacency)
    assert hop_count == [0, 1, 1, 2, 3, 2]
    assert next_hop == [None, 0, 0, 2, 3, 1]


def test_routes_against_independent_bfs():
    nodes = place_random(100, 100.0, 20, RandomStream(11, 0))
    adj = build_adjacency(nodes, 30.0)
    next_hop, hop_count = compute_routes(adj)
    g = nx.Graph()
    g.add_nodes_from(range(100))
    for i, neigh in enumerate(adj):
        for j in neigh:
            g.add_edge(i, j)
    dist = nx.single_source_shortest_path_length(g, 0)
    for i in range(100):
        assert hop_count[i] == dist.get(i)
    # Following next hops reaches the sink in exactly hop_count steps.
    for i in range(100):
        if hop_count[i] is None or i == 0:
            assert next_hop[i] is None
            continue
        steps = 0
        cur = i
        while cur != 0:
            cur = next_hop[cur]
            steps += 1
            assert steps <= 100
        assert steps == hop_count[i]


def test_disconnected_exclude_policy():
    cfg = validate(ScenarioConfig(node_count=40, radius=5.0, source_count=10))
    topo = build_topology(cfg, RandomStream(cfg.seed, 0))
    assert any(topo.hop_count[i] is None for i in range(40))


def test_topology_csv_dump(tmp_path):
    topo = make_topology([(0.0, 0.0), (25.0, 0.0), (50.0, 0.0)],
                         ["sink", "relay", "source"])
    path = tmp_path / "topo.csv"
    topo.write_csv(str(path))
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("record,")
    assert sum(1 for l in lines if l.startswith("node,")) == 3
    assert "edge,0,1" in text and "edge,1,2" in text
    assert "edge,0,2" not in text
