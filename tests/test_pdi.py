import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from platoonreorg import config
from platoonreorg.pdi import (
    BLOCKED,
    END,
    FREE,
    START,
    PdiError,
    RoadNode,
    RoadNodeGraph,
    adjacent,
    build_node_graph,
    compute_pdi,
    equivalence_distance,
    infeasible_sentinel,
)
from platoonreorg.scenarios import build_scenario, case1_spec, case2_spec
from platoonreorg.world import RoadMap, VehicleState

P = config.DEFAULTS.pdi


def node(nid, lane, x, status=FREE, role="interior"):
    return RoadNode(id=nid, lane=lane, x=x, y=lane * 4.0, status=status, role=role)


def graph_of(nodes, start, end):
    """Graph over every adjacent pair of unblocked nodes (ids are list indices)."""
    edges = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if a.status == BLOCKED or b.status == BLOCKED:
                continue
            if adjacent(a, b, P):
                edges.append((a.id, b.id, equivalence_distance(a, b, P)))
    return RoadNodeGraph(nodes=nodes, edges=edges, start=start, end=end)


def chain_graph(xs, lane=0, blocked=(), start=0, end=None):
    nodes = [node(i, lane, x) for i, x in enumerate(xs)]
    for b in blocked:
        nodes[b].status = BLOCKED
    end = len(xs) - 1 if end is None else end
    nodes[start].role = START
    nodes[end].role = END
    return graph_of(nodes, start, end)


def random_node_graph(rng):
    """Synthetic graph: 2-4 lanes, nodes at random legal spacings, a random
    share of blocked nodes, start/end on free nodes."""
    lane_count = int(rng.integers(2, 5))
    n_nodes = int(rng.integers(5, 41))
    blocked_frac = float(rng.uniform(0.0, 0.3))

    nodes = []
    lane_x = {lane: float(rng.uniform(0.0, 10.0)) for lane in range(lane_count)}
    for _ in range(n_nodes):
        lane = int(rng.integers(0, lane_count))
        lane_x[lane] += float(rng.uniform(P.d_node_min, P.d_node_max - 1e-6))
        nodes.append(RoadNode(id=len(nodes), lane=lane, x=lane_x[lane],
                              y=lane * config.LANE_WIDTH, status=FREE))
    n_blocked = int(blocked_frac * len(nodes))
    blocked_ids = rng.choice(len(nodes), size=n_blocked, replace=False) if n_blocked else []
    for nid in blocked_ids:
        nodes[nid].status = BLOCKED
    free_ids = [n.id for n in nodes if n.status == FREE]
    if len(free_ids) < 2:
        nodes[0].status = FREE
        nodes[1].status = FREE
        free_ids = [0, 1]
    start, end = rng.choice(free_ids, size=2, replace=False)
    nodes[int(start)].role = START
    nodes[int(end)].role = END
    return graph_of(nodes, int(start), int(end))


def scene_graphs(spec, seeds, rng, per_world=3):
    """Node graphs of scenario worlds with the platoon scattered over the
    lanes and stretched out, as it is mid-reorganization."""
    for seed in seeds:
        world = build_scenario(spec, seed)
        road = world.road
        head = world.members[0].state.x
        for _ in range(per_world):
            plat = []
            for m in world.members:
                lane = int(rng.integers(0, road.lane_count))
                x = head - m.index * float(rng.uniform(8.0, 45.0))
                plat.append(VehicleState(id=m.index, kind="CAV", x=x,
                                         y=road.lane_center(lane), speed=m.state.speed,
                                         lane=lane, target_lane=lane))
            yield build_node_graph(road, plat, [d.state for d in world.hdvs], P)


def lp_oracle(graph):
    """The paper's 0-1 shortest-path program, solved as one LP relaxation.

    One flow variable per directed arc, bounded to [0, 1]; each node row of
    the node-arc incidence matrix balances outflow minus inflow to +1 at the
    start, -1 at the end, 0 elsewhere.  That matrix is totally unimodular,
    so a basic optimum is integral and no branching is needed.  Returns
    (optimum, arc flows), with optimum None when the end is unreachable.
    """
    arcs = graph.edges + [(j, i, w) for i, j, w in graph.edges]
    if graph.start == graph.end:
        return 0.0, np.zeros(len(arcs))
    if not arcs:
        return None, np.zeros(0)
    a_eq = np.zeros((len(graph.nodes), len(arcs)))
    for k, (i, j, _) in enumerate(arcs):
        a_eq[i, k] = 1.0
        a_eq[j, k] = -1.0
    b_eq = np.zeros(len(graph.nodes))
    b_eq[graph.start] = 1.0
    b_eq[graph.end] = -1.0
    res = linprog([w for _, _, w in arcs], A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0),
                  method="highs")
    if res.status == 2:
        return None, np.zeros(len(arcs))
    assert res.status == 0, res.message
    return res.fun, res.x


def assert_matches_oracle(graph):
    res = compute_pdi(graph)
    optimum, flows = lp_oracle(graph)
    assert res.infeasible == (optimum is None)
    assert np.all(np.abs(flows - np.round(flows)) <= 1e-6)
    if optimum is None:
        assert res.value == infeasible_sentinel(graph)
    else:
        assert res.value == pytest.approx(optimum, abs=1e-9)
    return res


class TestEquivalenceDistance:
    def test_same_lane(self):
        a, b = node(0, 0, 0.0), node(1, 0, 15.0)
        assert equivalence_distance(a, b, P) == pytest.approx(0.75)

    def test_adjacent_lane(self):
        a, b = node(0, 0, 0.0), node(1, 1, 15.0)
        expected = math.sqrt(15.0 ** 2 + 4.0 ** 2) / 20.0 + 10.0
        assert equivalence_distance(a, b, P) == pytest.approx(expected)
        assert expected == pytest.approx(10.776, abs=1e-3)

    def test_coincident_degenerate(self):
        a, b = node(0, 0, 5.0), node(1, 0, 5.0)
        assert equivalence_distance(a, b, P) == 0.0

    def test_non_adjacent_rejected(self):
        a, b = node(0, 0, 0.0), node(1, 0, 25.0)
        with pytest.raises(PdiError):
            equivalence_distance(a, b, P)
        c = node(2, 2, 5.0)
        with pytest.raises(PdiError):
            equivalence_distance(a, c, P)


class TestComputePdi:
    def test_start_equals_end(self):
        g = chain_graph([0.0, 15.0], start=0, end=0)
        assert assert_matches_oracle(g).value == 0.0

    def test_collinear_chain(self):
        g = chain_graph([0.0, 15.0, 30.0, 45.0, 60.0])
        res = assert_matches_oracle(g)
        assert res.value == pytest.approx(3.0, abs=1e-9)
        assert res.path == [0, 1, 2, 3, 4]

    def test_single_edge(self):
        g = chain_graph([0.0, 12.0])
        res = assert_matches_oracle(g)
        assert res.value == pytest.approx(12.0 / 20.0)

    def test_blocked_detour_matches_oracle(self):
        # two lanes; middle of lane 0 blocked, lane 1 free at same spacing
        xs = [0.0, 15.0, 30.0, 45.0, 60.0]
        nodes = [node(i, 0, x) for i, x in enumerate(xs)]
        nodes += [node(5 + j, 1, x) for j, x in enumerate(xs)]
        nodes[2].status = BLOCKED
        nodes[0].role = START
        nodes[4].role = END
        res = assert_matches_oracle(graph_of(nodes, 0, 4))
        assert not res.infeasible
        assert res.value > 20.0  # two lane changes dominate
        assert 2 not in res.path

    def test_fully_blocked_single_lane(self):
        g = chain_graph([0.0, 15.0, 30.0], blocked=(1,))
        res = assert_matches_oracle(g)
        assert res.infeasible and res.path == []

    def test_blockage_never_decreases(self):
        xs = [0.0, 14.0, 28.0, 42.0, 56.0]
        nodes0 = chain_graph(xs)
        base = compute_pdi(nodes0).value
        g2 = chain_graph(xs, blocked=(2,))
        assert compute_pdi(g2).value >= base - 1e-12


class TestOracleEquivalence:
    def test_random_graphs_small(self):
        rng = np.random.default_rng(2024)
        for _ in range(240):
            assert_matches_oracle(random_node_graph(rng))

    def test_scenario_scene_graphs(self):
        rng = np.random.default_rng(7)
        graphs = [*scene_graphs(case1_spec(), range(20), rng),
                  *scene_graphs(case2_spec(), range(20), rng),
                  *scene_graphs(case2_spec(density=14.0), range(20, 30), rng)]
        assert len(graphs) == 150
        infeasible = sum(assert_matches_oracle(g).infeasible for g in graphs)
        assert infeasible < len(graphs)


class TestConfigValidation:
    @pytest.mark.parametrize("spacing", [9.99, 20.0, 25.0])
    def test_node_spacing_outside_range(self, spacing):
        with pytest.raises(ValueError):
            replace(config.DEFAULTS.pdi, node_spacing=spacing)

    def test_node_spacing_lower_bound_accepted(self):
        assert replace(config.DEFAULTS.pdi, node_spacing=10.0).node_spacing == 10.0


class TestBuildNodeGraph:
    def setup_method(self):
        self.road = RoadMap(lane_count=3, length=1000.0)

    def platoon(self, xs, lane=1):
        return [VehicleState(id=i, kind="CAV", x=x, y=4.0, speed=25.0,
                             lane=lane, target_lane=lane)
                for i, x in enumerate(xs)]

    def test_compact_platoon_roles(self):
        plat = self.platoon([120.0, 110.0, 100.0])
        g = build_node_graph(self.road, plat, [], P)
        start, end = g.nodes[g.start], g.nodes[g.end]
        assert start.role == START and end.role == END
        assert start.x > end.x
        assert all(n.status != BLOCKED for n in g.nodes)
        res = compute_pdi(g)
        # spacing 10 m, two hops in-lane
        assert res.value == pytest.approx(2 * 10.0 / 20.0, abs=1e-9)

    def test_background_blocks(self):
        plat = self.platoon([140.0, 100.0])
        bg = [VehicleState(id=99, kind="HDV", x=120.0, y=4.0, speed=20.0,
                           lane=1, target_lane=1)]
        g = build_node_graph(self.road, plat, bg, P)
        blocked = [n for n in g.nodes if n.status == BLOCKED]
        assert len(blocked) == 1
        assert blocked[0].lane == 1
        res = compute_pdi(g)
        assert not res.infeasible  # detour through lanes 0/2
        assert res.value > 20.0

    def test_ramp_shoulder_blocks_nothing(self):
        # case 1 queues ramp vehicles on the shoulder, one lane width right of lane 0
        world = build_scenario(case1_spec(), 0)
        plat = [replace(m.state, x=x) for m, x in zip(world.members, (262.0, 250.0, 238.0))]
        background = [d.state for d in world.hdvs]
        edge = -0.5 * world.road.lane_width
        assert any(v.y < edge and 230.0 <= v.x <= 240.0 for v in background)
        on_road = [v for v in background if v.y >= edge]
        with_shoulder = build_node_graph(world.road, plat, background, P)
        without = build_node_graph(world.road, plat, on_road, P)
        assert with_shoulder.nodes == without.nodes

    def test_gap_tiling_spacing(self):
        plat = self.platoon([200.0, 100.0])
        g = build_node_graph(self.road, plat, [], P)
        lane1 = sorted(n.x for n in g.nodes if n.lane == 1)
        gaps = [b - a for a, b in zip(lane1, lane1[1:])]
        assert all(g_ < P.d_node_max for g_ in gaps)
        assert_matches_oracle(g)

    def test_same_lane_adjacency_rule(self):
        # 25 m apart is NOT adjacent; interleaving a free node makes both halves adjacent
        a, b = node(0, 0, 0.0), node(1, 0, 25.0)
        assert not adjacent(a, b, P)
        mid = node(2, 0, 12.5)
        assert adjacent(a, mid, P) and adjacent(mid, b, P)

    def test_rejects_off_road_platoon(self):
        plat = self.platoon([2000.0, 1990.0])
        with pytest.raises(PdiError):
            build_node_graph(self.road, plat, [], P)

    def test_rejects_empty_platoon(self):
        with pytest.raises(PdiError):
            build_node_graph(self.road, [], [], P)
