"""Platoon disposition index on a lane-discretized node graph.

The road is reduced to nodes (one per vehicle/obstacle, free filler nodes
tiled between them), edges connect adjacent nodes, and each edge carries an
equivalence distance: normalized Euclidean length plus a lane-change
penalty.  The index is the equivalent length of the cheapest path from the
platoon's first vehicle to its last.

The paper states this as a 0-1 integer program over directed arc variables
(unit flow out of the start, into the end, conserved elsewhere).  Its
constraint matrix is a node-arc incidence matrix, which is totally
unimodular, so the LP relaxation already has an integral optimum that is a
shortest path; with nonnegative weights Dijkstra's search finds the same
optimum, and ``compute_pdi`` uses it.  ``tests/test_pdi.py`` keeps the
program as a single-LP oracle and checks integrality and equal optima.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from . import config

FREE = "free"
OCCUPIED = "occupied_by_platoon"
BLOCKED = "blocked"

START = "start"
END = "end"
INTERIOR = "interior"


class PdiError(ValueError):
    pass


@dataclass
class RoadNode:
    id: int
    lane: int
    x: float
    y: float
    status: str = FREE
    role: str = INTERIOR


@dataclass
class RoadNodeGraph:
    nodes: list
    edges: list                     # (node_id_i, node_id_j, ed_weight), undirected
    node_spacing: float
    start: int
    end: int

    def node(self, nid: int) -> RoadNode:
        return self.nodes[nid]


def adjacent(a: RoadNode, b: RoadNode, p: config.PdiConfig) -> bool:
    """Definition of node adjacency: same lane within the max spacing, or
    laterally neighboring lanes within the max spacing."""
    dx = abs(a.x - b.x)
    if a.lane == b.lane:
        return 0.0 < dx < p.d_node_max or (dx == 0.0 and a.id != b.id)
    return abs(a.lane - b.lane) == 1 and dx < p.d_node_max


def equivalence_distance(a: RoadNode, b: RoadNode, p: config.PdiConfig) -> float:
    """Edge weight: Euclidean distance over the normalizer plus the
    lane-change penalty per lane crossed."""
    if not adjacent(a, b, p):
        raise PdiError(f"nodes {a.id} and {b.id} are not adjacent")
    d = math.hypot(a.x - b.x, a.y - b.y)
    return d / p.d_norm + p.k_lane * abs(a.lane - b.lane)


def _fill_spacings(gap: float, p: config.PdiConfig):
    """Number of interior filler nodes for a same-lane gap, spacing closest
    to the preferred value while staying inside [d_node_min, d_node_max)."""
    if gap < p.d_node_max:
        return 0
    best_k, best_err = None, math.inf
    k_max = int(math.ceil(gap / p.d_node_min))
    for k in range(1, k_max + 1):
        s = gap / (k + 1)
        if p.d_node_min <= s < p.d_node_max:
            err = abs(s - p.node_spacing)
            if err < best_err:
                best_k, best_err = k, err
    if best_k is None:
        # very short leftover; a single midpoint keeps the chain connected
        best_k = max(int(math.ceil(gap / p.d_node_max)) - 1, 1)
    return best_k


def build_node_graph(road, platoon, background, p: config.PdiConfig | None = None) -> RoadNodeGraph:
    """Node map for the current scene.

    Platoon vehicles anchor pathable nodes at their rear-axle centers (the
    frontmost is the start, the rearmost the end); background vehicles and
    obstacles anchor blocked nodes at their outline centers, in the lane
    nearest their lateral position (those off the lanes, such as on the ramp
    shoulder, block nothing); remaining gaps in every lane are tiled with
    evenly spaced free nodes.
    """
    p = p or config.DEFAULTS.pdi
    if not platoon:
        raise PdiError("platoon must be non-empty")
    for v in platoon:
        if not road.contains(v.x):
            raise PdiError(f"platoon vehicle {v.id} outside the road")

    ordered = sorted(platoon, key=lambda v: -v.x)
    first, last = ordered[0], ordered[-1]
    anchors = []  # (x, lane, status, role)
    for v in ordered:
        role = START if v.id == first.id else END if v.id == last.id else INTERIOR
        anchors.append((v.x - 0.25 * v.length, v.lane, OCCUPIED, role))
    x_hi = max(a[0] for a in anchors)
    x_lo = min(a[0] for a in anchors)
    for v in background:
        lane = int(round(v.y / road.lane_width))
        if x_lo - 1.0 <= v.x <= x_hi + 1.0 and 0 <= lane < road.lane_count:
            anchors.append((v.x, lane, BLOCKED, INTERIOR))

    by_lane = {lane: [] for lane in range(road.lane_count)}
    for x, lane, status, role in anchors:
        by_lane[lane].append((x, status, role))

    status_rank = {BLOCKED: 2, OCCUPIED: 1, FREE: 0}
    nodes = []

    def add_node(x, lane, status, role):
        for n in nodes:
            if n.lane == lane and abs(n.x - x) < 1.0:
                if status_rank[status] > status_rank[n.status]:
                    n.status = status
                if role != INTERIOR:
                    n.role = role
                return n
        n = RoadNode(id=len(nodes), lane=lane, x=x, y=lane * road.lane_width,
                     status=status, role=role)
        nodes.append(n)
        return n

    for lane in range(road.lane_count):
        entries = sorted(by_lane[lane])
        xs = []
        for x, status, role in entries:
            add_node(x, lane, status, role)
            xs.append(x)
        # tile corridor ends and gaps with free nodes
        pts = sorted(set([x_lo, x_hi] + xs))
        for x in (x_lo, x_hi):
            add_node(x, lane, FREE, INTERIOR)
        for a, b in zip(pts, pts[1:]):
            gap = b - a
            k = _fill_spacings(gap, p)
            for i in range(1, k + 1):
                add_node(a + gap * i / (k + 1), lane, FREE, INTERIOR)

    start_id = next(n.id for n in nodes if n.role == START)
    end_id = next(n.id for n in nodes if n.role == END)

    edges = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if a.status == BLOCKED or b.status == BLOCKED:
                continue
            if adjacent(a, b, p):
                edges.append((a.id, b.id, equivalence_distance(a, b, p)))
    return RoadNodeGraph(nodes=nodes, edges=edges, node_spacing=p.node_spacing,
                         start=start_id, end=end_id)


@dataclass
class PdiResult:
    value: float
    infeasible: bool = False
    path: list = field(default_factory=list)   # node ids start..end


def infeasible_sentinel(graph: RoadNodeGraph) -> float:
    """Finite stand-in for an unreachable end: a fixed multiple of the summed
    edge weights, so it exceeds the value of every start-to-end path."""
    total = sum(w for _, _, w in graph.edges)
    return config.DEFAULTS.pdi.infeasible_factor * max(total, 1.0)


def compute_pdi(graph: RoadNodeGraph) -> PdiResult:
    """Equivalent length of the cheapest start-to-end path, by label-setting
    (Dijkstra) search over the undirected, nonnegatively weighted edges.

    Blocked nodes carry no edges, so they are never on a path.  An
    unreachable end yields the infeasible sentinel so game-layer callers keep
    a finite comparable value.  The path value is summed from the start in
    traversal order.
    """
    if graph.start == graph.end:
        return PdiResult(value=0.0, path=[graph.start])
    adj = {}
    for i, j, w in graph.edges:
        adj.setdefault(i, []).append((j, w))
        adj.setdefault(j, []).append((i, w))
    dist = {graph.start: 0.0}
    prev = {}
    heap = [(0.0, graph.start)]
    seen = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        if u == graph.end:
            break
        for v, w in adj.get(u, ()):
            nd = d + w
            if v not in dist or nd < dist[v] - 1e-15:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if graph.end not in seen:
        return PdiResult(value=infeasible_sentinel(graph), infeasible=True)
    path = [graph.end]
    while path[-1] != graph.start:
        path.append(prev[path[-1]])
    path.reverse()
    return PdiResult(value=dist[graph.end], path=path)
