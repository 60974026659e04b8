"""Finite metric graphs with rational edge lengths and a boundary vertex set.

Points live either at vertices or strictly inside edges (offset measured
from the edge's u endpoint).  All coordinates are exact rationals, so
every metric computation below is an exact equality test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .rational import format_rational, parse_rational


class GraphError(ValueError):
    """Structural error: a point or direction does not fit the graph."""


@dataclass(frozen=True)
class Vertex:
    id: str

    def __repr__(self):
        return f"Vertex({self.id})"


@dataclass(frozen=True)
class EdgePoint:
    """Point strictly inside an edge; offset measured from endpoint u."""

    edge: str
    offset: Fraction

    def __repr__(self):
        return f"EdgePoint({self.edge}@{self.offset})"


GraphPoint = Union[Vertex, EdgePoint]


@dataclass(frozen=True)
class TangentDirection:
    """Direction at a base point along an edge.

    toward_v is True when the direction points in increasing-offset sense
    (toward the edge's v endpoint); this disambiguates self-loops.
    """

    base: GraphPoint
    edge: str
    toward_v: bool


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    length: Fraction


def point_sort_key(p: GraphPoint):
    if isinstance(p, Vertex):
        return (0, p.id, Fraction(0))
    return (1, p.edge, p.offset)


class MetricGraph:
    """Immutable finite metric graph.

    Vertex ids are opaque strings; deterministic iteration order is the
    lexicographic order of ids (edge order likewise by edge id).
    """

    def __init__(self, vertices: Iterable[str], edges, boundary: Iterable[str],
                 allow_loops: bool = False, allow_parallel: bool = False,
                 check: bool = True):
        self.vertices = tuple(sorted(vertices))
        norm_edges = []
        for i, e in enumerate(edges):
            if isinstance(e, Edge):
                norm_edges.append(e)
            else:
                # (u, v, length) or (u, v, length, id)
                if len(e) == 3:
                    u, v, length = e
                    eid = f"e{i}"
                else:
                    u, v, length, eid = e
                norm_edges.append(Edge(eid, u, v, Fraction(length)))
        self.edges = tuple(sorted(norm_edges, key=lambda e: e.id))
        self.boundary = frozenset(boundary)
        self.allow_loops = allow_loops
        self.allow_parallel = allow_parallel
        self._by_id = {}
        # vertex id -> (edge, toward_v) per edge end, in edge-id order;
        # ends at non-vertices are left out (validate reports them)
        self._incident = ends = {v: [] for v in self.vertices}
        for e in self.edges:
            self._by_id.setdefault(e.id, e)
            if e.u in ends:
                ends[e.u].append((e, True))
            if e.v in ends:
                ends[e.v].append((e, False))
        if check:
            violations = self.validate()
            if violations:
                raise GraphError("; ".join(violations))

    # -- structure ---------------------------------------------------------

    def validate(self) -> list[str]:
        out = []
        vs = set(self.vertices)
        if len(self.vertices) != len(vs):
            out.append("duplicate vertex ids")
        seen_ids = set()
        seen_pairs = set()
        for e in self.edges:
            if e.id in seen_ids:
                out.append(f"duplicate edge id {e.id}")
            seen_ids.add(e.id)
            if e.length <= 0:
                out.append(f"edge {e.id}: non-positive length {e.length}")
            if e.u not in vs or e.v not in vs:
                out.append(f"edge {e.id}: endpoint not a vertex")
            if e.u == e.v and not self.allow_loops:
                out.append(f"edge {e.id}: self-loop not allowed")
            pair = frozenset((e.u, e.v))
            if pair in seen_pairs and not self.allow_parallel:
                out.append(f"edge {e.id}: parallel edge not allowed")
            seen_pairs.add(pair)
        if not self.boundary <= vs:
            out.append("boundary not a subset of vertices")
        return out

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None

    def incident_ends(self, vertex_id: str) -> list[tuple[Edge, bool]]:
        """(edge, toward_v) for every edge end at the vertex.

        toward_v is the orientation of the outgoing direction at that end,
        so loops contribute two distinct ends at the same vertex.
        """
        return list(self._incident.get(vertex_id, ()))

    def degree(self, vertex_id: str) -> int:
        return len(self._incident.get(vertex_id, ()))

    def contains_point(self, p: GraphPoint) -> bool:
        if isinstance(p, Vertex):
            return p.id in self._incident
        if p.edge not in self._by_id:
            return False
        return 0 < p.offset < self._by_id[p.edge].length

    def require_point(self, p: GraphPoint):
        if not self.contains_point(p):
            raise GraphError(f"point {p!r} is not on the graph")

    def normalize_point(self, p: GraphPoint) -> GraphPoint:
        """Canonical form: edge offsets 0 / length become the endpoint
        vertex; interior points and vertices pass through unchanged."""
        if isinstance(p, EdgePoint) and p.edge in self._by_id:
            e = self._by_id[p.edge]
            if p.offset == 0:
                return Vertex(e.u)
            if p.offset == e.length:
                return Vertex(e.v)
        self.require_point(p)
        return p

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    # -- operations --------------------------------------------------------

    def star(self, p: GraphPoint) -> list[TangentDirection]:
        """All tangent directions at p: per incident edge-end at a vertex,
        exactly two at an edge-interior point."""
        self.require_point(p)
        if isinstance(p, Vertex):
            return [TangentDirection(p, e.id, tv)
                    for e, tv in self._incident[p.id]]
        return [TangentDirection(p, p.edge, True),
                TangentDirection(p, p.edge, False)]

    def subdivide(self, p: GraphPoint) -> tuple["MetricGraph", str]:
        """Promote an edge-interior point to a vertex; lengths on the two
        new edges sum to the original."""
        if isinstance(p, Vertex):
            raise GraphError("subdivide: point is already a vertex")
        self.require_point(p)
        e = self.edge(p.edge)
        new_v = f"{e.id}@{p.offset}"
        if new_v in self._incident:
            raise GraphError(f"subdivide: vertex id collision on {new_v}")
        new_edges = [x for x in self.edges if x.id != e.id]
        new_edges.append(Edge(f"{e.id}.l", e.u, new_v, p.offset))
        new_edges.append(Edge(f"{e.id}.r", new_v, e.v, e.length - p.offset))
        g = MetricGraph(list(self.vertices) + [new_v], new_edges, self.boundary,
                        allow_loops=self.allow_loops, allow_parallel=True)
        return g, new_v

    def distance(self, p: GraphPoint, q: GraphPoint) -> Fraction:
        """Exact path metric (Dijkstra over rationals)."""
        self.require_point(p)
        self.require_point(q)

        def anchors(pt):
            # (vertex id, distance from pt to that vertex)
            if isinstance(pt, Vertex):
                return [(pt.id, Fraction(0))]
            e = self.edge(pt.edge)
            return [(e.u, pt.offset), (e.v, e.length - pt.offset)]

        # same-edge shortcut (also needed for multi-kink exactness)
        best = None
        if isinstance(p, EdgePoint) and isinstance(q, EdgePoint) and p.edge == q.edge:
            best = abs(p.offset - q.offset)

        dist = {v: None for v in self.vertices}
        import heapq
        heap = []
        for v, d in anchors(p):
            heapq.heappush(heap, (d, v))
        while heap:
            d, v = heapq.heappop(heap)
            if dist[v] is not None and dist[v] <= d:
                continue
            dist[v] = d
            for e, tv in self._incident[v]:
                w = e.v if tv else e.u
                nd = d + e.length
                if dist[w] is None or nd < dist[w]:
                    heapq.heappush(heap, (nd, w))
        for v, d in anchors(q):
            if dist[v] is not None:
                cand = dist[v] + d
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise GraphError("points lie in different components")
        return best

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"u": e.u, "v": e.v, "len": format_rational(e.length),
                       "id": e.id} for e in self.edges],
            "boundary": sorted(self.boundary),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict, allow_loops=False, allow_parallel=False) -> "MetricGraph":
        edges = []
        for i, e in enumerate(d.get("edges", [])):
            eid = e.get("id", f"e{i}")
            edges.append(Edge(eid, e["u"], e["v"], parse_rational(e["len"])))
        return cls(d.get("vertices", []), edges, d.get("boundary", []),
                   allow_loops=allow_loops, allow_parallel=allow_parallel)

    @classmethod
    def from_json(cls, s: str, **kw) -> "MetricGraph":
        return cls.from_json_dict(json.loads(s), **kw)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MetricGraph)
                and self.vertices == other.vertices
                and self.edges == other.edges
                and self.boundary == other.boundary)

    def __hash__(self):
        return hash((self.vertices, self.edges, self.boundary))

    def __repr__(self):
        return (f"MetricGraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, boundary={sorted(self.boundary)})")


def point_to_json(p: GraphPoint) -> dict:
    if isinstance(p, Vertex):
        return {"vertex": p.id}
    return {"edge": p.edge, "offset": format_rational(p.offset)}


def point_from_json(d: dict) -> GraphPoint:
    if "vertex" in d:
        return Vertex(d["vertex"])
    return EdgePoint(d["edge"], parse_rational(d["offset"]))
