"""Finite metric graphs with rational edge lengths and a boundary vertex set.

Points live either at vertices or strictly inside edges (offset measured
from the edge's u endpoint).  All coordinates are exact rationals, so
every metric computation below is an exact equality test.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import lt
from typing import Iterable, Union

from .rational import format_rational, parse_once


class GraphError(ValueError):
    """Structural error: a point or direction does not fit the graph, or
    a JSON object is not the shape of a graph or function."""


def exact(x, where: str, *keys) -> Fraction:
    """x as a Fraction: a Fraction is kept and an int (not a bool) becomes
    one; anything else raises GraphError `<where.format(*keys)> <x!r> is
    not an int or a Fraction`, its place put into words only then."""
    if type(x) is Fraction:
        return x
    if type(x) is int or isinstance(x, Fraction):
        return Fraction(x)
    raise GraphError(f"{where.format(*keys)} {x!r} is not an int or a "
                     "Fraction")


def _count(n, name: str) -> None:
    """Raise ValueError naming n unless it is an int (not a bool) >= 1."""
    if type(n) is not int or n < 1:
        raise ValueError(f"{name} must be >= 1, not {n!r}")


def require_shape(ok: bool, where: str, shape: str) -> None:
    """Raise GraphError `<where> must be <shape>` unless ok."""
    if not ok:
        raise GraphError(f"{where} must be {shape}")


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

    def __post_init__(self):
        if type(self.offset) is not Fraction:
            object.__setattr__(self, "offset", exact(
                self.offset, "edge {}: offset", self.edge))

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
    """(0, id, 0) at a Vertex, (1, edge, offset) at an EdgePoint."""
    if isinstance(p, Vertex):
        return (0, p.id, Fraction(0))
    if isinstance(p, EdgePoint):
        return (1, p.edge, p.offset)
    raise GraphError(f"{p!r} is not a Vertex or an EdgePoint")


class MetricGraph:
    """Immutable finite metric graph; self-loops and parallel edges are
    allowed.

    Vertex ids are opaque strings; deterministic iteration order is the
    lexicographic order of ids (edge order likewise by edge id).
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge],
                 boundary: Iterable[str]):
        vertices, edges, boundary = list(vertices), list(edges), list(boundary)
        # ids of mixed types would not sort: name each non-str one first
        for what, ids in (("vertex", vertices), ("boundary", boundary),
                          ("edge", [e.id for e in edges])):
            if bad := [x for x in ids if not isinstance(x, str)]:
                raise GraphError(f"{what} ids {bad} are not strings")
        # an unhashable endpoint would fail the incidence lookup: name it
        for e in edges:
            for x in (e.u, e.v):
                try:
                    hash(x)
                except TypeError:
                    raise GraphError(f"edge {e.id}: endpoint {x!r} is not "
                                     "a vertex") from None
        self.vertices = tuple(sorted(vertices))
        # an int length becomes a Fraction (bool is not an int here);
        # validate refuses any other length that is not a Fraction
        self.edges = tuple(sorted(
            (Edge(e.id, e.u, e.v, Fraction(e.length))
             if type(e.length) is int else e for e in edges),
            key=lambda e: e.id))
        self.boundary = frozenset(boundary)
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
        violations = self.validate()
        if violations:
            raise GraphError("; ".join(violations))

    # -- structure ---------------------------------------------------------

    def validate(self) -> list[str]:
        out = []
        vs = set(self.vertices)
        if len(self.vertices) != len(vs):
            # the ids are sorted, so each repeat follows its first copy
            ids = self.vertices
            dups = {v for v, w in zip(ids, ids[1:]) if v == w}
            out.extend(f"duplicate vertex id {v}" for v in sorted(dups))
        seen_ids = set()
        for e in self.edges:
            if e.id in seen_ids:
                out.append(f"duplicate edge id {e.id}")
            seen_ids.add(e.id)
            if not isinstance(e.length, Fraction):
                out.append(f"edge {e.id}: length {e.length!r} is not an int "
                           "or a Fraction")
            elif e.length <= 0:
                out.append(f"edge {e.id}: non-positive length {e.length}")
            if e.u not in vs or e.v not in vs:
                out.extend(f"edge {e.id}: endpoint {x} is not a vertex"
                           for x in sorted({e.u, e.v} - vs, key=str))
        if not self.boundary <= vs:
            out.append(f"boundary vertices {sorted(self.boundary - vs)} "
                       "are not vertices")
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

    def contains_point(self, p: GraphPoint) -> bool:
        if isinstance(p, Vertex):
            return p.id in self._incident
        if not isinstance(p, EdgePoint) or p.edge not in self._by_id:
            return False
        return 0 < p.offset < self._by_id[p.edge].length

    def require_point(self, p: GraphPoint):
        if not self.contains_point(p):
            raise GraphError(f"point {json.dumps(point_to_json(p))} is not on "
                             "the graph")

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

    def base_offset(self, d: TangentDirection) -> Fraction:
        """The offset on d.edge at which direction d starts."""
        if not isinstance(d, TangentDirection):
            raise GraphError(f"{d!r} is not a TangentDirection")
        self.require_point(d.base)
        e = self.edge(d.edge)
        if isinstance(d.base, EdgePoint):
            if d.base.edge != e.id:
                raise GraphError(f"direction {d} not on its base's edge")
            return d.base.offset
        if d.base.id != (e.u if d.toward_v else e.v):
            raise GraphError(f"direction {d} does not start at its base")
        return Fraction(0) if d.toward_v else e.length

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for e, toward_v in self._incident[stack.pop()]:
                w = e.v if toward_v else e.u
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
        g, pieces = self.split(self._cut_at(p))
        return g, pieces[p.edge][0].v

    def _cut_at(self, p: GraphPoint) -> dict[str, list]:
        """The cuts for split that make edge-interior point p a vertex."""
        if isinstance(p, Vertex):
            raise GraphError("subdivide: point is already a vertex")
        self.require_point(p)
        return {p.edge: [p.offset]}

    def split(self, cuts: dict) -> tuple["MetricGraph", dict[str, list[Edge]]]:
        """Cut edges at interior points, building the new graph once.

        cuts maps an edge id to a list of offsets (ints or Fractions) that
        increase strictly inside that edge; an empty list cuts nothing.
        The result, collisions included, is that of repeated subdivide
        calls at the first cut in point order: edge e cut at o1 < o2 < ...
        becomes e.l, e.r.l, ... through vertices e@o1, e.r@(o2 - o1), ...
        Returns the graph and every cut edge's pieces from u to v, as the
        graph's own Edge objects."""
        vertices, edges = set(self.vertices), dict(self._by_id)
        offsets_of, pieces = {}, {}
        for eid, offsets in cuts.items():
            if not isinstance(offsets, list):
                raise GraphError(f"edge {eid}: cut offsets {offsets!r} are "
                                 "not a list")
            if offsets:
                e = self.edge(eid)
                offsets = [exact(o, "edge {}: cut offset", eid)
                           for o in offsets]
                if not (0 < offsets[0] and offsets[-1] < e.length
                        and all(map(lt, offsets, offsets[1:]))):
                    raise GraphError(
                        f"edge {eid}: cut offsets "
                        f"[{', '.join(map(str, offsets))}] must increase "
                        f"strictly inside (0, {e.length})")
                offsets_of[eid], pieces[eid] = offsets, [e]
        # a heap (sorted) of (edge cut next, its original edge, cut index)
        pending = sorted((eid, eid, 0) for eid in pieces)
        while pending:
            cur, eid, k = heapq.heappop(pending)
            e, offsets = edges.pop(cur), offsets_of[eid]
            o = offsets[k] - offsets[k - 1] if k else offsets[0]
            new_v = f"{cur}@{o}"
            if new_v in vertices:
                raise GraphError(f"subdivide: vertex id collision on {new_v}")
            vertices.add(new_v)
            left, right = f"{cur}.l", f"{cur}.r"
            if dups := [x for x in (left, right) if x in edges]:
                raise GraphError("; ".join(f"duplicate edge id {x}"
                                           for x in dups))
            edges[left] = Edge(left, e.u, new_v, o)
            edges[right] = Edge(right, new_v, e.v, e.length - o)
            # the edge just cut is always its original's last piece
            pieces[eid][-1:] = edges[left], edges[right]
            if k + 1 < len(offsets):
                heapq.heappush(pending, (right, eid, k + 1))
        # every piece has a Fraction length, so the graph keeps it as it is
        return MetricGraph(vertices, edges.values(), self.boundary), pieces

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
        return {"vertices": list(self.vertices),
                "edges": [{"u": e.u, "v": e.v,
                           "len": format_rational(e.length), "id": e.id}
                          for e in self.edges],
                "boundary": sorted(self.boundary)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MetricGraph":
        """The graph of a JSON object {"vertices", "edges", "boundary"}.
        A malformed shape raises GraphError naming its location, such as
        `graph.edges[3].len must be present`."""
        # the checks in reading order; a location is put into words only
        # in the raise, so a valid shape builds no text
        require_shape(isinstance(d, dict), "graph", "a JSON object")
        for key in ("vertices", "edges", "boundary"):
            require_shape(isinstance(d.get(key, []), list), f"graph.{key}",
                          "a JSON list")
        for key in ("vertices", "boundary"):
            for i, vid in enumerate(d.get(key, [])):
                if not isinstance(vid, str):
                    raise GraphError(f"graph.{key}[{i}] must be a string")
        for i, e in enumerate(d.get("edges", [])):
            if not isinstance(e, dict):
                raise GraphError(f"graph.edges[{i}] must be a JSON object")
            for key in ("u", "v", "len"):
                if key not in e:
                    raise GraphError(f"graph.edges[{i}].{key} must be present")
            for key in ("id", "u", "v"):
                if not isinstance(e.get(key, ""), str):
                    raise GraphError(
                        f"graph.edges[{i}].{key} must be a string")
        memo = {}   # a repeated length literal is parsed once
        edges = [Edge(e["id"] if "id" in e else f"e{i}", e["u"], e["v"],
                      parse_once(e["len"], memo, "graph.edges[{}].len",
                                 i))
                 for i, e in enumerate(d.get("edges", []))]
        return cls(d.get("vertices", []), edges, d.get("boundary", []))

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
    _, edge, offset = point_sort_key(p)     # refuses what is not a point
    return {"edge": edge, "offset": format_rational(offset)}
