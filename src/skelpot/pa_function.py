"""Continuous piecewise-affine functions on a metric graph and their
discrete Laplacian measure (sum of outgoing slopes at each point).

Everything here is exact: profiles, slopes, masses, and pairings are
Fractions, so all identities (total mass zero, pairing symmetry,
linearity) are tested with exact equality.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .graph import (EdgePoint, GraphError, GraphPoint, MetricGraph,
                    TangentDirection, Vertex, exact, point_sort_key,
                    point_to_json, require_shape)
from .rational import format_rational, parse_once

Profile = tuple[tuple[Fraction, Fraction], ...]

_OFFSET = itemgetter(0)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported signed measure in one form: the constructor sums
    the masses at each point of its (point, mass) pairs through
    graph.exact, drops zero masses and sorts the support by point_sort_key."""

    support: tuple[tuple[GraphPoint, Fraction], ...]

    def __post_init__(self):
        acc: dict[GraphPoint, Fraction] = {}
        for p, m in self.support:
            acc[p] = acc.get(p, Fraction(0)) + exact(m, "atom {}: mass", p)
        items = [(p, m) for p, m in acc.items() if m != 0]
        items.sort(key=lambda pm: point_sort_key(pm[0]))
        object.__setattr__(self, "support", tuple(items))

    @classmethod
    def _of(cls, support: tuple) -> "DiscreteMeasure":
        """Trusted constructor for a support already in canonical form."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "support", support)
        return mu

    def mass_at(self, p: GraphPoint) -> Fraction:
        point_sort_key(p)       # refuses what is not a point
        for q, m in self.support:
            if q == p:
                return m
        return Fraction(0)

    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.support), Fraction(0))

    def total_variation(self) -> Fraction:
        return sum((abs(m) for _, m in self.support), Fraction(0))

    def to_json_list(self) -> list:
        return [{"at": point_to_json(p), "mass": format_rational(m)}
                for p, m in self.support]


def _slope_pairs(prof: Profile) -> list[tuple[int, int]]:
    """The slope (v2 - v1) / (o2 - o1) of each piece of a profile as an
    unreduced pair of integers: with o = p/q and v = a/b, the numerator
    (a2*b1 - a1*b2)*q1*q2 over the denominator b1*b2*(p2*q1 - p1*q2) > 0."""
    (p1, q1), (a1, b1) = (x.as_integer_ratio() for x in prof[0])
    out = []
    for o2, v2 in prof[1:]:
        (p2, q2), (a2, b2) = o2.as_integer_ratio(), v2.as_integer_ratio()
        out.append(((a2 * b1 - a1 * b2) * q1 * q2,
                    b1 * b2 * (p2 * q1 - p1 * q2)))
        p1, q1, a1, b1 = p2, q2, a2, b2
    return out


def _slopes(prof: Profile) -> list[Fraction]:
    """The Fraction view of _slope_pairs."""
    return [Fraction(n, d) for n, d in _slope_pairs(prof)]


def _lcm_sum(pairs) -> tuple[int, int]:
    """The sum of the integer pairs (n, d > 0) as one pair over their lcm."""
    den = lcm(*(d for _, d in pairs))
    return sum(n * (den // d) for n, d in pairs), den


def _slope_measure(ends: dict[str, list], kinks=()) -> DiscreteMeasure:
    """The _lcm_sum of each vertex's outgoing slope pairs (ends in graph
    order, zero sums left out), then the kinks, as a measure."""
    masses = [(Vertex(v), Fraction(*nd)) for v, pairs in ends.items()
              if (nd := _lcm_sum(pairs))[0]]
    return DiscreteMeasure._of((*masses, *kinks))


@dataclass(frozen=True)
class SlopeVerdict:
    ok: bool
    witnesses: tuple[tuple[GraphPoint, Fraction], ...]

    @classmethod
    def of(cls, measure: DiscreteMeasure, boundary) -> "SlopeVerdict":
        """The verdict on a function whose ddc is measure."""
        bad = tuple((p, m) for p, m in measure.support
                    if m < 0 and not (isinstance(p, Vertex)
                                      and p.id in boundary))
        return cls(not bad, bad)

    def witnesses_to_json(self) -> list:
        """The witnesses as `subharmonic` prints them."""
        return [{"at": point_to_json(p), "incoming_slope_sum":
                 format_rational(s)} for p, s in self.witnesses]


class PAFunction:
    """Continuous piecewise-affine function, one breakpoint profile per edge.

    Profiles run from offset 0 (value at u) to offset = length (value at v);
    the function is affine between consecutive breakpoints.  Lookups
    bisect the profile by offset.  The only other stored data is the
    vertex-value index, derived from the profile ends by
    _check_continuity.
    """

    def __init__(self, graph: MetricGraph, profiles: dict):
        self.graph = graph
        norm: dict[str, Profile] = {}
        for e in graph.edges:
            if e.id not in profiles:
                raise GraphError(f"missing profile for edge {e.id}")
            prof = tuple((exact(o, "edge {}: offset", e.id),
                           exact(v, "edge {}: value", e.id))
                          for o, v in profiles[e.id])
            if len(prof) < 2 or prof[0][0] != 0 or \
                    prof[-1][0] is not e.length and prof[-1][0] != e.length:
                raise GraphError(
                    f"edge {e.id}: profile must span offsets 0..{e.length}")
            # on integer ratios: Fraction's own <= is slower
            ratios = [o.as_integer_ratio() for o, _ in prof]
            if any(p2 * q1 <= p1 * q2 for (p1, q1), (p2, q2)
                   in zip(ratios, ratios[1:])):
                raise GraphError(f"edge {e.id}: offsets not increasing")
            norm[e.id] = prof
        extra = set(profiles) - {e.id for e in graph.edges}
        if extra:
            raise GraphError(f"profiles for unknown edges {sorted(extra)}")
        self.profiles = norm
        self._vertex_values = self._check_continuity()

    @classmethod
    def _of(cls, graph: MetricGraph, profiles: dict) -> "PAFunction":
        """Constructor for profiles that are already normalized: one per
        edge of the graph, a tuple of (Fraction, Fraction) pairs spanning
        the edge with increasing offsets.  Only continuity at the
        vertices is checked, as it derives the vertex values."""
        self = object.__new__(cls)
        self.graph = graph
        self.profiles = profiles
        self._vertex_values = self._check_continuity()
        return self

    def _check_continuity(self) -> dict[str, Fraction]:
        values: dict[str, Fraction] = {}
        for e in self.graph.edges:
            prof = self.profiles[e.id]
            for vid, val in ((e.u, prof[0][1]), (e.v, prof[-1][1])):
                if vid in values:
                    if values[vid] is not val and values[vid] != val:
                        raise GraphError(
                            f"discontinuity at vertex {vid}: "
                            f"{values[vid]} vs {val}")
                else:
                    values[vid] = val
        missing = set(self.graph.vertices) - set(values)
        if missing:
            raise GraphError(
                f"isolated vertices carry no value: {sorted(missing)}")
        return values

    # -- evaluation ---------------------------------------------------------

    def vertex_value(self, vid: str) -> Fraction:
        try:
            return self._vertex_values[vid]
        except KeyError:
            raise GraphError(f"unknown vertex {vid}") from None

    def eval(self, p: GraphPoint) -> Fraction:
        if isinstance(p, Vertex):
            if p.id in self._vertex_values:
                return self._vertex_values[p.id]
        elif isinstance(p, EdgePoint) and p.edge in self.profiles and \
                0 <= p.offset <= self.profiles[p.edge][-1][0]:
            return self._on_edge(p.edge, p.offset)
        self.graph.require_point(p)     # raises: p is not on the graph

    def _on_edge(self, eid: str, offset) -> Fraction:
        """Value at an offset in [0, length] of edge eid."""
        prof = self.profiles[eid]
        i = bisect_left(prof, offset, key=_OFFSET)
        o2, v2 = prof[i]
        if o2 == offset:
            return v2
        o1, v1 = prof[i - 1]
        return v1 + (v2 - v1) * (offset - o1) / (o2 - o1)

    def next_breakpoint(self, edge_id: str, offset,
                        toward_v: bool) -> tuple[Fraction, Fraction]:
        """The breakpoint (offset, value) of the edge's profile nearest
        to `offset` and strictly beyond it, toward v or toward u; a
        GraphError for an unknown edge, an offset that is not an int or a
        Fraction or lies outside [0, length], or at the edge's end."""
        prof = self.profiles[self.graph.edge(edge_id).id]
        offset = exact(offset, "edge {}: offset", edge_id)
        if not 0 <= offset <= prof[-1][0]:
            raise GraphError(f"edge {edge_id}: offset {offset} lies outside "
                             f"[0, {prof[-1][0]}]")
        i = bisect_right(prof, offset, key=_OFFSET) if toward_v \
            else bisect_left(prof, offset, key=_OFFSET) - 1
        if not 0 <= i < len(prof):
            raise GraphError(f"edge {edge_id}: no breakpoint beyond offset "
                             f"{offset} toward {'v' if toward_v else 'u'}")
        return prof[i]

    def outgoing_slope(self, d: TangentDirection) -> Fraction:
        """One-sided derivative at d.base in the direction of d."""
        base_off = self.graph.base_offset(d)
        o, v = self.next_breakpoint(d.edge, base_off, d.toward_v)
        return (v - self.eval(d.base)) / abs(o - base_off)

    # -- Laplacian measure ----------------------------------------------------

    def breakpoints(self) -> list[GraphPoint]:
        """All vertices plus interior profile breakpoints (kinked or not),
        in point_sort_key order: vertices in graph order, then each
        edge's breakpoints by offset."""
        pts: list[GraphPoint] = [Vertex(v) for v in self.graph.vertices]
        for e in self.graph.edges:
            pts += [EdgePoint(e.id, o) for o, _ in self.profiles[e.id][1:-1]]
        return pts

    def ddc(self) -> DiscreteMeasure:
        """Sum of outgoing slopes at every vertex and interior breakpoint,
        on the integer pairs of _slope_pairs: a vertex sums its ends' pairs
        over one lcm, and a kink is (n2*d1 - n1*d2) / (d1*d2).  The support
        comes out in point_sort_key order without a sort: the vertices in
        graph order, then each edge's kinks by offset."""
        ends: dict[str, list] = {v: [] for v in self.graph.vertices}
        kinks = []
        for e in self.graph.edges:
            prof = self.profiles[e.id]
            pairs = _slope_pairs(prof)
            ends[e.u].append(pairs[0])
            n, d = pairs[-1]
            ends[e.v].append((-n, d))
            for (o, _), (n1, d1), (n2, d2) in zip(prof[1:-1], pairs,
                                                  pairs[1:]):
                if k := n2 * d1 - n1 * d2:
                    kinks.append((EdgePoint(e.id, o), Fraction(k, d1 * d2)))
        return _slope_measure(ends, kinks)

    # -- predicates -----------------------------------------------------------

    def is_subharmonic_slope(self) -> SlopeVerdict:
        """True iff the Laplacian mass is >= 0 at every non-boundary point."""
        return SlopeVerdict.of(self.ddc(), self.graph.boundary)

    def is_harmonic_on(self, excluded) -> bool:
        """True iff ddc is supported inside the excluded point set."""
        excluded = set(excluded)
        return all(p in excluded for p, _ in self.ddc().support)

    # -- surgery --------------------------------------------------------------

    def split(self, cuts: dict) -> tuple["PAFunction", dict]:
        """Carry this function onto self.graph.split(cuts), cutting each
        cut edge's profile onto its pieces.  Returns the function and the
        pieces; with no cuts (every list empty), self and no pieces."""
        if all(offsets == [] for offsets in cuts.values()):
            return self, {}
        graph, pieces = self.graph.split(cuts)
        profiles = dict(self.profiles)
        zero = Fraction(0)
        for eid, edge_pieces in pieces.items():
            prof = profiles.pop(eid)
            i, a, va = 1, zero, prof[0][1]
            # piece [a, b] takes the breakpoints prof[i:j] strictly inside
            for piece, b in zip(edge_pieces, [*cuts[eid], prof[-1][0]]):
                j = bisect_left(prof, b, i, key=_OFFSET)
                at_b = prof[j][0] == b
                vb = prof[j][1] if at_b else self._on_edge(eid, b)
                profiles[piece.id] = ((zero, va),
                                      *((o - a, v) for o, v in prof[i:j]),
                                      (piece.length, vb))
                i, a, va = j + at_b, b, vb
        return PAFunction._of(graph, {e.id: profiles[e.id]
                                      for e in graph.edges}), pieces

    def subdivide_at(self, p: EdgePoint) -> tuple["PAFunction", str]:
        """Carry this function onto the graph subdivided at p."""
        f, pieces = self.split(self.graph._cut_at(p))
        return f, pieces[p.edge][0].v

    def promote_interior_breakpoints(self) -> "PAFunction":
        """Split the graph at every interior breakpoint, making the
        function affine on every edge."""
        return self.split({eid: [o for o, _ in prof[1:-1]]
                           for eid, prof in self.profiles.items()})[0]

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The JSON object {"profiles", "graph"}, each offset and value
        formatted as its own text."""
        return {"profiles": {eid: [[format_rational(o), format_rational(v)]
                                   for o, v in prof]
                             for eid, prof in sorted(self.profiles.items())},
                "graph": self.graph.to_json_dict()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PAFunction":
        """The function of a JSON object {"graph", "profiles"}.  A
        malformed shape raises GraphError naming its location, such as
        `profiles.e2 must be a list of [offset, value] pairs`; the graph
        is built, and so checked, before the profiles."""
        require_shape(isinstance(d, dict), "the top level", "a JSON object")
        graph = MetricGraph.from_json_dict(d.get("graph"))
        profiles = d.get("profiles")
        require_shape(isinstance(profiles, dict), "profiles", "a JSON object")
        for eid, prof in profiles.items():
            if not (isinstance(prof, list) and all(
                    isinstance(bp, list) and len(bp) == 2 for bp in prof)):
                raise GraphError(
                    f"profiles.{eid} must be a list of [offset, value] pairs")
        # a repeated literal (offset 0, a vertex value, or a length that the
        # graph parsed) is parsed once
        memo = {str(e.length): e.length for e in graph.edges}
        return cls(graph, {
            eid: [(parse_once(o, memo, "profiles.{}[{}][0]", eid, j),
                   parse_once(v, memo, "profiles.{}[{}][1]", eid, j))
                  for j, (o, v) in enumerate(prof)]
            for eid, prof in profiles.items()})

    # -- misc ---------------------------------------------------------------

    @classmethod
    def constant(cls, graph: MetricGraph, c: Fraction) -> "PAFunction":
        return cls.from_vertex_values(
            graph, dict.fromkeys(graph.vertices, exact(c, "constant: value")))

    @classmethod
    def from_vertex_values(cls, graph: MetricGraph, values: dict) -> "PAFunction":
        """Edge-affine interpolation of per-vertex values.  A Fraction
        value is kept as the object it is at every end of its vertex,
        and every profile starts at one zero.  A GraphError names the
        ids given a value that are not vertices, then the vertices
        without a value."""
        if extra := set(values).difference(graph.vertices):
            raise GraphError(
                f"values for unknown vertices {sorted(extra, key=str)}")
        if missing := set(graph.vertices).difference(values):
            raise GraphError(f"missing values for vertices {sorted(missing)}")
        zero = Fraction(0)
        return cls._of(graph, {
            e.id: ((zero, exact(values[e.u], "vertex {}: value", e.u)),
                   (e.length, exact(values[e.v], "vertex {}: value", e.v)))
            for e in graph.edges})

    def max_abs_slope(self) -> Fraction:
        """A Lipschitz constant (exact, metric-graph arc length)."""
        return max((abs(s) for e in self.graph.edges
                    for s in _slopes(self.profiles[e.id])),
                   default=Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, PAFunction)
                and self.graph == other.graph
                and self.profiles == other.profiles)

    def __repr__(self):
        return f"PAFunction(on {self.graph!r})"


def linear_combine(coeffs: list[tuple[Fraction, PAFunction]]) -> PAFunction:
    """Pointwise linear combination; breakpoint offsets are unioned."""
    if not coeffs:
        raise ValueError("empty combination")
    graph = coeffs[0][1].graph
    for _, f in coeffs:
        if f.graph != graph:
            raise GraphError("linear_combine: graph mismatch")
    coeffs = [(exact(c, "linear_combine: term {}: coefficient", i), f)
              for i, (c, f) in enumerate(coeffs)]
    profiles = {}
    for e in graph.edges:
        offsets = sorted({o for _, f in coeffs for o, _ in f.profiles[e.id]})
        profiles[e.id] = tuple(
            (o, sum((c * f._on_edge(e.id, o) for c, f in coeffs),
                    Fraction(0)))
            for o in offsets)
    return PAFunction._of(graph, profiles)


def integrate(f: PAFunction, mu: DiscreteMeasure) -> Fraction:
    """Exact pairing  sum f(x) * mu({x})  over the support of mu."""
    return sum((f.eval(p) * m for p, m in mu.support), Fraction(0))
