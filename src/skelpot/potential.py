"""Harmonic extension, Green's functions, the Poisson evaluation formula,
and the Green-pairing subharmonicity test.

Harmonicity on the graph is the Kirchhoff characterization: affine on
every edge and zero sum of outgoing slopes at each non-boundary vertex.
All solves are exact over the rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise
from math import lcm

from .graph import (EdgePoint, GraphError, GraphPoint, MetricGraph, Vertex,
                    exact, point_to_json)
from .linalg import solve_exact
from .pa_function import (DiscreteMeasure, PAFunction, SlopeVerdict,
                          _lcm_sum, _slope_measure, _slope_pairs, integrate)


class NotHarmonicError(ValueError):
    pass


class NotSubharmonicError(ValueError):
    """Raised when an operation's precondition (subharmonicity) fails."""


@dataclass(frozen=True)
class GreenFunction:
    pole: GraphPoint
    result: PAFunction
    boundary_masses: DiscreteMeasure


def _check_dirichlet_pre(g: MetricGraph):
    if not g.boundary:
        raise GraphError("empty boundary")
    if not g.is_connected():
        raise GraphError("graph is not connected")


def _segment(pieces: list, masses, sources: dict, u: str, v: str):
    """A segment from u to v of length L, cut into pieces of these lengths
    with a ddc mass m (0 for none) at each cut t: adds m's shares
    m(L-t)/L at u and mt/L at v to sources, and returns L as an integer
    pair and a function of the end values that gives the chord plus one
    tent m*min(s, t)*(max(s, t) - L)/L in s per mass, zero at both ends,
    at each cut.  The cuts are integers over the lcm d of the piece
    denominators, so each value is one Fraction of an integer sum."""
    pieces = [x.as_integer_ratio() for x in pieces]
    d = lcm(*(q for _, q in pieces))
    *cuts, n = accumulate(p * (d // q) for p, q in pieces)
    atoms = [(t, m) for t, m in zip(cuts, masses) if m]
    for t, m in atoms:
        sources[u] = sources.get(u, 0) + m * (n - t) / n
        sources[v] = sources.get(v, 0) + m * t / n

    def values_at_cuts(a: Fraction, b: Fraction) -> list[Fraction]:
        xs = (a, b, *(m for _, m in atoms))
        q = lcm(*(x.denominator for x in xs))
        an, bn, *ms = (x.numerator * (q // x.denominator) for x in xs)
        return [Fraction((an * n + (bn - an) * s) * d + sum(
            m * min(s, t) * (max(s, t) - n) for (t, _), m in zip(atoms, ms)),
            q * d * n) for s in cuts]
    return Fraction(n, d).as_integer_ratio(), values_at_cuts


def _solve_laplacian(g: MetricGraph, boundary_values: dict,
                     sources: dict) -> dict:
    """Vertex values with fixed boundary data and prescribed Laplacian
    masses at interior vertices (sum of outgoing slopes = sources[v]),
    from one solve on the core graph: each maximal chain of chain
    vertices (interior, with two edge ends not of one loop) is a _segment
    between core vertices, its sources the masses at the cuts.  Row i
    holds the nonzeros of core interior vertex i: each edge or chain end
    adds 1/length on the diagonal and subtracts it at an interior
    neighbour's column, or moves it, times the boundary value, into b; a
    loop's two ends cancel.  Each row and its b entry are scaled by the
    lcm of the numerators of its lengths, so its entries are integers."""
    values = {v: exact(boundary_values[v], "boundary vertex {}: value", v)
              for v in g.boundary}
    sources = dict(sources)
    ends = {v: g.incident_ends(v) for v in g.vertices}
    # A cycle of chain vertices alone has no boundary vertex, which
    # _check_dirichlet_pre refuses; a solve without one must keep a vertex.
    chain = {v for v, es in ends.items() if len(es) == 2
             and es[0][0] is not es[1][0] and v not in g.boundary}
    near = {v: [] for v in g.vertices if v not in chain}
    walked, fills = set(), []   # walked: each walk's last edge
    for u in near:
        for e, tv in ends[u]:
            f, w, lengths, inner = e, e.v if tv else e.u, [e.length], []
            if f.id in walked or w == u:
                continue
            while w in chain:
                inner.append(w)
                # leave w by the end that is not f's
                f, tf = ends[w][ends[w][0][0] is f]
                lengths.append(f.length)
                w = f.v if tf else f.u
            walked.add(f.id)
            if inner:
                masses = [sources.pop(x, 0) for x in inner]
                length, at = _segment(lengths, masses, sources, u, w)
                fills.append((u, w, inner, at))
            else:
                length = e.length.as_integer_ratio()
            if w != u:
                near[u].append((length, w))
                near[w].append((length, u))
    interior = [v for v in near if v not in g.boundary]
    index = {v: i for i, v in enumerate(interior)}
    a, b = [], []
    for i, v in enumerate(interior):
        scale = lcm(*(p for (p, _), _ in near[v]))
        row = {i: 0}
        rhs = -scale * sources.get(v, 0)
        for (p, q), w in near[v]:
            c = scale // p * q  # scale/length
            row[i] += c
            j = index.get(w)
            if j is None:
                rhs += c * values[w]
            else:
                row[j] = row.get(j, 0) - c
        a.append(row)
        b.append(rhs)
    values.update(zip(interior, solve_exact(a, b) if a else ()))
    for u, w, inner, at in fills:
        values.update(zip(inner, at(values[u], values[w])))
    return values


def require_boundary_keys(g: MetricGraph, keys) -> None:
    """Raise GraphError unless the set keys is g's boundary: first naming
    the keys off the boundary, then the boundary vertices not in keys."""
    if extra := keys - g.boundary:
        raise GraphError("values for vertices off the boundary "
                         f"{sorted(extra, key=str)}")
    if missing := g.boundary - keys:
        raise GraphError(f"missing boundary values for {sorted(missing)}")


def poisson(g: MetricGraph, mu: DiscreteMeasure,
            boundary_values: dict) -> PAFunction:
    """The function with these boundary values whose ddc off the boundary
    is mu, from one solve.  An atom m at a vertex is a source m there.
    The atoms inside an edge (u, v) are the masses of a _segment from u to
    v cut at their offsets (its sources summed on a loop, dropped at a
    boundary vertex).  The keys of boundary_values must pass
    require_boundary_keys."""
    _check_dirichlet_pre(g)
    require_boundary_keys(g, boundary_values.keys())
    sources, tents = {}, {}
    for x, m in mu.support:
        g.require_point(x)
        if isinstance(x, Vertex):
            if x.id in g.boundary:
                raise GraphError("pole on the boundary")
            sources[x.id] = sources.get(x.id, 0) + m
        else:
            tents.setdefault(x.edge, []).append((x.offset, m))
    for eid, tent in tents.items():
        e, (offsets, masses) = g.edge(eid), zip(*tent)
        pieces = [t - s for s, t in pairwise((0, *offsets, e.length))]
        tents[eid] = offsets, _segment(pieces, masses, sources, e.u, e.v)[1]
    values = _solve_laplacian(g, boundary_values, sources)
    zero = Fraction(0)   # the start of every profile
    profiles = {e.id: ((zero, values[e.u]), (e.length, values[e.v]))
                for e in g.edges}
    for eid, (offsets, at) in tents.items():
        (_, a), (length, b) = profiles[eid]
        profiles[eid] = ((zero, a), *zip(offsets, at(a, b)), (length, b))
    return PAFunction._of(g, profiles)


def dirichlet_solve(g: MetricGraph, boundary_values: dict) -> PAFunction:
    """poisson with no atoms: the harmonic extension of the values."""
    return poisson(g, DiscreteMeasure(()), boundary_values)


def green(g: MetricGraph, x: GraphPoint) -> GreenFunction:
    """Green's function with pole x: poisson with mass -1 at x and zero
    boundary values.  Its boundary masses (nonnegative, of total 1) are
    its ddc on the boundary, summed as ddc sums a vertex from the integer
    slope pairs of the end pieces (the pole's own piece too)."""
    f = poisson(g, DiscreteMeasure(((x, -1),)), dict.fromkeys(g.boundary, 0))
    ends = {u: [] for u in g.vertices if u in g.boundary}
    for u, pairs in ends.items():
        for e, tv in g.incident_ends(u):
            prof = f.profiles[e.id]
            (n, d), = _slope_pairs(prof[:2] if tv else prof[-2:])
            pairs.append((n if tv else -n, d))
    return GreenFunction(x, f, _slope_measure(ends))


def evaluation_formula_check(x: GraphPoint,
                             h: PAFunction) -> tuple[Fraction, Fraction]:
    """Return (h(x), integral of h against green(h.graph, x)'s boundary
    masses); the two agree exactly for harmonic h."""
    excluded = {Vertex(v) for v in h.graph.boundary}
    if not h.is_harmonic_on(excluded):
        raise NotHarmonicError("h is not harmonic off the boundary")
    gf = green(h.graph, x)
    return h.eval(x), integrate(h, gf.boundary_masses)


@dataclass(frozen=True)
class GreenVerdict:
    ok: bool
    violations: tuple[tuple[GraphPoint, Fraction], ...]  # (pole, pairing)


def local_green_pairing(f: PAFunction, x: GraphPoint) -> Fraction:
    """Pairing of f against ddc of the Green function of a small star-shaped
    subdomain around the interior point x (pole at x).

    The star's arms stay inside single affine pieces of f, mirroring the
    choice of a small affinoid neighborhood around the pole.  That Green
    function is known in closed form: mass -1 at x and, at the end of arm
    i, the share w_i = (1/a_i) / sum_j (1/a_j) of the arm conductances, so
    the pairing is  sum_i w_i f(end_i) - f(x).  Arm i is half the distance
    d_i to the next breakpoint (value v_i) in its direction, so
    f(end_i) = (f(x) + v_i) / 2 and the pairing is
    (sum_i (v_i / d_i) / sum_i (1 / d_i) - f(x)) / 2.
    """
    g = f.graph
    dirs = g.star(x)
    if isinstance(x, Vertex) and x.id in g.boundary:
        raise GraphError("pole on the boundary")
    weighted = conductance = Fraction(0)
    for d in dirs:
        base = g.base_offset(d)
        o, v = f.next_breakpoint(d.edge, base, d.toward_v)
        dist = abs(o - base)
        weighted += v / dist
        conductance += 1 / dist
    return (weighted / conductance - f.eval(x)) / 2


def is_subharmonic_green(f: PAFunction) -> GreenVerdict:
    """Subharmonicity via Green pairings: f is subharmonic iff the pairing
    of f against ddc of a local Green kernel is >= 0 for every interior pole.

    The poles are the points of f.breakpoints() off the boundary: f is
    affine around any other point (an edge midpoint, say), so its pairing
    there is exactly 0, and the verdict is exact.

    Each pairing is local_green_pairing's closed form, read off the
    profiles in one pass: ((v_a*d2 + v_c*d1) / (d1 + d2) - v_b) / 2 at a
    breakpoint b between a and c, and (sum(v/d) / sum(1/d) - f(x)) / 2 at
    a vertex x, over its edge ends (prof[1] at a u end, prof[-2] at a v
    end).  On an edge's offsets and values over one denominator each, b's
    sign is that of V_a*D2 + V_c*D1 - V_b*(D1 + D2), a vertex takes two
    lcm sums, and a Fraction is built only for a violation.  The
    violations come out in point_sort_key order, vertices first.
    """
    g = f.graph
    # per interior vertex, its edge ends' (v/d, 1/d) as integer pairs
    ends = {v: [] for v in g.vertices if v not in g.boundary}
    edge_bad = []
    for e in g.edges:
        prof = f.profiles[e.id]
        q = lcm(*(o.denominator for o, _ in prof))
        b = lcm(*(v.denominator for _, v in prof))
        offsets = [o.numerator * (q // o.denominator) for o, _ in prof]
        values = [v.numerator * (b // v.denominator) for _, v in prof]
        for vid, i, d in ((e.u, 1, offsets[1]),
                          (e.v, -2, offsets[-1] - offsets[-2])):
            if vid in ends:
                ends[vid].append(((values[i] * q, b * d), (q, d)))
        for i in range(1, len(prof) - 1):
            d1, d2 = offsets[i] - offsets[i - 1], offsets[i + 1] - offsets[i]
            s = values[i - 1] * d2 + values[i + 1] * d1 - values[i] * (d1 + d2)
            if s < 0:
                edge_bad.append((EdgePoint(e.id, prof[i][0]),
                                 Fraction(s, 2 * b * (d1 + d2))))
    bad = []
    for vid, pairs in ends.items():
        (wn, wd), (cn, cd) = map(_lcm_sum, zip(*pairs))
        fa, fb = f.vertex_value(vid).as_integer_ratio()
        # (wn/wd) / (cn/cd) - fa/fb, over the denominator wd*cn*fb
        if (s := wn * cd * fb - fa * wd * cn) < 0:
            bad.append((Vertex(vid), Fraction(s, 2 * wd * cn * fb)))
    bad += edge_bad
    return GreenVerdict(not bad, tuple(bad))


def require_subharmonic(f: PAFunction) -> DiscreteMeasure:
    """ddc f, once f is found subharmonic by the slope oracle; otherwise
    raise NotSubharmonicError naming its witnesses, as the JSON list
    `subharmonic` prints."""
    measure = f.ddc()
    verdict = SlopeVerdict.of(measure, f.graph.boundary)
    if not verdict.ok:
        raise NotSubharmonicError("f is not subharmonic; witnesses: "
                                  + json.dumps(verdict.witnesses_to_json()))
    return measure


def maximum_principle_check(f: PAFunction) -> bool:
    """For subharmonic f: the harmonic extension of its boundary values
    dominates it at every vertex and breakpoint."""
    require_subharmonic(f)
    g = f.graph
    h = dirichlet_solve(g, {v: f.vertex_value(v) for v in g.boundary})
    return all(f.eval(p) <= h.eval(p) for p in f.breakpoints())


def green_to_json_dict(gf: GreenFunction) -> dict:
    return {"pole": point_to_json(gf.pole),
            "function": gf.result.to_json_dict(),
            "boundary_masses": gf.boundary_masses.to_json_list()}
