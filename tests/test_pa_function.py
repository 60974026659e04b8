import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skelpot import (DiscreteMeasure, EdgePoint, GraphError, MetricGraph,
                     PAFunction, TangentDirection, Vertex, dirichlet_solve,
                     green, integrate, linear_combine)
from skelpot.graph import Edge, point_sort_key
from skelpot.pa_function import _slopes
from skelpot.rational import parse_rational
from skelpot.randgen import (random_boundary_values, random_graph,
                             random_pa_function)

from conftest import (graph_from, looped_and_kinked_functions, pa,
                      reference_ddc, roundtrip_json, with_collinear_breakpoints)


F = Fraction


def affine01(unit_edge):
    return pa(unit_edge, {"e": [(0, 0), (1, 1)]})


def tent(unit_edge):
    return pa(unit_edge, {"e": [(0, 0), (F(1, 2), 1), (1, 0)]})


def test_eval_affine_interpolation(unit_edge):
    f = affine01(unit_edge)
    assert f.eval(EdgePoint("e", F(1, 2))) == F(1, 2)
    assert f.eval(Vertex("a")) == 0
    assert f.eval(Vertex("b")) == 1


def test_eval_tent(unit_edge):
    assert tent(unit_edge).eval(EdgePoint("e", F(3, 4))) == F(1, 2)


def test_outgoing_slopes_affine(unit_edge):
    f = affine01(unit_edge)
    [d_a] = unit_edge.star(Vertex("a"))
    [d_b] = unit_edge.star(Vertex("b"))
    assert f.outgoing_slope(d_a) == 1
    assert f.outgoing_slope(d_b) == -1


def test_outgoing_slopes_tent_midpoint(unit_edge):
    f = tent(unit_edge)
    for d in unit_edge.star(EdgePoint("e", F(1, 2))):
        assert f.outgoing_slope(d) == -2


def test_outgoing_slope_refuses_a_direction_off_its_base(unit_edge, path3):
    """A direction starts at its base: a vertex at the edge end it leaves
    from, an edge point on its own edge, the offset of that start being
    MetricGraph.base_offset."""
    cases = [(unit_edge, TangentDirection(Vertex("a"), "e", False),
              "does not start at its base"),
             (unit_edge, TangentDirection(Vertex("b"), "e", True),
              "does not start at its base"),
             (path3, TangentDirection(EdgePoint("e0", F(1, 2)), "e1", True),
              "not on its base's edge")]
    for g, d, message in cases:
        with pytest.raises(GraphError, match=message):
            g.base_offset(d)
        with pytest.raises(GraphError, match=message):
            PAFunction.constant(g, 0).outgoing_slope(d)
    starts = [unit_edge.base_offset(d) for p in (Vertex("a"), Vertex("b"),
                                                 EdgePoint("e", F(1, 3)))
              for d in unit_edge.star(p)]
    assert starts == [0, 1, F(1, 3), F(1, 3)]


def _checked_constant(g, c):
    """The constant function as the checked constructor builds it from
    list profiles."""
    return PAFunction(g, {e.id: [(F(0), c), (e.length, c)] for e in g.edges})


def test_constant_slopes_zero(star3):
    f = PAFunction.constant(star3, F(7))
    assert f == _checked_constant(star3, F(7))
    for v in star3.vertices:
        for d in star3.star(Vertex(v)):
            assert f.outgoing_slope(d) == 0
    assert f.ddc() == DiscreteMeasure([])


def test_ddc_affine(unit_edge):
    m = affine01(unit_edge).ddc()
    assert m.mass_at(Vertex("a")) == 1
    assert m.mass_at(Vertex("b")) == -1
    assert m.total_mass() == 0


def test_ddc_tent_height_one(unit_edge):
    m = tent(unit_edge).ddc()
    assert m.mass_at(Vertex("a")) == 2
    assert m.mass_at(Vertex("b")) == 2
    assert m.mass_at(EdgePoint("e", F(1, 2))) == -4
    assert m.total_mass() == 0


def test_profile_validation(unit_edge):
    with pytest.raises((GraphError, ValueError)):
        pa(unit_edge, {"e": [(0, 0), (F(1, 2), 1)]})       # wrong span
    with pytest.raises((GraphError, ValueError)):
        pa(unit_edge, {"e": [(0, 0), (F(1, 2), 1),
                             (F(1, 2), 2), (1, 0)]})        # not increasing


def test_continuity_enforced(path3):
    with pytest.raises((GraphError, ValueError)):
        pa(path3, {"e0": [(0, 0), (1, 1)], "e1": [(0, 2), (1, 0)]})


def test_integrate_against_zero_and_constant(unit_edge):
    f = tent(unit_edge)
    assert integrate(f, DiscreteMeasure([])) == 0
    c = PAFunction.constant(unit_edge, F(5))
    assert c == _checked_constant(unit_edge, F(5))
    mu = f.ddc()
    assert integrate(c, mu) == 5 * mu.total_mass()


def test_pairing_symmetry_simple(path3):
    f = pa(path3, {"e0": [(0, 0), (F(1, 2), 1), (1, 0)],
                   "e1": [(0, 0), (1, 2)]})
    g = pa(path3, {"e0": [(0, 1), (1, 0)],
                   "e1": [(0, 0), (F(1, 3), -1), (1, 1)]})
    assert integrate(f, g.ddc()) == integrate(g, f.ddc())


def test_subharmonic_slope_verdicts(unit_edge):
    bad = tent(unit_edge).is_subharmonic_slope()
    assert not bad.ok
    assert any(p == EdgePoint("e", F(1, 2)) for p, _ in bad.witnesses)
    valley = pa(unit_edge, {"e": [(0, 1), (F(1, 2), 0), (1, 1)]})
    assert valley.is_subharmonic_slope().ok


def test_is_harmonic_on(unit_edge):
    f = affine01(unit_edge)
    assert f.is_harmonic_on({Vertex("a"), Vertex("b")})
    assert not tent(unit_edge).is_harmonic_on({Vertex("a"), Vertex("b")})


def test_linear_combine_identity_and_cancel(unit_edge):
    f = tent(unit_edge)
    g = affine01(unit_edge)
    assert linear_combine([(F(1), f), (F(0), g)]) == f
    # cancellation keeps the (now flat) breakpoint; compare as functions
    zero = linear_combine([(F(1), f), (F(-1), f)])
    assert not zero.ddc().support
    assert all(zero.eval(EdgePoint("e", F(i, 8))) == 0 for i in range(9))
    with pytest.raises(ValueError, match="empty combination"):
        linear_combine([])
    other = pa(graph_from({**unit_edge.to_json_dict(), "boundary": ["a"]}),
               {"e": [(0, 0), (1, 1)]})
    with pytest.raises(GraphError, match="graph mismatch"):
        linear_combine([(F(1), f), (F(1), other)])


def test_ddc_linearity(path3):
    f = pa(path3, {"e0": [(0, 0), (F(1, 4), 2), (1, 1)],
                   "e1": [(0, 1), (1, -1)]})
    g = pa(path3, {"e0": [(0, 3), (1, 0)],
                   "e1": [(0, 0), (F(2, 3), 1), (1, 2)]})
    a, b = F(3, 2), F(-2, 5)
    lhs = linear_combine([(a, f), (b, g)]).ddc()
    rhs = DiscreteMeasure([(p, a * m) for p, m in f.ddc().support]
                          + [(p, b * m) for p, m in g.ddc().support])
    assert lhs == rhs


def test_ddc_equals_sorted_reference():
    """The sort-free ddc is the reference measure, support order
    included, on self-loops, parallel edges, random and kinked functions,
    and the same functions with collinear breakpoints (zero kinks)."""
    functions = looped_and_kinked_functions(random.Random(5))
    kinks = 0
    for f in functions:
        measure = f.ddc()
        assert measure == reference_ddc(f)
        assert with_collinear_breakpoints(f).ddc() == measure
        kinks += sum(isinstance(p, EdgePoint) for p, _ in measure.support)
    assert kinks > 100


def test_ddc_drops_cancelled_vertex_mass(path3):
    """At b the two outgoing slopes of an affine path cancel, and so do
    the two ends of a self-loop at b and the edge into b."""
    line = pa(path3, {"e0": [(0, 0), (F(1, 2), 1), (1, 2)],
                      "e1": [(0, 2), (1, 4)]})
    assert line.ddc().support == ((Vertex("a"), 2), (Vertex("c"), -2))
    assert line.ddc() == reference_ddc(line)
    g = graph_from({"vertices": ["a", "b"],
                    "edges": [{"id": "s", "u": "a", "v": "b", "len": "1"},
                              {"id": "t", "u": "b", "v": "b", "len": "2"}],
                    "boundary": ["a"]})
    looped = pa(g, {"s": [(0, -1), (1, 1)], "t": [(0, 1), (1, 2), (2, 1)]})
    assert looped.ddc().support == ((Vertex("a"), 2),
                                    (EdgePoint("t", F(1)), -2))
    assert looped.ddc() == reference_ddc(looped)


def test_slopes_equal_difference_quotients():
    """_slopes builds each slope from integers; it is the quotient of the
    two differences on negative values, integer profiles and numerators
    and denominators far above 2**64."""
    rng = random.Random(11)
    for size in (1, 10, 2 ** 70, 10 ** 40):
        for _ in range(50):
            n = rng.randint(2, 6)
            offsets = sorted({F(rng.randint(0, size), rng.randint(1, size))
                              for _ in range(n)})
            values = [F(rng.randint(-size, size), rng.randint(1, size))
                      for _ in offsets]
            prof = tuple(zip(offsets, values))
            if len(prof) < 2:
                continue
            assert _slopes(prof) == [(v2 - v1) / (o2 - o1)
                                     for (o1, v1), (o2, v2)
                                     in zip(prof, prof[1:])]
    assert _slopes(((F(0), F(3)), (F(2), F(-1)), (F(5), F(-1)))) == [-2, 0]
    big = F(2 ** 80 + 1, 3)
    assert _slopes(((F(0), -big), (F(1, 2 ** 70), big))) == \
        [2 * big * 2 ** 70]


def test_subdivide_at_preserves_values(unit_edge):
    f = tent(unit_edge)
    f2, vid = f.subdivide_at(EdgePoint("e", F(1, 4)))
    assert f2.vertex_value(vid) == f.eval(EdgePoint("e", F(1, 4)))
    assert f2.graph.distance(Vertex("a"), Vertex(vid)) == F(1, 4)


def _subdivide_ref(f, p):
    """Reference subdivision, one point and one graph build at a time,
    sharing no code with MetricGraph.split: f carried onto its graph with
    the edge-interior point p made a vertex, and that vertex's id."""
    g = f.graph
    if isinstance(p, Vertex):
        raise GraphError("subdivide: point is already a vertex")
    g.require_point(p)
    e = g.edge(p.edge)
    new_v = f"{e.id}@{p.offset}"
    if new_v in g.vertices:
        raise GraphError(f"subdivide: vertex id collision on {new_v}")
    new_edges = [x for x in g.edges if x.id != e.id]
    new_edges.append(Edge(f"{e.id}.l", e.u, new_v, p.offset))
    new_edges.append(Edge(f"{e.id}.r", new_v, e.v, e.length - p.offset))
    g2 = MetricGraph(list(g.vertices) + [new_v], new_edges, g.boundary)
    val = f.eval(p)
    prof = f.profiles[e.id]
    left = [bp for bp in prof if bp[0] < p.offset] + [(p.offset, val)]
    right = [(F(0), val)] + [(o - p.offset, v) for o, v in prof
                             if o > p.offset]
    profiles = {eid: pr for eid, pr in f.profiles.items() if eid != e.id}
    profiles[f"{e.id}.l"] = left
    profiles[f"{e.id}.r"] = right
    return PAFunction(g2, profiles), new_v


def _split_by_subdivision(f, cuts):
    """Reference split: _subdivide_ref at the first cut in point order
    (lowest edge id, then lowest offset) until no cut is left."""
    pending = {eid: list(offsets) for eid, offsets in cuts.items() if offsets}
    while pending:
        eid = min(pending)
        o, *rest = pending.pop(eid)
        f, _ = _subdivide_ref(f, EdgePoint(eid, o))
        if rest:
            pending[f"{eid}.r"] = [x - o for x in rest]
    return f


def _promote_by_subdivision(f):
    """Reference promotion: subdivide at the first interior breakpoint in
    point order until none is left."""
    while True:
        pt = next((p for p in f.breakpoints() if isinstance(p, EdgePoint)),
                  None)
        if pt is None:
            return f
        f, _ = _subdivide_ref(f, pt)


def _same_split(f, cuts):
    """f.split(cuts) equals the reference split, and its
    pieces run from u to v with the lengths between the cuts."""
    got, pieces = f.split(cuts)
    want = _split_by_subdivision(f, cuts)
    assert got == want
    assert got.graph.vertices == want.graph.vertices
    assert got.graph.edges == want.graph.edges
    assert got.profiles == {eid: tuple(prof)
                            for eid, prof in want.profiles.items()}
    assert got._vertex_values == want._vertex_values
    assert pieces.keys() == {eid for eid, offsets in cuts.items() if offsets}
    for eid, edge_pieces in pieces.items():
        e = f.graph.edge(eid)
        ends = [F(0), *cuts[eid], e.length]
        assert [x.length for x in edge_pieces] == \
            [b - a for a, b in zip(ends, ends[1:])]
        assert [x.u for x in edge_pieces] == \
            [e.u] + [x.v for x in edge_pieces[:-1]]
        assert edge_pieces[-1].v == e.v
        assert all(got.graph.edge(x.id) == x for x in edge_pieces)
    return got


def _random_cuts(rng, f):
    """Per edge (some left uncut): a random mix of interior breakpoints
    and points off them, increasing."""
    cuts = {}
    for e in f.graph.edges:
        if rng.random() < 0.3:
            continue
        on = [o for o, _ in f.profiles[e.id][1:-1] if rng.random() < 0.5]
        off = [e.length * F(rng.randint(1, 99), 100)
               for _ in range(rng.randint(0, 3))]
        cuts[e.id] = sorted(set(on + off))
    return cuts


def test_split_matches_sequential_subdivision():
    """One split equals repeated one-point subdivision on looped, random
    and kinked functions; so do subdivide_at and subdivide at one point."""
    rng = random.Random(43)
    functions = looped_and_kinked_functions(rng)
    parallel = graph_from({
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "len": 2, "id": "p"},
                  {"u": "b", "v": "a", "len": 1, "id": "q"}],
        "boundary": ["a"]})
    functions.append(pa(parallel, {"p": [(0, 0), (1, 3), (2, 1)],
                                   "q": [(0, 1), (F(1, 2), -1), (1, 0)]}))
    several = 0
    for f in functions:
        for _ in range(3):
            cuts = _random_cuts(rng, f)
            _same_split(f, cuts)
            several += sum(len(offsets) > 1 for offsets in cuts.values())
        e = rng.choice(f.graph.edges)
        p = EdgePoint(e.id, e.length * F(rng.randint(1, 9), 10))
        got, want = f.subdivide_at(p), _subdivide_ref(f, p)
        assert got == want
        assert f.graph.subdivide(p) == (want[0].graph, want[1])
    assert several > 100
    # the parallel pair, cut at and between breakpoints
    _same_split(functions[-1], {"p": [F(1, 2), 1], "q": [F(1, 2)]})
    assert functions[-1].split({}) == (functions[-1], {})


def _all_fractions(f):
    return all(type(o) is F and type(v) is F
               for prof in f.profiles.values() for o, v in prof)


def test_int_offsets_give_fraction_pieces_and_profiles():
    """An int cut offset, in split or in an EdgePoint, gives the new
    graph's own Fraction-length pieces and (Fraction, Fraction) profile
    pairs, as the same offset given as a Fraction does."""
    g = graph_from({"vertices": ["a", "b"],
                    "edges": [{"u": "a", "v": "b", "len": 3, "id": "e"}],
                    "boundary": ["a"]})
    f = pa(g, {"e": [(0, 0), (2, 1), (3, 3)]})
    f2, pieces = f.split({"e": [1, 2]})
    assert _all_fractions(f2)
    assert (f2, pieces) == f.split({"e": [F(1), F(2)]})
    g2, graph_pieces = g.split({"e": [1]})
    for graph, ps in ((f2.graph, pieces), (g2, graph_pieces)):
        assert all(p is graph.edge(p.id) and type(p.length) is F
                   for p in ps["e"])
    assert type(EdgePoint("e", 1).offset) is F
    f3, vid = f.subdivide_at(EdgePoint("e", 1))
    assert _all_fractions(f3) and vid == "e@1"
    tent = green(g, EdgePoint("e", 1)).result
    assert _all_fractions(tent)
    assert tent == green(g, EdgePoint("e", F(1))).result


def _same_promotion(f):
    got, want = f.promote_interior_breakpoints(), _promote_by_subdivision(f)
    assert got == want
    assert got.graph.vertices == want.graph.vertices
    assert got.graph.edges == want.graph.edges
    assert all(len(prof) == 2 for prof in got.profiles.values())
    return got


def test_promotion_matches_sequential_subdivision():
    rng = random.Random(41)
    split = 0
    for _ in range(150):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        f = random_pa_function(rng, g, max_kinks=4)
        split += _same_promotion(f) is not f
    assert split > 100
    # a loop with three kinks, next to an edge without any
    loop = graph_from({"vertices": ["a", "b"],
                       "edges": [{"u": "a", "v": "a", "len": 2, "id": "o"},
                                 {"u": "a", "v": "b", "len": 1, "id": "p"}],
                       "boundary": ["b"]})
    f = pa(loop, {"o": [(0, 1), (F(1, 3), 0), (1, 2), (F(3, 2), 0), (2, 1)],
                  "p": [(0, 1), (1, 0)]})
    assert set(_same_promotion(f).graph.vertices) == \
        {"a", "b", "o@1/3", "o.r@2/3", "o.r.r@1/2"}
    # nothing to promote: the function itself
    g = pa(loop, {"o": [(0, 1), (2, 1)], "p": [(0, 1), (1, 0)]})
    assert g.promote_interior_breakpoints() is g


@pytest.mark.parametrize("vertices, edges, profiles", [
    # an input vertex already has the name of the promoted breakpoint
    (["a", "b", "e@1/2"], [("e", "a", "b", 1), ("x", "b", "e@1/2", 1)],
     {"e": [(0, 0), (F(1, 2), 1), (1, 0)], "x": [(0, 0), (1, 0)]}),
    # ... or of one promoted after the first split of the same edge
    (["a", "b", "e.r@1/4"], [("e", "a", "b", 1), ("x", "b", "e.r@1/4", 1)],
     {"e": [(0, 0), (F(1, 2), 1), (F(3, 4), 2), (1, 0)],
      "x": [(0, 0), (1, 0)]}),
    # a split edge's right half would reuse an input edge id
    (["a", "b", "c"], [("e", "a", "b", 1), ("e.r", "b", "c", 1)],
     {"e": [(0, 0), (F(1, 2), 1), (1, 0)], "e.r": [(0, 0), (1, 0)]}),
    # two collisions: edge e-x comes after e but before its right half e.r
    (["a", "b", "e.r@1/4", "e-x@1/2"],
     [("e", "a", "b", 1), ("e-x", "b", "e.r@1/4", 1),
      ("y", "e.r@1/4", "e-x@1/2", 1)],
     {"e": [(0, 0), (F(1, 2), 1), (F(3, 4), 2), (1, 0)],
      "e-x": [(0, 0), (F(1, 2), 1), (1, 0)], "y": [(0, 0), (1, 0)]}),
])
def test_promotion_collisions_match_sequential_subdivision(vertices, edges,
                                                           profiles):
    g = graph_from({"vertices": vertices,
                    "edges": [{"id": i, "u": u, "v": v, "len": n}
                              for i, u, v, n in edges],
                    "boundary": ["a"]})
    f = pa(g, profiles)
    with pytest.raises(GraphError) as want:
        _promote_by_subdivision(f)
    cuts = {eid: [o for o, _ in prof[1:-1]]
            for eid, prof in f.profiles.items()}
    for promote in (f.promote_interior_breakpoints, lambda: f.split(cuts),
                    lambda: g.split(cuts)):
        with pytest.raises(GraphError) as got:
            promote()
        assert str(got.value) == str(want.value)


def test_json_roundtrip(path3):
    f = pa(path3, {"e0": [(0, 0), (F(1, 2), 1), (1, 0)],
                   "e1": [(0, 0), (1, 2)]})
    assert PAFunction.from_json_dict(roundtrip_json(f.to_json_dict())) == f


def test_repeated_literals_load_as_parsed_one_by_one():
    """A file whose literals repeat (offset 0, lengths, shared values,
    integers among strings) loads to the function parsed value by value."""
    rng = random.Random(3)
    literals = ["0", "1/3", "2", "-1/3", "0.5", "5/10", "7"]
    edges, profiles = [], {}
    for i in range(12):
        length = rng.choice(["2", "7", "0.5"])
        edges.append({"id": f"e{i}", "u": "c", "v": f"l{i}", "len": length})
        mids = sorted({F(rng.randint(1, 9), 10) for _ in range(3)})
        profiles[f"e{i}"] = (
            [["0", "1/3"]]
            + [[str(m * parse_rational(length)), rng.choice(literals + [1])]
               for m in mids]
            + [[length, rng.choice(literals)]])
    text = json.dumps({"graph": {"vertices": ["c"] + [f"l{i}"
                                                      for i in range(12)],
                                 "edges": edges, "boundary": ["l0"]},
                       "profiles": profiles})
    d = json.loads(text, parse_int=parse_rational)
    f = PAFunction.from_json_dict(d)
    by_value = PAFunction(f.graph, {
        eid: [(parse_rational(o), parse_rational(v)) for o, v in prof]
        for eid, prof in d["profiles"].items()})
    assert f == by_value
    assert f._vertex_values == by_value._vertex_values


def _scan_eval(f, p):
    """Reference evaluation: a linear scan through the edge's profile."""
    if isinstance(p, Vertex):
        return f.vertex_value(p.id)
    prof = f.profiles[p.edge]
    for (o1, v1), (o2, v2) in zip(prof, prof[1:]):
        if o1 <= p.offset <= o2:
            return v1 + (v2 - v1) * (p.offset - o1) / (o2 - o1)
    raise AssertionError(f"{p} is outside its edge")


def _scan_next_breakpoint(f, edge_id, offset, toward_v):
    prof = f.profiles[edge_id]
    if toward_v:
        return next((ov for ov in prof if ov[0] > offset), None)
    return next((ov for ov in reversed(prof) if ov[0] < offset), None)


def _probe_points(rng, g, f):
    """Every vertex, every breakpoint of f, both edge ends as edge points,
    and random offsets on every edge."""
    pts = [Vertex(v) for v in g.vertices]
    for e in g.edges:
        pts += [EdgePoint(e.id, o) for o, _ in f.profiles[e.id]]
        pts += [EdgePoint(e.id, e.length * F(rng.randint(1, 999), 1000))
                for _ in range(3)]
    return pts


def _seeded_functions(seed, count=30):
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        yield rng, g, random_pa_function(rng, g, max_kinks=4)


def test_indexed_lookups_match_linear_scans():
    """eval and next_breakpoint bisect the offset index and integrate
    reads it through eval: all equal a linear scan.  At an edge's end,
    where the scan finds nothing, next_breakpoint raises."""
    ends = 0
    for rng, g, f in _seeded_functions(17):
        other = random_pa_function(rng, g, max_kinks=4)
        mu = other.ddc()
        for p in _probe_points(rng, g, f):
            assert f.eval(p) == _scan_eval(f, p)
            if not isinstance(p, EdgePoint):
                continue
            for toward_v in (True, False):
                want = _scan_next_breakpoint(f, p.edge, p.offset, toward_v)
                if want is not None:
                    assert f.next_breakpoint(p.edge, p.offset,
                                             toward_v) == want
                    continue
                ends += 1
                text = (f"edge {p.edge}: no breakpoint beyond offset "
                        f"{p.offset} toward {'v' if toward_v else 'u'}")
                with pytest.raises(GraphError, match=re.escape(text)):
                    f.next_breakpoint(p.edge, p.offset, toward_v)
        assert integrate(f, mu) == sum(
            (_scan_eval(f, p) * m for p, m in mu.support), F(0))
    assert ends >= 2 * 30   # each function has an edge, probed at both ends


def test_eval_off_the_graph_is_graph_error(unit_edge):
    f = tent(unit_edge)
    for p in (Vertex("z"), EdgePoint("x", F(1, 2)), EdgePoint("e", F(-1)),
              EdgePoint("e", F(3, 2))):
        with pytest.raises(GraphError, match="is not on the graph"):
            f.eval(p)


def _rebuilt(f):
    """The trusted result f, rebuilt by the validating constructor; also
    checks what the constructor derives besides the profiles."""
    g = PAFunction(f.graph, f.profiles)
    assert g == f
    assert g._vertex_values == f._vertex_values
    assert all(type(x) is Fraction for prof in f.profiles.values()
               for bp in prof for x in bp)
    assert all(type(x) is Fraction for x in f._vertex_values.values())
    return g


def test_trusted_results_equal_validated_ones():
    """PAFunction._of(...) == PAFunction(...) for each trusted caller:
    from_vertex_values (constant, Dirichlet and Green at vertex poles),
    Green at edge poles, promote_interior_breakpoints and
    linear_combine."""
    for rng, g, f in _seeded_functions(23):
        _rebuilt(PAFunction.constant(g, F(-3, 7)))
        _rebuilt(_rebuilt(f).promote_interior_breakpoints())
        terms = [(F(rng.randint(-5, 5), rng.randint(1, 5)), f),
                 (F(rng.randint(-5, 5), rng.randint(1, 5)),
                  random_pa_function(rng, g, max_kinks=4)),
                 (2, f)]
        combo = _rebuilt(linear_combine(terms))
        for p in _probe_points(rng, g, combo):
            assert combo.eval(p) == sum((c * _scan_eval(k, p)
                                         for c, k in terms), F(0))
        _rebuilt(dirichlet_solve(g, random_boundary_values(rng, g)))
        interior = [v for v in g.vertices if v not in g.boundary]
        if interior:
            _rebuilt(green(g, Vertex(rng.choice(interior))).result)
        e = rng.choice(g.edges)
        pole = EdgePoint(e.id, e.length * F(rng.randint(1, 99), 100))
        _rebuilt(green(g, pole).result)


def test_trusted_constructor_checks_continuity():
    g = graph_from({"vertices": ["a", "b", "c"],
                    "edges": [{"u": "a", "v": "b", "len": 1, "id": "e"},
                              {"u": "b", "v": "c", "len": 2, "id": "f"}],
                    "boundary": ["a"]})
    profiles = {"e": ((F(0), F(0)), (F(1), F(1))),
                "f": ((F(0), F(3)), (F(2), F(1)))}
    with pytest.raises(GraphError, match="discontinuity at vertex b"):
        PAFunction._of(g, profiles)
    g2 = graph_from({"vertices": ["a", "b", "c"],
                     "edges": [{"u": "a", "v": "b", "len": 1, "id": "e"}],
                     "boundary": ["a"]})
    with pytest.raises(GraphError, match="isolated vertices carry no value"):
        PAFunction._of(g2, {"e": profiles["e"]})


def _path_1_2():
    """a -- b -- c with edges e of length 1 and f of length 2."""
    return graph_from({"vertices": ["a", "b", "c"],
                       "edges": [{"u": "a", "v": "b", "len": 1, "id": "e"},
                                 {"u": "b", "v": "c", "len": 2, "id": "f"}],
                       "boundary": ["a"]})


@pytest.mark.parametrize("cuts, message", [
    ({"e": [F(3, 2)]},
     "edge e: cut offsets [3/2] must increase strictly inside (0, 1)"),
    ({"e": [0]},
     "edge e: cut offsets [0] must increase strictly inside (0, 1)"),
    ({"e": [1]},
     "edge e: cut offsets [1] must increase strictly inside (0, 1)"),
    ({"f": [F(1, 2), F(1, 2)]},
     "edge f: cut offsets [1/2, 1/2] must increase strictly inside (0, 2)"),
    ({"f": [F(3, 2), F(1, 2)]},
     "edge f: cut offsets [3/2, 1/2] must increase strictly inside (0, 2)"),
    ({"f": [F(1, 2), 1, 1]},
     "edge f: cut offsets [1/2, 1, 1] must increase strictly inside (0, 2)"),
    ({"e": ["1/2"]}, "edge e: cut offset '1/2' is not an int or a Fraction"),
    ({"e": [0.5]}, "edge e: cut offset 0.5 is not an int or a Fraction"),
    ({"e": 5}, "edge e: cut offsets 5 are not a list"),
    ({"e": 0}, "edge e: cut offsets 0 are not a list"),
    ({"f": (1,)}, "edge f: cut offsets (1,) are not a list"),
    ({"zz": [F(1, 2)]}, "unknown edge id 'zz'"),
])
def test_split_names_the_edge_and_its_bad_cut_offsets(cuts, message):
    """A graph or a function is cut only at a list of offsets that
    increase strictly inside the edge; otherwise a GraphError names the
    edge as given and its offsets, not a piece that was never built."""
    g = _path_1_2()
    f = PAFunction.from_vertex_values(g, {"a": 0, "b": 1, "c": 3})
    for split in (g.split, f.split):
        with pytest.raises(GraphError) as exc:
            split(cuts)
        assert str(exc.value) == message


def test_from_vertex_values_names_the_vertices_without_a_value():
    with pytest.raises(GraphError) as exc:
        PAFunction.from_vertex_values(_path_1_2(), {"a": 1})
    assert str(exc.value) == "missing values for vertices ['b', 'c']"


def test_next_breakpoint_on_an_unknown_edge_is_graph_error():
    f = PAFunction.from_vertex_values(_path_1_2(), {"a": 0, "b": 1, "c": 3})
    with pytest.raises(GraphError) as exc:
        f.next_breakpoint("zz", 0, True)
    assert str(exc.value) == "unknown edge id 'zz'"


@pytest.mark.parametrize("values, message", [
    ({"a": 0, "b": 1, "c": 3, "zz": 5}, "values for unknown vertices ['zz']"),
    ({"a": 0, "zz": 5, "yy": 6},
     "values for unknown vertices ['yy', 'zz']"),
    ({"a": 0, 7: 5}, "values for unknown vertices [7]"),
])
def test_from_vertex_values_names_ids_that_are_not_vertices(values, message):
    """Ids that are not vertices are named before missing vertices."""
    with pytest.raises(GraphError) as exc:
        PAFunction.from_vertex_values(_path_1_2(), values)
    assert str(exc.value) == message


@pytest.mark.parametrize("edge_id, offset, toward_v, message", [
    ("e", 0.5, True, "edge e: offset 0.5 is not an int or a Fraction"),
    ("e", "1/2", True, "edge e: offset '1/2' is not an int or a Fraction"),
    ("e", None, False, "edge e: offset None is not an int or a Fraction"),
    ("e", True, True, "edge e: offset True is not an int or a Fraction"),
    ("e", -1, True, "edge e: offset -1 lies outside [0, 1]"),
    ("e", -1, False, "edge e: offset -1 lies outside [0, 1]"),
    ("e", 5, False, "edge e: offset 5 lies outside [0, 1]"),
    ("f", F(5, 2), True, "edge f: offset 5/2 lies outside [0, 2]"),
    ("f", F(-1, 3), False, "edge f: offset -1/3 lies outside [0, 2]"),
])
def test_next_breakpoint_refuses_an_offset_off_the_edge(edge_id, offset,
                                                        toward_v, message):
    f = PAFunction.from_vertex_values(_path_1_2(), {"a": 0, "b": 1, "c": 3})
    with pytest.raises(GraphError) as exc:
        f.next_breakpoint(edge_id, offset, toward_v)
    assert str(exc.value) == message


def test_from_vertex_values_rejects_isolated_vertices():
    g = graph_from({"vertices": ["a", "b", "c"],
                    "edges": [{"u": "a", "v": "b", "len": 1, "id": "e"}],
                    "boundary": ["a"]})
    with pytest.raises(GraphError, match="isolated vertices carry no value"):
        PAFunction.from_vertex_values(g, {"a": 0, "b": 1, "c": 2})


@st.composite
def random_profile_fn(draw):
    from conftest import graph_from
    g = graph_from({"vertices": ["a", "b", "c"],
                    "edges": [{"u": "a", "v": "b", "len": 1, "id": "e0"},
                              {"u": "b", "v": "c", "len": 2, "id": "e1"}],
                    "boundary": ["a", "c"]})
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=8)
    va, vb, vc = draw(rat), draw(rat), draw(rat)
    k0 = draw(rat.map(lambda x: abs(x) / 12 + F(1, 100)))
    prof0 = [(F(0), va), (k0, draw(rat)), (F(1), vb)]
    prof1 = [(F(0), vb), (F(2), vc)]
    return PAFunction(g, {"e0": prof0, "e1": prof1})


@settings(max_examples=60, deadline=None)
@given(random_profile_fn())
def test_total_mass_zero_property(f):
    assert f.ddc().total_mass() == 0


@settings(max_examples=60, deadline=None)
@given(random_profile_fn(), random_profile_fn())
def test_pairing_symmetry_property(f, g):
    assert integrate(f, g.ddc()) == integrate(g, f.ddc())


@settings(max_examples=40, deadline=None)
@given(random_profile_fn(),
       st.fractions(min_value=-3, max_value=3, max_denominator=5),
       st.fractions(min_value=F(1, 5), max_value=4, max_denominator=5))
def test_subharmonicity_invariance(f, shift, scale):
    base = f.is_subharmonic_slope().ok
    g = linear_combine([(scale, f),
                        (F(1), PAFunction.constant(f.graph, shift))])
    assert g.is_subharmonic_slope().ok == base


_UNIT = {"vertices": ["a", "b"],
         "edges": [{"id": "e", "u": "a", "v": "b", "len": "1"}],
         "boundary": ["a", "b"]}


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "the top level must be a JSON object"),
    ({"profiles": {}}, "graph must be a JSON object"),
    ({"graph": dict(_UNIT, edges=[["a", "b", "1"]]), "profiles": {}},
     "graph.edges[0] must be a JSON object"),
    ({"graph": _UNIT}, "profiles must be a JSON object"),
    ({"graph": _UNIT, "profiles": []}, "profiles must be a JSON object"),
    ({"graph": _UNIT, "profiles": {"e": 5}},
     "profiles.e must be a list of [offset, value] pairs"),
    ({"graph": _UNIT, "profiles": {"e": [["0", "0", "0"], ["1", "1"]]}},
     "profiles.e must be a list of [offset, value] pairs"),
    ({"graph": _UNIT, "profiles": {"e": [["0", "0"], ["1", "1"]],
                                   "x3": [], "x1": [], "x0": [], "x2": []}},
     "profiles for unknown edges ['x0', 'x1', 'x2', 'x3']"),
])
def test_function_reader_refuses_malformed_shapes(doc, message):
    """The library reader refuses each shape the CLI refuses, with a
    GraphError naming the location; a set of edges is named in order."""
    with pytest.raises(GraphError) as exc:
        PAFunction.from_json_dict(doc)
    assert str(exc.value) == message


def test_offsets_must_increase_as_fractions_compare():
    """Seeded profiles of 2 to 6 breakpoints with offsets drawn from a
    few values, repeats and negatives included: the constructor refuses
    exactly those whose offsets do not increase, as Fraction's < says."""
    g = graph_from({"vertices": ["a", "b"],
                    "edges": [{"id": "e", "u": "a", "v": "b", "len": "5/3"}],
                    "boundary": ["a", "b"]})
    pool = [F(-1, 2), F(0), F(1, 3), F(2, 6), F(7, 9), F(1), F(5, 3)]
    rng = random.Random(31)
    refused = 0
    for _ in range(600):
        inner = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        offsets = [F(0), *inner, F(5, 3)]
        increasing = all(a < b for a, b in zip(offsets, offsets[1:]))
        profile = [(o, F(i)) for i, o in enumerate(offsets)]
        try:
            PAFunction(g, {"e": profile})
        except GraphError as exc:
            assert str(exc) == "edge e: offsets not increasing"
            assert not increasing
            refused += 1
        else:
            assert increasing
    assert 100 < refused < 590


@pytest.mark.parametrize("bad", [0.1, "1/2", True])
def test_functions_refuse_values_that_are_not_exact(path3, bad):
    """A float, a str or a bool is refused as a profile offset or value,
    a vertex value, a constant or a coefficient, naming the edge, the
    vertex or the term; an int becomes a Fraction."""
    cases = [
        (lambda: PAFunction(path3, {"e0": [(0, 0), (bad, 1), (1, 0)],
                                    "e1": [(0, 0), (1, 0)]}),
         "edge e0: offset"),
        (lambda: PAFunction(path3, {"e0": [(0, 0), (1, 0)],
                                    "e1": [(0, 0), (1, bad)]}),
         "edge e1: value"),
        (lambda: PAFunction.from_vertex_values(path3,
                                               {"a": 0, "b": bad, "c": 0}),
         "vertex b: value"),
        (lambda: PAFunction.constant(path3, bad), "constant: value"),
        (lambda: linear_combine([(1, PAFunction.constant(path3, 1)),
                                 (bad, PAFunction.constant(path3, 2))]),
         "linear_combine: term 1: coefficient"),
    ]
    for build, where in cases:
        with pytest.raises(GraphError) as exc:
            build()
        assert str(exc.value) == \
            f"{where} {bad!r} is not an int or a Fraction"
    f = linear_combine([(2, PAFunction.constant(path3, 1)),
                        (1, pa(path3, {"e0": [(0, 0), (1, 1)],
                                       "e1": [(0, 1), (1, 0)]}))])
    assert f == pa(path3, {"e0": [(0, 2), (1, 3)], "e1": [(0, 3), (1, 2)]})
    assert all(type(x) is F for prof in f.profiles.values()
               for bp in prof for x in bp)


@pytest.mark.parametrize("bad", [0.1, "1/2", True])
def test_measures_refuse_masses_that_are_not_exact(bad):
    """The DiscreteMeasure constructor refuses a float, a str or a bool
    mass, naming the atom, so no float reaches a pairing or a verdict; an
    int becomes a Fraction."""
    with pytest.raises(GraphError) as exc:
        DiscreteMeasure([(Vertex("a"), 1), (Vertex("b"), bad)])
    assert str(exc.value) == \
        f"atom Vertex(b): mass {bad!r} is not an int or a Fraction"
    mu = DiscreteMeasure([(Vertex("b"), 2), (Vertex("a"), 1),
                          (Vertex("b"), Fraction(-1, 2))])
    assert mu.support == ((Vertex("a"), 1), (Vertex("b"), Fraction(3, 2)))
    assert all(type(m) is Fraction for _, m in mu.support)


def test_vertex_value_names_an_unknown_vertex(path3):
    """An unknown vertex id is a GraphError naming it, not a KeyError."""
    f = pa(path3, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 3)]})
    assert f.vertex_value("c") == 3
    with pytest.raises(GraphError, match="^unknown vertex zz$"):
        f.vertex_value("zz")


def _reference_support(pairs):
    """The canonical support written out on its own: the masses at each
    point summed, zero masses dropped, sorted by point_sort_key."""
    acc = {}
    for p, m in pairs:
        acc[p] = acc.get(p, Fraction(0)) + Fraction(m)
    return tuple(sorted(((p, m) for p, m in acc.items() if m),
                        key=lambda pm: point_sort_key(pm[0])))


def test_measure_constructor_is_the_canonical_form():
    """On seeded atom lists (unsorted, points repeated, zero and int
    masses, cancelling pairs, edge points on loops), the constructor's
    support is the reference form exactly, order included, with Fraction
    masses; a second construction from it changes nothing."""
    rng = random.Random(37)
    seen = dict.fromkeys(["unsorted", "repeat", "zero", "int", "cancel",
                          "loop point"], 0)
    for _ in range(150):
        g = random_graph(rng, max_vertices=6, max_edges=9)
        pts = [Vertex(v) for v in g.vertices]
        pts += [EdgePoint(e.id, e.length * F(rng.randint(1, 7), 8))
                for e in g.edges for _ in range(2)]
        atoms = []
        for _ in range(rng.randint(0, 8)):
            p = rng.choice(pts)
            m = rng.choice([0, rng.randint(-3, 3),
                            F(rng.randint(-5, 5), rng.randint(1, 6))])
            atoms.append((p, m))
            if m and rng.randrange(4) == 0:
                atoms.append((p, -m))
                seen["cancel"] += 1
        rng.shuffle(atoms)
        mu = DiscreteMeasure(atoms)
        assert mu.support == _reference_support(atoms)
        assert all(type(m) is Fraction for _, m in mu.support)
        assert DiscreteMeasure(mu.support) == mu
        points = [p for p, _ in atoms]
        seen["unsorted"] += points != sorted(points, key=point_sort_key)
        seen["repeat"] += len(set(points)) < len(points)
        seen["zero"] += any(m == 0 for _, m in atoms)
        seen["int"] += any(type(m) is int for _, m in atoms)
        seen["loop point"] += any(isinstance(p, EdgePoint)
                                  and g.edge(p.edge).u == g.edge(p.edge).v
                                  for p in points)
    assert min(seen.values()) >= 20, seen


def test_cancelling_atoms_leave_no_mass():
    """Atoms +1 and -1 at one point cancel at construction."""
    mu = DiscreteMeasure(((Vertex("b"), 1), (Vertex("b"), -1)))
    assert mu.support == ()
    assert mu.mass_at(Vertex("b")) == 0
    assert mu.total_variation() == 0
    assert mu == DiscreteMeasure(())
