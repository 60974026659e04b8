"""Differential tests of the exact kernels of the kinked pipeline: ddc,
_slopes, the one-sweep Green oracle and the JSON form of a function.
_slopes and the JSON form are checked against a plain form kept here,
ddc and the Green oracle against the references in conftest.

The functions are seeded: random and kinked subharmonic functions on
random graphs, their promotions, self-loops, parallel edges, spoiled
(non-subharmonic) functions, the same functions with collinear
breakpoints (zero kinks), and functions read from 30-digit decimal
literals as `rationalize` candidates are.  Equality is exact, support
and violation order included.
"""

import random
from fractions import Fraction

from skelpot import (Edge, EdgePoint, MetricGraph, PAFunction, Vertex,
                     dirichlet_solve, format_rational, green,
                     is_subharmonic_green, linear_combine)
from skelpot.pa_function import _slopes
from skelpot.randgen import (random_boundary_values, random_graph,
                             random_non_subharmonic, random_pa_function,
                             random_subharmonic)

from conftest import (graph_from, kinked_subharmonic, looped_function, pa,
                      reference_ddc, sampled_green_verdict,
                      with_collinear_breakpoints)


F = Fraction


# -- the references -------------------------------------------------------


def _ref_slopes(prof):
    (o1, v1), *rest = prof
    p1, q1, a1, b1 = o1.numerator, o1.denominator, v1.numerator, v1.denominator
    out = []
    for o2, v2 in rest:
        p2, q2, a2, b2 = o2.numerator, o2.denominator, \
            v2.numerator, v2.denominator
        out.append(Fraction((a2 * b1 - a1 * b2) * q1 * q2,
                            b1 * b2 * (p2 * q1 - p1 * q2)))
        p1, q1, a1, b1 = p2, q2, a2, b2
    return out


def _to_json_dict_ref(f):
    """The JSON form with every length and breakpoint formatted on its
    own."""
    g = f.graph
    return {"profiles": {eid: [[format_rational(o), format_rational(v)]
                               for o, v in prof]
                         for eid, prof in sorted(f.profiles.items())},
            "graph": {"vertices": list(g.vertices),
                      "edges": [{"u": e.u, "v": e.v, "id": e.id,
                                 "len": format_rational(e.length)}
                                for e in g.edges],
                      "boundary": sorted(g.boundary)}}


# -- the seeded functions ---------------------------------------------------


def _parallel(rng):
    """Kinked function on two to four parallel edges between a boundary
    vertex a and an interior vertex b, and one more edge to c."""
    fa, fb, fc = (F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in "abc")
    edges, profiles = [], {}
    for i in range(rng.randint(2, 4)):
        length = F(rng.randint(1, 30), rng.randint(1, 7))
        offs = sorted({length * F(rng.randint(1, 49), 50)
                       for _ in range(rng.randint(0, 3))})
        profiles[f"p{i}"] = [(F(0), fa)] + [
            (o, F(rng.randint(-20, 20), rng.randint(1, 9))) for o in offs
        ] + [(length, fb)]
        edges.append({"id": f"p{i}", "u": "a", "v": "b", "len": str(length)})
    edges.append({"id": "q", "u": "b", "v": "c", "len": "3/2"})
    profiles["q"] = [(F(0), fb), (F(1, 3), fc), (F(3, 2), fb)]
    g = graph_from({"vertices": ["a", "b", "c"], "edges": edges,
                    "boundary": ["a"]})
    return pa(g, profiles)


def _decimal(x, digits=30):
    scaled = round(abs(x) * 10 ** digits)
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{'-' if x < 0 else ''}{whole}.{frac:0{digits}d}"


def _decimal_candidate(rng, f):
    """f read back from 30-digit decimal literals, as the approximate
    function `rationalize` snaps: every value and every interior offset
    is perturbed below 10**-7 and printed with 30 digits."""
    def noisy(x):
        return _decimal(x + F(rng.randint(-9, 9), 10 ** 7))
    vertex = {v: noisy(f.vertex_value(v)) for v in f.graph.vertices}
    profiles = {}
    for e in f.graph.edges:
        prof = f.profiles[e.id]
        profiles[e.id] = [["0", vertex[e.u]]] + [
            [_decimal(o), noisy(v)] for o, v in prof[1:-1]
        ] + [[str(e.length), vertex[e.v]]]
    return PAFunction.from_json_dict({"graph": f.graph.to_json_dict(),
                                      "profiles": profiles})


def _functions(seed):
    rng = random.Random(seed)
    out = [looped_function(rng) for _ in range(15)]
    out += [_parallel(rng) for _ in range(15)]
    for _ in range(15):
        g = random_graph(rng, max_vertices=8, max_edges=12)
        out.append(random_pa_function(rng, g, max_kinks=3))
        out.append(random_subharmonic(rng, g))
        if any(v not in g.boundary for v in g.vertices):
            kinked = kinked_subharmonic(rng, g)
            out += [kinked, kinked.promote_interior_breakpoints(),
                    _decimal_candidate(rng, kinked)]
            spoiled = random_non_subharmonic(rng, g)
            if spoiled is not None:
                out.append(spoiled)
            e = rng.choice(g.edges)
            tent = green(g, EdgePoint(e.id, e.length / 2)).result
            out.append(_decimal_candidate(rng, linear_combine(
                [(F(1), kinked), (F(rng.randint(1, 9), 4), tent)])))
    return out + [with_collinear_breakpoints(f) for f in out[::3]]


# -- the tests --------------------------------------------------------------


def _all_fractions(pairs):
    return all(type(m) is Fraction for _, m in pairs)


def test_slopes_equal_reference():
    count = 0
    for f in _functions(2201):
        for prof in f.profiles.values():
            got = _slopes(prof)
            assert got == _ref_slopes(prof)
            assert all(type(s) is Fraction for s in got)
            count += len(got)
    assert count > 1000


def test_ddc_equals_reference():
    """The measure, its support order included, on every seeded function;
    some have edge kinks, and some have negative mass off the boundary."""
    kinks = negative = 0
    for f in _functions(2202):
        measure = f.ddc()
        assert measure == reference_ddc(f)
        assert _all_fractions(measure.support)
        kinks += sum(isinstance(p, EdgePoint) for p, _ in measure.support)
        negative += not f.is_subharmonic_slope().ok
    assert kinks > 200 and negative > 20


def test_green_oracle_equals_reference():
    """The verdict and its violations, in order, on every seeded function;
    the violations are at vertices and at edge kinks on some of them."""
    at_vertex = at_edge = passed = 0
    for f in _functions(2203):
        verdict = is_subharmonic_green(f)
        assert verdict == sampled_green_verdict(f)
        assert _all_fractions(verdict.violations)
        at_vertex += any(isinstance(p, Vertex) for p, _ in verdict.violations)
        at_edge += any(isinstance(p, EdgePoint)
                       for p, _ in verdict.violations)
        passed += verdict.ok
    assert at_vertex > 10 and at_edge > 10 and passed > 20


def test_kernels_on_large_numerators():
    """Profiles whose numerators and denominators are far above 2**64."""
    rng = random.Random(2204)
    g = graph_from({"vertices": ["a", "b", "c"],
                    "edges": [{"id": "e", "u": "a", "v": "b", "len": "1"},
                              {"id": "f", "u": "b", "v": "c", "len": "2"}],
                    "boundary": ["a"]})
    for size in (2 ** 70, 10 ** 40):
        for _ in range(40):
            fb = F(rng.randint(-size, size), rng.randint(1, size))
            profiles = {}
            for eid, length in (("e", F(1)), ("f", F(2))):
                offs = sorted({length * F(rng.randint(1, size - 1), size)
                               for _ in range(3)})
                profiles[eid] = [(o, F(rng.randint(-size, size),
                                       rng.randint(1, size)))
                                 for o in [F(0)] + offs + [length]]
            profiles["e"][-1] = (F(1), fb)
            profiles["f"][0] = (F(0), fb)
            f = pa(g, profiles)
            assert f.ddc() == reference_ddc(f)
            assert is_subharmonic_green(f) == sampled_green_verdict(f)
            for prof in f.profiles.values():
                assert _slopes(prof) == _ref_slopes(prof)


def _fresh(x):
    return F(x.numerator, x.denominator)


def _unshared(f):
    """f on a copy of its graph, with every length, offset and value a
    Fraction object of its own: equal values are distinct objects."""
    g = f.graph
    graph = MetricGraph(g.vertices, [Edge(e.id, e.u, e.v, _fresh(e.length))
                                     for e in g.edges], g.boundary)
    return PAFunction(graph, {eid: [(_fresh(o), _fresh(v)) for o, v in prof]
                              for eid, prof in f.profiles.items()})


def test_to_json_dict_equals_reference():
    """On the seeded functions (self-loops and parallel edges among them)
    and on solves, where one value object sits at many edge ends and one
    length object ends many profiles; and on a copy of each whose equal
    values are all distinct objects."""
    rng = random.Random(2205)
    functions = _functions(2205)
    for _ in range(15):
        g = random_graph(rng, max_vertices=8, max_edges=12)
        functions.append(dirichlet_solve(g, random_boundary_values(rng, g)))
        inner = [v for v in g.vertices if v not in g.boundary]
        if inner:
            functions.append(green(g, Vertex(rng.choice(inner))).result)
        e = rng.choice(g.edges)
        functions.append(green(g, EdgePoint(e.id, e.length / 3)).result)
    shared = 0
    for f in functions:
        ends = [prof[i][1] for prof in f.profiles.values() for i in (0, -1)]
        shared += len(set(map(id, ends))) < len(ends)
        for h in (f, _unshared(f)):
            assert h.to_json_dict() == _to_json_dict_ref(h)
    assert shared > 20
