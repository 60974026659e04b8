import random
from fractions import Fraction
from math import lcm

import pytest

import skelpot.potential
from skelpot import (EdgePoint, GraphError, MetricGraph, NotHarmonicError,
                     NotSubharmonicError, PAFunction, Vertex, dirichlet_solve,
                     evaluation_formula_check, green, green_to_json_dict,
                     integrate, is_subharmonic_green, linear_combine,
                     local_green_pairing, maximum_principle_check, poisson)
from skelpot.graph import Edge, exact
from skelpot.linalg import solve_exact
from skelpot.pa_function import DiscreteMeasure
from skelpot.potential import (GreenFunction, _check_dirichlet_pre,
                               _solve_laplacian)
from skelpot.randgen import (random_boundary_values, random_graph,
                             random_pa_function, random_subharmonic)

from conftest import (chained_grid, graph_from, looped_and_kinked_functions,
                      pa, sampled_green_verdict)


F = Fraction


def test_dirichlet_single_edge(unit_edge):
    h = dirichlet_solve(unit_edge, {"a": F(0), "b": F(1)})
    assert h == pa(unit_edge, {"e": [(0, 0), (1, 1)]})


def test_dirichlet_star_mean(star3):
    vals = {"l0": F(1), "l1": F(2), "l2": F(6)}
    h = dirichlet_solve(star3, vals)
    assert h.vertex_value("c") == F(3)   # (1 + 2 + 6) / 3


def test_dirichlet_constant(star3):
    h = dirichlet_solve(star3, {v: F(4) for v in star3.boundary})
    assert h == PAFunction.constant(star3, F(4))


def test_dirichlet_supported_on_boundary(path3):
    h = dirichlet_solve(path3, {"a": F(2), "c": F(-1)})
    assert all(isinstance(p, Vertex) and p.id in path3.boundary
               for p, _ in h.ddc().support)


def test_dirichlet_errors(path3):
    with pytest.raises(Exception):
        dirichlet_solve(path3, {"a": F(0)})  # missing boundary value
    disconnected = graph_from({
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"u": "a", "v": "b", "len": 1, "id": "e0"},
                  {"u": "c", "v": "d", "len": 1, "id": "e1"}],
        "boundary": ["a", "c"]})
    with pytest.raises(Exception):
        dirichlet_solve(disconnected, {"a": F(0), "c": F(1)})


def test_dirichlet_unchanged_by_subdivision(path3):
    vals = {"a": F(3), "c": F(-2)}
    h = dirichlet_solve(path3, vals)
    g2, _ = path3.subdivide(EdgePoint("e0", F(1, 3)))
    h2 = dirichlet_solve(g2, vals)
    for p in [Vertex("b"), EdgePoint("e1", F(1, 2))]:
        assert h.eval(p) == h2.eval(p)


def test_green_path_midpoint(path2):
    gf = green(path2, EdgePoint("e", F(1)))
    assert gf.result.eval(EdgePoint("e", F(1))) == F(1, 2)
    assert gf.boundary_masses.mass_at(Vertex("a")) == F(1, 2)
    assert gf.boundary_masses.mass_at(Vertex("b")) == F(1, 2)


def test_green_star_center(star3):
    gf = green(star3, Vertex("c"))
    assert gf.result.vertex_value("c") == F(1, 3)
    for leaf in ("l0", "l1", "l2"):
        assert gf.boundary_masses.mass_at(Vertex(leaf)) == F(1, 3)


def test_green_quarter_offset(unit_edge):
    gf = green(unit_edge, EdgePoint("e", F(1, 4)))
    assert gf.result.eval(EdgePoint("e", F(1, 4))) == F(3, 16)
    assert gf.boundary_masses.mass_at(Vertex("a")) == F(3, 4)
    assert gf.boundary_masses.mass_at(Vertex("b")) == F(1, 4)


def test_green_invariants(star3):
    gf = green(star3, Vertex("c"))
    m = gf.result.ddc()
    assert m.mass_at(Vertex("c")) == -1
    assert gf.boundary_masses.total_mass() == 1
    assert all(mass > 0 for _, mass in gf.boundary_masses.support)
    assert all(gf.result.vertex_value(v) == 0 for v in star3.boundary)
    assert gf.result.is_harmonic_on(
        {Vertex("c")} | {Vertex(v) for v in star3.boundary})


def _solve_uncontracted(g, boundary_values, sources):
    """Reference vertex values for _solve_laplacian: the same Laplacian
    system with an unknown at every interior vertex, chain vertices
    included, so that no chain is contracted.  Row i holds the nonzeros
    of interior vertex i, each scaled by the lcm of the numerators of its
    lengths; a loop's two ends cancel."""
    interior = [v for v in g.vertices if v not in g.boundary]
    index = {v: i for i, v in enumerate(interior)}
    values = {v: exact(boundary_values[v], "boundary vertex {}: value", v)
              for v in g.boundary}
    a, b = [], []
    for i, v in enumerate(interior):
        ends = [(e.length, w) for e, tv in g.incident_ends(v)
                if (w := e.v if tv else e.u) != v]
        scale = lcm(*(length.numerator for length, _ in ends))
        row = {i: 0}
        rhs = -scale * sources.get(v, 0)
        for length, w in ends:
            c = scale // length.numerator * length.denominator
            row[i] += c
            j = index.get(w)
            if j is None:
                rhs += c * values[w]
            else:
                row[j] = row.get(j, 0) - c
        a.append(row)
        b.append(rhs)
    x = solve_exact(a, b) if a else []
    values.update({v: x[index[v]] for v in interior})
    return values


def _green_by_subdivision(g, x):
    """Reference Green's function: an edge pole made a vertex of a
    subdivided graph, solved there with source -1, and the result carried
    back onto g with the pole's value as a breakpoint."""
    _check_dirichlet_pre(g)
    g.require_point(x)
    if isinstance(x, Vertex) and x.id in g.boundary:
        raise GraphError("pole on the boundary")
    if isinstance(x, EdgePoint):
        sub, pole_vid = g.subdivide(x)
    else:
        sub, pole_vid = g, x.id
    zero = {v: F(0) for v in sub.boundary}
    values = _solve_uncontracted(sub, zero, sources={pole_vid: F(-1)})
    if isinstance(x, EdgePoint):
        profiles = {}
        for e in g.edges:
            mid = ((x.offset, values[pole_vid]),) if e.id == x.edge else ()
            profiles[e.id] = ((F(0), values[e.u]), *mid,
                              (e.length, values[e.v]))
        result = PAFunction(g, profiles)
    else:
        result = PAFunction.from_vertex_values(g, values)
    masses = DiscreteMeasure(
        (Vertex(u), (values[e.v if tv else e.u] - values[u]) / e.length)
        for u in sub.boundary for e, tv in sub.incident_ends(u))
    return GreenFunction(x, result, masses)


def test_green_boundary_masses_equal_restricted_ddc():
    """The boundary masses, read off the result's end pieces, are exactly
    the Laplacian of the result restricted to the boundary, and the whole
    Green's function is the one solved on the graph subdivided at the
    pole: at vertex poles and at edge poles at random offsets, on graphs
    with parallel edges and with loops at boundary and at other vertices
    (poles on those too)."""
    rng = random.Random(13)
    poles_seen = 0
    for _ in range(30):
        base = random_graph(rng, max_vertices=8, max_edges=12)
        edges = list(base.edges)
        for _ in range(rng.randint(1, 3)):
            b = rng.choice(sorted(base.boundary))
            e = rng.choice(base.edges)
            edges.append(Edge(f"x{len(edges)}", b, b,
                              F(rng.randint(1, 9), rng.randint(1, 4))))
            w = rng.choice(base.vertices)
            edges.append(Edge(f"x{len(edges)}", w, w,
                              F(rng.randint(1, 9), rng.randint(1, 4))))
            edges.append(Edge(f"x{len(edges)}", e.u, e.v,
                              F(rng.randint(1, 9), rng.randint(1, 4))))
        g = MetricGraph(base.vertices, edges, base.boundary)
        poles = [Vertex(v) for v in g.vertices if v not in g.boundary]
        for e in rng.choices(base.edges, k=2) + edges[len(base.edges):]:
            poles.append(EdgePoint(e.id, e.length * rng.randint(1, 11) / 12))
        for x in poles:
            gf = green(g, x)
            assert gf == _green_by_subdivision(g, x)
            assert gf.boundary_masses == DiscreteMeasure(
                (p, m) for p, m in gf.result.ddc().support
                if isinstance(p, Vertex) and p.id in g.boundary)
            assert gf.boundary_masses.total_mass() == 1
            poles_seen += 1
    assert poles_seen > 200


def test_green_rejects_boundary_pole(star3):
    with pytest.raises(Exception):
        green(star3, Vertex("l0"))


def test_green_reciprocity():
    rng = random.Random(11)
    for _ in range(10):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        interior = [v for v in g.vertices if v not in g.boundary]
        if len(interior) < 2:
            continue
        x, y = rng.sample(interior, 2)
        gx = green(g, Vertex(x)).result
        gy = green(g, Vertex(y)).result
        assert gx.vertex_value(y) == gy.vertex_value(x)


def test_evaluation_formula(path2, star3):
    h = dirichlet_solve(path2, {"a": F(0), "b": F(1)})
    lhs, rhs = evaluation_formula_check(EdgePoint("e", F(1)), h)
    assert lhs == rhs == F(1, 2)
    vals = {"l0": F(1), "l1": F(5), "l2": F(0)}
    h2 = dirichlet_solve(star3, vals)
    lhs, rhs = evaluation_formula_check(Vertex("c"), h2)
    assert lhs == rhs == F(2)
    c = PAFunction.constant(star3, F(9))
    lhs, rhs = evaluation_formula_check(Vertex("c"), c)
    assert lhs == rhs == F(9)


def test_evaluation_formula_rejects_nonharmonic(unit_edge):
    f = pa(unit_edge, {"e": [(0, 0), (F(1, 2), 1), (1, 0)]})
    with pytest.raises(NotHarmonicError):
        evaluation_formula_check(EdgePoint("e", F(1, 3)), f)


def test_green_oracle_simple_verdicts(unit_edge):
    tent = pa(unit_edge, {"e": [(0, 0), (F(1, 2), 1), (1, 0)]})
    v = is_subharmonic_green(tent)
    assert not v.ok
    assert any(p == EdgePoint("e", F(1, 2)) for p, _ in v.violations)
    valley = pa(unit_edge, {"e": [(0, 1), (F(1, 2), 0), (1, 1)]})
    assert is_subharmonic_green(valley).ok


def test_green_oracle_needs_local_test():
    """A concave kink hiding in a valley: f stays below the harmonic
    extension of its boundary values everywhere, yet is not subharmonic.
    A global f <= h_f comparison would wrongly accept it; the local
    pairing flags the kink."""
    g = graph_from({"vertices": ["a", "b"],
                    "edges": [{"u": "a", "v": "b", "len": 4, "id": "e"}],
                    "boundary": ["a", "b"]})
    f = pa(g, {"e": [(0, 0), (1, -10), (2, -9), (3, -10), (4, 0)]})
    h = dirichlet_solve(g, {"a": F(0), "b": F(0)})
    assert all(f.eval(p) <= h.eval(p) for p in f.breakpoints())
    assert not f.is_subharmonic_slope().ok
    verdict = is_subharmonic_green(f)
    assert not verdict.ok
    assert any(p == EdgePoint("e", F(2)) for p, _ in verdict.violations)


def test_local_pairing_sign_matches_mass():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        f = random_pa_function(rng, g)
        m = f.ddc()
        for p, mass in m.support:
            if isinstance(p, Vertex) and p.id in g.boundary:
                continue
            pairing = local_green_pairing(f, p)
            assert (pairing > 0) == (mass > 0)
            assert (pairing < 0) == (mass < 0)


def _arm_length(f, base, edge_id, toward_v):
    """Half the distance from base to the nearest breakpoint (or endpoint)
    of f along the given edge-end: inside that arm f is affine."""
    e = f.graph.edge(edge_id)
    if isinstance(base, Vertex):
        base_off = F(0) if toward_v else e.length
    else:
        base_off = base.offset
    offsets = [o for o, _ in f.profiles[edge_id]]
    if toward_v:
        nxt = min(o for o in offsets + [e.length] if o > base_off)
        return (nxt - base_off) / 2
    prv = max(o for o in offsets + [F(0)] if o < base_off)
    return (base_off - prv) / 2


def _poles(rng, f):
    """Interior vertices, every interior breakpoint, every edge midpoint
    and one random point per edge."""
    g = f.graph
    poles = [Vertex(v) for v in g.vertices if v not in g.boundary]
    for e in g.edges:
        poles += [EdgePoint(e.id, o) for o, _ in f.profiles[e.id][1:-1]]
        poles.append(EdgePoint(e.id, e.length / 2))
        poles.append(EdgePoint(e.id, e.length * F(rng.randint(1, 999), 1000)))
    return poles


def test_pairing_equals_arm_end_reference():
    """The bisecting pairing is the same Fraction as a Green solve on the
    star of arms that end half way to the next breakpoint, on vertex
    poles (self-loops included), kinks, midpoints and random edge
    points."""
    rng = random.Random(5)
    functions = looped_and_kinked_functions(rng)
    poles = 0
    for f in functions:
        for x in _poles(rng, f):
            assert local_green_pairing(f, x) == _star_green_pairing(f, x)
            poles += 1
    assert poles > 1000


def test_green_oracle_equals_sampled_verdict():
    """Poles at the breakpoints of f give the verdict and the violations,
    in order, of a sample that adds the edge midpoints."""
    functions = looped_and_kinked_functions(random.Random(5))
    verdicts = [is_subharmonic_green(f) for f in functions]
    assert verdicts == [sampled_green_verdict(f) for f in functions]
    assert 0 < sum(v.ok for v in verdicts) < len(verdicts)


def test_pairing_errors(star3):
    f = PAFunction.constant(star3, F(1))
    for x, message in ((Vertex("l0"), "pole on the boundary"),
                       (Vertex("zz"), "is not on the graph"),
                       (EdgePoint("a0", F(1)), "is not on the graph")):
        with pytest.raises(GraphError, match=message):
            local_green_pairing(f, x)


def _star_green_pairing(f, x):
    """The local pairing by a full Green solve on the explicit star
    around x: center c, one boundary leaf per tangent direction."""
    g = f.graph
    leaves, edges, ends = [], [], {}
    for i, d in enumerate(g.star(x)):
        arm = _arm_length(f, x, d.edge, d.toward_v)
        if isinstance(x, Vertex):
            base = F(0) if d.toward_v else g.edge(d.edge).length
        else:
            base = x.offset
        leaves.append(f"l{i}")
        edges.append(Edge(f"a{i}", "c", f"l{i}", arm))
        ends[f"l{i}"] = EdgePoint(d.edge, base + arm if d.toward_v
                                  else base - arm)
    star = MetricGraph(["c"] + leaves, edges, leaves)
    mu = green(star, Vertex("c")).result.ddc()
    return sum(m * f.eval(x if p.id == "c" else ends[p.id])
               for p, m in mu.support)


def _random_star_function(rng):
    """Random PA function on a star of degree 1-6 with rational arm
    lengths, arms of either orientation, and 0-3 kinks per arm."""
    deg = rng.randint(1, 6)
    fc = F(rng.randint(-9, 9), rng.randint(1, 5))
    edges, profiles = [], {}
    for i in range(deg):
        length = F(rng.randint(1, 40), rng.randint(1, 9))
        outward = rng.random() < 0.5
        u, v = ("c", f"l{i}") if outward else (f"l{i}", "c")
        edges.append({"id": f"a{i}", "u": u, "v": v, "len": str(length)})
        offs = sorted({length * F(rng.randint(1, 99), 100)
                       for _ in range(rng.randint(0, 3))})
        prof = [(o, F(rng.randint(-9, 9), rng.randint(1, 5)))
                for o in [F(0)] + offs + [length]]
        end = 0 if outward else -1
        prof[end] = (prof[end][0], fc)
        profiles[f"a{i}"] = prof
    g = graph_from({"vertices": ["c"] + [f"l{i}" for i in range(deg)],
                    "edges": edges,
                    "boundary": [f"l{i}" for i in range(deg)]})
    return pa(g, profiles)


def test_local_pairing_matches_star_green_solve():
    """The closed-form star pairing equals the pairing against a full
    Green solve on the star, at vertex and edge-interior poles."""
    rng = random.Random(11)
    for _ in range(150):
        f = _random_star_function(rng)
        poles = [Vertex("c")]
        for e in f.graph.edges:
            poles += [EdgePoint(e.id, o) for o, _ in f.profiles[e.id][1:-1]]
            poles.append(EdgePoint(e.id, e.length * F(rng.randint(1, 9), 10)))
        for x in poles:
            assert local_green_pairing(f, x) == _star_green_pairing(f, x)


def test_maximum_principle_examples(unit_edge):
    valley = pa(unit_edge, {"e": [(0, 1), (F(1, 2), 0), (1, 1)]})
    assert maximum_principle_check(valley)
    h = dirichlet_solve(unit_edge, {"a": F(0), "b": F(1)})
    assert maximum_principle_check(h)
    tent = pa(unit_edge, {"e": [(0, 0), (F(1, 2), 1), (1, 0)]})
    with pytest.raises(NotSubharmonicError):
        maximum_principle_check(tent)


def test_green_pairing_vs_harmonic_gap():
    """integrate(f, ddc g_x) = h_f(x) - f(x), where h_f extends f's
    boundary values; the identity that motivates the Green oracle."""
    rng = random.Random(9)
    for _ in range(10):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        interior = [v for v in g.vertices if v not in g.boundary]
        if not interior:
            continue
        f = random_subharmonic(rng, g)
        x = Vertex(rng.choice(interior))
        gf = green(g, x)
        h = dirichlet_solve(g, {v: f.vertex_value(v)
                                for v in g.boundary})
        lhs = integrate(f, gf.result.ddc())
        assert lhs == h.eval(x) - f.eval(x)


def test_green_json_shape(star3):
    d = green_to_json_dict(green(star3, Vertex("c")))
    assert set(d) == {"pole", "function", "boundary_masses"}
    assert d["pole"] == {"vertex": "c"}


def _random_atoms(rng, g):
    """1 to 4 nonzero atoms at interior vertices and inside edges, loops
    included; an edge atom goes on the previous atom's edge one time in
    three."""
    interior = [v for v in g.vertices if v not in g.boundary]
    atoms, e = [], rng.choice(g.edges)
    for _ in range(rng.randint(1, 4)):
        mass = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        if interior and rng.randrange(10) < 3:
            atoms.append((Vertex(rng.choice(interior)), mass))
            continue
        if rng.randrange(3):
            e = rng.choice(g.edges)
        atoms.append((EdgePoint(e.id, e.length * F(rng.randint(1, 15), 16)),
                      mass))
    return atoms


def test_poisson_is_the_superposition_of_dirichlet_and_green():
    """On seeded multigraphs, poisson is the Dirichlet solve of the
    boundary values minus m times the Green's function of each atom m,
    and its ddc off the boundary is mu exactly."""
    rng = random.Random(34)
    seen = {"loop atom": 0, "shared edge": 0, "vertex atom": 0}
    for _ in range(220):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        bv = random_boundary_values(rng, g)
        mu = DiscreteMeasure(_random_atoms(rng, g))
        f = poisson(g, mu, bv)
        assert f == linear_combine(
            [(1, dirichlet_solve(g, bv))]
            + [(-m, green(g, x).result) for x, m in mu.support])
        assert tuple((p, m) for p, m in f.ddc().support
                     if not (isinstance(p, Vertex) and p.id in g.boundary)
                     ) == mu.support
        on_edges = [x.edge for x, _ in mu.support if isinstance(x, EdgePoint)]
        seen["shared edge"] += len(on_edges) > len(set(on_edges))
        seen["loop atom"] += any(g.edge(eid).u == g.edge(eid).v
                                 for eid in on_edges)
        seen["vertex atom"] += len(on_edges) < len(mu.support)
    assert min(seen.values()) >= 20, seen


def test_poisson_reads_a_raw_measure_as_its_canonical_form():
    """A measure built from atoms unsorted, with a point repeated and
    zero masses, gives the function of its canonical form: the
    DiscreteMeasure constructor reads it, so poisson never sees another."""
    rng = random.Random(35)
    for _ in range(40):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        bv = random_boundary_values(rng, g)
        atoms = _random_atoms(rng, g)
        atoms += [atoms[0], (atoms[-1][0], F(0))]
        rng.shuffle(atoms)
        raw = DiscreteMeasure(tuple(atoms))
        assert poisson(g, raw, bv) == poisson(g, DiscreteMeasure(atoms), bv)
    g = random_graph(random.Random(36), 5, 6)
    e = g.edges[0]
    x = EdgePoint(e.id, e.length / 2)
    bv = dict.fromkeys(g.boundary, 0)
    cancelled = DiscreteMeasure(((x, F(1)), (x, F(-1))))
    assert poisson(g, cancelled, bv) == dirichlet_solve(g, bv)


def test_poisson_errors(path3):
    bv = {"a": F(0), "c": F(1)}
    with pytest.raises(GraphError, match="^pole on the boundary$"):
        poisson(path3, DiscreteMeasure(((Vertex("c"), F(1)),)), bv)
    off = EdgePoint("zz", F(1, 2))
    with pytest.raises(GraphError) as exc:
        poisson(path3, DiscreteMeasure(((off, F(1)),)), bv)
    assert str(exc.value) == \
        'point {"edge": "zz", "offset": "1/2"} is not on the graph'
    with pytest.raises(GraphError) as exc:
        poisson(path3, DiscreteMeasure(((Vertex("b"), F(1)),)), {"a": F(0)})
    assert str(exc.value) == "missing boundary values for ['c']"


@pytest.mark.parametrize("bad", [0.1, "1/2", True])
def test_solves_refuse_values_that_are_not_exact(path3, bad):
    """A float, a str or a bool is refused where a boundary value or a
    mass enters a solve, naming the vertex or the atom; an int becomes a
    Fraction."""
    with pytest.raises(GraphError) as exc:
        dirichlet_solve(path3, {"a": bad, "c": 0})
    assert str(exc.value) == \
        f"boundary vertex a: value {bad!r} is not an int or a Fraction"
    with pytest.raises(GraphError) as exc:
        poisson(path3, DiscreteMeasure(((Vertex("b"), bad),)), {"a": 0, "c": 0})
    assert str(exc.value) == \
        f"atom Vertex(b): mass {bad!r} is not an int or a Fraction"
    h = dirichlet_solve(path3, {"a": 1, "c": 0})
    assert h.vertex_value("b") == F(1, 2)
    assert all(type(x) is F for prof in h.profiles.values()
               for bp in prof for x in bp)
    assert poisson(path3, DiscreteMeasure(((Vertex("b"), 2),)),
                   {"a": 0, "c": 0}).vertex_value("b") == -1


def test_dirichlet_refuses_values_off_the_boundary(path3):
    """A value for an interior vertex or for no vertex of the graph is
    refused in the words of the `harmonic` reader, not ignored."""
    for values, named in [({"a": 0, "c": 0, "b": 1}, "['b']"),
                          ({"a": 0, "c": 0, "zz": 1, "b": 2}, "['b', 'zz']")]:
        with pytest.raises(GraphError) as exc:
            dirichlet_solve(path3, values)
        assert str(exc.value) == f"values for vertices off the boundary {named}"
        with pytest.raises(GraphError) as exc:
            poisson(path3, DiscreteMeasure(((Vertex("b"), F(1)),)), values)
        assert str(exc.value) == f"values for vertices off the boundary {named}"


# -- model independence: chains of degree-2 vertices in closed form ---------


def _uncontracted(monkeypatch, g, mu, bv):
    """poisson(g, mu, bv) with _solve_uncontracted as its solve."""
    with monkeypatch.context() as m:
        m.setattr(skelpot.potential, "_solve_laplacian", _solve_uncontracted)
        return poisson(g, mu, bv)


def _solve_sizes(monkeypatch, call):
    """call()'s result and the size of each solve_exact it makes."""
    sizes = []

    def counted(a, b):
        sizes.append(len(a))
        return solve_exact(a, b)
    with monkeypatch.context() as m:
        m.setattr(skelpot.potential, "solve_exact", counted)
        return call(), sizes


def _carried_measure(mu, pieces):
    """mu on the graph split made with these pieces: an atom at a cut is
    at the new vertex, any other edge atom inside the piece it falls in."""
    atoms = []
    for x, m in mu.support:
        start = F(0)
        for p in pieces.get(getattr(x, "edge", None), ()):
            if x.offset < start + p.length:
                x = EdgePoint(p.id, x.offset - start)
                break
            if x.offset == start + p.length:
                x = Vertex(p.v)
                break
            start += p.length
        atoms.append((x, m))
    return DiscreteMeasure(atoms)


def _check_model_independence(monkeypatch, g, mu, bv, cuts):
    """poisson on g equals the uncontracted solve, and carried onto
    g.split(cuts) it is poisson there, with one value object per vertex;
    returns the function on the split graph."""
    f = poisson(g, mu, bv)
    assert f == _uncontracted(monkeypatch, g, mu, bv)
    f2, pieces = f.split(cuts)
    mu2 = _carried_measure(mu, pieces)
    got = poisson(f2.graph, mu2, bv)
    assert got == f2
    assert got == _uncontracted(monkeypatch, f2.graph, mu2, bv)
    for v in got.graph.vertices:
        ends = [got.profiles[e.id][0 if tv else -1][1]
                for e, tv in got.graph.incident_ends(v)]
        assert len({id(x) for x in ends}) == 1
    return got


def test_poisson_does_not_depend_on_the_model(monkeypatch):
    """Model independence: on seeded multigraphs cut at random rational
    offsets (an atom's own offset among them one time in two), poisson on
    the split graph is poisson on the graph carried onto it, exactly, and
    both equal the solve with an unknown at every interior vertex.  The
    cuts make chain vertices, loops of chains and atoms at and between
    them."""
    rng = random.Random(36)
    seen = {"loop cut": 0, "atom at a cut": 0, "chain of 3+": 0}
    for _ in range(120):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        bv = random_boundary_values(rng, g)
        mu = DiscreteMeasure(_random_atoms(rng, g))
        cuts = {}
        for e in rng.sample(g.edges, rng.randint(1, min(3, len(g.edges)))):
            offsets = {e.length * F(rng.randint(1, 23), 24)
                       for _ in range(rng.randint(1, 3))}
            at_atoms = {x.offset for x, _ in mu.support
                        if getattr(x, "edge", None) == e.id}
            if at_atoms and rng.randrange(2):
                offsets.add(rng.choice(sorted(at_atoms)))
                seen["atom at a cut"] += 1
            cuts[e.id] = sorted(offsets)
            seen["loop cut"] += e.u == e.v
            seen["chain of 3+"] += len(offsets) >= 2
        _check_model_independence(monkeypatch, g, mu, bv, cuts)
    assert min(seen.values()) >= 15, seen


def _graph(edges, boundary):
    """The graph of (id, u, v, length) edges on their endpoints."""
    return MetricGraph({x for _, u, v, _ in edges for x in (u, v)},
                       [Edge(i, u, v, F(n)) for i, u, v, n in edges],
                       boundary)


# name: (edges, boundary, atoms, the size of the one solve or None)
CHAIN_CASES = {
    # u -- c1 -- c2 -- u, a chain from u back to itself, atoms at a chain
    # vertex and inside a chain edge
    "chain back to its vertex": (
        [("e0", "b", "u", "2"), ("e1", "u", "c1", "1/2"),
         ("e2", "c1", "c2", "2/3"), ("e3", "c2", "u", "3/4"),
         ("e4", "u", "b2", "5/2")],
        ["b", "b2"], [("c1", "-3/2"), (("e2", "1/3"), "2")], 1),
    # two parallel chains and a plain edge from u to w
    "parallel chains": (
        [("e0", "a", "u", "1"), ("e1", "u", "c1", "1/3"),
         ("e2", "c1", "w", "2"), ("e3", "u", "c2", "3/2"),
         ("e4", "c2", "w", "1/5"), ("e5", "u", "w", "7/4"),
         ("e6", "w", "b", "1")],
        ["a", "b"], [("c2", "1"), (("e1", "1/6"), "-2"), ("u", "1/2")], 2),
    # chains from boundary vertex a to u and from u to boundary vertex b
    "chains ending on the boundary": (
        [("e0", "a", "c1", "1/2"), ("e1", "c1", "c2", "3"),
         ("e2", "c2", "u", "1/4"), ("e3", "u", "b", "2"),
         ("e4", "u", "d", "5/3"), ("e5", "d", "b", "1/7")],
        ["a", "b"], [("c1", "1"), ("d", "-1"), (("e5", "1/14"), "3")], 1),
    # every interior vertex a chain vertex: a path and a loop of chains at
    # a boundary vertex, and no solve at all
    "interior all chain vertices": (
        [("e0", "a", "c1", "1"), ("e1", "c1", "c2", "1/2"),
         ("e2", "c2", "b", "1/3"), ("e3", "a", "d1", "2"),
         ("e4", "d1", "d2", "3/4"), ("e5", "d2", "a", "5/4")],
        ["a", "b"], [("c2", "2"), ("d1", "-1"), (("e4", "1/4"), "1")], None),
}


@pytest.mark.parametrize("name", CHAIN_CASES)
def test_chain_cases_against_the_uncontracted_solve(monkeypatch, name):
    """Each case solves only its core (size pinned), agrees with the
    uncontracted solve, has ddc mu off the boundary and is carried onto a
    split of every edge at its third."""
    edges, boundary, atoms, size = CHAIN_CASES[name]
    g = _graph(edges, boundary)
    mu = DiscreteMeasure(
        (Vertex(x) if isinstance(x, str) else EdgePoint(x[0], F(x[1])), F(m))
        for x, m in atoms)
    bv = {v: F(i + 1, 3) for i, v in enumerate(sorted(g.boundary))}
    f, sizes = _solve_sizes(monkeypatch, lambda: poisson(g, mu, bv))
    assert sizes == ([] if size is None else [size])
    assert tuple((p, m) for p, m in f.ddc().support
                 if not (isinstance(p, Vertex) and p.id in g.boundary)
                 ) == mu.support
    cuts = {e.id: [e.length / 3] for e in g.edges}
    _check_model_independence(monkeypatch, g, mu, bv, cuts)


def test_core_solve_matches_the_uncontracted_solve_on_chained_grids():
    """On chained grids, the vertex values of the core solve, with
    sources at chain vertices, core vertices and none, are those of the
    solve with an unknown at every interior vertex."""
    rng = random.Random(37)
    for k, chain in [(2, 3), (3, 2), (4, 3), (5, 3)]:
        g = chained_grid(rng, k, chain)
        interior = [v for v in g.vertices if v not in g.boundary]
        bv = {v: F(rng.randint(-9, 9), rng.randint(1, 5)) for v in g.boundary}
        for n in (0, 1, 3):
            sources = {v: F(rng.randint(-5, 5), rng.randint(1, 4))
                       for v in rng.sample(interior, n)}
            assert _solve_laplacian(g, bv, sources) == \
                _solve_uncontracted(g, bv, sources)
