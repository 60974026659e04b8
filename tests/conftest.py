"""Fixtures and helpers shared by the test modules, which import them
from here and never from one another.

- `subprocess_env`: the environment for a child interpreter.
- `graph_from`, `pa`, `roundtrip_json` and the fixtures `path2`,
  `unit_edge`, `star3` and `path3`: small graphs and functions.
- Seeded shapes: `kinked_subharmonic`, `looped_function` (self-loops),
  `looped_and_kinked_functions`, `with_collinear_breakpoints` and
  `chained_grid`.
- One reference per kernel that several modules check: `reference_ddc`
  for `PAFunction.ddc` and `sampled_green_verdict` for
  `is_subharmonic_green`.
"""

import json
import os
import pathlib
from fractions import Fraction

import pytest

import skelpot
from skelpot import (DiscreteMeasure, EdgePoint, MetricGraph, PAFunction,
                     Vertex, green, linear_combine, local_green_pairing)
from skelpot.graph import Edge, point_sort_key
from skelpot.potential import GreenVerdict
from skelpot.randgen import (random_graph, random_pa_function,
                             random_subharmonic)

F = Fraction


def subprocess_env() -> dict:
    """This process's environment, with the imported skelpot's source
    directory first on PYTHONPATH, so a child interpreter imports the
    same package."""
    env = dict(os.environ)
    src = str(pathlib.Path(skelpot.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    return env


def graph_from(spec: dict) -> MetricGraph:
    return MetricGraph.from_json_dict(spec)


@pytest.fixture
def path2():
    """Single edge a--b of length 2, both ends boundary."""
    return graph_from({
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "len": 2, "id": "e"}],
        "boundary": ["a", "b"]})


@pytest.fixture
def unit_edge():
    return graph_from({
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "len": 1, "id": "e"}],
        "boundary": ["a", "b"]})


@pytest.fixture
def star3():
    """Center c with three unit arms, leaves on the boundary."""
    return graph_from({
        "vertices": ["c", "l0", "l1", "l2"],
        "edges": [{"u": "c", "v": f"l{i}", "len": 1, "id": f"a{i}"}
                  for i in range(3)],
        "boundary": ["l0", "l1", "l2"]})


@pytest.fixture
def path3():
    """a -- b -- c, unit edges, ends on the boundary."""
    return graph_from({
        "vertices": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "len": 1, "id": "e0"},
                  {"u": "b", "v": "c", "len": 1, "id": "e1"}],
        "boundary": ["a", "c"]})


def pa(graph, profiles) -> PAFunction:
    conv = {eid: [(Fraction(o), Fraction(v)) for o, v in prof]
            for eid, prof in profiles.items()}
    return PAFunction(graph, conv)


def roundtrip_json(obj):
    return json.loads(json.dumps(obj))


def kinked_subharmonic(rng, g: MetricGraph, max_poles: int = 3) -> PAFunction:
    """random_subharmonic minus positive multiples of Green's functions at
    edge-interior poles, so the function also has kinks inside edges."""
    terms = [(Fraction(1), random_subharmonic(rng, g))]
    for _ in range(rng.randint(1, max_poles)):
        e = rng.choice(g.edges)
        pole = EdgePoint(e.id, e.length * rng.randint(1, 7) / 8)
        terms.append((-Fraction(rng.randint(1, 4), rng.randint(1, 4)),
                      green(g, pole).result))
    return linear_combine(terms)


def looped_function(rng) -> PAFunction:
    """Kinked function on c with a boundary edge s to b and one or two
    self-loops at c, which are parallel edges too."""
    fc = F(rng.randint(-9, 9), rng.randint(1, 5))
    edges, profiles = [], {}
    for i in range(rng.randint(2, 3)):
        length = F(rng.randint(1, 40), rng.randint(1, 9))
        offs = sorted({length * F(rng.randint(1, 99), 100)
                       for _ in range(rng.randint(0, 3))})
        prof = [(o, F(rng.randint(-9, 9), rng.randint(1, 5)))
                for o in [F(0)] + offs + [length]]
        prof[0] = (F(0), fc)
        eid, v = ("s", "b") if i == 0 else (f"loop{i}", "c")
        if i:
            prof[-1] = (length, fc)
        edges.append({"id": eid, "u": "c", "v": v, "len": str(length)})
        profiles[eid] = prof
    g = graph_from({"vertices": ["b", "c"], "edges": edges,
                    "boundary": ["b"]})
    return pa(g, profiles)


def looped_and_kinked_functions(rng) -> list[PAFunction]:
    """40 functions with self-loops, then random and kinked subharmonic
    functions on random graphs."""
    functions = [looped_function(rng) for _ in range(40)]
    for _ in range(20):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        functions.append(random_pa_function(rng, g))
        if any(v not in g.boundary for v in g.vertices):
            functions.append(kinked_subharmonic(rng, g))
    return functions


def with_collinear_breakpoints(f: PAFunction) -> PAFunction:
    """f with a breakpoint added at a third of every piece: the same
    function, with a zero kink at each new breakpoint."""
    profiles = {}
    for eid, prof in f.profiles.items():
        new = [prof[0]]
        for (o1, v1), (o2, v2) in zip(prof, prof[1:]):
            new += [(o1 + (o2 - o1) / 3, v1 + (v2 - v1) / 3), (o2, v2)]
        profiles[eid] = new
    return PAFunction(f.graph, profiles)


def chained_grid(rng, k: int, chain: int) -> MetricGraph:
    """k x k grid, every grid edge split into `chain` edges of random
    rational length; boundary = first row and first column."""
    vertices = [f"g{i}_{j}" for i in range(k) for j in range(k)]
    edges = []
    for i in range(k):
        for j in range(k):
            for a, b in ((i + 1, j), (i, j + 1)):
                if a == k or b == k:
                    continue
                prev = f"g{i}_{j}"
                for c in range(chain):
                    nxt = (f"g{a}_{b}" if c == chain - 1
                           else f"c{len(edges)}")
                    if c < chain - 1:
                        vertices.append(nxt)
                    edges.append(Edge(f"e{len(edges)}", prev, nxt,
                                      F(rng.randint(1, 30), rng.randint(1, 7))))
                    prev = nxt
    boundary = [f"g0_{j}" for j in range(k)] + [f"g{i}_0" for i in range(k)]
    return MetricGraph(vertices, edges, boundary)


def reference_ddc(f: PAFunction) -> DiscreteMeasure:
    """ddc as the sum of every edge end's outgoing slope and every
    breakpoint's kink, gathered and sorted by the DiscreteMeasure
    constructor."""
    pairs = []
    for e in f.graph.edges:
        prof = f.profiles[e.id]
        slopes = [(v2 - v1) / (o2 - o1)
                  for (o1, v1), (o2, v2) in zip(prof, prof[1:])]
        pairs.append((Vertex(e.u), slopes[0]))
        pairs.append((Vertex(e.v), -slopes[-1]))
        for i, (o, _) in enumerate(prof[1:-1], start=1):
            pairs.append((EdgePoint(e.id, o), slopes[i] - slopes[i - 1]))
    return DiscreteMeasure(pairs)


def sampled_green_verdict(f: PAFunction) -> GreenVerdict:
    """The Green oracle's verdict over interior vertices, interior
    breakpoints and every edge midpoint that is not a breakpoint, each
    pole's pairing from local_green_pairing."""
    g = f.graph
    sample = [Vertex(v) for v in g.vertices if v not in g.boundary]
    for e in g.edges:
        offsets = [o for o, _ in f.profiles[e.id]]
        sample += [EdgePoint(e.id, o) for o in offsets[1:-1]]
        if e.length / 2 not in offsets:
            sample.append(EdgePoint(e.id, e.length / 2))
    bad = [(x, val) for x in sample
           if (val := local_green_pairing(f, x)) < 0]
    bad.sort(key=lambda pv: point_sort_key(pv[0]))
    return GreenVerdict(not bad, tuple(bad))
