import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import skelpot.potential
from conftest import subprocess_env
from skelpot.graph import Edge, MetricGraph, Vertex
from skelpot.pa_function import PAFunction, linear_combine
from skelpot.potential import dirichlet_solve, green
from skelpot.randgen import (random_boundary_values, random_graph,
                             random_non_subharmonic, random_pa_function,
                             random_subharmonic)

GOLDEN = Path(__file__).parent / "data" / "golden"

DRAW = """
import random
from skelpot.randgen import (random_boundary_values, random_graph,
                             random_subharmonic)
rng = random.Random(3)
for _ in range(5):
    g = random_graph(rng, max_vertices=10)
    print(sorted(random_boundary_values(rng, g).items()))
    print(random_subharmonic(rng, g).to_json_dict())
"""


def _draw(hash_seed: str) -> str:
    env = subprocess_env()
    env["PYTHONHASHSEED"] = hash_seed
    out = subprocess.run([sys.executable, "-c", DRAW], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_draws_do_not_depend_on_hash_seed():
    """The same seed draws the same instances in every process."""
    assert _draw("1") == _draw("2")


def _interior(g):
    return [v for v in g.vertices if v not in g.boundary]


def _core_interior(g):
    """The interior vertices that are not chain vertices, that is, not of
    two edge ends other than the two ends of one loop."""
    return [v for v in _interior(g) if len(ends := g.incident_ends(v)) != 2
            or ends[0][0] is ends[1][0]]


def _superposed_subharmonic(rng, g):
    """The subharmonic draw built by superposition: the Dirichlet solve of
    the boundary data, minus c times the Green's function of each pole
    with a nonzero coefficient c."""
    terms = [(Fraction(1), dirichlet_solve(g, random_boundary_values(rng, g)))]
    interior = _interior(g)
    for _ in range(rng.randint(0, 3) if interior else 0):
        pole = Vertex(rng.choice(interior))
        c = Fraction(rng.randint(0, 4), rng.randint(1, 4))
        if c:
            terms.append((-c, green(g, pole).result))
    return linear_combine(terms)


def _superposed_non_subharmonic(rng, g):
    """The spoiled draw built by superposition: the subharmonic draw plus
    c times a Green's function, kept when its mass at the pole is < 0."""
    interior = _interior(g)
    if not interior:
        return None
    f = _superposed_subharmonic(rng, g)
    pole = Vertex(rng.choice(interior))
    c = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    out = linear_combine([(Fraction(1), f), (c, green(g, pole).result)])
    return out if out.ddc().mass_at(pole) < 0 else None


def _differential_graphs():
    rng = random.Random(3201)
    graphs = [random_graph(rng, max_vertices=6, max_edges=8)
              for _ in range(300)]
    for name in ("theta_graph.json", "dumbbell_graph.json"):
        g = MetricGraph.from_json_dict(json.loads((GOLDEN / name).read_text()))
        graphs += [g] * 10
    return graphs


@pytest.mark.parametrize("generate, reference", [
    (random_subharmonic, _superposed_subharmonic),
    (random_non_subharmonic, _superposed_non_subharmonic)])
def test_generators_match_superposition(monkeypatch, generate, reference):
    """One solve of the drawn data gives the superposition's function,
    None on the same draws and the same generator state after; there is
    no solve when every interior vertex is a chain vertex."""
    solves = []
    solve = skelpot.potential.solve_exact

    def counted(a, b):
        solves.append(len(a))
        return solve(a, b)

    returned = 0
    for seed, g in enumerate(_differential_graphs()):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = reference(want_rng, g)
        solves.clear()
        with monkeypatch.context() as m:
            m.setattr(skelpot.potential, "solve_exact", counted)
            got = generate(got_rng, g)
        assert got_rng.getstate() == want_rng.getstate()
        assert got == want
        if want is None:
            assert solves == []
            continue
        returned += 1
        assert got.to_json_dict() == want.to_json_dict()
        assert len(solves) == (1 if _core_interior(g) else 0)
    assert returned >= 150


def test_no_interior_vertex_draws_no_non_subharmonic_function():
    g = MetricGraph(["a", "b"], [Edge("e0", "a", "b", 1)], ["a", "b"])
    rng = random.Random(1)
    state = rng.getstate()
    assert random_non_subharmonic(rng, g) is None
    assert rng.getstate() == state


@pytest.mark.parametrize("max_vertices, max_edges",
                         [(12, 18), (8, 12), (10, 14), (7, 9)])
def test_graph_draws_are_connected_multigraphs(max_vertices, max_edges):
    """The sizes of criteria 2, 4, 5, 7 and 8: every draw is connected
    with a nonempty boundary and interior, and loops and repeated
    endpoint pairs both occur."""
    loops = repeats = 0
    for seed in range(100):
        g = random_graph(random.Random(seed), max_vertices, max_edges)
        n = len(g.vertices)
        assert g.is_connected()
        assert 2 <= n <= max_vertices
        assert len(g.edges) <= max(max_edges, n - 1)
        assert 1 <= len(g.boundary) <= max(1, n // 3)
        assert _interior(g)
        pairs = [frozenset((e.u, e.v)) for e in g.edges if e.u != e.v]
        loops += any(e.u == e.v for e in g.edges)
        repeats += len(set(pairs)) < len(pairs)
    assert loops > 0 and repeats > 0


def test_pa_draws_pass_the_checked_constructor():
    """random_pa_function builds its profiles with the trusted
    constructor; the checked one accepts them as the same function."""
    rng = random.Random(3202)
    for _ in range(100):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        f = random_pa_function(rng, g, max_kinks=4)
        assert PAFunction(g, f.profiles) == f
