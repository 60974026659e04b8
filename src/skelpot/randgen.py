"""Seeded random instances: metric graphs, piecewise-affine functions,
subharmonic and non-subharmonic examples.

Everything is driven by a `random.Random` instance so a fixed seed gives
a reproducible stream across platforms (the stdlib generator is
deterministic for the integer methods used here).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graph import Edge, MetricGraph, Vertex
from .pa_function import PAFunction, linear_combine
from .potential import dirichlet_solve, green


def _rand_fraction(rng: random.Random, max_den: int = 10,
                   lo: int = -3, hi: int = 3) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def _rand_length(rng: random.Random, max_den: int = 10) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(1, 4 * den)
    return Fraction(num, den)


def random_graph(rng: random.Random, max_vertices: int = 12,
                 max_edges: int = 18, n_boundary: int | None = None
                 ) -> MetricGraph:
    """Connected simple graph with rational edge lengths and a nonempty
    boundary set."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    used = set()
    # random spanning tree: attach each vertex to a random earlier one
    for i in range(1, n):
        j = rng.randrange(i)
        used.add((j, i))
        edges.append(Edge(f"e{len(edges)}", names[j], names[i],
                          _rand_length(rng)))
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    attempts = 0
    while extra > 0 and attempts < 10 * max_edges:
        attempts += 1
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in used:
            continue
        used.add(key)
        edges.append(Edge(f"e{len(edges)}", names[key[0]], names[key[1]],
                          _rand_length(rng)))
        extra -= 1
    if n_boundary is None:
        n_boundary = rng.randint(1, max(1, n // 3))
    boundary = tuple(rng.sample(names, min(n_boundary, n - 1) or 1))
    return MetricGraph(tuple(names), tuple(edges), boundary)


def random_pa_function(rng: random.Random, g: MetricGraph,
                       max_kinks: int = 2) -> PAFunction:
    """Random continuous piecewise-affine function on g."""
    vertex_values = {v: _rand_fraction(rng) for v in g.vertices}
    profiles = {}
    for e in g.edges:
        pts = [(Fraction(0), vertex_values[e.u])]
        n_kinks = rng.randint(0, max_kinks)
        offsets = sorted({Fraction(rng.randint(1, 7), 8) * e.length
                          for _ in range(n_kinks)})
        for off in offsets:
            if 0 < off < e.length:
                pts.append((off, _rand_fraction(rng)))
        pts.append((e.length, vertex_values[e.v]))
        profiles[e.id] = pts
    return PAFunction(g, profiles)


def random_boundary_values(rng: random.Random, g: MetricGraph) -> dict:
    return {v: _rand_fraction(rng) for v in sorted(g.boundary)}


def random_subharmonic(rng: random.Random, g: MetricGraph,
                       max_poles: int = 3) -> PAFunction:
    """Harmonic extension of random boundary data plus a nonnegative
    combination of negated Green's functions, hence subharmonic."""
    h = dirichlet_solve(g, random_boundary_values(rng, g)).result
    terms = [(Fraction(1), h)]
    interior = [v for v in g.vertices if v not in g.boundary]
    n_poles = rng.randint(0, max_poles) if interior else 0
    for _ in range(n_poles):
        pole = Vertex(rng.choice(interior))
        c = Fraction(rng.randint(0, 4), rng.randint(1, 4))
        if c == 0:
            continue
        terms.append((-c, green(g, pole).result))
    return linear_combine(terms)


def random_non_subharmonic(rng: random.Random, g: MetricGraph
                           ) -> PAFunction | None:
    """A function with a strictly negative kink at an interior point, or
    None if the graph has no interior vertex to spoil."""
    interior = [v for v in g.vertices if v not in g.boundary]
    if not interior:
        return None
    f = random_subharmonic(rng, g)
    pole = Vertex(rng.choice(interior))
    c = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    spike = green(g, pole).result
    out = linear_combine([(Fraction(1), f), (c, spike)])
    if out.ddc().mass_at(pole) < 0:
        return out
    return None
