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
from .pa_function import DiscreteMeasure, PAFunction
from .potential import poisson


def _rand_fraction(rng: random.Random) -> Fraction:
    den = rng.randint(1, 10)
    num = rng.randint(-3 * den, 3 * den)
    return Fraction(num, den)


def _rand_length(rng: random.Random) -> Fraction:
    den = rng.randint(1, 10)
    num = rng.randint(1, 4 * den)
    return Fraction(num, den)


def random_graph(rng: random.Random, max_vertices: int = 12,
                 max_edges: int = 18) -> MetricGraph:
    """Connected multigraph with rational edge lengths, a nonempty
    boundary set and at least one interior vertex."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    # random spanning tree: attach each vertex to a random earlier one
    pairs = [(rng.randrange(i), i, _rand_length(rng)) for i in range(1, n)]
    # extra edges between uniform vertices, loops and repeats included
    for _ in range(rng.randint(0, max(0, max_edges - len(pairs)))):
        a, b = rng.randrange(n), rng.randrange(n)
        pairs.append((min(a, b), max(a, b), _rand_length(rng)))
    edges = tuple(Edge(f"e{k}", names[a], names[b], length)
                  for k, (a, b, length) in enumerate(pairs))
    boundary = rng.sample(names, rng.randint(1, max(1, n // 3)))
    return MetricGraph(tuple(names), edges, tuple(boundary))


def random_pa_function(rng: random.Random, g: MetricGraph,
                       max_kinks: int = 2) -> PAFunction:
    """Random continuous piecewise-affine function on g: kinks at
    distinct offsets k/8 of an edge's length, k in 1..7."""
    vertex_values = {v: _rand_fraction(rng) for v in g.vertices}
    profiles = {}
    for e in g.edges:
        n_kinks = rng.randint(0, max_kinks)
        ks = sorted({rng.randint(1, 7) for _ in range(n_kinks)})
        num, den = e.length.numerator, 8 * e.length.denominator
        kinks = [(Fraction(k * num, den), _rand_fraction(rng)) for k in ks]
        profiles[e.id] = ((Fraction(0), vertex_values[e.u]), *kinks,
                          (e.length, vertex_values[e.v]))
    return PAFunction._of(g, profiles)


def random_boundary_values(rng: random.Random, g: MetricGraph) -> dict:
    return {v: _rand_fraction(rng) for v in sorted(g.boundary)}


def _draw_subharmonic(rng: random.Random, g: MetricGraph,
                      interior: list) -> tuple[dict, list]:
    """Random boundary values, and nonnegative atoms at up to three
    interior vertices (a vertex may be drawn twice, a mass as zero)."""
    values = random_boundary_values(rng, g)
    atoms = [(Vertex(rng.choice(interior)),
              Fraction(rng.randint(0, 4), rng.randint(1, 4)))
             for _ in range(rng.randint(0, 3) if interior else 0)]
    return values, atoms


def random_subharmonic(rng: random.Random, g: MetricGraph) -> PAFunction:
    """Harmonic off a few interior vertices, where ddc has random
    nonnegative masses, on random boundary data: subharmonic."""
    interior = [v for v in g.vertices if v not in g.boundary]
    values, atoms = _draw_subharmonic(rng, g, interior)
    return poisson(g, DiscreteMeasure(atoms), values)


def random_non_subharmonic(rng: random.Random, g: MetricGraph
                           ) -> PAFunction | None:
    """A subharmonic draw with the mass at one interior vertex lowered
    below zero, or None if the graph has no interior vertex or the drawn
    amount leaves that mass nonnegative."""
    interior = [v for v in g.vertices if v not in g.boundary]
    if not interior:
        return None
    values, atoms = _draw_subharmonic(rng, g, interior)
    pole = Vertex(rng.choice(interior))
    mu = DiscreteMeasure(
        [*atoms, (pole, -Fraction(rng.randint(1, 4), rng.randint(1, 4)))])
    return poisson(g, mu, values) if mu.mass_at(pole) < 0 else None
