import random
from fractions import Fraction

import pytest

from skelpot import (EdgePoint, MetricGraph, SingularMatrixError, Vertex,
                     green, is_psd_exact, rank_exact, solve_exact)
from skelpot import potential
from skelpot.graph import Edge
from skelpot.randgen import random_graph


F = Fraction


def test_solve_simple():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = solve_exact(a, b)
    assert [sum(r[j] * x[j] for j in range(2)) for r in a] == b


def test_solve_with_fractions():
    a = [[F(1, 3), F(1, 7)], [F(2, 5), F(1)]]
    b = [F(1), F(0)]
    x = solve_exact(a, b)
    assert [sum(r[j] * x[j] for j in range(2)) for r in a] == b


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_exact([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])


def _apply(a, x):
    return [sum(r[j] * x[j] for j in range(len(x))) for r in a]


def _random_system(rng):
    """Square rational system: dense or sparse, often with zero diagonal
    entries, and sometimes singular by a repeated, scaled or zero row."""
    n = rng.randint(0, 8)
    density = rng.choice([0.15, 0.4, 1.0])
    a = [[F(rng.randint(-4, 4), rng.randint(1, 5))
          if rng.random() < density else F(0) for _ in range(n)]
         for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        i, j = rng.sample(range(n), 2)
        a[i] = [F(rng.randint(-2, 2)) * x for x in a[j]]
    if n and rng.random() < 0.3:
        for i in rng.sample(range(n), rng.randint(1, n)):
            a[i][i] = F(0)
    b = [F(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.7
         else F(0) for _ in range(n)]
    return a, b


def test_solve_random_systems_exact_or_singular():
    rng = random.Random(11)
    singular = 0
    for _ in range(1500):
        a, b = _random_system(rng)
        n = len(a)
        if rank_exact(a) < n:
            singular += 1
            with pytest.raises(SingularMatrixError):
                solve_exact(a, b)
        else:
            assert _apply(a, solve_exact(a, b)) == b
    assert 100 < singular < 1400


def _chained_grid(rng, k, chain):
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


def test_laplacian_systems_and_green_masses(monkeypatch):
    """Dirichlet Laplacians of random graphs and chained grids: the solve
    satisfies A x = b exactly, and Green's functions at a vertex pole and
    at an edge pole have mass -1 there and a probability measure on the
    boundary."""
    solved = []

    def recording(a, b):
        x = solve_exact(a, b)
        solved.append((a, b, x))
        return x

    monkeypatch.setattr(potential, "solve_exact", recording)
    rng = random.Random(4)
    graphs = [random_graph(rng) for _ in range(25)]
    graphs += [_chained_grid(rng, k, 3) for k in (2, 3, 4)]
    graphs = [g for g in graphs if g.is_connected()]
    assert len(graphs) >= 20
    for g in graphs:
        interior = [v for v in g.vertices if v not in g.boundary]
        edge = rng.choice(g.edges)
        poles = [EdgePoint(edge.id, edge.length * rng.randint(1, 3) / 4)]
        if interior:
            poles.append(Vertex(rng.choice(interior)))
        for pole in poles:
            gf = green(g, pole)
            assert gf.result.ddc().mass_at(pole) == -1
            masses = [m for _, m in gf.boundary_masses.support]
            assert all(m >= 0 for m in masses)
            assert sum(masses) == 1
    assert len(solved) >= 40
    for a, b, x in solved:
        assert _apply(a, x) == b


def test_rank():
    assert rank_exact([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank_exact([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank_exact([[F(0), F(0)]]) == 0


def _minor_psd(m):
    """Independent PSD oracle: all principal minors nonnegative."""
    import itertools
    n = len(m)

    def det(sub):
        k = len(sub)
        if k == 0:
            return F(1)
        total = F(0)
        for perm in itertools.permutations(range(k)):
            sign = 1
            p = list(perm)
            for i in range(k):
                for j in range(i + 1, k):
                    if p[i] > p[j]:
                        sign = -sign
            term = F(sign)
            for i in range(k):
                term *= sub[i][perm[i]]
            total += term
        return total

    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            sub = [[m[i][j] for j in idx] for i in idx]
            if det(sub) < 0:
                return False
    return True


def test_psd_known_cases():
    assert is_psd_exact([[F(2), F(0)], [F(0), F(2)]])
    assert not is_psd_exact([[F(1), F(0)], [F(0), F(-1)]])
    assert is_psd_exact([[F(1), F(1)], [F(1), F(1)]])       # rank-1 PSD
    assert not is_psd_exact([[F(0), F(1)], [F(1), F(0)]])   # zero diagonal
    assert is_psd_exact([[F(0), F(0)], [F(0), F(3)]])


def test_psd_matches_minor_oracle():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 4)
        raw = [[F(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(n)] for _ in range(n)]
        sym = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
        assert is_psd_exact(sym) == _minor_psd(sym)
        gram = [[sum(raw[i][k] * raw[j][k] for k in range(n))
                 for j in range(n)] for i in range(n)]
        assert is_psd_exact(gram)


def test_psd_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_psd_exact([[F(1), F(2)], [F(0), F(1)]])
