import random
from fractions import Fraction

import pytest

from skelpot import (EdgePoint, SingularMatrixError, Vertex, dirichlet_solve,
                     green, is_psd_exact, solve_exact)
from skelpot import potential
from skelpot.checks import psd_minor_oracle
from skelpot.randgen import random_graph

from conftest import chained_grid


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
    """A x, for dense rows or {column: entry} dict rows."""
    return [sum(r[j] * x[j] for j in (r if isinstance(r, dict)
                                      else range(len(x))))
            for r in a]


def _rank(a):
    """Row rank over the rationals (plain exact elimination): the oracle
    that tells a singular system from a solvable one."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


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
    """Each system is solved exactly or found singular, and the same
    system given as {column: entry} dict rows (zeros at odd columns kept,
    others left out) gets the same solution or verdict."""
    rng = random.Random(11)
    singular = 0
    for _ in range(1500):
        a, b = _random_system(rng)
        n = len(a)
        rows = [{j: x for j, x in enumerate(r) if x or j % 2} for r in a]
        if _rank(a) < n:
            singular += 1
            for form in (a, rows):
                with pytest.raises(SingularMatrixError):
                    solve_exact(form, b)
        else:
            x = solve_exact(a, b)
            assert _apply(a, x) == b
            assert solve_exact(rows, b) == x
    assert 100 < singular < 1400



def _gauss_jordan(a, b):
    """x with A x = b (dict rows) by dense Fraction Gauss-Jordan
    elimination, or None if A is singular: the reference for the sparse
    kernel."""
    n = len(a)
    m = [[F(r.get(j, 0)) for j in range(n)] + [F(bi)] for r, bi in zip(a, b)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n] for row in m]


def _cyclic_system(rng, n):
    """Non-symmetric dict rows: row i holds columns i and i + 1 (mod n),
    plus a few random entries.  Pivoting on row 0 gives the last row a
    fill entry in column 1, so row n - 1 reaches the pivot columns 1, 2,
    ... only through fill, one after another."""
    def entry():
        return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    a = [{i: entry(), (i + 1) % n: entry()} for i in range(n)]
    for _ in range(rng.randint(0, n // 3)):
        a[rng.randrange(n)][rng.randrange(n)] = entry()
    return a, [entry() if rng.random() < 0.8 else 0 for _ in range(n)]


def test_solve_matches_gauss_jordan_through_fill():
    """Seeded non-symmetric dict systems whose rows reach pivot columns
    through fill: the same solution as the dense reference, from the
    dict and the dense form alike."""
    rng = random.Random(31)
    solved = 0
    for _ in range(300):
        a, b = _cyclic_system(rng, rng.randint(3, 12))
        dense = [[r.get(j, 0) for j in range(len(a))] for r in a]
        want = _gauss_jordan(a, b)
        if want is None:
            for form in (a, dense):
                with pytest.raises(SingularMatrixError):
                    solve_exact(form, b)
            continue
        solved += 1
        assert solve_exact(a, b) == want
        assert solve_exact(dense, b) == want
    assert solved > 250


def _laplacian(rng, graphs):
    """Dirichlet Laplacian of the disjoint union of the graphs, its rows
    (one per interior vertex, in random order) as {column: entry} dicts,
    with a random right-hand side: structurally symmetric, and
    block-diagonal with a block or more per graph."""
    interior = [(k, v) for k, g in enumerate(graphs) for v in g.vertices
                if v not in g.boundary]
    rng.shuffle(interior)
    index = {v: i for i, v in enumerate(interior)}
    a = [{i: F(0)} for i in range(len(interior))]
    for k, g in enumerate(graphs):
        for e in g.edges:
            for x, y in ((e.u, e.v), (e.v, e.u)):
                if (i := index.get((k, x))) is not None:
                    a[i][i] += 1 / e.length
                    if (j := index.get((k, y))) is not None:
                        a[i][j] = a[i].get(j, 0) - 1 / e.length
    return a, [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in a]


def _sparse_system(rng, n):
    """Non-symmetric dict rows: row i holds column perm[i] and up to two
    random others, so most diagonal entries are zero."""
    perm = rng.sample(range(n), n)
    a = [{j: F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
          for j in [perm[i],
                    *rng.sample(range(n), rng.randint(0, min(n, 2)))]}
         for i in range(n)]
    return a, [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in a]


def test_solve_matches_gauss_jordan_on_laplacians_and_sparse_systems():
    """The divisions of the fraction-free elimination are exact and its
    integer back-substitution is over a multiple of det A: on Dirichlet
    Laplacians of one to three random multigraphs (loops, parallel
    edges, rational lengths; block-diagonal when there are several) and
    on non-symmetric sparse systems, the dict and the dense form give
    the reference's solution, every entry a reduced Fraction."""
    rng = random.Random(40)
    cases = [_laplacian(rng, [random_graph(rng, 10, 16)
                              for _ in range(rng.randint(1, 3))])
             for _ in range(100)]
    cases += [_sparse_system(rng, rng.randint(1, 10)) for _ in range(200)]
    solved = 0
    for a, b in cases:
        dense = [[r.get(j, 0) for j in range(len(a))] for r in a]
        want = _gauss_jordan(a, b)
        if want is None:
            for form in (a, dense):
                with pytest.raises(SingularMatrixError):
                    solve_exact(form, b)
            continue
        solved += 1
        for form in (a, dense):
            x = solve_exact(form, b)
            assert all(type(v) is Fraction for v in x)
            assert ([(v.numerator, v.denominator) for v in x]
                    == [(v.numerator, v.denominator) for v in want])
    assert solved > 280


def test_solve_drops_a_row_from_a_column_it_cancels_in():
    """Pivoting on row 0 cancels row 2's entry in column 1 exactly: row 2,
    still live, must leave column 1, which row 1 pivots on next.  A row
    that cancels to nothing, or to its right-hand side only, is
    singular."""
    a = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 1: 1, 2: 1, 3: 1}, {2: 1, 3: 2}]
    b = [F(1), F(2), F(3), F(4)]
    assert solve_exact(a, b) == _gauss_jordan(a, b) == [-1, 2, 0, 2]
    for rhs in (2, 3):
        with pytest.raises(SingularMatrixError):
            solve_exact([{0: 1, 1: 1}, {0: 2, 1: 2}], [1, rhs])


def test_solve_leaves_its_arguments_alone():
    """The in-place elimination works on copies: the caller's rows and
    right-hand side are unchanged, in both forms."""
    rng = random.Random(32)
    for _ in range(50):
        a, b = _cyclic_system(rng, rng.randint(3, 8))
        dense = [[r.get(j, 0) for j in range(len(a))] for r in a]
        before = [dict(r) for r in a], [list(r) for r in dense], list(b)
        for form in (a, dense):
            try:
                solve_exact(form, b)
            except SingularMatrixError:
                pass
        assert (a, dense, b) == before


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
    graphs += [chained_grid(rng, k, 3) for k in (2, 3, 4)]
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



@pytest.mark.parametrize("k, chain, size", [(5, 3, 15), (10, 1, 80)])
def test_grid_solves_have_the_core_size(monkeypatch, k, chain, size):
    """The work count, not a time: a Dirichlet solve and Green's functions
    at a vertex pole and at an edge pole on a k x k grid, boundary the
    first row and column, each make one solve_exact call of the size of
    the core.  A 3-chained 5x5 grid keeps its 15 interior grid vertices
    that are not the far corner; a 10x10 grid keeps 80 of its 81 interior
    vertices, since its far corner has two edge ends."""
    sizes = []

    def counted(a, b):
        sizes.append(len(a))
        return solve_exact(a, b)

    monkeypatch.setattr(potential, "solve_exact", counted)
    g = chained_grid(random.Random(20 + k), k, chain)
    edge = g.edges[-1]
    dirichlet_solve(g, dict.fromkeys(g.boundary, 1))
    green(g, Vertex("g1_1"))
    green(g, EdgePoint(edge.id, edge.length / 2))
    assert sizes == [size] * 3

def test_rank():
    assert _rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert _rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert _rank([[F(0), F(0)]]) == 0


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
        assert is_psd_exact(sym) == psd_minor_oracle(sym)
        gram = [[sum(raw[i][k] * raw[j][k] for k in range(n))
                 for j in range(n)] for i in range(n)]
        assert is_psd_exact(gram)


def test_psd_matches_minor_oracle_up_to_5():
    """Rational symmetric matrices, rank-deficient Gram matrices (and their
    negatives) and matrices with zero diagonal entries, for n up to 5."""
    rng = random.Random(17)
    verdicts = []
    for trial in range(240):
        n = rng.randint(1, 5)
        kind = trial % 4
        raw = [[F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]
               for _ in range(n)]
        if kind == 0:
            m = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
        elif kind in (1, 2):
            k = rng.randint(0, n - 1)
            m = [[sum((raw[i][t] * raw[j][t] for t in range(k)), F(0))
                  * (1 if kind == 1 else -1) for j in range(n)]
                 for i in range(n)]
        else:
            # a Gram matrix with zero rows, or a symmetric one, with some
            # diagonal entries set to zero
            if rng.random() < 0.5:
                for i in range(n):
                    if rng.random() < 0.4:
                        raw[i] = [F(0)] * n
                m = [[sum((raw[i][t] * raw[j][t] for t in range(n)), F(0))
                      for j in range(n)] for i in range(n)]
            else:
                m = [[raw[i][j] + raw[j][i] for j in range(n)]
                     for i in range(n)]
            for i in range(n):
                if rng.random() < 0.5:
                    m[i][i] = F(0)
        got = is_psd_exact(m)
        assert got == psd_minor_oracle(m)
        verdicts.append(got)
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 60


def test_psd_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_psd_exact([[F(1), F(2)], [F(0), F(1)]])


def test_psd_rejects_non_square():
    with pytest.raises(ValueError, match="not square"):
        is_psd_exact([[1, 2]])


def test_psd_rejects_ragged_rows():
    for m in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="not square"):
            is_psd_exact(m)


@pytest.mark.parametrize("a, message", [
    ([[0.1]], "A[0][0] 0.1 is not an int or a Fraction"),
    ([["1/2"]], "A[0][0] '1/2' is not an int or a Fraction"),
    ([[True]], "A[0][0] True is not an int or a Fraction"),
    ([[None]], "A[0][0] None is not an int or a Fraction"),
    ([[1, 0], [0, 2.0]], "A[1][1] 2.0 is not an int or a Fraction"),
    (5, "A is not a list: 5"), (((1,),), "A is not a list: ((1,),)"),
    ([5], "row 0 is not a list: 5"), ([(1,)], "row 0 is not a list: (1,)"),
    ([[1, 0], (0, 1)], "row 1 is not a list: (0, 1)")],
    ids=["float", "str", "bool", "None", "float-at-1-1", "int",
         "tuple", "int-row", "tuple-row", "tuple-row-1"])
def test_psd_refuses_an_a_or_entry_that_is_not_exact(a, message):
    """is_psd_exact reads every entry through graph.exact, as
    solve_exact does, with its place named; a row that is not a list is
    named before its length is read."""
    with pytest.raises(ValueError) as exc:
        is_psd_exact(a)
    assert str(exc.value) == message


def test_solve_rejects_dense_row_of_wrong_length():
    with pytest.raises(ValueError, match="row 0 has 2 entries, not 1"):
        solve_exact([[1, 2]], [1])


def test_solve_rejects_b_of_wrong_length():
    for b in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="right-hand side"):
            solve_exact([[1, 0], {1: 1}], b)


@pytest.mark.parametrize("bad", [0.5, "1", None, True, 0.0])
def test_solve_rejects_entries_that_are_not_exact(bad):
    """Every entry of A and b passes graph.exact's rule, with its place
    named: a zero float or a None is not dropped as a zero."""
    cases = [(lambda: solve_exact([[bad]], [1]), "A[0][0]"),
             (lambda: solve_exact([{0: 1}, {0: 1, 1: bad}], [1, 1]),
              "A[1][1]"),
             (lambda: solve_exact([[1]], [bad]), "b[0]")]
    for solve, where in cases:
        with pytest.raises(ValueError) as exc:
            solve()
        assert str(exc.value) == f"{where} {bad!r} is not an int or a Fraction"


def test_solve_rejects_dict_column_out_of_range():
    """A column that is not an int in 0..n-1, a bool or a float
    included, is named with its row."""
    for row, bad in (({0: 1, 2: 1}, "2"), ({-1: 1, 1: 1}, "-1"),
                     ({2: 0}, "2"), ({"a": 1}, "'a'"), ({0.0: 1}, "0.0"),
                     ({True: 1, 0: 1}, "True")):
        with pytest.raises(ValueError) as exc:
            solve_exact([{0: 1}, row], [1, 1])
        assert str(exc.value) == f"row 1 has a column outside 0..1: {bad}"


@pytest.mark.parametrize("row", [5, None, "ab", (1, 0)])
def test_solve_rejects_a_row_that_is_not_a_list_or_a_dict(row):
    with pytest.raises(ValueError) as exc:
        solve_exact([[1, 0], row], [1, 1])
    assert str(exc.value) == f"row 1 is not a list or a dict: {row!r}"


@pytest.mark.parametrize("a, b, name, bad", [
    (5, [1], "A", "5"), ({0: {0: 1}}, [1], "A", "{0: {0: 1}}"),
    ([[1]], None, "b", "None"), ([[1]], 5, "b", "5"),
    ([[1]], (1,), "b", "(1,)")],
    ids=["A-int", "A-dict", "b-None", "b-int", "b-tuple"])
def test_solve_rejects_an_a_or_b_that_is_not_a_list(a, b, name, bad):
    with pytest.raises(ValueError) as exc:
        solve_exact(a, b)
    assert str(exc.value) == f"{name} is not a list: {bad}"
