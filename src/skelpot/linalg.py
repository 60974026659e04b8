"""Exact rational linear algebra.

`solve_exact` takes each row of A in either of two forms: a dense list
of n entries, or a `{column: entry}` dict of its nonzeros.  `potential`
assembles graph Laplacians in the dict form (about five nonzeros per
row), each row scaled to integer entries, and reads a Green's function's
boundary masses off the solution, so neither side of a solve builds or
scans anything of size n^2.  It runs a sparse elimination on integer
rows: each row is a `{column: int}` dict (the right-hand side is column
n), made primitive once.  A column index gives the rows with a nonzero
in each column, and a pivot updates just the live ones of its column, in
place; the pivot row is the live row with the fewest entries (greedy
minimum degree), so fill-in stays small.  Row i is stored as the product
of the pivot entries in reach[i], the eliminated pivots whose components
it has met, times its Schur complement row.  Pivot row r, with entry p,
turns row i, with entry q, into p * row i - q * row r divided by the
product of the pivot entries in reach[i] & reach[r], exactly by
Sylvester's identity (Bareiss), and reach[i] into
(reach[i] - reach[r]) | {r}: no gcd runs after set-up.  D, the product
of the pivot entries in no later pivot's reach, is a multiple of det A,
so back-substitution runs on the integers D x_c, each unknown one
`Fraction(D x_c, D)`.  `poisson` solves on the core graph and fills in
chains of degree-2 vertices in closed form, so they never reach a solve.
A nonsingular system has one solution, so the result does not depend on
the pivot order.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod

from .graph import exact

_EXACT = {int, Fraction}      # graph.exact's types: a bool is not an int


class SingularMatrixError(ValueError):
    pass


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def solve_exact(a: list[list[Fraction] | dict[int, Fraction]],
                b: list[Fraction]) -> list[Fraction]:
    """Solve A x = b exactly; A must be square and nonsingular, with
    rational (int or Fraction) entries.  Each row of A is a dense list
    or a {column: entry} dict; entries a dict leaves out are zero.  An
    A or a b that is not a list, a row of neither form, a dense row of
    other than n entries, a dict column that is not an int in 0..n-1, a
    b of other than n entries or an entry that graph.exact refuses is a
    `ValueError`."""
    for name, arg in (("A", a), ("b", b)):
        if not isinstance(arg, list):
            raise ValueError(f"{name} is not a list: {arg!r}")
    n = len(a)
    if len(b) != n:
        raise ValueError(f"{n} rows but {len(b)} right-hand side entries")
    if not set(map(type, b)) <= _EXACT:
        for i, x in enumerate(b):
            exact(x, "b[{}]", i)
    rows = []
    cols = [set() for _ in range(n + 1)]   # column -> rows, b's too
    for i, ai in enumerate(a):
        if isinstance(ai, dict):
            if bad := [j for j in ai if type(j) is not int or not 0 <= j < n]:
                raise ValueError(f"row {i} has a column outside 0..{n - 1}: "
                                 f"{bad[0]!r}")
            items, entries = ai.items(), ai.values()
        elif not isinstance(ai, list):
            raise ValueError(f"row {i} is not a list or a dict: {ai!r}")
        elif len(ai) != n:
            raise ValueError(f"row {i} has {len(ai)} entries, not {n}")
        else:
            items, entries = enumerate(ai), ai
        if not set(map(type, entries)) <= _EXACT:
            for j, x in items:
                exact(x, "A[{}][{}]", i, j)
        row = {j: x for j, x in items if x}
        if b[i]:
            row[n] = b[i]
        den = lcm(*(x.denominator for x in row.values()))
        rows.append(_primitive({j: x.numerator * (den // x.denominator)
                                for j, x in row.items()}))
        for j in row:
            cols[j].add(i)

    piv = [0] * n
    reach = [set() for _ in range(n)]
    # (entry count, row) for every live row; an entry whose count is stale
    # is skipped, the row's current count having been pushed since
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    live = set(range(n))
    order = []
    while heap:
        size, r = heappop(heap)
        row = rows[r]
        if r not in live or size != len(row):
            continue
        if r in row:
            c = r
        else:
            c = min((j for j in row if j != n), default=None)
            if c is None:
                raise SingularMatrixError("matrix is singular")
        live.remove(r)
        order.append((r, c))
        p = piv[r] = row[c]
        met_r = reach[r]
        rest = [(j, v, cols[j]) for j, v in row.items() if j != c]
        # row i becomes (p * row i - q * pivot row) / d in place, d the
        # product of the pivots both have met: exact by Sylvester's identity
        for i in cols[c] & live:
            ri, met = rows[i], reach[i]
            q = ri.pop(c)
            for j in ri:
                ri[j] *= p
            for j, v, col in rest:
                if w := ri.get(j, 0) - v * q:
                    ri[j] = w
                    col.add(i)
                else:
                    del ri[j]
                    col.discard(i)
            if common := met & met_r:
                d = prod(piv[t] for t in common)
                for j in ri:
                    ri[j] //= d
            met -= met_r
            met.add(r)
            heappush(heap, (len(ri), i))

    # y = D x is an integer vector, D being a multiple of det A; each pivot
    # row holds its pivot column and later pivots' columns only
    D = prod(piv[r] for r in set(range(n)).difference(*reach))
    y = [0] * n
    for r, c in reversed(order):
        row = rows[r]
        p, rhs = row.pop(c), row.pop(n, 0)
        y[c] = (rhs * D - sum(v * y[j] for j, v in row.items())) // p
    return [Fraction(v, D) for v in y]


def is_psd_exact(a: list[list[Fraction]]) -> bool:
    """Exact positive-semidefiniteness of a symmetric rational matrix.

    A must be a list of n rows, each a list of n entries, and symmetric,
    and each entry must pass graph.exact (`ValueError` otherwise).  It
    is scaled to integers by the positive lcm of the entries'
    denominators, which keeps the verdict; `_psd` then tests the integer
    matrix."""
    if not isinstance(a, list):
        raise ValueError(f"A is not a list: {a!r}")
    n = len(a)
    for i, row in enumerate(a):
        if not isinstance(row, list):
            raise ValueError(f"row {i} is not a list: {row!r}")
        if len(row) != n:
            raise ValueError("matrix is not square")
    m = [[exact(x, "A[{}][{}]", i, j) for j, x in enumerate(row)]
         for i, row in enumerate(a)]
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    den = lcm(*(x.denominator for row in m for x in row))
    return _psd([[x.numerator * (den // x.denominator) for x in row]
                 for row in m])


def _psd(m: list[list[int]]) -> bool:
    """PSD test of a symmetric integer matrix, unchecked; m is
    overwritten.

    Each step pivots on the largest diagonal entry d: if d < 0 the
    matrix is not PSD, and if d == 0 every diagonal entry left is <= 0,
    so the matrix is PSD iff the block left is zero.  Otherwise the
    block left becomes d*m[i][j] - m[i][p]*m[p][j], d times the Schur
    complement, divided by the previous pivot.  That division is exact
    (Bareiss): each entry is then a minor of m, so entries stay bounded,
    and it is by a positive number, so no sign changes."""
    idx = list(range(len(m)))
    prev = 1
    while idx:
        piv = max(idx, key=lambda i: m[i][i])
        d = m[piv][piv]
        if d < 0:
            return False
        if d == 0:
            return all(m[i][j] == 0 for i in idx for j in idx)
        idx.remove(piv)
        row = m[piv]
        for k, i in enumerate(idx):
            mi, c = m[i], row[i]
            for j in idx[k:]:
                mi[j] = m[j][i] = (d * mi[j] - c * row[j]) // prev
        prev = d
    return True
