"""Exact rational linear algebra.

`solve_exact` takes each row of A in either of two forms: a dense list
of n entries, or a `{column: entry}` dict of its nonzeros.  `potential`
assembles graph Laplacians in the dict form (about five nonzeros per
row), each row scaled to integer entries, and reads a Green's
function's boundary masses off the solution, so neither side of a
solve builds or scans anything of size n^2.  It runs a sparse elimination on integer rows: each row is a
`{column: int}` dict (the right-hand side is column n), cleared to
integers once and divided by its content after every update, so its
entries stay primitive.  The pivot row is the live row with the fewest
entries (greedy minimum degree), so on a graph Laplacian the degree-1
and degree-2 chain vertices are eliminated first, as in series
reduction, and fill-in stays small.  Back-substitution forms each
unknown as one `Fraction` of an integer sum over a common denominator.
A nonsingular system has one solution, so the result does not depend on
the pivot order.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class SingularMatrixError(ValueError):
    pass


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def solve_exact(a: list[list[Fraction] | dict[int, Fraction]],
                b: list[Fraction]) -> list[Fraction]:
    """Solve A x = b exactly; A must be square and nonsingular, with
    rational (int or Fraction) entries.  Each row of A is a dense list
    or a {column: entry} dict; entries a dict leaves out are zero."""
    n = len(a)
    rows = []
    for i in range(n):
        row = {j: x for j, x in (a[i].items() if isinstance(a[i], dict)
                                 else enumerate(a[i])) if x}
        if b[i]:
            row[n] = b[i]
        den = lcm(*(x.denominator for x in row.values()))
        rows.append(_primitive({j: x.numerator * (den // x.denominator)
                                for j, x in row.items()}))

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
        p = row[c]
        for i in live:
            q = rows[i].get(c)
            if q is None:
                continue
            k = gcd(p, q)
            sp, sq = p // k, q // k
            new = {j: v * sp for j, v in rows[i].items()}
            for j, v in row.items():
                w = new.get(j, 0) - v * sq
                if w:
                    new[j] = w
                else:
                    del new[j]
            rows[i] = new = _primitive(new)
            heappush(heap, (len(new), i))

    # each pivot row holds its pivot column and later pivots' columns only
    x = [Fraction(0)] * n
    for r, c in reversed(order):
        row = rows[r]
        terms = [(v, x[j]) for j, v in row.items() if j != c and j != n]
        den = lcm(*(xj.denominator for _, xj in terms))
        num = row.get(n, 0) * den - sum(
            v * xj.numerator * (den // xj.denominator) for v, xj in terms)
        x[c] = Fraction(num, den * row[c])
    return x


def rank_exact(a: list[list[Fraction]]) -> int:
    """Row rank over the rationals (plain exact elimination)."""
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


def is_psd_exact(a: list[list[Fraction]]) -> bool:
    """Exact positive-semidefiniteness of a symmetric rational matrix,
    via pivoted LDL^T (Schur complements on the largest diagonal entry)."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    idx = list(range(n))
    while idx:
        piv = max(idx, key=lambda i: m[i][i])
        if m[piv][piv] < 0:
            return False
        if m[piv][piv] == 0:
            # all diagonal entries <= 0 here; PSD iff remaining block is zero
            return all(m[i][j] == 0 for i in idx for j in idx)
        d = m[piv][piv]
        rest = [i for i in idx if i != piv]
        for i in rest:
            for j in rest:
                m[i][j] -= m[i][piv] * m[piv][j] / d
        idx = rest
    return True
