"""Bigraded superform calculus on R^r with polynomial coefficients.

The algebra is the exterior algebra on 2r anticommuting generators
d'x_1..d'x_r, d''x_1..d''x_r; a form of bidegree (p, q) is a sum of
terms  poly * d'x_I ^ d''x_J  with strictly increasing multi-indices.
d' and d'' insert the corresponding generator at the front; J swaps the
two index blocks with the sign (-1)^{pq}.

All coefficients are exact rationals, so every identity test below is
an exact equality.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm
from operator import add, attrgetter, floordiv, getitem, mul

from .graph import _count, exact
from .linalg import _psd
from .rational import format_rational


class BidegreeError(ValueError):
    pass


# -- polynomials ---------------------------------------------------------------


class Poly:
    """Multivariate polynomial in x_1..x_r with rational coefficients:
    `nums` maps exponent tuples to nonzero ints over one positive int
    `den`, with gcd(den, *nums) == 1, so equal polys have equal fields."""

    __slots__ = ("r", "nums", "den")

    def __init__(self, r: int, terms: dict | None = None):
        if type(r) is not int:
            raise ValueError(f"r must be an int, not {r!r}")
        if r < 0:
            raise ValueError(f"r must be >= 0, not {r}")
        coeffs = {}
        ints = (int,) * r           # a bool or a float is no exponent
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if tuple(map(type, exp)) != ints or (exp and min(exp) < 0):
                raise ValueError(f"exponent {exp} is not {r} natural numbers")
            if c := exact(c, "coefficient of {}:", exp):
                coeffs[exp] = c
        den = lcm(*(c.denominator for c in coeffs.values()))
        # reduced coefficients over their lcm have no common factor left
        self.r = r
        self.nums = {e: c.numerator * (den // c.denominator)
                     for e, c in coeffs.items()}
        self.den = den

    @classmethod
    def _of(cls, r: int, nums: dict, den: int = 1) -> "Poly":
        """Trusted constructor for r-long exponent tuples and int
        numerators over den > 0: drops zeros, divides out common factors."""
        p = cls.__new__(cls)
        p.r = r
        nums = {e: v for e, v in nums.items() if v}
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: v // g for e, v in nums.items()}
        p.nums, p.den = nums, den
        return p

    @property
    def terms(self) -> dict:
        """Exponent tuple -> Fraction coefficient, derived from nums."""
        return {e: Fraction(v, self.den) for e, v in self.nums.items()}

    # construction helpers
    @classmethod
    def const(cls, r: int, c) -> "Poly":
        return cls(r, {(0,) * r: c})

    @classmethod
    def var(cls, r: int, i: int) -> "Poly":
        _check_index(i, r)
        exp = [0] * r
        exp[i] = 1
        return cls._of(r, {tuple(exp): 1})

    def is_zero(self) -> bool:
        return not self.nums

    def _match(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise ValueError(
                f"operand of type {type(other).__name__} is not a Poly")
        if self.r != other.r:
            raise ValueError(f"polys in {self.r} and {other.r} variables")

    def __add__(self, other: "Poly") -> "Poly":
        self._match(other)
        den = lcm(self.den, other.den)
        t = {e: v * (den // self.den) for e, v in self.nums.items()}
        for e, v in other.nums.items():
            t[e] = t.get(e, 0) + v * (den // other.den)
        return Poly._of(self.r, t, den)

    def __neg__(self) -> "Poly":
        return Poly._of(self.r, {e: -v for e, v in self.nums.items()},
                        self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        self._match(other)
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not int and type(other) is not Fraction:
            if isinstance(other, Poly):
                self._match(other)
                return Poly._of(self.r, _term_product(self.nums, other.nums),
                                self.den * other.den)
            other = exact(other, "scalar")
        # Polys are never mutated, so a sign change can share self
        if other == 1:
            return self
        if other == -1:
            return -self
        c = other.numerator
        return Poly._of(self.r, {e: v * c for e, v in self.nums.items()},
                        self.den * other.denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.r == other.r
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.r, self.den, frozenset(self.nums.items())))

    def diff(self, i: int) -> "Poly":
        _check_index(i, self.r)
        # lowering e[i] maps distinct exponents to distinct exponents
        return Poly._of(self.r, {e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i]
                                 for e, v in self.nums.items() if e[i]},
                        self.den)

    def eval(self, point) -> Fraction:
        _, cols, qs = _point_columns([point], self.r)
        [[value]], n = _value_columns([self.nums], cols, qs)
        return Fraction(value, self.den * qs[0] ** n)

    def degree(self) -> int:
        return max((sum(e) for e in self.nums), default=0)

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def _check_index(i, r: int) -> None:
    """Raise ValueError unless i is the index of one of r variables."""
    if type(i) is not int or not 0 <= i < r:
        raise ValueError(f"variable index {i!r} is not in range({r})")


def _integer_polys(polys: list[Poly]) -> tuple[list[dict], int]:
    """The polys' numerator dicts brought to one denominator."""
    den = lcm(*(p.den for p in polys))
    return [p.nums if p.den == den else
            {e: v * (den // p.den) for e, v in p.nums.items()}
            for p in polys], den


def _point_columns(points, r: int) -> tuple[list, list, list]:
    """Every point, in order, as a tuple of r Fractions (ValueError for
    a point that is not a list or a tuple, or of another length), and
    the points as columns: with each point's coordinates over one
    denominator q, the r columns of numerators and the column of q."""
    pts = []
    fractions = (Fraction,) * r
    for t, point in enumerate(points):
        if not isinstance(point, (list, tuple)):
            raise ValueError(f"point {t} is not a list or a tuple: {point!r}")
        pt = tuple(point)
        if tuple(map(type, pt)) != fractions:
            pt = tuple(exact(x, "coordinate {}:", k) for k, x in enumerate(pt))
            if len(pt) != r:
                raise ValueError(f"point has {len(pt)} coordinates, not {r}")
        pts.append(pt)
    cols = list(zip(*pts)) or [()] * r
    dens = [list(map(attrgetter("denominator"), c)) for c in cols]
    # the column of ones gives q = 1 when r = 0
    qs = list(map(lcm, repeat(1, len(pts)), *dens))
    return pts, [list(map(mul, map(attrgetter("numerator"), c),
                          map(floordiv, qs, d)))
                 for c, d in zip(cols, dens)], qs


def _value_columns(polys: list[dict], cols: list, qs: list) -> tuple[list, int]:
    """Each numerator dict of polys at every point of `_point_columns`,
    times q^n, as a column, and n, the largest degree of a monomial in
    them: q^n * x^e is the integer q^(n - |e|) * prod n_i^e_i.  Each
    power of a column, and each monomial's column, is built once."""
    n = max((sum(e) for p in polys for e in p), default=0)
    cols = [*cols, qs]              # q^(n - |e|) is the last factor
    powers, monos, out = {}, {}, []
    for p in polys:
        terms = []
        for e, c in p.items():
            if (mono := monos.get(e)) is None:
                mono = [1] * len(qs)
                for i, k in enumerate((*e, n - sum(e))):
                    if k:
                        if (i, k) not in powers:
                            powers[i, k] = list(map(pow, cols[i], repeat(k)))
                        mono = list(map(mul, mono, powers[i, k]))
                monos[e] = mono
            terms.append(map(mul, repeat(c), mono))
        out.append(list(map(sum, zip(*terms))) if terms else [0] * len(qs))
    return out, n


def _term_product(p: dict, q: dict) -> dict:
    """The exponent -> coefficient dict of a product, zeros included."""
    t: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            v = c1 * c2
            t[e] = t[e] + v if e in t else v
    return t


def _packed_product(p: dict, q: dict) -> dict:
    """`_term_product` on the packed exponents of `_substitute`."""
    t: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            v = c1 * c2
            t[e] = t[e] + v if e in t else v
    return t


def _substitute(polys: list[Poly], nums: list[dict],
                den_a: int) -> tuple[list[dict], int, int]:
    """Each of polys composed with x_i = nums[i] / den_a, as
    (dicts, den, base): per poly, a packed exponent -> int dict, zeros
    included, all over one positive denominator den.

    With the polys over one denominator D and n their largest degree, a
    monomial x^e with numerator c becomes
    c * den_a^(n - |e|) * prod nums[i]^e_i over D * den_a^n.  An exponent
    (k_0, k_1, ...) in the new variables is packed into the int
    sum k_t * base^t, base being one more than the largest degree an
    output monomial can have: no digit carries, so a product's exponent
    is the sum of its factors'.  The powers of each nums[i] are built
    once per call, for all the polys."""
    polys_nums, den = _integer_polys(polys)
    n = max((p.degree() for p in polys), default=0)
    base = n * max((sum(e) for a in nums for e in a), default=0) + 1
    packed = [{sum(k * base ** t for t, k in enumerate(e)): v
               for e, v in a.items()} for a in nums]
    powers = [[{0: 1}, a] for a in packed]
    out = []
    for p in polys_nums:
        acc: dict = {}
        for e, c in p.items():
            term = {0: c * den_a ** (n - sum(e))}
            for pw, k in zip(powers, e):
                if k:
                    while len(pw) <= k:
                        pw.append(_packed_product(pw[-1], pw[1]))
                    term = _packed_product(term, pw[k])
            for m, v in term.items():
                acc[m] = acc[m] + v if m in acc else v
        out.append(acc)
    return out, den * den_a ** n, base


def _unpack(dicts: list[dict], base: int, r: int) -> list[dict]:
    """dicts keyed by `_substitute`'s packed exponents, keyed by r-long
    exponent tuples again; each distinct exponent is decoded once."""
    places = [base ** t for t in range(r)]
    exps = {m: tuple([m // b % base for b in places])
            for m in set().union(*dicts)}
    return [{exps[m]: v for m, v in t.items()} for t in dicts]


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.nums, reverse=True):
        factors = [format_rational(Fraction(p.nums[e], p.den))]
        for i, ei in enumerate(e):
            if ei == 1:
                factors.append(f"x{i + 1}")
            elif ei > 1:
                factors.append(f"x{i + 1}^{ei}")
        parts.append("*".join(factors))
    return " + ".join(parts)


# -- superforms ---------------------------------------------------------------


def _insert_sign(k: int, idx: tuple) -> tuple[int, tuple] | None:
    """Sign and result of sorting dx_k ^ dx_idx, idx sorted; None if k
    already in idx."""
    i = bisect_left(idx, k)
    if i < len(idx) and idx[i] == k:
        return None
    return (-1) ** i, idx[:i] + (k,) + idx[i:]


def _merge_sign(a: tuple, b: tuple) -> tuple[int, tuple] | None:
    """Shuffle sign of dx_a ^ dx_b into sorted order; None if they meet.
    Each dx_k of a, last first, is moved into the sorted rest."""
    sign, merged = 1, b
    for k in reversed(a):
        if (ins := _insert_sign(k, merged)) is None:
            return None
        sign, merged = sign * ins[0], ins[1]
    return sign, merged


@dataclass(frozen=True)
class AffineMap:
    """x = A y + b, mapping R^{r_in} -> R^{r_out}.  The constructor reads
    every entry through graph.exact and checks the dimensions."""

    matrix: tuple          # r_out rows, r_in columns, Fractions
    translation: tuple     # length r_out

    def __post_init__(self):
        m = tuple(tuple(exact(x, "matrix[{}][{}]:", i, j) for j, x in
                        enumerate(row)) for i, row in enumerate(self.matrix))
        t = tuple(exact(x, "translation[{}]:", i)
                  for i, x in enumerate(self.translation))
        if len(m) != len(t) or (m and len({len(r) for r in m}) != 1):
            raise ValueError("inconsistent affine map dimensions")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "translation", t)

    @classmethod
    def of(cls, matrix, translation) -> "AffineMap":
        """The constructor, under the name that perfbench's inputs call."""
        return cls(matrix, translation)

    @property
    def r_out(self) -> int:
        return len(self.translation)

    @property
    def r_in(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


class SuperForm:
    """Bigraded (p, q) form; coeffs maps (I, J) to Poly."""

    def __init__(self, r: int, p: int, q: int, coeffs: dict | None = None):
        if not (type(r) is type(p) is type(q) is int):
            raise BidegreeError(f"r, p, q must be ints, not {(r, p, q)}")
        if r < 0:
            raise BidegreeError(f"r must be >= 0, not {r}")
        if not (0 <= p and 0 <= q):
            raise BidegreeError("negative bidegree")
        self.r, self.p, self.q = r, p, q
        cs = {}
        for key, poly in (coeffs or {}).items():
            # a bool or a float is no index, as it is no Poly exponent
            if not (type(key) is tuple and len(key) == 2
                    and all(type(b) is tuple and set(map(type, b)) <= {int}
                            for b in key)):
                raise BidegreeError(f"key {key!r} is not a pair of tuples "
                                    "of ints")
            i, j = key
            if len(i) != p or len(j) != q:
                raise BidegreeError(f"key ({i},{j}) does not match ({p},{q})")
            if list(i) != sorted(set(i)) or list(j) != sorted(set(j)):
                raise BidegreeError("multi-indices must be strictly increasing")
            if any(k >= r or k < 0 for k in i + j):
                raise BidegreeError("index out of range")
            if not isinstance(poly, Poly):
                raise BidegreeError(f"coefficient at {key!r} of type "
                                    f"{type(poly).__name__} is not a Poly")
            if poly.r != r:
                raise BidegreeError(f"coefficient in {poly.r} variables "
                                    f"on R^{r}")
            if not poly.is_zero():
                cs[(i, j)] = poly
        self.coeffs = cs

    @classmethod
    def _of(cls, r: int, p: int, q: int, coeffs: dict) -> "SuperForm":
        """Trusted constructor for keys that are sorted, in range and of
        bidegree (p, q) by construction: it only drops zero coefficients."""
        alpha = cls.__new__(cls)
        alpha.r, alpha.p, alpha.q = r, p, q
        alpha.coeffs = {k: v for k, v in coeffs.items() if v.nums}
        return alpha

    @classmethod
    def function(cls, poly: Poly) -> "SuperForm":
        return cls._of(poly.r, 0, 0, {((), ()): poly})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "SuperForm") -> "SuperForm":
        self._match(other)
        cs = dict(self.coeffs)
        for k, poly in other.coeffs.items():
            cs[k] = cs[k] + poly if k in cs else poly
        return SuperForm._of(self.r, self.p, self.q, cs)

    def __neg__(self) -> "SuperForm":
        return SuperForm._of(self.r, self.p, self.q,
                             {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "SuperForm") -> "SuperForm":
        return self + (-other)

    def scale(self, c) -> "SuperForm":
        c = exact(c, "scale factor")
        return SuperForm._of(self.r, self.p, self.q, {
            k: v * c for k, v in self.coeffs.items()})

    def _match(self, other: "SuperForm"):
        if self.r != other.r:
            raise BidegreeError("ambient dimension mismatch")
        if (self.p, self.q) != (other.p, other.q):
            raise BidegreeError("bidegree mismatch")

    def __eq__(self, other):
        return (isinstance(other, SuperForm) and self.r == other.r
                and (self.p, self.q) == (other.p, other.q)
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"SuperForm({format_form(self)})"


def _differential(alpha: SuperForm, second: bool) -> SuperForm:
    """Differentiate coefficients and insert dx_k into the d'-block (or,
    with second, the d''-block with the crossing sign (-1)^p); a degree
    overflow gives 0.  The coefficients are brought to one denominator,
    and each output coefficient's signed derivative numerators are added
    into one int dict, made a Poly once."""
    cross = (-1) ** alpha.p if second else 1
    r = alpha.r
    polys, den = _integer_polys(list(alpha.coeffs.values()))
    acc: dict = {}
    for (i, j), nums in zip(alpha.coeffs, polys):
        for k in range(r):
            ins = _insert_sign(k, j if second else i)
            if ins is None:
                continue
            sign, block = ins
            sign *= cross
            out = acc.setdefault((i, block) if second else (block, j), {})
            for e, v in nums.items():
                if ek := e[k]:
                    low = e[:k] + (ek - 1,) + e[k + 1:]
                    out[low] = out.get(low, 0) + sign * ek * v
    p, q = (alpha.p, alpha.q + 1) if second else (alpha.p + 1, alpha.q)
    return SuperForm._of(r, p, q, {key: Poly._of(r, t, den)
                                   for key, t in acc.items()})


def d_prime(alpha: SuperForm) -> SuperForm:
    """d': differentiate coefficients, prepend d'x_k (degree overflow -> 0)."""
    return _differential(alpha, second=False)


def d_second(alpha: SuperForm) -> SuperForm:
    """d'': like d' on the second block, with the crossing sign (-1)^p."""
    return _differential(alpha, second=True)


def wedge(alpha: SuperForm, beta: SuperForm) -> SuperForm:
    """(a x' b) with the sign (-1)^{p' q} from moving beta's d'-block past
    alpha's d''-block, plus the shuffle signs inside each block."""
    if alpha.r != beta.r:
        raise BidegreeError("ambient dimension mismatch")
    cross = (-1) ** (beta.p * alpha.q)
    cs: dict = {}
    for (i1, j1), p1 in alpha.coeffs.items():
        for (i2, j2), p2 in beta.coeffs.items():
            mi = _merge_sign(i1, i2)
            mj = _merge_sign(j1, j2)
            if mi is None or mj is None:
                continue
            si, i3 = mi
            sj, j3 = mj
            key = (i3, j3)
            add = (p1 * p2) * (cross * si * sj)
            cs[key] = cs[key] + add if key in cs else add
    return SuperForm._of(alpha.r, alpha.p + beta.p, alpha.q + beta.q, cs)


def j_involution(alpha: SuperForm) -> SuperForm:
    """J: swap the two index blocks with the sign (-1)^{pq}."""
    sgn = (-1) ** (alpha.p * alpha.q)
    cs = {(j, i): poly * sgn for (i, j), poly in alpha.coeffs.items()}
    return SuperForm._of(alpha.r, alpha.q, alpha.p, cs)


def pullback(f_map: AffineMap, alpha: SuperForm) -> SuperForm:
    """Pull alpha back along x = A y + b; commutes with d' and d''.

    The generators pull back linearly, d'x_i = sum_s A[i][s] d'y_s, so
    d'x_I ^ d''x_J pulls back to the sum over sorted S and T of
    det A[I,S] * det A[J,T] * d'y_S ^ d''y_T.  Each output coefficient is
    thus an integer combination of the substituted coefficients
    (`_substitute`, all in one call), over the denominator D^(p+q) of the
    minors of the integer matrix D*A and the substitution's one
    denominator.  The combinations are kept on packed exponents, and
    each distinct one is decoded once, at the end."""
    if alpha.r != f_map.r_out:
        raise BidegreeError("form/map dimension mismatch")
    r2 = f_map.r_in
    zero = (0,) * r2
    units = [zero[:s] + (1,) + zero[s + 1:] for s in range(r2)] + [zero]
    # the rows of D * [A | b] as ints, with D the map's common denominator
    aug = [(*row, b) for row, b in zip(f_map.matrix, f_map.translation)]
    den_a = lcm(*(x.denominator for row in aug for x in row))
    int_a = [[x.numerator * (den_a // x.denominator) for x in row]
             for row in aug]
    nums = [{e: v for e, v in zip(units, row) if v} for row in int_a]

    # det (D*A)[I,S] for every sorted S, by expansion along the first row
    # of each suffix of I, each suffix once per call (a loop: a recursive
    # closure would leave a reference cycle behind)
    minors: dict = {(): {(): 1}}
    for rows in {idx for key in alpha.coeffs for idx in key}:
        for k in range(len(rows) - 1, -1, -1):
            if rows[k:] in minors:
                continue
            out: dict = {}
            first = int_a[rows[k]]
            for cols, d in minors[rows[k + 1:]].items():
                for s in range(r2):
                    if first[s] and (ins := _insert_sign(s, cols)):
                        sign, key = ins
                        out[key] = out.get(key, 0) + sign * first[s] * d
            minors[rows[k:]] = {c: d for c, d in out.items() if d}

    subs, den, base = _substitute(list(alpha.coeffs.values()), nums, den_a)
    acc: dict = {}
    for (i, j), num in zip(alpha.coeffs, subs):
        rows_j = minors[j].items()
        for s_cols, ds in minors[i].items():
            for t_cols, dt in rows_j:
                w = ds * dt
                key = (s_cols, t_cols)
                out = acc.get(key)
                if out is None:
                    acc[key] = {e: w * v for e, v in num.items()}
                else:
                    for e, v in num.items():
                        out[e] = out[e] + w * v if e in out else w * v
    den *= den_a ** (alpha.p + alpha.q)
    return SuperForm._of(r2, alpha.p, alpha.q, {
        k: Poly._of(r2, t, den)
        for k, t in zip(acc, _unpack(list(acc.values()), base, r2))})


# -- positivity -----------------------------------------------------------------


def hessian_form(psi: Poly) -> SuperForm:
    """d'd'' of a function: the (1,1)-form whose coefficient on
    d'x_i ^ d''x_j is the Hessian entry d_i d_j psi.  Each first
    derivative is taken once and each entry once for i <= j, stored
    under both mirror keys."""
    if not isinstance(psi, Poly):
        raise ValueError(f"psi of type {type(psi).__name__} is not a Poly")
    r = psi.r
    first = [psi.diff(i) for i in range(r)]
    cs = {}
    for i in range(r):
        for j in range(i, r):
            cs[((i,), (j,))] = cs[((j,), (i,))] = first[i].diff(j)
    return SuperForm._of(r, 1, 1, cs)


@dataclass(frozen=True)
class PositivityVerdict:
    ok: bool
    violations: tuple  # points where the coefficient matrix is not PSD


def is_positive_11(alpha: SuperForm, points) -> PositivityVerdict:
    """Pointwise PSD test of the coefficient matrix of a (1,1)-form, on
    integers; raises if the matrix is not symmetric as polynomials or a
    point is not a list or a tuple of r coordinates.

    The points are read first, as columns (`_point_columns`), and each
    upper-triangle entry, over one denominator D, is evaluated at every
    point at once (`_value_columns`).  A point with a negative diagonal
    entry is a violation, as no PSD matrix has one; at every other point
    the integer matrix, D * q^n > 0 times the true one with the same
    verdict, goes to `_psd`."""
    if not isinstance(alpha, SuperForm):
        raise ValueError(
            f"alpha of type {type(alpha).__name__} is not a SuperForm")
    if (alpha.p, alpha.q) != (1, 1):
        raise BidegreeError("positivity test needs a (1,1)-form")
    # no zero poly is stored, so a missing mirror key is a zero entry
    coeffs, r = alpha.coeffs, alpha.r
    if any((m := coeffs.get((j, i))) is not poly and m != poly
           for (i, j), poly in coeffs.items()):
        raise BidegreeError("coefficient matrix is not symmetric")
    pts, cols, qs = _point_columns(points, r)
    upper = [(i, j) for ((i,), (j,)) in coeffs if i <= j]
    polys, _ = _integer_polys([coeffs[(i,), (j,)] for i, j in upper])
    values = dict(zip(upper, _value_columns(polys, cols, qs)[0]))
    zero = [0] * len(pts)
    matrix = [[values.get((min(i, j), max(i, j)), zero) for j in range(r)]
              for i in range(r)]
    # min(0, diagonal) < 0 iff a diagonal entry is; with r = 0 there is none
    lowest = map(min, zero, *map(getitem, matrix, range(r))) if r else zero
    bad = []
    for k, (pt, low) in enumerate(zip(pts, lowest)):
        if low < 0 or not _psd([[col[k] for col in row] for row in matrix]):
            bad.append(pt)
    return PositivityVerdict(not bad, tuple(bad))


# -- textual syntax -------------------------------------------------------------


def format_form(alpha: SuperForm) -> str:
    if alpha.is_zero():
        if (alpha.p, alpha.q) == (0, 0):
            return "0"
        return "0" + f" [bidegree ({alpha.p},{alpha.q})]"
    parts = []
    for (i, j) in sorted(alpha.coeffs):
        poly = alpha.coeffs[(i, j)]
        gens = [f"d'x{k + 1}" for k in i] + [f"d''x{k + 1}" for k in j]
        if gens:
            parts.append(f"({format_poly(poly)}) " + " ^ ".join(gens))
        else:
            parts.append(f"({format_poly(poly)})")
    return " + ".join(parts)


class FormParseError(ValueError):
    pass


# Largest exponent, and largest degree of a power, that the parser
# expands: the cost of p^n grows without bound in n.
MAX_EXPONENT = 100

# Largest ambient dimension r the command line accepts, inferred or
# given: every form carries r-long exponent lists, and the positivity
# test checks O(r^2) points with an r x r matrix each.
MAX_DIM = 16

# Longest digit run the parser reads as a constant or an index: int()
# refuses long runs, and Python lets that limit be set as low as 640.
MAX_DIGITS = 600


# Deepest nesting of parentheses the parser reads: it recurses once per
# level, and Python's recursion limit must not be what refuses a form.
MAX_DEPTH = 100


# Most terms a product or power step of the parser may produce: the term
# count grows as C(k + n, n) in the exponent n of a sum of k variables,
# so "(1+x1+x2+x3+x4+x5+x6)^12" would expand to 18564 terms.
MAX_TERMS = 5000


def check_product(p: Poly, q: Poly) -> None:
    """Refuse p * q before it is expanded when it could have more than
    MAX_TERMS terms: it has at most one per pair of terms, and at most
    one per monomial of degree up to deg p + deg q in the variables that
    p or q use."""
    used = sum(1 for column in zip(*p.nums, *q.nums) if any(column))
    bound = min(len(p.nums) * len(q.nums),
                comb(used + p.degree() + q.degree(), used))
    if bound > MAX_TERMS:
        raise FormParseError(f"a product of up to {bound} terms is above "
                             f"the maximum {MAX_TERMS}")


def _product(p: Poly, q: Poly) -> Poly:
    check_product(p, q)
    return p * q


def _parse_int(t: str) -> int:
    if len(t) > MAX_DIGITS:
        raise FormParseError(f"a run of {len(t)} digits is above the "
                             f"maximum {MAX_DIGITS}")
    return int(t)


# \s and \d match exactly what str.isspace and str.isdecimal accept
_TOKEN = re.compile(r"\s+|d''?x\d+|x\d+|\d+|[-+*/^()]")


class _Tok:
    """The tokens of a form's text: generators d'x<i> and d''x<i>,
    variables x<i>, digit runs and the operators + - * / ^ ( ), with
    whitespace dropped.  A digit is a Unicode decimal digit, which int()
    reads; other digit characters, such as superscripts, are errors."""

    def __init__(self, text: str):
        self.toks = []
        self.pos = i = 0
        while i < len(text):
            m = _TOKEN.match(text, i)
            if m is None:
                if text.startswith(("d'x", "d''x"), i):
                    raise FormParseError(f"bad generator at {i}")
                if text[i] == 'x':
                    raise FormParseError(f"bad variable at {i}")
                raise FormParseError(
                    f"unexpected character {text[i]!r} at {i}")
            if not m.group().isspace():
                self.toks.append(m.group())
            i = m.end()

    def peek(self, ahead: int = 0):
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise FormParseError("unexpected end of input")
        self.pos += 1
        return t


def _parse_poly_expr(tk: _Tok, r: int, term_only: bool = False) -> Poly:
    """A sum of terms, or with term_only one term: a product of powers."""
    depth = 0

    def atom() -> Poly:
        nonlocal depth
        t = tk.peek()
        if t == '(':
            if depth == MAX_DEPTH:
                raise FormParseError(f"parentheses nested deeper than the "
                                     f"maximum {MAX_DEPTH}")
            tk.next()
            depth += 1
            p = expr()
            depth -= 1
            if tk.next() != ')':
                raise FormParseError("expected ')'")
            return p
        if t is None:
            raise FormParseError("unexpected end in polynomial")
        if t[0].isdigit():
            tk.next()
            return Poly.const(r, _parse_int(t))
        if t.startswith('x'):
            tk.next()
            idx = _parse_int(t[1:]) - 1
            if not 0 <= idx < r:
                raise FormParseError(f"variable {t} out of range (r={r})")
            return Poly.var(r, idx)
        raise FormParseError(f"unexpected token {t!r} in polynomial")

    def power() -> Poly:
        # a unary minus negates a whole power, as in Python; read as a
        # run, an odd count of them negates
        negate = False
        while tk.peek() == '-':
            tk.next()
            negate = not negate
        p = atom()
        while tk.peek() == '^':
            tk.next()
            t = tk.next()
            if not t.isdigit():
                raise FormParseError("exponent must be an integer")
            digits = t.lstrip("0") or "0"
            # compare lengths first: int() refuses very long digit strings
            if (len(digits) > len(str(MAX_EXPONENT))
                    or int(digits) > MAX_EXPONENT):
                raise FormParseError(
                    f"exponent above the maximum {MAX_EXPONENT}")
            n = int(digits)
            if p.degree() * n > MAX_EXPONENT:
                raise FormParseError(f"power of degree {p.degree() * n} "
                                     f"above the maximum {MAX_EXPONENT}")
            acc = Poly.const(r, 1)
            for _ in range(n):
                acc = _product(acc, p)
            p = acc
        return -p if negate else p

    def term() -> Poly:
        p = power()
        while tk.peek() in ('*', '/'):
            op = tk.next()
            q = power()
            if op == '*':
                p = _product(p, q)
            else:
                if q.degree() != 0:
                    raise FormParseError("can only divide by a constant")
                if q.is_zero():
                    raise FormParseError("division by zero")
                p = p * Fraction(q.den, q.nums[(0,) * r])
        return p

    def expr() -> Poly:
        p = term()
        while tk.peek() in ('+', '-'):
            op = tk.next()
            q = term()
            p = p + q if op == '+' else p - q
        return p

    return term() if term_only else expr()


def parse_form(text: str, r: int) -> SuperForm:
    """Parse e.g. "(2*x1^2 + x2) d'x1 ^ d''x2"; terms joined by + or -."""
    _count(r, "r")
    tk = _Tok(text)
    total = None

    def at_gen(ahead: int = 0) -> bool:
        return (tk.peek(ahead) or "").startswith("d'")

    def parse_term(negate: bool):
        nonlocal total
        t = tk.peek()
        if t is not None and (t[0].isdigit() or t[0] in "x(-"):
            # a leading group is the first factor of a product: a + or -
            # after that product begins the next term
            poly = _parse_poly_expr(tk, r, term_only=t == '(')
        else:
            poly = Poly.const(r, 1)
        # all indices are read before any generator is built, so that a
        # digit-run error is reported before an index-range one
        gens = []
        while at_gen():
            t = tk.next()
            gens.append((t.startswith("d''"),
                         _parse_int(t.rpartition('x')[2]) - 1))
            if tk.peek() == '^' and at_gen(1):
                tk.next()
        # each generator is wedged on in the order written
        form = SuperForm.function(poly if not negate else -poly)
        one = Poly.const(r, 1)
        for second, k in gens:
            form = wedge(form, SuperForm(r, 0, 1, {((), (k,)): one}) if second
                         else SuperForm(r, 1, 0, {((k,), ()): one}))
        if total is None:
            total = form
        else:
            total = total + form

    parse_term(False)
    while tk.peek() in ('+', '-'):
        op = tk.next()
        parse_term(op == '-')
    if tk.peek() is not None:
        raise FormParseError(f"trailing input at token {tk.peek()!r}")
    return total
