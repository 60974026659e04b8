import contextlib
import gc
import io
import math
import operator
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from skelpot.cli import _positivity_points, main
from skelpot.graph import GraphError
from skelpot.linalg import is_psd_exact
from skelpot.superforms import (MAX_DEPTH, MAX_DIGITS, MAX_EXPONENT,
                                AffineMap, BidegreeError, FormParseError,
                                Poly, SuperForm, d_prime, d_second,
                                format_form, format_poly, hessian_form,
                                is_positive_11, j_involution, parse_form,
                                pullback, wedge)

F = Fraction


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_arith_and_eval():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x * x + 2 * y + Poly.const(2, -3)
    assert p.eval([F(2), F(5)]) == 4 + 10 - 3
    assert (p - p).is_zero()
    assert p.diff(0) == 2 * x
    assert p.diff(1) == Poly.const(2, 2)
    assert p.degree() == 2


def test_format_poly():
    p = Poly.var(2, 0) * Poly.var(2, 0) - Poly.const(2, F(1, 2))
    s = format_poly(p)
    assert "x1^2" in s and "-1/2" in s
    assert format_poly(Poly(2, {})) == "0"


# ---------------------------------------------------------------------------
# random form generator for identity checks
# ---------------------------------------------------------------------------

def _random_poly(rng, r, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, max_deg) for _ in range(r))
        terms[e] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return Poly(r, terms)


def _random_form(rng, r, p=None, q=None, max_deg=2):
    p = rng.randint(0, r) if p is None else p
    q = rng.randint(0, r) if q is None else q
    coeffs = {}
    all_i = list(combinations(range(r), p))
    all_j = list(combinations(range(r), q))
    for _ in range(rng.randint(1, 3)):
        coeffs_key = (rng.choice(all_i), rng.choice(all_j))
        coeffs[coeffs_key] = _random_poly(rng, r, max_deg)
    return SuperForm(r, p, q, coeffs)


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def test_d_prime_of_function():
    # d'(x1^2) = 2 x1 d'x1
    psi = Poly.var(1, 0) * Poly.var(1, 0)
    a = d_prime(SuperForm.function(psi))
    assert a.coeffs == {((0,), ()): 2 * Poly.var(1, 0)}
    assert d_prime(SuperForm.function(Poly.const(2, 7))).is_zero()


def test_d_prime_d_second_on_square():
    # d'd''(x1^2) = 2 d'x1 ^ d''x1
    psi = Poly.var(1, 0) * Poly.var(1, 0)
    a = d_prime(d_second(SuperForm.function(psi)))
    assert a.coeffs == {((0,), (0,)): Poly.const(1, 2)}


def test_differential_identities_random():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(1, 3)
        a = _random_form(rng, r)
        assert d_prime(d_prime(a)).is_zero()
        assert d_second(d_second(a)).is_zero()
        assert d_prime(d_second(a)) == -d_second(d_prime(a))


def test_leibniz_rule_d_prime():
    rng = random.Random(11)
    for _ in range(100):
        r = rng.randint(1, 3)
        a = _random_form(rng, r)
        b = _random_form(rng, r)
        sgn = (-1) ** (a.p + a.q)
        lhs = d_prime(wedge(a, b))
        rhs = wedge(d_prime(a), b) + wedge(a, d_prime(b)).scale(sgn)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_with_one_is_identity():
    rng = random.Random(3)
    for _ in range(50):
        r = rng.randint(1, 3)
        a = _random_form(rng, r)
        one = SuperForm.function(Poly.const(r, 1))
        assert wedge(one, a) == a
        assert wedge(a, one) == a


def test_wedge_of_standard_11_forms():
    # (d'x1 ^ d''x1) ^ (d'x2 ^ d''x2) = - d'x1 ^ d'x2 ^ d''x1 ^ d''x2
    one = Poly.const(2, 1)
    a = SuperForm(2, 1, 1, {((0,), (0,)): one})
    b = SuperForm(2, 1, 1, {((1,), (1,)): one})
    w = wedge(a, b)
    assert w.coeffs == {((0, 1), (0, 1)): -one}


def test_wedge_graded_commutativity():
    rng = random.Random(4)
    for _ in range(150):
        r = rng.randint(1, 3)
        a = _random_form(rng, r)
        b = _random_form(rng, r)
        sgn = (-1) ** ((a.p + a.q) * (b.p + b.q))
        assert wedge(a, b) == wedge(b, a).scale(sgn)


def test_wedge_associativity():
    rng = random.Random(5)
    for _ in range(100):
        r = rng.randint(1, 3)
        a, b, c = (_random_form(rng, r) for _ in range(3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# ---------------------------------------------------------------------------
# J involution
# ---------------------------------------------------------------------------

def test_j_on_functions_and_standard_forms():
    psi = SuperForm.function(Poly.var(2, 0))
    assert j_involution(psi) == psi
    # J(d'x1 ^ d''x2) = - d'x2 ^ d''x1
    a = SuperForm(2, 1, 1, {((0,), (1,)): Poly.const(2, 1)})
    assert j_involution(a) == SuperForm(
        2, 1, 1, {((1,), (0,)): Poly.const(2, -1)})


def test_j_squared_identity_and_conjugation():
    rng = random.Random(6)
    for _ in range(200):
        r = rng.randint(1, 3)
        a = _random_form(rng, r)
        assert j_involution(j_involution(a)) == a
        # d'' = J o d' o J
        assert d_second(a) == j_involution(d_prime(j_involution(a)))


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def test_pullback_identity_map():
    rng = random.Random(8)
    ident = AffineMap.of([[1, 0], [0, 1]], [0, 0])
    for _ in range(50):
        a = _random_form(rng, 2)
        assert pullback(ident, a) == a


def test_pullback_diagonal_curve():
    # F(t) = (t, t) pulls d'x1 ^ d''x2 back to d't ^ d''t.
    f = AffineMap.of([[1], [1]], [0, 0])
    a = SuperForm(2, 1, 1, {((0,), (1,)): Poly.const(2, 1)})
    got = pullback(f, a)
    assert got == SuperForm(1, 1, 1, {((0,), (0,)): Poly.const(1, 1)})


def test_pullback_substitutes_coefficients():
    # F(t) = (2t + 1, ...) composes polynomial coefficients exactly.
    f = AffineMap.of([[2]], [1])
    a = SuperForm.function(Poly.var(1, 0) * Poly.var(1, 0))
    got = pullback(f, a)
    t = Poly.var(1, 0)
    assert got == SuperForm.function(4 * (t * t) + 4 * t + Poly.const(1, 1))


def test_pullback_commutes_with_d_prime():
    rng = random.Random(9)
    f = AffineMap.of([[1, 2], [0, 1], [3, -1]], [1, 0, 2])
    for _ in range(100):
        a = _random_form(rng, 3)
        assert pullback(f, d_prime(a)) == d_prime(pullback(f, a))
        assert pullback(f, d_second(a)) == d_second(pullback(f, a))


def _substitute_ref(poly, affines):
    """poly composed with x_i = affines[i], by repeated products."""
    r2 = affines[0].r
    acc = Poly(r2, {})
    for e, c in poly.terms.items():
        term = Poly.const(r2, c)
        for a, k in zip(affines, e):
            for _ in range(k):
                term = term * a
        acc = acc + term
    return acc


def _pullback_ref(f_map, alpha):
    """The pullback one generator at a time: substitute the coefficient,
    then wedge on the pullback sum_s A[i][s] d'y_s of each d'x_i, and
    likewise for each d''x_j."""
    r2 = f_map.r_in
    affines = [Poly(r2, {tuple(1 if t == s else 0 for t in range(r2)):
                         f_map.matrix[i][s] for s in range(r2)})
               + Poly.const(r2, f_map.translation[i])
               for i in range(f_map.r_out)]

    def gen_pull(i, primed):
        cs = {}
        for s in range(r2):
            c = f_map.matrix[i][s]
            if c == 0:
                continue
            key = ((s,), ()) if primed else ((), (s,))
            cs[key] = Poly.const(r2, c)
        return SuperForm(r2, 1 if primed else 0, 0 if primed else 1, cs)

    total = SuperForm(r2, alpha.p, alpha.q)
    for (i, j), poly in alpha.coeffs.items():
        term = SuperForm.function(_substitute_ref(poly, affines))
        for k in i:
            term = wedge(term, gen_pull(k, True))
        for k in j:
            term = wedge(term, gen_pull(k, False))
        total = total + term
    return total


def _random_map(rng, r_out, r_in, kind):
    """An affine map R^r_in -> R^r_out whose matrix is integer, rational,
    or singular (a product through a dimension below min(r_out, r_in))."""
    def entry():
        if kind == "integer":
            return rng.randint(-2, 2)
        return F(rng.randint(-5, 5), rng.randint(1, 4))

    if kind == "singular":
        k = min(r_out, r_in) - 1
        left = [[entry() for _ in range(k)] for _ in range(r_out)]
        right = [[entry() for _ in range(r_in)] for _ in range(k)]
        matrix = [[sum((left[i][t] * right[t][s] for t in range(k)), F(0))
                   for s in range(r_in)] for i in range(r_out)]
    else:
        matrix = [[entry() for _ in range(r_in)] for _ in range(r_out)]
    return AffineMap.of(matrix, [entry() for _ in range(r_out)])


def test_pullback_equals_wedge_reference():
    """Every bidegree on R^1..R^4, pulled back by integer, rational and
    singular maps from R^1..R^4 (so non-square ones too).  On R^4 the
    coefficients are affine in each variable, to keep the reference's
    expansions small."""
    rng = random.Random(12)
    kinds = ("integer", "rational", "singular")
    for r in range(1, 5):
        for p in range(r + 1):
            for q in range(r + 1):
                for r_in in range(1, 5):
                    f_map = _random_map(rng, r, r_in, rng.choice(kinds))
                    alpha = _random_form(rng, r, p, q, 2 if r < 4 else 1)
                    assert pullback(f_map, alpha) == \
                        _pullback_ref(f_map, alpha)
    # each kind on the two named non-square shapes, R^1 -> R^2 and
    # R^3 -> R^2, for every bidegree on R^2
    for r_in in (1, 3):
        for kind in kinds:
            f_map = _random_map(rng, 2, r_in, kind)
            for p in range(3):
                for q in range(3):
                    alpha = _random_form(rng, 2, p, q)
                    got = pullback(f_map, alpha)
                    assert got == _pullback_ref(f_map, alpha)
                    _assert_clean(got)



def test_pullback_leaves_no_reference_cycle():
    """With the cyclic collector off, seeded pullbacks leave nothing for
    it to free: everything they make is freed by reference counting."""
    rng = random.Random(14)
    cases = [(_random_map(rng, 3, 3, rng.choice(("integer", "rational"))),
              _random_form(rng, 3)) for _ in range(50)]
    gc.collect()
    gc.disable()
    try:
        for f_map, alpha in cases:
            pullback(f_map, alpha)
        assert gc.collect() == 0
    finally:
        gc.enable()

def test_pullback_and_substitute_edge_cases():
    """Shapes the substitution must get right, against the references: a
    degree-0 coefficient, maps between spaces of different dimensions, a
    zero matrix row with a zero translation (a coordinate pulled back to
    0), and monomials whose one exponent is the coefficient's whole
    degree (the largest per-variable exponent an output can have)."""
    x = [Poly.var(3, i) for i in range(3)]
    const = Poly.const(3, F(-3, 4))
    pure = x[2] * x[2] * x[2] * F(5, 2) + x[0] * F(1, 3)   # x3^3: degree 3
    mixed = x[0] * x[0] * x[1] - x[2] * x[2] * x[2] + const
    forms = [SuperForm.function(const), SuperForm.function(pure),
             SuperForm(3, 1, 1, {((0,), (2,)): const, ((1,), (1,)): pure,
                                 ((2,), (0,)): mixed}),
             SuperForm(3, 2, 1, {((0, 2), (1,)): mixed,
                                 ((1, 2), (2,)): const}),
             SuperForm(3, 0, 2, {((), (0, 2)): pure * pure})]
    maps = [AffineMap.of([[2], [F(-1, 3)], [1]], [1, 0, F(1, 2)]),  # R^1
            AffineMap.of([[1, 2], [0, 0], [3, F(1, 5)]], [0, 0, 0]),
            AffineMap.of([[1, 0, 2, 1], [0, 0, 0, 0], [F(1, 2), 1, 0, -1]],
                         [F(2, 3), 0, -1]),                        # R^4
            AffineMap.of([[0, 0, 0], [1, -1, 2], [0, 0, 0]], [0, 3, 0]),
            AffineMap.of([[0, 0], [0, 0], [0, 0]], [0, 0, 0])]
    for f_map in maps:
        for alpha in forms:
            got = pullback(f_map, alpha)
            assert got == _pullback_ref(f_map, alpha)
            _assert_clean(got)
    # terms that cancel exactly leave nothing behind
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    half = AffineMap.of([[F(1, 3)], [F(1, 3)]], [F(1, 2), F(1, 2)])
    for poly in (x1 - x2, x1 * x1 - x2 * x2 + x1 - x2):
        assert pullback(half, SuperForm.function(poly)).is_zero()
    got = pullback(AffineMap.of([[F(2, 3)], [F(-4, 9)]], [0, 0]),
                   SuperForm.function(x1 * x1 + x2))
    assert got.coeffs[((), ())].terms == {(2,): F(4, 9), (1,): F(-4, 9)}


def test_affine_map_validation():
    with pytest.raises(ValueError):
        AffineMap.of([[1, 0], [1]], [0, 0])
    with pytest.raises(ValueError):
        AffineMap.of([[1, 0]], [0, 0])
    f = AffineMap.of([[1]], [0])
    with pytest.raises(BidegreeError):
        pullback(f, SuperForm.function(Poly.const(2, 1)))


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------

GRID = [(F(a), F(b)) for a in range(-2, 3) for b in range(-2, 3)]


def test_hessian_positivity_convex_quadratic():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    v = is_positive_11(hessian_form(x * x + y * y), GRID)
    assert v.ok and not v.violations


def test_hessian_positivity_saddle_fails_everywhere():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    v = is_positive_11(hessian_form(x * x - y * y), GRID)
    assert not v.ok
    assert len(v.violations) == len(GRID)


def test_hessian_positivity_rank_one_psd():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    s = x + y
    v = is_positive_11(hessian_form(s * s), GRID)
    assert v.ok


def test_positivity_rejects_asymmetric_and_wrong_degree():
    one, two = Poly.const(2, 1), Poly.const(2, 2)
    for coeffs in ({((0,), (1,)): one},                     # upper only
                   {((1,), (0,)): one},                     # lower only
                   {((0,), (1,)): one, ((1,), (0,)): two}):  # mirrors differ
        with pytest.raises(BidegreeError, match="not symmetric"):
            is_positive_11(SuperForm(2, 1, 1, coeffs), GRID)
    with pytest.raises(BidegreeError):
        is_positive_11(SuperForm.function(Poly.const(2, 1)), GRID)


def test_points_of_the_wrong_dimension_are_value_errors():
    """A point with fewer or more than r coordinates is refused, not cut
    to r by zip: x1*x2 at (3) is not 3, and the Hessian of x1^2*x2 is
    not tested at the 1-tuple (1)."""
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    for pt in ([3], [1, 2, 3], []):
        with pytest.raises(ValueError, match="coordinates"):
            (x * y).eval(pt)
        with pytest.raises(ValueError, match="coordinates"):
            is_positive_11(hessian_form(x * x * y), [[1, 0], pt])
    assert (x * y).eval([3, 2]) == 6


def test_integral_of_hessian_is_boundary_derivative():
    # For psi on R^1, d'd''psi = psi'' d'x ^ d''x: its coefficient has psi'
    # as an antiderivative, so its integral over [a, b] is psi'(b) - psi'(a).
    t = Poly.var(1, 0)
    psi = t * t * t + 2 * t
    dpsi = psi.diff(0)
    assert hessian_form(psi) == SuperForm(1, 1, 1,
                                          {((0,), (0,)): dpsi.diff(0)})
    assert dpsi.eval([3]) - dpsi.eval([-1]) == 24  # 6t over [-1, 3]


def test_hessian_form_is_d_prime_of_d_second():
    """The Hessian form against its definition d'd'' psi, on seeded polys
    in 1 to 4 variables of degree 0 to 6; a constant psi stores no
    coefficient."""
    rng = random.Random(30)
    for r in range(1, 5):
        for deg in range(7):
            for _ in range(6):
                psi = _poly_of_degree(rng, r, deg)
                got = hessian_form(psi)
                assert got == d_prime(d_second(SuperForm.function(psi)))
                assert (got.r, got.p, got.q) == (r, 1, 1)
                _assert_clean(got)
                if deg < 2:
                    assert got.is_zero()
        for psi in (Poly(r, {}), Poly.const(r, F(7, 3))):
            got = hessian_form(psi)
            assert got.is_zero() and (got.r, got.p, got.q) == (r, 1, 1)
            assert got == d_prime(d_second(SuperForm.function(psi)))


# ---------------------------------------------------------------------------
# fast evaluation path against a per-entry reference
# ---------------------------------------------------------------------------

def _positivity_ref(alpha, points):
    """is_positive_11 evaluated entry by entry on all r^2 entries."""
    r = alpha.r
    zero = Poly(r, {})
    bad = []
    for pt in points:
        mat = [[_ref_eval(alpha.coeffs.get(((i,), (j,)), zero).terms, pt)
                for j in range(r)] for i in range(r)]
        if not is_psd_exact(mat):
            bad.append(tuple(F(x) for x in pt))
    return not bad, tuple(bad)


def _poly_of_degree(rng, r, deg):
    """A random polynomial with a term of total degree deg and up to two
    terms of lower degree."""
    terms = {}
    for d in [deg] + [rng.randint(0, deg) for _ in range(rng.randint(0, 2))]:
        e = [0] * r
        for _ in range(d):
            e[rng.randrange(r)] += 1
        terms[tuple(e)] = F(rng.choice([-1, 1]) * rng.randint(1, 9),
                            rng.randint(1, 6))
    return Poly(r, terms)


def _random_symmetric_11(rng, r, max_deg=None):
    """A random symmetric (1,1)-form: a Gram matrix B B^T of random
    polynomials (PSD everywhere), a random symmetric matrix, or the first
    plus a small random symmetric perturbation, so both verdicts occur.
    With max_deg, each entry of the symmetric matrix and of B has its own
    total degree, at most max_deg and max_deg // 2."""
    def poly(top):
        if max_deg is None:
            return _random_poly(rng, r, max_deg=2 if top else 1)
        return _poly_of_degree(rng, r, rng.randint(0, max_deg if top
                                                   else max_deg // 2))

    def sym():
        m = [[None] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                m[i][j] = m[j][i] = (poly(True)
                                     if rng.random() < 0.8 else Poly(r, {}))
        return m

    kind = rng.randrange(3)
    if kind == 1:
        m = sym()
    else:
        b = [[poly(False) for _ in range(r)] for _ in range(r)]
        m = [[Poly(r, {}) for _ in range(r)] for _ in range(r)]
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    m[i][j] = m[i][j] + b[i][k] * b[j][k]
        if kind == 2:
            eps = sym()
            m = [[m[i][j] + eps[i][j] * F(1, 50) for j in range(r)]
                 for i in range(r)]
    return SuperForm(r, 1, 1, {((i,), (j,)): m[i][j]
                               for i in range(r) for j in range(r)})


def test_positivity_matches_per_entry_reference():
    rng = random.Random(2024)
    verdicts = []
    for r in (2, 3):
        defaults = _positivity_points(None, r)
        for _ in range(20):
            alpha = _random_symmetric_11(rng, r)
            rational = [[F(rng.randint(-9, 9), rng.randint(2, 7))
                         for _ in range(r)] for _ in range(6)]
            repeated = rational[:3] + rational[:2] + defaults[:2]
            for points in (defaults, rational, repeated):
                got = is_positive_11(alpha, points)
                assert (got.ok, got.violations) == \
                    _positivity_ref(alpha, points)
                verdicts.append(got.ok)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10

    # r = 1 to 4 with the zero form and entries of unequal degrees up to
    # 6, at points with coprime denominators up to 10^6, plain ints, and
    # both mixed in one point
    def big():
        return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    verdicts = []
    primes = [999983, 999979, 999961, 999959]
    for r in (1, 2, 3, 4):
        point_sets = (
            [[F(rng.randint(-10**6, 10**6), d) for d in primes[:r]]
             for _ in range(3)],
            [[big() for _ in range(r)] for _ in range(3)],
            [[rng.randint(-9, 9) for _ in range(r)] for _ in range(6)],
            [[rng.choice([rng.randint(-3, 3), big()]) for _ in range(r)]
             for _ in range(4)])
        forms = [SuperForm(r, 1, 1, {})] + \
            [_random_symmetric_11(rng, r, max_deg=6) for _ in range(6)]
        for alpha in forms:
            for points in point_sets:
                got = is_positive_11(alpha, points)
                assert (got.ok, got.violations) == \
                    _positivity_ref(alpha, points)
                verdicts.append(got.ok)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_positivity_on_entries_that_share_few_monomials():
    """r = 6 forms whose upper-triangle entries each have 20 monomials of
    degree 6 to 9 that no other entry has, so each entry holds a small
    part of the shared monomial list; in the second form the (0, 0)
    entry holds all of them, so sparse and full entries meet in one
    matrix.
    At the origin every entry is 0, a PSD matrix."""
    rng = random.Random(26)
    r = 6
    used = set()

    def entry():
        terms = {}
        while len(terms) < 20:
            e = [0] * r
            for _ in range(rng.randint(6, 9)):
                e[rng.randrange(r)] += 1
            if tuple(e) not in used:
                used.add(tuple(e))
                terms[tuple(e)] = F(rng.choice([-1, 1]) * rng.randint(1, 9),
                                    rng.randint(1, 6))
        return Poly(r, terms)

    upper = {(i, j): entry() for i in range(r) for j in range(i, r)}
    disjoint = SuperForm(r, 1, 1, {((i,), (j,)): upper[min(i, j), max(i, j)]
                                   for i in range(r) for j in range(r)})
    full = sum((v for k, v in upper.items() if k != (0, 0)), Poly(r, {}))
    mixed = SuperForm(r, 1, 1, {**disjoint.coeffs, ((0,), (0,)): full})
    points = [[0] * r] + [[F(rng.randint(-9, 9), rng.randint(1, 7))
                           for _ in range(r)] for _ in range(9)]
    for alpha in (disjoint, mixed):
        got = is_positive_11(alpha, points)
        assert (got.ok, got.violations) == _positivity_ref(alpha, points)
        assert tuple([0] * r) not in got.violations and got.violations


def test_positivity_columns_on_edge_cases():
    """The column kernel against the per-entry reference on r = 0 and
    r = 1, no points, a generator of points (read once), a zero diagonal
    entry beside a nonzero off-diagonal one (not PSD, and not decided by
    the diagonal), entries of mixed degrees and points over different
    denominators in one call."""
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    t = Poly.var(1, 0)
    mixed = [(F(1, 2), F(-1, 3)), (3, F(5, 7)), (F(-2, 9), 1), (0, 0),
             [F(7, 4), F(1, 6)]]
    cases = [
        (SuperForm(0, 1, 1), [(), [], ()]),
        (SuperForm(0, 1, 1), []),
        (hessian_form(t * t * t - t), [(F(1, 3),), (F(1, 2),), [-1], (0,)]),
        # x^2 - 1 mixes degrees: its constant needs the factor q^2
        (hessian_form(t * t * t * t * F(1, 12) - t * t * F(1, 2)),
         [(F(1, 2),), (F(3, 2),), (2,), (F(-5, 4),)]),
        (hessian_form(x * x + y * y), []),
        (hessian_form(x * y), [(0, 0), (1, F(1, 2))]),
        (hessian_form(x * x * y - y * y * y), mixed),
        (hessian_form(x * x * x * x + x * y * F(1, 5)), mixed),
    ]
    for alpha, points in cases:
        got = is_positive_11(alpha, points)
        assert (got.ok, got.violations) == _positivity_ref(alpha, points)
    assert is_positive_11(hessian_form(x * y), [(0, 0)]).violations == \
        ((0, 0),)
    read = []

    def generated():
        for pt in mixed:
            read.append(pt)
            yield pt
    got = is_positive_11(hessian_form(x * x * y - y * y * y), generated())
    assert (got.ok, got.violations) == _positivity_ref(
        hessian_form(x * x * y - y * y * y), mixed)
    assert read == mixed


def test_a_negative_diagonal_decides_a_point_without_psd(monkeypatch):
    """No point with a negative diagonal entry reaches the PSD kernel:
    the Hessian of -x^2 - y^2 (-2 on the diagonal) calls it at none of
    the 25 grid points, that of x^2 + y^2 at all of them."""
    from skelpot import superforms
    calls = []
    psd = superforms._psd

    def count(m):
        calls.append(m)
        return psd(m)
    monkeypatch.setattr(superforms, "_psd", count)
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    v = is_positive_11(hessian_form(-x * x - y * y), GRID)
    assert v.violations == tuple(GRID) and calls == []
    v = is_positive_11(hessian_form(x * x + y * y), GRID)
    assert v.ok and len(calls) == 25


def test_points_that_are_not_sequences_are_value_errors():
    """A point that is not a list or a tuple is refused, named with its
    place in the list, by is_positive_11 and by Poly.eval; a form that
    is not a SuperForm is refused, its type named."""
    x = Poly.var(1, 0)
    for call, text in [
            (lambda: is_positive_11(hessian_form(x * x), [1]),
             "point 0 is not a list or a tuple: 1"),
            (lambda: is_positive_11(hessian_form(x * x), [(1,), {1}]),
             "point 1 is not a list or a tuple: {1}"),
            (lambda: is_positive_11(hessian_form(x * x), [(1,), "1"]),
             "point 1 is not a list or a tuple: '1'"),
            (lambda: x.eval(1), "point 0 is not a list or a tuple: 1"),
            (lambda: is_positive_11(x, [(1,)]),
             "alpha of type Poly is not a SuperForm")]:
        with pytest.raises(ValueError) as exc:
            call()
        assert type(exc.value) is ValueError and str(exc.value) == text


def _poly_text(poly):
    """poly as the parser's text, written here rather than by
    format_poly: signed rational coefficient times x<i>^k factors."""
    terms = [f"{c.numerator}/{c.denominator}" + "".join(
        f"*x{i + 1}^{k}" for i, k in enumerate(e) if k)
        for e, c in poly.terms.items()]
    return " + ".join(terms) or "0"


_small = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def _positivity_call(draw):
    """(argv, form, points, dimension right) of one `superform --op
    positivity` call on a symmetric (1,1)-form with entries of degree at
    most 3, at 1 to 5 points; a point of the wrong dimension makes the
    call malformed."""
    r = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * r).filter(lambda e: sum(e) <= 3)
    entry = st.dictionaries(exps, _small, max_size=3).map(
        lambda t: Poly(r, t))
    m = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            m[i][j] = m[j][i] = draw(entry)
    alpha = SuperForm(r, 1, 1, {((i,), (j,)): m[i][j]
                                for i in range(r) for j in range(r)})
    width = draw(st.sampled_from([r] * 9 + [r + 1]))
    points = draw(st.lists(st.lists(_small, min_size=width,
                                    max_size=width), min_size=1, max_size=5))
    text = " + ".join(f"({_poly_text(m[i][j])}) d'x{i + 1} ^ d''x{j + 1}"
                      for i in range(r) for j in range(r))
    # --points=...: a separate "-1,0" would be read as an option
    argv = ["superform", text, "--r", str(r), "--op", "positivity",
            "--points=" + ";".join(",".join(map(str, pt)) for pt in points)]
    return argv, alpha, points, width == r


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_positivity_call())
def test_positivity_cli_fuzz_matches_reference(call):
    """The CLI's verdict and violation lines on random symmetric forms
    and points equal the per-entry reference; a malformed call exits 2;
    nothing ends in a traceback."""
    argv, alpha, points, well_formed = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2) and "Traceback" not in err.getvalue()
    if not well_formed:
        assert rc == 2 and out.getvalue() == ""
        return
    ok, bad = _positivity_ref(alpha, points)
    lines = out.getvalue().splitlines()
    assert rc == (0 if ok else 1)
    assert lines[0] == ("positive" if ok else "not positive")
    assert [tuple(map(F, line[len("violation at ("):-1].split(", ")))
            for line in lines[1:]] == list(bad)


_FORM_TEXTS = ["(2*x1^2 + x2) d'x1 ^ d''x2", "x1^2 + x2^2 - x1*x2/3",
               "(x1+x2)^2*x2", "-x1^3/2 d'x1 + (x2)*x1 d'x2",
               "d'x1 ^ d''x1 + (x1*x2) d'x2 ^ d''x2", "3*-x1^2*(x2 - 1)/4",
               "(x1 - 2) d''x2 d'x1 - x2^2 d'x2 ^ d''x2", "x1*x2^3 + 7"]
_TEXT_PIECES = list("()^*/+-0123456789x") + ["d'"]


@st.composite
def _mutated_text(draw):
    """A valid form text with one or two single-character edits: a
    piece inserted, a character replaced by a piece, or one deleted."""
    text = draw(st.sampled_from(_FORM_TEXTS))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(text) - 1))
        piece = draw(st.sampled_from(_TEXT_PIECES))
        text = draw(st.sampled_from([text[:i] + piece + text[i:],
                                     text[:i] + piece + text[i + 1:],
                                     text[:i] + text[i + 1:]]))
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_mutated_text(), _mutated_text(),
       st.sampled_from(["dprime", "dsecond", "J", "wedge", "positivity"]))
def test_superform_cli_fuzz_on_mutated_texts(text, second, op):
    """Every mutated text exits 0, 1 or 2 without a traceback, and a
    malformed one (exit 2) prints nothing on stdout."""
    argv = ["superform", "--op", op, "--", text]
    if op == "wedge":
        argv[3:3] = ["--with=" + second]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def test_poly_eval_matches_reference():
    rng = random.Random(5)
    for _ in range(200):
        r = rng.randint(1, 3)
        poly = _random_poly(rng, r, max_deg=4)
        pt = [rng.choice([rng.randint(-3, 3), F(rng.randint(-7, 7), 3)])
              for _ in range(r)]
        got = poly.eval(pt)
        assert type(got) is F and got == _ref_eval(poly.terms, pt)
    assert type(Poly(2, {}).eval([1, 2])) is F


def _assert_clean(alpha):
    for poly in alpha.coeffs.values():
        assert poly.terms
        for e, c in poly.terms.items():
            assert type(c) is F and c != 0
            assert type(e) is tuple and len(e) == alpha.r


def test_operation_results_store_clean_fractions():
    rng = random.Random(31)
    maps = {r: AffineMap.of([[rng.randint(-2, 2) for _ in range(r)]
                             for _ in range(r)],
                            [rng.randint(-2, 2) for _ in range(r)])
            for r in (1, 2, 3)}
    for _ in range(150):
        r = rng.randint(1, 3)
        a, b = _random_form(rng, r), _random_form(rng, r)
        # a - a and a + (-a) cancel every term: nothing may be left over
        for out in (d_prime(a), d_second(a), d_prime(d_second(a)),
                    wedge(a, b), wedge(a, a), j_involution(a),
                    j_involution(j_involution(a)), pullback(maps[r], a),
                    a.scale(-1), a.scale(F(2, 3)), a - a, a + (-a)):
            _assert_clean(out)
        assert (a - a).is_zero()


# ---------------------------------------------------------------------------
# parse / format
# ---------------------------------------------------------------------------

def test_parse_simple_forms():
    a = parse_form("d'x1 ^ d''x2", 2)
    assert a == SuperForm(2, 1, 1, {((0,), (1,)): Poly.const(2, 1)})
    b = parse_form("(2*x1^2 + x2) d'x1 ^ d''x2", 2)
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    assert b == SuperForm(2, 1, 1, {((0,), (1,)): 2 * (x1 * x1) + x2})
    c = parse_form("x1^2 + x2^2", 2)
    assert c == SuperForm.function(x1 * x1 + x2 * x2)


def test_parse_shuffle_sign():
    # Out-of-order generators pick up the shuffle sign.
    a = parse_form("d'x2 ^ d'x1", 2)
    assert a == SuperForm(2, 2, 0, {((0, 1), ()): Poly.const(2, -1)})


def test_parse_wedges_generators_in_the_order_written():
    """A term with its generators in any order, d'' before d' included,
    is the left-to-right wedge of its separately parsed factors."""
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randint(1, 3)
        text = f"({format_poly(_random_poly(rng, r))})"
        expected = parse_form(text, r)
        for i in range(rng.randint(0, 4)):
            gen = rng.choice(["d'", "d''"]) + f"x{rng.randint(1, r)}"
            expected = wedge(expected, parse_form(gen, r))
            text += (rng.choice([" ", " ^ "]) if i else " ") + gen
        assert parse_form(text, r) == expected


def test_parse_leading_group_is_the_first_factor_of_its_term():
    """A term that begins with a parenthesized group goes on with ^, *
    and / as a product; a + or - after the group's product still begins
    the next term of the form."""
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    s = x1 + x2
    for text, want in (("(x1+x2)^2", s * s),
                       ("(x1+x2)*x1", s * x1),
                       ("(x1+x2)/2*x2^2 - x1", s * x2 * x2 * F(1, 2) - x1),
                       ("(x1)^2^3", x1 * x1 * x1 * x1 * x1 * x1)):
        assert parse_form(text, 2) == SuperForm.function(want)
    assert parse_form("(x1)^2 d'x1 + (x2)*x1/3 d'x2", 2) == SuperForm(
        2, 1, 0, {((0,), ()): x1 * x1, ((1,), ()): x1 * x2 * F(1, 3)})
    with pytest.raises(BidegreeError):
        parse_form("(x1)^2 + x2 d'x1", 2)


def test_parse_unary_minus_negates_a_whole_power():
    """-a^n is -(a^n), as in Python, also after an operator."""
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    s = x1 + x2
    for text, want in (("-x1^2", -(x1 * x1)),
                       ("-2^2", Poly.const(2, -4)),
                       ("3*-x1^2", x1 * x1 * -3),
                       ("--x1^2", x1 * x1),
                       ("-(x1+x2)^2", -(s * s)),
                       ("x2 + -x1^2", x2 - x1 * x1),
                       ("x1 - -x2^3", x1 + x2 * x2 * x2),
                       ("x2^2*-x1^3/2", x2 * x2 * x1 * x1 * x1 * F(-1, 2))):
        assert parse_form(text, 2) == SuperForm.function(want)
    assert parse_form("-x1^2 d'x2", 2) == SuperForm(
        2, 1, 0, {((1,), ()): -(x1 * x1)})


def test_parse_format_roundtrip():
    rng = random.Random(10)
    for _ in range(100):
        r = rng.randint(1, 3)
        a = _random_form(rng, r)
        assert parse_form(format_form(a), r) == a


def test_parse_errors():
    for bad in ["d'x", "x0 +", "((x1)", "x1 @", "d'x1 ^ ^ d''x1",
                "x1 / (x1)"]:
        with pytest.raises(FormParseError):
            parse_form(bad, 2)
    with pytest.raises(FormParseError):
        parse_form("x3", 2)
    for r in (0, -1):
        with pytest.raises(ValueError) as exc:
            parse_form("1", r)
        assert str(exc.value) == f"r must be >= 1, not {r}"


@pytest.mark.parametrize("text, message", [
    ("d'x", "bad generator at 0"),
    ("x1 ^ d''x", "bad generator at 5"),
    ("x1 + x", "bad variable at 5"),
    ("xx1", "bad variable at 0"),
    ("x1 @ x2", "unexpected character '@' at 3"),
    ("d'y1", "unexpected character 'd' at 0"),
    ("(x1 x2)", "expected ')'"),
    ("((x1)", "unexpected end of input"),
    ("2 + ", "unexpected end in polynomial"),
    ("x1 )", "trailing input at token ')'"),
    ("d'x1 ^ ^ d''x1", "trailing input at token '^'"),
    ("x1^x2", "exponent must be an integer"),
    ("x1^101", "exponent above the maximum 100"),
    ("x1*(x1^20)^20", "power of degree 400 above the maximum 100"),
    pytest.param("9" * 601, "a run of 601 digits is above the maximum 600",
                 id="long-constant"),
    pytest.param("d''x" + "0" * 700 + "1",
                 "a run of 701 digits is above the maximum 600",
                 id="long-generator"),
    ("x1 / 0", "division by zero"),
    ("x1 / (x1)", "can only divide by a constant"),
    ("x3", "variable x3 out of range (r=2)"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(FormParseError) as exc:
        parse_form(text, 2)
    assert str(exc.value) == message


def test_parse_exponent_limit():
    x1 = Poly.var(1, 0)
    assert parse_form(f"x1^{MAX_EXPONENT}", 1) == \
        SuperForm.function(Poly(1, {(MAX_EXPONENT,): 1}))
    assert parse_form("x1^" + "0" * 5000 + "3", 1) == \
        SuperForm.function(x1 * x1 * x1)
    for bad in [f"x1^{MAX_EXPONENT + 1}", "x1^20000", "2^101",
                "x1^" + "1" * 5000, "x1*(x1^20)^20", "x1*(x1*x1)^51"]:
        with pytest.raises(FormParseError, match="maximum"):
            parse_form(bad, 1)


def test_parse_digit_limit():
    big = "9" * MAX_DIGITS
    assert parse_form(big + "*x1", 1) == \
        SuperForm.function(Poly(1, {(1,): int(big)}))
    for bad in ["9" * (MAX_DIGITS + 1), "x" + "1" * (MAX_DIGITS + 1),
                "d'x" + "1" * (MAX_DIGITS + 1), "d''x" + "0" * 5000 + "1"]:
        with pytest.raises(FormParseError, match=f"maximum {MAX_DIGITS}"):
            parse_form(bad, 1)


def test_parse_depth_limit():
    """Parentheses nest up to MAX_DEPTH deep, in a leading group too;
    one more level is a parse error, not a RecursionError."""
    p = Poly.var(1, 0) + Poly.const(1, 1)
    for depth, wrap, c in ((MAX_DEPTH, "{}", 1), (MAX_DEPTH - 1, "2*({})", 2)):
        text = wrap.format("(" * depth + "x1 + 1" + ")" * depth)
        assert parse_form(text + " d'x1", 1) == \
            SuperForm(1, 1, 0, {((0,), ()): p * c})
    for bad in ["(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1),
                "x1 - " + "(" * 5000 + "x1", "(" * 5000]:
        with pytest.raises(FormParseError) as exc:
            parse_form(bad, 1)
        assert str(exc.value) == \
            f"parentheses nested deeper than the maximum {MAX_DEPTH}"


def test_parse_runs_of_unary_minus():
    """A run of minus signs is read in a loop: an odd count negates."""
    x1 = Poly.var(1, 0)
    for n in (1000, 1001, 5000):
        want = x1 * x1 * (-1) ** n
        assert parse_form("x1*" + "-" * n + "x1", 1) == \
            SuperForm.function(want)
        assert parse_form("-" * n + "x1^2", 1) == SuperForm.function(want)


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------

def test_superform_key_validation():
    with pytest.raises(BidegreeError):
        SuperForm(2, 1, 0, {((0, 1), ()): Poly.const(2, 1)})
    with pytest.raises(BidegreeError):
        SuperForm(2, 2, 0, {((1, 0), ()): Poly.const(2, 1)})
    with pytest.raises(BidegreeError):
        SuperForm(2, 1, 0, {((5,), ()): Poly.const(2, 1)})
    with pytest.raises(BidegreeError):
        SuperForm(2, 0, 0)._match(SuperForm(3, 0, 0))
    with pytest.raises(BidegreeError, match="negative bidegree"):
        SuperForm(2, -1, 0)
    with pytest.raises(BidegreeError, match="ambient dimension mismatch"):
        wedge(SuperForm(2, 0, 0), SuperForm(3, 0, 0))


@pytest.mark.parametrize("key", [((0.0,), ()), ((True,), ()), 5,
                                 (("a",), ()), ((0,),), ((0,), (), ()),
                                 ("0", ())],
                         ids=["float", "bool", "int", "string", "single",
                              "triple", "str-block"])
def test_superform_refuses_keys_that_are_not_pairs_of_int_tuples(key):
    """A float or a bool is no index, as it is no Poly exponent: each key
    is named in a BidegreeError, and none is read as another index."""
    with pytest.raises(BidegreeError) as exc:
        SuperForm(1, 1, 0, {key: Poly.var(1, 0)})
    assert str(exc.value) == f"key {key!r} is not a pair of tuples of ints"


def test_superform_refuses_coefficients_that_are_not_polys():
    for bad, name in [(3, "int"), (F(1, 2), "Fraction"), ("x1", "str")]:
        with pytest.raises(BidegreeError) as exc:
            SuperForm(1, 1, 0, {((0,), ()): bad})
        assert str(exc.value) == \
            f"coefficient at ((0,), ()) of type {name} is not a Poly"


@pytest.mark.parametrize("terms",[{(1,): 5}, {(-1, 2): 5}, {(1, 0, 0): 1},
                                   {(1.5, 0): 1}, {(True, 0): 1},
                                   {("1", 0): 1}],
                         ids=["short", "negative", "long", "float", "bool",
                              "string"])
def test_poly_refuses_exponents_of_the_wrong_shape(terms):
    with pytest.raises(ValueError, match="exponent"):
        Poly(2, terms)


def test_poly_arithmetic_refuses_mixed_dimensions():
    x, y = Poly.var(2, 0), Poly.var(3, 0)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="2 and 3 variables"):
            op(x, y)


def test_superform_refuses_a_coefficient_of_another_dimension():
    with pytest.raises(BidegreeError, match="coefficient in 3 variables"):
        SuperForm(2, 0, 0, {((), ()): Poly.var(3, 2)})


def test_positivity_of_a_function_of_another_dimension_is_refused():
    """The Hessian of a function in 3 variables cannot be checked at
    points of R^2: the function is refused when it is built."""
    with pytest.raises(ValueError, match="exponent"):
        is_positive_11(hessian_form(Poly(2, {(2, 0, 0): 1})), [[1, 1]])


# ---------------------------------------------------------------------------
# Poly and form operations against a {exponent: Fraction} reference
# ---------------------------------------------------------------------------

def _ref_clean(t):
    return {e: c for e, c in t.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _ref_clean(out)


def _ref_scale(a, c):
    return _ref_clean({e: v * c for e, v in a.items()})


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _ref_clean(out)


def _ref_diff(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in a.items() if e[i]}


def _ref_eval(a, pt):
    acc = F(0)
    for e, c in a.items():
        for x, k in zip(pt, e):
            c *= F(x) ** k
        acc += c
    return acc


def _ref_substitute(a, affines, r2):
    out = {}
    for e, c in a.items():
        term = {(0,) * r2: c}
        for aff, k in zip(affines, e):
            for _ in range(k):
                term = _ref_mul(term, aff)
        out = _ref_add(out, term)
    return out


def _ref_coeff(rng):
    """A small rational, or one with numerator and denominator up to
    10^15."""
    if rng.random() < 0.3:
        return F(rng.randint(-10**15, 10**15), rng.randint(1, 10**15))
    return F(rng.randint(-5, 5), rng.randint(1, 4))


def _ref_poly(rng, r, max_deg=2):
    return _ref_clean({tuple(rng.randint(0, max_deg) for _ in range(r)):
                       _ref_coeff(rng) for _ in range(rng.randint(1, 3))})


def _ref_point(rng, r):
    return [rng.choice([rng.randint(-3, 3), F(rng.randint(-7, 7), 3),
                        F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))])
            for _ in range(r)]


def test_poly_operations_match_fraction_reference():
    """+, -, unary -, scalar and poly *, diff and eval on r = 1 to 3,
    with denominators up to 10^15, against dict-of-Fraction arithmetic;
    the second operand sometimes cancels terms of the first."""
    rng = random.Random(1801)
    for _ in range(300):
        r = rng.randint(1, 3)
        a, b = _ref_poly(rng, r), _ref_poly(rng, r)
        if rng.random() < 0.3:
            b = _ref_add(b, {e: -c for e, c in a.items()
                             if rng.random() < 0.7})
        pa, pb = Poly(r, a), Poly(r, b)
        assert pa.terms == a
        assert (pa + pb).terms == _ref_add(a, b)
        assert (pa - pb).terms == _ref_add(a, _ref_scale(b, -1))
        assert (pa - pa).terms == {}
        assert (-pa).terms == _ref_scale(a, -1)
        c = rng.choice([0, 1, -1, rng.randint(-9, 9), _ref_coeff(rng)])
        assert (pa * c).terms == (c * pa).terms == _ref_scale(a, c)
        assert (pa * pb).terms == _ref_mul(a, b)
        for i in range(r):
            assert pa.diff(i).terms == _ref_diff(a, i)
        pt = _ref_point(rng, r)
        assert pa.eval(pt) == _ref_eval(a, pt)


def _sort_sign(idx):
    """(sign, sorted idx) of the permutation that sorts idx, by counting
    inversions; None if an index repeats."""
    if len(set(idx)) < len(idx):
        return None
    inversions = sum(1 for s in range(len(idx)) for t in range(s + 1, len(idx))
                     if idx[s] > idx[t])
    return (-1) ** inversions, tuple(sorted(idx))


def _ref_accumulate(out, key, sign, t):
    out[key] = _ref_add(out.get(key, {}), _ref_scale(t, sign))


def _ref_form(rng, r):
    """(p, q, {(I, J): reference poly}) with one to three keys."""
    p, q = rng.randint(0, r), rng.randint(0, r)
    keys = (list(combinations(range(r), p)), list(combinations(range(r), q)))
    return p, q, _ref_clean({(rng.choice(keys[0]), rng.choice(keys[1])):
                             _ref_poly(rng, r)
                             for _ in range(rng.randint(1, 3))})


def _ref_d(a, r, p, second):
    """d' inserts d'x_k in front; d'' inserts d''x_k in front, which is
    (-1)^p times d''x_k in front of the d''-block."""
    out = {}
    for (i, j), t in a.items():
        for k in range(r):
            s = _sort_sign((k,) + (j if second else i))
            if s is not None:
                key = (i, s[1]) if second else (s[1], j)
                sign = s[0] * (-1) ** p if second else s[0]
                _ref_accumulate(out, key, sign, _ref_diff(t, k))
    return _ref_clean(out)


def _ref_wedge(a, b):
    out = {}
    for (i1, j1), t1 in a.items():
        for (i2, j2), t2 in b.items():
            si, sj = _sort_sign(i1 + i2), _sort_sign(j1 + j2)
            if si is not None and sj is not None:
                sign = si[0] * sj[0] * (-1) ** (len(i2) * len(j1))
                _ref_accumulate(out, (si[1], sj[1]), sign, _ref_mul(t1, t2))
    return _ref_clean(out)


def _ref_pullback(f_map, a):
    """Substitute each coefficient, and expand d'x_I ^ d''x_J into every
    tuple of generators d'y_S ^ d''y_T with the product of the matrix
    entries, sorted by inversion count."""
    r2, m = f_map.r_in, f_map.matrix
    zero = (0,) * r2
    affines = [_ref_clean({**{zero[:s] + (1,) + zero[s + 1:]: m[i][s]
                              for s in range(r2)}, zero: b})
               for i, b in enumerate(f_map.translation)]
    out = {}
    for (i, j), t in a.items():
        sub = _ref_substitute(t, affines, r2)
        for ss in product(range(r2), repeat=len(i)):
            for tt in product(range(r2), repeat=len(j)):
                si, sj = _sort_sign(ss), _sort_sign(tt)
                if si is None or sj is None:
                    continue
                c = F(si[0] * sj[0])
                for row, col in zip(i + j, ss + tt):
                    c *= m[row][col]
                _ref_accumulate(out, (si[1], sj[1]), c, sub)
    return _ref_clean(out)


def _form_terms(alpha):
    return {k: poly.terms for k, poly in alpha.coeffs.items()}


def test_form_operations_match_fraction_reference():
    """d', d'', J, wedge and pullback (by integer, rational and singular
    maps, also non-square) against the reference, with big denominators
    among the coefficients."""
    rng = random.Random(1802)
    kinds = ("integer", "rational", "singular")
    for _ in range(300):
        r = rng.randint(1, 3)
        (pa, qa, a), (pb, qb, b) = _ref_form(rng, r), _ref_form(rng, r)
        fa = SuperForm(r, pa, qa, {k: Poly(r, t) for k, t in a.items()})
        fb = SuperForm(r, pb, qb, {k: Poly(r, t) for k, t in b.items()})
        for got, want, bideg in (
                (d_prime(fa), _ref_d(a, r, pa, False), (pa + 1, qa)),
                (d_second(fa), _ref_d(a, r, pa, True), (pa, qa + 1)),
                (j_involution(fa),
                 {(j, i): _ref_scale(t, (-1) ** (pa * qa))
                  for (i, j), t in a.items()}, (qa, pa)),
                (wedge(fa, fb), _ref_wedge(a, b), (pa + pb, qa + qb))):
            assert (got.p, got.q) == bideg
            assert _form_terms(got) == want
        r_in = rng.randint(1, 3)
        f_map = _random_map(rng, r, r_in, rng.choice(kinds))
        got = pullback(f_map, fa)
        assert (got.r, got.p, got.q) == (r_in, pa, qa)
        assert _form_terms(got) == _ref_pullback(f_map, a)


def test_equal_polys_built_by_different_routes_are_equal():
    """Equality and hash do not depend on how a poly was reached."""
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    e = (1, 0)
    for p, q in ((x * F(1, 2) + x * F(1, 2), x),
                 (Poly(2, {e: F(2, 4)}), Poly(2, {e: F(1, 2)})),
                 (Poly(2, {e: 3, (0, 1): 0}), 3 * x),
                 ((x + 1 * Poly.const(2, 1)) * (x - Poly.const(2, 1)),
                  x * x - Poly.const(2, 1)),
                 ((x * x * F(1, 2)).diff(0), x),
                 (x * F(2, 3) * F(3, 2), x),
                 (x * y * F(1, 6) + x * y * F(1, 3), x * y * F(1, 2)),
                 (x - x, Poly(2, {}))):
        assert p == q and hash(p) == hash(q)
    assert x * F(1, 2) != x and Poly(1, {(1,): 1}) != Poly(2, {e: 1})


def _assert_canonical(poly):
    assert type(poly.den) is int and poly.den > 0
    assert all(type(v) is int and v for v in poly.nums.values())
    assert math.gcd(poly.den, *poly.nums.values()) == 1
    assert all(type(e) is tuple and len(e) == poly.r for e in poly.nums)


def test_results_are_in_canonical_form():
    """Every Poly an operation returns has a positive denominator that
    shares no factor with its numerators, and no zero numerator."""
    rng = random.Random(1803)
    for _ in range(200):
        r = rng.randint(1, 3)
        a, b = _ref_poly(rng, r), _ref_poly(rng, r)
        b = _ref_add(b, {e: -c for e, c in a.items() if rng.random() < 0.5})
        pa, pb = Poly(r, a), Poly(r, b)
        for p in (pa, pb, pa + pb, pa - pb, pa - pa, -pa, pa * pb,
                  pa * 0, pa * 6, pa * _ref_coeff(rng), pa * F(2, 3),
                  *map(pa.diff, range(r))):
            _assert_canonical(p)
        (pf, qf, fa), (pg, qg, fb) = _ref_form(rng, r), _ref_form(rng, r)
        fa = SuperForm(r, pf, qf, {k: Poly(r, t) for k, t in fa.items()})
        fb = SuperForm(r, pg, qg, {k: Poly(r, t) for k, t in fb.items()})
        f_map = _random_map(rng, r, rng.randint(1, 3), "rational")
        for alpha in (d_prime(fa), d_second(fa), wedge(fa, fb),
                      j_involution(fa), pullback(f_map, fa), fa - fa,
                      fa.scale(F(4, 6)),
                      parse_form(format_form(fa), r) if fa.coeffs else fa):
            for poly in alpha.coeffs.values():
                assert not poly.is_zero()
                _assert_canonical(poly)


def test_differentials_match_per_coefficient_reference():
    """d' and d'' on R^1..R^4 against the dict-of-Fraction reference: one
    to four coefficients over denominators up to 10^6, whose outputs
    often share keys, plus where the bidegree allows an exact part d'b
    (d''b), whose contributions cancel; every output coefficient is
    nonzero and canonical."""
    rng = random.Random(2611)

    def coeff():
        return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    def terms(r):
        return _ref_clean({tuple(rng.randint(0, 2) for _ in range(r)):
                           coeff() for _ in range(rng.randint(1, 3))})

    shared = cancelled = 0
    for _ in range(300):
        r = rng.randint(1, 4)
        p, q = rng.randint(0, r), rng.randint(0, r)
        keys = [(i, j) for i in combinations(range(r), p)
                for j in combinations(range(r), q)]
        a = {key: terms(r) for key in
             rng.sample(keys, min(len(keys), rng.randint(1, 4)))}
        for second in (False, True):
            b = dict(a)
            if (q if second else p) > 0:
                # an exact part: the reference d' (with second, d'') of a
                # form of one degree less
                pb = p if second else p - 1
                key = rng.choice([(i, j) for i in combinations(range(r), pb)
                                  for j in combinations(range(r), q - second)])
                for k, t in _ref_d({key: terms(r)}, r, pb, second).items():
                    b[k] = _ref_add(b.get(k, {}), t)
            alpha = SuperForm(r, p, q, {k: Poly(r, t) for k, t in b.items()})
            got = (d_second if second else d_prime)(alpha)
            assert _form_terms(got) == _ref_d(b, r, p, second)
            assert (got.p, got.q) == ((p, q + 1) if second else (p + 1, q))
            for poly in got.coeffs.values():
                assert not poly.is_zero()
                _assert_canonical(poly)
            # the keys that receive a contribution, and how many each
            hits = {}
            for (i, j), poly in alpha.coeffs.items():
                for k in range(r):
                    ins = _sort_sign((k,) + (j if second else i))
                    if poly.diff(k).nums and ins is not None:
                        key = (i, ins[1]) if second else (ins[1], j)
                        hits[key] = hits.get(key, 0) + 1
            shared += any(n > 1 for n in hits.values())
            cancelled += len(hits) > len(got.coeffs)
    assert shared >= 150 and cancelled >= 60


@pytest.mark.parametrize("bad", [0.1, "1/2", True])
def test_superform_inputs_refuse_values_that_are_not_exact(bad):
    """A float, a str or a bool is refused as a coefficient, a point
    coordinate, an affine map entry (by .of or the constructor), a scale
    factor or a Poly's scalar factor on either side, with its place
    named: Fraction(0.1) would be a binary fraction, and Fraction("1/2")
    would read a literal."""
    x = Poly.var(2, 0)
    cases = [
        (lambda: Poly(2, {(0, 0): 1, (1, 0): bad}), "coefficient of (1, 0):"),
        (lambda: Poly.const(2, bad), "coefficient of (0, 0):"),
        (lambda: x.eval([1, bad]), "coordinate 1:"),
        (lambda: is_positive_11(hessian_form(x * x), [(0, 0), (bad, 0)]),
         "coordinate 0:"),
        (lambda: AffineMap.of([[1, 0], [0, bad]], [0, 0]), "matrix[1][1]:"),
        (lambda: AffineMap.of([[1]], [bad]), "translation[0]:"),
        (lambda: AffineMap(((1, 0), (0, bad)), (0, 0)), "matrix[1][1]:"),
        (lambda: AffineMap(((1,),), (bad,)), "translation[0]:"),
        (lambda: x * bad, "scalar"),
        (lambda: bad * x, "scalar"),
        (lambda: SuperForm.function(x).scale(bad), "scale factor"),
    ]
    for build, where in cases:
        with pytest.raises(GraphError) as exc:
            build()
        assert str(exc.value) == \
            f"{where} {bad!r} is not an int or a Fraction"


def test_affine_map_constructor_is_checked():
    """A float entry is refused before a pullback reads it, a ragged
    matrix is refused, and .of is the constructor."""
    x = SuperForm.function(Poly.var(1, 0))
    with pytest.raises(GraphError) as exc:
        pullback(AffineMap(((0.5,),), (1,)), x)
    assert str(exc.value) == "matrix[0][0]: 0.5 is not an int or a Fraction"
    with pytest.raises(ValueError) as exc:
        AffineMap(((1, 0), (1,)), (0, 0))
    assert str(exc.value) == "inconsistent affine map dimensions"
    f = AffineMap(((1, 2),), (F(1, 2),))
    assert f == AffineMap.of([[1, 2]], [F(1, 2)])
    assert {type(v) for v in (*f.matrix[0], *f.translation)} == {F}
    assert pullback(f, x) == SuperForm.function(
        Poly(2, {(1, 0): 1, (0, 1): 2, (0, 0): F(1, 2)}))


def test_poly_operands_are_checked():
    """An operand that is neither a scalar nor a Poly is refused, naming
    its type; a bool is no scalar; int and Fraction scalars work on both
    sides."""
    x = Poly.var(1, 0)
    for bad, name in [(1, "int"), (F(1, 2), "Fraction"), ("x", "str")]:
        for op in (operator.add, operator.sub):
            with pytest.raises(ValueError) as exc:
                op(x, bad)
            assert str(exc.value) == f"operand of type {name} is not a Poly"
    with pytest.raises(ValueError) as exc:
        hessian_form("x1")
    assert str(exc.value) == "psi of type str is not a Poly"
    with pytest.raises(GraphError, match="^scalar True is not"):
        Poly.var(2, 0) * True
    assert x * F(1, 2) == F(1, 2) * x == Poly(1, {(1,): F(1, 2)})
    assert x * 1 is x and (-1) * x == -x and x * 0 == Poly(1)


def test_variable_indices_are_checked():
    """A variable index out of range, negative or not an int is refused,
    naming it."""
    x = Poly.var(1, 0)
    cases = [(lambda: x.diff(5), "5", 1), (lambda: x.diff(-1), "-1", 1),
             (lambda: Poly.var(1, 3), "3", 1),
             (lambda: Poly.var(1, -1), "-1", 1),
             (lambda: Poly.var(2, True), "True", 2),
             (lambda: Poly.var(2, 1).diff(0.5), "0.5", 2)]
    for build, index, r in cases:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == f"variable index {index} is not in range({r})"
    assert Poly.var(2, 1).diff(1) == Poly.const(2, 1)


def test_superform_inputs_take_ints_as_fractions():
    """An int coefficient, coordinate, map entry or scale factor is taken
    as the Fraction it is."""
    x = Poly.var(1, 0)
    assert Poly(1, {(1,): 2, (0,): F(1, 2)}) == 2 * x + Poly.const(1, F(1, 2))
    f = AffineMap.of([[1, 2]], [3])
    assert {type(v) for v in (*f.matrix[0], *f.translation)} == {F}
    assert type(x.eval([3])) is F and x.eval([3]) == 3
    verdict = is_positive_11(hessian_form(-x * x), [(1,)])
    assert verdict.violations == ((1,),)
    assert type(verdict.violations[0][0]) is F
    assert SuperForm.function(x).scale(2) == SuperForm.function(2 * x)
