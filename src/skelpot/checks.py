"""Seeded checks of acceptance criteria 1, 2 and 4-10.

`tests/test_acceptance.py` runs them at full size and `skelpot selftest`
at small sizes.  A check draws its instances from the `rng` it is given,
raises `CheckFailed` at the first condition that fails, and returns the
count its summary line reports, if any.  Exactness claims are exact
Fraction equalities; float tolerances are stated inline.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from . import superforms as sf
from .graph import EdgePoint, MetricGraph, Vertex
from .pa_function import PAFunction, integrate, linear_combine
from .potential import (dirichlet_solve, evaluation_formula_check, green,
                        is_subharmonic_green, maximum_principle_check)
from .randgen import (random_graph, random_non_subharmonic,
                      random_pa_function, random_subharmonic)
from .rationalize import rationalize, tent_decompose, tent_reconstruction
from .regularize import (build_regularization, sample_points, smooth_max,
                         smooth_max_n, theta)

F = Fraction


class CheckFailed(Exception):
    """A checked claim does not hold; the message names the condition."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def green_exact_values() -> None:
    """Criterion 1: pole values and boundary masses of three Green's
    functions against hand-computed values."""
    path = MetricGraph.from_json_dict({
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "u": "a", "v": "b", "len": 2}],
        "boundary": ["a", "b"]})
    g1 = green(path, EdgePoint("e", F(1)))
    _require(g1.result.eval(EdgePoint("e", F(1))) == F(1, 2)
             and g1.boundary_masses.mass_at(Vertex("a")) == F(1, 2)
             and g1.boundary_masses.mass_at(Vertex("b")) == F(1, 2),
             "path of length 2, pole at the midpoint")

    star = MetricGraph.from_json_dict({
        "vertices": ["c", "l0", "l1", "l2"],
        "edges": [{"id": f"a{i}", "u": "c", "v": f"l{i}", "len": 1}
                  for i in range(3)],
        "boundary": ["l0", "l1", "l2"]})
    g2 = green(star, Vertex("c"))
    _require(g2.result.vertex_value("c") == F(1, 3)
             and all(g2.boundary_masses.mass_at(Vertex(f"l{i}")) == F(1, 3)
                     for i in range(3)),
             "unit star of degree 3, pole at the center")

    unit = MetricGraph.from_json_dict({
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "u": "a", "v": "b", "len": 1}],
        "boundary": ["a", "b"]})
    g3 = green(unit, EdgePoint("e", F(1, 4)))
    _require(g3.result.eval(EdgePoint("e", F(1, 4))) == F(3, 16)
             and g3.boundary_masses.mass_at(Vertex("a")) == F(3, 4)
             and g3.boundary_masses.mass_at(Vertex("b")) == F(1, 4),
             "unit edge, pole at 1/4")


def poisson_formula(rng, graphs: int, max_vertices: int,
                    max_edges: int) -> int:
    """Criterion 2: the harmonic extension of every boundary indicator
    satisfies the Poisson formula at every interior vertex.  Returns the
    number of evaluations."""
    done = checked = 0
    while done < graphs:
        g = random_graph(rng, max_vertices=max_vertices, max_edges=max_edges)
        interior = [v for v in g.vertices if v not in g.boundary]
        if not interior:
            continue
        done += 1
        for b in g.boundary:
            values = {w: int(w == b) for w in g.boundary}
            h = dirichlet_solve(g, values)
            for x in interior:
                lhs, rhs = evaluation_formula_check(Vertex(x), h)
                if lhs != rhs:
                    raise CheckFailed(f"Poisson mismatch at {x} on {g}")
                checked += 1
    return checked


def oracle_equivalence(rng, functions: int, max_vertices: int,
                       max_edges: int) -> int:
    """Criterion 4: the slope and Green oracles agree, and a negative
    verdict has a witness in common.  Returns the negative verdicts."""
    n = failures = 0
    while n < functions:
        g = random_graph(rng, max_vertices=max_vertices, max_edges=max_edges)
        kind = n % 3
        if kind == 0:
            f = random_pa_function(rng, g)
        elif kind == 1:
            f = random_subharmonic(rng, g)
        else:
            f = random_non_subharmonic(rng, g)
            if f is None:
                continue
        n += 1
        v_slope = f.is_subharmonic_slope()
        v_green = is_subharmonic_green(f)
        _require(v_slope.ok == v_green.ok, "oracle verdicts differ")
        if not v_slope.ok:
            failures += 1
            slope_pts = {p for p, _ in v_slope.witnesses}
            green_pts = {p for p, _ in v_green.violations}
            _require(bool(slope_pts & green_pts), "no common witness")
    return failures


def maximum_principle(rng, functions: int, max_vertices: int,
                      max_edges: int) -> None:
    """Criterion 5: the harmonic extension of a subharmonic function's
    boundary values dominates it."""
    for _ in range(functions):
        g = random_graph(rng, max_vertices=max_vertices, max_edges=max_edges)
        f = random_subharmonic(rng, g)
        _require(maximum_principle_check(f), "domination fails")


def smooth_max_axioms(rng, pairs: int, tuples: int) -> int:
    """Criterion 6: axioms of `smooth_max` on `pairs` random pairs and of
    `smooth_max_n` on `tuples` random tuples.  Returns the drop-outs."""
    tol = 1e-12

    for _ in range(pairs):
        eps = rng.uniform(1e-6, 2.0)
        a, b = rng.uniform(-10, 10), rng.uniform(-10, 10)
        m = smooth_max(eps, a, b)
        hi = max(a, b)
        # (i) envelope: max <= m <= max + eps/2 at the tie, here eps/4 bound
        _require(hi - tol <= m <= hi + eps / 4 + tol, "envelope bound fails")
        # (ii) symmetry
        _require(m == smooth_max(eps, b, a), "symmetry fails")
        # (iii) exact outside the band
        if abs(a - b) >= eps:
            _require(m == hi, "exact branch fails")
        # (iv) translation equivariance
        c = rng.uniform(-5, 5)
        _require(abs(smooth_max(eps, a + c, b + c) - (m + c)) <= tol * 100,
                 "translation equivariance fails")
    _require(smooth_max(1.0, 0.0, 0.0) == 0.25, "smooth_max(1, 0, 0) != 1/4")
    _require(theta(1.0, 0.0) == 0.5, "theta(1, 0) != 1/2")

    dropouts = 0
    for _ in range(tuples):
        delta = rng.uniform(1e-6, 1.0)
        k = rng.randint(1, 6)
        ts = [rng.uniform(-5, 5) for _ in range(k)]
        hi = max(ts)
        m = smooth_max_n(delta, ts)
        # (1) envelope
        _require(hi - tol <= m <= hi + delta + tol, "n-ary envelope fails")
        # (2) drop-out: arguments below max - delta are bit-exactly inert
        low = hi - delta - rng.uniform(0.001, 3.0)
        _require(smooth_max_n(delta, ts + [low]) == m,
                 "drop-out not bit-exact")
        dropouts += 1
        # (3) translation equivariance within 1e-12
        c = rng.uniform(-5, 5)
        _require(abs(smooth_max_n(delta, [t + c for t in ts]) - (m + c))
                 <= tol, "n-ary translation equivariance fails")
    return dropouts


def monotone_regularization(rng, functions: int, max_vertices: int,
                            max_edges: int, n_terms: int,
                            per_edge: int) -> None:
    """Criterion 7, on exact values: f <= f_{k+1} <= f_k <= f + 5/4 eps_k,
    and the last term has nonnegative second differences along each edge
    and a nonnegative outgoing balance at each interior vertex."""
    for _ in range(functions):
        g = random_graph(rng, max_vertices=max_vertices, max_edges=max_edges)
        f = random_subharmonic(rng, g)
        seq = build_regularization(f, n_terms=n_terms)
        wg = seq.base.graph
        pts = sample_points(seq.base, per_edge=per_edge)
        fvals = [seq.base.eval(p) for p in pts]
        vals = [[term.value(p) for p in pts] for term in seq.terms]
        for k in range(len(seq.terms) - 1):
            if not all(v1 <= v0 for v0, v1 in zip(vals[k], vals[k + 1])):
                raise CheckFailed(f"f_{k + 1} > f_{k}")
        for k, term in enumerate(seq.terms):
            bound = 5 * term.eps / 4
            if not all(0 <= v - fv <= bound for v, fv in zip(vals[k], fvals)):
                raise CheckFailed(f"sup bound at k={k}")
        # smoothness: nonnegative curvature along edges and at vertices
        last = seq.terms[-1]
        for e in wg.edges:
            vs = [last.value(EdgePoint(e.id, e.length * i / 64))
                  for i in range(1, 64)]
            if any(vm - 2 * v0 + vp < 0
                   for vm, v0, vp in zip(vs, vs[1:], vs[2:])):
                raise CheckFailed(f"negative curvature on edge {e.id}")
        for v in wg.vertices:
            if v in wg.boundary:
                continue
            h = min(e.length for e in wg.edges
                    if v in (e.u, e.v)) / 64
            base_val = last.value(Vertex(v))
            total = 0
            for d in wg.star(Vertex(v)):
                off = wg.base_offset(d) + (h if d.toward_v else -h)
                total += last.value(EdgePoint(d.edge, off)) - base_val
            if total < 0:
                raise CheckFailed(f"vertex balance at {v}")


def rationalization(rng, inputs: int, max_vertices: int,
                    max_edges: int) -> None:
    """Criterion 8: perturbed Green's functions get a passing certificate
    whose pairing is negative and recomputes exactly."""
    tol = F(1, 10000)
    done = 0
    while done < inputs:
        g = random_graph(rng, max_vertices=max_vertices, max_edges=max_edges)
        interior = [v for v in g.vertices if v not in g.boundary]
        if len(interior) < 2:
            continue
        p1, p2 = rng.sample(interior, 2)
        g_exact = green(g, Vertex(p1)).result
        if any(g_exact.vertex_value(v) <= 0 for v in interior):
            continue  # boundary cuts p1 off from part of the interior
        f = green(g, Vertex(p2)).result
        if f.vertex_value(p1) <= 0:
            continue
        # pairing(f, ddc g_exact) = -f(p1); scale f so the margin holds:
        # |pairing| >= 10 * tol * massbound with massbound = |ddc f|(Y).
        massbound = f.ddc().total_variation()
        need = 10 * tol * massbound
        scale = need / f.vertex_value(p1) + 1
        f = linear_combine([(scale, f)])
        massbound = f.ddc().total_variation()
        _require(f.vertex_value(p1) >= 10 * tol * massbound, "margin fails")

        noise = {v: F(0) if v in g.boundary
                 else F(rng.randint(-9, 9), 10 ** 7) for v in g.vertices}
        g_in = PAFunction(g, {
            e.id: [(off,
                    val + (noise[e.u] if off == 0 else
                           noise[e.v] if off == e.length else
                           F(rng.randint(-9, 9), 10 ** 7)))
                   for off, val in g_exact.profiles[e.id]]
            for e in g.edges})
        cert = rationalize(f, g_in, tol)
        for name in ("kinks_rational", "values_rational",
                     "slopes_rational"):
            if not cert.checks[name]["pass"]:
                raise CheckFailed(f"certificate check {name} fails")
        _require(cert.ok and cert.pairing < 0, "certificate fails")
        # recompute the pairing independently on the emitted output
        _require(cert.pairing == integrate(f, cert.output.ddc()),
                 "certificate pairing differs from the recomputation")
        done += 1


def tent_decomposition(rng, stars: int) -> None:
    """Criterion 9: on stars of degree <= 6, the tent decomposition is
    exact on the inner half-star and keeps the center mass."""
    for _ in range(stars):
        deg = rng.randint(1, 6)
        g = MetricGraph.from_json_dict({
            "vertices": ["c"] + [f"l{i}" for i in range(deg)],
            "edges": [{"id": f"a{i}", "u": "c", "v": f"l{i}",
                       "len": str(F(rng.randint(1, 12), rng.randint(1, 4)))}
                      for i in range(deg)],
            "boundary": [f"l{i}" for i in range(deg)]})
        vals = {v: F(rng.randint(-8, 8), rng.randint(1, 3))
                for v in g.vertices}
        f = PAFunction.from_vertex_values(g, vals)
        coeffs, tents, const = tent_decompose(f, "c")
        back = tent_reconstruction(coeffs, tents, const, g)
        # exact on the inner half-star
        for e in g.edges:
            for i in range(9):
                p = g.normalize_point(EdgePoint(e.id, e.length * i / 16))
                if back.eval(p) != f.eval(p):
                    raise CheckFailed(f"reconstruction mismatch at {p}")
        _require(back.ddc().mass_at(Vertex("c")) ==
                 f.ddc().mass_at(Vertex("c")), "center mass mismatch")


def _random_poly(rng, r):
    return sf.Poly(r, {tuple(rng.randint(0, 2) for _ in range(r)):
                       F(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(rng.randint(1, 3))})


def _random_form(rng, r):
    p, q = rng.randint(0, r), rng.randint(0, r)
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        key = (rng.choice(list(combinations(range(r), p))),
               rng.choice(list(combinations(range(r), q))))
        coeffs[key] = _random_poly(rng, r)
    return sf.SuperForm(r, p, q, coeffs)


def psd_minor_oracle(mat):
    """PSD iff every principal minor determinant is >= 0 (exact)."""
    n = len(mat)
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            sub = [[mat[i][j] for j in idx] for i in idx]
            if _det(sub) < 0:
                return False
    return True


def _det(m):
    n = len(m)
    total = F(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def superform_identities(rng, forms: int, hessians: int) -> int:
    """Criterion 10: superform identities on `forms` random pairs, and
    Hessian positivity against `psd_minor_oracle` on `hessians` random
    polynomials.  Returns the positivity samples."""
    maps_by_r = {1: sf.AffineMap.of([[2]], [1]),
                 2: sf.AffineMap.of([[1, 2], [0, 1]], [1, -1]),
                 3: sf.AffineMap.of([[1, 0, 2], [0, 1, 1], [1, -1, 0]],
                                    [0, 3, 1])}
    for _ in range(forms):
        r = rng.randint(1, 3)
        a = _random_form(rng, r)
        b = _random_form(rng, r)
        _require(sf.d_prime(sf.d_prime(a)).is_zero(), "d'^2 != 0")
        _require(sf.d_second(sf.d_second(a)).is_zero(), "d''^2 != 0")
        _require(sf.d_prime(sf.d_second(a)) == -sf.d_second(sf.d_prime(a)),
                 "anticommutation fails")
        _require(sf.j_involution(sf.j_involution(a)) == a, "J^2 != id")
        # Leibniz with the sign (-1)^{p+q} on the second term
        sgn = (-1) ** (a.p + a.q)
        _require(sf.d_prime(sf.wedge(a, b)) ==
                 sf.wedge(sf.d_prime(a), b)
                 + sf.wedge(a, sf.d_prime(b)).scale(sgn), "Leibniz fails")
        fm = maps_by_r[r]
        _require(sf.pullback(fm, sf.d_prime(a)) ==
                 sf.d_prime(sf.pullback(fm, a)), "pullback fails")

    # hessian positivity vs convexity via an independent minor oracle
    pts = [[x, y] for x in range(-2, 3) for y in range(-2, 3)]
    checked = 0
    for _ in range(hessians):
        x, y = sf.Poly.var(2, 0), sf.Poly.var(2, 1)
        a11 = rng.randint(-3, 3)
        a12 = rng.randint(-3, 3)
        a22 = rng.randint(-3, 3)
        quad = a11 * (x * x) + a12 * (x * y) + a22 * (y * y)
        if rng.random() < 0.5:
            psi = quad                                   # quadratic
        else:
            psi = quad * quad                            # quartic square
        verdict = sf.is_positive_11(sf.hessian_form(psi), pts)
        hess = [[psi.diff(i).diff(j) for j in range(2)] for i in range(2)]
        expect = all(psd_minor_oracle(
            [[hess[i][j].eval(pt) for j in range(2)] for i in range(2)])
            for pt in pts)
        if verdict.ok != expect:
            raise CheckFailed(f"positivity of the Hessian of {psi} differs "
                              "from the minor oracle")
        checked += 1
    return checked
