import json
import math
import pathlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skelpot import (EdgePoint, NotSubharmonicError, PAFunction, Vertex,
                     build_regularization, eval_smoothed, sample_points,
                     smooth_max, smooth_max_n, theta)
from skelpot.randgen import random_graph, random_subharmonic

from conftest import kinked_subharmonic, pa


F = Fraction


# -- theta ------------------------------------------------------------------


def test_theta_boundary_values():
    for eps in (0.5, 1.0, 2.0):
        assert theta(eps, eps) == eps
        assert theta(eps, -eps) == eps
        assert theta(eps, 2 * eps) == 2 * eps


def test_theta_at_zero():
    assert theta(1.0, 0.0) == 0.5


def test_theta_rejects_bad_eps():
    with pytest.raises(ValueError):
        theta(0.0, 1.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        smooth_max(0, 1, 2)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-3, max_value=10),
       st.floats(min_value=-20, max_value=20),
       st.floats(min_value=-20, max_value=20))
def test_theta_properties(eps, s, t):
    # symmetric, positive, 1-Lipschitz, dominates |t|
    assert theta(eps, t) == theta(eps, -t)
    assert theta(eps, t) > 0
    assert abs(theta(eps, s) - theta(eps, t)) <= abs(s - t) + 1e-12
    assert theta(eps, t) >= abs(t) - 1e-12


# -- two-argument smooth max ---------------------------------------------------


def test_smooth_max_exact_branch():
    assert smooth_max(1.0, 3.0, 2.0) == 3.0          # |a-b| >= eps
    assert smooth_max(0.5, -1.0, 4.0) == 4.0


def test_smooth_max_overshoot_at_tie():
    assert smooth_max(1.0, 0.0, 0.0) == 0.25


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=1e-3, max_value=5),
       st.floats(min_value=-10, max_value=10),
       st.floats(min_value=-10, max_value=10),
       st.floats(min_value=-5, max_value=5))
def test_smooth_max_axioms(eps, a, b, t):
    m = smooth_max(eps, a, b)
    hi = max(a, b)
    assert hi - 1e-12 <= m <= hi + eps / 2 + 1e-12
    assert m == smooth_max(eps, b, a)
    if abs(a - b) >= eps:
        assert m == hi
    assert abs(smooth_max(eps, a + t, b + t) - (m + t)) <= 1e-12
    assert smooth_max(eps, a + 0.5, b) >= m - 1e-12   # nondecreasing


# -- n-argument smooth max -----------------------------------------------------


def test_smooth_max_n_singleton():
    assert smooth_max_n(0.25, [1.75]) == 1.75


def test_smooth_max_n_ties_within_budget():
    for delta in (0.1, 0.5, 1.0):
        v = smooth_max_n(delta, [2.0, 2.0, 2.0])
        assert 2.0 <= v <= 2.0 + delta


def test_smooth_max_n_dropout_bit_exact():
    delta = 0.25
    base = smooth_max_n(delta, [0.0, 0.0])
    assert smooth_max_n(delta, [0.0, 0.0, -2 * delta]) == base
    assert smooth_max_n(delta, [0.0, 0.0, -100.0]) == base
    ts = [1.0, 0.7, 0.95]
    with_low = smooth_max_n(delta, ts + [1.0 - 2 * delta])
    assert with_low == smooth_max_n(delta, ts + [1.0 - 7 * delta])


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-3, max_value=2),
       st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6),
       st.floats(min_value=-3, max_value=3))
def test_smooth_max_n_axioms(delta, ts, t):
    m = smooth_max_n(delta, ts)
    hi = max(ts)
    assert hi - 1e-12 <= m <= hi + delta + 1e-12
    shifted = smooth_max_n(delta, [x + t for x in ts])
    assert abs(shifted - (m + t)) <= 1e-12
    bumped = smooth_max_n(delta, [ts[0] + 0.25] + ts[1:])
    assert bumped >= m - 1e-12


def _poly_mul(p: list[float], q: list[float]) -> list[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_int(p: list[float], lo: float, hi: float) -> float:
    acc = 0.0
    for k, c in enumerate(p):
        acc += c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return acc


def _smooth_max_n_ref(delta: float, ts) -> float:
    """The float-only smooth_max_n that the generic one replaced, kept as
    the reference it is compared against."""
    delta = float(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    ts = [float(t) for t in ts]
    if not ts:
        raise ValueError("need at least one argument")
    if len(ts) == 1:
        return ts[0]
    m = max(ts)
    h = delta / 2
    a = m - h
    keep = sorted((t for t in ts if t + h > a), reverse=True)
    if len(keep) == 1:
        return keep[0]
    cuts = {a, m + h}
    for t in keep:
        for c in (t - h, t + h):
            if a < c < m + h:
                cuts.add(c)
    cuts = sorted(cuts)
    total = a
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        poly = [1.0]
        for t in keep:
            if mid >= t + h:
                continue
            if mid <= t - h:
                poly = None
                break
            poly = _poly_mul(poly, [(lo - t + h) / (2 * h), 1 / (2 * h)])
        w = hi - lo
        if poly is None:
            total += w
        else:
            total += w - _poly_int(poly, 0.0, w)
    return total


def _seeded_tuples(rng, count):
    """(delta, ts) with 1 to 9 arguments, drawn on a coarse grid often
    enough to give ties, with arguments at and below max - delta."""
    for _ in range(count):
        delta = rng.choice([rng.uniform(1e-3, 2.0), 0.25, 1.0])
        grid = rng.random() < 0.5
        ts = [round(rng.uniform(-3, 3) * 4) / 4 if grid
              else rng.uniform(-3, 3) for _ in range(rng.randint(1, 9))]
        hi = max(ts)
        for _ in range(rng.randint(0, 2)):
            ts.insert(rng.randrange(len(ts) + 1),
                      hi - delta - rng.choice([0.0, rng.uniform(0, 3)]))
        yield delta, ts


def test_smooth_max_n_matches_the_float_reference():
    rng = random.Random(29)
    for delta, ts in _seeded_tuples(rng, 3000):
        m = smooth_max_n(delta, ts)
        assert type(m) is float
        assert abs(m - _smooth_max_n_ref(delta, ts)) <= 1e-12
        # the arguments the reference drops leave both values bit-identical
        h = delta / 2
        kept = [t for t in ts if t + h > max(ts) - h]
        assert m == smooth_max_n(delta, kept)
        assert _smooth_max_n_ref(delta, ts) == _smooth_max_n_ref(delta, kept)
        exact = smooth_max_n(F(delta), [F(t) for t in ts])
        assert abs(exact - F(m)) <= F(1, 10 ** 12)


def test_smooth_max_n_closed_forms_on_fractions():
    """n tied arguments t give t + delta (n - 1) / (2 (n + 1)), and two
    arguments a gap g <= delta apart give max + (delta - g)^3 / (6 delta^2),
    exactly."""
    for delta in (F(1), F(2, 5), F(7, 3)):
        t = F(-3, 7)
        for n in range(1, 6):
            m = smooth_max_n(delta, [t] * n)
            assert type(m) is Fraction
            assert m == t + delta * (n - 1) / (2 * (n + 1))
        for g in (F(0), delta / 3, delta * F(9, 10), delta):
            assert smooth_max_n(delta, [t - g, t]) == \
                t + (delta - g) ** 3 / (6 * delta ** 2)
    assert smooth_max_n(F(1), [F(0), F(0)]) == F(1, 6)


def test_smooth_max_n_on_fractions_is_exact():
    rng = random.Random(30)
    for _ in range(300):
        delta = F(rng.randint(1, 40), rng.randint(1, 12))
        ts = [F(rng.randint(-60, 60), rng.choice([1, 2, 3, 4, 6, 12]))
              for _ in range(rng.randint(1, 6))]
        m, hi = smooth_max_n(delta, ts), max(ts)
        assert type(m) is Fraction
        assert hi <= m <= hi + delta
        # an argument at or below max - delta changes nothing
        low = hi - delta - F(rng.randint(0, 5), rng.randint(1, 4))
        ts.insert(rng.randrange(len(ts) + 1), low)
        assert smooth_max_n(delta, ts) == m


def test_int_arguments_give_exact_values():
    """Ints are exact, as Fractions are: no true division on ints makes a
    float."""
    for got, want in ((smooth_max_n(1, [0, 0]), F(1, 6)),
                      (theta(1, 0), F(1, 2)),
                      (smooth_max(2, 0, 1), F(9, 8)),
                      (smooth_max(1, 0, 0), F(1, 4)),
                      (smooth_max_n(2, [1, 0, F(1, 2)]),
                       smooth_max_n(F(2), [F(1), F(0), F(1, 2)]))):
        assert type(got) is Fraction and got == want
    # an int max that nothing else comes near is returned as is
    assert smooth_max_n(1, [3, 1]) == 3 and theta(1, -2) == 2
    assert smooth_max(1, 5, 2) == 5


@pytest.mark.parametrize("delta, ts", [(F(0), [F(1)]), (F(-1), [F(1), F(2)]),
                                       (0.0, [1.0]), (F(1), [])])
def test_smooth_max_n_refuses_bad_arguments(delta, ts):
    with pytest.raises(ValueError):
        smooth_max_n(delta, ts)


# -- regularization sequence ---------------------------------------------------


def valley(unit_edge):
    return pa(unit_edge, {"e": [(0, 1), (F(1, 2), 0), (1, 1)]})


def test_build_rejects_non_subharmonic(unit_edge):
    f = pa(unit_edge, {"e": [(0, 0), (F(1, 2), 1), (1, 0)]})
    with pytest.raises(NotSubharmonicError):
        build_regularization(f)


def test_peak_separation_adds_no_ddc(monkeypatch):
    """On the golden subharmonic file, whose working graph splits
    peak-to-peak edges, ddc runs once: for the subharmonicity check,
    whose measure, with each kink moved to its new vertex, is that of the
    promoted function."""
    path = pathlib.Path(__file__).parent / "data" / "golden" / \
        "subharmonic.json"
    f = PAFunction.from_json_dict(json.loads(path.read_text()))
    promoted = f.promote_interior_breakpoints()
    calls = []
    ddc = PAFunction.ddc
    monkeypatch.setattr(PAFunction, "ddc",
                        lambda self: calls.append(self) or ddc(self))
    seq = build_regularization(f)
    assert len(calls) == 1
    assert len(seq.base.graph.edges) > len(promoted.graph.edges)


def test_patches_are_the_peaks_of_the_promoted_function():
    """The patches' centers and masses are the positive interior masses of
    ddc of the promoted function, in order, on seeded kinked functions."""
    rng = random.Random(23)
    peaks = 0
    for _ in range(20):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        if all(v in g.boundary for v in g.vertices):
            continue
        f = kinked_subharmonic(rng, g)
        promoted = f.promote_interior_breakpoints()
        want = [(p.id, m) for p, m in promoted.ddc().support
                if m > 0 and p.id not in g.boundary]
        seq = build_regularization(f, n_terms=2)
        assert [(p.center, p.mass) for p in seq.patches] == want
        peaks += len(want)
    assert peaks > 20


@pytest.mark.parametrize("n_terms", [0, -1])
def test_build_refuses_fewer_than_one_term(unit_edge, n_terms):
    with pytest.raises(ValueError, match="n_terms"):
        build_regularization(valley(unit_edge), n_terms=n_terms)


@pytest.mark.parametrize("per_edge", [0, -3])
def test_sample_refuses_fewer_than_one_sample_per_edge(unit_edge, per_edge):
    seq = build_regularization(valley(unit_edge), n_terms=2)
    for sample in (seq.sample, lambda n: sample_points(seq.base, n)):
        with pytest.raises(ValueError) as exc:
            sample(per_edge)
        assert str(exc.value) == f"per_edge must be >= 1, not {per_edge}"


def test_harmonic_input_passes_through(path3):
    from skelpot import dirichlet_solve
    h = dirichlet_solve(path3, {"a": F(1), "c": F(0)})
    seq = build_regularization(h, n_terms=3)
    assert seq.patches == ()
    for term in seq.terms:
        for p in sample_points(seq.base, per_edge=8):
            assert eval_smoothed(term, p) == float(seq.base.eval(p))


def test_valley_hand_trace(unit_edge):
    """Peak at the midpoint with mass 4 and slopes +-2: the cone G_x is
    identically 0, the arc budget is (1 - 0)/3, and the first term tops
    out at exactly f(x) + eps_0."""
    seq = build_regularization(valley(unit_edge), n_terms=4)
    assert len(seq.patches) == 1
    patch = seq.patches[0]
    assert patch.mass == 4
    assert all(v == (0, 0) for v in patch.cone.values())
    assert all(e == F(1, 3) for e in patch.arc_eps.values())
    assert seq.terms[0].eps == F(1, 3)
    assert seq.terms[1].eps == F(1, 12)
    peak = Vertex(patch.center)
    for term in seq.terms:
        assert eval_smoothed(term, peak) == float(term.eps)


def test_epsilon_recursion_ratio(star3):
    from skelpot import green, linear_combine
    f = linear_combine([(F(-1), green(star3, Vertex("c")).result)])
    seq = build_regularization(f, n_terms=6)
    assert len(seq.terms) == 6
    for t0, t1 in zip(seq.terms, seq.terms[1:]):
        assert t1.eps == t0.eps / 4
        assert t1.eps < t0.eps / 3


def test_monotone_and_convergent(unit_edge):
    seq = build_regularization(valley(unit_edge), n_terms=8)
    pts = sample_points(seq.base, per_edge=16)
    vals = [[eval_smoothed(t, p) for p in pts] for t in seq.terms]
    for k in range(7):
        for v0, v1 in zip(vals[k], vals[k + 1]):
            assert v1 <= v0 + 1e-12
    for k, term in enumerate(seq.terms):
        for v, p in zip(vals[k], pts):
            assert abs(v - float(seq.base.eval(p))) <= \
                1.25 * float(term.eps) + 1e-12


def test_patch_locality_bit_exact(path3):
    """Far from the peak the smoothed terms equal f to the last bit."""
    f = pa(path3, {"e0": [(0, 1), (1, 0)], "e1": [(0, 0), (1, 1)]})
    seq = build_regularization(f, n_terms=3)
    far = EdgePoint("e0", F(1, 10))
    for term in seq.terms:
        assert eval_smoothed(term, far) == float(seq.base.eval(far))


def test_second_differences_nonnegative():
    """Exact: no float slack on the central second differences."""
    rng = random.Random(21)
    for _ in range(5):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        f = random_subharmonic(rng, g)
        seq = build_regularization(f, n_terms=3)
        h = F(1, 64)
        for term in seq.terms:
            for e in seq.base.graph.edges:
                for i in range(2, 31):
                    off = e.length * i / 32
                    if off - h <= 0 or off + h >= e.length:
                        continue
                    vm, v0, vp = (term.value(EdgePoint(e.id, o))
                                  for o in (off - h, off, off + h))
                    assert vm - 2 * v0 + vp >= 0


def test_vertex_outgoing_sums_nonnegative():
    """Exact: no float slack on the outgoing difference quotients."""
    rng = random.Random(22)
    for _ in range(5):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        f = random_subharmonic(rng, g)
        seq = build_regularization(f, n_terms=3)
        for term in seq.terms:
            for vid in seq.base.graph.vertices:
                if vid in seq.base.graph.boundary:
                    continue
                v0 = term.value(Vertex(vid))
                total = 0
                for d in seq.base.graph.star(Vertex(vid)):
                    e = seq.base.graph.edge(d.edge)
                    h = e.length / 64
                    off = h if d.toward_v else e.length - h
                    total += (term.value(EdgePoint(e.id, off)) - v0) / h
                assert total >= 0


def test_exact_monotone_sandwich_and_arc_budgets():
    """Exact over the rationals, with no float slack: on vertices,
    breakpoints and a 16-per-edge grid, f <= f_{k+1} <= f_k <= f + 5/4 eps_k;
    and every arc budget is a third of the far-end gap f - G_x, which is
    mass * length / deg(x)."""
    rng = random.Random(23)
    for _ in range(12):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        f = random_subharmonic(rng, g)
        seq = build_regularization(f, n_terms=4)
        wg, base = seq.base.graph, seq.base
        for patch in seq.patches:
            center = Vertex(patch.center)
            deg = len(wg.star(center))
            assert patch.mass == base.ddc().mass_at(center)
            for eid, arc_eps in patch.arc_eps.items():
                e = wg.edge(eid)
                far = e.v if e.u == patch.center else e.u
                g_far = patch.cone[eid][1 if far == e.v else 0]
                assert arc_eps == (base.vertex_value(far) - g_far) / 3
                assert arc_eps == patch.mass * e.length / (3 * deg)
        pts = [wg.normalize_point(p)
               for p in sample_points(base, per_edge=16)]
        for p in pts:
            fp = base.eval(p)
            vals = [term.value(p) for term in seq.terms]
            assert all(isinstance(v, Fraction) for v in vals)
            for k, term in enumerate(seq.terms):
                assert fp <= vals[k] <= fp + F(5, 4) * term.eps
                if k + 1 < len(vals):
                    assert fp <= vals[k + 1] <= vals[k]


def _assert_sample_matches_terms(seq, per_edge):
    """seq.sample(per_edge) row by row against term.value, exactly: each
    (numerator, denominator) pair is the value, and a value is f's own
    pair object exactly where it equals f; returns the number of vertex
    samples at a peak center."""
    rows = seq.sample(per_edge)
    assert [(eid, off) for eid, off, _, _ in rows] == \
        [(e.id, e.length * i / per_edge)
         for e in seq.base.graph.edges for i in range(per_edge + 1)]
    centers = {patch.center for patch in seq.patches}
    at_centers = 0
    for eid, off, fp, fks in rows:
        p = seq.base.graph.normalize_point(EdgePoint(eid, off))
        assert all(type(x) is int for pair in (fp, *fks) for x in pair)
        f_at = seq.base.eval(p)
        assert Fraction(*fp) == f_at
        values = [term.value(p) for term in seq.terms]
        assert [Fraction(*fk) for fk in fks] == values
        # the CSV's n / d is the float of the value
        assert [fk[0] / fk[1] for fk in fks] == list(map(float, values))
        assert [fk is fp for fk in fks] == [v == f_at for v in values]
        at_centers += isinstance(p, Vertex) and p.id in centers
    return at_centers


def test_sample_matches_term_values():
    """The batch sampler equals term.value at every sample of every term,
    over the rationals, on functions with peaks at vertices and inside
    edges (promoted to vertices)."""
    rng = random.Random(24)
    at_centers = 0
    for _ in range(15):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        f = kinked_subharmonic(rng, g)
        seq = build_regularization(f, n_terms=4)
        assert seq.patches
        at_centers += _assert_sample_matches_terms(seq, rng.randint(1, 9))
    assert at_centers > 0


def test_sample_without_peaks_is_f(path3):
    from skelpot import dirichlet_solve
    h = dirichlet_solve(path3, {"a": F(1), "c": F(0)})
    seq = build_regularization(h, n_terms=3)
    assert seq.patches == ()
    assert _assert_sample_matches_terms(seq, 5) == 0
    assert all(fk is fp for _, _, fp, fks in seq.sample(5) for fk in fks)


def test_sample_with_one_sample_per_edge():
    """per_edge = 1: only the two ends of every edge, no interior sample."""
    rng = random.Random(25)
    at_centers = 0
    for _ in range(6):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        seq = build_regularization(kinked_subharmonic(rng, g), n_terms=3)
        at_centers += _assert_sample_matches_terms(seq, 1)
        assert len(seq.sample(1)) == 2 * len(seq.base.graph.edges)
    assert at_centers > 0


def test_sample_of_harmonic_functions_without_peaks():
    from skelpot import dirichlet_solve
    rng = random.Random(26)
    for _ in range(4):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        h = dirichlet_solve(g, {v: F(rng.randint(-9, 9), rng.randint(1, 9))
                                for v in g.boundary})
        seq = build_regularization(h, n_terms=2)
        assert seq.patches == ()
        for per_edge in (1, 3, 7):
            assert _assert_sample_matches_terms(seq, per_edge) == 0


def _with_epsilons(seq, epsilons):
    """seq with one term per eps in epsilons, peaks and cones kept."""
    terms = tuple(replace(seq.terms[0], eps=eps) for eps in epsilons)
    return replace(seq, terms=terms)


def test_sample_with_epsilons_coprime_to_the_edge_data():
    """eps_k over primes that divide no length, value or cone end, in no
    particular order: the common denominator must take them in."""
    rng = random.Random(27)
    epsilons = [F(5, 1009), F(1, 1013 * 1019), F(2, 1021), F(3, 1031)]
    for _ in range(6):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        seq = build_regularization(kinked_subharmonic(rng, g), n_terms=1)
        data = [x for e in seq.base.graph.edges
                for x in (e.length, *(v for _, v in seq.base.profiles[e.id]),
                          *seq.terms[0].cone.get(e.id, ()))]
        assert all(math.gcd(x.denominator, eps.denominator) == 1
                   for x in data for eps in epsilons)
        _assert_sample_matches_terms(_with_epsilons(seq, epsilons),
                                     rng.randint(1, 9))


def test_sample_on_an_edge_with_centers_at_both_ends():
    """Centers b and c joined by the arc e1 of b's star, with lengths,
    values, cone ends and epsilons over different primes on each edge, so
    every edge has its own common denominator."""
    from skelpot import MetricGraph, PAFunction
    from skelpot.regularize import (Patch, RegularizationSequence,
                                    RegularizationTerm)
    g = MetricGraph.from_json_dict({
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"id": "e0", "u": "a", "v": "b", "len": "1/3"},
                  {"id": "e1", "u": "b", "v": "c", "len": "2/5"},
                  {"id": "e2", "u": "c", "v": "d", "len": "3/7"}],
        "boundary": ["a", "d"]})
    f = pa(g, {"e0": [(0, 1), (F(1, 3), 0)],
               "e1": [(0, 0), (F(2, 5), F(1, 11))],
               "e2": [(0, F(1, 11)), (F(3, 7), 2)]})
    b_cone = {"e0": (F(-1, 2), 0), "e1": (0, F(-1, 13))}
    c_cone = {"e2": (F(1, 11), F(1, 17))}
    patches = (Patch("b", F(1), b_cone, {}), Patch("c", F(1), c_cone, {}))
    epsilons = (F(1, 19), F(1, 19 * 4), F(1, 19 * 16))
    cone = {**b_cone, **c_cone}
    terms = tuple(RegularizationTerm(f, eps, frozenset("bc"), cone)
                  for eps in epsilons)
    seq = RegularizationSequence(f, patches, terms)
    for per_edge in (1, 2, 5, 12):
        assert _assert_sample_matches_terms(seq, per_edge) == 4
    smoothed = [fks for eid, off, fp, fks in seq.sample(12)
                if eid == "e1" and 0 < off < F(2, 5) and fks[0] is not fp]
    assert smoothed


# -- peaks and cones against the point-machinery reference --------------------


def _reference_regularization(f, n_terms):
    """(base, patches, terms) of build_regularization, found
    through the general point machinery: the kinks' masses are moved onto
    the split's vertices by a remapped DiscreteMeasure, and each cone's
    far end is f(x) + (outgoing slope - mass / deg) * length over
    g.star(x)."""
    from skelpot.pa_function import DiscreteMeasure
    from skelpot.regularize import Patch, RegularizationTerm
    graph = f.graph
    measure = f.ddc()
    cuts = {eid: [o for o, _ in prof[1:-1]]
            for eid, prof in f.profiles.items()}
    f, pieces = f.split(cuts)
    at = {EdgePoint(eid, o): Vertex(piece.v) for eid, ps in pieces.items()
          for o, piece in zip(cuts[eid], ps)}
    measure = DiscreteMeasure((at.get(p, p), m) for p, m in measure.support)
    peaks = {p.id for p, m in measure.support
             if m > 0 and p.id not in graph.boundary}
    f, _ = f.split({e.id: [e.length / 2] for e in f.graph.edges
                    if e.u in peaks and e.v in peaks})
    g = f.graph
    patches = []
    for p, mass in measure.support:
        if p.id not in peaks:
            continue
        dirs = g.star(p)
        deg = len(dirs)
        fx = f.vertex_value(p.id)
        cone, arc_eps = {}, {}
        for d in dirs:
            e = g.edge(d.edge)
            far = fx + (f.outgoing_slope(d) - mass / deg) * e.length
            cone[e.id] = (fx, far) if d.toward_v else (far, fx)
            arc_eps[e.id] = mass * e.length / (3 * deg)
        patches.append(Patch(p.id, mass, cone, arc_eps))
    if not patches:
        term = RegularizationTerm(f, F(0), frozenset(), {})
        return f, (), (term,) * n_terms
    eps0 = min(v for patch in patches for v in patch.arc_eps.values())
    epsilons = tuple(eps0 / 4 ** k for k in range(n_terms))
    centers = frozenset(patch.center for patch in patches)
    cone = {eid: arc for patch in patches for eid, arc in patch.cone.items()}
    terms = tuple(RegularizationTerm(f, eps, centers, cone)
                  for eps in epsilons)
    return f, tuple(patches), terms


def _assert_matches_reference(f, n_terms=3):
    """build_regularization(f) equals the reference, the order of the
    patches and of each patch's cone and budgets included; returns the
    patches."""
    base, patches, terms = _reference_regularization(f, n_terms)
    seq = build_regularization(f, n_terms=n_terms)
    assert seq.base == base
    assert seq.patches == patches
    assert [(p.center, list(p.cone.items()), list(p.arc_eps.items()))
            for p in seq.patches] == \
        [(p.center, list(p.cone.items()), list(p.arc_eps.items()))
         for p in patches]
    assert seq.terms == terms
    return patches


def _looped(rng, g):
    """g with two self-loops at random vertices and two edges parallel to
    random edges of g, all with random lengths."""
    from skelpot import MetricGraph
    from skelpot.graph import Edge
    extra = []
    for i in range(2):
        v = rng.choice(g.vertices)
        extra.append(Edge(f"L{i}", v, v,
                          F(rng.randint(1, 9), rng.randint(1, 4))))
        e = rng.choice(g.edges)
        extra.append(Edge(f"P{i}", e.u, e.v,
                          F(rng.randint(1, 9), rng.randint(1, 4))))
    return MetricGraph(g.vertices, [*g.edges, *extra], g.boundary)


def test_peaks_match_the_reference_on_seeded_functions():
    """Kinked, random subharmonic and harmonic (peak-free) functions on
    simple graphs, and kinked functions on graphs with loops and
    parallel edges."""
    from skelpot import dirichlet_solve
    rng = random.Random(28)
    kinked, subharmonic, looped = [], [], []
    for _ in range(12):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        kinked += _assert_matches_reference(kinked_subharmonic(rng, g))
        subharmonic += _assert_matches_reference(random_subharmonic(rng, g),
                                                 n_terms=2)
        h = dirichlet_solve(g, {v: F(rng.randint(-9, 9), rng.randint(1, 9))
                                for v in g.boundary})
        assert _assert_matches_reference(h, n_terms=4) == ()
        looped += _assert_matches_reference(kinked_subharmonic(
            rng, _looped(rng, g)))
    assert len(kinked) > 20 and len(subharmonic) > 5
    # star arcs cut from the loops L* and the parallel edges P*
    assert sum(eid[0] in "LP" for p in looped for eid in p.cone) > 20


def test_peaks_match_the_reference_next_to_the_boundary(path3):
    """A kink on an edge to the boundary vertex a, which itself carries
    positive mass and so is not a peak, and a vertex peak b whose
    neighbours are both on the boundary."""
    f = pa(path3, {"e0": [(0, 0), (F(1, 4), F(1, 4)), (1, F(7, 4))],
                   "e1": [(0, F(7, 4)), (1, F(19, 4))]})
    assert f.ddc().mass_at(Vertex("a")) > 0
    assert len(_assert_matches_reference(f)) == 2
    v = pa(path3, {"e0": [(0, 1), (1, -1)], "e1": [(0, -1), (1, F(1, 2))]})
    assert len(_assert_matches_reference(v, n_terms=1)) == 1


def test_peaks_match_the_reference_on_peaks_joined_by_an_edge(path3):
    """Two kinks on one edge and two adjacent vertex peaks: each edge
    joining two peaks gets the midpoint split."""
    from skelpot import MetricGraph
    f = pa(path3, {"e0": [(0, 0), (F(1, 3), -1), (F(2, 3), -1), (1, 0)],
                   "e1": [(0, 0), (1, 4)]})
    assert len(_assert_matches_reference(f)) == 3
    g = MetricGraph.from_json_dict({
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"id": "e0", "u": "a", "v": "b", "len": "1/2"},
                  {"id": "e1", "u": "b", "v": "c", "len": "3"},
                  {"id": "e2", "u": "c", "v": "d", "len": "2/7"}],
        "boundary": ["a", "d"]})
    f = pa(g, {"e0": [(0, 0), (F(1, 2), -1)], "e1": [(0, -1), (3, -1)],
               "e2": [(0, -1), (F(2, 7), 0)]})
    seq = build_regularization(f)
    assert [p.center for p in seq.patches] == ["b", "c"]
    assert len(seq.base.graph.edges) == 4
    assert len(_assert_matches_reference(f)) == 2
