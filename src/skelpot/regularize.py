"""Smooth-max machinery and the monotone regularization sequence.

theta is a C^1 Huber spline equal to |t| outside [-eps, eps]; the
two-argument smooth max m_eps(a, b) = (a + b + theta(a - b)) / 2 keeps
the exact-max behavior whenever |a - b| >= eps.  The n-argument smooth
max is a kernel-smoothed expected maximum evaluated in closed form, so
arguments far below the maximum drop out bit-exactly.

The regularization sequence replaces a subharmonic piecewise-affine f
near each positive-mass peak x by m_{eps/2}(G_x + eps, f), where G_x is
a dominated harmonic cone at x, with a geometrically shrinking eps.
Both arguments are affine on every arc of the peak's star, so each term
is evaluated exactly over the rationals; eval_smoothed and
arc_second_difference round the exact value to a float once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import EdgePoint, GraphError, GraphPoint, MetricGraph, Vertex
from .pa_function import DiscreteMeasure, PAFunction
from .potential import require_subharmonic


# -- scalar smooth-max calculus ------------------------------------------------


def theta(eps, t):
    """Symmetric convex 1-Lipschitz spline, strictly positive,
    equal to |t| for |t| >= eps.  Works over any ordered field."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if abs(t) >= eps:
        return abs(t)
    return t * t / (2 * eps) + eps / 2


def smooth_max(eps, a, b):
    """Smoothed maximum: exact max when |a - b| >= eps, overshoot <= eps/4.
    Works over any ordered field."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = a - b
    if t >= eps:
        return a
    if -t >= eps:
        return b
    return (a + b + theta(eps, t)) / 2


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


def smooth_max_n(delta: float, ts) -> float:
    """Smoothed maximum of n+1 arguments with overshoot at most delta.

    Realized as E[max_i (t_i + X_i)] for i.i.d. X_i uniform on
    [-delta/2, delta/2], integrated in closed form.  Guarantees:
    max <= M <= max + delta; convex and nondecreasing in each argument;
    translation-equivariant; and any argument with t_l + delta <= max
    (in particular t_l + 2*delta <= max) contributes nothing at all, so
    perturbing it below that threshold leaves the value bit-identical.
    """
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
    # arguments whose kernel window lies entirely below the domain drop out
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
        # product of CDFs of t_i + X_i, as a polynomial in s = u - lo
        poly = [1.0]
        for t in keep:
            if mid >= t + h:
                continue  # factor is exactly 1 here
            if mid <= t - h:
                poly = None  # factor 0: integrand is 1 on this piece
                break
            poly = _poly_mul(poly, [(lo - t + h) / (2 * h), 1 / (2 * h)])
        w = hi - lo
        if poly is None:
            total += w
        else:
            total += w - _poly_int(poly, 0.0, w)
    return total


# -- the monotone regularization sequence ---------------------------------------


@dataclass(frozen=True)
class Patch:
    """One peak's data: the dominated harmonic cone G_x on the star arcs."""

    center: str
    mass: Fraction
    cone: dict                    # star edge id -> (G_x(u), G_x(v))
    arc_eps: dict                 # edge id -> mass * length / (3 deg(x))


def _along(ends, offset, length):
    """The affine function with values ends = (a, b) at offsets 0 and
    length, at offset."""
    a, b = ends
    return a + (b - a) * offset / length


def _term_rule(eps, fp, at_center: bool, gp):
    """One term's value at a point where f is fp: f + eps at a peak
    center, m_{eps/2}(G_x + eps, f) on a star arc where G_x is gp, and f
    elsewhere (gp is None)."""
    if at_center:
        return fp + eps
    if gp is None:
        return fp
    return smooth_max(eps / 2, gp + eps, fp)


@dataclass(frozen=True)
class RegularizationTerm:
    """One term f_k: m_{eps/2}(G_x + eps, f) on the open star of every
    peak x, and f elsewhere.  The peak stars are pairwise disjoint, so a
    single edge -> cone lookup covers all of them."""

    base: PAFunction
    eps: Fraction
    centers: frozenset
    cone: dict                    # star edge id -> (G_x(u), G_x(v))

    def value(self, p: GraphPoint) -> Fraction:
        fp = self.base.eval(p)
        if isinstance(p, Vertex):
            return _term_rule(self.eps, fp, p.id in self.centers, None)
        arc = self.cone.get(p.edge)
        gp = None if arc is None else _along(
            arc, p.offset, self.base.graph.edge(p.edge).length)
        return _term_rule(self.eps, fp, False, gp)


def eval_smoothed(s: RegularizationTerm, p: GraphPoint) -> float:
    return float(s.value(s.base.graph.normalize_point(p)))


def arc_second_difference(s: RegularizationTerm, edge_id: str, offset,
                          h) -> float:
    """Central second difference along an edge, (s(o-h)-2s(o)+s(o+h))/h^2."""
    e = s.base.graph.edge(edge_id)
    off = Fraction(offset)
    step = Fraction(h)
    if step <= 0 or off - step <= 0 or off + step >= e.length:
        raise GraphError("offset +- h must stay strictly inside the edge")
    vm = s.value(EdgePoint(edge_id, off - step))
    v0 = s.value(EdgePoint(edge_id, off))
    vp = s.value(EdgePoint(edge_id, off + step))
    return float((vm - 2 * v0 + vp) / step ** 2)


def _over(x: Fraction, den: int) -> int:
    """The numerator of x over den, a multiple of x's denominator."""
    return x.numerator * (den // x.denominator)


@dataclass(frozen=True)
class RegularizationSequence:
    base: PAFunction              # f on the (subdivided) working graph
    graph: MetricGraph
    patches: tuple[Patch, ...]
    epsilons: tuple[Fraction, ...]
    terms: tuple[RegularizationTerm, ...]

    def sample(self, per_edge: int) -> list[tuple]:
        """Every term at offsets length * i / per_edge (i = 0..per_edge)
        of every edge, edges in id order: one row
        (edge id, offset, f, (f_0, f_1, ...)) per sample, each f_k equal
        to terms[k].value at that point.

        On each edge, f's end values, the cone's ends and every eps_k are
        brought to one denominator nd = d * per_edge, so that f, G_x + eps_k
        and their difference T are integer numerators F, A and T at every
        sample.  With E the numerator of eps_k, m_{eps/2}(a, f) is a if
        2T >= E, f if -2T >= E, and otherwise
        (4E(A + F) + 4T^2 + E^2) / (8 nd E).  Each value is built as one
        Fraction, and a value equal to f by the term's rule is f itself.
        """
        n = per_edge
        centers = {patch.center for patch in self.patches}
        cone = {eid: arc for patch in self.patches
                for eid, arc in patch.cone.items()}
        epsilons = [term.eps for term in self.terms]
        eps_den = math.lcm(*(eps.denominator for eps in epsilons))
        rows = []
        for e in self.graph.edges:
            (_, fu), (_, fv) = self.base.profiles[e.id]
            arc = cone.get(e.id)
            d = math.lcm(eps_den, fu.denominator, fv.denominator,
                         *(() if arc is None else
                           (x.denominator for x in arc)))
            nd = d * n
            # numerators over nd: f at sample i is f0 + df * i
            f0, df = _over(fu, nd), _over(fv, d) - _over(fu, d)
            eks = [_over(eps, nd) for eps in epsilons]
            if arc is not None:
                gu, gv = arc
                g0, dg = _over(gu, nd), _over(gv, d) - _over(gu, d)
            length_num, length_den = e.length.numerator, e.length.denominator
            for i in range(n + 1):
                fnum = f0 + df * i
                fp = Fraction(fnum, nd)
                if i in (0, n):
                    if (e.u if i == 0 else e.v) in centers:
                        fks = tuple(Fraction(fnum + ek, nd) for ek in eks)
                    else:
                        fks = (fp,) * len(eks)
                elif arc is None:
                    fks = (fp,) * len(eks)
                else:
                    gnum = g0 + dg * i
                    fks = []
                    for ek in eks:
                        a = gnum + ek
                        t = a - fnum
                        if 2 * t >= ek:
                            fks.append(Fraction(a, nd))
                        elif -2 * t >= ek:
                            fks.append(fp)
                        else:
                            fks.append(Fraction(
                                4 * ek * (a + fnum) + 4 * t * t + ek * ek,
                                8 * nd * ek))
                    fks = tuple(fks)
                rows.append((e.id, Fraction(length_num * i, length_den * n),
                             fp, fks))
        return rows


def build_regularization(graph: MetricGraph, f: PAFunction,
                         n_terms: int = 10) -> RegularizationSequence:
    """Monotone sequence of smoothed functions decreasing to subharmonic f.

    Peaks (positive interior Laplacian mass) are promoted to vertices and
    separated by midpoint subdivisions; each gets a harmonic cone G_x with
    arc slopes  d_i f(x) - mass/deg(x), an epsilon budget of a third of
    the arc gap  mass * length / deg(x),  and the smoothing
    m_{eps/2}(G_x + eps, f)  on its star.
    """
    if f.graph != graph:
        raise GraphError("function lives on a different graph")
    measure = require_subharmonic(f)

    cuts = {eid: [o for o, _ in prof[1:-1]] for eid, prof in f.profiles.items()}
    f, pieces = f.split(cuts)
    # f is affine on every edge now: its ddc is f's with each kink moved to
    # the vertex split made for it; a midpoint split adds no mass, so
    # measure and peaks stay valid
    at = {EdgePoint(eid, o): Vertex(piece.v) for eid, ps in pieces.items()
          for o, piece in zip(cuts[eid], ps)}
    measure = DiscreteMeasure.of((at.get(p, p), m) for p, m in measure.support)
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
            # f is affine on e, so the arc gap f - G_x at the far end is
            # exactly mass * length / deg
            arc_eps[e.id] = mass * e.length / (3 * deg)
        patches.append(Patch(p.id, mass, cone, arc_eps))

    if not patches:
        term = RegularizationTerm(f, Fraction(0), frozenset(), {})
        return RegularizationSequence(f, g, (), (), (term,) * n_terms)

    eps0 = min(v for patch in patches for v in patch.arc_eps.values())
    epsilons = tuple(eps0 / 4 ** k for k in range(n_terms))
    centers = frozenset(patch.center for patch in patches)
    cone = {eid: arc for patch in patches for eid, arc in patch.cone.items()}
    terms = tuple(RegularizationTerm(f, eps, centers, cone)
                  for eps in epsilons)
    return RegularizationSequence(f, g, tuple(patches), epsilons, terms)


def sample_points(g: MetricGraph, f: PAFunction, per_edge: int = 32):
    """Vertices, breakpoints, and a uniform grid on every edge."""
    pts = list(f.breakpoints())
    for e in g.edges:
        for i in range(1, per_edge):
            off = e.length * i / per_edge
            if all(o != off for o, _ in f.profiles[e.id]):
                pts.append(EdgePoint(e.id, off))
    return pts
