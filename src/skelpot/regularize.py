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
is evaluated exactly over the rationals; only eval_smoothed rounds the
exact value to a float, once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import EdgePoint, GraphPoint, Vertex, _count
from .pa_function import PAFunction
from .potential import require_subharmonic


# -- scalar smooth-max calculus ------------------------------------------------


def theta(eps, t):
    """Symmetric convex 1-Lipschitz spline, strictly positive,
    equal to |t| for |t| >= eps.  Works over any ordered field; an int
    eps is taken as a Fraction, so ints give an exact value."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if type(eps) is int:
        eps = Fraction(eps)
    if abs(t) >= eps:
        return abs(t)
    return t * t / (2 * eps) + eps / 2


def smooth_max(eps, a, b):
    """Smoothed maximum: exact max when |a - b| >= eps, overshoot <= eps/4.
    Works over any ordered field, and exactly on ints, as theta does."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = a - b
    if t >= eps:
        return a
    if -t >= eps:
        return b
    return (a + b + theta(eps, t)) / 2


def smooth_max_n(delta, ts):
    """Smoothed maximum of the arguments ts, overshoot at most delta.
    Works over any ordered field: Fractions or ints give the exact
    Fraction (an int delta is taken as a Fraction).

    Realized as E[max_i (t_i + X_i)] for i.i.d. X_i uniform on
    [-h, h], h = delta/2: with m the max, that is m + h minus the
    integral over [m - h, m + h] of the product of the CDFs
    (u - t_i + h) / (2h), clamped to 1 past t_i + h, integrated in closed
    form between consecutive window ends (every window is open from
    m - h on).  Guarantees: max <= M <= max + delta; convex and
    nondecreasing in each argument; translation-equivariant; and any
    argument with t_l + delta <= max never enters the arithmetic, so
    perturbing it below that threshold leaves the value bit-identical.
    n equal arguments t give t + delta (n - 1) / (2 (n + 1)).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if type(delta) is int:
        delta = Fraction(delta)
    ts = list(ts)
    if not ts:
        raise ValueError("need at least one argument")
    m = max(ts)
    h = delta / 2
    lo = m - h
    keep = sorted(t for t in ts if t + h > lo)
    if len(keep) == 1:
        return keep[0]  # m itself: in floats, m + h - h may round off m
    total = 0
    for i, t in enumerate(keep):
        hi = t + h  # equal to lo after a tie: an empty cell adds 0
        # on [lo, hi] the windows of keep[i:] are open and the others
        # closed; delta^(len(keep) - i) times the product of the CDFs is
        # the product of (s + lo - t_open + h), in s = u - lo
        poly = [1]
        for t_open in keep[i:]:
            d = lo - t_open + h
            poly = [a * d + b for a, b in zip(poly + [0], [0] + poly)]
        w = hi - lo
        total += (sum(c * w ** (k + 1) / (k + 1) for k, c in enumerate(poly))
                  / delta ** (len(keep) - i))
        lo = hi
    return m + h - total


# -- the monotone regularization sequence ---------------------------------------


@dataclass(frozen=True)
class Patch:
    """One peak's data: the dominated harmonic cone G_x on the star arcs."""

    center: str
    mass: Fraction
    cone: dict                    # star edge id -> (G_x(u), G_x(v))
    arc_eps: dict                 # edge id -> mass * length / (3 deg(x))


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
        """The term at p, over the rationals, point by point: f + eps at a
        peak center, m_{eps/2}(G_x + eps, f) inside a star arc, where G_x
        is affine between the arc's cone ends, and f elsewhere.  This is
        the reference that RegularizationSequence.sample is tested
        against."""
        fp = self.base.eval(p)
        if isinstance(p, Vertex):
            return fp + self.eps if p.id in self.centers else fp
        arc = self.cone.get(p.edge)
        if arc is None:
            return fp
        a, b = arc
        gp = a + (b - a) * p.offset / self.base.graph.edge(p.edge).length
        return smooth_max(self.eps / 2, gp + self.eps, fp)


def eval_smoothed(s: RegularizationTerm, p: GraphPoint) -> float:
    return float(s.value(s.base.graph.normalize_point(p)))


def _over(x: Fraction, den: int) -> int:
    """The numerator of x over den, a multiple of x's denominator."""
    return x.numerator * (den // x.denominator)


@dataclass(frozen=True)
class RegularizationSequence:
    """f's working copy, a patch per peak, and the terms (eps_k in term k)."""

    base: PAFunction              # f on the (subdivided) working graph
    patches: tuple[Patch, ...]
    terms: tuple[RegularizationTerm, ...]

    def sample(self, per_edge: int) -> list[tuple]:
        """Every term at offsets length * i / per_edge (i = 0..per_edge)
        of every edge, edges in id order: one row
        (edge id, offset, f, (f_0, f_1, ...)) per sample, the offset a
        Fraction and each value an unreduced (numerator, denominator)
        pair of ints, f_k equal to terms[k].value at that point.

        On each edge, f's end values, the cone's ends and every eps_k are
        brought to one denominator nd = d * per_edge, so that f, G_x + eps_k
        and their difference T are integer numerators F, A and T at every
        sample.  With E the numerator of eps_k, m_{eps/2}(a, f) is a if
        2T >= E, f if -2T >= E, and otherwise
        (4E(A + F) + 4T^2 + E^2) / (8 nd E).  A value equal to f by the
        term's rule is f's own pair object.
        """
        _count(per_edge, "per_edge")
        n = per_edge
        # every term has the same centers and cone; only eps differs
        centers, cone = self.terms[0].centers, self.terms[0].cone
        epsilons = [term.eps for term in self.terms]
        eps_den = math.lcm(*(eps.denominator for eps in epsilons))
        rows = []
        for e in self.base.graph.edges:
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
                fp = (fnum, nd)
                if i in (0, n):
                    if (e.u if i == 0 else e.v) in centers:
                        fks = tuple((fnum + ek, nd) for ek in eks)
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
                            fks.append((a, nd))
                        elif -2 * t >= ek:
                            fks.append(fp)
                        else:
                            fks.append((4 * ek * (a + fnum) + 4 * t * t
                                        + ek * ek, 8 * nd * ek))
                    fks = tuple(fks)
                rows.append((e.id, Fraction(length_num * i, length_den * n),
                             fp, fks))
        return rows


def build_regularization(f: PAFunction,
                         n_terms: int = 10) -> RegularizationSequence:
    """Monotone sequence of smoothed functions decreasing to subharmonic f.

    Peaks (positive interior Laplacian mass) are promoted to vertices and
    separated by midpoint subdivisions, so f is affine on every edge and
    each peak's data is read off f's vertex values in closed form.  Peak x
    of mass m and degree deg gets, on each star arc of length L to a far
    vertex y, the harmonic cone G_x from f(x) to f(y) - m L / deg and the
    arc budget m L / (3 deg), a third of the gap f - G_x at y; eps_0 is
    the least budget, eps_k = eps_0 / 4^k, and term k is
    m_{eps_k/2}(G_x + eps_k, f) on the stars.  The graph is f's; eps_k is
    kept once, in term k, next to the patches' cones merged into one edge
    lookup.  Without peaks there are no patches and every term is f, eps 0.
    """
    _count(n_terms, "n_terms")
    measure = require_subharmonic(f)

    cuts = {eid: [o for o, _ in prof[1:-1]] for eid, prof in f.profiles.items()}
    f, pieces = f.split(cuts)
    # f is affine on every edge now: its ddc is f's with each kink moved to
    # the vertex split made for it; a midpoint split adds no mass
    moved = {EdgePoint(eid, o): piece.v for eid, ps in pieces.items()
             for o, piece in zip(cuts[eid], ps)}
    masses = ((p.id if isinstance(p, Vertex) else moved[p], m)
              for p, m in measure.support if m > 0)
    peaks = dict(sorted((x, m) for x, m in masses if x not in f.graph.boundary))
    f, _ = f.split({e.id: [e.length / 2] for e in f.graph.edges
                    if e.u in peaks and e.v in peaks})
    g = f.graph

    patches, cone = [], {}
    for x, mass in peaks.items():
        ends = g.incident_ends(x)
        deg, fx = len(ends), f.vertex_value(x)
        arcs, arc_eps = {}, {}
        for e, toward_v in ends:
            y = e.v if toward_v else e.u
            far = f.vertex_value(y) - mass * e.length / deg
            arcs[e.id] = (fx, far) if toward_v else (far, fx)
            arc_eps[e.id] = mass * e.length / (3 * deg)
        patches.append(Patch(x, mass, arcs, arc_eps))
        cone.update(arcs)

    eps0 = min((v for patch in patches for v in patch.arc_eps.values()),
               default=Fraction(0))
    centers = frozenset(peaks)
    terms = tuple(RegularizationTerm(f, eps0 / 4 ** k, centers, cone)
                  for k in range(n_terms))
    return RegularizationSequence(f, tuple(patches), terms)


def sample_points(f: PAFunction, per_edge: int = 32):
    """f's vertices and breakpoints, and a uniform grid on f's edges."""
    _count(per_edge, "per_edge")
    pts = list(f.breakpoints())
    for e in f.graph.edges:
        for i in range(1, per_edge):
            off = e.length * i / per_edge
            if all(o != off for o, _ in f.profiles[e.id]):
                pts.append(EdgePoint(e.id, off))
    return pts
