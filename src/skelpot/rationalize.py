"""Snap a piecewise-affine function with high-precision decimal data onto
bounded-denominator rationals while certifying that the pairing
integral(f ddc G) stays strictly negative, plus the local tent
decomposition of a function at a vertex.

Decimal inputs are parsed exactly (scaled integers); "irrational" means
"a value the caller does not want to treat as canonical".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import GraphError, Vertex, exact, point_to_json
from .pa_function import PAFunction, _slopes, integrate, linear_combine
from .rational import format_rational


@dataclass
class RationalizationCertificate:
    output: PAFunction
    ok: bool
    pairing: Fraction
    pairing_input: Fraction
    checks: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "pairing": format_rational(self.pairing),
            "pairing_input": format_rational(self.pairing_input),
            "checks": self.checks,
            "output": self.output.to_json_dict(),
        }


class RationalizationError(ValueError):
    pass


def rationalize(f: PAFunction, g_in: PAFunction,
                tol: Fraction) -> RationalizationCertificate:
    """Snap vertex values (boundary pinned to 0, interior kept strictly
    positive), then each edge's kink offsets and values, and record the
    rational slopes; then recompute the pairing exactly and certify it
    stayed negative.
    """
    if f.graph != g_in.graph:
        raise GraphError("f and G live on different graphs")
    tol = exact(tol, "tol")
    if tol <= 0:
        raise RationalizationError("tol must be positive")
    graph = f.graph
    if not graph.boundary:
        raise GraphError("empty boundary")
    max_den = math.ceil(1 / tol)

    max_offset_snap = Fraction(0)
    max_value_snap = Fraction(0)

    # Values: boundary vertices exactly 0, interior strictly > 0.
    def snap_value(v: Fraction) -> Fraction:
        v2 = v.limit_denominator(max_den)
        if v > 0 and v2 <= 0:
            v2 = Fraction(1, max_den)
        return v2

    # one zero: every boundary value and the start of every profile
    zero = Fraction(0)
    vertex_snapped = {}
    for vid in graph.vertices:
        old = g_in.vertex_value(vid)
        if vid in graph.boundary:
            vertex_snapped[vid] = zero
        else:
            vertex_snapped[vid] = snap_value(old)
        max_value_snap = max(max_value_snap, abs(vertex_snapped[vid] - old))

    # Kink offsets onto denominators <= max_den, and their values.
    profiles = {}
    for e in graph.edges:
        new = [(zero, vertex_snapped[e.u])]
        for o, v in g_in.profiles[e.id][1:-1]:
            o2, v2 = o.limit_denominator(max_den), snap_value(v)
            if not (new[-1][0] < o2 < e.length):
                raise RationalizationError(
                    f"edge {e.id}: snapped offsets collide (tol too coarse)")
            max_offset_snap = max(max_offset_snap, abs(o2 - o))
            max_value_snap = max(max_value_snap, abs(v2 - v))
            new.append((o2, v2))
        new.append((e.length, vertex_snapped[e.v]))
        profiles[e.id] = tuple(new)

    # the collision check above keeps every profile's offsets increasing
    g_out = PAFunction._of(graph, profiles)

    # With rational offsets and values every slope is rational by
    # construction; record them as the verification witness.
    slopes = {e.id: [format_rational(s) for s in _slopes(profiles[e.id])]
              for e in graph.edges}

    pairing = integrate(f, g_out.ddc())
    pairing_in = integrate(f, g_in.ddc())

    # Continuity bound: |pairing(G') - pairing(G)| = |integral (G'-G) ddc f|
    # <= |ddc f|(total) * sup|G'-G|, with sup|G'-G| bounded by the value
    # snap plus the offset snap times a Lipschitz constant of G.
    tv_f = f.ddc().total_variation()
    lip_g = g_in.max_abs_slope()
    bound = tv_f * (max_value_snap + lip_g * max_offset_snap)
    drift = abs(pairing - pairing_in)

    interior_bad = [p for p in g_out.breakpoints()
                    if not (isinstance(p, Vertex) and p.id in graph.boundary)
                    and g_out.eval(p) <= 0]

    checks = {
        "kinks_rational": {"pass": True, "max_denominator": max_den,
                           "max_offset_snap": format_rational(max_offset_snap)},
        "values_rational": {"pass": True,
                            "max_value_snap": format_rational(max_value_snap)},
        "slopes_rational": {"pass": True, "slopes": slopes},
        "interior_positive": {"pass": not interior_bad,
                              "witnesses": [point_to_json(p)
                                            for p in interior_bad]},
        "boundary_zero": {"pass": all(g_out.vertex_value(b) == 0
                                      for b in graph.boundary)},
        "pairing_negative": {"pass": bool(pairing < 0),
                             "value": format_rational(pairing)},
        "pairing_bound": {"pass": drift <= bound,
                          "bound": format_rational(bound),
                          "drift": format_rational(drift)},
    }
    ok = all(c["pass"] for c in checks.values())
    return RationalizationCertificate(g_out, ok, pairing, pairing_in, checks)


def tent_decompose(f: PAFunction, x: str):
    """Write f near the vertex x as  sum |l_i| * F_i + f(x)  on the inner
    half-star, where each tent F_i has slope sgn(l_i) leaving x on arc i,
    turns around at the arc midpoint, and vanishes elsewhere.

    Returns (coefficients, tents, constant).
    """
    g = f.graph
    if x not in set(g.vertices):
        raise GraphError(f"unknown vertex {x}")
    if x in g.boundary:
        raise GraphError("decomposition center must be interior")
    dirs = g.star(Vertex(x))
    for d in dirs:
        e = g.edge(d.edge)
        if e.u == e.v:
            raise GraphError("self-loop at the decomposition center "
                             "is not supported; subdivide it first")
        if len(f.profiles[e.id]) != 2:
            raise GraphError(f"f is not affine on adjacent edge {e.id}")

    fx = f.vertex_value(x)
    flat = PAFunction.constant(g, 0).profiles
    zero = Fraction(0)
    coeffs, tents = [], []
    for d in dirs:
        lam = f.outgoing_slope(d)
        if lam == 0:
            continue
        sgn = Fraction(1) if lam > 0 else Fraction(-1)
        e = g.edge(d.edge)
        half = e.length / 2
        tent = ((zero, zero), (half, sgn * half), (e.length, zero))
        coeffs.append(abs(lam))
        tents.append(PAFunction._of(g, {**flat, e.id: tent}))
    return coeffs, tents, fx


def tent_reconstruction(coeffs, tents, constant, graph) -> PAFunction:
    """sum coeff_i * tent_i + constant, as an exact PAFunction."""
    terms = list(zip(coeffs, tents))
    terms.append((Fraction(1), PAFunction.constant(graph, constant)))
    return linear_combine(terms)
