"""Command-line interface.

Subcommands: ddc, green, harmonic, subharmonic, regularize, rationalize,
superform, selftest.  All results go to stdout; diagnostics and timings
go to stderr.  Exit codes: 0 success / true verdict, 1 negative verdict,
2 malformed input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import random
import re
import sys
import time
from fractions import Fraction

from .graph import EdgePoint, GraphError, MetricGraph, Vertex, point_to_json
from .pa_function import PAFunction
from .potential import (NotSubharmonicError, dirichlet_solve,
                        evaluation_formula_check, green, green_to_json_dict,
                        is_subharmonic_green, maximum_principle_check)
from .rational import RationalParseError, format_rational, parse_rational
from .rationalize import (RationalizationError, rationalize, tent_decompose,
                          tent_reconstruction)
from .regularize import (build_regularization, eval_smoothed, smooth_max,
                         smooth_max_n)
from .randgen import random_graph, random_pa_function, random_subharmonic
from . import superforms as sf


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc


def _load_function(path: str) -> PAFunction:
    d = _load_json(path)
    try:
        return PAFunction.from_json_dict(d)
    except (GraphError, RationalParseError, ValueError, KeyError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_graph(path: str) -> MetricGraph:
    try:
        return MetricGraph.from_json_dict(_load_json(path))
    except (GraphError, RationalParseError, ValueError, KeyError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_point(text: str):
    """"v3" for a vertex, "e0:1/2" for an edge point."""
    if ":" in text:
        eid, off = text.split(":", 1)
        return EdgePoint(eid, parse_rational(off))
    return Vertex(text)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# -- subcommands ----------------------------------------------------------------


def cmd_ddc(args) -> int:
    f = _load_function(args.file)
    _emit(f.ddc().to_json_list())
    return 0


def cmd_green(args) -> int:
    g = _load_graph(args.graph)
    try:
        gf = green(g, _parse_point(args.point))
    except (GraphError, RationalParseError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    _emit(green_to_json_dict(gf))
    return 0


def cmd_harmonic(args) -> int:
    g = _load_graph(args.graph)
    raw = _load_json(args.values)
    try:
        values = {k: parse_rational(v) for k, v in raw.items()}
        h = dirichlet_solve(g, values)
    except (RationalParseError, ValueError, AttributeError) as exc:
        raise InputError(f"{args.values}: {exc}") from exc
    _emit(h.result.to_json_dict())
    return 0


def cmd_subharmonic(args) -> int:
    f = _load_function(args.file)
    out = {"method": args.method}
    verdicts = []
    if args.method in ("slope", "both"):
        v = f.is_subharmonic_slope()
        out["slope"] = {
            "subharmonic": v.ok,
            "witnesses": [{"at": point_to_json(p),
                           "incoming_slope_sum": format_rational(s)}
                          for p, s in v.witnesses],
        }
        verdicts.append(v.ok)
    if args.method in ("green", "both"):
        v = is_subharmonic_green(f)
        out["green"] = {
            "subharmonic": v.ok,
            "witnesses": [{"pole": point_to_json(p),
                           "pairing": format_rational(val)}
                          for p, val in v.violations],
        }
        verdicts.append(v.ok)
    ok = all(verdicts)
    out["subharmonic"] = ok
    _emit(out)
    return 0 if ok else 1


def cmd_regularize(args) -> int:
    f = _load_function(args.file)
    try:
        seq = build_regularization(f.graph, f, n_terms=args.k)
    except NotSubharmonicError as exc:
        raise InputError(str(exc)) from exc
    g, base = seq.graph, seq.base
    try:
        patches = (open(args.patches, "w") if args.patches
                   else contextlib.nullcontext())
    except OSError as exc:
        raise InputError(f"cannot write {args.patches}: {exc}") from exc
    with patches as fh:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["k", "edge", "offset", "f_k", "f", "f_k_minus_f"])
        for k, term in enumerate(seq.terms):
            for e in g.edges:
                for i in range(args.samples + 1):
                    off = e.length * i / args.samples
                    p = EdgePoint(e.id, off)
                    fk = eval_smoothed(term, p)
                    fv = float(base.eval(p))
                    writer.writerow([k, e.id, format_rational(off),
                                     repr(fk), repr(fv), repr(fk - fv)])
        if fh is not None:
            dump = {
                "epsilons": [format_rational(e) for e in seq.epsilons],
                "patches": [{
                    "center": p.center,
                    "mass": format_rational(p.mass),
                    "cone_arcs": {eid: [format_rational(a),
                                        format_rational(b)]
                                  for eid, (a, b) in sorted(p.cone.items())},
                    "arc_eps": {eid: format_rational(v)
                                for eid, v in sorted(p.arc_eps.items())},
                } for p in seq.patches],
            }
            json.dump(dump, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_rationalize(args) -> int:
    f = _load_function(args.f)
    g_in = _load_function(args.g)
    try:
        tol = parse_rational(args.tol)
        cert = rationalize(f, g_in, tol)
    except (RationalParseError, RationalizationError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    _emit(cert.to_json_dict())
    return 0 if cert.ok and cert.pairing < 0 else 1


def _infer_dim(*texts: str) -> int:
    r = 0
    for text in texts:
        for m in re.finditer(r"x(\d+)", text):
            r = max(r, int(m.group(1)))
    return max(r, 1)


def _parse_form(text: str, r: int) -> sf.SuperForm:
    try:
        return sf.parse_form(text, r)
    except (sf.FormParseError, sf.BidegreeError) as exc:
        raise InputError(f"{text!r}: {exc}") from exc


def cmd_superform(args) -> int:
    r = args.r or _infer_dim(args.expr, args.second or "")
    alpha = _parse_form(args.expr, r)
    if args.op == "dprime":
        out = sf.d_prime(alpha)
    elif args.op == "dsecond":
        out = sf.d_second(alpha)
    elif args.op == "J":
        out = sf.j_involution(alpha)
    elif args.op == "wedge":
        if not args.second:
            raise InputError("wedge needs a second form (--with)")
        out = sf.wedge(alpha, _parse_form(args.second, r))
    else:  # positivity
        if (alpha.p, alpha.q) == (0, 0):
            alpha = sf.hessian_form(alpha.coeffs.get(((), ()),
                                                     sf.Poly(r, {})))
        if (alpha.p, alpha.q) != (1, 1):
            raise InputError("positivity needs a (1,1)-form or a function")
        points = _positivity_points(args.points, r)
        try:
            verdict = sf.is_positive_11(alpha, points)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        print("positive" if verdict.ok else "not positive")
        for pt in verdict.violations:
            print("violation at (" +
                  ", ".join(format_rational(x) for x in pt) + ")")
        return 0 if verdict.ok else 1
    print(sf.format_form(out))
    return 0


def _positivity_points(spec_text: str | None, r: int):
    if spec_text:
        pts = []
        for chunk in spec_text.split(";"):
            coords = [parse_rational(c) for c in chunk.split(",")]
            if len(coords) != r:
                raise InputError(f"point {chunk!r} has wrong dimension")
            pts.append(coords)
        return pts
    vals = [Fraction(-1), Fraction(0), Fraction(1)]
    pts = [[Fraction(0)] * r]
    for i in range(r):
        for v in vals:
            pt = [Fraction(0)] * r
            pt[i] = v
            pts.append(pt)
    for i in range(r):
        for j in range(i + 1, r):
            for vi in vals:
                for vj in vals:
                    pt = [Fraction(0)] * r
                    pt[i], pt[j] = vi, vj
                    pts.append(pt)
    return pts


# -- selftest -------------------------------------------------------------------


def _check_green_exact():
    g = MetricGraph.from_json_dict({
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "len": 2, "id": "e"}],
        "boundary": ["a", "b"]})
    gf = green(g, EdgePoint("e", Fraction(1)))
    ok = (gf.result.eval(EdgePoint("e", Fraction(1))) == Fraction(1, 2)
          and gf.boundary_masses.mass_at(Vertex("a")) == Fraction(1, 2)
          and gf.boundary_masses.mass_at(Vertex("b")) == Fraction(1, 2))
    star = MetricGraph.from_json_dict({
        "vertices": ["c", "l0", "l1", "l2"],
        "edges": [{"u": "c", "v": f"l{i}", "len": 1, "id": f"a{i}"}
                  for i in range(3)],
        "boundary": ["l0", "l1", "l2"]})
    gf2 = green(star, Vertex("c"))
    ok = ok and gf2.result.vertex_value("c") == Fraction(1, 3)
    ok = ok and all(gf2.boundary_masses.mass_at(Vertex(f"l{i}"))
                    == Fraction(1, 3) for i in range(3))
    gf3 = green(g, EdgePoint("e", Fraction(1, 2)))
    ok = ok and gf3.result.eval(EdgePoint("e", Fraction(1, 2))) == Fraction(3, 8)
    ok = ok and gf3.boundary_masses.mass_at(Vertex("a")) == Fraction(3, 4)
    return ok, "3 cases"


def _check_poisson(rng):
    n = 10
    for _ in range(n):
        g = random_graph(rng, max_vertices=8, max_edges=12)
        interior = [v for v in g.vertices if v not in g.boundary]
        if not interior:
            continue
        values = {v: Fraction(rng.randint(-3, 3)) for v in g.boundary}
        h = dirichlet_solve(g, values).result
        x = Vertex(rng.choice(interior))
        lhs, rhs = evaluation_formula_check(g, x, h)
        if lhs != rhs:
            return False, f"mismatch at {x}"
    return True, f"{n} graphs"


def _check_oracles(rng):
    n = 30
    for _ in range(n):
        g = random_graph(rng, max_vertices=8, max_edges=12)
        f = random_pa_function(rng, g)
        if f.is_subharmonic_slope().ok != is_subharmonic_green(f).ok:
            return False, "verdict mismatch"
    return True, f"{n} functions"


def _check_max_principle(rng):
    n = 10
    for _ in range(n):
        f = random_subharmonic(rng, random_graph(rng, max_vertices=8))
        if not maximum_principle_check(f):
            return False, "domination fails"
    return True, f"{n} functions"


def _check_smooth_max(rng):
    for _ in range(500):
        eps = rng.uniform(1e-3, 1.0)
        a, b = rng.uniform(-5, 5), rng.uniform(-5, 5)
        m = smooth_max(eps, a, b)
        hi = max(a, b)
        if not (hi - 1e-12 <= m <= hi + eps / 4 + 1e-12):
            return False, "envelope bound fails"
        if m != smooth_max(eps, b, a):
            return False, "symmetry fails"
        if abs(a - b) >= eps and m != hi:
            return False, "exact branch fails"
    for _ in range(200):
        delta = rng.uniform(1e-3, 0.5)
        ts = [rng.uniform(-2, 2) for _ in range(rng.randint(2, 5))]
        hi = max(ts)
        m = smooth_max_n(delta, ts)
        if not (hi - 1e-12 <= m <= hi + delta + 1e-12):
            return False, "n-ary envelope fails"
        if smooth_max_n(delta, ts + [hi - delta - 1.0]) != m:
            return False, "drop-out not bit-exact"
    return True, "700 tuples"


def _check_regularization(rng):
    n = 5
    for _ in range(n):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        f = random_subharmonic(rng, g)
        seq = build_regularization(g, f, n_terms=4)
        pts = [EdgePoint(e.id, e.length * i / 8)
               for e in seq.graph.edges for i in range(9)]
        vals = [[eval_smoothed(t, p) for p in pts] for t in seq.terms]
        for k in range(len(seq.terms) - 1):
            if any(v1 > v0 + 1e-12 for v0, v1 in zip(vals[k], vals[k + 1])):
                return False, "not monotone"
        for k, eps in enumerate(seq.epsilons):
            bound = 1.25 * float(eps) + 1e-12
            if any(abs(v - float(seq.base.eval(p))) > bound
                   for v, p in zip(vals[k], pts)):
                return False, "sup bound fails"
    return True, f"{n} functions"


def _check_rationalize(rng):
    n = 5
    done = 0
    while done < n:
        g = random_graph(rng, max_vertices=6, max_edges=8)
        interior = [v for v in g.vertices if v not in g.boundary]
        if len(interior) < 2:
            continue
        p1, p2 = rng.sample(interior, 2)
        g_exact = green(g, Vertex(p1)).result
        f = green(g, Vertex(p2)).result
        if f.vertex_value(p1) == 0 or \
                any(g_exact.vertex_value(v) <= 0 for v in interior):
            continue
        noise = {v: Fraction(rng.randint(-3, 3), 10 ** 7)
                 for v in g.vertices}
        for b in g.boundary:
            noise[b] = Fraction(0)
        g_in = PAFunction(g, {
            e.id: [(off, val + (noise[e.u] if off == 0 else
                                noise[e.v] if off == e.length else
                                Fraction(rng.randint(-3, 3), 10 ** 7)))
                   for off, val in prof]
            for e, prof in ((g.edge(eid), prof)
                            for eid, prof in g_exact.profiles.items())})
        cert = rationalize(f, g_in, Fraction(1, 10000))
        if not (cert.ok and cert.pairing < 0):
            return False, "certificate fails"
        done += 1
    return True, f"{n} inputs"


def _check_tents(rng):
    n = 20
    for _ in range(n):
        deg = rng.randint(2, 5)
        g = MetricGraph.from_json_dict({
            "vertices": ["c"] + [f"l{i}" for i in range(deg)],
            "edges": [{"u": "c", "v": f"l{i}",
                       "len": str(Fraction(rng.randint(1, 8), 4)),
                       "id": f"a{i}"} for i in range(deg)],
            "boundary": [f"l{i}" for i in range(deg)]})
        vals = {"c": Fraction(rng.randint(-4, 4), 2)}
        vals.update({f"l{i}": Fraction(rng.randint(-4, 4), 2)
                     for i in range(deg)})
        f = PAFunction.from_vertex_values(g, vals)
        coeffs, tents, const = tent_decompose(f, "c")
        back = tent_reconstruction(coeffs, tents, const, g)
        # the identity holds on the inner half-star and for the center mass
        inner = [EdgePoint(e.id, e.length * i / 8)
                 for e in g.edges for i in range(5)]
        if any(back.eval(p) != f.eval(p) for p in inner):
            return False, "reconstruction mismatch"
        if back.ddc().mass_at(Vertex("c")) != f.ddc().mass_at(Vertex("c")):
            return False, "center mass mismatch"
    return True, f"{n} stars"


def _random_form(rng, r, p, q):
    from itertools import combinations
    idx_i = rng.choice(list(combinations(range(r), p)))
    idx_j = rng.choice(list(combinations(range(r), q)))
    poly = sf.Poly(r, {tuple(rng.randint(0, 2) for _ in range(r)):
                       Fraction(rng.randint(-3, 3))
                       for _ in range(rng.randint(1, 3))})
    return sf.SuperForm(r, p, q, {(idx_i, idx_j): poly})


def _check_superforms(rng):
    n = 100
    for _ in range(n):
        r = rng.randint(2, 3)
        p, q = rng.randint(0, r - 1), rng.randint(0, r - 1)
        a = _random_form(rng, r, p, q)
        if not sf.d_prime(sf.d_prime(a)).is_zero():
            return False, "d'^2 != 0"
        if not sf.d_second(sf.d_second(a)).is_zero():
            return False, "d''^2 != 0"
        if sf.d_prime(sf.d_second(a)) != -sf.d_second(sf.d_prime(a)):
            return False, "anticommutation fails"
        if sf.j_involution(sf.j_involution(a)) != a:
            return False, "J^2 != id"
    hess = sf.hessian_form(sf.Poly(2, {(2, 0): 1, (0, 2): 1}))
    pts = [[Fraction(x), Fraction(y)] for x in (-1, 0, 1) for y in (-1, 0, 1)]
    if not sf.is_positive_11(hess, pts).ok:
        return False, "convex hessian not positive"
    saddle = sf.hessian_form(sf.Poly(2, {(2, 0): 1, (0, 2): -1}))
    if sf.is_positive_11(saddle, pts).ok:
        return False, "saddle hessian positive"
    return True, f"{n} forms + positivity"


def cmd_selftest(args) -> int:
    seed = os.environ.get("SKELPOT_SEED")
    seed = int(seed) if seed is not None else args.seed
    digest = hashlib.sha256(f"skelpot-selftest-{seed}".encode()).hexdigest()
    rng = random.Random(seed)
    checks = [
        ("green_exact_values", _check_green_exact),
        ("poisson_formula", lambda: _check_poisson(rng)),
        ("subharmonicity_oracles", lambda: _check_oracles(rng)),
        ("maximum_principle", lambda: _check_max_principle(rng)),
        ("smooth_max_axioms", lambda: _check_smooth_max(rng)),
        ("monotone_regularization", lambda: _check_regularization(rng)),
        ("rationalization", lambda: _check_rationalize(rng)),
        ("tent_decomposition", lambda: _check_tents(rng)),
        ("superform_identities", lambda: _check_superforms(rng)),
    ]
    print("skelpot selftest report")
    print(f"command: selftest --seed {seed}")
    print(f"inputs digest: {digest[:16]}")
    passed = 0
    for name, fn in checks:
        t0 = time.perf_counter()
        ok, detail = fn()
        dt = time.perf_counter() - t0
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})")
        print(f"  {name}: {dt:.3f}s", file=sys.stderr)
        passed += ok
    print(f"result: {'PASS' if passed == len(checks) else 'FAIL'} "
          f"({passed}/{len(checks)})")
    return 0 if passed == len(checks) else 1


# -- entry point ----------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skelpot",
        description="Potential theory on metric graphs: exact Laplacians, "
                    "Green's functions, regularization, and superforms.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ddc", help="Laplacian measure of a PA function")
    p.add_argument("file", help="PA function JSON")
    p.set_defaults(fn=cmd_ddc)

    p = sub.add_parser("green", help="Green's function for a pole")
    p.add_argument("--graph", required=True, help="graph JSON")
    p.add_argument("--point", required=True,
                   help='pole: vertex id or "edge:offset"')
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("harmonic", help="harmonic extension of boundary data")
    p.add_argument("--graph", required=True, help="graph JSON")
    p.add_argument("--values", required=True,
                   help="JSON object: boundary vertex -> rational")
    p.set_defaults(fn=cmd_harmonic)

    p = sub.add_parser("subharmonic", help="test subharmonicity")
    p.add_argument("file", help="PA function JSON")
    p.add_argument("--method", choices=["slope", "green", "both"],
                   default="both")
    p.set_defaults(fn=cmd_subharmonic)

    p = sub.add_parser("regularize",
                       help="monotone smooth approximation, CSV samples")
    p.add_argument("file", help="subharmonic PA function JSON")
    p.add_argument("--k", type=_positive_int, default=10,
                   help="number of terms")
    p.add_argument("--samples", type=_positive_int, default=32,
                   help="sample points per edge")
    p.add_argument("--patches", help="write patch/epsilon JSON to this file")
    p.set_defaults(fn=cmd_regularize)

    p = sub.add_parser("rationalize",
                       help="snap a decimal function to rationals "
                            "with an exact pairing certificate")
    p.add_argument("--f", required=True, help="exact PA function JSON")
    p.add_argument("--g", required=True, help="approximate function JSON")
    p.add_argument("--tol", default="1/1000", help="snapping tolerance")
    p.set_defaults(fn=cmd_rationalize)

    p = sub.add_parser("superform", help="superform algebra operations")
    p.add_argument("expr", help="form expression, e.g. "
                                "\"(2*x1^2 + x2) d'x1 ^ d''x2\"")
    p.add_argument("--op", required=True,
                   choices=["dprime", "dsecond", "wedge", "J", "positivity"])
    p.add_argument("--with", dest="second", help="second form (wedge)")
    p.add_argument("--r", type=int, help="ambient dimension (default: infer)")
    p.add_argument("--points", help='positivity sample points "1,0;0,1/2"')
    p.set_defaults(fn=cmd_superform)

    p = sub.add_parser("selftest", help="deterministic seeded self-check")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed (env SKELPOT_SEED overrides)")
    p.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, NotSubharmonicError, RationalParseError,
            RationalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
