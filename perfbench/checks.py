"""Output checkers that share no code with the program.

Each checker reads what an op emitted (CLI stdout, the regularize
patches file, or for superforms the result objects' coefficients) and
recomputes the claim with plain `Fraction` arithmetic.  It returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

FLOAT_TOL = 1e-12   # the library's stated smooth-max / monotonicity tolerance


# -- piecewise-affine functions from JSON ------------------------------------


def _same_graph(emitted: dict, graph: dict) -> list[str]:
    def canon(d):
        return (sorted(d["vertices"]), sorted(d["boundary"]),
                sorted((e["id"], e["u"], e["v"], Fraction(e["len"]))
                       for e in d["edges"]))
    return [] if canon(emitted) == canon(graph) else ["graph differs"]


class _PA:
    """Profiles, vertex values and Laplacian masses of an emitted function."""

    def __init__(self, d: dict):
        self.edges = {e["id"]: (e["u"], e["v"], Fraction(e["len"]))
                      for e in d["graph"]["edges"]}
        self.boundary = set(d["graph"]["boundary"])
        self.profiles = {eid: [(Fraction(o), Fraction(v)) for o, v in prof]
                         for eid, prof in d["profiles"].items()}
        self.problems = []
        self.values: dict[str, Fraction] = {}
        self.vertex_mass: dict[str, Fraction] = defaultdict(Fraction)
        self.kinks: dict[tuple[str, Fraction], Fraction] = {}
        for eid, (u, v, length) in self.edges.items():
            prof = self.profiles.get(eid, [])
            if (len(prof) < 2 or prof[0][0] != 0 or prof[-1][0] != length
                    or any(o2 <= o1 for (o1, _), (o2, _) in
                           zip(prof, prof[1:]))):
                self.problems.append(f"edge {eid}: bad profile")
                continue
            for vid, val in ((u, prof[0][1]), (v, prof[-1][1])):
                if self.values.setdefault(vid, val) != val:
                    self.problems.append(f"discontinuous at {vid}")
            slopes = [(v2 - v1) / (o2 - o1)
                      for (o1, v1), (o2, v2) in zip(prof, prof[1:])]
            self.vertex_mass[u] += slopes[0]
            self.vertex_mass[v] -= slopes[-1]
            for i, (o, _) in enumerate(prof[1:-1], start=1):
                self.kinks[(eid, o)] = slopes[i] - slopes[i - 1]

    def eval(self, eid: str, off: Fraction) -> Fraction:
        prof = self.profiles[eid]
        for (o1, v1), (o2, v2) in zip(prof, prof[1:]):
            if o1 <= off <= o2:
                return v1 + (v2 - v1) * (off - o1) / (o2 - o1)
        raise ValueError(f"offset {off} outside edge {eid}")

    def interior_vertices(self):
        return [v for v in self.values if v not in self.boundary]


def _masses_json(lst) -> dict:
    return {d["at"]["vertex"]: Fraction(d["mass"]) for d in lst}


# -- grid-solve --------------------------------------------------------------


def harmonic(out: str, graph: dict, values: dict) -> list[str]:
    """Edge-affine, boundary values as given, Kirchhoff balance inside."""
    d = json.loads(out)
    f = _PA(d)
    bad = _same_graph(d["graph"], graph) + f.problems
    bad += [f"edge {eid} not affine" for eid, p in f.profiles.items()
            if len(p) != 2]
    bad += [f"boundary value at {b}" for b, v in values.items()
            if f.values.get(b) != Fraction(v)]
    bad += [f"Kirchhoff fails at {v}" for v in f.interior_vertices()
            if f.vertex_mass[v] != 0]
    return bad


def green(out: str, graph: dict, pole: dict) -> list[str]:
    """Zero on the boundary, mass -1 at the pole and 0 elsewhere inside,
    boundary masses >= 0 summing to 1 and matching the emitted list."""
    d = json.loads(out)
    f = _PA(d["function"])
    bad = _same_graph(d["function"]["graph"], graph) + f.problems
    if d["pole"] != pole:
        bad.append(f"pole {d['pole']} != {pole}")
    bad += [f"nonzero at boundary {b}" for b in f.boundary
            if f.values.get(b) != 0]
    expect_kinks = {}
    if "edge" in pole:
        expect_kinks = {(pole["edge"], Fraction(pole["offset"])): -1}
    if f.kinks != expect_kinks:
        bad.append("interior kinks differ from the pole")
    for v in f.interior_vertices():
        want = -1 if pole.get("vertex") == v else 0
        if f.vertex_mass[v] != want:
            bad.append(f"mass {f.vertex_mass[v]} at {v}, want {want}")
    bmass = {b: f.vertex_mass[b] for b in f.boundary if f.vertex_mass[b]}
    if any(m < 0 for m in bmass.values()) or sum(bmass.values()) != 1:
        bad.append("boundary masses not a probability measure")
    if _masses_json(d["boundary_masses"]) != bmass:
        bad.append("emitted boundary masses differ from recomputed")
    return bad


# -- kinked-pipeline ---------------------------------------------------------


def subharmonic(out: str, witness: dict | None) -> list[str]:
    """witness None: both oracles say subharmonic with no witnesses.
    Otherwise the spoil point is the one slope witness, with mass exactly
    the spoil's, and the one Green-pairing witness, with pairing < 0."""
    d = json.loads(out)
    slope, grn = d["slope"], d["green"]
    if witness is None:
        ok = (d["subharmonic"] and slope["subharmonic"] and grn["subharmonic"]
              and not slope["witnesses"] and not grn["witnesses"])
        return [] if ok else ["subharmonic input rejected"]
    bad = []
    if d["subharmonic"] or slope["subharmonic"] or grn["subharmonic"]:
        bad.append("spoiled input accepted")
    sw = [(w["at"], Fraction(w["incoming_slope_sum"]))
          for w in slope["witnesses"]]
    if sw != [(witness["at"], Fraction(witness["mass"]))]:
        bad.append(f"slope witnesses {sw}")
    gw = [(w["pole"], Fraction(w["pairing"])) for w in grn["witnesses"]]
    if len(gw) != 1 or gw[0][0] != witness["at"] or gw[0][1] >= 0:
        bad.append(f"green witnesses {gw}")
    return bad


def regularize(out: str, patches_path: str, n_terms: int,
               samples: int) -> list[str]:
    """Every sample: f_{k+1} <= f_k, f <= f_k, |f_k - f| <= 5/4 eps_k
    (float tolerance 1e-12), with eps_k from the patches file, which must
    hold eps_0 = the least arc budget and eps_{k+1} = eps_k / 4."""
    with open(patches_path) as fh:
        patches = json.load(fh)
    eps = [Fraction(e) for e in patches["epsilons"]]
    arc_eps = [Fraction(v) for p in patches["patches"]
               for v in p["arc_eps"].values()]
    if not arc_eps or len(eps) != n_terms or eps[0] != min(arc_eps) or \
            any(e1 != e0 / 4 for e0, e1 in zip(eps, eps[1:])):
        return ["epsilon schedule"]
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["k", "edge", "offset", "f_k", "f", "f_k_minus_f"]:
        return ["CSV header"]
    bad = []
    by_point: dict[tuple, dict[int, float]] = defaultdict(dict)
    base: dict[tuple, float] = {}
    per_edge: dict[tuple, int] = defaultdict(int)
    for k, edge, off, fk, fv, diff in rows[1:]:
        k, fk, fv = int(k), float(fk), float(fv)
        if fk - fv != float(diff):
            bad.append(f"difference column at {edge}:{off}")
        key = (edge, Fraction(off))
        by_point[key][k] = fk
        if base.setdefault(key, fv) != fv:
            bad.append(f"f differs across k at {edge}:{off}")
        per_edge[(k, edge)] += 1
    if set(per_edge.values()) != {samples + 1} or \
            {k for k, _ in per_edge} != set(range(n_terms)):
        bad.append("sample grid")
    bounds = [1.25 * float(e) + FLOAT_TOL for e in eps]
    for key, terms in by_point.items():
        fv = base[key]
        for k in range(n_terms):
            fk = terms.get(k)
            if fk is None:
                continue
            if fk < fv - FLOAT_TOL or abs(fk - fv) > bounds[k]:
                bad.append(f"sup bound at {key} k={k}")
            nxt = terms.get(k + 1)
            if nxt is not None and nxt > fk + FLOAT_TOL:
                bad.append(f"not monotone at {key} k={k}")
    return bad


def certificate(out: str, f_json: dict, tol: Fraction) -> list[str]:
    """ok and pairing < 0, the pairing recomputed from `output` against f,
    denominators <= max_denominator, boundary zero, interior positive."""
    d = json.loads(out)
    g = _PA(d["output"])
    f = _PA(f_json)
    bad = _same_graph(d["output"]["graph"], f_json["graph"]) + g.problems
    max_den = math.ceil(1 / tol)
    if d["checks"]["kinks_rational"]["max_denominator"] != max_den:
        bad.append("max_denominator")
    if any(x.denominator > max_den for prof in g.profiles.values()
           for point in prof for x in point):
        bad.append("denominator above max_denominator")
    bad += [f"nonzero at boundary {b}" for b in g.boundary
            if g.values.get(b) != 0]
    if any(g.values[v] <= 0 for v in g.interior_vertices()) or \
            any(v <= 0 for prof in g.profiles.values() for _, v in prof[1:-1]):
        bad.append("interior not positive")
    pairing = sum((f.values[v] * m for v, m in g.vertex_mass.items()),
                  Fraction(0))
    pairing += sum((f.eval(eid, o) * m for (eid, o), m in g.kinks.items()),
                   Fraction(0))
    if pairing != Fraction(d["pairing"]):
        bad.append("pairing differs from recomputed")
    if not (d["ok"] and pairing < 0):
        bad.append("certificate not ok")
    return bad


# -- superform-identities ----------------------------------------------------


def _form(alpha) -> tuple:
    """Bidegree and {(I, J, exponents): coefficient} of a form's output."""
    return ((alpha.p, alpha.q),
            {(i, j, e): Fraction(c) for (i, j), poly in alpha.coeffs.items()
             for e, c in poly.terms.items()})


def _combine(*scaled) -> dict:
    out: dict = defaultdict(Fraction)
    for c, terms in scaled:
        for key, v in terms.items():
            out[key] += c * v
    return {k: v for k, v in out.items() if v}


def _diff(terms: dict, i: int) -> dict:
    out: dict = defaultdict(Fraction)
    for e, c in terms.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] += c * e[i]
    return {e: c for e, c in out.items() if c}


def _int(x: Fraction):
    return x.numerator if x.denominator == 1 else x


def _value(terms: dict, point) -> Fraction:
    return sum(c * math.prod(x ** k for x, k in zip(point, e))
               for e, c in terms.items())


def _det(m) -> Fraction:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] *
               _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _psd_by_minors(m) -> bool:
    n = len(m)
    return all(_det([[m[i][j] for j in idx] for i in idx]) >= 0
               for size in range(1, n + 1)
               for idx in combinations(range(n), size))


def superform(inp, res: dict) -> list[str]:
    """d'd' = 0, d''d'' = 0, d'd'' = -d''d', J^2 = id, Leibniz, pullback
    commutes with d'; the Hessian form's coefficients and its positivity
    verdict against an independent principal-minor oracle."""
    bad = []
    a = _form(inp.a)
    for name in ("dd", "ss"):
        if _form(res[name])[1]:
            bad.append(f"{name} != 0")
    ds, sd = _form(res["ds"]), _form(res["sd"])
    if ds[0] != sd[0] or _combine((1, ds[1]), (1, sd[1])):
        bad.append("d'd'' != -d''d'")
    if _form(res["jj"]) != a:
        bad.append("J^2 != id")
    sgn = (-1) ** sum(a[0])
    lhs, r1, r2 = _form(res["leib"]), _form(res["leib1"]), _form(res["leib2"])
    if not (lhs[0] == r1[0] == r2[0]) or \
            _combine((1, lhs[1]), (-1, r1[1]), (-sgn, r2[1])):
        bad.append("Leibniz fails")
    if _form(res["pull_d"]) != _form(res["d_pull"]):
        bad.append("pullback does not commute with d'")

    r = len(inp.points[0])
    hess = [[_diff(_diff(inp.psi_terms, i), j) for j in range(r)]
            for i in range(r)]
    want = {((i,), (j,), e): c for i in range(r) for j in range(r)
            for e, c in hess[i][j].items()}
    if _form(res["hess"]) != ((1, 1), want):
        bad.append("Hessian form coefficients")
    # integral entries evaluate as ints: the same exact values, faster
    hess = [[{e: _int(c) for e, c in h.items()} for h in row] for row in hess]
    expect = [tuple(pt) for pt in inp.points if not _psd_by_minors(
        [[_value(hess[i][j], [_int(x) for x in pt]) for j in range(r)]
         for i in range(r)])]
    verdict = res["verdict"]
    if verdict.ok != (not expect) or list(verdict.violations) != expect:
        bad.append("positivity verdict differs from the minor oracle")
    return bad
