"""Seeded inputs for the three workloads.

Every chunk of a run's pool draws from its own `random.Random` seeded by
(workload, seed, chunk), so a seed gives the same inputs byte for byte.
The program only ever sees the files written here (CLI workloads) or the
objects built here (`superform-identities`); what the checkers expect
travels alongside in each `Call` and never passes through the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Any, Callable

from skelpot import superforms as sf
from skelpot.graph import MetricGraph, Vertex
from skelpot.linalg import solve_exact
from skelpot.pa_function import linear_combine
from skelpot.potential import green

import checks

RATIONALIZE_TOL = Fraction(1, 10000)
DECIMAL_DIGITS = 30


@dataclass
class Call:
    """One CLI invocation: its argv, the exit code it must return, and a
    checker taking the captured stdout and returning a list of problems."""

    argv: list[str]
    exit_code: int
    check: Callable[[str], list[str]]


@dataclass
class Op:
    digest: str
    calls: list[Call] = field(default_factory=list)
    payload: Any = None          # superform-identities: the op's objects


class DuplicateInputError(RuntimeError):
    pass


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _write_json(path: str, obj) -> bytes:
    data = json.dumps(obj, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def _length(rng: random.Random) -> Fraction:
    den = rng.randint(1, 10)
    return Fraction(rng.randint(1, 4 * den), den)


def _value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 6))


# -- grid-solve --------------------------------------------------------------

GRID_SHAPES = ((10, 1), (5, 3))   # (k, edges per grid edge): V=100, V=105


def grid_graph(rng: random.Random, k: int, chain: int) -> dict:
    """k x k grid whose every grid edge is a chain of `chain` edges;
    boundary = first row and first column."""
    vertices = [f"r{i}c{j}" for i in range(k) for j in range(k)]
    edges = []

    def link(u: str, v: str):
        prev = u
        for t in range(chain):
            w = v if t == chain - 1 else f"{u}-{v}.{t}"
            if w != v:
                vertices.append(w)
            edges.append({"u": prev, "v": w, "len": str(_length(rng)),
                          "id": f"e{len(edges)}"})
            prev = w

    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                link(f"r{i}c{j}", f"r{i + 1}c{j}")
            if j + 1 < k:
                link(f"r{i}c{j}", f"r{i}c{j + 1}")
    boundary = sorted({f"r0c{j}" for j in range(k)}
                      | {f"r{i}c0" for i in range(k)})
    return {"vertices": vertices, "edges": edges, "boundary": boundary}


def grid_op(rng: random.Random, index: int, workdir: str) -> Op:
    """Op `index` cycles harmonic / green at a vertex / green at an edge
    point, and alternates the two grid shapes: the cycle has length 6."""
    k, chain = GRID_SHAPES[index % 2]
    gd = grid_graph(rng, k, chain)
    gpath = os.path.join(workdir, f"g{index}.json")
    gbytes = _write_json(gpath, gd)
    kind = index % 3
    if kind == 0:
        values = {b: str(_value(rng)) for b in gd["boundary"]}
        vpath = os.path.join(workdir, f"v{index}.json")
        vbytes = _write_json(vpath, values)
        call = Call(["harmonic", "--graph", gpath, "--values", vpath], 0,
                    lambda out: checks.harmonic(out, gd, values))
        return Op(_digest("harmonic", gbytes, vbytes), [call])
    interior = [v for v in gd["vertices"] if v not in set(gd["boundary"])]
    if kind == 1:
        point = rng.choice(interior)
        pole = {"vertex": point}
    else:
        e = rng.choice(gd["edges"])
        off = Fraction(e["len"]) * Fraction(rng.randint(1, 9), 10)
        point = f"{e['id']}:{off}"
        pole = {"edge": e["id"], "offset": str(off)}
    call = Call(["green", "--graph", gpath, "--point", point], 0,
                lambda out: checks.green(out, gd, pole))
    return Op(_digest("green", gbytes, point), [call])


# -- kinked-pipeline ---------------------------------------------------------

KINKED_VERTICES = 20
KINKED_EDGES = 30
KINKED_POLES = 12
REG_TERMS = 6
REG_SAMPLES = 4


def random_graph_dict(rng: random.Random, n: int, m: int) -> dict:
    """Connected simple graph: random spanning tree plus extra edges up to
    m, boundary of max(2, n // 5) vertices."""
    names = [f"v{i}" for i in range(n)]
    pairs = []
    for i in range(1, n):
        pairs.append((rng.randrange(i), i))
    used = set(pairs)
    while len(pairs) < m:
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in used:
            used.add((a, b))
            pairs.append((a, b))
    edges = [{"u": names[a], "v": names[b], "len": str(_length(rng)),
              "id": f"e{i}"} for i, (a, b) in enumerate(pairs)]
    boundary = sorted(rng.sample(names, max(2, n // 5)))
    return {"vertices": names, "edges": edges, "boundary": boundary}


def _interior_connected(gd: dict) -> bool:
    """Whether the interior stays connected once the boundary is removed;
    then every Green's function is strictly positive inside."""
    boundary = set(gd["boundary"])
    interior = [v for v in gd["vertices"] if v not in boundary]
    adj = {v: [] for v in interior}
    for e in gd["edges"]:
        if e["u"] in adj and e["v"] in adj:
            adj[e["u"]].append(e["v"])
            adj[e["v"]].append(e["u"])
    seen, stack = {interior[0]}, [interior[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(interior)


def _decimal(x: Fraction, digits: int = DECIMAL_DIGITS) -> str:
    scaled = round(abs(x) * 10 ** digits)
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{'-' if x < 0 else ''}{whole}.{frac:0{digits}d}"


def _rationalize_pair(rng: random.Random, g: MetricGraph):
    """Criterion-8 instance: G = Green at p1 (strictly positive inside),
    f = Green at p2 scaled so that f(p1) >= 10 * tol * |ddc f|(Y); the
    pairing is then -f(p1) < 0 with the margin the snap needs.  The
    interior must be connected, so that both are positive inside."""
    interior = [v for v in g.vertices if v not in g.boundary]
    p1, p2 = rng.sample(interior, 2)
    g_exact = green(g, Vertex(p1)).result
    f = green(g, Vertex(p2)).result
    need = 10 * RATIONALIZE_TOL * f.ddc().total_variation()
    f = linear_combine([(need / f.vertex_value(p1) + 1, f)])
    noise = {v: Fraction(0) if v in g.boundary
             else Fraction(rng.randint(-9, 9), 10 ** 7) for v in g.vertices}
    approx = {}
    for e in g.edges:
        # Green's function at a vertex pole is affine on every edge
        (o0, v0), (o1, v1) = g_exact.profiles[e.id]
        approx[e.id] = [[str(o0), _decimal(v0 + noise[e.u])],
                        [str(o1), _decimal(v1 + noise[e.v])]]
    return f, {"graph": g.to_json_dict(), "profiles": approx}


def kinked_function(rng: random.Random, g: MetricGraph) -> tuple[dict, list]:
    """h - sum_i c_i G_{p_i}: the harmonic extension of random boundary
    data minus Green's functions at KINKED_POLES edge-interior poles (one
    per edge), so its Laplacian is +c_i at p_i and 0 at interior vertices.

    On the edge of a pole p = (u, v, offset t, length L) the function is
    the chord minus c times the tent of height t(L - t)/L at p, whose
    outgoing slopes (L - t)/L at u and t/L at v enter Kirchhoff's law as
    sources; one exact solve then gives every vertex value.
    Returns the profiles and the edges left without a pole."""
    interior = [v for v in g.vertices if v not in g.boundary]
    index = {v: i for i, v in enumerate(interior)}
    values = {b: _value(rng) for b in sorted(g.boundary)}
    edges = rng.sample(list(g.edges), KINKED_POLES)
    poles = {e.id: (e.length * Fraction(rng.randint(1, 7), 8),
                    Fraction(rng.randint(1, 8), rng.randint(1, 4)))
             for e in edges}
    a = [[Fraction(0)] * len(interior) for _ in interior]
    rhs = [Fraction(0)] * len(interior)
    for e in g.edges:
        t, c = poles.get(e.id, (0, 0))
        for x, y, tent_slope in ((e.u, e.v, (e.length - t) / e.length),
                                 (e.v, e.u, t / e.length)):
            if x not in index:
                continue
            i = index[x]
            a[i][i] += 1 / e.length
            if y in index:
                a[i][index[y]] -= 1 / e.length
            else:
                rhs[i] += values[y] / e.length
            rhs[i] -= c * tent_slope
    values.update(zip(interior, solve_exact(a, rhs)))
    profiles = {}
    for e in g.edges:
        fu, fv = values[e.u], values[e.v]
        prof = [(Fraction(0), fu), (e.length, fv)]
        if e.id in poles:
            t, c = poles[e.id]
            chord = fu + (fv - fu) * t / e.length
            prof.insert(1, (t, chord - c * t * (e.length - t) / e.length))
        profiles[e.id] = prof
    return profiles, [e for e in g.edges if e.id not in poles]


def _profiles_json(profiles: dict) -> dict:
    return {eid: [[str(o), str(v)] for o, v in prof]
            for eid, prof in profiles.items()}


def kinked_op(rng: random.Random, index: int, workdir: str) -> Op:
    """One instance, four CLI calls: subharmonic (exit 0), subharmonic on
    a spoiled copy (exit 1), regularize, rationalize."""
    while True:
        gd = random_graph_dict(rng, KINKED_VERTICES, KINKED_EDGES)
        if _interior_connected(gd):
            break
    g = MetricGraph.from_json_dict(gd)
    f_rat, approx = _rationalize_pair(rng, g)
    profiles, flat_edges = kinked_function(rng, g)
    # spoil: a tent of height c L / 4 at the midpoint q of an edge where f
    # is affine puts mass -c at q (and +c/2 at the edge's ends), so q is
    # the only interior witness
    e = rng.choice(flat_edges)
    c = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    (_, fu), (_, fv) = profiles[e.id]
    bad = dict(profiles)
    bad[e.id] = [(Fraction(0), fu),
                 (e.length / 2, (fu + fv) / 2 + c * e.length / 4),
                 (e.length, fv)]
    witness = {"at": {"edge": e.id, "offset": str(e.length / 2)},
               "mass": str(-c)}

    paths = {name: os.path.join(workdir, f"{name}{index}.json")
             for name in ("f", "fbad", "frat", "gapx", "patches")}
    f_bytes = _write_json(paths["f"], {"graph": gd,
                                       "profiles": _profiles_json(profiles)})
    _write_json(paths["fbad"], {"graph": gd, "profiles": _profiles_json(bad)})
    frat_json = f_rat.to_json_dict()
    _write_json(paths["frat"], frat_json)
    _write_json(paths["gapx"], approx)
    calls = [
        Call(["subharmonic", paths["f"], "--method", "both"], 0,
             lambda out: checks.subharmonic(out, None)),
        Call(["subharmonic", paths["fbad"], "--method", "both"], 1,
             lambda out: checks.subharmonic(out, witness)),
        Call(["regularize", paths["f"], "--k", str(REG_TERMS),
              "--samples", str(REG_SAMPLES), "--patches", paths["patches"]],
             0, lambda out: checks.regularize(out, paths["patches"],
                                              REG_TERMS, REG_SAMPLES)),
        Call(["rationalize", "--f", paths["frat"], "--g", paths["gapx"],
              "--tol", str(RATIONALIZE_TOL)], 0,
             lambda out: checks.certificate(out, frat_json,
                                            RATIONALIZE_TOL)),
    ]
    return Op(_digest("kinked", f_bytes), calls)


# -- superform-identities ----------------------------------------------------

SUPERFORM_R = 3


def _poly_terms(rng: random.Random, r: int) -> dict:
    return {tuple(rng.randint(0, 2) for _ in range(r)):
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))}


def _form_spec(rng: random.Random, r: int) -> tuple:
    """(p, q, {(I, J): poly terms}) as in acceptance criterion 10."""
    p, q = rng.randint(0, r), rng.randint(0, r)
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        key = (rng.choice(list(combinations(range(r), p))),
               rng.choice(list(combinations(range(r), q))))
        coeffs[key] = _poly_terms(rng, r)
    return p, q, coeffs


@dataclass
class SuperformInput:
    a: Any                # SuperForm
    b: Any                # SuperForm
    fmap: Any             # AffineMap R^r -> R^r
    psi: Any              # Poly: square of a random quadratic
    psi_terms: dict       # the same polynomial, expanded by the generator
    points: list          # {-1, 0, 1}^r


def _square_terms(terms: dict) -> dict:
    out: dict = {}
    for e1, c1 in terms.items():
        for e2, c2 in terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def superform_op(rng: random.Random, index: int, workdir: str) -> Op:
    r = SUPERFORM_R
    specs = [_form_spec(rng, r) for _ in range(2)]
    a, b = (sf.SuperForm(r, p, q, {k: sf.Poly(r, t) for k, t in c.items()})
            for p, q, c in specs)
    matrix = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
    shift = [rng.randint(-3, 3) for _ in range(r)]
    fmap = sf.AffineMap.of(matrix, shift)
    quad = {}
    for i in range(r):
        for j in range(i, r):
            e = tuple((t == i) + (t == j) for t in range(r))
            quad[e] = Fraction(rng.randint(-3, 3))
    quad = {e: c for e, c in quad.items() if c} or {(2,) + (0,) * (r - 1):
                                                    Fraction(1)}
    psi_terms = _square_terms(quad)
    points = [list(pt) for pt in product(map(Fraction, (-1, 0, 1)), repeat=r)]
    payload = SuperformInput(a, b, fmap, sf.Poly(r, psi_terms), psi_terms,
                             points)
    canon = repr((sorted((p, q, sorted((k, sorted(t.items()))
                                       for k, t in c.items()))
                         for p, q, c in specs),
                  matrix, shift, sorted(quad.items())))
    return Op(_digest("superform", canon), payload=payload)


# -- pools -------------------------------------------------------------------

# Inputs per run: about twice what the current code consumes in one run,
# so no input ever repeats.  A run that uses up its pool stops early.
POOL = {"grid-solve": 300, "kinked-pipeline": 200,
        "superform-identities": 1500}
BUILDERS = {"grid-solve": grid_op, "kinked-pipeline": kinked_op,
            "superform-identities": superform_op}


def build_chunk(workload: str, seed: int, chunk: int, n_chunks: int,
                workdir: str) -> list[Op]:
    """Ops chunk, chunk + n_chunks, ... of the run's pool, drawn from
    their own seeded stream so chunks can be built and timed apart."""
    rng = random.Random(f"perfbench:{workload}:{seed}:{chunk}")
    build = BUILDERS[workload]
    return [build(rng, i, workdir)
            for i in range(chunk, POOL[workload], n_chunks)]


def check_distinct(ops: list[Op]) -> None:
    seen = {}
    for i, op in enumerate(ops):
        if op.digest in seen:
            raise DuplicateInputError(
                f"ops {seen[op.digest]} and {i} share input digest "
                f"{op.digest[:16]}")
        seen[op.digest] = i
