"""Command-line interface.

Subcommands: ddc, green, harmonic, subharmonic, regularize, rationalize,
superform, selftest.  All results go to stdout; diagnostics and timings
go to stderr.  Exit codes: 0 success / true verdict, 1 negative verdict,
2 malformed input, 3 stdout closed before all output was written or an
unexpected internal error.

SUBCOMMANDS holds each subcommand's handler, help and arguments.  main
parses with one parser, built from it at the first call and kept for the
process, and looks the handler up in SUBCOMMANDS at each call.

The library owns the file formats: its readers refuse a malformed graph
or function with a typed error naming the key at fault, and _load only
puts the file path in front.  main's exit-2 clause is the one place
that maps the library's typed errors to exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import random
import re
import sys
import time
from fractions import Fraction
from functools import cache, partial
from json.encoder import encode_basestring_ascii as _ascii

from .graph import EdgePoint, GraphError, MetricGraph, Vertex, point_to_json
from .pa_function import PAFunction
from .potential import (NotSubharmonicError, dirichlet_solve, green,
                        is_subharmonic_green, require_boundary_keys)
from .rational import RationalParseError, format_rational, parse_once
from .rationalize import RationalizationError, rationalize
from .regularize import build_regularization
from . import superforms as sf


class InputError(ValueError):
    pass


def _load(path: str, reader):
    """reader(the JSON in the file at path); the path goes in front of
    any ValueError the file or the reader raises."""
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                # an integer literal is parsed, and refused, at its place
                d = json.load(fh, parse_int=str.encode)
            except RecursionError as exc:
                raise InputError("JSON nested too deeply") from exc
        return reader(d)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_point(text: str, g: MetricGraph):
    """"v3" for a vertex, "e0:1/2" for an edge point.  A vertex id of g
    names that vertex, ":" and all; any other text with a ":" is split
    at its last one, since an offset never contains one."""
    if ":" not in text or g.contains_point(Vertex(text)):
        return Vertex(text)
    eid, _, off = text.rpartition(":")
    return EdgePoint(eid, parse_once(off, {}, "--point"))


def _json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for
    dicts with str keys, lists, tuples, str, bool, None, int and float,
    with a PAFunction f (the function node) written as f.to_json_dict():
    harmonic prints one, and green and rationalize put one where its
    dict goes.  TypeError for any other type or key (the string encoder
    refuses a key that is not a str).  With indent, json.dumps runs its
    pure-Python encoder; this appends every piece of the text to one
    list, with the C string encoder, and joins the list once."""
    out = []
    _write_json(obj, "\n", out.append)
    return "".join(out)


def _write_json(obj, indent: str, write) -> None:
    """Write the pieces of obj's text in _json, at the given indent; a
    PAFunction is written by _write_function, without its dict."""
    if isinstance(obj, dict):
        items, ends = sorted(obj.items()), "{}"
    elif isinstance(obj, (list, tuple)):
        items, ends = obj, "[]"
    elif isinstance(obj, PAFunction):
        return _write_function(obj, indent, write)
    else:   # a str or a scalar; json.dumps refuses any other type
        write(_ascii(obj) if isinstance(obj, str) else json.dumps(obj))
        return
    if not items:
        write(ends)
        return
    inner, keyed = indent + "  ", ends == "{}"
    sep, comma = ends[0] + inner, "," + inner
    for v in items:
        write(sep)
        if keyed:           # a (key, value) item of a dict
            k, v = v
            write(_ascii(k))
            write(": ")
        if isinstance(v, str):
            write(_ascii(v))
        else:
            _write_json(v, inner, write)
        sep = comma
    write(indent + ends[1])


def _items(texts: list, indent: str, ends: str = "[]") -> str:
    """The list (the object, with ends "{}") of the texts at indent."""
    inner = indent + "  "
    return (ends[0] + inner + ("," + inner).join(texts) + indent + ends[1]
            if texts else ends)


def _write_function(f: PAFunction, indent: str, write) -> None:
    """Write f.to_json_dict()'s text in one pass over f's graph and
    profiles, one f-string per edge and per [offset, value] pair, each
    value object formatted once, its text kept by id (a solve shares one
    object among many edge ends); a rational's text needs no escape, so
    it is quoted as it is."""
    g = f.graph
    i1, i2, i3, i4 = (indent + "  " * k for k in range(1, 5))
    text = {}

    def fmt(x):     # the text of a value object not met before
        return text.setdefault(id(x), format_rational(x))
    edges, profiles = [], []
    for e in g.edges:           # in id order, as sort_keys puts profiles
        edges.append(f'{{{i4}"id": {_ascii(e.id)},{i4}"len": '
                     f'"{text.get(id(e.length)) or fmt(e.length)}",'
                     f'{i4}"u": {_ascii(e.u)},{i4}"v": {_ascii(e.v)}{i3}}}')
        pairs = [f'[{i4}"{text.get(id(o)) or fmt(o)}",'
                 f'{i4}"{text.get(id(v)) or fmt(v)}"{i3}]'
                 for o, v in f.profiles[e.id]]
        profiles.append(f"{_ascii(e.id)}: {_items(pairs, i2)}")
    write(f'{{{i1}"graph": {{'
          f'{i2}"boundary": {_items([*map(_ascii, sorted(g.boundary))], i2)},'
          f'{i2}"edges": {_items(edges, i2)},'
          f'{i2}"vertices": {_items([*map(_ascii, g.vertices)], i2)}{i1}}},'
          f'{i1}"profiles": {_items(profiles, i1, "{}")}{indent}}}')


def _emit(obj) -> None:
    sys.stdout.write(_json(obj) + "\n")


# -- subcommands ----------------------------------------------------------------


def cmd_ddc(args) -> int:
    f = _load(args.file, PAFunction.from_json_dict)
    _emit(f.ddc().to_json_list())
    return 0


def cmd_green(args) -> int:
    g = _load(args.graph, MetricGraph.from_json_dict)
    gf = green(g, _parse_point(args.point, g))
    _emit({"pole": point_to_json(gf.pole), "function": gf.result,
           "boundary_masses": gf.boundary_masses.to_json_list()})
    return 0


def cmd_harmonic(args) -> int:
    g = _load(args.graph, MetricGraph.from_json_dict)

    def read_values(raw) -> dict:
        if not isinstance(raw, dict):
            raise InputError("the top level must be a JSON object")
        # every key is checked before any literal is parsed
        require_boundary_keys(g, raw.keys())
        return {k: parse_once(v, {}, "values.{}", k) for k, v in raw.items()}
    # after both loads, so a fault of the graph is not blamed on the values
    _emit(dirichlet_solve(g, _load(args.values, read_values)))
    return 0


def cmd_subharmonic(args) -> int:
    f = _load(args.file, PAFunction.from_json_dict)
    out = {"method": args.method}
    verdicts = []
    if args.method in ("slope", "both"):
        v = f.is_subharmonic_slope()
        out["slope"] = {"subharmonic": v.ok,
                        "witnesses": v.witnesses_to_json()}
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


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as a field, with the CSV's terminator."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]      # less the "," and the "\n"


def cmd_regularize(args) -> int:
    f = _load(args.file, PAFunction.from_json_dict)
    seq = build_regularization(f, n_terms=args.k)
    try:
        patches = (open(args.patches, "w") if args.patches
                   else contextlib.nullcontext())
    except OSError as exc:
        raise InputError(f"cannot write {args.patches}: {exc}") from exc
    with patches as fh:
        # per sample, the "edge,offset,f_k,f,f_k - f" end of every term's
        # line: f is rounded once, f_k only where it is not f, each as
        # numerator / denominator (int division rounds correctly, so it
        # is float(Fraction(n, d)))
        ids = {e.id: _csv_field(e.id) for e in seq.base.graph.edges}
        table = []
        for eid, off, fp, fks in seq.sample(args.samples):
            rv = repr(fv := fp[0] / fp[1])
            head = f"{ids[eid]},{format_rational(off)},"
            same = f"{head}{rv},{rv},0.0\n"
            table.append([same if fk is fp else
                          f"{head}{(v := fk[0] / fk[1])!r},"
                          f"{rv},{v - fv!r}\n" for fk in fks])
        # k-major: term k's lines are the k-th column of the table
        sys.stdout.write("k,edge,offset,f_k,f,f_k_minus_f\n" + "".join(
            f"{k}," + f"{k},".join(column)
            for k, column in enumerate(zip(*table))))
        if fh is not None:
            dump = {
                "epsilons": ([format_rational(t.eps) for t in seq.terms]
                             if seq.patches else []),
                "patches": [{
                    "center": p.center,
                    "mass": format_rational(p.mass),
                    "cone_arcs": {eid: [format_rational(a), format_rational(b)]
                                  for eid, (a, b) in p.cone.items()},
                    "arc_eps": {eid: format_rational(v)
                                for eid, v in p.arc_eps.items()},
                } for p in seq.patches],
            }
            fh.write(_json(dump) + "\n")
    return 0


def cmd_rationalize(args) -> int:
    f = _load(args.f, PAFunction.from_json_dict)
    g_in = _load(args.g, PAFunction.from_json_dict)
    cert = rationalize(f, g_in, parse_once(args.tol, {}, "--tol"))
    _emit({"ok": cert.ok, "pairing": format_rational(cert.pairing),
           "pairing_input": format_rational(cert.pairing_input),
           "checks": cert.checks, "output": cert.output})
    return 0 if cert.ok else 1


def _infer_dim(*texts: str) -> int:
    r = 0
    for text in texts:
        for m in re.finditer(r"x(\d+)", text):
            if len(m.group(1)) <= sf.MAX_DIGITS:  # longer runs: parse error
                r = max(r, int(m.group(1)))
    return max(r, 1)


def _parse_form(text: str, r: int) -> sf.SuperForm:
    try:
        return sf.parse_form(text, r)
    except (sf.FormParseError, sf.BidegreeError) as exc:
        raise InputError(f"{text!r}: {exc}") from exc


# --op name -> operation on the one form; wedge and positivity need more
UNARY_OPS = {"dprime": sf.d_prime, "dsecond": sf.d_second,
             "J": sf.j_involution}


def cmd_superform(args) -> int:
    r = _infer_dim(args.expr, args.second or "") if args.r is None else args.r
    if r > sf.MAX_DIM:
        raise InputError(f"dimension {r} is above the maximum {sf.MAX_DIM}")
    alpha = _parse_form(args.expr, r)
    if args.op in UNARY_OPS:
        out = UNARY_OPS[args.op](alpha)
    elif args.op == "wedge":
        if not args.second:
            raise InputError("wedge needs a second form (--with)")
        beta = _parse_form(args.second, r)
        # the coefficient products wedge expands: bounded as the parser
        # bounds its own
        try:
            for (i1, j1), p in alpha.coeffs.items():
                for (i2, j2), q in beta.coeffs.items():
                    if set(i1).isdisjoint(i2) and set(j1).isdisjoint(j2):
                        sf.check_product(p, q)
        except sf.FormParseError as exc:
            raise InputError(f"wedge: {exc}") from exc
        out = sf.wedge(alpha, beta)
    else:  # positivity
        if (alpha.p, alpha.q) == (0, 0):
            alpha = sf.hessian_form(alpha.coeffs.get(((), ()),
                                                     sf.Poly(r, {})))
        if (alpha.p, alpha.q) != (1, 1):
            raise InputError("positivity needs a (1,1)-form or a function")
        points = [tuple(pt) for pt in _positivity_points(args.points, r)]
        # each distinct point is tested once; a violation is printed at
        # each of its places in the list
        verdict = sf.is_positive_11(alpha, dict.fromkeys(points))
        print("positive" if verdict.ok else "not positive")
        bad = set(verdict.violations)
        for pt in points:
            if pt in bad:
                print("violation at (" +
                      ", ".join(format_rational(x) for x in pt) + ")")
        return 0 if verdict.ok else 1
    try:
        text = sf.format_form(out)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise                   # not str() refusing a long integer
        raise InputError(
            f"the result has a coefficient of more than "
            f"{sys.get_int_max_str_digits()} digits, the printing limit"
        ) from exc
    print(text)
    return 0


def _positivity_points(spec_text: str | None, r: int):
    if spec_text:
        pts = []
        for chunk in spec_text.split(";"):
            coords = [parse_once(c, {}, "--points") for c in chunk.split(",")]
            if len(coords) != r:
                raise InputError(f"point {chunk!r} has wrong dimension")
            pts.append(coords)
        return pts
    # the origin, then each coordinate and each pair of coordinates set to
    # every value in {-1, 0, 1}, the others 0: a zero value repeats a point
    vals = (Fraction(-1), Fraction(0), Fraction(1))
    return [[dict(zip(axes, vs)).get(i, Fraction(0)) for i in range(r)]
            for n in range(3) for axes in itertools.combinations(range(r), n)
            for vs in itertools.product(vals, repeat=n)]


# -- selftest -------------------------------------------------------------------


def cmd_selftest(args) -> int:
    # imported here so that `import skelpot.cli` does not pay for it
    from . import checks
    env = os.environ.get("SKELPOT_SEED")
    try:
        seed = args.seed if env is None else int(env)
    except ValueError as exc:
        raise InputError(f"SKELPOT_SEED={env!r} is not an integer") from exc
    digest = hashlib.sha256(f"skelpot-selftest-{seed}".encode()).hexdigest()
    rng = random.Random(seed)
    suite = [
        ("green_exact_values", "3 cases", checks.green_exact_values),
        ("poisson_formula", "10 graphs", partial(checks.poisson_formula, rng,
         graphs=10, max_vertices=8, max_edges=12)),
        ("subharmonicity_oracles", "30 functions",
         partial(checks.oracle_equivalence, rng, functions=30,
                 max_vertices=8, max_edges=12)),
        ("maximum_principle", "10 functions", partial(checks.maximum_principle,
         rng, functions=10, max_vertices=8, max_edges=18)),
        ("smooth_max_axioms", "700 tuples",
         partial(checks.smooth_max_axioms, rng, pairs=500, tuples=200)),
        ("monotone_regularization", "5 functions",
         partial(checks.monotone_regularization, rng, functions=5,
                 max_vertices=6, max_edges=8, n_terms=4, per_edge=8)),
        ("rationalization", "5 inputs", partial(checks.rationalization, rng,
         inputs=5, max_vertices=6, max_edges=8)),
        ("tent_decomposition", "20 stars",
         partial(checks.tent_decomposition, rng, stars=20)),
        ("superform_identities", "100 forms + positivity",
         partial(checks.superform_identities, rng, forms=100, hessians=100)),
    ]
    print("skelpot selftest report")
    print(f"command: selftest --seed {seed}")
    print(f"inputs digest: {digest[:16]}")
    passed = 0
    for name, detail, check in suite:
        t0 = time.perf_counter()
        try:
            check()
            ok = True
        except checks.CheckFailed as exc:
            ok, detail = False, str(exc)
        dt = time.perf_counter() - t0
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})")
        print(f"  {name}: {dt:.3f}s", file=sys.stderr)
        passed += ok
    print(f"result: {'PASS' if passed == len(suite) else 'FAIL'} "
          f"({passed}/{len(suite)})")
    return 0 if passed == len(suite) else 1


# -- entry point ----------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return n


# name -> (handler, help, [(argument, add_argument keywords), ...])
SUBCOMMANDS = {
    "ddc": (cmd_ddc, "Laplacian measure of a PA function", [
        ("file", dict(help="PA function JSON"))]),
    "green": (cmd_green, "Green's function for a pole", [
        ("--graph", dict(required=True, help="graph JSON")),
        ("--point", dict(required=True,
                         help='pole: vertex id or "edge:offset"'))]),
    "harmonic": (cmd_harmonic, "harmonic extension of boundary data", [
        ("--graph", dict(required=True, help="graph JSON")),
        ("--values", dict(required=True,
                          help="JSON object: boundary vertex -> rational"))]),
    "subharmonic": (cmd_subharmonic, "test subharmonicity", [
        ("file", dict(help="PA function JSON")),
        ("--method", dict(choices=["slope", "green", "both"],
                          default="both"))]),
    "regularize": (cmd_regularize,
                   "monotone smooth approximation, CSV samples", [
        ("file", dict(help="subharmonic PA function JSON")),
        ("--k", dict(type=_positive_int, default=10, help="number of terms")),
        ("--samples", dict(type=_positive_int, default=32,
                           help="sample points per edge")),
        ("--patches", dict(help="write patch/epsilon JSON to this file"))]),
    "rationalize": (cmd_rationalize,
                    "snap a decimal function to rationals "
                    "with an exact pairing certificate", [
        ("--f", dict(required=True, help="exact PA function JSON")),
        ("--g", dict(required=True, help="approximate function JSON")),
        ("--tol", dict(default="1/1000", help="snapping tolerance"))]),
    "superform": (cmd_superform, "superform algebra operations", [
        ("expr", dict(help="form expression, e.g. "
                           "\"(2*x1^2 + x2) d'x1 ^ d''x2\"; put one that "
                           "starts with a minus sign after --, as in "
                           "--op dprime -- -x1^2")),
        ("--op", dict(required=True, choices=["dprime", "dsecond", "wedge",
                                              "J", "positivity"])),
        ("--with", dict(dest="second", help="second form (wedge)")),
        ("--r", dict(type=_positive_int,
                     help="ambient dimension (default: infer)")),
        ("--points", dict(help='positivity sample points "1,0;0,1/2"; '
                               'write --points=-1/2,0;1,0 for a list '
                               'that starts with a minus sign'))]),
    "selftest": (cmd_selftest, "deterministic seeded self-check", [
        ("--seed", dict(type=int, default=0,
                        help="RNG seed (env SKELPOT_SEED overrides)"))]),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every subcommand, built at the first call;
    it holds no handler, so main reads each from SUBCOMMANDS."""
    ap = argparse.ArgumentParser(
        prog="skelpot",
        description="Potential theory on metric graphs: exact Laplacians, "
                    "Green's functions, regularization, and superforms.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, kw in arguments:
            p.add_argument(arg, **kw)
    return ap


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return SUBCOMMANDS[args.command][0](args)
        finally:
            sys.stdout.flush()      # a closed reader shows up here at the latest
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush cannot fail again, and report neither
        # a verdict nor malformed input.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 3
    except (InputError, GraphError, NotSubharmonicError, RationalParseError,
            RationalizationError, sf.BidegreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, not a verdict: one line and "could not finish", where a
        # traceback would exit 1 and read as a negative verdict
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
