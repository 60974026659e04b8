import collections
import contextlib
import copy
import csv
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skelpot import (Edge, EdgePoint, GraphError, MetricGraph, PAFunction,
                     dirichlet_solve, green, green_to_json_dict,
                     rationalize)
from skelpot.cli import SUBCOMMANDS, UNARY_OPS, _json, build_parser, main
from skelpot.randgen import random_graph, random_pa_function
from skelpot.rational import (RationalParseError, format_rational,
                              parse_rational)

from conftest import kinked_subharmonic, subprocess_env

DATA = pathlib.Path(__file__).parent / "data"

UNIT_EDGE = {
    "vertices": ["a", "b"],
    "edges": [{"id": "e", "u": "a", "v": "b", "len": "1"}],
    "boundary": ["a", "b"],
}

PATH3 = {
    "vertices": ["a", "b", "c"],
    "edges": [{"id": "e0", "u": "a", "v": "b", "len": "1"},
              {"id": "e1", "u": "b", "v": "c", "len": "1"}],
    "boundary": ["a", "c"],
}


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def affine_function(tmp_path, name="f.json"):
    return write_json(tmp_path, name, {
        "graph": UNIT_EDGE,
        "profiles": {"e": [["0", "0"], ["1", "1"]]},
    })


def tent_function(tmp_path, sign="1", name="tent.json"):
    return write_json(tmp_path, name, {
        "graph": UNIT_EDGE,
        "profiles": {"e": [["0", "0"], ["1/2", sign], ["1", "0"]]},
    })


# ---------------------------------------------------------------------------
# ddc
# ---------------------------------------------------------------------------

def test_ddc_affine_edge(tmp_path, capsys):
    rc = main(["ddc", affine_function(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    masses = {json.dumps(e["at"], sort_keys=True): e["mass"]
              for e in json.loads(out)}
    assert masses == {'{"vertex": "a"}': "1", '{"vertex": "b"}': "-1"}


def test_ddc_output_reparses_as_measure(tmp_path, capsys):
    main(["ddc", tent_function(tmp_path)])
    out = capsys.readouterr().out
    masses = [parse_rational(e["mass"]) for e in json.loads(out)]
    assert sum(masses) == 0
    assert sum(map(abs, masses)) == 8


# ---------------------------------------------------------------------------
# green / harmonic
# ---------------------------------------------------------------------------

def test_green_vertex_pole(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", PATH3)
    rc = main(["green", "--graph", g, "--point", "b"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["pole"] == {"vertex": "b"}
    from skelpot import PAFunction
    gf = PAFunction.from_json_dict(out["function"])
    assert gf.vertex_value("b") == 0.5
    masses = {json.dumps(e["at"], sort_keys=True): e["mass"]
              for e in out["boundary_masses"]}
    assert masses == {'{"vertex": "a"}': "1/2", '{"vertex": "c"}': "1/2"}


def test_green_edge_point_pole(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", UNIT_EDGE)
    rc = main(["green", "--graph", g, "--point", "e:1/4"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    from fractions import Fraction
    from skelpot import EdgePoint, PAFunction
    gf = PAFunction.from_json_dict(out["function"])
    assert gf.eval(EdgePoint("e", Fraction(1, 4))) == Fraction(3, 16)


def test_green_boundary_pole_is_input_error(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", PATH3)
    rc = main(["green", "--graph", g, "--point", "a"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_green_off_graph_pole_names_point_json(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", PATH3)
    rc = main(["green", "--graph", g, "--point", "e0:5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ('error: point {"edge": "e0", "offset": "5"} '
                            'is not on the graph\n')


COLON_IDS = {
    "vertices": ["a", "b", "w:1"],
    "edges": [{"id": "e:1", "u": "a", "v": "w:1", "len": "1"},
              {"id": "f", "u": "w:1", "v": "b", "len": "1"}],
    "boundary": ["a", "b"],
}


@pytest.mark.parametrize("point, pole", [
    ("w:1", {"vertex": "w:1"}),
    ("e:1:1/2", {"edge": "e:1", "offset": "1/2"}),
])
def test_green_pole_on_an_id_with_a_colon(tmp_path, capsys, point, pole):
    """A --point that is a vertex id names that vertex, a ":" in it and
    all; any other text is split at its last ":", as an offset has none."""
    g = write_json(tmp_path, "g.json", COLON_IDS)
    rc = main(["green", "--graph", g, "--point", point])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert json.loads(captured.out)["pole"] == pole


def _seeded_grid(rng, k):
    """A k x k grid with random rational lengths, boundary the first row
    and the first column."""
    def length():
        den = rng.randint(1, 10)
        return str(Fraction(rng.randint(1, 4 * den), den))
    names = [f"r{i}c{j}" for i in range(k) for j in range(k)]
    pairs = [(f"r{i}c{j}", f"r{i + 1}c{j}") for i in range(k - 1)
             for j in range(k)]
    pairs += [(f"r{i}c{j}", f"r{i}c{j + 1}") for i in range(k)
              for j in range(k - 1)]
    edges = [{"id": f"e{n}", "u": u, "v": v, "len": length()}
             for n, (u, v) in enumerate(pairs)]
    boundary = sorted({f"r0c{j}" for j in range(k)}
                      | {f"r{i}c0" for i in range(k)})
    return {"vertices": names, "edges": edges, "boundary": boundary}


def test_harmonic_formats_each_value_object_once(tmp_path, capsys,
                                                 monkeypatch):
    """On a seeded 10x10 grid, harmonic formats at most one text per
    vertex value, per edge length and for the one zero offset: V + E + 1
    format_rational calls, where formatting every breakpoint and every
    length makes 900."""
    rng = random.Random(31)
    grid = _seeded_grid(rng, 10)
    values = {b: str(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
              for b in grid["boundary"]}
    calls = []
    original = format_rational

    def counted(x):
        calls.append(x)
        return original(x)
    for name, module in list(sys.modules.items()):
        if name.startswith("skelpot") and \
                getattr(module, "format_rational", None) is original:
            monkeypatch.setattr(module, "format_rational", counted)
    rc = main(["harmonic", "--graph", write_json(tmp_path, "g.json", grid),
               "--values", write_json(tmp_path, "v.json", values)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert (len(grid["vertices"]), len(grid["edges"])) == (100, 180)
    assert len(calls) <= 100 + 180 + 1
    assert len(out["profiles"]) == 180


@pytest.mark.parametrize("doc, taken", [
    ({"vertices": ["a", "b", "c"],
      "edges": [{"id": "e0", "u": "a", "v": "b", "len": "3"},
                {"id": "e0.l", "u": "b", "v": "c", "len": "1"}],
      "boundary": ["a", "b"]}, "e0.l"),
    ({"vertices": ["a", "e0@1"],
      "edges": [{"id": "e0", "u": "a", "v": "e0@1", "len": "3"}],
      "boundary": ["a", "e0@1"]}, "e0@1"),
], ids=["edge-id", "vertex-id"])
def test_green_edge_pole_ignores_subdivision_names(tmp_path, capsys, doc,
                                                    taken):
    """An edge pole on a graph that already has an id a subdivision at it
    would make gives the values it gives with that id renamed."""
    rc = main(["green", "--graph", write_json(tmp_path, "g.json", doc),
               "--point", "e0:1"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    out = json.loads(captured.out)
    renamed = json.loads(json.dumps(doc).replace(f'"{taken}"', '"x"'))
    assert main(["green", "--graph", write_json(tmp_path, "r.json", renamed),
                 "--point", "e0:1"]) == 0
    want = json.loads(capsys.readouterr().out.replace('"x"', f'"{taken}"'))
    assert out == want
    assert out["function"]["profiles"]["e0"][1] == ["1", "2/3"]


@pytest.mark.parametrize("name, argv", [
    ("harmonic", ["harmonic", "--graph", "graph.json",
                  "--values", "values.json"]),
    ("green_vertex", ["green", "--graph", "graph.json", "--point", "c"]),
    ("green_edge", ["green", "--graph", "graph.json", "--point", "e1:1/5"]),
    ("ddc", ["ddc", "function.json"]),
    ("green_edge_boundary", ["green", "--graph", "graph.json",
                             "--point", "e2:1/3"]),
    ("theta_ddc", ["ddc", "theta_function.json"]),
    ("theta_green_vertex", ["green", "--graph", "theta_graph.json",
                            "--point", "p"]),
    ("theta_green_edge", ["green", "--graph", "theta_graph.json",
                          "--point", "t1:2/3"]),
    ("theta_harmonic", ["harmonic", "--graph", "theta_graph.json",
                        "--values", "theta_values.json"]),
    ("dumbbell_ddc", ["ddc", "dumbbell_function.json"]),
    ("dumbbell_green_vertex", ["green", "--graph", "dumbbell_graph.json",
                               "--point", "q"]),
    ("dumbbell_green_loop", ["green", "--graph", "dumbbell_graph.json",
                             "--point", "a:1/2"]),
    ("dumbbell_harmonic", ["harmonic", "--graph", "dumbbell_graph.json",
                           "--values", "dumbbell_values.json"]),
    ("grid_green_vertex", ["green", "--graph", "grid_graph.json",
                           "--point", "r2c2"]),
    ("grid_green_edge", ["green", "--graph", "grid_graph.json",
                         "--point", "e38:1/2"]),
    ("grid_harmonic", ["harmonic", "--graph", "grid_graph.json",
                       "--values", "grid_values.json"]),
])
def test_json_output_matches_golden(capsys, name, argv):
    """The JSON output bytes on a fixed five-vertex graph, on two genus-2
    skeleta with a boundary leaf at each of their two vertices: a theta
    graph (three parallel edges t0, t1, t2 between p and q) and a
    dumbbell (loops a at p and b at q, joined by the bridge br), and on a
    seeded 4x4 grid whose grid edges are 2-edge chains, with length and
    value literals that repeat ("1/2" and "0.5" among them), as committed
    in tests/data/golden/<name>.out."""
    golden = DATA / "golden"
    rc = main([str(golden / a) if a.endswith(".json") else a for a in argv])
    assert rc == 0
    assert capsys.readouterr().out == (golden / f"{name}.out").read_text()


def test_rationalize_output_matches_golden(capsys):
    """The certificate for decimal data near Green's function at c, with
    one kink inside an edge, paired with Green's function at b: nested
    checks, per-edge slopes, an integer and booleans, as committed in
    tests/data/golden/rationalize.out, and the text of the library's
    RationalizationCertificate.to_json_dict."""
    golden = DATA / "golden"
    rc = main(["rationalize", "--f", str(golden / "rationalize_f.json"),
               "--g", str(golden / "rationalize_g.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (golden / "rationalize.out").read_text()
    f, g = (PAFunction.from_json_dict(json.loads((golden / name).read_text()))
            for name in ("rationalize_f.json", "rationalize_g.json"))
    cert = rationalize(f, g, Fraction(1, 1000))
    assert out == json.dumps(cert.to_json_dict(), indent=2,
                             sort_keys=True) + "\n"


@pytest.mark.parametrize("name, argv, code", [
    ("positivity_positive",
     ["superform", "x1^2 + x1*x2 + x2^2 + x3^4 + x3^2 + (x1 + x3)^4"], 0),
    ("positivity_violations",
     ["superform", "x1^3 + x1*x2 + x2^2 + x2*x3^2/2 + x3^2", "--points",
      "1,0,0;1/13,0,0;1/12,0,0;-1/2,1/3,2/9;5/3,1/2,-1/4;2,-7/3,1/7;"
      "3/10,-1,1;-3,-1,1/2;7/5,4,-2"], 1),
])
def test_positivity_output_matches_golden(capsys, name, argv, code):
    """The verdict and violation lines of `superform --op positivity` on
    a convex quartic at the default points, and on a cubic at rational
    points (1/12 makes a singular PSD matrix), as committed in
    tests/data/golden/<name>.out."""
    rc = main(argv + ["--op", "positivity"])
    assert rc == code
    assert capsys.readouterr().out == \
        (DATA / "golden" / f"{name}.out").read_text()


@pytest.mark.parametrize("name, argv", [
    ("superform_dprime",
     ["(x1^2/3 + x2/7) d''x1 + (x1*x2^3/5 - 2/11*x3) d''x2"
      " + (x3^2/13) d''x3", "--op", "dprime"]),
    ("superform_dprime_cancel",
     ["x2 d'x1 + x1 d'x2 + x3^2 d'x1", "--op", "dprime"]),
    ("superform_dprime_overflow",
     ["x1 d'x1 ^ d'x2 ^ d'x3", "--op", "dprime"]),
    ("superform_dsecond",
     ["(x1^2/3 + x2/7) d'x1 + (x1*x2^3/5 - 2/11*x3) d'x2"
      " + (x2*x3/9) d'x3", "--op", "dsecond"]),
    ("superform_dsecond_cancel",
     ["x2 d'x3 ^ d''x1 + x1 d'x3 ^ d''x2 + x1^2/999983 d'x1 ^ d''x2",
      "--op", "dsecond"]),
    ("superform_dsecond_overflow",
     ["x1 d''x1 ^ d''x2", "--op", "dsecond", "--r", "2"]),
    ("superform_J",
     ["(x1/2 - x3/3) d'x1 ^ d'x3 ^ d''x2 + (x2^2/5) d'x2 ^ d'x3 ^ d''x1",
      "--op", "J"]),
    ("superform_wedge",
     ["x1/3 d''x2 + x3 d''x1", "--op", "wedge",
      "--with", "(x2/5 + 1/7) d'x1 + x1 d'x3"]),
])
def test_superform_output_matches_golden(capsys, name, argv):
    """The printed form of d', d'', J and wedge: coefficients over
    coprime denominators, a key of d' (and of d'') whose contributions
    cancel, degree overflows, a (2,1)-form under J and a wedge of a
    (0,1)- by a (1,0)-form, whose blocks cross with the sign -1, as
    committed in tests/data/golden/<name>.out."""
    rc = main(["superform"] + argv)
    assert rc == 0
    assert capsys.readouterr().out == \
        (DATA / "golden" / f"{name}.out").read_text()


def test_positivity_default_grid_matches_golden(capsys):
    """The default sample points in order, repeats included: the Hessian
    of -|x|^2 is -2I, so every point of the grid on R^3 is a violation,
    as committed in tests/data/golden/positivity_default_grid.out."""
    rc = main(["superform", "--op", "positivity", "--",
               "-x1^2 - x2^2 - x3^2"])
    assert rc == 1
    assert capsys.readouterr().out == \
        (DATA / "golden" / "positivity_default_grid.out").read_text()


@pytest.mark.parametrize("name, file, code", [
    ("subharmonic_negative", "function.json", 1),
    ("subharmonic_positive", "subharmonic.json", 0),
    ("theta_subharmonic", "theta_function.json", 0),
    ("dumbbell_subharmonic", "dumbbell_function.json", 0),
])
def test_subharmonic_output_matches_golden(capsys, name, file, code):
    """Both oracles' verdicts and witnesses on a function with two
    concave kinks, and on subharmonic ones on a simple graph, the theta
    graph and the dumbbell, as committed in
    tests/data/golden/<name>.out."""
    rc = main(["subharmonic", str(DATA / "golden" / file),
               "--method", "both"])
    assert rc == code
    assert capsys.readouterr().out == \
        (DATA / "golden" / f"{name}.out").read_text()


def test_regularize_output_matches_golden(tmp_path, capsys):
    """The CSV and --patches bytes of regularize on a subharmonic function
    with peaks at two vertices and inside two edges, as committed in
    tests/data/golden/regularize.out and regularize_patches.out."""
    golden = DATA / "golden"
    patches = tmp_path / "patches.json"
    rc = main(["regularize", str(golden / "subharmonic.json"), "--k", "4",
               "--samples", "5", "--patches", str(patches)])
    assert rc == 0
    assert capsys.readouterr().out == (golden / "regularize.out").read_text()
    assert patches.read_text() == \
        (golden / "regularize_patches.out").read_text()


@pytest.mark.parametrize("skeleton", ["theta", "dumbbell"])
def test_regularize_multigraph_output_matches_golden(tmp_path, capsys,
                                                     skeleton):
    """The CSV and --patches bytes of regularize on subharmonic functions
    on the theta graph (peaks at p and q, where the parallel edges meet,
    and inside t1) and on the dumbbell (peaks at both loop vertices and
    inside both loops), as committed in
    tests/data/golden/<skeleton>_regularize.out and
    <skeleton>_regularize_patches.out."""
    golden = DATA / "golden"
    patches = tmp_path / "patches.json"
    rc = main(["regularize", str(golden / f"{skeleton}_function.json"),
               "--k", "3", "--samples", "3", "--patches", str(patches)])
    assert rc == 0
    assert capsys.readouterr().out == \
        (golden / f"{skeleton}_regularize.out").read_text()
    assert patches.read_text() == \
        (golden / f"{skeleton}_regularize_patches.out").read_text()
    centers = {p["center"] for p in json.loads(patches.read_text())["patches"]}
    assert {"p", "q"} <= centers


def _slope_sums(doc):
    """Outgoing slopes summed at each vertex and, keyed (edge, offset),
    at each interior breakpoint of a function JSON document, read off
    its profiles with fractions.Fraction alone."""
    sums = collections.defaultdict(Fraction)
    for e in doc["graph"]["edges"]:
        prof = [(Fraction(o), Fraction(v)) for o, v in doc["profiles"][e["id"]]]
        slopes = [(v2 - v1) / (o2 - o1)
                  for (o1, v1), (o2, v2) in zip(prof, prof[1:])]
        sums[e["u"]] += slopes[0]
        sums[e["v"]] -= slopes[-1]
        for (o, _), s1, s2 in zip(prof[1:], slopes, slopes[1:]):
            sums[e["id"], o] += s2 - s1
    return sums


@pytest.mark.parametrize("skeleton", ["theta", "dumbbell"])
def test_multigraph_harmonic_output_balances(skeleton):
    """Checked without the library: the golden harmonic output is affine
    on every edge and its outgoing slopes cancel at each interior
    vertex."""
    out = json.loads(
        (DATA / "golden" / f"{skeleton}_harmonic.out").read_text())
    sums = _slope_sums(out)
    assert set(sums) == set(out["graph"]["vertices"])
    assert {sums[v] for v in sums.keys() - set(out["graph"]["boundary"])} \
        == {0}


@pytest.mark.parametrize("name", ["theta_green_vertex", "theta_green_edge",
                                  "dumbbell_green_vertex",
                                  "dumbbell_green_loop"])
def test_multigraph_green_output_balances(name):
    """Checked without the library: each golden Green's function has mass
    -1 at its pole and none at the other interior points, and its
    boundary masses are its slope sums there and add up to 1."""
    out = json.loads((DATA / "golden" / f"{name}.out").read_text())
    pole = out["pole"]
    pole = pole.get("vertex") or (pole["edge"], Fraction(pole["offset"]))
    sums = _slope_sums(out["function"])
    assert sums.pop(pole) == -1
    masses = {m["at"]["vertex"]: Fraction(m["mass"])
              for m in out["boundary_masses"]}
    assert sum(masses.values()) == 1
    assert {x: sums.pop(x) for x in masses} == masses
    assert set(sums.values()) == {0}


def test_regularize_peak_free_output_matches_golden(tmp_path, capsys):
    """On the harmonic extension committed in harmonic.out, a function
    with no peaks, every term is f and the --patches file holds no
    epsilons and no patches, as committed in
    tests/data/golden/regularize_harmonic.out and
    regularize_harmonic_patches.out."""
    golden = DATA / "golden"
    patches = tmp_path / "patches.json"
    rc = main(["regularize", str(golden / "harmonic.out"), "--k", "3",
               "--samples", "4", "--patches", str(patches)])
    assert rc == 0
    assert capsys.readouterr().out == \
        (golden / "regularize_harmonic.out").read_text()
    assert patches.read_text() == \
        (golden / "regularize_harmonic_patches.out").read_text()


def test_regularize_quoted_edge_ids_match_golden(tmp_path, capsys):
    """The golden subharmonic function with edge ids that the CSV must
    quote or keep as they are (`a,b`, `say "hi"`, one with a newline, one
    with a leading space): the CSV and --patches bytes are those committed
    in tests/data/golden/regularize_quoted.out and
    regularize_quoted_patches.out."""
    golden = DATA / "golden"
    patches = tmp_path / "patches.json"
    rc = main(["regularize", str(golden / "subharmonic_quoted.json"),
               "--k", "4", "--samples", "5", "--patches", str(patches)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (golden / "regularize_quoted.out").read_text()
    assert patches.read_text() == \
        (golden / "regularize_quoted_patches.out").read_text()
    edges = {row[1] for row in csv.reader(io.StringIO(out))}
    assert {"a,b", 'say "hi".l.l', "line\nbreak", " lead"} <= edges


@pytest.mark.parametrize("literal", ['"' + "1" * 5000 + '"', "1" * 5000],
                         ids=["string", "integer"])
def test_json_rational_above_digit_limit_is_exit_2(tmp_path, capsys, literal):
    """A rational of 5000 digits, as a string or a bare JSON integer, is
    rejected by the library's own digit limit, not Python's, and the
    graph reader names its location either way."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(PATH3).replace('"len": "1"',
                                              '"len": ' + literal, 1))
    rc = main(["green", "--graph", str(path), "--point", "b"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (f"error: {path}: graph.edges[0].len: a run of "
                            f"5000 digits is above the maximum "
                            f"{sys.get_int_max_str_digits()}\n")


@pytest.mark.parametrize("old, new, where", [
    ('"vertices": ["a"', '"vertices": [{}', "graph.vertices[0]"),
    ('"boundary": ["a"', '"boundary": [{}', "graph.boundary[0]"),
    ('"id": "e0"', '"id": {}', "graph.edges[0].id")])
@pytest.mark.parametrize("digits", [1, 5000])
def test_json_integer_id_is_exit_2(tmp_path, capsys, old, new, where,
                                   digits):
    """A bare JSON integer of any length is no vertex, boundary or edge
    id: the reader names its location."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(PATH3).replace(old, new.format("7" * digits),
                                              1))
    rc = main(["green", "--graph", str(path), "--point", "b"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {path}: {where} must be a string\n"


def test_point_offset_above_digit_limit_is_exit_2(tmp_path, capsys):
    """A --point offset above the digit limit is refused, naming the
    option."""
    g = write_json(tmp_path, "g.json", PATH3)
    rc = main(["green", "--graph", g, "--point", "e0:" + "1" * 5000])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: --point: a run of 5000 digits is above "
                            f"the maximum {sys.get_int_max_str_digits()}\n")


def test_point_offset_not_a_rational_is_exit_2(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", PATH3)
    rc = main(["green", "--graph", g, "--point", "e0:abc"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --point: not a rational literal: 'abc'\n"



def test_points_not_a_rational_is_exit_2(capsys):
    """A bad --points coordinate names the option, as --point does."""
    rc = main(["superform", "x1^2", "--op", "positivity", "--points", "abc"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --points: not a rational literal: 'abc'\n"


def test_tol_not_a_rational_is_exit_2(tmp_path, capsys):
    """A bad --tol names the option, as --point does."""
    f = write_json(tmp_path, "f.json", {
        "graph": PATH3, "profiles": {"e0": [["0", "0"], ["1", "1"]],
                                     "e1": [["0", "1"], ["1", "0"]]}})
    rc = main(["rationalize", "--f", f, "--g", f, "--tol", "abc"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --tol: not a rational literal: 'abc'\n"

def test_harmonic_star_mean(tmp_path, capsys):
    star = {
        "vertices": ["c", "l0", "l1", "l2"],
        "edges": [{"id": f"a{i}", "u": "c", "v": f"l{i}", "len": "1"}
                  for i in range(3)],
        "boundary": ["l0", "l1", "l2"],
    }
    g = write_json(tmp_path, "g.json", star)
    vals = write_json(tmp_path, "vals.json",
                      {"l0": "1", "l1": "5", "l2": "0"})
    rc = main(["harmonic", "--graph", g, "--values", vals])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    from skelpot import PAFunction
    h = PAFunction.from_json_dict(out)
    assert h.vertex_value("c") == 2  # (1 + 5 + 0) / 3


def test_harmonic_values_list_is_exit_2(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", PATH3)
    vals = write_json(tmp_path, "vals.json", ["0", "1"])
    rc = main(["harmonic", "--graph", g, "--values", vals])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "vals.json: the top level must be a JSON object" in captured.err


def test_harmonic_values_off_the_boundary_are_exit_2(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", PATH3)
    vals = write_json(tmp_path, "vals.json",
                      {"a": "1", "c": "2", "zz": "5", "b": "7"})
    rc = main(["harmonic", "--graph", g, "--values", vals])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (f"error: {vals}: values for vertices off the "
                            "boundary ['b', 'zz']\n")


@pytest.mark.parametrize("graph, values, message", [
    ({"vertices": ["a", "b", "c"],
      "edges": [{"u": "a", "v": "b", "len": 1}], "boundary": ["a", "c"]},
     {"a": "0", "c": "1"}, "graph is not connected"),
    ({"vertices": ["a", "b"],
      "edges": [{"u": "a", "v": "b", "len": 1}], "boundary": []},
     {}, "empty boundary"),
])
def test_harmonic_graph_faults_name_no_values_file(tmp_path, capsys, graph,
                                                   values, message):
    g = write_json(tmp_path, "g.json", graph)
    vals = write_json(tmp_path, "vals.json", values)
    rc = main(["harmonic", "--graph", g, "--values", vals])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_harmonic_values_reader_names_missing_vertices_in_order(tmp_path,
                                                                capsys):
    vals = write_json(tmp_path, "vals.json", {})
    rc = main(["harmonic", "--graph", str(DATA / "golden" / "graph.json"),
               "--values", vals])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (f"error: {vals}: missing boundary values for "
                            "['a', 'd', 'e']\n")


@pytest.mark.parametrize("values, message", [
    ({"a": "1", "c": "2", "zz": "5", "b": "7"},
     "values for vertices off the boundary ['b', 'zz']"),
    ({"c": "2"}, "missing boundary values for ['a']"),
    ({}, "missing boundary values for ['a', 'c']"),
    # both: the keys off the boundary are named first
    ({"b": "1"}, "values for vertices off the boundary ['b']"),
])
def test_harmonic_values_keys_are_refused_in_the_words_of_poisson(
        tmp_path, capsys, values, message):
    """The key checks of a values file are poisson's: the CLI prints the
    library's text with the file's path in front."""
    g = MetricGraph.from_json_dict(PATH3)
    with pytest.raises(GraphError) as exc:
        dirichlet_solve(g, {k: parse_rational(v) for k, v in values.items()})
    assert str(exc.value) == message
    vals = write_json(tmp_path, "vals.json", values)
    rc = main(["harmonic", "--graph", write_json(tmp_path, "g.json", PATH3),
               "--values", vals])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == f"error: {vals}: {message}\n"


def test_harmonic_values_keys_are_checked_before_any_literal(tmp_path,
                                                             capsys):
    """A values file with a missing boundary vertex and a bad literal is
    refused for the missing vertex: every key is checked first."""
    vals = write_json(tmp_path, "vals.json", {"a": "x"})
    rc = main(["harmonic", "--graph", write_json(tmp_path, "g.json", PATH3),
               "--values", vals])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == f"error: {vals}: missing boundary values for " \
        "['c']\n"


# ---------------------------------------------------------------------------
# subharmonic
# ---------------------------------------------------------------------------

def test_subharmonic_tent_both_methods_agree(tmp_path, capsys):
    # Concave tent: not subharmonic; both oracles must say so with a
    # witness at the peak.
    rc = main(["subharmonic", tent_function(tmp_path), "--method", "both"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["subharmonic"] is False
    assert out["slope"]["subharmonic"] is False
    assert out["green"]["subharmonic"] is False
    slope_at = out["slope"]["witnesses"][0]["at"]
    green_at = out["green"]["witnesses"][0]["pole"]
    assert slope_at == green_at == {"edge": "e", "offset": "1/2"}


def test_subharmonic_valley_passes(tmp_path, capsys):
    rc = main(["subharmonic", tent_function(tmp_path, sign="-1"),
               "--method", "both"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["subharmonic"] is True
    assert out["slope"]["witnesses"] == []


def test_subharmonic_green_witnesses_in_point_order(tmp_path, capsys):
    """Both oracles list their witnesses in point_sort_key order: the
    vertex first, then each edge's points by offset (9/2 before 11),
    with edge ids compared as strings (e10 before e2)."""
    path = write_json(tmp_path, "path.json", {
        "graph": {"vertices": ["a", "b", "c"],
                  "edges": [{"id": "e2", "u": "a", "v": "b", "len": "16"},
                            {"id": "e10", "u": "b", "v": "c", "len": "16"}],
                  "boundary": ["a", "c"]},
        "profiles": {"e2": [["0", "0"], ["9/2", "9"], ["11", "12"],
                            ["16", "13"]],
                     "e10": [["0", "13"], ["9/2", "13"], ["11", "12"],
                             ["16", "0"]]},
    })
    rc = main(["subharmonic", path, "--method", "both"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    expected = [{"vertex": "b"}] + [{"edge": e, "offset": o}
                                    for e in ("e10", "e2")
                                    for o in ("9/2", "11")]
    assert [w["pole"] for w in out["green"]["witnesses"]] == expected
    assert [w["at"] for w in out["slope"]["witnesses"]] == expected


# ---------------------------------------------------------------------------
# regularize
# ---------------------------------------------------------------------------

def test_regularize_csv_and_patches(tmp_path, capsys):
    f = tent_function(tmp_path, sign="-1")
    patches = tmp_path / "patches.json"
    rc = main(["regularize", f, "--k", "3", "--samples", "8",
               "--patches", str(patches)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,edge,offset,f_k,f,f_k_minus_f"
    # The peak at 1/2 becomes a vertex, so the working graph has 2 edges.
    assert len(lines) == 1 + 3 * 2 * 9
    # differences stay within 1.25 * eps_k of the target
    dump = json.loads(patches.read_text())
    assert len(dump["epsilons"]) == 3
    assert len(dump["patches"]) == 1
    assert dump["patches"][0]["mass"] == "4"
    from fractions import Fraction
    eps = [Fraction(e) for e in dump["epsilons"]]
    for row in lines[1:]:
        k, _edge, _off, _fk, _fv, diff = row.split(",")
        assert abs(float(diff)) <= 1.25 * float(eps[int(k)]) + 1e-12


def test_regularize_rejects_non_subharmonic(tmp_path, capsys):
    rc = main(["regularize", tent_function(tmp_path), "--k", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # the witnesses are point JSON, as `subharmonic` prints them
    witnesses = json.loads(err.split("witnesses: ", 1)[1])
    assert witnesses == [{"at": {"edge": "e", "offset": "1/2"},
                          "incoming_slope_sum": "-4"}]


def test_regularize_unwritable_patches_is_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "p.json"
    rc = main(["regularize", tent_function(tmp_path, sign="-1"),
               "--patches", str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert str(target) in captured.err


def test_regularize_csv_matches_pointwise_evaluation(tmp_path, capsys):
    """Every CSV row equals the one built from eval_smoothed and base.eval
    at that point, in k-major order, byte for byte."""
    from skelpot import EdgePoint, build_regularization, eval_smoothed
    from skelpot.randgen import random_graph
    from skelpot.rational import format_rational
    rng = random.Random(5)
    for trial in range(4):
        f = kinked_subharmonic(rng, random_graph(rng, max_vertices=7,
                                                 max_edges=10))
        path = write_json(tmp_path, f"f{trial}.json", f.to_json_dict())
        k, samples = 3, rng.randint(1, 6)
        assert main(["regularize", path, "--k", str(k),
                     "--samples", str(samples)]) == 0
        seq = build_regularization(f, n_terms=k)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["k", "edge", "offset", "f_k", "f", "f_k_minus_f"])
        for i, term in enumerate(seq.terms):
            for e in seq.base.graph.edges:
                for j in range(samples + 1):
                    p = EdgePoint(e.id, e.length * j / samples)
                    fk = eval_smoothed(term, p)
                    fv = float(seq.base.eval(p))
                    writer.writerow([i, e.id, format_rational(p.offset),
                                     repr(fk), repr(fv), repr(fk - fv)])
        assert capsys.readouterr().out == want.getvalue()


@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--k", "0"),
                                         ("--k", "-1"), ("--k", "abc")])
def test_regularize_counts_below_one_are_usage_errors(tmp_path, capsys,
                                                      flag, value):
    f = tent_function(tmp_path, sign="-1")
    with pytest.raises(SystemExit) as exc:
        main(["regularize", f, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and ">= 1" in captured.err


# ---------------------------------------------------------------------------
# rationalize
# ---------------------------------------------------------------------------

def test_rationalize_exit_codes(tmp_path, capsys):
    f = write_json(tmp_path, "f.json", {
        "graph": PATH3,
        "profiles": {"e0": [["0", "0"], ["1", "1"]],
                     "e1": [["0", "1"], ["1", "0"]]},
    })
    g_good = write_json(tmp_path, "g.json", {
        "graph": PATH3,
        "profiles": {"e0": [["0", "0"], ["1", "0.4999999"]],
                     "e1": [["0", "0.4999999"], ["1", "0"]]},
    })
    rc = main(["rationalize", "--f", f, "--g", g_good, "--tol", "1/1000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["ok"] is True
    assert out["pairing"] == "-1"

    # Valley f: pairing is positive, verdict negative -> exit 1.
    f_bad = write_json(tmp_path, "fbad.json", {
        "graph": PATH3,
        "profiles": {"e0": [["0", "0"], ["1", "-1"]],
                     "e1": [["0", "-1"], ["1", "0"]]},
    })
    rc = main(["rationalize", "--f", f_bad, "--g", g_good, "--tol", "1/1000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["ok"] is False


# ---------------------------------------------------------------------------
# superform
# ---------------------------------------------------------------------------

def test_superform_dprime(capsys):
    rc = main(["superform", "x1^2", "--op", "dprime"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "(2*x1) d'x1"


@pytest.mark.parametrize("expr, out", [
    ("(x1+x2)^2", "(2*x1 + 2*x2) d'x1 + (2*x1 + 2*x2) d'x2\n"),
    ("(x1)^2 d'x2", "(2*x1) d'x1 ^ d'x2\n"),
    ("x2 + -x1^2", "(-2*x1) d'x1 + (1) d'x2\n"),
])
def test_superform_leading_group_and_unary_minus(capsys, expr, out):
    """A leading group goes on as a product, and -a^n is -(a^n)."""
    assert main(["superform", expr, "--op", "dprime"]) == 0
    assert capsys.readouterr().out == out


def test_superform_wedge_and_roundtrip(capsys):
    rc = main(["superform", "d'x1 ^ d''x1", "--op", "wedge",
               "--with", "d'x2 ^ d''x2"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    from skelpot.superforms import parse_form
    got = parse_form(out, 2)
    assert got == parse_form("d'x1 ^ d'x2 ^ d''x1 ^ d''x2", 2).scale(-1)


def test_superform_positivity_verdicts(capsys):
    rc = main(["superform", "x1^2 + x2^2", "--op", "positivity"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "positive"
    rc = main(["superform", "x1^2 - x2^2", "--op", "positivity"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "not positive"
    assert any(line.startswith("violation at") for line in lines[1:])


@pytest.mark.parametrize("sign", [1, -1])
def test_positivity_on_the_largest_default_grid(capsys, sign):
    """On R^16, the largest dimension the CLI takes, the default grid
    (1129 points, repeats included) against is_psd_exact on the Hessian
    of |x|^2 + s*(x1^2*x2^2 + x3^4), written out here: 2I plus s times
    2*x2^2, 2*x1^2 and 12*x3^2 on the diagonal and 4*x1*x2 off it, so
    2I outside its leading 3 x 3 block, which alone decides the verdict.
    With s = 1 it is PSD at every point; with s = -1 it is not where
    x3 = +-1 (a negative diagonal entry) nor where x1, x2 = +-1 (zero
    diagonal entries beside a nonzero one)."""
    from skelpot.cli import _positivity_points
    from skelpot.linalg import is_psd_exact
    from skelpot.superforms import MAX_DIM
    r = MAX_DIM
    squares = " + ".join(f"x{i}^2" for i in range(1, r + 1))
    op = "+" if sign == 1 else "-"
    rc = main(["superform", "--op", "positivity", "--r", str(r), "--",
               f"{squares} {op} x1^2*x2^2 {op} x3^4"])

    def block(x):
        return [[2 + sign * 2 * x[1] ** 2, sign * 4 * x[0] * x[1], 0],
                [sign * 4 * x[0] * x[1], 2 + sign * 2 * x[0] ** 2, 0],
                [0, 0, 2 + sign * 12 * x[2] ** 2]]
    bad = [pt for pt in _positivity_points(None, r)
           if not is_psd_exact(block(pt))]
    # with s = -1: 2 points with x3 = +-1 alone, 15 * 6 with x3 = +-1 and
    # one other coordinate, and 4 with x1, x2 = +-1
    assert len(bad) == (0 if sign == 1 else 2 + 90 + 4)
    assert rc == (0 if sign == 1 else 1)
    assert capsys.readouterr().out.splitlines() == [
        "positive" if not bad else "not positive"] + [
        "violation at (" + ", ".join(map(format_rational, pt)) + ")"
        for pt in bad]


def test_positivity_points_starting_with_a_minus_sign(capsys):
    """--points=-1/2,0;1,0, the form the help text shows, gives a verdict;
    argparse reads a separate "-1/2,0" as an option and exits 2."""
    argv = ["superform", "x1^3 + x2^2", "--op", "positivity"]
    assert main(argv + ["--points=-1/2,0;1,0"]) == 1
    assert capsys.readouterr().out == "not positive\nviolation at (-1/2, 0)\n"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--points", "-1/2,0;1,0"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["superform", "--help"])
    assert "--points=-1/2,0;1,0" in capsys.readouterr().out


def test_expression_starting_with_a_minus_sign_goes_after_dashes(capsys):
    """An expression after --, as the help text shows, gives a result;
    argparse reads a leading "-x1^2" as an option and exits 2."""
    assert main(["superform", "--op", "dprime", "--", "-x1^2"]) == 0
    assert capsys.readouterr().out == "(-2*x1) d'x1\n"
    with pytest.raises(SystemExit) as exc:
        main(["superform", "-x1^2", "--op", "dprime"])
    assert exc.value.code == 2
    assert "the following arguments are required: expr" in \
        capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["superform", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "after --, as in --op dprime -- -x1^2" in help_text


def test_superform_parse_error(capsys):
    rc = main(["superform", "d'x", "--op", "dprime"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("expr, message", [
    ("x\u00b2", "bad variable at 0"),
    ("\u00b2", "unexpected character '\u00b2' at 0"),
    ("3*\u2460", "unexpected character '\u2460' at 2"),
    ("d'x\u00b9", "bad generator at 0"),
], ids=["superscript-index", "superscript", "circled-digit", "generator"])
def test_superform_digit_int_cannot_read_is_exit_2(capsys, expr, message):
    """Digit characters that are not decimal digits (str.isdigit but not
    str.isdecimal) are parse errors, not a crash."""
    rc = main(["superform", expr, "--op", "dprime"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {expr!r}: {message}\n"


def test_superform_reads_decimal_digits_of_other_scripts(capsys):
    rc = main(["superform", "x\u0663^2", "--op", "dprime"])   # Arabic-Indic 3
    assert rc == 0
    assert capsys.readouterr().out == "(2*x3) d'x3\n"


def test_superform_generator_order_keeps_its_sign(capsys):
    rc = main(["superform", "d''x2 ^ d'x1", "--op", "J", "--r", "2"])
    assert rc == 0
    assert capsys.readouterr().out == "(1) d'x2 ^ d''x1\n"


@pytest.mark.parametrize("argv", [
    ["x1 d'x9", "--op", "dprime", "--r", "2"],          # index out of range
    ["d'x1 + d''x1", "--op", "dprime"],                  # mixed bidegrees
    ["d'x1", "--op", "wedge", "--with", "d''x1 + d'x2"],
])
def test_superform_bidegree_error_is_exit_2(capsys, argv):
    rc = main(["superform", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("op, message", [
    ("wedge", "wedge needs a second form (--with)"),
    ("positivity", "positivity needs a (1,1)-form or a function"),
])
def test_superform_missing_operand_is_exit_2(capsys, op, message):
    assert main(["superform", "d'x1", "--op", op]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("expr", [
    "x1^101", "x1^20000", "x2*(x1^20)^20", "x1^" + "9" * 5000,
])
def test_superform_exponent_above_limit_is_exit_2(capsys, expr):
    rc = main(["superform", expr, "--op", "dprime"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "maximum 100" in captured.err
    assert "Traceback" not in captured.err


def test_superform_deep_nesting_and_long_minus_runs(capsys):
    """A form nested 100 deep prints what the flat form prints; 260 deep
    is exit 2 on one line; 1000 minus signs in a row are read, not
    recursed into."""
    outputs = []
    for expr in ["x1^2 - x2", "(" * 100 + "x1^2 - x2" + ")" * 100,
                 "x1*" + "-" * 1000 + "x1 - x2"]:
        assert main(["superform", "--op", "dprime", "--", expr]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == ["(2*x1) d'x1 + (-1) d'x2\n"] * 3
    rc = main(["superform", "--op", "dprime", "--",
               "(" * 260 + "x1" + ")" * 260])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.endswith(
        "': parentheses nested deeper than the maximum 100\n")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("value", ["0", "-1"])
def test_superform_r_below_one_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["superform", "x1^2", "--op", "dprime", "--r", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and ">= 1" in captured.err


@pytest.mark.parametrize("expr", ["1" * 5000, "x" + "1" * 5000,
                                  "d'x" + "1" * 5000],
                         ids=["constant", "index", "generator"])
def test_superform_long_digit_run_is_exit_2(capsys, expr):
    rc = main(["superform", expr, "--op", "dprime"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "a run of 5000 digits is above the maximum" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["x99999999999999999999", "--op", "dprime"],
    ["x17", "--op", "positivity"],
    ["x1", "--op", "wedge", "--with", "x40"],
    ["x1", "--op", "dprime", "--r", "17"],
    ["x1", "--op", "dprime", "--r", "9" * 30],
])
def test_superform_dimension_above_limit_is_exit_2(capsys, argv):
    rc = main(["superform", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "above the maximum 16" in captured.err
    assert "Traceback" not in captured.err


def test_superform_above_term_limit_is_exit_2(capsys):
    """(1+x1+...+x6)^12 would expand to 18564 terms: refused before the
    power step that could pass the limit, with one line naming it."""
    rc = main(["superform", "1*(1+x1+x2+x3+x4+x5+x6)^12", "--op", "dprime"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "above the maximum 5000" in captured.err


def test_superform_wedge_above_term_limit_is_exit_2(capsys):
    """Two coefficients of 3003 terms each are under the parser's limit,
    but their product could have up to C(22, 6) = 74613 terms: refused
    before wedge expands it (which took about a minute), in the time it
    takes to parse the two forms (about 0.4 CPU s)."""
    expr = "1*(1+x1+x2+x3+x4+x5+x6)^8"
    t0 = time.process_time()
    rc = main(["superform", expr, "--op", "wedge", "--with", expr])
    assert time.process_time() - t0 < 2
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: wedge: a product of up to 74613 terms "
                            "is above the maximum 5000\n")


def test_superform_wedge_skips_products_it_does_not_expand(capsys):
    """d'x1 ^ d'x1 = 0: wedge multiplies no coefficients, so their size
    is not refused."""
    expr = "1*(1+x1+x2+x3+x4+x5+x6)^8 d'x1"
    assert main(["superform", expr, "--op", "wedge", "--with", expr]) == 0
    assert capsys.readouterr().out == "0 [bidegree (2,0)]\n"


def test_superform_just_under_term_limit_runs(capsys):
    """(1+x1+...+x16)^4 has C(20, 4) = 4845 terms, all kept."""
    from skelpot.superforms import parse_form
    expr = "1*(1+" + "+".join(f"x{i}" for i in range(1, 17)) + ")^4"
    assert len(parse_form(expr, 16).coeffs[(), ()].terms) == 4845
    assert main(["superform", expr, "--op", "dprime"]) == 0
    assert capsys.readouterr().out.startswith("(4*x1^3 + ")


def test_superform_dimension_at_limit_runs(capsys):
    assert main(["superform", "x16^2", "--op", "dprime"]) == 0
    assert capsys.readouterr().out == "(2*x16) d'x16\n"


def test_superform_result_above_printing_limit_is_exit_2(capsys):
    rc = main(["superform", f"x1*({'9' * 600})^10", "--op", "dprime"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_superform_other_printing_error_propagates(monkeypatch, capsys):
    """Only str() refusing a long integer becomes the printing-limit
    message; any other ValueError from the printer is a bug and goes on
    to main's internal-error exit."""
    from skelpot import superforms as sf

    def broken(form):
        raise ValueError("something else")
    monkeypatch.setattr(sf, "format_form", broken)
    rc = main(["superform", "x1^2", "--op", "dprime"])
    assert rc == 3
    assert capsys.readouterr().err == \
        "error: internal: ValueError: something else\n"


def test_superform_long_point_coordinate_is_exit_2(capsys):
    rc = main(["superform", "x1^2", "--op", "positivity",
               "--points", "1" * 5000])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_positivity_tests_each_distinct_point_once(monkeypatch, capsys):
    """The default grid on R^3 lists 37 points, 19 distinct: each is
    tested once, and the lines printed are still the golden ones."""
    from skelpot import superforms as sf
    tested = []
    is_positive_11 = sf.is_positive_11

    def record(alpha, points):
        points = list(points)
        tested.extend(points)
        return is_positive_11(alpha, points)
    monkeypatch.setattr(sf, "is_positive_11", record)
    rc = main(["superform", "--op", "positivity", "--",
               "-x1^2 - x2^2 - x3^2"])
    assert rc == 1
    assert capsys.readouterr().out == \
        (DATA / "golden" / "positivity_default_grid.out").read_text()
    assert len(tested) == len(set(tested)) == 19


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------

_CHARS = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "a", "Z", " ",
          "\u00e9", "\u2028", "\ud7ff", "\ue000", "\uffff", "\U0001f600",
          "\U0010ffff"]
_LEAVES = [True, False, None, 0, -1, 2**64, -(10**300), 0.0, -0.0, 1e300,
           -1e-300, 0.1, float("nan"), float("inf"), float("-inf")]


def _random_text(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 6)))


def _random_json(rng, depth=0):
    """A nested value of dicts, lists, tuples, strings and leaves."""
    kind = rng.randrange(6 if depth < 5 else 2)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice(_LEAVES)
    items = [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    return {_random_text(rng): value for value in items}


def test_json_writer_matches_json_dumps():
    """Byte for byte the text of json.dumps(indent=2, sort_keys=True) on
    seeded nested values, empty containers, tuples and every leaf."""
    rng = random.Random(29)
    values = [{}, [], (), "", {"": []}, [{}], _CHARS, _LEAVES,
              {c: c for c in _CHARS}]
    values += [_random_json(rng) for _ in range(400)]
    for value in values:
        assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_on_the_golden_outputs():
    """Every golden output that is JSON, parsed and written again."""
    checked = 0
    for path in sorted((DATA / "golden").glob("*.out")):
        try:
            value = json.loads(path.read_text())
        except ValueError:
            continue
        assert _json(value) + "\n" == path.read_text(), path.name
        checked += 1
    assert checked == 26


def _relabelled(rng, f):
    """f on a copy of its graph whose vertex and edge ids are distinct
    random texts of _CHARS: quotes, backslashes, control characters and
    characters outside ASCII."""
    g = f.graph
    fresh = {}
    while len(fresh) < len(g.vertices) + len(g.edges):
        fresh[_random_text(rng)] = None
    names = iter(fresh)
    vs = {v: next(names) for v in g.vertices}
    es = {e.id: next(names) for e in g.edges}
    graph = MetricGraph(vs.values(),
                        [Edge(es[e.id], vs[e.u], vs[e.v], e.length)
                         for e in g.edges], [vs[v] for v in g.boundary])
    return PAFunction(graph, {es[k]: p for k, p in f.profiles.items()})


def _written_functions():
    """Seeded functions with loops, parallel edges and kinks, each also
    with random-text ids; one on a graph with an empty boundary, and one
    on the graph with no edges."""
    rng = random.Random(37)
    fs = []
    for _ in range(40):
        f = random_pa_function(rng, random_graph(rng, 6, 10), max_kinks=3)
        fs += [f, _relabelled(rng, f)]
    ends = [(e.u, e.v) for f in fs for e in f.graph.edges]
    assert any(u == v for u, v in ends)                     # a loop
    assert len(set(ends)) < len(ends)                       # parallel edges
    assert any(len(p) > 2 for f in fs for p in f.profiles.values())
    third, half = Fraction(1, 3), Fraction(-1, 2)
    no_boundary = MetricGraph(["a", "b"], [Edge("e", "a", "b", third),
                                           Edge("l", "b", "b", 2)], [])
    fs.append(PAFunction(no_boundary, {"e": [(0, 1), (third, half)],
                                       "l": [(0, half), (1, 7), (2, half)]}))
    fs.append(PAFunction(MetricGraph([], [], []), {}))
    return fs


def test_json_writer_writes_a_function_as_its_dict():
    """A PAFunction, alone or inside an object or a list as green and
    rationalize print it, is written as the text of its to_json_dict."""
    for f in _written_functions():
        d = f.to_json_dict()
        for value, ref in ((f, d), ({"function": f, "ok": True},
                                    {"function": d, "ok": True}),
                           ([[f]], [[d]])):
            assert _json(value) == json.dumps(ref, indent=2, sort_keys=True)


def test_cli_prints_the_function_dicts(tmp_path, capsys):
    """harmonic prints its function's to_json_dict and green (with a pole
    inside an edge) green_to_json_dict, on graphs with random-text ids."""
    rng = random.Random(41)
    for trial in range(6):
        g = _relabelled(rng, random_pa_function(
            rng, random_graph(rng, 6, 10))).graph
        graph = write_json(tmp_path, "g.json", g.to_json_dict())
        values = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for v in sorted(g.boundary)}
        e = g.edges[rng.randrange(len(g.edges))]
        pole = EdgePoint(e.id, e.length / 3)
        for argv, want in (
                (["harmonic", "--values", write_json(
                    tmp_path, "v.json", {v: format_rational(x)
                                         for v, x in values.items()})],
                 dirichlet_solve(g, values).to_json_dict()),
                (["green", "--point", f"{e.id}:{pole.offset}"],
                 green_to_json_dict(green(g, pole)))):
            assert main([*argv, "--graph", graph]) == 0, (trial, argv)
            assert capsys.readouterr().out == json.dumps(
                want, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [{1: "a"}, [{"a": {None: 1}}], {1.5},
                                   [b"x"], {"a": object()}])
def test_json_writer_refuses_other_keys_and_types(value):
    with pytest.raises(TypeError):
        _json(value)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse(parser, argv):
    """(stdout, stderr, exit code or parsed namespace) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return out.getvalue(), err.getvalue(), result


def test_one_parser_per_process(tmp_path, monkeypatch, capsys):
    """main builds its parser once, at the first call, and reads the
    handler from SUBCOMMANDS at every call: a usage error, help and a
    valid call print the same bytes and exit codes when repeated, and a
    handler patched in after the parser was built is the one that runs."""
    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (*capsys.readouterr(), code)

    calls = [["ddc", "a", "b"], ["ddc", "--help"],
             ["ddc", affine_function(tmp_path)]]
    build_parser.cache_clear()
    first = [call(argv) for argv in calls]
    assert [code for *_, code in first] == [2, 0, 0]
    assert [call(argv) for argv in calls] == first
    ran, ddc = [], SUBCOMMANDS["ddc"][0]

    def patched(args):
        ran.append(args.file)
        return ddc(args)
    monkeypatch.setitem(SUBCOMMANDS, "ddc", (patched,) + SUBCOMMANDS["ddc"][1:])
    assert call(calls[2]) == first[2]
    assert ran == [calls[2][1]]
    assert build_parser.cache_info().misses == 1
    r = subprocess.run(
        [sys.executable, "-c", "import skelpot.cli as c; "
                               "print(c.build_parser.cache_info().misses)"],
        capture_output=True, text=True, env=subprocess_env(), check=True)
    assert r.stdout == "0\n"   # not built at import


def test_superform_op_choices_are_the_unary_table_and_two_more():
    """The --op choices stay written out, as their order is in the help
    text; they must still be the table's operations, wedge and positivity."""
    op = dict(SUBCOMMANDS["superform"][2])["--op"]
    assert sorted(op["choices"]) == sorted([*UNARY_OPS, "wedge",
                                            "positivity"])


def test_full_parser_for_anything_but_a_subcommand(capsys):
    for argv in ([], ["--help"], ["bogus"], ["-x", "ddc"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        full = _parse(build_parser(), argv)
        assert capsys.readouterr()[:2] == full[:2]
        assert exc.value.code == full[2]


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"graph": ' * 5000 + "{}" + "}" * 5000,
], ids=["list", "graph"])
def test_deeply_nested_json_is_exit_2(tmp_path, capsys, text):
    """JSON nested deeper than the decoder can recurse is malformed input,
    not an internal error."""
    p = tmp_path / "deep.json"
    p.write_text(text)
    rc = main(["ddc", str(p)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {p}: ")
    assert captured.err.count("\n") == 1
    assert "internal" not in captured.err


def test_missing_file_is_exit_2(capsys):
    rc = main(["ddc", "/nonexistent/path.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file_is_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(b'{"a": "\xff\xfe"}')
    rc = main(["ddc", str(p)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {p}: not UTF-8 (invalid start byte)\n"


def test_malformed_json_reports_location(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"graph": \n  nope}')
    rc = main(["ddc", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 2" in err and "column" in err


def test_invalid_graph_is_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "graph": {"vertices": ["a"], "edges": [
            {"id": "e", "u": "a", "v": "zz", "len": "1"}],
            "boundary": ["a"]},
        "profiles": {"e": [["0", "0"], ["1", "0"]]},
    }))
    rc = main(["ddc", str(p)])
    assert rc == 2


def _with_graph(**changes):
    return {"graph": dict(UNIT_EDGE, **changes),
            "profiles": {"e": [["0", "0"], ["1", "1"]]}}


@pytest.mark.parametrize("doc, where", [
    ([1, 2], "the top level"),
    ({"profiles": {}}, "graph"),
    (_with_graph(vertices=5), "graph.vertices"),
    (_with_graph(edges={"e": 1}), "graph.edges"),
    (_with_graph(boundary="a"), "graph.boundary"),
    (_with_graph(edges=[5]), "graph.edges[0]"),
    (_with_graph(vertices=["a", "b", 3]), "graph.vertices[2]"),
    (_with_graph(boundary=[["a"]]), "graph.boundary[0]"),
    (_with_graph(edges=[{"id": "e", "u": ["a"], "v": "b", "len": "1"}]),
     "graph.edges[0].u"),
    ({"graph": UNIT_EDGE, "profiles": [["0", "0"]]}, "profiles"),
    ({"graph": UNIT_EDGE, "profiles": {"e": 5}}, "profiles.e"),
    ({"graph": UNIT_EDGE, "profiles": {"e": [0, 1]}}, "profiles.e"),
])
def test_function_file_shape_errors_are_exit_2(tmp_path, capsys, doc, where):
    rc = main(["ddc", write_json(tmp_path, "f.json", doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"f.json: {where} must be" in err


@pytest.mark.parametrize("doc, where", [
    ([1, 2], "graph"),
    (dict(PATH3, vertices=5), "graph.vertices"),
    (dict(PATH3, edges=[{"id": 0, "u": "a", "v": "b", "len": "1"}]),
     "graph.edges[0].id"),
])
def test_graph_file_shape_errors_are_exit_2(tmp_path, capsys, doc, where):
    rc = main(["green", "--graph", write_json(tmp_path, "g.json", doc),
               "--point", "b"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"g.json: {where} must be" in err


@pytest.mark.parametrize("edge, key", [
    ({"id": "e", "v": "b", "len": "1"}, "u"),
    ({"id": "e", "u": "a", "len": "1"}, "v"),
    ({"id": "e", "u": "a", "v": "b"}, "len"),
])
def test_missing_edge_fields_name_the_field(tmp_path, capsys, edge, key):
    """A function file and a graph file whose edge lacks a field exit 2
    with one line naming that field."""
    f = write_json(tmp_path, "f.json", _with_graph(edges=[edge]))
    g = write_json(tmp_path, "g.json", dict(UNIT_EDGE, edges=[edge]))
    for argv, path in ((["ddc", f], f),
                       (["green", "--graph", g, "--point", "a"], g)):
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: graph.edges[0].{key} must be present\n"


@pytest.mark.parametrize("doc", [
    _with_graph(edges=[{"id": "e", "u": "a", "v": "b", "len": True}]),
    {"graph": UNIT_EDGE, "profiles": {"e": [["0", False], ["1", "1"]]}},
])
def test_boolean_literals_are_exit_2(tmp_path, capsys, doc):
    rc = main(["ddc", write_json(tmp_path, "f.json", doc)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "not a rational literal" in captured.err


def test_graph_reader_names_a_bad_length(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", dict(PATH3, edges=[
        PATH3["edges"][0], dict(PATH3["edges"][1], len=None)]))
    assert main(["green", "--graph", g, "--point", "b"]) == 2
    assert capsys.readouterr().err == \
        f"error: {g}: graph.edges[1].len: not a rational literal: None\n"


def test_function_reader_names_a_bad_profile_literal(tmp_path, capsys):
    f = write_json(tmp_path, "f.json", {
        "graph": PATH3, "profiles": {"e0": [["0", "0"], ["1", "1"]],
                                     "e1": [["0", "1"], [[], "2"]]}})
    assert main(["ddc", f]) == 2
    assert capsys.readouterr().err == \
        f"error: {f}: profiles.e1[1][0]: not a rational literal: []\n"


def test_harmonic_values_reader_names_a_bad_value(tmp_path, capsys):
    g = write_json(tmp_path, "g.json", PATH3)
    v = write_json(tmp_path, "v.json", {"a": "1/2", "c": "x"})
    assert main(["harmonic", "--graph", g, "--values", v]) == 2
    assert capsys.readouterr().err == \
        f"error: {v}: values.c: not a rational literal: 'x'\n"


_BIG = "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("profile, message", [
    ('[["0", "1"], ["1", true]]', "not a rational literal: True"),
    ('[["0", 1], ["1", true]]', "not a rational literal: True"),
    ('[["0", "0.5"], ["1", 0.5]]', "not a rational literal: 0.5"),
    (f'[["0", "{_BIG}"], ["1", "{_BIG}"]]',
     f"a run of {len(_BIG)} digits is above the maximum {len(_BIG) - 1}"),
])
def test_repeated_literals_keep_their_errors(tmp_path, capsys, profile,
                                             message):
    """The loader parses each distinct string literal of a file once; a
    value that is not a string still fails on its own, whatever string
    equal to it came before, and a refused string is refused again, at
    its own location: the first value for the long digit runs, the last
    one for the others."""
    p = tmp_path / "f.json"
    p.write_text('{"graph": %s, "profiles": {"e": %s}}'
                 % (json.dumps(UNIT_EDGE), profile))
    rc = main(["ddc", str(p)])
    captured = capsys.readouterr()
    where = "profiles.e[0][1]" if _BIG in profile else "profiles.e[1][1]"
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {p}: {where}: {message}\n"


# the six subcommands that read files, on simple graphs and on the
# theta and dumbbell multigraphs: (argv, the files it names)
_FILE_CALLS = [
    (["ddc", "{0}"], ["function.json"]),
    (["subharmonic", "{0}"], ["function.json"]),
    (["subharmonic", "{0}", "--method", "green"], ["subharmonic.json"]),
    (["regularize", "{0}", "--k", "2", "--samples", "2"],
     ["subharmonic.json"]),
    (["rationalize", "--f", "{0}", "--g", "{1}"],
     ["subharmonic.json", "function.json"]),
    (["green", "--graph", "{0}", "--point", "e1:1/5"], ["graph.json"]),
    (["harmonic", "--graph", "{0}", "--values", "{1}"],
     ["graph.json", "values.json"]),
    (["ddc", "{0}"], ["dumbbell_function.json"]),
    (["subharmonic", "{0}", "--method", "both"], ["theta_function.json"]),
    (["regularize", "{0}", "--k", "2", "--samples", "2"],
     ["dumbbell_function.json"]),
    (["rationalize", "--f", "{0}", "--g", "{1}"],
     ["theta_function.json", "theta_function.json"]),
    (["green", "--graph", "{0}", "--point", "a:1/2"], ["dumbbell_graph.json"]),
    (["harmonic", "--graph", "{0}", "--values", "{1}"],
     ["theta_graph.json", "theta_values.json"]),
]
_REPLACEMENTS = [None, 0, 1, -2, 7, 0.5, -1.25, "", "a", "e0", "1/2", "x",
                 [], ["a"], ["0", "1"], {}, {"a": "1"}, {"u": "a"}]
_DELETE = object()


def _json_paths(doc, path=()):
    """The path (keys and indices) of every value in a JSON document."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


@st.composite
def _mutated_file_call(draw):
    """A file-reading call with one or two edits to one of its golden
    files: a key or list item deleted, or a value swapped for null, a
    number, a float, a string, a list or an object."""
    argv, files = draw(st.sampled_from(_FILE_CALLS))
    docs = [json.loads((DATA / "golden" / name).read_text())
            for name in files]
    which = draw(st.integers(0, len(docs) - 1))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_json_paths(docs[which]))))
        new = draw(st.sampled_from(_REPLACEMENTS + [_DELETE] * bool(path)))
        if new is not _DELETE:
            new = copy.deepcopy(new)    # a later edit may change it
        if not path:
            docs[which] = new
            continue
        parent = docs[which]
        for key in path[:-1]:
            parent = parent[key]
        if new is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return argv, files, docs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mutated_file_call())
def test_json_fuzz_on_mutated_golden_files(tmp_path_factory, call):
    """Every golden input file with one or two edits exits 0, 1 or 2
    without a traceback, and a malformed one (exit 2) prints nothing on
    stdout."""
    argv, _, docs = call
    tmp = tmp_path_factory.getbasetemp()
    paths = []
    for i, doc in enumerate(docs):
        paths.append(tmp / f"fuzz{i}.json")
        paths[-1].write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([a.format(*paths) for a in argv])
    assert rc in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_mutated_file_call())
def test_library_readers_raise_typed_errors_on_mutated_files(call):
    """The library readers build an edited golden graph or function file
    or refuse it with GraphError or RationalParseError, never another
    exception."""
    _, files, docs = call
    for name, doc in zip(files, docs):
        if not name.endswith("values.json"):
            reader = (MetricGraph.from_json_dict
                      if name.endswith("graph.json")
                      else PAFunction.from_json_dict)
            with contextlib.suppress(GraphError, RationalParseError):
                reader(doc)


# ---------------------------------------------------------------------------
# selftest determinism (subprocess: the report must be byte-identical)
# ---------------------------------------------------------------------------

def _run_selftest(seed_args=(), env_extra=None):
    env = subprocess_env()
    env.pop("SKELPOT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "skelpot.cli", "selftest", *seed_args],
        capture_output=True, text=True, env=env)


def test_selftest_deterministic_and_passing():
    """Each report is byte-identical to the committed one, which passes
    all nine checks and names its seed."""
    for seed in ("0", "42"):
        r = _run_selftest(["--seed", seed])
        assert r.returncode == 0
        assert r.stdout == (DATA / f"selftest_seed{seed}.txt").read_text()
        assert "result: PASS (9/9)" in r.stdout
        assert f"--seed {seed}" in r.stdout


def test_selftest_env_seed_override():
    r_flag = _run_selftest(["--seed", "7"])
    r_env = _run_selftest(["--seed", "123"], env_extra={"SKELPOT_SEED": "7"})
    assert r_env.returncode == 0
    assert r_env.stdout == r_flag.stdout


def test_non_integer_env_seed_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("SKELPOT_SEED", "abc")
    rc = main(["selftest", "--seed", "7"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: SKELPOT_SEED='abc' is not an integer\n"


def test_unexpected_error_is_exit_3_on_one_line(tmp_path, monkeypatch,
                                                capsys):
    """A bug inside a subcommand is not a verdict: exit 3 and one stderr
    line naming the exception, with no traceback."""
    def broken(args):
        raise RuntimeError("boom\non two lines")
    monkeypatch.setitem(SUBCOMMANDS, "ddc", (broken,) + SUBCOMMANDS["ddc"][1:])
    rc = main(["ddc", affine_function(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: boom on two lines\n"


@pytest.mark.parametrize("exc", [SystemExit(4), KeyboardInterrupt()])
def test_exit_and_interrupt_pass_through_main(tmp_path, monkeypatch, exc):
    def stopped(args):
        raise exc
    monkeypatch.setitem(SUBCOMMANDS, "ddc", (stopped,) + SUBCOMMANDS["ddc"][1:])
    with pytest.raises(type(exc)):
        main(["ddc", affine_function(tmp_path)])


def test_closed_stdout_is_exit_3_without_traceback(tmp_path):
    """A reader that is gone before any output arrives: the write end of a
    pipe whose read end is already closed."""
    f = affine_function(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "skelpot.cli", "ddc", f],
                           stdout=write_end, stderr=subprocess.PIPE,
                           text=True, env=subprocess_env())
    finally:
        os.close(write_end)
    assert r.returncode == 3
    assert "Traceback" not in r.stderr
    assert "BrokenPipeError" not in r.stderr


def test_package_imports_only_the_standard_library():
    """Importing the package, its CLI, the checks and randgen loads no
    top-level module outside the standard library (dependencies = [])."""
    code = ("import sys\n"
            "before = {m.partition('.')[0] for m in sys.modules}\n"
            "import skelpot, skelpot.cli, skelpot.checks, skelpot.randgen\n"
            "added = {m.partition('.')[0] for m in sys.modules} - before\n"
            "print(sorted(added - sys.stdlib_module_names - {'skelpot'}))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=subprocess_env(), check=True)
    assert r.stdout == "[]\n"
