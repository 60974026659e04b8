"""The graph and function readers against a copy of their ordered shape
checks: every seeded fault, and every pair of faults, must be refused
with the text the reference gives, so the first fault in reading order is
the one named; a valid document must read to the same object."""

import copy
import random

import pytest

from skelpot import GraphError, MetricGraph, PAFunction
from skelpot.graph import Edge, require_shape
from skelpot.randgen import random_graph, random_pa_function
from skelpot.rational import RationalParseError, parse_rational


# -- the reference: the readers' checks as ordered loops ----------------------


def _parsed(value, where):
    """parse_rational(value), its error prefixed with the location."""
    try:
        return parse_rational(value)
    except RationalParseError as exc:
        raise RationalParseError(f"{where}: {exc}") from None


def _reference_graph(d):
    require_shape(isinstance(d, dict), "graph", "a JSON object")
    for key in ("vertices", "edges", "boundary"):
        require_shape(isinstance(d.get(key, []), list), f"graph.{key}",
                      "a JSON list")
    for key in ("vertices", "boundary"):
        for i, vid in enumerate(d.get(key, [])):
            require_shape(isinstance(vid, str), f"graph.{key}[{i}]",
                          "a string")
    edges = d.get("edges", [])
    for i, e in enumerate(edges):
        require_shape(isinstance(e, dict), f"graph.edges[{i}]",
                      "a JSON object")
        for key in ("u", "v", "len"):
            require_shape(key in e, f"graph.edges[{i}].{key}", "present")
        for key in ("id", "u", "v"):
            require_shape(isinstance(e.get(key, ""), str),
                          f"graph.edges[{i}].{key}", "a string")
    edges = [Edge(e.get("id", f"e{i}"), e["u"], e["v"],
                  _parsed(e["len"], f"graph.edges[{i}].len"))
             for i, e in enumerate(edges)]
    return MetricGraph(d.get("vertices", []), edges, d.get("boundary", []))


def _reference_function(d):
    require_shape(isinstance(d, dict), "the top level", "a JSON object")
    graph = _reference_graph(d.get("graph"))
    profiles = d.get("profiles")
    require_shape(isinstance(profiles, dict), "profiles", "a JSON object")
    for eid, prof in profiles.items():
        require_shape(isinstance(prof, list) and all(
            isinstance(bp, list) and len(bp) == 2 for bp in prof),
            f"profiles.{eid}", "a list of [offset, value] pairs")
    return PAFunction(graph, {
        eid: [(_parsed(o, f"profiles.{eid}[{j}][0]"),
               _parsed(v, f"profiles.{eid}[{j}][1]"))
              for j, (o, v) in enumerate(prof)]
        for eid, prof in profiles.items()})


def _outcome(reader, doc):
    """The object read, or the type and text of the error raised."""
    try:
        return reader(doc)
    except (GraphError, RationalParseError) as exc:
        return type(exc).__name__, str(exc)


# -- seeded documents and faults ----------------------------------------------


_DELETE = object()
_NOT_A_STRING = [3, None, ["a"], True]
_NOT_A_LIST = [{}, "a", 3, None]
_NOT_AN_OBJECT = [[], "e", 5, None]


def _graph_faults(d, at=()):
    """(path, replacement or _DELETE) for every fault of a graph dict:
    the graph, its lists, ids and edges of the wrong type, edge keys
    missing."""
    yield from ((at, bad) for bad in _NOT_AN_OBJECT)
    for key in ("vertices", "edges", "boundary"):
        yield at + (key,), _DELETE
        yield from ((at + (key,), bad) for bad in _NOT_A_LIST)
    for key in ("vertices", "boundary"):
        for i in range(len(d[key])):
            yield from ((at + (key, i), bad) for bad in _NOT_A_STRING)
    for i in range(len(d["edges"])):
        yield from ((at + ("edges", i), bad) for bad in _NOT_AN_OBJECT)
        for key in ("id", "u", "v", "len"):
            yield at + ("edges", i, key), _DELETE
            yield from ((at + ("edges", i, key), bad)
                        for bad in _NOT_A_STRING)


def _function_faults(d):
    """The graph's faults under "graph", then the profiles': missing, of
    the wrong type, a pair of the wrong shape, a literal of the wrong
    type, an edge without a profile and a profile without an edge."""
    yield from (((), bad) for bad in _NOT_AN_OBJECT)
    yield ("graph",), _DELETE
    yield from _graph_faults(d["graph"], ("graph",))
    yield ("profiles",), _DELETE
    yield from ((("profiles",), bad) for bad in _NOT_AN_OBJECT)
    for eid, prof in d["profiles"].items():
        at = ("profiles", eid)
        yield at, _DELETE
        yield from ((at, bad) for bad in [5, {}, "x", [["0", "0", "0"]]])
        for j in range(len(prof)):
            yield from ((at + (j,), bad) for bad in [5, ["0"], ["0", 0, 0],
                                                     "0", None])
            for k in (0, 1):
                yield from ((at + (j, k), bad)
                            for bad in [True, 0.5, None, [], "zz"])
    yield ("profiles", "no such edge"), [["0", "0"], ["1", "0"]]


def _has(parent, key) -> bool:
    if isinstance(parent, dict):
        return key in parent
    return isinstance(parent, list) and isinstance(key, int) and \
        key < len(parent)


def _broken(doc, *faults):
    """A copy of doc with each fault applied in turn; None when a later
    fault's location is gone."""
    doc = copy.deepcopy(doc)
    for path, bad in faults:
        if not path:
            doc = copy.deepcopy(bad)
            continue
        parent = doc
        for key in path[:-1]:
            if not _has(parent, key):
                return None
            parent = parent[key]
        key = path[-1]
        if not (_has(parent, key) or
                isinstance(parent, dict) and bad is not _DELETE):
            return None
        if bad is _DELETE:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(bad)
    return doc


def _seeded_functions(seed, count):
    rng = random.Random(seed)
    return [random_pa_function(rng, random_graph(rng, max_vertices=5,
                                                 max_edges=6))
            for _ in range(count)]


_FUNCTIONS = _seeded_functions(71, 4)


def _assert_same(reader, reference, doc):
    want = _outcome(reference, doc)
    assert _outcome(reader, doc) == want, doc
    return want


@pytest.mark.parametrize("f", _FUNCTIONS, ids=range(len(_FUNCTIONS)))
def test_graph_reader_names_each_fault_as_the_reference(f):
    d = f.graph.to_json_dict()
    assert _assert_same(MetricGraph.from_json_dict, _reference_graph,
                        d) == f.graph
    read = [path for path, bad in _graph_faults(d)
            if not isinstance(_assert_same(MetricGraph.from_json_dict,
                                           _reference_graph,
                                           _broken(d, (path, bad))), tuple)]
    # only a missing list, a missing id or an integer length still reads
    assert {path[-1] for path in read} == {"edges", "boundary", "id", "len"}


@pytest.mark.parametrize("f", _FUNCTIONS, ids=range(len(_FUNCTIONS)))
def test_function_reader_names_each_fault_as_the_reference(f):
    d = f.to_json_dict()
    assert _assert_same(PAFunction.from_json_dict, _reference_function,
                        d) == f
    read = [path for path, bad in _function_faults(d)
            if not isinstance(_assert_same(PAFunction.from_json_dict,
                                           _reference_function,
                                           _broken(d, (path, bad))), tuple)]
    assert {path[-1] for path in read} == {"boundary", "id"}


def test_readers_name_the_first_of_two_faults_as_the_reference():
    """Seeded pairs of faults, each pair in both orders of application."""
    rng = random.Random(72)
    cases = 0
    for f in _FUNCTIONS:
        d = f.to_json_dict()
        faults = list(_function_faults(d))
        for _ in range(150):
            pair = rng.sample(faults, 2)
            for doc in (_broken(d, *pair), _broken(d, *pair[::-1])):
                if doc is not None:
                    _assert_same(PAFunction.from_json_dict,
                                 _reference_function, doc)
                    if isinstance(doc, dict) and \
                            isinstance(doc.get("graph"), dict):
                        _assert_same(MetricGraph.from_json_dict,
                                     _reference_graph, doc["graph"])
                    cases += 1
    assert cases > 800


@pytest.mark.parametrize("faults, message", [
    # the lists' types first, then the vertex and boundary ids, then edges
    ([(("edges", 0, "u"), 3), (("boundary",), "a")],
     "graph.boundary must be a JSON list"),
    ([(("edges", 0, "u"), 3), (("boundary", 0), 3)],
     "graph.boundary[0] must be a string"),
    ([(("edges", 1), 5), (("edges", 0, "id"), 3)],
     "graph.edges[0].id must be a string"),
    # in an edge: missing keys first, then the ids' types
    ([(("edges", 0, "u"), 3), (("edges", 0, "len"), _DELETE)],
     "graph.edges[0].len must be present"),
    ([(("edges", 0, "v"), 3), (("edges", 0, "id"), None)],
     "graph.edges[0].id must be a string"),
])
def test_graph_reader_names_the_first_fault(faults, message):
    d = _FUNCTIONS[0].graph.to_json_dict()
    assert len(d["edges"]) > 1
    doc = _broken(d, *faults)
    assert _outcome(MetricGraph.from_json_dict, doc) == \
        _outcome(_reference_graph, doc) == ("GraphError", message)


def test_function_reader_names_a_shape_fault_before_a_literal():
    """A pair of the wrong shape on the last edge is named before a bad
    literal on the first: every profile's shape is checked before any
    literal is read."""
    d = _FUNCTIONS[0].to_json_dict()
    first, *_, last = d["profiles"]
    doc = _broken(d, (("profiles", first, 0, 1), True),
                  (("profiles", last, 0), ["0"]))
    want = ("GraphError",
            f"profiles.{last} must be a list of [offset, value] pairs")
    assert _outcome(PAFunction.from_json_dict, doc) == \
        _outcome(_reference_function, doc) == want
