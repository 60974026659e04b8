from fractions import Fraction

import pytest

from skelpot import (Edge, EdgePoint, GraphError, MetricGraph, PAFunction,
                     Vertex, dirichlet_solve)

from conftest import graph_from, roundtrip_json


def test_validate_minimal_graph_clean(unit_edge):
    assert unit_edge.validate() == []


def test_validate_reports_nonpositive_length():
    with pytest.raises(GraphError) as info:
        MetricGraph(["a", "b"], [Edge("e0", "a", "b", Fraction(0))], ["a"])
    assert str(info.value) == "edge e0: non-positive length 0"


def test_validate_reports_unknown_boundary():
    with pytest.raises(GraphError) as info:
        MetricGraph(["a", "b"], [Edge("e0", "a", "b", Fraction(1))], ["z"])
    assert str(info.value) == "boundary vertices ['z'] are not vertices"


def test_constructor_rejects_invalid():
    with pytest.raises(GraphError):
        MetricGraph(["a", "b"], [Edge("e0", "a", "b", Fraction(-1))], ["a"])
    # ids of mixed types would not sort: every one that is not a str is
    # named before the sort
    with pytest.raises(GraphError) as info:
        MetricGraph([1, "a", None], [], [])
    assert str(info.value) == "vertex ids [1, None] are not strings"
    for edges, boundary, text in (
            ([Edge(1, "a", "b", 1), Edge("x", "a", "b", 1)], ["a"],
             "edge ids [1] are not strings"),
            ([Edge("e", "a", "b", 1)], [1, None],
             "boundary ids [1, None] are not strings"),
            ([Edge("e", 1, None, 1)], ["a"], "edge e: endpoint 1 is not a "
             "vertex; edge e: endpoint None is not a vertex"),
            # an unhashable endpoint is named before the incidence lookup
            ([Edge("e", ["a"], "b", 1)], ["a"],
             "edge e: endpoint ['a'] is not a vertex"),
            ([Edge("f", "a", "b", 1), Edge("e", "a", {"b": 1}, 1)], ["a"],
             "edge e: endpoint {'b': 1} is not a vertex")):
        with pytest.raises(GraphError) as info:
            MetricGraph(["a", "b"], edges, boundary)
        assert str(info.value) == text


def test_loops_and_parallel_edges_are_accepted():
    """Every graph is a multigraph: a self-loop has two ends at its
    vertex, and a repeated endpoint pair is read as given, by the
    constructor and the JSON reader alike."""
    loop = [Edge("e0", "a", "a", Fraction(1))]
    parallel = [Edge("e0", "a", "b", Fraction(1)),
                Edge("e1", "b", "a", Fraction(2))]
    g = MetricGraph(["a"], loop, ["a"])
    assert g.validate() == []
    assert len(g.incident_ends("a")) == 2
    g = MetricGraph(["a", "b"], parallel, ["a"])
    assert len(g.edges) == 2 and len(g.incident_ends("b")) == 2
    assert g.distance(Vertex("a"), Vertex("b")) == 1
    assert MetricGraph.from_json_dict(g.to_json_dict()) == g


@pytest.mark.parametrize("length, fault", [
    (1, None),
    (0.5, "edge e: length 0.5 is not an int or a Fraction"),
    (True, "edge e: length True is not an int or a Fraction"),
    ("1/2", "edge e: length '1/2' is not an int or a Fraction"),
])
def test_edge_lengths_are_fractions(length, fault):
    """An int length becomes a Fraction, so every profile built from it
    has Fraction offsets (the tents' are checked in test_rationalize);
    any other length that is not a Fraction (a float, a bool, a string)
    is refused with the edge named, listed with the graph's other
    faults."""
    edges = [Edge("e", "a", "b", length)]
    if fault is not None:
        with pytest.raises(GraphError) as info:
            MetricGraph(["a", "b"], edges, ["z"])
        assert str(info.value) == \
            f"{fault}; boundary vertices ['z'] are not vertices"
        return
    g = MetricGraph(["a", "b"], edges, ["a"])
    assert type(g.edge("e").length) is Fraction
    for f in (PAFunction.constant(g, 1), dirichlet_solve(g, {"a": 0})):
        assert {type(o) for o, _ in f.profiles["e"]} == {Fraction}


@pytest.mark.parametrize("offset, fault", [
    (Fraction(1, 2), None),
    (1, None),
    (0.5, "edge e: offset 0.5 is not an int or a Fraction"),
    (True, "edge e: offset True is not an int or a Fraction"),
    ("1/2", "edge e: offset '1/2' is not an int or a Fraction"),
])
def test_edge_point_offsets_are_fractions(offset, fault):
    """An int offset becomes a Fraction and a Fraction is kept as it is;
    any other offset (a float, a bool, a string) is refused with the
    edge named, before it reaches a solve or an evaluation."""
    if fault is not None:
        with pytest.raises(GraphError) as info:
            EdgePoint("e", offset)
        assert str(info.value) == fault
        return
    p = EdgePoint("e", offset)
    assert type(p.offset) is Fraction and p.offset == offset
    if type(offset) is Fraction:
        assert p.offset is offset


def test_star_counts(star3, unit_edge):
    assert len(star3.star(Vertex("c"))) == 3
    assert len(unit_edge.star(EdgePoint("e", Fraction(1, 2)))) == 2
    assert len(star3.star(Vertex("l0"))) == 1


def test_star_rejects_off_graph(unit_edge):
    with pytest.raises(GraphError):
        unit_edge.star(Vertex("zzz"))
    with pytest.raises(GraphError):
        unit_edge.star(EdgePoint("e", Fraction(3)))


def test_subdivide_splits_lengths(path2):
    g2, vid = path2.subdivide(EdgePoint("e", Fraction(1)))
    lens = sorted(e.length for e in g2.edges)
    assert lens == [Fraction(1), Fraction(1)]
    assert vid in g2.vertices


def test_subdivide_uneven():
    g = graph_from({"vertices": ["a", "b"],
                    "edges": [{"u": "a", "v": "b", "len": 3, "id": "e"}],
                    "boundary": ["a"]})
    g2, _ = g.subdivide(EdgePoint("e", Fraction(1, 2)))
    assert sorted(e.length for e in g2.edges) == [Fraction(1, 2),
                                                  Fraction(5, 2)]


def test_subdivide_twice_matches_direct_split():
    g = graph_from({"vertices": ["a", "b"],
                    "edges": [{"u": "a", "v": "b", "len": 1, "id": "e"}],
                    "boundary": ["a"]})
    g1, _ = g.subdivide(EdgePoint("e", Fraction(1, 3)))
    right = next(e for e in g1.edges if e.id == "e.r")
    g2, _ = g1.subdivide(EdgePoint(right.id, Fraction(1, 3)))
    assert sorted(e.length for e in g2.edges) == \
        [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]


def test_subdivide_rejects_vertex(unit_edge):
    with pytest.raises(GraphError):
        unit_edge.subdivide(Vertex("a"))


def test_subdivide_preserves_total_length_and_metric(path3):
    p = Vertex("a")
    q = EdgePoint("e1", Fraction(1, 4))
    before = path3.distance(p, q)
    g2, _ = path3.subdivide(EdgePoint("e0", Fraction(2, 7)))
    assert sum(e.length for e in g2.edges) == \
        sum(e.length for e in path3.edges)
    assert g2.distance(p, q) == before


def test_distance_same_edge_and_across(path3):
    assert path3.distance(EdgePoint("e0", Fraction(1, 4)),
                          EdgePoint("e0", Fraction(3, 4))) == Fraction(1, 2)
    assert path3.distance(Vertex("a"), Vertex("c")) == 2
    assert path3.distance(EdgePoint("e0", Fraction(1, 2)),
                          EdgePoint("e1", Fraction(1, 2))) == 1
    apart = MetricGraph(["a", "b", "c"], [Edge("e0", "a", "b", 1)], ["a"])
    with pytest.raises(GraphError, match="points lie in different components"):
        apart.distance(Vertex("a"), Vertex("c"))


def test_distance_takes_shortcut():
    g = graph_from({"vertices": ["a", "b", "c"],
                    "edges": [{"u": "a", "v": "b", "len": 1, "id": "e0"},
                              {"u": "b", "v": "c", "len": 1, "id": "e1"},
                              {"u": "a", "v": "c", "len": 10, "id": "e2"}],
                    "boundary": ["a"]})
    assert g.distance(Vertex("a"), Vertex("c")) == 2


def test_json_roundtrip(path3):
    d = roundtrip_json(path3.to_json_dict())
    assert MetricGraph.from_json_dict(d) == path3


def test_edge_id_defaulting():
    g = graph_from({"vertices": ["a", "b"],
                    "edges": [{"u": "a", "v": "b", "len": "3/2"}],
                    "boundary": ["a"]})
    assert g.edges[0].id == "e0"
    assert g.edges[0].length == Fraction(3, 2)
    with pytest.raises(GraphError) as info:
        g.edge("e1")
    assert str(info.value) == "unknown edge id 'e1'"


def test_normalize_point(unit_edge):
    assert unit_edge.normalize_point(EdgePoint("e", Fraction(0))) == \
        Vertex("a")
    assert unit_edge.normalize_point(EdgePoint("e", Fraction(1))) == \
        Vertex("b")
    inner = EdgePoint("e", Fraction(1, 3))
    assert unit_edge.normalize_point(inner) == inner


_AB = {"vertices": ["a", "b"], "boundary": ["a"]}


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "graph must be a JSON object"),
    (dict(_AB, vertices="ab"), "graph.vertices must be a JSON list"),
    (dict(_AB, edges={"e": 1}), "graph.edges must be a JSON list"),
    (dict(_AB, boundary=[["a"]]), "graph.boundary[0] must be a string"),
    (dict(_AB, edges=[["a", "b", "1"]]), "graph.edges[0] must be a JSON object"),
    (dict(_AB, edges=[{"u": "a", "len": "1"}]),
     "graph.edges[0].v must be present"),
    (dict(_AB, edges=[{"u": "a", "v": "b", "len": "1"}, {"u": "a", "v": "b"}]),
     "graph.edges[1].len must be present"),
    (dict(_AB, edges=[{"id": 0, "u": "a", "v": "b", "len": "1"}]),
     "graph.edges[0].id must be a string"),
    (dict(_AB, vertices=["c", "a", "b", "c", "a", "c"]),
     "duplicate vertex id a; duplicate vertex id c"),
    (dict(_AB, edges=[{"u": "q", "v": "a", "len": "1"},
                      {"u": "q", "v": "p", "len": "1", "id": "f"}]),
     "edge e0: endpoint q is not a vertex; "
     "edge f: endpoint p is not a vertex; edge f: endpoint q is not a vertex"),
    (dict(_AB, boundary=["z", "a", "y"]),
     "boundary vertices ['y', 'z'] are not vertices"),
])
def test_graph_reader_refuses_malformed_shapes(doc, message):
    """The library reader refuses each shape the CLI refuses, with a
    GraphError naming the location."""
    with pytest.raises(GraphError) as exc:
        MetricGraph.from_json_dict(doc)
    assert str(exc.value) == message
