import json
import os
import pathlib
from fractions import Fraction

import pytest

import skelpot
from skelpot import MetricGraph, PAFunction


def subprocess_env() -> dict:
    """This process's environment, with the imported skelpot's source
    directory first on PYTHONPATH, so a child interpreter imports the
    same package."""
    env = dict(os.environ)
    src = str(pathlib.Path(skelpot.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    return env


def graph_from(spec: dict, **kw) -> MetricGraph:
    return MetricGraph.from_json_dict(spec, **kw)


@pytest.fixture
def path2():
    """Single edge a--b of length 2, both ends boundary."""
    return graph_from({
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "len": 2, "id": "e"}],
        "boundary": ["a", "b"]})


@pytest.fixture
def unit_edge():
    return graph_from({
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "len": 1, "id": "e"}],
        "boundary": ["a", "b"]})


@pytest.fixture
def star3():
    """Center c with three unit arms, leaves on the boundary."""
    return graph_from({
        "vertices": ["c", "l0", "l1", "l2"],
        "edges": [{"u": "c", "v": f"l{i}", "len": 1, "id": f"a{i}"}
                  for i in range(3)],
        "boundary": ["l0", "l1", "l2"]})


@pytest.fixture
def path3():
    """a -- b -- c, unit edges, ends on the boundary."""
    return graph_from({
        "vertices": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "len": 1, "id": "e0"},
                  {"u": "b", "v": "c", "len": 1, "id": "e1"}],
        "boundary": ["a", "c"]})


def pa(graph, profiles) -> PAFunction:
    conv = {eid: [(Fraction(o), Fraction(v)) for o, v in prof]
            for eid, prof in profiles.items()}
    return PAFunction(graph, conv)


def roundtrip_json(obj):
    return json.loads(json.dumps(obj))
