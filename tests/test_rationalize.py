from fractions import Fraction

import pytest

from skelpot import (Edge, EdgePoint, GraphError, MetricGraph, PAFunction,
                     Vertex, green, integrate)
from skelpot.rationalize import (RationalizationError, rationalize,
                                 tent_decompose, tent_reconstruction)

from conftest import graph_from, pa, roundtrip_json

F = Fraction


# ---------------------------------------------------------------------------
# rationalize: snapping + certificate
# ---------------------------------------------------------------------------

def test_already_rational_is_fixed_point(path3):
    g = path3
    # f peaked at b; G = exact Green function for pole b (kink-free here).
    f = pa(g, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    g_in = green(g, Vertex("b")).result
    cert = rationalize(f, g_in, F(1, 100))
    assert cert.ok
    assert cert.output.profiles == g_in.profiles
    assert cert.pairing == cert.pairing_input == integrate(f, g_in.ddc())
    assert cert.pairing < 0
    assert all(entry["pass"] for entry in cert.checks.values())


def test_perturbed_values_snap_back(path3):
    g = path3
    f = pa(g, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    exact = green(g, Vertex("b")).result
    noise = F(3, 10**7)
    g_in = pa(g, {
        "e0": [(0, 0), (1, exact.vertex_value("b") + noise)],
        "e1": [(0, exact.vertex_value("b") + noise), (1, 0)],
    })
    cert = rationalize(f, g_in, F(1, 1000))
    assert cert.ok
    # Snapping with denominator <= 1000 recovers the exact value 1/2.
    assert cert.output.vertex_value("b") == exact.vertex_value("b")
    assert cert.pairing == integrate(f, exact.ddc())
    assert cert.pairing < 0


def test_perturbed_kink_offset_snaps():
    g = graph_from({
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "u": "a", "v": "b", "len": 1}],
        "boundary": ["a", "b"],
    })
    f = pa(g, {"e": [(0, 0), (F(1, 2), 1), (1, 0)]})
    # Interior kink of the candidate sits just off 1/2.
    g_in = pa(g, {"e": [(0, 0), (F(1, 2) + F(1, 10**9), F(1, 4)), (1, 0)]})
    cert = rationalize(f, g_in, F(1, 100))
    assert cert.ok
    (o, v) = cert.output.profiles["e"][1]
    assert o == F(1, 2) and v == F(1, 4)
    assert cert.checks["kinks_rational"]["max_offset_snap"] == "1/1000000000"
    assert cert.pairing < 0


def test_interior_positivity_enforced_on_tiny_values(path3):
    g = path3
    f = pa(g, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    # Positive but below the snapping grid: must be bumped to 1/max_den,
    # never rounded down to 0.
    g_in = pa(g, {"e0": [(0, 0), (1, F(1, 10**8))],
                  "e1": [(0, F(1, 10**8)), (1, 0)]})
    cert = rationalize(f, g_in, F(1, 100))
    assert cert.output.vertex_value("b") == F(1, 100)
    assert cert.checks["interior_positive"]["pass"]


def test_nonpositive_interior_witnesses_are_point_json(path3):
    g = path3
    f = pa(g, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    g_in = pa(g, {"e0": [(0, 0), (F(1, 2), F(-1, 3)), (1, F(1, 2))],
                  "e1": [(0, F(1, 2)), (1, 0)]})
    check = rationalize(f, g_in, F(1, 100)).checks["interior_positive"]
    assert check == {"pass": False,
                     "witnesses": [{"edge": "e0", "offset": "1/2"}]}


def test_boundary_pinned_to_zero(path3):
    g = path3
    f = pa(g, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    g_in = pa(g, {"e0": [(0, F(1, 10**7)), (1, F(1, 2))],
                  "e1": [(0, F(1, 2)), (1, -F(1, 10**7))]})
    cert = rationalize(f, g_in, F(1, 100))
    assert cert.output.vertex_value("a") == 0
    assert cert.output.vertex_value("c") == 0
    assert cert.checks["boundary_zero"]["pass"]


def test_positive_pairing_yields_not_ok(path3):
    g = path3
    # f is a valley at b: pairing against the Green kink is positive.
    f = pa(g, {"e0": [(0, 0), (1, -1)], "e1": [(0, -1), (1, 0)]})
    g_in = green(g, Vertex("b")).result
    cert = rationalize(f, g_in, F(1, 100))
    assert not cert.ok
    assert cert.pairing > 0
    assert not cert.checks["pairing_negative"]["pass"]


def test_tol_too_coarse_raises():
    g = graph_from({
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "u": "a", "v": "b", "len": 1}],
        "boundary": ["a", "b"],
    })
    # Two interior kinks 1/1000 apart collide when snapped to denominator 10.
    g_in = pa(g, {"e": [(0, 0), (F(499, 1000), F(1, 4)),
                        (F(501, 1000), F(1, 4)), (1, 0)]})
    f = pa(g, {"e": [(0, 0), (F(1, 2), 1), (1, 0)]})
    with pytest.raises(RationalizationError):
        rationalize(f, g_in, F(1, 10))


def test_certificate_checks_are_rederivable(path3):
    g = path3
    f = pa(g, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    g_in = green(g, Vertex("b")).result
    cert = rationalize(f, g_in, F(1, 100))
    # The stated pairing must equal an independent exact recomputation on
    # the emitted output, and the verdict must follow from the checks.
    assert cert.pairing == integrate(f, cert.output.ddc())
    assert cert.ok == (cert.checks["pairing_negative"]["pass"]
                       and cert.checks["interior_positive"]["pass"])
    blob = roundtrip_json(cert.to_json_dict())
    assert set(blob) == {"ok", "pairing", "pairing_input", "checks", "output"}


def test_verdict_is_the_and_of_every_check(path3):
    g = path3
    peak = pa(g, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    valley = pa(g, {"e0": [(0, 0), (1, -1)], "e1": [(0, -1), (1, 0)]})
    half = F(1, 2) + F(7, 10**7)
    candidates = [
        green(g, Vertex("b")).result,
        pa(g, {"e0": [(0, 0), (1, half)], "e1": [(0, half), (1, 0)]}),
        pa(g, {"e0": [(0, 0), (1, F(1, 10**8))],
               "e1": [(0, F(1, 10**8)), (1, 0)]}),
        pa(g, {"e0": [(0, F(1, 10**7)), (1, F(1, 2))],
               "e1": [(0, F(1, 2)), (1, -F(1, 10**7))]}),
    ]
    verdicts = set()
    for f in (peak, valley):
        for g_in in candidates:
            for tol in (F(1, 100), F(1, 1000)):
                cert = rationalize(f, g_in, tol)
                assert cert.ok == all(c["pass"] for c in cert.checks.values())
                assert cert.checks["boundary_zero"]["pass"]
                assert cert.checks["pairing_bound"]["pass"]
                verdicts.add(cert.ok)
    assert verdicts == {True, False}


def test_continuity_bound_recorded(path3):
    g = path3
    f = pa(g, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    noise = F(7, 10**7)
    g_in = pa(g, {"e0": [(0, 0), (1, F(1, 2) + noise)],
                  "e1": [(0, F(1, 2) + noise), (1, 0)]})
    cert = rationalize(f, g_in, F(1, 1000))
    drift = abs(cert.pairing - cert.pairing_input)
    from skelpot.rational import parse_rational
    assert drift <= parse_rational(cert.checks["pairing_bound"]["bound"])


def test_decimal_json_input_parses_exactly():
    gdict = {
        "vertices": ["a", "b", "c"],
        "edges": [{"id": "e0", "u": "a", "v": "b", "len": "1"},
                  {"id": "e1", "u": "b", "v": "c", "len": "1"}],
        "boundary": ["a", "c"],
    }
    fdict = {
        "graph": gdict,
        "profiles": {"e0": [["0", "0"], ["1", "0.4999999"]],
                     "e1": [["0", "0.4999999"], ["1", "0"]]},
    }
    g_in = PAFunction.from_json_dict(fdict)
    assert g_in.vertex_value("b") == F(4999999, 10**7)
    f = pa(g_in.graph, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    cert = rationalize(f, g_in, F(1, 1000))
    assert cert.ok
    assert cert.output.vertex_value("b") == F(1, 2)


@pytest.mark.parametrize("bad", [0.01, "1/100", True])
def test_rejects_a_tol_that_is_not_exact(path3, bad):
    """A float, a str or a bool tol is refused; an int is a Fraction."""
    f = pa(path3, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    g_in = green(path3, Vertex("b")).result
    with pytest.raises(GraphError) as exc:
        rationalize(f, g_in, bad)
    assert str(exc.value) == f"tol {bad!r} is not an int or a Fraction"
    assert rationalize(f, g_in, 1).to_json_dict() == \
        rationalize(f, g_in, F(1)).to_json_dict()


def test_rejects_invalid_inputs(path3):
    f = pa(path3, {"e0": [(0, 0), (1, 1)], "e1": [(0, 1), (1, 0)]})
    g_in = green(path3, Vertex("b")).result
    with pytest.raises(ValueError):
        rationalize(f, g_in, F(0))
    other = graph_from({
        "vertices": ["a", "b", "c"],
        "edges": [{"id": "e0", "u": "a", "v": "b", "len": 2},
                  {"id": "e1", "u": "b", "v": "c", "len": 1}],
        "boundary": ["a", "c"],
    })
    f2 = pa(other, {"e0": [(0, 0), (2, 1)], "e1": [(0, 1), (1, 0)]})
    with pytest.raises(GraphError):
        rationalize(f2, g_in, F(1, 100))
    free = PAFunction.constant(graph_from({**path3.to_json_dict(),
                                           "boundary": []}), 0)
    with pytest.raises(GraphError, match="empty boundary"):
        rationalize(free, free, F(1, 100))


# ---------------------------------------------------------------------------
# tent decomposition
# ---------------------------------------------------------------------------

def _checked_tent(g, eid, sgn):
    """The tent of sign sgn on edge eid as the checked constructor builds
    it from list profiles: peak sgn * length/2 at the midpoint, 0 on
    every other edge."""
    return PAFunction(g, {
        e.id: [(0, 0), (e.length / 2, sgn * e.length / 2), (e.length, 0)]
        if e.id == eid else [(0, 0), (e.length, 0)] for e in g.edges})


def test_tents_on_star_reconstruct_inner_half_star(star3):
    # Slopes leaving c: +2 on all three arms.
    f = pa(star3, {f"a{i}": [(0, 1), (1, 3)] for i in range(3)})
    coeffs, tents, const = tent_decompose(f, "c")
    assert const == 1
    assert coeffs == [F(2)] * 3
    assert tents == [_checked_tent(star3, f"a{i}", 1) for i in range(3)]
    rec = tent_reconstruction(coeffs, tents, const, star3)
    for e in star3.edges:
        for k in range(0, 9):
            p = star3.normalize_point(EdgePoint(e.id, F(k, 16)))
            assert rec.eval(p) == f.eval(p)
    # The reconstruction carries the same ddc mass at the center.
    assert rec.ddc().mass_at(Vertex("c")) == f.ddc().mass_at(Vertex("c"))


def test_tent_shape_and_signs(star3):
    f = pa(star3, {"a0": [(0, 0), (1, 1)],
                   "a1": [(0, 0), (1, -3)],
                   "a2": [(0, 0), (1, 0)]})
    coeffs, tents, const = tent_decompose(f, "c")
    assert const == 0
    assert coeffs == [F(1), F(3)]  # zero-slope arm contributes no tent
    up, down = tents
    assert up == _checked_tent(star3, "a0", 1)
    assert down == _checked_tent(star3, "a1", -1)
    # Peak height sgn(slope) * length/2 at the arc midpoint, zero elsewhere.
    assert up.eval(EdgePoint("a0", F(1, 2))) == F(1, 2)
    assert down.eval(EdgePoint("a1", F(1, 2))) == -F(1, 2)
    assert up.eval(EdgePoint("a1", F(1, 2))) == 0
    assert up.eval(Vertex("l0")) == 0 and up.eval(Vertex("c")) == 0


def test_tent_center_mass_matches(star3):
    f = pa(star3, {"a0": [(0, 2), (1, 5)],
                   "a1": [(0, 2), (1, 1)],
                   "a2": [(0, 2), (1, 2)]})
    coeffs, tents, const = tent_decompose(f, "c")
    assert tents == [_checked_tent(star3, "a0", 1),
                     _checked_tent(star3, "a1", -1)]
    rec = tent_reconstruction(coeffs, tents, const, star3)
    assert rec.ddc().mass_at(Vertex("c")) == f.ddc().mass_at(Vertex("c")) == 2


def test_tent_peak_is_exact_on_integer_lengths():
    """An Edge may be given an int length; every breakpoint of a tent,
    its ends included, is still a pair of Fractions, never the floats of
    length / 2 or the int length."""
    g = MetricGraph(vertices=["a", "b", "c"],
                    edges=[Edge("e", "a", "b", 1), Edge("f", "b", "c", 3)],
                    boundary=["a", "c"])
    f = pa(g, {"e": [(0, 0), (1, 1)], "f": [(0, 1), (3, 0)]})
    coeffs, tents, const = tent_decompose(f, "b")
    assert coeffs == [1, F(1, 3)] and const == 1
    assert tents == [_checked_tent(g, "e", -1), _checked_tent(g, "f", -1)]
    assert {type(x) for t, eid in zip(tents, "ef")
            for bp in t.profiles[eid] for x in bp} == {Fraction}


def test_tent_decompose_errors(star3, unit_edge):
    f = pa(star3, {f"a{i}": [(0, 0), (1, 1)] for i in range(3)})
    with pytest.raises(GraphError):
        tent_decompose(f, "l0")  # boundary center
    with pytest.raises(GraphError):
        tent_decompose(f, "zz")  # unknown vertex
    kinked = pa(star3, {"a0": [(0, 0), (F(1, 4), 1), (1, 1)],
                        "a1": [(0, 0), (1, 1)],
                        "a2": [(0, 0), (1, 1)]})
    with pytest.raises(GraphError):
        tent_decompose(kinked, "c")  # not affine on an adjacent edge
    loop = MetricGraph(vertices=["a", "b"],
                       edges=[Edge("e", "a", "a", F(1)),
                              Edge("f", "a", "b", F(1))],
                       boundary=["b"])
    fl = pa(loop, {"e": [(0, 0), (1, 0)], "f": [(0, 0), (1, 0)]})
    with pytest.raises(GraphError):
        tent_decompose(fl, "a")  # self-loop at the center
