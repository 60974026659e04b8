"""End-to-end acceptance suite: ten criteria, each printing one summary
line (run with -s or read the captured output).  Criteria 1, 2 and 4-10
run the checks in `skelpot.checks` at full size; `skelpot selftest` runs
the same checks at small sizes.  Every exactness claim is an exact
Fraction equality; float tolerances are stated inline."""

import random
import time
from fractions import Fraction

import pytest

from skelpot import EdgePoint, checks, integrate
from skelpot.randgen import random_graph, random_pa_function
from skelpot.regularize import RegularizationTerm


def _report(num, name, started, limit, detail=""):
    dt = time.perf_counter() - started
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num} {name}: PASS [{dt:.2f}s < {limit:.0f}s]{tail}")
    assert dt < limit, f"criterion {num} exceeded {limit}s ({dt:.2f}s)"


def test_criterion_1_green_exact_values():
    t0 = time.perf_counter()
    checks.green_exact_values()
    _report(1, "green exact values", t0, 1.0, "3 oracle cases")


def test_criterion_2_poisson_formula():
    t0 = time.perf_counter()
    checked = checks.poisson_formula(random.Random(2001), graphs=50,
                                     max_vertices=12, max_edges=18)
    _report(2, "Poisson formula", t0, 30.0,
            f"50 graphs, {checked} evaluations")


def test_criterion_3_pairing_symmetry():
    t0 = time.perf_counter()
    rng = random.Random(3001)
    for _ in range(20):
        g = random_graph(rng)
        for _ in range(100):
            f1 = random_pa_function(rng, g)
            f2 = random_pa_function(rng, g)
            assert integrate(f1, f2.ddc()) == integrate(f2, f1.ddc())
    _report(3, "pairing symmetry", t0, 30.0, "20 graphs x 100 pairs")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    failures = checks.oracle_equivalence(random.Random(4001), functions=200,
                                         max_vertices=8, max_edges=12)
    _report(4, "subharmonicity oracle equivalence", t0, 60.0,
            f"200 functions, {failures} negative verdicts")


def test_criterion_5_maximum_principle():
    t0 = time.perf_counter()
    checks.maximum_principle(random.Random(5001), functions=50,
                             max_vertices=10, max_edges=14)
    _report(5, "maximum principle", t0, 30.0, "50 functions, exact")


def test_criterion_6_smooth_max_axioms():
    t0 = time.perf_counter()
    dropouts = checks.smooth_max_axioms(random.Random(6001), pairs=10 ** 4,
                                        tuples=10 ** 4)
    _report(6, "smooth max axioms", t0, 10.0,
            f"10^4 pair tuples + 10^4 n-ary, {dropouts} bit-exact drop-outs")


def test_criterion_7_monotone_regularization():
    t0 = time.perf_counter()
    checks.monotone_regularization(random.Random(7001), functions=20,
                                   max_vertices=7, max_edges=9, n_terms=10,
                                   per_edge=16)
    _report(7, "monotone regularization", t0, 60.0,
            "20 functions, k = 0..9")


def test_criterion_7_catches_values_below_f(monkeypatch):
    """A term lowered by 10^-12 on every star arc falls below f, which the
    theorem rules out: the exact sup bound fails at k = 0."""
    value = RegularizationTerm.value

    def lowered(self, p):
        v = value(self, p)
        return v - Fraction(1, 10 ** 12) if (
            isinstance(p, EdgePoint) and p.edge in self.cone) else v

    monkeypatch.setattr(RegularizationTerm, "value", lowered)
    with pytest.raises(checks.CheckFailed, match="sup bound at k=0"):
        checks.monotone_regularization(random.Random(7001), functions=3,
                                       max_vertices=6, max_edges=8,
                                       n_terms=4, per_edge=8)


def test_criterion_8_rationalization():
    t0 = time.perf_counter()
    checks.rationalization(random.Random(8001), inputs=25, max_vertices=7,
                           max_edges=9)
    _report(8, "rationalization certificates", t0, 30.0,
            "25 perturbed inputs, margin >= 10*tol*massbound")


def test_criterion_9_tent_decomposition():
    t0 = time.perf_counter()
    checks.tent_decomposition(random.Random(9001), stars=100)
    _report(9, "tent decomposition", t0, 30.0,
            "100 stars of degree <= 6, exact")


def test_criterion_10_superform_identities():
    t0 = time.perf_counter()
    checked = checks.superform_identities(random.Random(10001),
                                          forms=10 ** 3, hessians=10 ** 3)
    _report(10, "superform identities", t0, 60.0,
            f"10^3 random forms + {checked} positivity samples")
