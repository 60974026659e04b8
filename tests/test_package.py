"""The package as a whole: the names `skelpot` exports, written out so
that an addition or a removal shows in review, no import in the sources
or the tests that nothing reads, no test module that imports another,
and no float in the library outside the definitions that round or test
with floats, no coercion to a Fraction outside the definitions written
down for it, one point rule for every public callable that takes a
point or a direction, and one rule for counts and degrees."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import typing
from fractions import Fraction

import pytest

import skelpot
from skelpot.graph import (Edge, EdgePoint, GraphError, GraphPoint,
                           MetricGraph, TangentDirection, Vertex)
from skelpot.pa_function import DiscreteMeasure, PAFunction
from skelpot.potential import dirichlet_solve
from skelpot.regularize import (RegularizationTerm, build_regularization,
                                sample_points)
from skelpot.superforms import BidegreeError, Poly, SuperForm, parse_form

ROOT = pathlib.Path(__file__).parent.parent

PUBLIC_API = [
    "AffineMap", "DiscreteMeasure", "Edge", "EdgePoint", "GraphError",
    "GreenFunction", "GreenVerdict", "MetricGraph", "NotHarmonicError",
    "NotSubharmonicError", "PAFunction", "Poly", "RationalParseError",
    "RationalizationCertificate", "RationalizationError",
    "RegularizationSequence", "SingularMatrixError", "SlopeVerdict",
    "SuperForm", "TangentDirection", "Vertex",
    "build_regularization", "d_prime", "d_second", "dirichlet_solve",
    "eval_smoothed", "evaluation_formula_check", "format_form",
    "format_rational", "graph", "green", "green_to_json_dict",
    "hessian_form", "integrate", "is_positive_11",
    "is_psd_exact", "is_subharmonic_green", "j_involution", "linalg",
    "linear_combine", "local_green_pairing", "maximum_principle_check",
    "pa_function", "parse_form", "parse_rational", "point_sort_key",
    "point_to_json", "poisson", "potential", "pullback", "rational",
    "rationalize", "regularize", "sample_points", "smooth_max",
    "smooth_max_n", "solve_exact", "superforms", "tent_decompose",
    "tent_reconstruction", "theta", "wedge",
]


def test_public_api_is_the_written_list():
    assert sorted(skelpot.__all__) == PUBLIC_API


# `importer <- module.name` for each underscore name that one skelpot
# module takes from another, written out so that a new one shows in
# review
PRIVATE_IMPORTS = [
    "potential <- pa_function._lcm_sum",
    "potential <- pa_function._slope_measure",
    "potential <- pa_function._slope_pairs",
    "rationalize <- pa_function._slopes",
    "regularize <- graph._count",
    "superforms <- graph._count",
    "superforms <- linalg._psd",
]


def _private_imports(path: pathlib.Path) -> list[str]:
    """`importer <- module.name` for each underscore name the file takes
    from a sibling module: imported by name, or read off a module it
    imports as `from . import module`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, hits = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    hits.append(f"{node.module}.{alias.name}")
    hits += [f"{modules[node.value.id]}.{node.attr}"
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id in modules and node.attr.startswith("_")]
    return [f"{path.stem} <- {hit}" for hit in hits]


def test_private_imports_are_the_written_list():
    sources = sorted((ROOT / "src" / "skelpot").glob("*.py"))
    assert sorted(hit for p in sources
                  for hit in _private_imports(p)) == PRIVATE_IMPORTS


def test_trusted_measure_constructor_stays_in_pa_function():
    """DiscreteMeasure._of skips the canonical form, so only ddc, whose
    support is canonical by construction, may call it: no other file of
    the package or the tests names it."""
    paths = [*(ROOT / "src" / "skelpot").glob("*.py"),
             *(ROOT / "tests").glob("*.py")]
    texts = {p.name: text for p in paths
             if "DiscreteMeasure" in (text := p.read_text(encoding="utf-8"))}
    users = {name for name, text in texts.items()
             for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Attribute) and node.attr == "_of"
             and isinstance(node.value, ast.Name)
             and node.value.id == "DiscreteMeasure"}
    assert users == {"pa_function.py"}


def _unread_imports(path: pathlib.Path) -> list[str]:
    """`file:line: name` for each name the file imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in read]


def test_test_modules_import_no_other_test_module():
    """Shared helpers and references live in conftest, so that a kernel
    has one reference: no tests/test_*.py imports another test module."""
    tests = sorted((ROOT / "tests").glob("test_*.py"))
    modules = {p.stem for p in tests}
    hits = []
    for p in tests:
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            hits += [f"{p.name}:{node.lineno}: {name}" for name in names
                     if modules & set(name.split("."))]
    assert hits == []


def test_no_unread_imports():
    """The package's __init__ imports only to export, so it is left out."""
    sources = [p for p in sorted((ROOT / "src" / "skelpot").glob("*.py"))
               if p.name != "__init__.py"]
    sources += sorted((ROOT / "tests").glob("*.py"))
    assert [hit for p in sources for hit in _unread_imports(p)] == []


# top-level definitions where a float may appear: the one that rounds an
# exact value for output, and the checks that draw float test inputs and
# state float tolerances
FLOAT_SCOPES = {
    "regularize.eval_smoothed", "checks.smooth_max_axioms",
    "checks.superform_identities",
}


def _floats(path: pathlib.Path) -> list[str]:
    """`module.definition:line: what` for each float literal and each
    use of the name `float` in the file outside FLOAT_SCOPES."""
    module, hits = path.stem, []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        scope = module + "." + getattr(top, "name", "<module>")
        if scope in FLOAT_SCOPES:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                hits.append(f"{scope}:{node.lineno}: {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                hits.append(f"{scope}:{node.lineno}: float")
    return hits


def test_floats_only_where_values_are_rounded():
    """The library's arithmetic is exact: no float literal and no
    `float` outside the definitions in FLOAT_SCOPES."""
    sources = sorted((ROOT / "src" / "skelpot").glob("*.py"))
    assert [hit for p in sources for hit in _floats(p)] == []


# definitions that may call Fraction(x) on one argument that is not a
# literal: the gate every caller's number passes (graph.exact), the graph
# constructor, which lists every fault of a graph in one message, the
# reader and printer of rational literals, and the smooth maxes, which
# work over any ordered field
COERCIONS = {
    "graph.exact", "graph.MetricGraph.__init__",
    "rational.parse_rational", "rational.format_rational",
    "regularize.theta", "regularize.smooth_max_n",
}


def _is_literal(node: ast.expr) -> bool:
    """Whether node is a literal such as 0, "1/2" or -1."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant)


def _coercions(path: pathlib.Path) -> list[str]:
    """`module.definition:line` for each call Fraction(x) in the file,
    under any name it is imported or bound as, with x one argument that
    is not a literal, outside COERCIONS; a definition is a top-level
    function or class, or a method of a top-level class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "fractions"
             for alias in node.names if alias.name == "Fraction"}
    names |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Name) and node.value.id in names
              for target in node.targets if isinstance(target, ast.Name)}
    hits = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and \
                    isinstance(node, (ast.Module, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in names
                    and len(child.args) == 1 and not child.keywords
                    and not isinstance(child.args[0], ast.Starred)
                    and not _is_literal(child.args[0])
                    and scope not in COERCIONS):
                hits.append(f"{scope}:{child.lineno}")
            visit(child, scope)

    visit(tree, path.stem)
    return hits


def test_fractions_made_only_where_written():
    """A caller's number enters exact code through graph.exact, which
    refuses a float, a str and a bool: no other definition outside
    COERCIONS calls Fraction(x) on a value x that is not a literal."""
    sources = sorted((ROOT / "src" / "skelpot").glob("*.py"))
    assert [hit for p in sources for hit in _coercions(p)] == []


POINT_KINDS = (GraphPoint, EdgePoint, TangentDirection)


def _point_callables() -> list[tuple[str, object, type | None, list[str]]]:
    """(name, function, its class or None, its point parameters) for every
    public function and public method of a public class in the package
    with a parameter annotated GraphPoint, EdgePoint or TangentDirection."""
    found = []
    for info in pkgutil.iter_modules(skelpot.__path__):
        module = importlib.import_module(f"skelpot.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or \
                    getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                members = [(name, obj, None)]
            elif inspect.isclass(obj):
                members = [(f"{name}.{k}", v, obj)
                           for k, v in vars(obj).items()
                           if not k.startswith("_") and inspect.isfunction(v)]
            else:
                continue
            for qualname, fn, cls in members:
                hints = typing.get_type_hints(fn)
                hints.pop("return", None)
                if points := [k for k, h in hints.items() if h in POINT_KINDS]:
                    found.append((qualname, fn, cls, points))
    return found


@pytest.mark.parametrize("bad", ["b", None, 1, ("e0", 1)],
                         ids=["str", "None", "int", "tuple"])
def test_every_point_parameter_refuses_a_non_point(bad):
    """Each public callable with a point or direction parameter, called
    with that parameter set to a value that is neither, raises GraphError
    naming the value; contains_point answers False.  The callables are
    found by their annotations, so a new one is checked as it is added;
    its other parameters are filled by annotation from the table below,
    which a new parameter type must join."""
    g = MetricGraph(["a", "b", "c"], [Edge("e0", "a", "b", 1),
                                      Edge("e1", "b", "c", 1)], ["a", "c"])
    f = dirichlet_solve(g, {"a": 0, "c": 2})
    given = {MetricGraph: g, PAFunction: f,
             DiscreteMeasure: DiscreteMeasure([(Vertex("b"), 1)]),
             RegularizationTerm: build_regularization(f, 1).terms[0],
             GraphPoint: Vertex("b"),
             EdgePoint: EdgePoint("e0", Fraction(1, 2)),
             TangentDirection: g.star(Vertex("b"))[0]}
    table = _point_callables()
    assert {"point_to_json", "MetricGraph.base_offset", "PAFunction.eval",
            "eval_smoothed"} <= {name for name, *_ in table}
    for name, fn, cls, points in table:
        hints = typing.get_type_hints(fn)
        params = list(inspect.signature(fn).parameters)
        for point in points:
            args = [given[cls] if k == "self" else
                    bad if k == point else given[hints[k]] for k in params]
            if name == "MetricGraph.contains_point":
                assert fn(*args) is False
                continue
            with pytest.raises(GraphError) as exc:
                fn(*args)
            assert str(exc.value) in (
                f"{bad!r} is not a Vertex or an EdgePoint",
                f"{bad!r} is not a TangentDirection"), name


COUNT_CASES = {
    "n_terms-float": (lambda f: build_regularization(f, 1.5), ValueError,
                      "n_terms must be >= 1, not 1.5"),
    "n_terms-str": (lambda f: build_regularization(f, "3"), ValueError,
                    "n_terms must be >= 1, not '3'"),
    "n_terms-bool": (lambda f: build_regularization(f, True), ValueError,
                     "n_terms must be >= 1, not True"),
    "sample_points": (lambda f: sample_points(f, 2.5), ValueError,
                      "per_edge must be >= 1, not 2.5"),
    "sample": (lambda f: build_regularization(f, 1).sample(2.5), ValueError,
               "per_edge must be >= 1, not 2.5"),
    "parse_form-float": (lambda f: parse_form("x1", 1.5), ValueError,
                         "r must be >= 1, not 1.5"),
    "parse_form-str": (lambda f: parse_form("x1", "2"), ValueError,
                       "r must be >= 1, not '2'"),
    "Poly": (lambda f: Poly(1.5, {}), ValueError,
             "r must be an int, not 1.5"),
    "SuperForm-p": (lambda f: SuperForm(2, 1.5, 0), BidegreeError,
                    "r, p, q must be ints, not (2, 1.5, 0)"),
    "SuperForm-r": (lambda f: SuperForm(None, 0, 0), BidegreeError,
                    "r, p, q must be ints, not (None, 0, 0)"),
}


@pytest.mark.parametrize("case", COUNT_CASES)
def test_counts_and_degrees_that_are_not_ints_are_refused(case):
    """A count (terms, samples per edge, dimension) or a degree that is
    not an int, a bool included, raises a typed error naming it."""
    call, error, message = COUNT_CASES[case]
    g = MetricGraph(["a", "b"], [Edge("e", "a", "b", 1)], ["a", "b"])
    with pytest.raises(error) as exc:
        call(dirichlet_solve(g, {"a": 0, "b": 1}))
    assert str(exc.value) == message


@pytest.mark.parametrize("call, error", [
    (lambda: Poly(-1, {(): 1}), ValueError),
    (lambda: Poly(-1, {}), ValueError),
    (lambda: SuperForm(-1, 0, 0), BidegreeError)],
    ids=["Poly", "Poly-empty", "SuperForm"])
def test_a_negative_dimension_is_refused(call, error):
    """A negative r is refused when the object is built, not at its first
    evaluation; r = 0, a constant on R^0, still builds."""
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == "r must be >= 0, not -1"
    assert Poly(0, {(): 3}).eval([]) == 3
    assert SuperForm(0, 0, 0).is_zero()
