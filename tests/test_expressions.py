"""Expression grammar: parsing, printing, exact differentiation, evaluation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from finvar import expressions as ex
from finvar import finsler as fn
from finvar import maps
from finvar import quadrature as q
from finvar.errors import ExpressionError
from finvar.identity import PerturbationSetup
from finvar.riemann import RiemannStructure

from helpers import random_expression, unshared_differentiate, unshared_fold

NAMES = ["x1", "x2", "y1", "y2"]


def test_roundtrip_through_source():
    sources = [
        "x1 + x2*y1 - 3.5",
        "sin(x1)*cos(x2) + exp(y1/4)",
        "sqrt(y1^2 + y2^2)",
        "(x1 + y2)^3 / (1 + x2^2)",
        "-x1 + -(y1*y2)",
        "log(2 + sin(x1)) * atan(y1)",
        "tan(x1/5)",
    ]
    env = {"x1": 0.3, "x2": -0.7, "y1": 1.2, "y2": -0.4}
    for src in sources:
        node = ex.parse(src, NAMES)
        again = ex.parse(ex.to_source(node), NAMES)
        assert ex.evaluate(node, env) == pytest.approx(ex.evaluate(again, env), rel=1e-15)


def _bits(value):
    """Float hex of a value: NaN matches NaN, and -0.0 and 0.0 differ."""
    return float(value).hex()


def _points(rng, count=3):
    return [{name: float(rng.uniform(-0.8, 0.8)) for name in NAMES} for _ in range(count)]


@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(1, 4))
def test_random_expressions_round_trip_through_source(seed, depth):
    rng = np.random.default_rng(seed)
    node = random_expression(rng, NAMES, depth)
    once = ex.parse(ex.to_source(node), NAMES)
    twice = ex.parse(ex.to_source(once), NAMES)
    assert twice == once and ex.to_source(twice) == ex.to_source(once)
    for env in _points(rng):
        assert _bits(ex.evaluate(once, env)) == _bits(ex.evaluate(node, env))


@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(1, 4))
def test_constant_fold_keeps_the_value_of_random_expressions(seed, depth):
    rng = np.random.default_rng(seed)
    node = random_expression(rng, NAMES, depth)
    folded = ex.constant_fold(node)
    for env in _points(rng):
        assert _bits(ex.evaluate(folded, env)) == _bits(ex.evaluate(node, env))


def test_evaluate_matches_python():
    env = {"x1": 0.3, "x2": -0.7, "y1": 1.2, "y2": -0.4}
    node = ex.parse("sin(x1)*y1 + x2^2/(1 + y2^2)", NAMES)
    expected = math.sin(0.3) * 1.2 + (-0.7) ** 2 / (1 + 0.4 ** 2)
    assert ex.evaluate(node, env) == pytest.approx(expected, rel=1e-15)


def test_evaluate_broadcasts_arrays():
    node = ex.parse("x1*y1 + y2^2", NAMES)
    y1 = np.linspace(-1, 1, 7)
    y2 = np.linspace(0, 2, 7)
    out = ex.evaluate(node, {"x1": 2.0, "y1": y1, "y2": y2})
    assert np.allclose(out, 2.0 * y1 + y2 ** 2)


def test_differentiate_against_finite_differences():
    rng = np.random.default_rng(11)
    sources = [
        "sin(x1*x2) + cos(y1)",
        "exp(x1/3)*y2 + sqrt(4 + x2^2)",
        "x1^3*y1 - x2/(2 + y2^2)",
        "log(3 + sin(x1 + y1))",
        "atan(x2*y2)",
    ]
    h = 1e-5
    for src in sources:
        node = ex.parse(src, NAMES)
        for var in NAMES:
            dnode = ex.differentiate(node, var)
            for _ in range(3):
                env = {n: rng.uniform(-0.8, 0.8) for n in NAMES}
                up = dict(env, **{var: env[var] + h})
                dn = dict(env, **{var: env[var] - h})
                fd = (ex.evaluate(node, up) - ex.evaluate(node, dn)) / (2 * h)
                assert ex.evaluate(dnode, env) == pytest.approx(fd, rel=2e-9, abs=2e-9)


def test_substitute_and_constant_fold():
    node = ex.parse("x1^2 + eps*sin(x2)", ["x1", "x2", "eps"])
    bound = ex.substitute(node, {"eps": ex.Const(0.0)})
    folded = ex.constant_fold(bound)
    assert "sin" not in ex.to_source(folded)
    env = {"x1": 1.5, "x2": 0.4}
    assert ex.evaluate(folded, env) == pytest.approx(2.25)


def test_free_vars():
    node = ex.parse("x1*y2 + sin(x2)", NAMES)
    assert ex.free_vars(node) == {"x1", "x2", "y2"}


def _tree_free_vars(node):
    """The free variables of `node` by a plain walk of its tree."""
    if isinstance(node, ex.Var):
        return {node.name}
    children = {ex.BinOp: ("left", "right"), ex.Pow: ("base",), ex.Func: ("arg",)}
    return set().union(*(_tree_free_vars(getattr(node, f))
                         for f in children.get(type(node), ())))


def test_free_vars_of_a_shared_derivative_dag_match_the_tree_walk():
    rs = RiemannStructure.sphere(3)
    for a, b in itertools.product(range(3), repeat=2):
        for mu in itertools.combinations_with_replacement(range(3), 3):
            node = rs._partial_ast(a, b, mu)
            assert ex.free_vars(node) == _tree_free_vars(node)


def test_unknown_variable_rejected():
    with pytest.raises(ExpressionError):
        ex.parse("x1 + z9", NAMES)


def test_parse_checks_an_ast_and_returns_it_as_the_same_object():
    node = ex.parse("x1*y2 + sin(x2)", NAMES)
    assert ex.parse(node, NAMES) is node
    bad = ex.BinOp("+", node, ex.Var("z9"))
    with pytest.raises(ExpressionError) as from_ast:
        ex.parse(bad, NAMES)
    with pytest.raises(ExpressionError) as from_text:
        ex.parse(ex.to_source(bad), NAMES)
    assert str(from_ast.value) == "undeclared variable 'z9'"
    assert str(from_text.value).startswith("undeclared variable 'z9'")


_Z = ex.Var("z")
_X1_PLUS_Z = ex.BinOp("+", ex.Var("x1"), _Z)
_EYE = [["1", "0"], ["0", "1"]]


def _torus():
    return fn.FinslerStructure.euclidean(2, chart=fn.TorusChart((1.0, 1.0)))


def _at_point(call):
    return lambda: call(_torus(), fn.PointState([0.2, 0.3], [0.8, -0.6]))


_SPEC = q.QuadratureSpec(x_resolution=2, y_samples=16, seed=1)
_FLAT = RiemannStructure.euclidean(2)


@pytest.mark.parametrize("call, name", [
    (lambda: maps.SmoothMap([_X1_PLUS_Z, "x2"], _torus(), _FLAT), "z"),
    (lambda: maps.VariationFamily(["x1 + eps1", _X1_PLUS_Z], _torus(), _FLAT), "z"),
    (lambda: fn.FinslerStructure(2, ex.BinOp("+", ex.parse("y1^2 + y2^2", NAMES), _Z)), "z"),
    (lambda: fn.FinslerStructure.riemannian([[_X1_PLUS_Z, "0"], ["0", "1"]], 2), "z"),
    (lambda: fn.FinslerStructure.randers(_EYE, [_X1_PLUS_Z, "0"], 2), "z"),
    (lambda: fn.FinslerStructure.perturbed(_EYE, ex.BinOp("*", _Z, ex.Var("y1")), 2), "z"),
    (lambda: fn.FinslerStructure.custom(ex.BinOp("+", ex.Var("y1"), _Z), 2), "z"),
    (lambda: RiemannStructure(2, [[_X1_PLUS_Z, ex.Const(0.0)], [ex.Const(0.0), ex.Const(1.0)]]),
     "z"),
    (lambda: RiemannStructure.custom([[_X1_PLUS_Z, "0"], ["0", "1"]], 2), "z"),
    (lambda: PerturbationSetup(_EYE, ex.BinOp("*", _Z, ex.Var("y1")), 2), "z"),
    (lambda: PerturbationSetup(_EYE, "x1*y1^2", 2, a_sources=[_X1_PLUS_Z, "0"]), "z"),
    (_at_point(lambda fs, p: maps.rough_laplacian(maps.SmoothMap(["x1", "x2"], fs, _FLAT),
                                                  maps.PullbackSection([_Z, "x2"]), p)), "z"),
    (lambda: q.integrate(_X1_PLUS_Z, _torus(), _SPEC), "z"),
    (lambda: q.divergence_theorem_check(_torus(), [_Z, ex.Const(0.0)], _SPEC), "z"),
    (lambda: q.divergence_theorem_check(_torus(), ["x1", "x2"], _SPEC, f=_Z), "z"),
    (_at_point(lambda fs, p: fn.delta_derivative(fs, _Z, p, 0)), "z"),
    (_at_point(lambda fs, p: fn.divergence(fs, [_Z, ex.Const(0.0)], p)), "z"),
    (_at_point(lambda fs, p: fn.horizontal_laplacian(fs, _Z, p)), "z"),
    (lambda: fn.arc_length(_torus(), [ex.Var("x1"), ex.Var("t")], 0.0, 1.0), "x1"),
], ids=["SmoothMap", "VariationFamily", "FinslerStructure", "riemannian", "randers",
        "perturbed", "custom", "RiemannStructure", "RiemannStructure.custom",
        "PerturbationSetup.b", "PerturbationSetup.a", "PullbackSection", "integrate",
        "divergence_theorem_check.X", "divergence_theorem_check.f", "delta_derivative",
        "divergence", "horizontal_laplacian", "arc_length"])
def test_an_undeclared_name_in_an_ast_is_an_expression_error(call, name):
    with pytest.raises(ExpressionError) as err:
        call()
    assert str(err.value) == f"undeclared variable {name!r}"


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionError) as err:
        ex.parse("x1 + * x2", NAMES)
    assert err.value.position is not None


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError):
        ex.parse("sinh(x1)", NAMES)


def test_shared_derivatives_print_as_the_unshared_trees():
    rng = np.random.default_rng(11)
    shared = ex.parse("sin(x1*y1)", NAMES)
    nodes = [random_expression(rng, NAMES, depth=4) for _ in range(20)]
    nodes += [ex.parse("sqrt(x1^2 + 1) + log(2 + y1^2) - tan(x2/3) + atan(y2)*exp(x1)", NAMES),
              ex.BinOp("/", ex.BinOp("*", shared, shared), ex.BinOp("+", shared, ex.Const(3.0)))]
    calc = ex.Calculus()
    for node in nodes:
        for v in NAMES:
            ref = unshared_fold(unshared_differentiate(node, v))
            assert ex.to_source(ex.constant_fold(ex.differentiate(node, v))) == ex.to_source(ref)
            once = calc.fold(calc.differentiate(node, v))
            assert ex.to_source(once) == ex.to_source(ref)
            assert calc.fold(calc.differentiate(node, v)) is once
            for w in NAMES[:2]:
                ref2 = unshared_fold(unshared_differentiate(ref, w))
                assert ex.to_source(calc.fold(calc.differentiate(once, w))) == ex.to_source(ref2)


def test_constant_fold_keeps_signed_zeros_apart():
    node = ex.BinOp("+", ex.BinOp("*", ex.Const(-0.0), ex.Const(2.0)),
                    ex.BinOp("*", ex.Const(0.0), ex.Const(2.0)))
    calc = ex.Calculus()
    left, right = calc.fold(node.left), calc.fold(node.right)
    assert math.copysign(1.0, left.value) == -1.0 and math.copysign(1.0, right.value) == 1.0
