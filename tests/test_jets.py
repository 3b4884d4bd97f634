"""Truncated Taylor (jet) arithmetic against finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from finvar import expressions as ex
from finvar import jets as jt
from finvar.errors import OrderLimitError

from helpers import multi_indices, random_expression, richardson_partial

NAMES = ("x1", "x2")


def eval_jet(node, point, order):
    env = jt.jet_space(NAMES, order).point_env(
        {NAMES[i]: np.asarray(point[i], dtype=np.float64) for i in range(len(NAMES))})
    return jt.eval_ast(node, env)


def test_polynomial_jets_are_exact():
    node = ex.parse("x1^3*x2 - 2*x1*x2^2 + 5", NAMES)
    j = eval_jet(node, [1.5, -0.5], 4)
    # hand-computed partials at (1.5, -0.5)
    assert j.partial((0, 0)) == pytest.approx(1.5 ** 3 * -0.5 - 2 * 1.5 * 0.25 + 5)
    assert j.partial((1, 0)) == pytest.approx(3 * 1.5 ** 2 * -0.5 - 2 * 0.25)
    assert j.partial((0, 1)) == pytest.approx(1.5 ** 3 - 4 * 1.5 * -0.5)
    assert j.partial((1, 1)) == pytest.approx(3 * 1.5 ** 2 + 2.0)
    assert j.partial((3, 1)) == pytest.approx(6.0)
    assert j.partial((0, 2)) == pytest.approx(-4 * 1.5)


def test_random_expressions_match_richardson_fd():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(40):
        node = random_expression(rng, NAMES)
        point = rng.uniform(-0.8, 0.8, size=2)

        def f(p):
            return ex.evaluate(node, {NAMES[i]: p[i] for i in range(2)})

        j = eval_jet(node, point, 4)
        for mu in multi_indices(2, 4):
            exact = j.partial(mu)
            h = 0.01 if sum(mu) >= 3 else 0.005
            fd = richardson_partial(f, list(point), mu, h)
            scale = max(1.0, abs(exact))
            assert abs(exact - fd) <= 2e-5 * scale, (ex.to_source(node), mu, exact, fd)
            checked += 1
    assert checked > 500


def test_deriv_lowers_order_and_matches():
    node = ex.parse("sin(x1)*exp(0.5*x2)", NAMES)
    j = eval_jet(node, [0.4, -0.3], 3)
    d1 = j.deriv("x1")
    assert d1.order == 2
    assert d1.value == pytest.approx(j.partial((1, 0)))
    assert d1.partial((0, 2)) == pytest.approx(j.partial((1, 2)))


def test_order_zero_derivative_is_an_error():
    node = ex.parse("x1*x2", NAMES)
    j = eval_jet(node, [1.0, 2.0], 0)
    with pytest.raises(OrderLimitError):
        j.deriv("x1")


def test_division_and_functions_compose():
    node = ex.parse("atan(x1/(2 + cos(x2))) + sqrt(4 + x1^2)", NAMES)
    j = eval_jet(node, [0.6, 0.2], 4)

    def f(p):
        return ex.evaluate(node, {NAMES[i]: p[i] for i in range(2)})

    for mu in [(1, 0), (2, 0), (1, 1), (2, 2), (0, 3)]:
        fd = richardson_partial(f, [0.6, 0.2], mu, 0.02)
        assert j.partial(mu) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_batched_and_scalar_jets_mix():
    space = jt.jet_space(NAMES, 2)
    ybatch = np.linspace(-1.0, 1.0, 5)
    env_b = space.point_env({"x1": np.asarray(0.5), "x2": ybatch})
    node = ex.parse("x1*x2^2 + sin(x2)", NAMES)
    j = jt.eval_ast(node, env_b)
    scalar = jt.eval_ast(ex.parse("x1^2", NAMES), space.point_env(
        {"x1": np.asarray(0.5), "x2": np.asarray(0.0)}))
    mixed = j * scalar + scalar
    for k, yv in enumerate(ybatch):
        env_s = space.point_env({"x1": np.asarray(0.5), "x2": np.asarray(yv)})
        js = jt.eval_ast(node, env_s)
        ref = js * scalar + scalar
        assert np.asarray(mixed.value)[k] == pytest.approx(float(ref.value), rel=1e-14)
        assert np.asarray(mixed.partial((1, 1)))[k] == pytest.approx(
            float(ref.partial((1, 1))), rel=1e-13, abs=1e-13)


XY = ("x1", "x2", "y1", "y2")
F2 = ex.parse("(sqrt(y1^2 + y2^2) + 0.2*sin(x1)*y1 + 0.2*cos(x2)*y2)^2"
              " / (2 + atan(x1*y2)) + exp(0.3*x2)*y1", XY)


def _xy_env(space):
    return space.point_env({"x1": np.asarray(0.3), "x2": np.asarray(-0.4),
                            "y1": np.linspace(-0.9, 0.9, 7), "y2": np.asarray(0.6)})


def test_jets_store_the_graded_prefix_of_their_order():
    space = jt.jet_space(XY, 5)
    env = _xy_env(space)
    full = jt.eval_ast(F2, env)                        # order 5, batched
    low = full.deriv("y1").deriv("x2")                 # order 3, batched
    free = jt.eval_ast(ex.parse("2 + x1*x2 + x1^2", XY), space.point_env(
        {"x1": np.asarray(0.3), "x2": np.asarray(-0.4),
         "y1": np.asarray(0.0), "y2": np.asarray(0.0)})).deriv("x1")  # order 4, batch-free
    results = [full + low, low + full, free + full, full - free, free - low,
               full + 2.0, 2.0 - low, free + np.ones(7),
               full * low, free * full, low * free, free * free, full * 3.0, 0.5 * low,
               full / free, low / 2.0, 1.0 / free, low.deriv("y2"), free.deriv("x2"),
               free.sqrt(), full.sin(), low.atan(), free.reciprocal(),
               full ** 3, low ** -2, free ** 0.5, full ** 0]
    for j in results:
        assert j.c.shape[0] == space.nrows[j.order]
    assert [j.order for j in results[:5]] == [3, 3, 4, 4, 3]
    assert results[8].order == 3 and results[9].order == 4 and results[11].c.ndim == 1
    assert results[-1].order == space.order
    assert space.nrows == [1, 5, 15, 35, 70, 126]
    # a batch of another length still fails to broadcast
    short = jt.eval_ast(F2, space.point_env({"x1": np.asarray(0.3), "x2": np.asarray(-0.4),
                                             "y1": np.zeros(3), "y2": np.asarray(0.6)}))
    for other in (short, short.value):
        with pytest.raises(ValueError):
            full + other
        with pytest.raises(ValueError):
            full * other


def test_coefficients_do_not_depend_on_the_space_order():
    top = jt.eval_ast(F2, _xy_env(jt.jet_space(XY, 6))).coefficients()
    for r in range(7):
        low = jt.eval_ast(F2, _xy_env(jt.jet_space(XY, r))).coefficients()
        assert len(low) == jt.jet_space(XY, r).ncoef
        for mu, c in low.items():
            assert np.array_equal(c, top[mu]), (r, mu)


def test_functions_of_an_order_zero_jet_stay_order_zero():
    space = jt.jet_space(NAMES, 2)
    j = eval_jet(ex.parse("2 + x1^2 + x1*x2", NAMES), [0.3, -0.4], 2)
    zero = j.deriv("x1").deriv("x1")
    assert zero.order == 0 and float(zero.value) == 2.0
    for fn in ("sqrt", "exp", "log", "sin", "atan", "reciprocal"):
        out = getattr(zero, fn)()
        assert out.order == 0 and out.c.shape[0] == space.nrows[0], fn
        with pytest.raises(OrderLimitError):
            out.partial((1, 0))


# --- x-only jets and their embedding into the (x, y) space -------------------------

XN = ("x1", "x2")


def _env(names, order, x, y=None):
    """Variables of jet_space(names, order) at x (and y when names has y1, y2)."""
    vals = dict(zip(XN, x))
    if y is not None:
        vals.update(zip(("y1", "y2"), y))
    return jt.jet_space(names, order).point_env({k: vals[k] for k in names})


@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(0, 6),
       xbatch=st.booleans(), ybatch=st.booleans())
def test_x_only_jets_embed_bitwise(seed, order, xbatch, ybatch):
    rng = np.random.default_rng(seed)
    x = [rng.uniform(-0.8, 0.8, size=5 if xbatch else None) for _ in XN]
    y = [rng.uniform(-0.8, 0.8, size=5 if ybatch else None) for _ in XN]
    node = random_expression(rng, XN)
    small = jt.eval_ast(node, _env(XN, order, x))
    full_env = _env(XY, order, x, y)
    ref = jt.eval_ast(node, full_env)                  # the same expression in (x, y)
    space = ref.space
    assert small.space is jt.jet_space(XN, order)
    up = small._in(space)
    assert up.order == ref.order and np.array_equal(up.c, ref.c)
    assert small._in(space) is up                      # embedded once, then remembered
    other = jt.eval_ast(random_expression(rng, XY), full_env)
    pairs = [(small + other, ref + other), (other + small, other + ref),
             (small - other, ref - other), (other - small, other - ref),
             (small * other, ref * other), (other * small, other * ref),
             (small * small, ref * ref), (small + small, ref + ref)]
    if order:
        pairs += [(small.deriv(v), ref.deriv(v)) for v in XY]
    for got, want in pairs:
        if got.space is not space:                     # x-only results stay x-only
            assert got.space is small.space
            got = got._in(space)
        assert got.order == want.order and np.array_equal(got.c, want.c)


def test_unrelated_jet_spaces_do_not_combine():
    xs = jt.eval_ast(ex.parse("x1*x2", XN), _env(XN, 3, [0.3, -0.4]))
    ys = jt.eval_ast(ex.parse("y1 + y2", ("y1", "y2")),
                     jt.jet_space(("y1", "y2"), 3).point_env({"y1": np.asarray(0.5),
                                                              "y2": np.asarray(0.2)}))
    swapped = jt.jet_space(("x2", "x1", "y1", "y2"), 3).variable("y1", 0.5)
    for a, b in ((xs, ys), (ys, xs), (xs, swapped), (swapped, xs)):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b
    # an x-only batch of another length still fails to broadcast after embedding
    xb = jt.eval_ast(ex.parse("sin(x1)*x2", XN), _env(XN, 3, [np.zeros(3), 0.1]))
    yb = jt.eval_ast(F2, _env(XY, 3, [0.3, -0.4], [np.linspace(-0.9, 0.9, 7), 0.6]))
    for a, b in ((xb, yb), (yb, xb)):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b
