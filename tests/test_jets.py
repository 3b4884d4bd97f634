"""Truncated Taylor (jet) arithmetic against finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from finvar import expressions as ex
from finvar import jets as jt
from finvar.errors import DomainEvalError, OrderLimitError

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


# --- x-only and y-only jets and their embedding into the (x, y) space --------------

XN = ("x1", "x2")
YN = ("y1", "y2")


def _env(names, order, x, y=None):
    """Variables of jet_space(names, order) at x (and y when names has y1, y2)."""
    vals = dict(zip(XN, x))
    if y is not None:
        vals.update(zip(YN, y))
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


def test_jet_spaces_combine_by_their_variable_sets(monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(jt, "np", counting)
    xs = jt.eval_ast(ex.parse("x1*x2", XN), _env(XN, 3, [0.3, -0.4]))
    ys = jt.eval_ast(ex.parse("y1 + y2^2", YN), _env(YN, 3, [0.3, -0.4], [0.5, 0.2]))
    # disjoint names meet in their union, x names first, whichever operand is left
    full = jt.jet_space(XY, 3)
    for a, b in ((xs, ys), (ys, xs)):
        for result in (a + b, a - b, a * b):
            assert result.space is full
        before = counting.reduceat
        a * b                                          # one pair per row: no Leibniz sums
        assert counting.reduceat == before
    # a jet whose names are among the other's embeds by name, a prefix or not
    swapped = jt.jet_space(("x2", "x1", "y1", "y2"), 3).variable("y1", 0.5)
    for small in (xs, ys):
        for a, b in ((small, swapped), (swapped, small)):
            assert (a + b).space is swapped.space and (a * b).space is swapped.space
    assert (ys * full.variable("x1", 0.3)).space is full
    # names that overlap with neither set holding the other do not combine
    mixed = jt.jet_space(("x1", "y1"), 3).variable("y1", 0.5)
    for a, b in ((xs, mixed), (mixed, xs), (ys, mixed), (mixed, ys)):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b
    # a batch of another length still fails to broadcast after embedding
    xb = jt.eval_ast(ex.parse("sin(x1)*x2", XN), _env(XN, 3, [np.zeros(3), 0.1]))
    yb = jt.eval_ast(F2, _env(XY, 3, [0.3, -0.4], [np.linspace(-0.9, 0.9, 7), 0.6]))
    ysb = jt.eval_ast(ex.parse("y1*y2", YN), _env(YN, 3, [0.3, -0.4], [np.zeros(7), 0.6]))
    for a, b in ((xb, yb), (yb, xb), (xb, ysb), (ysb, xb)):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b


@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(0, 6),
       xnames=st.sampled_from([XN, XY]), ynames=st.sampled_from([YN, XY]),
       xbatch=st.booleans(), ybatch=st.booleans())
def test_jets_in_the_spaces_of_their_variables_match_the_full_space(seed, order, xnames, ynames,
                                                                     xbatch, ybatch):
    from helpers import reference_arithmetic

    rng = np.random.default_rng(seed)
    x = [rng.uniform(-0.8, 0.8, size=5 if xbatch else None) for _ in XN]
    y = [rng.uniform(-0.8, 0.8, size=5 if ybatch else None) for _ in YN]
    env = _env(xnames, order, x, y)
    env.update(_env(ynames, order, x, y))
    full_env = _env(XY, order, x, y)
    space = jt.jet_space(XY, order)
    for _ in range(3):
        node = random_expression(rng, XY)
        got = jt.eval_ast(node, env)
        with reference_arithmetic():
            want = jt.eval_ast(node, env)
        assert got.space is want.space and got.order == want.order, ex.to_source(node)
        assert np.array_equal(got.c, want.c), ex.to_source(node)
        ref = jt.eval_ast(node, full_env)
        if got.space is not space:
            got = got._in(space)
        assert got.order == ref.order and np.array_equal(got.c, ref.c), ex.to_source(node)


def test_a_variable_outside_the_space_is_an_error():
    # the unit multi-index of an absent name would be the zero one: the value row
    for order in (0, 2):
        with pytest.raises(ValueError):
            jt.jet_space(XN, order).variable("t", 0.5)


def test_eval_ast_evaluates_a_shared_subtree_once_and_keeps_only_its_value(monkeypatch):
    import collections

    from helpers import unshared_eval_ast

    env = _env(XY, 4, [0.3, -0.4], [np.linspace(-0.9, 0.9, 5), 0.6])
    shared = ex.parse("sin(x1*y1) + y2^2", XY)
    node = ex.BinOp("*", shared, ex.BinOp("/", ex.parse("x2 + 3", XY), shared))
    calls = collections.Counter()
    compute = jt.AstEvaluator._compute

    def counting(self, n):
        calls[id(n)] += 1
        return compute(self, n)

    monkeypatch.setattr(jt.AstEvaluator, "_compute", counting)
    evaluator = jt.AstEvaluator(env, node)
    got = evaluator(node)
    assert calls[id(shared)] == 1 and set(calls.values()) == {1}
    # only the shared subtree's value is held; a walk of a tree holds none after it
    assert [n for n, _ in evaluator._memo.values()] == [shared]
    ref = unshared_eval_ast(node, env)
    assert got.c.tobytes() == ref.c.tobytes() and got.order == ref.order
    tree = ex.parse("sin(x1*y1)*(x2 + 3)/(1 + y2^2)", XY)
    walk = jt.AstEvaluator(env, tree)
    assert walk(tree).c.tobytes() == unshared_eval_ast(tree, env).c.tobytes()
    assert walk._memo == {}


# --- the dispatch and zero rules against the reference arithmetic ------------------

ZN = ("z_absent", "z_gathered", "z_const", "z_diff", "d_x1")


def _zero_env(mode, order, x, y, rng):
    """Variables x1, x2, y1, y2, four exact zeros and a nonzero derivative.

    The zeros are a `deriv` by an absent name, a `deriv` whose gathered rows
    are all 0, a zero constant (batch-free or of batch length 5) and x - x (a
    zero the arithmetic cannot know of); `d_x1` is ∂(x1·x2)/∂x1 = x2. In
    mode "x" everything is x-only, in "full" everything lives in the (x, y)
    space, in "mixed" the x variables and a part of the zeros are x-only, and
    in "split" the x variables are x-only and the y variables y-only."""
    xs_names = XN if mode == "x" else XY
    env = _env(xs_names, order, x, None if mode == "x" else y)
    if mode in ("mixed", "split"):
        env.update(_env(XN, order, x))
    if mode == "split":
        env.update(_env(YN, order, x, y))
    spaces = [env[n].space for n in env]
    space = spaces[int(rng.integers(len(spaces)))]
    zero = space.constant(np.zeros((5,) if rng.uniform() < 0.5 else ()))
    env["z_const"] = zero
    env["z_absent"] = env["x1"].deriv("t") if order else zero
    env["z_gathered"] = env["x2"].deriv("x1") if order else zero
    env["d_x1"] = (env["x1"] * env["x2"]).deriv("x1") if order else env["x2"]
    v = env[xs_names[int(rng.integers(len(xs_names)))]]
    env["z_diff"] = v - v
    return env, xs_names


@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(0, 6),
       mode=st.sampled_from(["x", "full", "mixed", "split"]), xbatch=st.booleans(),
       ybatch=st.booleans())
def test_arithmetic_with_exact_zeros_matches_the_reference(seed, order, mode, xbatch, ybatch):
    from helpers import reference_arithmetic

    rng = np.random.default_rng(seed)
    x = [rng.uniform(-0.8, 0.8, size=5 if xbatch else None) for _ in XN]
    y = [rng.uniform(-0.8, 0.8, size=5 if ybatch else None) for _ in XN]
    env, names = _zero_env(mode, order, x, y, rng)
    for _ in range(3):
        node = random_expression(rng, names + ZN)
        got = jt.eval_ast(node, env)
        with reference_arithmetic():
            want = jt.eval_ast(node, env)
        assert got.space is want.space and got.order == want.order, ex.to_source(node)
        assert got.c.shape == want.c.shape and np.array_equal(got.c, want.c), ex.to_source(node)


def test_the_zero_flag_is_set_only_on_zero_jets_that_stay_unwritten(monkeypatch):
    made = []
    init = jt.Jet.__init__

    def recording(self, space, c, order, zero=False):
        init(self, space, c, order, zero)
        made.append((self, c.tobytes()))

    monkeypatch.setattr(jt.Jet, "__init__", recording)
    rng = np.random.default_rng(11)
    for mode in ("x", "full", "mixed", "split"):
        for order in (0, 1, 4):
            x = [rng.uniform(-0.8, 0.8, size=5), rng.uniform(-0.8, 0.8)]
            env, names = _zero_env(mode, order, x, [rng.uniform(-0.8, 0.8, size=5), 0.5], rng)
            for _ in range(6):
                jt.eval_ast(random_expression(rng, names + ZN), env)
    flagged = [j for j, _ in made if j.zero]
    assert len(flagged) > 50 and len(made) > 10 * len(flagged)
    assert not any(j.c.any() for j in flagged)
    # nothing writes into a jet's coefficients after the jet is made
    assert all(j.c.tobytes() == c for j, c in made)


class _CountingNumpy:
    """The `numpy` module as `jets` sees it, counting `np.add.reduceat` calls."""

    def __init__(self):
        self.reduceat = 0
        counter = self

        class Add:
            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            def reduceat(self, *args, **kwargs):
                counter.reduceat += 1
                return np.add.reduceat(*args, **kwargs)

        self.add = Add()

    def __getattr__(self, name):
        return getattr(np, name)


def test_a_product_with_a_zero_factor_runs_no_leibniz_kernel(monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(jt, "np", counting)
    xs = _env(XN, 4, [0.3, np.linspace(-0.5, 0.5, 3)])
    full = _env(XY, 4, [0.3, -0.4], [np.linspace(-0.9, 0.9, 3), 0.6])
    f = jt.eval_ast(F2, full)
    s = jt.eval_ast(ex.parse("sin(x1)*x2", XN), xs)
    zeros = [xs["x1"].deriv("y1"), full["x2"].deriv("t"), f.space.constant(0.0),
             s.space.constant(np.zeros(3)), -f.space.constant(0.0)]
    for z in zeros:
        assert z.zero
        for a, b in ((z, f), (f, z), (z, s), (s, z), (z, z)):
            before = counting.reduceat
            p = a * b
            assert counting.reduceat == before
            assert p.zero and not p.c.any() and p.order == min(a.order, b.order)
            assert p.c.shape[1:] == np.broadcast_shapes(a.c.shape[1:], b.c.shape[1:])
    before = counting.reduceat
    f * s
    assert counting.reduceat == before + 1
    # the broadcast of a zero product still refuses a batch of another length
    with pytest.raises(ValueError):
        zeros[3] * jt.eval_ast(F2, _env(XY, 4, [0.3, -0.4], [np.zeros(7), 0.6]))


def test_a_zero_term_is_skipped_only_where_the_other_term_is_the_result():
    from helpers import reference_arithmetic

    space = jt.jet_space(XN, 3)
    x1 = space.variable("x1", 0.3)
    xb = space.variable("x2", np.linspace(-0.5, 0.5, 5))
    free, batched = space.constant(0.0), space.constant(np.zeros(5))
    low = x1.deriv("x2")                               # a zero of order 2
    assert free + x1 is x1 and x1 + free is x1 and x1 - free is x1
    assert batched + xb is xb and xb - batched is xb and free + xb is xb
    cases = (lambda: batched + x1, lambda: x1 + batched, lambda: x1 - batched,
             lambda: free - x1, lambda: low + x1, lambda: x1 - low)
    with reference_arithmetic():
        wants = [case() for case in cases]
    for case, want, shape in zip(cases, wants, ((10, 5), (10, 5), (10, 5), (10,), (6,), (6,))):
        got = case()
        assert got.c.shape == want.c.shape == shape and np.array_equal(got.c, want.c)
    assert (free + free).zero and (batched - free).zero and not (x1 - x1).zero


def test_zero_times_non_finite_is_zero_on_the_skipped_path_only():
    space = jt.jet_space(XN, 3)
    inf = space.constant(np.inf)
    nan = space.constant(np.nan)
    for bad in (inf, nan):
        for p in (space.constant(0.0) * bad, bad * space.variable("x2", 0.5).deriv("x1")):
            assert p.zero and np.all(p.c == 0) and not np.signbit(p.c).any()
    # a number factor runs the scaling, which keeps a zero only for a finite number
    assert (space.constant(0.0) * 2.0).zero
    with np.errstate(invalid="ignore"):
        assert not (space.constant(0.0) * np.inf).zero
    x1 = space.variable("x1", 2.0)
    with np.errstate(invalid="ignore"):
        assert (x1 * inf).value == np.inf and (inf * x1).value == np.inf
        # a zero the arithmetic does not know of still runs the kernel: 0 × inf is NaN
        assert np.isnan(((x1 - x1) * inf).value)


# --- jets against `evaluate` against `differentiate` -------------------------------

@given(seed=st.integers(0, 2 ** 32 - 1), batched=st.booleans())
def test_jets_agree_with_evaluate_and_differentiate(seed, batched):
    rng = np.random.default_rng(seed)
    point = {n: rng.uniform(-0.8, 0.8, size=4 if batched else None) for n in XN}
    env = jt.jet_space(XN, 2).point_env(point)

    def close(got, want):
        got, want = np.broadcast_arrays(np.asarray(got, float), np.asarray(want, float))
        return np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    for _ in range(4):
        node = random_expression(rng, XN)
        j = jt.eval_ast(node, env)
        assert close(j.value, ex.evaluate(node, point)), ex.to_source(node)
        for i, name in enumerate(XN):
            mu = tuple(int(k == i) for k in range(len(XN)))
            d = ex.evaluate(ex.differentiate(node, name), point)
            assert close(j.partial(mu), d), (ex.to_source(node), name)


# --- plain nodes: one set of numeric rules on both paths ----------------------------

def _outcome(evaluate):
    """The float hex of a plain value (every NaN as "nan"), or the
    `DomainEvalError` message it raised."""
    try:
        value = float(evaluate())
    except DomainEvalError as exc:
        return DomainEvalError, str(exc)
    return "nan" if math.isnan(value) else value.hex()


def _both_paths(node):
    env = jt.jet_space(XN, 0).point_env({"x1": np.asarray(1.0), "x2": np.asarray(-0.5)})
    return (_outcome(lambda: jt.eval_ast(node, env).value),
            _outcome(lambda: ex.evaluate(node, {"x1": 1.0, "x2": -0.5})))


@pytest.mark.parametrize("source", ["0.3^-2*x1", "0.7^-2*x1", "atan(0.4)*x1", "x1/(2 - 2)"])
def test_a_plain_node_has_the_same_bits_and_errors_through_jets_and_evaluate(source):
    via_jets, via_evaluate = _both_paths(ex.parse(source, XN))
    assert via_jets == via_evaluate
    if source.endswith("(2 - 2)"):
        assert via_evaluate == (DomainEvalError, "division by zero")


@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(1, 4))
def test_a_constant_expression_has_the_same_bits_through_jets_and_evaluate(seed, depth):
    rng = np.random.default_rng(seed)
    node = random_expression(rng, XN, depth)
    node = ex.substitute(node, {name: float(rng.uniform(-0.8, 0.8)) for name in XN})
    assert ex.free_vars(node) == frozenset()
    stack = [node]                                    # every subtree, so no rounding hides one
    while stack:
        sub = stack.pop()
        via_jets, via_evaluate = _both_paths(sub)
        assert via_jets == via_evaluate, ex.to_source(sub)
        stack.extend(getattr(sub, f) for f in ex.CHILDREN.get(type(sub), ()))
