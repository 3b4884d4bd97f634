"""Shared test utilities: random smooth expressions and finite-difference
oracles for jet coefficients."""

import contextlib

import numpy as np

from finvar import expressions as ex
from finvar import jets as jt


def random_expression(rng, names, depth=3):
    """A random expression that is smooth and well-scaled on [-0.8, 0.8]^n."""
    def leaf():
        if rng.uniform() < 0.7:
            return ex.Var(names[rng.integers(len(names))])
        return ex.Const(round(float(rng.uniform(-2, 2)), 3))

    def build(d):
        if d == 0:
            return leaf()
        roll = rng.uniform()
        if roll < 0.45:
            op = rng.choice(["+", "-", "*"])
            return ex.BinOp(op, build(d - 1), build(d - 1))
        if roll < 0.6:
            # denominators kept away from zero
            return ex.BinOp("/", build(d - 1),
                            ex.BinOp("+", ex.Const(2.0),
                                     ex.Func("sin", build(d - 1))))
        if roll < 0.75:
            inner = ex.BinOp("*", ex.Const(0.4), build(d - 1))
            return ex.Pow(ex.BinOp("+", ex.Const(1.5), ex.Func("cos", inner)),
                          float(rng.integers(2, 4)))
        fn = rng.choice(["sin", "cos", "exp", "atan"])
        # damp the argument so high-order derivatives stay comparable to the
        # value; keeps the finite-difference oracle in its accurate regime
        inner = ex.BinOp("*", ex.Const(0.4 if fn != "exp" else 0.3), build(d - 1))
        return ex.Func(fn, inner)

    return build(depth)


def fd_partial(f, point, mu, h):
    """Nested central differences for the mixed partial given by multi-index mu."""
    active = [i for i, k in enumerate(mu) for _ in range(k)]
    if not active:
        return f(point)
    i = active[0]
    rest = list(mu)
    rest[i] -= 1
    up = list(point)
    up[i] += h
    dn = list(point)
    dn[i] -= h
    return (fd_partial(f, up, rest, h) - fd_partial(f, dn, rest, h)) / (2 * h)


def richardson_partial(f, point, mu, h):
    """Fourth-order Richardson extrapolation of the central-difference partial."""
    coarse = fd_partial(f, point, mu, h)
    fine = fd_partial(f, point, mu, h / 2)
    return (4.0 * fine - coarse) / 3.0


def richardson2_partial(f, point, mu, h):
    """Sixth-order (two-level Richardson) central-difference partial."""
    def level1(step):
        return (4.0 * fd_partial(f, point, mu, step / 2)
                - fd_partial(f, point, mu, step)) / 3.0
    return (16.0 * level1(h / 2) - level1(h)) / 15.0


def multi_indices(nvars, max_order):
    """All multi-indices with 1 <= |mu| <= max_order."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nvars:
            if sum(prefix) >= 1:
                out.append(tuple(prefix))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k)

    rec([], max_order)
    return out


def reference_validate(fs, samples=64, seed=20240611):
    """`FinslerStructure._validate` as a loop over the samples, one at a time.

    Draws the same points and runs the same checks in the same order as the
    engine's batched validation; an oracle for its outcome and its message.
    """
    from finvar import finsler as fn
    from finvar.errors import ConfigError

    rng = np.random.default_rng(seed)
    box = fs.chart.sample_box()
    n = fs.dim
    for _ in range(samples):
        x = np.array([rng.uniform(lo, hi) for lo, hi in box])
        y = rng.normal(size=n)
        y *= rng.uniform(0.5, 2.0) / np.linalg.norm(y)
        f2 = fs.f2_value(x, y)
        if not np.isfinite(f2) or f2 <= 0:
            raise ConfigError(f"F(x,y) not positive at sample x={x}, y={y}")
        f = np.sqrt(f2)
        for lam in (0.5, 2.0, 7.0):
            f_lam = np.sqrt(fs.f2_value(x, lam * y))
            if abs(f_lam - lam * f) > 1e-10 * lam * f:
                raise ConfigError("F is not positively 1-homogeneous in y")
        geom = fn.DomainGeometry(fs, x, y, order=2)
        g = np.array([[np.asarray(e.value) for e in row] for row in geom.g], dtype=float)
        if np.linalg.eigvalsh(g).min() <= 0:
            raise ConfigError(f"metric tensor not positive definite at sample x={x}, y={y}")
        if fs.b_ast is not None:
            env = {fs.xnames[i]: x[i] for i in range(n)}
            env.update({fs.ynames[i]: y[i] for i in range(n)})
            b = ex.evaluate(fs.b_ast, env)
            for lam in (0.5, 2.0, 7.0):
                env_l = dict(env)
                env_l.update({fs.ynames[i]: lam * y[i] for i in range(n)})
                b_lam = ex.evaluate(fs.b_ast, env_l)
                if abs(b_lam - lam * lam * b) > 1e-10 * lam * lam * abs(b) + 1e-12:
                    raise ConfigError("perturbation b is not 2-homogeneous in y")


# --- the unshared derive-and-walk path of the codomain partial tables ---------
#
# An oracle for the shared derivative DAG (`expressions.Calculus`) and the
# shared evaluator (`jets.AstEvaluator`): every expression is derived, folded
# and walked as a tree of its own, and no result is reused.

def unshared_differentiate(node, var):
    """Exact derivative of one AST, built as a tree of its own."""
    d = unshared_differentiate
    if isinstance(node, ex.Const):
        return ex.Const(0.0)
    if isinstance(node, ex.Var):
        return ex.Const(1.0) if node.name == var else ex.Const(0.0)
    if isinstance(node, ex.BinOp):
        dl, dr = d(node.left, var), d(node.right, var)
        if node.op in ("+", "-"):
            if _zero(dl) and _zero(dr):
                return ex.Const(0.0)
            return ex.BinOp(node.op, dl, dr)
        if node.op == "*":
            terms = []
            if not _zero(dl):
                terms.append(ex.BinOp("*", dl, node.right))
            if not _zero(dr):
                terms.append(ex.BinOp("*", node.left, dr))
            if not terms:
                return ex.Const(0.0)
            return terms[0] if len(terms) == 1 else ex.BinOp("+", terms[0], terms[1])
        first = ex.Const(0.0) if _zero(dl) else ex.BinOp("/", dl, node.right)
        if _zero(dr):
            return first
        return ex.BinOp("-", first, ex.BinOp("/", ex.BinOp("*", node.left, dr),
                                             ex.Pow(node.right, 2.0)))
    if isinstance(node, ex.Pow):
        db = d(node.base, var)
        if _zero(db) or node.exponent == 0:
            return ex.Const(0.0)
        inner = ex.Pow(node.base, node.exponent - 1.0)
        return ex.BinOp("*", ex.BinOp("*", ex.Const(node.exponent), inner), db)
    da = d(node.arg, var)
    if _zero(da):
        return ex.Const(0.0)
    f = node.arg
    outer = {"sqrt": lambda: ex.BinOp("/", ex.Const(0.5), ex.Func("sqrt", f)),
             "exp": lambda: ex.Func("exp", f),
             "log": lambda: ex.BinOp("/", ex.Const(1.0), f),
             "sin": lambda: ex.Func("cos", f),
             "cos": lambda: ex.BinOp("-", ex.Const(0.0), ex.Func("sin", f)),
             "tan": lambda: ex.BinOp("/", ex.Const(1.0), ex.Pow(ex.Func("cos", f), 2.0)),
             "atan": lambda: ex.BinOp("/", ex.Const(1.0),
                                      ex.BinOp("+", ex.Const(1.0), ex.Pow(f, 2.0)))}[node.name]()
    return ex.BinOp("*", outer, da)


def _zero(node):
    return isinstance(node, ex.Const) and node.value == 0.0


def unshared_fold(node):
    """Constant folding of one AST that rebuilds every operator node."""
    import math

    if isinstance(node, (ex.Const, ex.Var)):
        return node
    if isinstance(node, ex.BinOp):
        left, right = unshared_fold(node.left), unshared_fold(node.right)
        if isinstance(left, ex.Const) and isinstance(right, ex.Const):
            if node.op == "/" and right.value == 0:
                return ex.BinOp(node.op, left, right)
            return ex.Const({"+": left.value + right.value,
                             "-": left.value - right.value,
                             "*": left.value * right.value,
                             "/": left.value / right.value if right.value else math.nan}[node.op])
        if node.op == "*" and (_zero(left) or _zero(right)):
            return ex.Const(0.0)
        if node.op == "*" and isinstance(left, ex.Const) and left.value == 1.0:
            return right
        if node.op == "*" and isinstance(right, ex.Const) and right.value == 1.0:
            return left
        if node.op in ("+", "-") and _zero(right):
            return left
        if node.op == "+" and _zero(left):
            return right
        if node.op == "/" and _zero(left):
            return ex.Const(0.0)
        return ex.BinOp(node.op, left, right)
    if isinstance(node, ex.Pow):
        base = unshared_fold(node.base)
        if node.exponent == 1.0:
            return base
        if isinstance(base, ex.Const) and float(node.exponent).is_integer():
            return ex.Const(base.value ** node.exponent)
        return ex.Pow(base, node.exponent)
    return ex.Func(node.name, unshared_fold(node.arg))


def unshared_eval_ast(node, env):
    """An AST on jets, walked node by node with nothing reused."""
    from finvar import jets as jt

    def walk(node):
        if isinstance(node, ex.Const):
            return node.value
        if isinstance(node, ex.Var):
            return env[node.name]
        if isinstance(node, ex.BinOp):
            a, b = walk(node.left), walk(node.right)
            return {"+": lambda: a + b, "-": lambda: a - b,
                    "*": lambda: a * b, "/": lambda: a / b}[node.op]()
        if isinstance(node, ex.Pow):
            base = walk(node.base)
            p = node.exponent
            return base ** (int(p) if not isinstance(base, jt.Jet) and float(p).is_integer() else p)
        arg = walk(node.arg)
        if isinstance(arg, jt.Jet):
            return getattr(arg, node.name)()
        return getattr(np, {"atan": "arctan"}.get(node.name, node.name))(arg)

    result = walk(node)
    if not isinstance(result, jt.Jet):
        jet = next(v for v in env.values() if isinstance(v, jt.Jet))
        return jet.space.constant(np.broadcast_to(result, jet.c.shape[1:]))
    return result


def unshared_partial_ast(rs, a, b, mu):
    """∂_mu g_ab of a RiemannStructure, derived level by level as a tree of its own."""
    node = rs.metric_asts[a][b]
    for k in range(len(mu)):
        node = unshared_fold(unshared_differentiate(node, rs.coords[mu[k]]))
    return node


def unshared_partials(rs, env, order):
    """Level `order` of the partial table at `env`: [c..][a][b] = g_ab,c.., as jets."""
    import itertools

    n = rs.dim
    out = {}
    for t in itertools.product(range(n), repeat=order):
        mu = tuple(sorted(t))
        out[t] = [[unshared_eval_ast(unshared_partial_ast(rs, a, b, mu), env)
                   for b in range(n)] for a in range(n)]
    return out


# --- jet `+`, `-` and `*` as they were before the dispatch and zero rules -----
#
# An oracle for `jets.Jet`'s arithmetic: every operation embeds and aligns its
# operands and runs its kernel, exact zeros included, and reads no `zero`
# flag. Jets over disjoint names are both embedded into their union and run
# its full Leibniz table, where the engine gathers one pair per row.
# `reference_arithmetic()` installs it on `Jet` for the length of a `with`
# block, so every product and sum inside the engine (powers, functions,
# divisions) runs it too.

def _reference_embed(jet, space):
    """`jet` in `space`, which has every one of the jet's names: each row goes
    to the row of `space` with the same exponents at those names and 0 at the
    others, and every other row is 0."""
    order = min(jet.order, space.order)
    pos = [space.names.index(name) for name in jet.space.names]
    c = np.zeros((space.nrows[order],) + jet.c.shape[1:])
    for row, e in enumerate(jet.space.exps[:jet.space.nrows[order]]):
        mu = [0] * space.m
        for p, k in zip(pos, e):
            mu[p] = int(k)
        c[space.index[tuple(mu)]] = jet.c[row]
    return jt.Jet(space, c, order)


def _reference_common(a, b):
    """Both jets in the space of the one whose names hold the other's, or,
    for disjoint names, in their union with the names that sort first first."""
    na, nb = set(a.space.names), set(b.space.names)
    if a.space.names == b.space.names:
        return a, b
    if nb <= na:
        return a, _reference_embed(b, a.space)
    if na <= nb:
        return _reference_embed(a, b.space), b
    if not na.isdisjoint(nb):
        raise ValueError(f"jets over {a.space.names} and {b.space.names} do not combine")
    first, second = sorted((a.space.names, b.space.names))
    space = jt.jet_space(first + second, max(a.space.order, b.space.order))
    return _reference_embed(a, space), _reference_embed(b, space)


def reference_add(a, b):
    if isinstance(b, jt.Jet):
        a, b = _reference_common(a, b)
        order = min(a.order, b.order)
        n = a.space.nrows[order]
        ac, bc = jt.Jet._align_pair(a.c[:n], b.c[:n])
        return jt.Jet(a.space, ac + bc, order)
    b = np.asarray(b, dtype=np.float64)
    c = jt._lift(a.c, b.ndim + 1)
    head = c[0] + b
    c = np.broadcast_to(c, c.shape[:1] + head.shape).copy()
    c[0] = head
    return jt.Jet(a.space, c, a.order)


def reference_neg(a):
    return jt.Jet(a.space, -a.c, a.order)


def reference_sub(a, b):
    return reference_add(a, reference_neg(b) if isinstance(b, jt.Jet) else -np.asarray(b))


def reference_rsub(a, b):
    return reference_add(reference_neg(a), b)


def reference_mul(a, b):
    if not isinstance(b, jt.Jet):
        b = np.asarray(b, dtype=np.float64)
        return jt.Jet(a.space, jt._lift(a.c, b.ndim + 1) * b, a.order)
    a, b = _reference_common(a, b)
    sp = a.space
    r = min(a.order, b.order)
    ii, jj, ww, starts = sp._mul_table(r)
    ac, bc = jt.Jet._align_pair(a.c, b.c)
    prod = ac[ii] * bc[jj]
    prod *= ww.reshape((-1,) + (1,) * (prod.ndim - 1))
    return jt.Jet(sp, np.add.reduceat(prod, starts, axis=0), r)


_REFERENCE_OPS = {"__add__": reference_add, "__radd__": reference_add,
                  "__sub__": reference_sub, "__rsub__": reference_rsub,
                  "__neg__": reference_neg,
                  "__mul__": reference_mul, "__rmul__": reference_mul}


@contextlib.contextmanager
def reference_arithmetic():
    """Every jet `+`, `-` and `*` runs the reference operations above inside
    the block; `Jet`'s own are restored on exit."""
    saved = {k: jt.Jet.__dict__[k] for k in _REFERENCE_OPS}
    for k, op in _REFERENCE_OPS.items():
        setattr(jt.Jet, k, op)
    try:
        yield
    finally:
        for k, op in saved.items():
            setattr(jt.Jet, k, op)
