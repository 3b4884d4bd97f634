"""Shared test utilities: random smooth expressions and finite-difference
oracles for jet coefficients."""

import contextlib
import math

import numpy as np

from finvar import expressions as ex
from finvar import jets as jt
from finvar.finsler import DomainGeometry, FinslerStructure, TorusChart
from finvar.maps import SmoothMap


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


# --- expanded reference loops of the geometric formulas ----------------------------
#
# Each formula written out in full, one loop nest per quantity, with none of
# the engine's shared kernels (`riemann.levi_civita`, `riemann.curvature_table`,
# `DomainGeometry.horizontal_trace` and `contract`). They read the engine's δ,
# g, g⁻¹, Γ, P_i, γ̃, dφ and pullback connection, so comparing them with the
# engine checks the kernels' index wiring and summation order alone.

def reference_chern_rund(geom):
    """Γ^i_jk = ½ g^{ih}(δ_k g_hj + δ_j g_hk − δ_h g_jk)."""
    n = geom.n
    dg = [[[geom.delta(geom.g[a][b], c) for c in range(n)] for b in range(n)]
          for a in range(n)]
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                entry = 0.5 * jt.sum_terms([geom.ginv[i][h]
                                            * (dg[h][j][k] + dg[h][k][j] - dg[j][k][h])
                                            for h in range(n)])
                out[i][j][k] = entry
                out[i][k][j] = entry
    return out


def reference_hh_curvature(geom):
    """R_j^i_kl = δ_l Γ^i_jk − δ_k Γ^i_jl + Γ^h_jk Γ^i_hl − Γ^h_jl Γ^i_hk, as [j][i][k][l]."""
    n, gamma = geom.n, reference_chern_rund(geom)
    dgamma = [[[[geom.delta(gamma[i][j][k], l) for l in range(n)]
                for k in range(n)] for j in range(n)] for i in range(n)]
    out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                for l in range(n):
                    out[j][i][k][l] = (dgamma[i][j][k][l] - dgamma[i][j][l][k]
                                       + jt.sum_terms([gamma[h][j][k] * gamma[i][h][l]
                                                       - gamma[h][j][l] * gamma[i][h][k]
                                                       for h in range(n)]))
    return out


def reference_horizontal_laplacian(geom, f):
    """Δf = −g^{ij}(δ_iδ_j f − Γ^k_ij δ_k f − P_i δ_j f)."""
    n = geom.n
    df = [geom.delta(f, i) for i in range(n)]
    terms = []
    for i in range(n):
        for j in range(n):
            term = geom.delta(df[j], i)
            for k in range(n):
                term = term - geom.gamma[k][i][j] * df[k]
            term = term - geom.P_i[i] * df[j]
            terms.append(geom.ginv[i][j] * term)
    return -jt.sum_terms(terms)


def reference_tension(mg):
    """τ^α = g^{ij}(φ^α_{,ij} + γ̃^α_{βγ}φ^β_{,i}φ^γ_{,j} − Γ^k_{ij}φ^α_{,k} − P_i φ^α_{,j})."""
    n, m, g = mg.n, mg.m, mg.geom
    gamma, dphi, xn = mg.codomain.gamma, mg.dphi, mg.map.fs.xnames
    out = []
    for a in range(m):
        terms = []
        for i in range(n):
            for j in range(n):
                t = dphi[a][i].deriv(xn[j])
                t = t + jt.sum_terms([gamma[a][b][c] * dphi[b][i] * dphi[c][j]
                                      for b in range(m) for c in range(m)])
                for k in range(n):
                    t = t - g.gamma[k][i][j] * dphi[a][k]
                t = t - g.P_i[i] * dphi[a][j]
                terms.append(g.ginv[i][j] * t)
        out.append(jt.sum_terms(terms))
    return out


def reference_rough_laplacian(mg, S):
    """(Δ^{dφ}S)^α = g^{ij}(−D_iD_jS + Γ^k_{ij}D_kS + P_i D_jS)."""
    n, g = mg.n, mg.geom
    DS = [mg.cov_deriv(S, j) for j in range(n)]
    DDS = [[mg.cov_deriv(DS[j], i) for j in range(n)] for i in range(n)]
    out = []
    for a in range(mg.m):
        terms = []
        for i in range(n):
            for j in range(n):
                t = -DDS[i][j][a]
                for k in range(n):
                    t = t + g.gamma[k][i][j] * DS[k][a]
                t = t + g.P_i[i] * DS[j][a]
                terms.append(g.ginv[i][j] * t)
        out.append(jt.sum_terms(terms))
    return out


# --- the map operators as they were before their terms were cut ---------------------
#
# Each operator with every term built at the orders of its inputs, as the
# engine built it before `Jet.truncated` cut the terms of a sum to the sum's
# order: the oracle for those cuts, row by row.

def reference_cov_deriv(mg, S, i):
    """(D_{δ_i}S)^α = δ_i S^α + γ̃^α_{βγ} φ^β_{,i} S^γ, the connection term uncut."""
    gamma, m = mg.codomain.gamma, mg.m
    return [mg.geom.delta(S[a], i)
            + jt.sum_terms([gamma[a][b][c] * mg.dphi[b][i] * S[c]
                            for b in range(m) for c in range(m)])
            for a in range(m)]


def reference_horizontal_trace(geom, A, B):
    """g^{ij}(A_ij − Σ_k Γ^k_ij B_k − P_i B_j) with Γ·B and P·B uncut."""
    n = geom.n
    terms = []
    for i in range(n):
        for j in range(n):
            t = A[i][j]
            for k in range(n):
                t = t - geom.gamma[k][i][j] * B[k]
            terms.append(geom.ginv[i][j] * (t - geom.P_i[i] * B[j]))
    return jt.sum_terms(terms)


def reference_jacobi(mg, S):
    """JS = −Δ^{dφ}S − g^{ij}R̃(dφ(δ_i), S)dφ(δ_j), the curvature trace at S's order."""
    from finvar.riemann import riem_apply

    n, m, g = mg.n, mg.m, mg.geom
    DS = [reference_cov_deriv(mg, S, j) for j in range(n)]
    DDS = [[reference_cov_deriv(mg, DS[j], i) for j in range(n)] for i in range(n)]
    lap = [-reference_horizontal_trace(g, [[DDS[i][j][a] for j in range(n)] for i in range(n)],
                                       [DS[k][a] for k in range(n)]) for a in range(m)]
    cols = [[mg.dphi[b][i] for b in range(m)] for i in range(n)]
    applied = [[riem_apply(mg.codomain.riem, cols[i], S, cols[j], m) for j in range(n)]
               for i in range(n)]
    tr = [jt.sum_terms([g.ginv[i][j] * applied[i][j][a] for i in range(n) for j in range(n)])
          for a in range(m)]
    return [-lap[a] - tr[a] for a in range(m)]


def reference_hessian_integrand(mg, V1, V2):
    """The Hessian integrand of `MapGeometry.hessian_integrand`, every term at
    the orders of its inputs."""
    from finvar.riemann import nabla_riem_apply, riem_apply

    n, m, g = mg.n, mg.m, mg.geom
    tau, riem, nabla = mg.tension, mg.codomain.riem, mg.codomain.nabla
    JJ = reference_jacobi(mg, reference_jacobi(mg, V2))
    total = [jj + r for jj, r in zip(JJ, riem_apply(riem, V2, tau, tau, m))]
    Dtau = [reference_cov_deriv(mg, tau, j) for j in range(n)]
    DV2 = [reference_cov_deriv(mg, V2, j) for j in range(n)]
    for i in range(n):
        dphi_i = [mg.dphi[b][i] for b in range(m)]
        for j in range(n):
            dphi_j = [mg.dphi[b][j] for b in range(m)]
            t1 = nabla_riem_apply(nabla, tau, V2, dphi_i, dphi_j, m)
            t2 = nabla_riem_apply(nabla, dphi_i, dphi_j, tau, V2, m)
            t3 = riem_apply(riem, V2, dphi_i, Dtau[j], m)
            t4 = riem_apply(riem, dphi_i, tau, DV2[j], m)
            for a in range(m):
                total[a] = total[a] + g.ginv[i][j] * (t1[a] - t2[a] + 2.0 * t3[a] - 2.0 * t4[a])
    return mg.inner(V1, total)


# --- domains, points and maps of the formula tests -----------------------------------

TWO_PI = 2 * math.pi
GEN_CODOMAIN = [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"],
                ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]]


_CHART = TorusChart((1.0, 1.0))
DOMAINS = {
    "randers": lambda: FinslerStructure.randers(
        [["1", "0"], ["0", "1"]], [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"], 2,
        chart=_CHART),
    "perturbed": lambda: FinslerStructure.perturbed(
        [["1 + x2^2/4", "x1*x2/8"], ["x1*x2/8", "1 + x1^2/4"]],
        "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2)", 2, chart=_CHART, scale=0.05),
    "euclidean": lambda: FinslerStructure.euclidean(2, chart=_CHART),
    "custom": lambda: FinslerStructure.custom(
        "sqrt(y1^2 + y2^2)*(1 + 0.1*sin(x1)*cos(x2)) + 0.1*sin(x2)*y1 + 0.05*y2*cos(x1)",
        2, chart=_CHART),
    "custom-n3": lambda: FinslerStructure.custom(
        "sqrt(y1^2 + y2^2 + y3^2)*(1 + 0.1*sin(x1)*cos(x2) + 0.05*x3)"
        " + 0.1*sin(x2)*y1 + 0.05*y3*cos(x1)", 3, chart=TorusChart((1.0, 1.0, 1.0))),
}
BATCHES = {"batch-free": [0.8, -0.6, 0.3],
           "batched": [[0.8, -0.3, 1.1], [-0.6, 0.9, 0.2], [0.3, 0.1, -0.7]]}


def formula_geometry(domain, batch, order):
    """The domain geometry of DOMAINS[domain] at one base point, over BATCHES[batch]."""
    fs = DOMAINS[domain]()
    n = fs.dim
    return DomainGeometry(fs, [0.31, 0.77, 0.12][:n], BATCHES[batch][:n], order)


def formula_map(fs, rs):
    """A periodic map from the domain `fs` into the 2-dimensional codomain `rs`."""
    x = fs.xnames
    return SmoothMap([f"0.8 + 0.3*cos({x[0]}*{TWO_PI!r}) + 0.1*sin({x[-1]}*{TWO_PI!r})",
                      f"0.2*sin({x[0]}*{TWO_PI!r}) + 0.25*cos({x[1]}*{TWO_PI!r})"], fs, rs)
