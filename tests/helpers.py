"""Shared test utilities: random smooth expressions and finite-difference
oracles for jet coefficients."""

import numpy as np

from finvar import expressions as ex


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
