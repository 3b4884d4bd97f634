"""Finsler domain geometry computed pointwise from jets of F².

Everything downstream of the fundamental function — metric tensor, geodesic
spray, nonlinear connection, adapted (horizontal) derivatives, Chern–Rund
symbols, torsion trace, curvatures, divergence, horizontal Laplacian — is
obtained by evaluating one jet of F² at the working point and differentiating
it symbolically inside the jet algebra.  No numeric differencing is involved.
ORDER_TABLE holds the jet order each read needs and is the only place the
engine states one; a geometry that serves several reads is built once, at
the largest of their orders (`order_for`).

Conventions (indices are 0-based in code):
    g_ij      = ½ ∂²F²/∂y^i∂y^j
    2 G^i     = ½ g^{ih} ( (F²)_{·h,k} y^k − (F²)_{,h} )
    G^i_j     = ∂G^i/∂y^j            (nonlinear connection)
    δ_i       = ∂_i − G^j_i ∂̇_j      (adapted horizontal derivative)
    Γ^i_jk    = ½ g^{ih} (δ_k g_hj + δ_j g_hk − δ_h g_jk)
    G^i_jk    = ∂²G^i/∂y^j∂y^k
    P^i_jk    = G^i_jk − Γ^i_jk,  P_i = P^j_ij
    R^i_jk    = δ_k G^i_j − δ_j G^i_k
    R_j^i_kl  = δ_l Γ^i_jk − δ_k Γ^i_jl + Γ^h_jk Γ^i_hl − Γ^h_jl Γ^i_hk
    P_j^i_kl  = ∂Γ^i_jk/∂y^l

Γ and R_j^i_kl are `riemann.levi_civita` and `riemann.curvature_table` with δ
in place of ∂, and δ runs once per mirrored pair of g_ab or Γ^i_jk (one jet).
Every trace g^{ij}(A_ij − Γ^k_ij B_k − P_i B_j) (Δf, τ, Δ^{dφ}) goes through
`DomainGeometry.horizontal_trace`, every g^{ij}T_ij through `contract`. The
trace builds Γ^k_ij B_k and P_i B_j at the order of its sum, the least order
of its terms, by cutting B to it first (`Jet.truncated`). Uncut, Γ^k_ij B_k
would run one order above the sum in τ (whose order is P_i's) and in
Δ^{dφ}S (whose order is A's), and so would P_i B_j in Δ^{dφ}S, computing rows
the sum throws away. The cut moves no bit: a jet's rows of degree <= r do not
depend on its higher rows (see `jets`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import expressions as ex
from . import jets as jt
from .errors import ChartError, ConfigError, DomainEvalError, SingularMetricError
from .riemann import curvature_table, determinant, invert_matrix, levi_civita

# The jet order of F² each read needs: the least order at which its value
# survives every derivative taken on the way (one lower raises OrderLimitError).
# A higher order gives the same values, up to the sign of a zero: a Taylor
# coefficient of degree d depends only on input coefficients of degree <= d.
ORDER_TABLE = {
    # F², g, g⁻¹, det g; the spray G^i and the identity analysis' B^i
    "metric": 2, "energy_density": 2, "spray": 2, "condition35": 2,
    "delta": 3,                 # one δ_i of a field, or D_{δ_i} of a section
    "connection": 4, "curvature": 4, "tension": 4, "laplacian": 4, "divergence": 4,
    "identity_tension": 4, "invariants": 4,
    "jacobi": 4,                # Δ^{dφ}S and JS of an expression section S
    "identity_residuals": 5,    # eqs. 33, 34 and the spray split of `check identity`
    # τ₂, also Δ^{dφ}S and JS of a callable section such as τ
    "bitension": 6, "weitzenbock": 6, "hessian": 6,
}


def order_for(*reads: str) -> int:
    """The jet order of one geometry that serves all of `reads`."""
    return max(ORDER_TABLE[r] for r in reads)


DEFAULT_R_MIN = 1e-6
_COND_LIMIT = 1e12


# --- charts ---------------------------------------------------------------------

@dataclass(frozen=True)
class TorusChart:
    """Periodic chart: every coordinate value is admissible; integration
    treats coordinate i with period periods[i]."""

    periods: tuple

    @property
    def dim(self):
        return len(self.periods)

    def contains(self, x) -> bool:
        return True

    def sample_box(self):
        return [(0.0, p) for p in self.periods]


@dataclass(frozen=True)
class BoxChart:
    """Plain box chart with no identifications; leaving it is an error."""

    bounds: tuple  # ((lo, hi), ...)

    @property
    def dim(self):
        return len(self.bounds)

    def contains(self, x) -> bool:
        return all(lo - 1e-12 <= xi <= hi + 1e-12 for xi, (lo, hi) in zip(x, self.bounds))

    def sample_box(self):
        return list(self.bounds)


def _default_chart(n):
    return BoxChart(tuple((-1.0, 1.0) for _ in range(n)))


def sample_stack(box, count: int, rng, margin: float = 0.0, radii=(0.7, 1.5)):
    """`count` points drawn by `rng`, one after the other: x uniform in `box`
    with `margin` of each side's width cut off at both ends, and y a uniform
    direction of length uniform in `radii` (1 when None). Returned as one
    stack of nodes with one fiber each (`DomainGeometry`): x of shape
    (n, count) and y of shape (n, count, 1)."""
    n = len(box)
    x, y = np.empty((n, count)), np.empty((n, count, 1))
    for g in range(count):
        x[:, g] = [rng.uniform(lo + margin * (hi - lo), hi - margin * (hi - lo))
                   for lo, hi in box]
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        if radii is not None:
            u *= rng.uniform(*radii)
        y[:, g, 0] = u
    return x, y


# --- the structure --------------------------------------------------------------

@dataclass(frozen=True)
class PointState:
    """Base point x and nonzero fiber coordinate y."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        object.__setattr__(self, "x", np.asarray(x, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(y, dtype=np.float64))
        if float(np.linalg.norm(self.y)) < DEFAULT_R_MIN:
            raise ChartError(f"fiber coordinate below the zero-section floor {DEFAULT_R_MIN}")


class FinslerStructure:
    """Immutable Finsler structure: chart + fundamental function F²(x, y).

    Every structure is checked when it is built, at 64 fixed sample points:
    F² finite and positive, F positively 1-homogeneous in y, g positive
    definite and, for the perturbed family, b 2-homogeneous in y. A failure
    raises `ConfigError` for the first failing sample in draw order (see
    `_validate`).
    """

    def __init__(self, dim: int, f2_ast, chart=None, label: str = "custom", b_ast=None):
        if dim < 2:
            raise ConfigError("domain dimension must be >= 2")
        self.dim = dim
        self.chart = chart if chart is not None else _default_chart(dim)
        if self.chart.dim != dim:
            raise ConfigError("chart dimension does not match structure dimension")
        self.label = label
        self.xnames = tuple(f"x{i + 1}" for i in range(dim))
        self.ynames = tuple(f"y{i + 1}" for i in range(dim))
        self.f2_ast = ex.parse(f2_ast, self.xnames + self.ynames)
        self.b_ast = b_ast
        self._validate()

    # --- constructors ----------------------------------------------------------

    @classmethod
    def euclidean(cls, dim: int, chart=None) -> "FinslerStructure":
        terms = " + ".join(f"y{i + 1}^2" for i in range(dim))
        ast = ex.parse(terms, [f"y{i + 1}" for i in range(dim)])
        return cls(dim, ast, chart, label="euclidean")

    @classmethod
    def riemannian(cls, matrix_sources, dim: int, chart=None) -> "FinslerStructure":
        coords = [f"x{i + 1}" for i in range(dim)]
        mat = [[ex.parse(entry, coords) for entry in row] for row in matrix_sources]
        f2 = _quadratic_form_ast(mat, dim)
        return cls(dim, f2, chart, label="riemannian")

    @classmethod
    def randers(cls, alpha_sources, beta_sources, dim: int, chart=None) -> "FinslerStructure":
        """F = sqrt(a_ij(x) y^i y^j) + b_i(x) y^i."""
        coords = [f"x{i + 1}" for i in range(dim)]
        amat = [[ex.parse(entry, coords) for entry in row] for row in alpha_sources]
        bvec = [ex.parse(entry, coords) for entry in beta_sources]
        alpha2 = _quadratic_form_ast(amat, dim)
        beta = None
        for i in range(dim):
            term = ex.BinOp("*", bvec[i], ex.Var(f"y{i + 1}"))
            beta = term if beta is None else ex.BinOp("+", beta, term)
        f = ex.BinOp("+", ex.Func("sqrt", alpha2), beta)
        return cls(dim, ex.Pow(f, 2.0), chart, label="randers")

    @classmethod
    def perturbed(cls, matrix_sources, b_source, dim: int, chart=None,
                  scale: float = 1.0) -> "FinslerStructure":
        """F² = g̃_ij(x) y^i y^j + scale·b(x, y) with b 2-homogeneous in y."""
        coords = [f"x{i + 1}" for i in range(dim)] + [f"y{i + 1}" for i in range(dim)]
        xonly = [f"x{i + 1}" for i in range(dim)]
        mat = [[ex.parse(entry, xonly) for entry in row] for row in matrix_sources]
        b = ex.parse(b_source, coords)
        if scale != 1.0:
            b_scaled = ex.BinOp("*", ex.Const(float(scale)), b)
        else:
            b_scaled = b
        f2 = ex.BinOp("+", _quadratic_form_ast(mat, dim), b_scaled)
        return cls(dim, f2, chart, label="perturbed", b_ast=b_scaled)

    @classmethod
    def custom(cls, f_source, dim: int, chart=None) -> "FinslerStructure":
        coords = [f"x{i + 1}" for i in range(dim)] + [f"y{i + 1}" for i in range(dim)]
        f = ex.parse(f_source, coords)
        return cls(dim, ex.Pow(f, 2.0), chart, label="custom")

    # --- plain evaluation -------------------------------------------------------

    def evaluate(self, ast, x, y):
        """The AST in x and y at the point (x, y) with plain numerics: x and
        y each hold `dim` components, scalars or batches that broadcast."""
        env = dict(zip(self.xnames, x))
        env.update(zip(self.ynames, y))
        return ex.evaluate(ast, env)

    def f2_value(self, x, y):
        """F²(x, y) with plain numerics; x components scalar, y may be batched."""
        return self.evaluate(self.f2_ast, x, y)

    def f_value(self, x, y):
        f2 = self.f2_value(x, y)
        if np.any(np.asarray(f2) <= 0):
            raise DomainEvalError("F^2 <= 0 at an evaluation point")
        return np.sqrt(f2)

    # --- construction-time validation --------------------------------------------

    def _validate(self):
        """Check the hypotheses on F at 64 points drawn from a fixed seed
        (once per sample box and dimension, `_validation_samples`).

        Each point has x uniform in the chart's sample box and y in a random
        direction with |y| uniform in [0.5, 2]. Four checks run at every
        point, in this order: F² is finite and positive; F is positively
        1-homogeneous in y (λ = 0.5, 2, 7, to 1e-10 relative); the metric
        g_ij = ½∂²F²/∂yⁱ∂yʲ is positive definite; and, for the perturbed
        family, b is 2-homogeneous in y. Each check runs once over all the
        points, and the `ConfigError` is that of the first failing point in
        draw order at its first failing check. A `DomainEvalError` raised by
        an evaluation at any point propagates, also when an earlier point, or
        an earlier check at the same point, fails a check: a loop over the
        points would have stopped at that failure before the evaluation.
        """
        n = self.dim
        x, y = _validation_samples(tuple(map(tuple, self.chart.sample_box())), n)
        samples = x.shape[1]
        lams = (0.5, 2.0, 7.0)

        def at(ast, yv):
            return np.broadcast_to(self.evaluate(ast, x, yv), (samples,))

        with np.errstate(all="ignore"):
            f2 = at(self.f2_ast, y)
            f = np.sqrt(f2)
            failed = [~np.isfinite(f2) | (f2 <= 0),
                      np.any([abs(np.sqrt(at(self.f2_ast, lam * y)) - lam * f) > 1e-10 * lam * f
                              for lam in lams], axis=0)]
            # g_ij from one order-2 jet of F² in y, each x entering as a constant
            space = jt.jet_space(self.ynames, ORDER_TABLE["metric"])
            env = {name: space.constant(xi) for name, xi in zip(self.xnames, x)}
            env.update(space.point_env(dict(zip(self.ynames, y))))
            f2_jet, e = jt.eval_ast(self.f2_ast, env), np.eye(n, dtype=int)
            g = np.array([[0.5 * f2_jet.partial(tuple(e[i] + e[j])) for j in range(n)]
                          for i in range(n)])
            failed.append(np.linalg.eigvalsh(np.moveaxis(g, -1, 0)).min(axis=-1) <= 0)
            if self.b_ast is not None:
                b = at(self.b_ast, y)
                failed.append(np.any([abs(at(self.b_ast, lam * y) - lam * lam * b)
                                      > 1e-10 * lam * lam * abs(b) + 1e-12
                                      for lam in lams], axis=0))
        failed = np.array(failed)
        bad = np.flatnonzero(failed.any(axis=0))
        if bad.size == 0:
            return
        k = bad[0]
        x, y = x[:, k], y[:, k]
        raise ConfigError([f"F(x,y) not positive at sample x={x}, y={y}",
                           "F is not positively 1-homogeneous in y",
                           f"metric tensor not positive definite at sample x={x}, y={y}",
                           "perturbation b is not 2-homogeneous in y"][np.argmax(failed[:, k])])


@lru_cache(maxsize=32)
def _validation_samples(box: tuple, n: int):
    """The 64 validation points of `FinslerStructure._validate` in a sample
    box: x and y, each of shape (n, 64) and read-only, drawn once per
    (box, n) from a fixed seed."""
    rng = np.random.default_rng(20240611)
    xs, ys = [], []
    for _ in range(64):
        xs.append(np.array([rng.uniform(lo, hi) for lo, hi in box]))
        y = rng.normal(size=n)
        y *= rng.uniform(0.5, 2.0) / np.linalg.norm(y)
        ys.append(y)
    x, y = np.stack(xs, axis=1), np.stack(ys, axis=1)
    x.flags.writeable = y.flags.writeable = False
    return x, y


def _quadratic_form_ast(matrix_asts, dim):
    """AST for g_ij(x) y^i y^j from a symmetric matrix of x-expressions."""
    total = None
    for i in range(dim):
        for j in range(dim):
            entry = matrix_asts[i][j]
            if isinstance(entry, ex.Const) and entry.value == 0.0:
                continue
            term = ex.BinOp("*", ex.BinOp("*", entry, ex.Var(f"y{i + 1}")),
                            ex.Var(f"y{j + 1}"))
            total = term if total is None else ex.BinOp("+", total, term)
    if total is None:
        raise ConfigError("metric matrix is identically zero")
    return total


# --- the pointwise geometry pipeline ---------------------------------------------

def adapted_derivative(fs: FinslerStructure, N, jet, i):
    """δ_i = ∂_i − N^j_i ∂̇_j of a jet, N[j][i] = N^j_i the domain's G^j_i or a base G̃^j_i."""
    out = jet.deriv(fs.xnames[i])
    for j in range(fs.dim):
        out = out - N[j][i] * jet.deriv(fs.ynames[j])
    return out


class DomainGeometry:
    """All jets of the intrinsic geometry at one base point, or at a stack
    of them.

    x of shape (n,) is one base point, whose y may carry trailing batch axes,
    in which case every derived quantity is batched over the fiber samples.
    x of shape (n, G) is G base points with y of shape (n, G, K), K fibers a
    point: x-only jets carry the node axis as a (G, 1) batch and (x, y) jets
    a (G, K) batch, and every kernel is elementwise over the batch, so each
    node's values are bitwise those of its own geometry. The chart is
    checked at each point. All members are jets; use `.value` (or
    `values()` on nested tables) for the numbers.

    `env` binds each x name to a variable of the x-only jet space and each y
    name to a variable of the y-only space, both of order `order`. So every
    quantity built from `env` stays in the space of the variables it depends
    on: the x-only parts of F², a map φ, the codomain pulled back through it
    and x-only fields in the x-only space; the y-only parts of F² (α² and √α²
    of a Randers metric with constant α, all of a Euclidean F²) in the y-only
    one. The (x, y) space appears only where an x-dependent jet meets a
    y-dependent one, such as βᵢ(x)·yⁱ (see `jets`). Read a jet's `partial`
    with a multi-index over its own space's names.

    `at_order(r)` is a view of this geometry at a lower order r that shares
    every member computed so far, each cut to its order in a fresh order-r
    geometry: a quadrature node builds one geometry at the order of its
    deepest read and runs its shallower rows (E₂ beside τ₂ or the Hessian) on
    such a view, each at its least order.
    """

    def __init__(self, fs: FinslerStructure, x, y, order: int):
        self.fs = fs
        self.n = fs.dim
        self.order = order
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape[:1] != (self.n,) or x.ndim > 2:
            raise ChartError(f"expected {self.n} base coordinates")
        if x.ndim == 2 and (y.ndim != 3 or y.shape[:2] != x.shape):
            raise ChartError(f"a stack of {x.shape[1]} base points needs fibers of shape "
                             f"({self.n}, {x.shape[1]}, K)")
        for point in (x.T if x.ndim == 2 else [x]):
            if not fs.chart.contains(point):
                raise ChartError(f"point {point} outside the chart")
        if not np.all(np.isfinite(y)):
            raise ChartError("fiber coordinate is not finite")
        ynorm = np.sqrt(sum(np.asarray(y[i]) ** 2 for i in range(self.n)))
        if np.any(ynorm < DEFAULT_R_MIN):
            raise ChartError(f"fiber coordinate below the zero-section floor {DEFAULT_R_MIN}")
        self.x = x
        self.y = y
        self.env = jt.jet_space(fs.xnames, order).point_env(
            dict(zip(fs.xnames, x if x.ndim == 1 else x[:, :, None])))
        self.env.update(jt.jet_space(fs.ynames, order).point_env(
            {fs.ynames[i]: np.asarray(y[i], dtype=np.float64) for i in range(self.n)}))

    def at_order(self, order: int) -> "DomainGeometry":
        """This geometry at the lower jet order `order`, for reads that need
        no more: a view that shares every member computed so far (F², g, g⁻¹,
        det g, the spray, Γ, P, …), each jet cut by `self.order - order`
        (`Jet.truncated`, no copy), and binds `env` to the variables cut to
        `order`. A member whose cut would fall below order 0 is left out and
        computed on its first read, which raises `OrderLimitError` where a
        fresh geometry of that order would. Every value equals that of a
        fresh geometry of that order, up to the sign of a zero (see `jets`),
        and F² is not evaluated again."""
        if order == self.order:
            return self
        if not 0 <= order < self.order:
            raise ValueError(f"a view of an order-{self.order} geometry needs an order "
                             f"in [0, {self.order}], got {order}")
        cut = self.order - order
        view = object.__new__(type(self))
        view.fs, view.n, view.order, view.x, view.y = self.fs, self.n, order, self.x, self.y
        view.env = {name: jet.truncated(order) for name, jet in self.env.items()}
        for name, table in vars(self).items():
            if isinstance(getattr(type(self), name, None), cached_property) \
                    and jt.least_order(table) >= cut:
                view.__dict__[name] = _cut_by(table, cut)
        return view

    # -- fundamental jets ---------------------------------------------------------

    @cached_property
    def f2(self):
        return jt.eval_ast(self.fs.f2_ast, self.env)

    @cached_property
    def g(self):
        n = self.n
        out = [[None] * n for _ in range(n)]
        dy = [self.f2.deriv(self.fs.ynames[i]) for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                gij = 0.5 * dy[i].deriv(self.fs.ynames[j])
                out[i][j] = gij
                out[j][i] = gij
        return out

    @cached_property
    def ginv(self):
        gval = np.array([[np.asarray(e.value) for e in row] for row in self.g])
        if not np.all(np.isfinite(gval)):
            raise SingularMetricError("metric tensor is not finite")
        gmat = np.moveaxis(gval, (0, 1), (-2, -1))
        cond = np.linalg.cond(gmat)
        if not np.all(np.isfinite(cond)) or np.any(cond > _COND_LIMIT):
            raise SingularMetricError(
                f"metric condition number {np.max(cond):.3e} exceeds {_COND_LIMIT:.0e}")
        return invert_matrix(self.g)

    @cached_property
    def detg(self):
        """det g at order 0: every reader reads only its value."""
        return determinant(jt.truncated(self.g, 0))

    @cached_property
    def spray(self):
        """G^i = ¼ g^{ih}((F²)_{·h,k} y^k − (F²)_{,h})."""
        n, fs = self.n, self.fs
        dy = [self.f2.deriv(fs.ynames[h]) for h in range(n)]
        inner = [jt.sum_terms([dy[h].deriv(fs.xnames[k]) * self.env[fs.ynames[k]]
                               for k in range(n)]) - self.f2.deriv(fs.xnames[h])
                 for h in range(n)]
        return [0.25 * jt.sum_terms([self.ginv[i][h] * inner[h] for h in range(n)])
                for i in range(n)]

    @cached_property
    def Gj(self):
        """Gj[i][j] = G^i_j = ∂G^i/∂y^j (nonlinear connection)."""
        return [[self.spray[i].deriv(self.fs.ynames[j]) for j in range(self.n)]
                for i in range(self.n)]

    @cached_property
    def Gjk(self):
        """Gjk[i][j][k] = G^i_jk (Berwald coefficients)."""
        return [[[self.Gj[i][j].deriv(self.fs.ynames[k]) for k in range(self.n)]
                 for j in range(self.n)] for i in range(self.n)]

    def delta(self, jet, i):
        """Adapted derivative δ_i = ∂_i − G^j_i ∂̇_j applied to a jet."""
        return adapted_derivative(self.fs, self.Gj, jet, i)

    def _delta_symmetric(self, table):
        """out[c][a][b] = δ_c table[a][b] for a table symmetric in (a, b) whose
        mirrored entries are one jet: one δ per pair, shared by both entries."""
        n = self.n
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for c in range(n):
            for a in range(n):
                for b in range(a, n):
                    out[c][a][b] = out[c][b][a] = self.delta(table[a][b], c)
        return out

    @cached_property
    def gamma(self):
        """gamma[i][j][k] = Chern–Rund Γ^i_jk: `riemann.levi_civita` of δ_k g_ij."""
        return levi_civita(self._delta_symmetric(self.g), self.ginv)

    @cached_property
    def P(self):
        """P[i][j][k] = P^i_jk = G^i_jk − Γ^i_jk (torsion components)."""
        n = self.n
        return [[[self.Gjk[i][j][k] - self.gamma[i][j][k] for k in range(n)]
                 for j in range(n)] for i in range(n)]

    @cached_property
    def P_i(self):
        """P_i = P^j_ij (torsion trace, the horizontal 1-form)."""
        n = self.n
        return [jt.sum_terms([self.P[j][i][j] for j in range(n)]) for i in range(n)]

    @cached_property
    def Rjk(self):
        """Rjk[i][j][k] = R^i_jk = δ_k G^i_j − δ_j G^i_k (bracket components)."""
        n = self.n
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(j + 1, n):
                    entry = self.delta(self.Gj[i][j], k) - self.delta(self.Gj[i][k], j)
                    out[i][j][k] = entry
                    out[i][k][j] = -entry
                out[i][j][j] = 0.0 * self.spray[i]
        return out

    @cached_property
    def hh_curvature(self):
        """R[j][i][k][l] = R_j{}^i{}_{kl}: `riemann.curvature_table` of Γ and δ_l Γ^i_jk."""
        dgamma = [self._delta_symmetric(gamma_i) for gamma_i in self.gamma]   # [i][l][j][k]
        return curvature_table(self.gamma, [[dgamma_i[l] for dgamma_i in dgamma]
                                            for l in range(self.n)], self.n)

    @cached_property
    def hv_curvature(self):
        """P[j][i][k][l] = Γ^i_{jk·l}."""
        n = self.n
        return [[[[self.gamma[i][j][k].deriv(self.fs.ynames[l]) for l in range(n)]
                  for k in range(n)] for j in range(n)] for i in range(n)]

    # -- scalar operators ----------------------------------------------------------

    def divergence_of(self, X):
        """div X = δ_i X^i + Γ^i_ki X^k − P_i X^i for a list of jets X^i."""
        n = self.n
        acc = self.delta(X[0], 0)
        for i in range(1, n):
            acc = acc + self.delta(X[i], i)
        for k in range(n):
            acc = acc + jt.sum_terms([self.gamma[i][k][i] for i in range(n)]) * X[k]
            acc = acc - self.P_i[k] * X[k]
        return acc

    def contract(self, T):
        """Σ g^{ij} T_ij, a left fold in row-major (i, j) order."""
        n = self.n
        return jt.sum_terms([self.ginv[i][j] * T[i][j] for i in range(n) for j in range(n)])

    def horizontal_trace(self, A, B):
        """`contract` of A_ij − Σ_k Γ^k_ij B_k − P_i B_j: the one trace behind
        Δf, τ and Δ^{dφ}, with A_ij the second derivative along δ_j then δ_i
        and B_k the first along δ_k. The torsion trace P_i pairs with the
        outer index i.

        Γ·B and P·B are built at the order of T, the least of the orders of
        A, Γ, P_i and B: each B_k is cut to it first (`jets.truncated`)."""
        n = self.n
        B = jt.truncated(B, jt.least_order(A, B, self.gamma, self.P_i))
        T = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                t = A[i][j]
                for k in range(n):
                    t = t - self.gamma[k][i][j] * B[k]
                T[i][j] = t - self.P_i[i] * B[j]
        return self.contract(T)

    def horizontal_laplacian_of(self, f):
        """Δf = −g^{ij}(δ_iδ_j f − Γ^k_ij δ_k f − P_i δ_j f) for a scalar jet f."""
        df = [self.delta(f, i) for i in range(self.n)]
        return -self.horizontal_trace([[self.delta(dfj, i) for dfj in df] for i in range(self.n)],
                                      df)


def _cut_by(table, cut: int):
    """A jet or nested list of jets, each cut `cut` orders below its own."""
    if isinstance(table, jt.Jet):
        return table.truncated(table.order - cut)
    return [_cut_by(t, cut) for t in table]


def _values(table):
    """Nested list of jets → numpy array of their values."""
    if isinstance(table, jt.Jet):
        return np.asarray(table.value)
    if isinstance(table, (list, tuple)):
        return np.array([_values(t) for t in table])
    return np.asarray(table)


# --- public value types and operations ---------------------------------------------

@dataclass
class MetricData:
    g: np.ndarray
    ginv: np.ndarray
    detg: float
    y_low: np.ndarray       # y_i = g_ij y^j
    f2: float


@dataclass
class ConnectionData:
    spray: np.ndarray       # G^i
    nonlinear: np.ndarray   # G^i_j
    chern_rund: np.ndarray  # Γ^i_jk
    berwald: np.ndarray     # G^i_jk
    torsion: np.ndarray     # P^i_jk
    torsion_trace: np.ndarray  # P_i
    bracket: np.ndarray     # R^i_jk


@dataclass
class CurvatureData:
    hh: np.ndarray          # R_j{}^i{}_{kl}, indexed [j][i][k][l]
    hv: np.ndarray          # P_j{}^i{}_{kl} = Γ^i_{jk·l}


def _metric_data(geom: DomainGeometry) -> MetricData:
    g = _values(geom.g)
    ginv = _values(geom.ginv)
    if np.max(np.abs(g @ ginv - np.eye(geom.n))) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
        raise SingularMetricError("metric inverse failed its identity check")
    f2 = float(geom.f2.value)
    quad = float(geom.y @ g @ geom.y)
    if not abs(quad - f2) <= 1e-10 * max(abs(f2), 1e-30):   # a NaN fails too
        raise DomainEvalError("Euler identity g_ij y^i y^j = F^2 violated at this point "
                              "(F is not 1-homogeneous, or F^2 is not finite)")
    return MetricData(g=g, ginv=ginv, detg=float(_values(geom.detg)), y_low=g @ geom.y, f2=f2)


def _connection_data(geom: DomainGeometry) -> ConnectionData:
    return ConnectionData(*map(_values, (geom.spray, geom.Gj, geom.gamma, geom.Gjk, geom.P,
                                         geom.P_i, geom.Rjk)))


def _curvature_data(geom: DomainGeometry) -> CurvatureData:
    return CurvatureData(hh=_values(geom.hh_curvature), hv=_values(geom.hv_curvature))


def metric(fs: FinslerStructure, p: PointState) -> MetricData:
    return _metric_data(DomainGeometry(fs, p.x, p.y, ORDER_TABLE["metric"]))


def connection(fs: FinslerStructure, p: PointState) -> ConnectionData:
    return _connection_data(DomainGeometry(fs, p.x, p.y, ORDER_TABLE["connection"]))


def curvature(fs: FinslerStructure, p: PointState) -> CurvatureData:
    return _curvature_data(DomainGeometry(fs, p.x, p.y, ORDER_TABLE["curvature"]))


def _field_jet(fs, field, geom):
    """Normalize a field argument (source text, AST, or jet-callable) to a jet."""
    if callable(field):
        return field(geom)
    return jt.eval_ast(ex.parse(field, fs.xnames + fs.ynames), geom.env)


def delta_derivative(fs: FinslerStructure, field, p: PointState, i: int):
    geom = DomainGeometry(fs, p.x, p.y, ORDER_TABLE["delta"])
    return float(geom.delta(_field_jet(fs, field, geom), i).value)


def divergence(fs: FinslerStructure, X, p: PointState):
    """X is a list of n component fields (sources, ASTs, or jet-callables)."""
    if len(X) != fs.dim:
        raise ConfigError(f"expected {fs.dim} vector field components, got {len(X)}")
    geom = DomainGeometry(fs, p.x, p.y, ORDER_TABLE["divergence"])
    jets = [_field_jet(fs, comp, geom) for comp in X]
    return float(geom.divergence_of(jets).value)


def horizontal_laplacian(fs: FinslerStructure, f, p: PointState):
    geom = DomainGeometry(fs, p.x, p.y, ORDER_TABLE["laplacian"])
    return float(geom.horizontal_laplacian_of(_field_jet(fs, f, geom)).value)


# --- geodesics and arc length ------------------------------------------------------

def spray_value(fs: FinslerStructure, x, y) -> np.ndarray:
    return _values(DomainGeometry(fs, x, y, ORDER_TABLE["spray"]).spray)


def integrate_geodesic(fs: FinslerStructure, p0: PointState, steps: int,
                       h: float) -> np.ndarray:
    """Classical fourth-order Runge–Kutta on (ẋ = y, ẏ = −2G(x, y)).

    Returns an array of shape (steps + 1, 2n) of sampled states.
    """
    n = fs.dim
    state = np.concatenate([p0.x, p0.y])
    out = np.empty((steps + 1, 2 * n))
    out[0] = state

    def rhs(s):
        x, y = s[:n], s[n:]
        if not fs.chart.contains(x):
            raise ChartError(f"geodesic left the chart at x={x}")
        if np.linalg.norm(y) < DEFAULT_R_MIN:
            raise ChartError("geodesic velocity collapsed below the zero-section floor")
        return np.concatenate([y, -2.0 * spray_value(fs, x, y)])

    for step in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[step + 1] = state
    return out


def arc_length(fs: FinslerStructure, curve_sources, t0: float, t1: float) -> float:
    """l(c) = ∫ F(c(t), ċ(t)) dt by Gauss–Legendre quadrature with 64 nodes."""
    if len(curve_sources) != fs.dim:
        raise ConfigError(f"expected {fs.dim} curve components, got {len(curve_sources)}")
    curves = [ex.parse(c, ["t"]) for c in curve_sources]
    vels = [ex.constant_fold(ex.differentiate(c, "t")) for c in curves]
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (t1 - t0) * nodes + 0.5 * (t0 + t1)
    xs = [ex.evaluate(c, {"t": t}) for c in curves]
    ys = [ex.evaluate(v, {"t": t}) for v in vels]
    xs = [np.broadcast_to(np.asarray(v, dtype=np.float64), t.shape) for v in xs]
    ys = [np.broadcast_to(np.asarray(v, dtype=np.float64), t.shape) for v in ys]
    speed2 = sum(np.asarray(v) ** 2 for v in ys)
    if np.any(speed2 < 1e-24):
        raise DomainEvalError("zero velocity encountered along the curve")
    f2 = fs.f2_value(xs, ys)
    if np.any(f2 <= 0):
        raise DomainEvalError("F^2 <= 0 along the curve")
    return float(0.5 * (t1 - t0) * np.sum(weights * np.sqrt(f2)))
