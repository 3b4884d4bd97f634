"""Riemannian codomain geometry: Christoffel symbols, curvature with the
index wiring fixed by the Ricci identity, its covariant derivative, sectional
curvature, and the Euclidean / sphere presets.

The curvature component table R[b][a][c][d] is

    R_b{}^a{}_{cd} = d_d gamma^a_bc - d_c gamma^a_bd
                     + gamma^h_bc gamma^a_hd - gamma^h_bd gamma^a_hc,

so that commuting two horizontal covariant derivatives of a vector field Z
produces exactly R_b{}^a{}_{cd} Z^b (checked numerically in the tests).

`levi_civita` and `curvature_table` also give the domain's Chern–Rund Γ and
hh curvature (`finsler`), with the adapted derivative δ in place of ∂.

All combination helpers are generic over the scalar type: they run on plain
numpy values for pointwise queries and on domain jets when the codomain
objects are pulled back through a map.

The partials of g̃ that a pullback reads are exact derivative ASTs, derived
through one `expressions.Calculus` per structure, so every entry and level
is one DAG; `partials_at` evaluates it with one `jets.AstEvaluator` per
point, each distinct node once. Neither sharing changes a bit: each node's
value is a pure function of its children's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import expressions as ex
from . import jets as jt
from .errors import ConfigError, OrderLimitError, SingularMetricError


# --- generic linear algebra over jets or arrays --------------------------------

def _value_of(s):
    return s.value if isinstance(s, jt.Jet) else np.asarray(s)


def invert_matrix(mat):
    """Gauss-Jordan inverse of a small matrix of jets or arrays.

    No pivoting: callers only invert positive-definite metric tensors, whose
    diagonal stays positive throughout the elimination.
    """
    n = len(mat)
    a = [list(row) for row in mat]
    inv = [[(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = a[col][col]
        piv_val = _value_of(piv)
        if not np.all(np.isfinite(piv_val)) or np.any(np.abs(piv_val) < 1e-13):
            raise SingularMetricError("metric is singular or indefinite at the evaluation point")
        piv_inv = 1.0 / piv
        # columns <= col of `a` are never read again: only those right of it are updated
        for j in range(col + 1, n):
            a[col][j] = a[col][j] * piv_inv
        for j in range(n):
            inv[col][j] = inv[col][j] * piv_inv
        for i in range(n):
            if i == col:
                continue
            factor = a[i][col]
            for j in range(col + 1, n):
                a[i][j] = a[i][j] - factor * a[col][j]
            for j in range(n):
                inv[i][j] = inv[i][j] - factor * inv[col][j]
    return inv


def determinant(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if n == 3:
        return (mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
                - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
                + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0]))
    # Laplace expansion; dimensions beyond 3 are rare enough not to matter
    return jt.sum_terms([mat[0][j] * determinant([[mat[i][k] for k in range(n) if k != j]
                                                  for i in range(1, n)])
                         * (1.0 if j % 2 == 0 else -1.0) for j in range(n)])


# --- partial-derivative tables of a metric -------------------------------------

def _level(order: int):
    """Level `order` of a MetricPartials table, evaluated on its first read."""

    def read(self):
        if order > self.max_order:
            raise OrderLimitError(f"metric partials of order {order} beyond the "
                                  f"table's order {self.max_order}")

        def build(prefix):
            if len(prefix) == order:
                return self._entry(tuple(sorted(prefix)))
            return [build(prefix + (c,)) for c in range(self.dim)]
        return build(())

    return cached_property(read)


class MetricPartials:
    """Metric and its coordinate partials, entries jets or arrays.

    d0[a][b] = g_ab, d1[c][a][b] = g_ab,c, d2[c][d][a][b] = g_ab,cd,
    d3[c][d][e][a][b] = g_ab,cde. `entry(t)` gives the matrix of partials of
    g along the sorted coordinate tuple t; it runs once per tuple, and each
    level is evaluated on its first read. So a table holds what its readers
    need: γ̃ reads d0 and d1, R̃ also reads d2, and ∇R̃ also reads d3.
    Reading a level above `max_order` raises `OrderLimitError`.
    """

    def __init__(self, dim: int, entry, max_order: int):
        self.dim = dim
        self.max_order = max_order
        self._entry = cache(entry)

    d0, d1, d2, d3 = (_level(k) for k in range(4))


def levi_civita(d1, ginv):
    """gamma[a][b][c] = ½ g^{al}(d_c g_lb + d_b g_lc − d_l g_bc) from
    d1[c][a][b] = d_c g_ab."""
    n = len(ginv)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(b, n):
                entry = 0.5 * jt.sum_terms([ginv[a][l] * (d1[c][l][b] + d1[b][l][c] - d1[l][b][c])
                                            for l in range(n)])
                gamma[a][b][c] = entry
                gamma[a][c][b] = entry
    return gamma


def christoffel_table(p: MetricPartials):
    """gamma[a][b][c] = gamma^a_bc from the metric partial table, and g^-1."""
    ginv = invert_matrix(p.d0)
    return levi_civita(p.d1, ginv), ginv


def dchristoffel_table(p: MetricPartials, gamma, ginv):
    """dgamma[d][a][b][c] = d_d gamma^a_bc."""
    n = p.dim
    dginv = [_dginv(ginv, p.d1[d]) for d in range(n)]
    out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for d in range(n):
        for a in range(n):
            for b in range(n):
                for c in range(b, n):
                    entry = jt.sum_terms(
                        [0.5 * dginv[d][a][l] * (p.d1[c][l][b] + p.d1[b][l][c] - p.d1[l][b][c])
                         + 0.5 * ginv[a][l] * (p.d2[c][d][l][b] + p.d2[b][d][l][c] - p.d2[l][d][b][c])
                         for l in range(n)])
                    out[d][a][b][c] = entry
                    out[d][a][c][b] = entry
    return out, dginv


def _dginv(ginv, dg):
    """d(g^-1) = -g^-1 (dg) g^-1 for one coordinate direction."""
    n = len(ginv)
    return [[-jt.sum_terms([ginv[a][i] * dg[i][j] * ginv[j][b] for i in range(n) for j in range(n)])
             for b in range(n)] for a in range(n)]


def curvature_table(gamma, dgamma, dim):
    """riem[b][a][c][d] = R_b{}^a{}_{cd} from gamma and dgamma[d][a][b][c] =
    d_d gamma^a_bc (see module docstring for the pattern)."""
    n = dim
    riem = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for b in range(n):
        for a in range(n):
            for c in range(n):
                for d in range(n):
                    entry = (dgamma[d][a][b][c] - dgamma[c][a][b][d]
                             + jt.sum_terms([gamma[h][b][c] * gamma[a][h][d]
                                             - gamma[h][b][d] * gamma[a][h][c] for h in range(n)]))
                    riem[b][a][c][d] = entry
    return riem


def nabla_curvature_table(p: MetricPartials, gamma, dgamma, ginv, dginv, riem):
    """nabla[m][b][a][c][d] = (covariant derivative of R in direction m)."""
    n = p.dim
    # second partials of gamma, needed for the plain partial of R
    d2gamma = [[None] * n for _ in range(n)]
    d2ginv = [[None] * n for _ in range(n)]
    for d in range(n):
        for e in range(n):
            d2ginv[d][e] = [[-jt.sum_terms(
                [dginv[e][a][i] * p.d1[d][i][j] * ginv[j][b]
                 + ginv[a][i] * p.d2[d][e][i][j] * ginv[j][b]
                 + ginv[a][i] * p.d1[d][i][j] * dginv[e][j][b]
                 for i in range(n) for j in range(n)])
                for b in range(n)] for a in range(n)]
    for d in range(n):
        for e in range(n):
            tbl = [[[None] * n for _ in range(n)] for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    for c in range(b, n):
                        entry = jt.sum_terms(
                            [0.5 * d2ginv[d][e][a][l] * (p.d1[c][l][b] + p.d1[b][l][c] - p.d1[l][b][c])
                             + 0.5 * dginv[d][a][l] * (p.d2[c][e][l][b] + p.d2[b][e][l][c] - p.d2[l][e][b][c])
                             + 0.5 * dginv[e][a][l] * (p.d2[c][d][l][b] + p.d2[b][d][l][c] - p.d2[l][d][b][c])
                             + 0.5 * ginv[a][l] * (p.d3[c][d][e][l][b] + p.d3[b][d][e][l][c] - p.d3[l][d][e][b][c])
                             for l in range(n)])
                        tbl[a][b][c] = entry
                        tbl[a][c][b] = entry
            d2gamma[d][e] = tbl
    nabla = [[[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for m in range(n):
        for b in range(n):
            for a in range(n):
                for c in range(n):
                    for d in range(n):
                        plain = (d2gamma[d][m][a][b][c] - d2gamma[c][m][a][b][d]
                                 + jt.sum_terms([dgamma[m][h][b][c] * gamma[a][h][d] + gamma[h][b][c] * dgamma[m][a][h][d]
                                                 - dgamma[m][h][b][d] * gamma[a][h][c] - gamma[h][b][d] * dgamma[m][a][h][c]
                                                 for h in range(n)]))
                        corr = jt.sum_terms([gamma[a][m][h] * riem[b][h][c][d]
                                             - gamma[h][m][b] * riem[h][a][c][d]
                                             - gamma[h][m][c] * riem[b][a][h][d]
                                             - gamma[h][m][d] * riem[b][a][c][h]
                                             for h in range(n)])
                        nabla[m][b][a][c][d] = plain + corr
    return nabla


def riem_apply(riem, u, w, z, dim):
    """(R(U, W)Z)^a = R_b{}^a{}_{cr} W^c U^r Z^b.

    The first operator argument pairs with the last component index, matching
    the Ricci identity D_r D_c - D_c D_r = R_b{}^a{}_{cr}.
    """
    return [jt.sum_terms([riem[b][a][c][r] * w[c] * u[r] * z[b]
                          for b in range(dim) for c in range(dim) for r in range(dim)])
            for a in range(dim)]


def nabla_riem_apply(nabla, direction, u, w, z, dim):
    """((nabla_direction R)(U, W)Z)^a with the same wiring as riem_apply."""
    return [jt.sum_terms([nabla[m][b][a][c][r] * direction[m] * w[c] * u[r] * z[b]
                          for m in range(dim) for b in range(dim)
                          for c in range(dim) for r in range(dim)])
            for a in range(dim)]


# --- the structure --------------------------------------------------------------

class RiemannStructure:
    """Codomain manifold chart with a y-independent metric given by expressions."""

    def __init__(self, dim: int, matrix, label: str = "custom"):
        if dim < 1:
            raise ConfigError("codomain dimension must be >= 1")
        self.dim = dim
        self.label = label
        self.coords = tuple(f"x{i + 1}" for i in range(dim))
        self.metric_asts = [[ex.parse(matrix[a][b], self.coords) for b in range(dim)]
                            for a in range(dim)]
        self._partial_asts: dict = {}
        self._calculus = ex.Calculus()

    @classmethod
    def euclidean(cls, dim: int) -> "RiemannStructure":
        mat = [[ex.Const(1.0 if a == b else 0.0) for b in range(dim)] for a in range(dim)]
        return cls(dim, mat, label="euclidean")

    @classmethod
    def sphere(cls, dim: int, radius: float = 1.0) -> "RiemannStructure":
        """Round sphere of the given radius in a single stereographic chart."""
        rho2 = radius * radius
        norm2 = " + ".join(f"x{i + 1}^2" for i in range(dim))
        coords = [f"x{i + 1}" for i in range(dim)]
        diag = ex.parse(f"4*{rho2 * rho2!r}/({rho2!r} + {norm2})^2", coords)
        mat = [[diag if a == b else ex.Const(0.0) for b in range(dim)] for a in range(dim)]
        return cls(dim, mat, label=f"sphere(radius={radius})")

    @classmethod
    def custom(cls, matrix_sources, dim: int) -> "RiemannStructure":
        rs = cls(dim, matrix_sources)
        rs._validate_symmetry()
        return rs

    def _validate_symmetry(self):
        rng = np.random.default_rng(20240923)
        pts = rng.uniform(-0.5, 0.5, size=(16, self.dim))
        for x in pts:
            env = {self.coords[i]: x[i] for i in range(self.dim)}
            mat = np.array([[ex.evaluate(self.metric_asts[a][b], env)
                             for b in range(self.dim)] for a in range(self.dim)], dtype=float)
            if not np.allclose(mat, mat.T, atol=1e-12):
                raise ConfigError("codomain metric matrix is not symmetric")
            if np.linalg.eigvalsh(mat).min() <= 0:
                raise ConfigError("codomain metric is not positive definite at a sample point")

    # --- partial tables ---------------------------------------------------------

    def _partial_ast(self, a: int, b: int, mu: tuple):
        """Exact derivative AST of g_ab for the sorted coordinate tuple mu.

        All entries and levels are derived through one `Calculus`, so the
        table is one DAG: a subtree is derived once, whichever entries hold
        it (the sphere's g̃₁₁ and g̃₂₂ are one node and share everything)."""
        key = (a, b, mu)
        node = self._partial_asts.get(key)
        if node is None:
            if not mu:
                node = self.metric_asts[a][b]
            else:
                calc = self._calculus
                node = calc.fold(calc.differentiate(self._partial_ast(a, b, mu[:-1]),
                                                    self.coords[mu[-1]]))
            self._partial_asts[key] = node
        return node

    def partials_at(self, env: dict) -> MetricPartials:
        """g and its coordinate partials at `env` (numbers or jets), each
        level evaluated on its first read.

        Partials come from exact derivative expressions, so the table is
        valid whether `env` binds plain values or domain jets (the pullback
        through a map needs the latter). On jets, one `AstEvaluator` serves
        every level, so each node of the derivative DAG is evaluated once
        per table.
        """
        n = self.dim
        if any(isinstance(v, jt.Jet) for v in env.values()):
            evaluate = jt.AstEvaluator(env)
        else:
            def evaluate(node):
                return ex.evaluate(node, env)

        def entry(t):
            return [[evaluate(self._partial_ast(a, b, t)) for b in range(n)] for a in range(n)]
        return MetricPartials(n, entry, 3)

    def partials_from_jets(self, x, max_order: int) -> MetricPartials:
        """Same table, but read off a single jet evaluation of each g_ab.

        This is the pointwise route: the metric expressions are expanded to
        `max_order` jets at x and the coefficient table supplies every
        coordinate partial up to that order directly.
        """
        n = self.dim
        space = jt.jet_space(self.coords, max_order)
        env = space.point_env({self.coords[i]: np.asarray(x[i], dtype=np.float64)
                               for i in range(n)})
        evaluate = jt.AstEvaluator(env)
        jets = [[evaluate(self.metric_asts[a][b]) for b in range(n)] for a in range(n)]

        def entry(t):
            mu = tuple(t.count(c) for c in range(n))
            return [[jets[a][b].partial(mu) for b in range(n)] for a in range(n)]
        return MetricPartials(n, entry, max_order)


# --- public pointwise operations -------------------------------------------------

@dataclass
class CurvatureField:
    """Curvature components R_b{}^a{}_{cd} and their covariant derivative
    (index order [m][b][a][c][d]) at one point."""

    riemann: np.ndarray
    nabla: np.ndarray


def christoffel(rs: RiemannStructure, x) -> np.ndarray:
    """Levi-Civita symbols gamma^a_bc at x, shape (dim, dim, dim)."""
    p = rs.partials_from_jets(x, 1)
    gamma, _ = christoffel_table(p)
    return np.array(gamma, dtype=float)

def curvature(rs: RiemannStructure, x) -> CurvatureField:
    p = rs.partials_from_jets(x, 3)
    gamma, ginv = christoffel_table(p)
    dgamma, dginv = dchristoffel_table(p, gamma, ginv)
    riem = curvature_table(gamma, dgamma, rs.dim)
    nabla = nabla_curvature_table(p, gamma, dgamma, ginv, dginv, riem)
    return CurvatureField(riemann=np.array(riem, dtype=float),
                          nabla=np.array(nabla, dtype=float))


def metric_at(rs: RiemannStructure, x) -> np.ndarray:
    env = {rs.coords[i]: x[i] for i in range(rs.dim)}
    return np.array([[ex.evaluate(rs.metric_asts[a][b], env) for b in range(rs.dim)]
                     for a in range(rs.dim)], dtype=float)


def sectional_curvature(rs: RiemannStructure, x, v, w) -> float:
    """K(plane spanned by v, w) = <R(v,w)w, v> / (|v|^2 |w|^2 - <v,w>^2)."""
    g = metric_at(rs, x)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    denom = (v @ g @ v) * (w @ g @ w) - (v @ g @ w) ** 2
    if abs(denom) < 1e-14:
        raise SingularMetricError("degenerate plane for sectional curvature")
    field = curvature(rs, x)
    rvww = np.array(riem_apply(field.riemann, v, w, w, rs.dim))
    return float((rvww @ g @ v) / denom)
