"""Identity-map analysis for a Riemannian metric perturbed into a Finsler one.

Setting: one manifold M carrying a base Riemannian metric g̃(x) and the
Finsler metric defined by F² = g̃_ij y^i y^j + b(x, y) with b 2-homogeneous
in y.  The map under study is id: (M, g) → (M, g̃).

Double-bar indices are horizontal covariant derivatives with respect to the
*base* metric: the adapted frame δ̃_i = ∂_i − G̃^j_i ∂̇_j with
G̃^j_i = γ̃^j_{ik} y^k, and the Levi-Civita symbols γ̃ acting on free indices.

The tension of the identity map is computed by three routes:

    route B            τ^i = −g^{jk} B^i_{·j·k},
                       with 2B^i = ½ g^{ih}(2 y_{h||j} y^j − F²_{||h})
    route connections  τ^i = g^{jk}(γ̃^i_{jk} − G^i_{jk})
    route general      the generic Finsler-to-Riemann tension applied to id

The first two are algebraically linked through the spray split
2G = 2G̃ + 2B and must agree tightly; the general route carries the torsion
trace term −g^{jk} P_j δ^i_k and its discrepancy against the others is
reported rather than asserted away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expressions as ex
from . import jets as jt
from .errors import ConfigError, DomainEvalError
from .finsler import (ORDER_TABLE, DomainGeometry, FinslerStructure, PointState, _values,
                      adapted_derivative)
from .maps import MapGeometry, SmoothMap
from .riemann import RiemannStructure

#: §7 states the map direction id: (M, g) → (M, g̃) when introducing the
#: analysis but prints the reverse direction inside its first Proposition;
#: this module follows the former and reports carry this flag.
NOTATION_NOTE = ("direction fixed as id: (M, g Finsler) -> (M, g-tilde Riemannian); "
                 "the source's closing statement prints the reverse direction")

DEFAULT_C_GRID = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


class PerturbationSetup:
    """Base metric g̃(x), perturbation b(x, y), optional covector a(x)."""

    def __init__(self, base_sources, b_source, dim: int, chart=None,
                 a_sources=None, scale: float = 1.0):
        self.dim = dim
        self.chart = chart
        self.scale = float(scale)
        xnames = [f"x{i + 1}" for i in range(dim)]
        names = xnames + [f"y{i + 1}" for i in range(dim)]
        self.base_asts = [[ex.parse(e, xnames) for e in row] for row in base_sources]
        self.b_ast = ex.parse(b_source, names)
        self.a_asts = None
        if a_sources is not None:
            self.a_asts = [ex.parse(e, xnames) for e in a_sources]

    def with_scale(self, scale: float) -> "PerturbationSetup":
        return PerturbationSetup(self.base_asts, self.b_ast, self.dim, self.chart, self.a_asts,
                                 scale)

    @cached_property
    def finsler(self) -> FinslerStructure:
        return FinslerStructure.perturbed(self.base_asts, self.b_ast, self.dim,
                                          chart=self.chart, scale=self.scale)

    @cached_property
    def base_structure(self) -> RiemannStructure:
        return RiemannStructure(self.dim, self.base_asts, label="identity-base")

    @cached_property
    def identity_map(self) -> SmoothMap:
        comps = [ex.Var(f"x{i + 1}") for i in range(self.dim)]
        return SmoothMap(comps, self.finsler, self.base_structure)

    def a_values(self, x) -> np.ndarray:
        if self.a_asts is None:
            raise ConfigError("condition-(35) check requires the covector field a")
        env = {f"x{i + 1}": x[i] for i in range(self.dim)}
        return np.array([ex.evaluate(a, env) for a in self.a_asts], dtype=float)


class IdentityGeometry:
    """Jets of the §7 objects at one point (x with optionally batched y)."""

    def __init__(self, setup: PerturbationSetup, x, y, order: int):
        self.setup = setup
        self.n = setup.dim
        self.geom = DomainGeometry(setup.finsler, x, y, order)
        self.fs = setup.finsler

    @cached_property
    def map_geometry(self) -> MapGeometry:
        """The identity map's geometry over `geom`: φ = id binds the x jets of
        `geom.env` themselves, so its pulled-back codomain is g̃ at x."""
        return MapGeometry(self.setup.identity_map, self.geom)

    @cached_property
    def gamma_tilde(self):
        """Levi-Civita symbols γ̃ of the base metric, from `map_geometry`."""
        return self.map_geometry.codomain.gamma

    @cached_property
    def Gt(self):
        """Base nonlinear connection G̃^j_i = γ̃^j_{ik} y^k."""
        n = self.n
        yv = [self.geom.env[self.fs.ynames[k]] for k in range(n)]
        return [[jt.sum_terms([self.gamma_tilde[j][i][k] * yv[k] for k in range(n)])
                 for i in range(n)] for j in range(n)]

    def delta_tilde(self, jet, i):
        return adapted_derivative(self.fs, self.Gt, jet, i)

    @cached_property
    def y_low(self):
        """y_h = ½ F²_{·h}."""
        return [0.5 * self.geom.f2.deriv(self.fs.ynames[h]) for h in range(self.n)]

    @cached_property
    def f2_bar(self):
        """F²_{||h} = δ̃_h F² (scalar covariant derivative)."""
        return [self.delta_tilde(self.geom.f2, h) for h in range(self.n)]

    @cached_property
    def y_low_bar(self):
        """y_{h||j} = δ̃_j y_h − γ̃^l_{hj} y_l (covector rule)."""
        n = self.n
        return [[self.delta_tilde(self.y_low[h], j)
                 - jt.sum_terms([self.gamma_tilde[l][h][j] * self.y_low[l] for l in range(n)])
                 for j in range(n)] for h in range(n)]

    @cached_property
    def B(self):
        """B^i = ¼ g^{ih}(2 y_{h||j} y^j − F²_{||h})."""
        n = self.n
        yv = [self.geom.env[self.fs.ynames[k]] for k in range(n)]
        inner = [2.0 * jt.sum_terms([self.y_low_bar[h][j] * yv[j] for j in range(n)])
                 - self.f2_bar[h] for h in range(n)]
        return [0.25 * jt.sum_terms([self.geom.ginv[i][h] * inner[h] for h in range(n)])
                for i in range(n)]

    @cached_property
    def tau_route_b(self):
        """τ^i = −g^{jk} B^i_{·j·k}."""
        n = self.n
        Bjk = [[[self.B[i].deriv(self.fs.ynames[j]).deriv(self.fs.ynames[k])
                 for k in range(n)] for j in range(n)] for i in range(n)]
        return [-self.geom.contract(Bjk[i]) for i in range(n)]

    @cached_property
    def tau_route_conn(self):
        """τ^i = g^{jk}(γ̃^i_{jk} − G^i_{jk})."""
        n = self.n
        return [self.geom.contract([[self.gamma_tilde[i][j][k] - self.geom.Gjk[i][j][k]
                                     for k in range(n)] for j in range(n)]) for i in range(n)]

    def eq33_residual(self):
        """2 y_{h||j} − (F²_{||j})_{·h}, all components."""
        n = self.n
        out = np.empty((n, n) + np.shape(self.geom.f2.value))
        for h in range(n):
            for j in range(n):
                lhs = 2.0 * self.y_low_bar[h][j]
                rhs = self.f2_bar[j].deriv(self.fs.ynames[h])
                out[h, j] = np.asarray((lhs - rhs).value)
        return out

    def spray_split_residual(self):
        """G^i − G̃^i − B^i with G̃^i = ½ γ̃^i_{jk} y^j y^k."""
        n = self.n
        yv = [self.geom.env[self.fs.ynames[k]] for k in range(n)]
        out = []
        for i in range(n):
            gt_spray = 0.5 * jt.sum_terms([self.gamma_tilde[i][j][k] * yv[j] * yv[k]
                                           for j in range(n) for k in range(n)])
            out.append(np.asarray((self.geom.spray[i] - gt_spray - self.B[i]).value))
        return np.array(out)

    def eq34_residual(self):
        """D_{δ_j}τ^i − (τ^i_{||j} − B^k_{·j} τ^i_{·k}), route-B tension."""
        n = self.n
        tau = self.tau_route_b
        out = np.empty((n, n) + np.shape(self.geom.f2.value))
        for i in range(n):
            for j in range(n):
                conn = jt.sum_terms([self.gamma_tilde[i][j][k] * tau[k] for k in range(n)])
                lhs = self.geom.delta(tau[i], j) + conn
                bar = self.delta_tilde(tau[i], j) + conn
                corr = jt.sum_terms([self.B[k].deriv(self.fs.ynames[j])
                                     * tau[i].deriv(self.fs.ynames[k]) for k in range(n)])
                out[i, j] = np.asarray((lhs - (bar - corr)).value)
        return out

    def condition35_residual(self):
        """residual_h = F²_{||h} − ⟨a, y⟩_g y_h and the predicted τ = −(n/2) a."""
        a = self.setup.a_values(self.geom.x)
        n, ynames = self.n, self.fs.ynames
        ay = jt.sum_terms([self.geom.g[i][j] * float(a[i]) * self.geom.env[ynames[j]]
                           for i in range(n) for j in range(n)])
        residual = np.array([np.asarray((self.f2_bar[h] - ay * self.y_low[h]).value)
                             for h in range(n)])
        return residual, -0.5 * n * a

    def tension_report(self) -> "IdentityTensionReport":
        """τ(id) by the three routes and their pairwise discrepancies."""
        tau_b = _values(self.tau_route_b)
        tau_c = _values(self.tau_route_conn)
        tau_g = _values(self.map_geometry.tension)

        def gap(u, v):
            return float(np.max(np.abs(u - v)))

        return IdentityTensionReport(
            tau_route_b=tau_b, tau_route_conn=tau_c, tau_route_general=tau_g,
            discrepancy_b_conn=gap(tau_b, tau_c),
            discrepancy_b_general=gap(tau_b, tau_g),
            discrepancy_conn_general=gap(tau_c, tau_g))


@dataclass
class IdentityTensionReport:
    tau_route_b: np.ndarray          # Eq. for τ via B
    tau_route_conn: np.ndarray       # τ via connection difference
    tau_route_general: np.ndarray    # generic tension applied to id
    discrepancy_b_conn: float
    discrepancy_b_general: float
    discrepancy_conn_general: float
    notation_note: str = NOTATION_NOTE


def b_field(setup: PerturbationSetup, p: PointState) -> np.ndarray:
    return _values(IdentityGeometry(setup, p.x, p.y, ORDER_TABLE["spray"]).B)


def identity_tension(setup: PerturbationSetup, p: PointState) -> IdentityTensionReport:
    return IdentityGeometry(setup, p.x, p.y, ORDER_TABLE["identity_tension"]).tension_report()


def condition35_residual(setup: PerturbationSetup, p: PointState):
    """residual_h = F²_{||h} − ⟨a, y⟩_g y_h and the predicted τ = −(n/2) a."""
    return IdentityGeometry(setup, p.x, p.y, ORDER_TABLE["condition35"]).condition35_residual()


@dataclass
class ScalingReport:
    c_grid: np.ndarray
    tau_sup: np.ndarray
    tau2_sup: np.ndarray
    slope_tau: float
    slope_tau2: float


def linearized_scaling(setup: PerturbationSetup, c_grid=None, n_points: int = 8) -> ScalingReport:
    """Sup-norms of the full nonlinear τ(id), τ₂(id) on a point sample for each
    scale c, and least-squares slopes of log‖·‖ against log c. A grid of
    fewer than two distinct scales has no slope and raises ConfigError."""
    c_grid = np.asarray(DEFAULT_C_GRID if c_grid is None else c_grid, dtype=float)
    if np.unique(c_grid).size < 2:
        raise ConfigError(f"c_grid must hold at least two distinct scales to fit a slope "
                          f"through, got {c_grid.tolist()!r}")
    rng = np.random.default_rng(77)
    subs = [setup.with_scale(c) for c in c_grid]
    box = subs[0].finsler.chart.sample_box()
    pts = []
    for _ in range(n_points):
        x = np.array([rng.uniform(lo, hi) for lo, hi in box])
        y = rng.normal(size=setup.dim)
        y /= np.linalg.norm(y)
        y *= rng.uniform(0.7, 1.5)
        pts.append((x, y))
    tau_sup = np.empty(len(c_grid))
    tau2_sup = np.empty(len(c_grid))
    for ci, sub in enumerate(subs):
        idmap = sub.identity_map
        t_max = 0.0
        t2_max = 0.0
        for x, y in pts:
            mg = MapGeometry(idmap, DomainGeometry(idmap.fs, x, y, ORDER_TABLE["bitension"]))
            t_max = max(t_max, float(np.max(np.abs(_values(mg.tension)))))
            t2_max = max(t2_max, float(np.max(np.abs(_values(mg.bitension)))))
        tau_sup[ci] = t_max
        tau2_sup[ci] = t2_max

    def slope(vals, name):
        zero = np.flatnonzero(vals <= 0)
        if zero.size:
            raise DomainEvalError(f"log-log slope of sup |{name}| is undefined: "
                                  f"the sup-norm is 0 at c = {float(c_grid[zero[0]])!r}")
        return float(np.polyfit(np.log(c_grid), np.log(vals), 1)[0])

    return ScalingReport(c_grid=c_grid, tau_sup=tau_sup, tau2_sup=tau2_sup,
                         slope_tau=slope(tau_sup, "tau"), slope_tau2=slope(tau2_sup, "tau2"))
