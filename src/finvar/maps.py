"""Calculus of maps from a Finsler domain to a Riemannian codomain.

The map φ is given by x-only component expressions.  All analysis happens in
the domain jet algebra: the codomain metric, Christoffel symbols, curvature
and its covariant derivative are evaluated *at φ(x)* by plugging the φ-jets
into exact derivative expressions of g̃, so every codomain object is itself a
domain jet and can be hit with adapted derivatives δ_i.  φ, dφ and the
pulled-back codomain depend on x alone, so they are jets of the small x-only
space and enter the (x, y) space only where they meet the domain geometry.
The pulled-back codomain is one `riemann.MetricPartials` table,
`MapGeometry.codomain`: the operators read g̃, γ̃, R̃ and ∇R̃ as its members
`d0`, `gamma`, `riem` and `nabla`, each built on its first read, and each
derivative level of g̃ likewise: γ̃ reads g̃ and ∂g̃, R̃ also reads ∂²g̃, and
∇R̃ also reads ∂³g̃. All levels at one point come from one evaluation of the
structure's derivative DAG, so a subexpression shared by several entries or
levels is evaluated once.

Operator conventions (all indices 0-based in code):

    dφ(δ_i)^α        = φ^α_{,i}                      (φ depends on x only)
    (D_{δ_i}S)^α     = δ_i S^α + γ̃^α_{βγ}(φ) φ^β_{,i} S^γ
    τ^α              = g^{ij}(φ^α_{,ij} + γ̃^α_{βγ}φ^β_{,i}φ^γ_{,j}
                              − Γ^k_{ij}φ^α_{,k} − P_i φ^α_{,j})
    (Δ^{dφ}S)^α      = g^{ij}(−D_{δ_i}D_{δ_j}S + Γ^k_{ij}D_{δ_k}S + P_i D_{δ_j}S)
    (J S)^α          = −(Δ^{dφ}S)^α − g^{ij}(R̃(dφ(δ_i), S) dφ(δ_j))^α
    τ₂               = J τ

The curvature operator wiring (which slot of R̃_β{}^α{}_{γρ} each argument
feeds) is the one fixed by the Ricci identity in `riemann`; the
first-variation finite-difference check J(V) = D_{∂ε}τ confirms it
end-to-end in the tests.

τ and Δ^{dφ} are `DomainGeometry.horizontal_trace` calls, τ's divergence form
a `divergence_of` call, and the other g^{ij} sums (but those of e(φ) and the
Hessian integrand) `contract` calls: this module reads neither Γ nor P_i.

A sum keeps the least order of its terms, and no term is built above it:
J's curvature trace is built at the order of Δ^{dφ}S, two below S's;
`cov_deriv`'s connection term at the order of δ_iS, below φ_{,i}'s and S's;
the Hessian integrand's R̃ and ∇R̃ terms at the order of J²V₂ (and
`horizontal_trace` builds Γ·B and P·B at the order of its sum, see
`finsler`). Each cuts a factor to that order first (`Jet.truncated`). The
cut moves no bit: a jet's rows of degree <= r do not depend on its higher
rows (see `jets`), and the sum reads no others.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expressions as ex
from . import jets as jt
from .errors import ConfigError
from .finsler import DomainGeometry, FinslerStructure, ORDER_TABLE, PointState, _values
from .riemann import RiemannStructure, nabla_riem_apply, riem_apply


class SmoothMap:
    """Map φ: domain → codomain given by component expressions in x."""

    def __init__(self, sources, fs: FinslerStructure, rs: RiemannStructure):
        if len(sources) != rs.dim:
            raise ConfigError(f"expected {rs.dim} map components, got {len(sources)}")
        self.fs = fs
        self.rs = rs
        self.components = [ex.parse(s, fs.xnames) for s in sources]

    def value(self, x):
        env = {self.fs.xnames[i]: x[i] for i in range(self.fs.dim)}
        return np.array([ex.evaluate(c, env) for c in self.components], dtype=float)


class VariationFamily:
    """Two-parameter family f^α(eps1, eps2, x) around a base map (eps2 may be
    absent for one-parameter variations)."""

    def __init__(self, sources, fs: FinslerStructure, rs: RiemannStructure,
                 base: SmoothMap = None):
        names = ["eps1", "eps2"] + list(fs.xnames)
        self.fs = fs
        self.rs = rs
        self.components = [ex.parse(s, names) for s in sources]
        if len(self.components) != rs.dim:
            raise ConfigError("variation family components do not match codomain dimension")
        self.base = base if base is not None else self.map_at(0.0, 0.0)
        if base is not None:
            at_zero = self.map_at(0.0, 0.0)
            rng = np.random.default_rng(321)
            box = fs.chart.sample_box()
            for _ in range(16):
                x = np.array([rng.uniform(lo, hi) for lo, hi in box])
                gap = np.max(np.abs(at_zero.value(x) - base.value(x)))
                if gap > 1e-12:
                    raise ConfigError(f"family at eps = 0 deviates from the base map by {gap}")

    def map_at(self, eps1: float, eps2: float = 0.0) -> SmoothMap:
        bound = {"eps1": ex.Const(float(eps1)), "eps2": ex.Const(float(eps2))}
        comps = [ex.constant_fold(ex.substitute(c, bound)) for c in self.components]
        return SmoothMap(comps, self.fs, self.rs)

    def deviation_field(self, which: int = 1):
        """V^α(x) = ∂f^α/∂eps_which at eps = 0, as x-only expressions."""
        if which not in (1, 2):
            raise ConfigError("deviation parameter index must be 1 or 2")
        zero = {"eps1": ex.Const(0.0), "eps2": ex.Const(0.0)}
        return [ex.constant_fold(ex.substitute(ex.differentiate(c, f"eps{which}"), zero))
                for c in self.components]


class PullbackSection:
    """Section of the pullback bundle: component evaluators S^α(x, y).

    Components may be expression sources/ASTs in (x, y) or callables taking a
    MapGeometry and returning a jet. A callable is evaluated on the
    operation's own geometry, whose jet order is the one `ORDER_TABLE` gives
    that operation, so what it reads must fit within that order: τ as a
    section of `rough_laplacian` fits, τ₂ does not.
    """

    def __init__(self, components):
        self.raw = list(components)
        self._parsed = {}       # variable names -> components, each source parsed once

    def jets(self, mg: "MapGeometry"):
        if len(self.raw) != mg.m:
            raise ConfigError(f"expected {mg.m} section components, got {len(self.raw)}")
        names = mg.map.fs.xnames + mg.map.fs.ynames
        comps = self._parsed.get(names)
        if comps is None:
            comps = [c if callable(c) else ex.parse(c, names) for c in self.raw]
            self._parsed[names] = comps
        return [c(mg) if callable(c) else jt.eval_ast(c, mg.geom.env) for c in comps]


@dataclass
class TensionReport:
    tau: np.ndarray
    tau_norm: np.ndarray
    tau2: np.ndarray = None
    tau2_norm: np.ndarray = None
    energy_density: np.ndarray = None


class MapGeometry:
    """Joint jet state of (domain geometry, φ, pulled-back codomain geometry)
    at one base point (x with an optionally batched y). `geom` is a
    DomainGeometry of `map.fs`; maps over the same domain may share one.

    Every member is computed on first read. The codomain geometry at φ(x)
    has one owner, `codomain`: g̃, γ̃, R̃ and ∇R̃ are its members `d0`,
    `gamma`, `riem` and `nabla`, each built on its first read."""

    def __init__(self, map: SmoothMap, geom: DomainGeometry):
        self.map = map
        self.geom = geom
        self.n = map.fs.dim
        self.m = map.rs.dim

    @cached_property
    def phi(self):
        return [jt.eval_ast(c, self.geom.env) for c in self.map.components]

    @cached_property
    def dphi(self):
        """dphi[a][i] = φ^α_{,i} as jets."""
        return [[self.phi[a].deriv(self.map.fs.xnames[i]) for i in range(self.n)]
                for a in range(self.m)]

    @cached_property
    def codomain(self):
        """The codomain's metric partials and Levi-Civita geometry at φ(x),
        as domain jets; each level and member is built when an operator
        first reads it."""
        env = {self.map.rs.coords[a]: self.phi[a] for a in range(self.m)}
        return self.map.rs.partials_at(env)

    # --- pullback connection ------------------------------------------------------

    def cov_deriv(self, S, i: int):
        """(D_{δ_i}S)^α = δ_i S^α + γ̃^α_{βγ}(φ) φ^β_{,i} S^γ, the connection
        term built at the order of δ_i S^α (φ^β_{,i} cut to it first)."""
        gamma, m = self.codomain.gamma, self.m
        out = []
        for a in range(m):
            dS = self.geom.delta(S[a], i)
            dphi = [self.dphi[b][i].truncated(dS.order) for b in range(m)]
            out.append(dS + jt.sum_terms([gamma[a][b][c] * dphi[b] * S[c]
                                          for b in range(m) for c in range(m)]))
        return out

    def inner(self, S, T):
        """⟨S, T⟩ = g̃_{αβ}(φ) S^α T^β."""
        return jt.sum_terms([self.codomain.d0[a][b] * S[a] * T[b]
                             for a in range(self.m) for b in range(self.m)])

    # --- tension --------------------------------------------------------------------

    @cached_property
    def tension(self):
        """τ^α in the expanded form of the module docstring."""
        n, m, gamma, dphi = self.n, self.m, self.codomain.gamma, self.dphi
        xn = self.map.fs.xnames
        return [self.geom.horizontal_trace(
            [[dphi[a][i].deriv(xn[j]) + jt.sum_terms([gamma[a][b][c] * dphi[b][i] * dphi[c][j]
                                                      for b in range(m) for c in range(m)])
              for j in range(n)] for i in range(n)], dphi[a]) for a in range(m)]

    def tension_divergence_form(self):
        """τ^α = div(g^{ij}φ^α_{,j}) + g^{ij}γ̃^α_{βγ}φ^β_{,i}φ^γ_{,j}, with no
        `horizontal_trace`; `check invariants` compares it with `tension`."""
        n, m, g, gamma, dphi = self.n, self.m, self.geom, self.codomain.gamma, self.dphi
        return [g.divergence_of([jt.sum_terms([g.ginv[i][j] * dphi[a][j] for j in range(n)])
                                 for i in range(n)])
                + g.contract([[jt.sum_terms([gamma[a][b][c] * dphi[b][i] * dphi[c][j]
                                             for b in range(m) for c in range(m)])
                               for j in range(n)] for i in range(n)])
                for a in range(m)]

    # --- second-order operators -------------------------------------------------------

    def rough_laplacian(self, S):
        """(Δ^{dφ}S)^α = −g^{ij}(D_iD_jS − Γ^k_{ij}D_kS − P_i D_jS)."""
        n = self.n
        DS = [self.cov_deriv(S, j) for j in range(n)]       # DS[j][a]
        DDS = [[self.cov_deriv(DS[j], i) for j in range(n)] for i in range(n)]
        return [-self.geom.horizontal_trace([[DDS[i][j][a] for j in range(n)] for i in range(n)],
                                            [DS[k][a] for k in range(n)])
                for a in range(self.m)]

    def curvature_trace(self, S):
        """g^{ij} R̃(dφ(δ_i), S) dφ(δ_j), the trace term of J; R̃ is applied
        once per (i, j) and every component is read from it."""
        n, m = self.n, self.m
        riem = self.codomain.riem
        cols = [[self.dphi[b][i] for b in range(m)] for i in range(n)]
        applied = [[riem_apply(riem, cols[i], S, cols[j], m) for j in range(n)] for i in range(n)]
        return [self.geom.contract([[applied[i][j][a] for j in range(n)] for i in range(n)])
                for a in range(m)]

    def jacobi(self, S):
        """(J S)^α = −(Δ^{dφ}S)^α − (curvature trace)^α, the curvature trace
        built at the order of Δ^{dφ}S (S cut to it first)."""
        lap = self.rough_laplacian(S)
        tr = self.curvature_trace(jt.truncated(S, jt.least_order(lap)))
        return [-lap[a] - tr[a] for a in range(self.m)]

    @cached_property
    def bitension(self):
        return self.jacobi(self.tension)

    @cached_property
    def energy_density(self):
        """e(φ) = ½ g^{ij} g̃_{αβ}(φ) φ^α_{,i} φ^β_{,j}."""
        g = self.geom
        return 0.5 * jt.sum_terms(
            [g.ginv[i][j] * self.codomain.d0[a][b] * self.dphi[a][i] * self.dphi[b][j]
             for i in range(self.n) for j in range(self.n)
             for a in range(self.m) for b in range(self.m)])

    # --- Weitzenböck -------------------------------------------------------------------

    def weitzenbock_residual(self):
        """LHS − RHS of −½Δ‖τ‖² = −⟨Δ^{dφ}τ, τ⟩ + g^{ij}⟨D_{δ_i}τ, D_{δ_j}τ⟩."""
        g = self.geom
        tau = self.tension
        norm2 = self.inner(tau, tau)
        lhs = -0.5 * g.horizontal_laplacian_of(norm2)
        lap = self.rough_laplacian(tau)
        Dtau = [self.cov_deriv(tau, i) for i in range(self.n)]
        rhs = -self.inner(lap, tau) + g.contract(
            [[self.inner(Dtau[i], Dtau[j]) for j in range(self.n)] for i in range(self.n)])
        return lhs.value - rhs.value

    # --- Hessian integrand ----------------------------------------------------------------

    def hessian_integrand(self, V1, V2):
        """⟨V₁, J²V₂ + R̃(V₂,τ)τ + g^{ij}{(D̃_τR̃)(V₂,dφ(δ_i))dφ(δ_j)
        − (D_{δ_i}R̃)(dφ(δ_j),τ)V₂ + 2R̃(V₂,dφ(δ_i))D_{δ_j}τ
        − 2R̃(dφ(δ_i),τ)D_{δ_j}V₂}⟩ at the working point.

        The derivative index of the last two terms pairs with j; D_{δ_i}R̃
        pulls back to φ^μ_{,i} ∇_μ R̃ and D̃_τ to τ^μ ∇_μ R̃.

        The R̃ and ∇R̃ terms and the pairing with V₁ are built at the order
        of J²V₂: τ, V₁, V₂ and dφ are cut to it, and τ and V₂ to one above it
        before D_{δ_j}.
        """
        n, m, g = self.n, self.m, self.geom
        riem, nabla = self.codomain.riem, self.codomain.nabla
        JJ = self.jacobi(self.jacobi(V2))
        r = jt.least_order(JJ)
        Dtau = [self.cov_deriv(jt.truncated(self.tension, r + 1), j) for j in range(n)]
        DV2 = [self.cov_deriv(jt.truncated(V2, r + 1), j) for j in range(n)]
        tau, V1, V2, dphi = (jt.truncated(t, r) for t in (self.tension, V1, V2, self.dphi))
        total = [jj + t for jj, t in zip(JJ, riem_apply(riem, V2, tau, tau, m))]
        for i in range(n):
            dphi_i = [dphi[b][i] for b in range(m)]
            for j in range(n):
                dphi_j = [dphi[b][j] for b in range(m)]
                t1 = nabla_riem_apply(nabla, tau, V2, dphi_i, dphi_j, m)
                t2 = nabla_riem_apply(nabla, dphi_i, dphi_j, tau, V2, m)
                t3 = riem_apply(riem, V2, dphi_i, Dtau[j], m)
                t4 = riem_apply(riem, dphi_i, tau, DV2[j], m)
                for a in range(m):
                    total[a] = total[a] + g.ginv[i][j] * (
                        t1[a] - t2[a] + 2.0 * t3[a] - 2.0 * t4[a])
        return self.inner(V1, total).value


# --- public operations -------------------------------------------------------------------

def _at(map: SmoothMap, p: PointState, read: str) -> MapGeometry:
    """Map geometry at one point, at the jet order ORDER_TABLE gives `read`."""
    return MapGeometry(map, DomainGeometry(map.fs, p.x, p.y, ORDER_TABLE[read]))


def differential(map: SmoothMap, x) -> np.ndarray:
    """φ^α_{,i} matrix (ñ × n) of exact first partials."""
    env = jt.jet_space(map.fs.xnames, 1).point_env(
        {map.fs.xnames[i]: np.asarray(x[i], dtype=np.float64) for i in range(map.fs.dim)})
    jets = [jt.eval_ast(c, env) for c in map.components]
    return np.array([[jets[a].partial(tuple(1 if k == i else 0 for k in range(map.fs.dim)))
                      for i in range(map.fs.dim)] for a in range(map.rs.dim)])


def tension_report(mg: MapGeometry, with_bitension: bool = False) -> TensionReport:
    """τ and |τ| at `mg`'s point, and τ₂ and |τ₂| `with_bitension`; no e(φ)."""
    def norm(S):
        return np.sqrt(np.maximum(_values(mg.inner(S, S)), 0.0))

    report = TensionReport(tau=_values(mg.tension), tau_norm=norm(mg.tension))
    if with_bitension:
        report.tau2, report.tau2_norm = _values(mg.bitension), norm(mg.bitension)
    return report


def tension(map: SmoothMap, p: PointState) -> TensionReport:
    mg = _at(map, p, "tension")
    report = tension_report(mg)
    report.energy_density = _values(mg.energy_density)
    return report


def pullback_cov_deriv(map: SmoothMap, S: PullbackSection, i: int, p: PointState) -> np.ndarray:
    mg = _at(map, p, "delta")
    return _values(mg.cov_deriv(S.jets(mg), i))


def rough_laplacian(map: SmoothMap, S: PullbackSection, p: PointState) -> np.ndarray:
    mg = _at(map, p, "bitension")
    return _values(mg.rough_laplacian(S.jets(mg)))


def jacobi_apply(map: SmoothMap, S: PullbackSection, p: PointState) -> np.ndarray:
    mg = _at(map, p, "bitension")
    return _values(mg.jacobi(S.jets(mg)))


def bitension(map: SmoothMap, p: PointState) -> TensionReport:
    mg = _at(map, p, "bitension")
    report = tension_report(mg, with_bitension=True)
    report.energy_density = _values(mg.energy_density)
    return report


def weitzenbock_residual(map: SmoothMap, p: PointState) -> float:
    return float(_at(map, p, "weitzenbock").weitzenbock_residual())


def hessian_integrand(map: SmoothMap, V1: PullbackSection, V2: PullbackSection,
                      p: PointState) -> float:
    mg = _at(map, p, "hessian")
    return float(mg.hessian_integrand(V1.jets(mg), V2.jets(mg)))


def energy_density(map: SmoothMap, p: PointState) -> float:
    return float(_values(_at(map, p, "energy_density").energy_density))
