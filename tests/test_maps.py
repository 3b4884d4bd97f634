"""Map calculus: tension, pullback connection, rough Laplacian, Jacobi
operator, bitension, Weitzenböck identity, Hessian integrand.  Oracles are
flat-space closed forms, the independent classical (Riemannian-domain)
pipeline, and finite differences in the variation parameter."""

import math

import numpy as np
import pytest

from finvar import expressions as ex
from finvar import jets as jt
from finvar.classical import ClassicalPipeline
from finvar.config import RunConfig
from finvar.errors import ConfigError, ExpressionError
from finvar.finsler import (DomainGeometry, FinslerStructure, PointState,
                            TorusChart, _values)
from finvar.identity import IdentityGeometry, PerturbationSetup
from finvar.maps import (MapGeometry, PullbackSection, SmoothMap, bitension,
                         differential, energy_density, hessian_integrand,
                         jacobi_apply, pullback_cov_deriv, rough_laplacian,
                         tension, weitzenbock_residual)
from finvar.riemann import RiemannStructure, christoffel_table, metric_at

TWO_PI = 2 * math.pi

GEN_CODOMAIN = [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"],
                ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]]

DOMAIN_MATRIX = [["1 + x2^2/4", "x1*x2/8"], ["x1*x2/8", "1 + x1^2/4"]]


def _torus_euclid():
    return FinslerStructure.euclidean(2, chart=TorusChart((1.0, 1.0)))


def _periodic_map(fs, rs):
    src = [f"0.8 + 0.3*cos(x1*{TWO_PI!r}) + 0.1*sin(x2*{TWO_PI!r})",
           f"0.2*sin(x1*{TWO_PI!r}) + 0.25*cos(x2*{TWO_PI!r})"]
    return SmoothMap(src, fs, rs)


def test_flat_tension_is_the_plain_laplacian_trace():
    fs = FinslerStructure.euclidean(2)
    rs = RiemannStructure.euclidean(2)
    m = SmoothMap(["x1^2*x2 + sin(x1)", "x1*x2^2 - x2^3"], fs, rs)
    x = np.array([0.4, -0.3])
    rep = tension(m, PointState(x, [1.0, 0.5]))
    # τ^a = δ^{ij} φ^a_{,ij}
    expected = np.array([2 * x[1] - math.sin(x[0]), 2 * x[0] - 6 * x[1]])
    assert np.allclose(rep.tau, expected, atol=1e-12)
    assert rep.energy_density == pytest.approx(
        0.5 * float(np.sum(differential(m, x) ** 2)), rel=1e-12)


def test_differential_is_exact():
    fs = FinslerStructure.euclidean(2)
    m = SmoothMap(["sin(x1)*x2", "x1 + x2^2"], fs, RiemannStructure.euclidean(2))
    d = differential(m, [0.3, 0.7])
    assert d[0][0] == pytest.approx(math.cos(0.3) * 0.7)
    assert d[0][1] == pytest.approx(math.sin(0.3))
    assert d[1][0] == pytest.approx(1.0)
    assert d[1][1] == pytest.approx(1.4)


def test_riemannian_domain_agrees_with_classical_pipeline():
    # quadratic F²: the engine must reproduce the independent textbook
    # pipeline for tension, rough Laplacian and bitension
    fs = FinslerStructure.riemannian(DOMAIN_MATRIX, 2)
    rs = RiemannStructure.custom(GEN_CODOMAIN, 2)
    map_src = ["x1/2 + x2^2/5", "x2/2 - x1^2/5"]
    m = SmoothMap(map_src, fs, rs)
    coords = ["x1", "x2"]
    cp = ClassicalPipeline(
        [[ex.parse(e, coords) for e in row] for row in DOMAIN_MATRIX],
        [[ex.parse(e, coords) for e in row] for row in GEN_CODOMAIN],
        [ex.parse(s, coords) for s in map_src], 2, 2)
    S_src = ["sin(x1) + x2/3", "x1*x2"]
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = rng.uniform(-0.8, 0.8, size=2)
        p = PointState(x, rng.normal(size=2))
        assert np.allclose(tension(m, p).tau, cp.tension(x), atol=1e-9)
        S = PullbackSection(S_src)
        expected_lap = cp.rough_laplacian([ex.parse(s, coords) for s in S_src], x)
        assert np.allclose(rough_laplacian(m, S, p), expected_lap, atol=1e-8)
        assert np.allclose(bitension(m, p).tau2, cp.bitension(x), atol=1e-7)


def test_first_variation_of_tension_is_jacobi():
    # D_ε τ(φ + εW)|_0 = J(W) pointwise; the left side is a finite difference
    # corrected by the codomain Christoffel term of the ε-covariant derivative
    fs = _torus_euclid()
    rs = RiemannStructure.sphere(2, 1.0)
    phi_src = [f"0.8 + 0.3*cos(x1*{TWO_PI!r}) + 0.1*sin(x2*{TWO_PI!r})",
               f"0.2*sin(x1*{TWO_PI!r}) + 0.25*cos(x2*{TWO_PI!r})"]
    W_src = [f"0.4*sin(x1*{TWO_PI!r}) + 0.1*cos(x2*{TWO_PI!r})",
             f"0.3*cos(x1*{TWO_PI!r})"]
    x = np.array([0.17, 0.36])
    y = np.array([0.7, -0.4])
    p = PointState(x, y)
    h = 1e-5

    def tau_at(eps):
        comps = [f"({ph}) + {eps!r}*({w})" for ph, w in zip(phi_src, W_src)]
        return tension(SmoothMap(comps, fs, rs), p).tau

    base = SmoothMap(phi_src, fs, rs)
    tau0 = tau_at(0.0)
    dtau = (tau_at(h) - tau_at(-h)) / (2 * h)
    phi_val = base.value(x)
    gamt, _ = christoffel_table(rs.partials_at(
        {rs.coords[a]: phi_val[a] for a in range(2)}, 1))
    env = {"x1": x[0], "x2": x[1]}
    W_val = np.array([ex.evaluate(ex.parse(s, ["x1", "x2"]), env) for s in W_src])
    lhs = dtau + np.array([sum(gamt[a][b][c] * W_val[b] * tau0[c]
                               for b in range(2) for c in range(2))
                           for a in range(2)])
    rhs = jacobi_apply(base, PullbackSection(W_src), p)
    assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-6)


def _depstau2_pointwise(fs, rs, phi_src, W_src, x, y, h=1e-5):
    """(D_ε τ₂)^a at ε = 0 by finite differences plus the Γ̃ correction."""
    p = PointState(x, y)

    def tau2_at(eps):
        comps = [f"({ph}) + {eps!r}*({w})" for ph, w in zip(phi_src, W_src)]
        return bitension(SmoothMap(comps, fs, rs), p).tau2

    base = SmoothMap(phi_src, fs, rs)
    t20 = tau2_at(0.0)
    dt2 = (tau2_at(h) - tau2_at(-h)) / (2 * h)
    phi_val = base.value(x)
    m = rs.dim
    gamt, _ = christoffel_table(rs.partials_at(
        {rs.coords[a]: phi_val[a] for a in range(m)}, 1))
    names = ["x1", "x2"]
    env = {names[i]: x[i] for i in range(2)}
    W_val = np.array([ex.evaluate(ex.parse(s, names), env) for s in W_src])
    return dt2 + np.array([sum(gamt[a][b][c] * W_val[b] * t20[c]
                               for b in range(m) for c in range(m))
                           for a in range(m)]), base, W_val


@pytest.mark.parametrize("codomain", ["sphere", "generic"])
def test_hessian_integrand_matches_variation_of_bitension(codomain):
    # ⟨V₁, D_ε τ₂⟩ at an arbitrary (non-biharmonic) map: the finite-difference
    # left side fixes every curvature slot of the Hessian integrand, including
    # the ∇R̃ terms when the codomain is not locally symmetric
    fs = _torus_euclid()
    if codomain == "sphere":
        rs = RiemannStructure.sphere(2, 1.0)
    else:
        rs = RiemannStructure.custom(GEN_CODOMAIN, 2)
    phi_src = [f"0.8 + 0.3*cos(x1*{TWO_PI!r}) + 0.1*sin(x2*{TWO_PI!r})",
               f"0.2*sin(x1*{TWO_PI!r}) + 0.25*cos(x2*{TWO_PI!r})"]
    W_src = [f"0.4*sin(x1*{TWO_PI!r}) + 0.1*cos(x2*{TWO_PI!r})",
             f"0.3*cos(x1*{TWO_PI!r})"]
    V1 = [0.6, -0.9]
    x = np.array([0.17, 0.36])
    y = np.array([0.7, -0.4])
    lhs_vec, base, _ = _depstau2_pointwise(fs, rs, phi_src, W_src, x, y)
    gt = metric_at(rs, base.value(x))
    lhs = float(np.array(V1) @ gt @ lhs_vec)
    rhs = hessian_integrand(base,
                            PullbackSection([f"{V1[0]!r}", f"{V1[1]!r}"]),
                            PullbackSection(W_src), PointState(x, y))
    assert rhs == pytest.approx(lhs, rel=5e-5)


def test_sphere_bitension_specialization():
    # on a round sphere of curvature K the bitension collapses to
    # τ₂ = −Δτ − K g^{ij}⟨dφ(δ_j), τ⟩ dφ(δ_i) + 2 e K τ
    fs = _torus_euclid()
    for radius in (1.0, 1.7):
        K = 1.0 / radius ** 2
        rs = RiemannStructure.sphere(2, radius)
        m = _periodic_map(fs, rs)
        x = np.array([0.17, 0.36])
        p = PointState(x, [0.7, -0.4])
        rep = bitension(m, p)
        lap = rough_laplacian(
            m, PullbackSection([lambda mg, a=a: mg.tension[a] for a in range(2)]), p)
        gt = metric_at(rs, m.value(x))
        dphi = differential(m, x)
        e = energy_density(m, p)
        # euclidean domain: g^{ij} = δ^{ij}
        trace = sum(dphi[:, i] * (dphi[:, i] @ gt @ rep.tau) for i in range(2))
        special = -lap - K * trace + 2.0 * e * K * rep.tau
        assert np.allclose(rep.tau2, special, rtol=1e-9)


README_CONFIG = {
    "dimension": 2,
    "domain": {"type": "randers", "alpha": [["1", "0"], ["0", "1"]],
               "beta": [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"],
               "chart": {"type": "torus", "periods": [1.0, 1.0]}},
    "codomain": {"type": "sphere", "radius": 1.0},
    "map": {"components": [f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"]},
}


@pytest.mark.parametrize("components", [
    README_CONFIG["map"]["components"],
    [f"0.8 + 0.5*cos(x1*{TWO_PI!r}) + 0.2*sin(x2*{TWO_PI!r})",
     f"0.4*sin(x1*{TWO_PI!r}) + 0.3*cos(x2*{TWO_PI!r})"],
])
def test_expanded_tension_matches_the_structural_form(components):
    # Randers torus -> unit sphere: the README map and the benchmark's base map
    cfg = RunConfig(dict(README_CONFIG, map={"components": components}))
    m = cfg.smooth_map()
    for x, y in cfg.sample_points(20):
        mg = MapGeometry(m, DomainGeometry(m.fs, x, y, 4), codomain_order=1)
        tau = _values(mg.tension)
        gap = float(np.max(np.abs(tau - _values(mg.structural_tension()))))
        assert gap <= 1e-9 * max(1.0, float(np.max(np.abs(tau))))


def test_pullback_connection_is_metric_compatible():
    # δ_i⟨S, T⟩ = ⟨D_{δ_i}S, T⟩ + ⟨S, D_{δ_i}T⟩
    fs = _torus_euclid()
    rs = RiemannStructure.custom(GEN_CODOMAIN, 2)
    m = _periodic_map(fs, rs)
    x = np.array([0.42, 0.11])
    y = np.array([0.5, 1.1])
    S_src = [f"sin(x1*{TWO_PI!r})", f"0.3 + cos(x2*{TWO_PI!r})"]
    T_src = [f"x2*0 + 0.7", f"sin(x2*{TWO_PI!r})/2"]
    mg = MapGeometry(m, DomainGeometry(fs, x, y, 4), codomain_order=1)
    S = PullbackSection(S_src).jets(mg)
    T = PullbackSection(T_src).jets(mg)
    for i in range(2):
        lhs = float(_values(mg.geom.delta(mg.inner(S, T), i)))
        rhs = float(_values(mg.inner(mg.cov_deriv(S, i), T)
                            + mg.inner(S, mg.cov_deriv(T, i))))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_jacobi_operator_is_linear():
    fs = _torus_euclid()
    rs = RiemannStructure.sphere(2, 1.0)
    m = _periodic_map(fs, rs)
    p = PointState([0.3, 0.8], [1.0, -0.2])
    X = [f"sin(x1*{TWO_PI!r})", f"cos(x2*{TWO_PI!r})"]
    Y = [f"x1*0 + 0.4", f"sin(x2*{TWO_PI!r})"]
    combo = [f"2*({a}) - 3*({b})" for a, b in zip(X, Y)]
    jx = jacobi_apply(m, PullbackSection(X), p)
    jy = jacobi_apply(m, PullbackSection(Y), p)
    jc = jacobi_apply(m, PullbackSection(combo), p)
    assert np.allclose(jc, 2 * jx - 3 * jy, rtol=1e-9, atol=1e-10)


def test_weitzenbock_identity_holds_pointwise():
    fs = _torus_euclid()
    rs = RiemannStructure.sphere(2, 1.0)
    m = _periodic_map(fs, rs)
    rng = np.random.default_rng(9)
    for _ in range(4):
        x = rng.uniform(0.0, 1.0, size=2)
        y = rng.normal(size=2)
        res = weitzenbock_residual(m, PointState(x, y))
        assert abs(res) < 1e-7


def test_harmonic_maps_are_biharmonic():
    # totally geodesic flat map
    fs = FinslerStructure.euclidean(2)
    m = SmoothMap(["x1 + 2*x2", "x1 - x2"], fs, RiemannStructure.euclidean(2))
    rep = bitension(m, PointState([0.3, 0.1], [1.0, 0.0]))
    assert np.allclose(rep.tau, 0.0, atol=1e-13)
    assert np.allclose(rep.tau2, 0.0, atol=1e-13)


def test_proper_biharmonic_circle_on_the_sphere():
    # the circle at colatitude π/4 (stereographic radius tan(π/8)) wrapped
    # once around is biharmonic but not harmonic; the equatorial circle
    # (radius 1) is harmonic
    fs = _torus_euclid()
    rs = RiemannStructure.sphere(2, 1.0)
    r = math.tan(math.pi / 8)
    proper = SmoothMap([f"{r!r}*cos(x1*{TWO_PI!r})", f"{r!r}*sin(x1*{TWO_PI!r})"],
                       fs, rs)
    rng = np.random.default_rng(21)
    for _ in range(3):
        p = PointState(rng.uniform(0, 1, size=2), rng.normal(size=2))
        rep = bitension(proper, p)
        assert rep.tau_norm > 1.0
        assert rep.tau2_norm < 1e-9 * rep.tau_norm

    equator = SmoothMap([f"cos(x1*{TWO_PI!r})", f"sin(x1*{TWO_PI!r})"], fs, rs)
    rep = bitension(equator, PointState([0.3, 0.4], [1.0, 0.5]))
    assert rep.tau_norm < 1e-10
    assert rep.tau2_norm < 1e-9


def test_cov_deriv_against_finite_differences():
    fs = _torus_euclid()
    rs = RiemannStructure.custom(GEN_CODOMAIN, 2)
    m = _periodic_map(fs, rs)
    x = np.array([0.27, 0.64])
    y = np.array([1.0, 0.3])
    S_src = [f"sin(x1*{TWO_PI!r}) + 0.2", f"cos(x2*{TWO_PI!r})"]
    names = ["x1", "x2"]
    h = 1e-6
    for i in range(2):
        got = pullback_cov_deriv(m, PullbackSection(S_src), i, PointState(x, y))
        up = x.copy(); up[i] += h
        dn = x.copy(); dn[i] -= h
        dS = np.array([(ex.evaluate(ex.parse(s, names), {"x1": up[0], "x2": up[1]})
                        - ex.evaluate(ex.parse(s, names), {"x1": dn[0], "x2": dn[1]}))
                       / (2 * h) for s in S_src])
        phi_val = m.value(x)
        gamt, _ = christoffel_table(rs.partials_at(
            {rs.coords[a]: phi_val[a] for a in range(2)}, 1))
        dphi = differential(m, x)
        S_val = np.array([ex.evaluate(ex.parse(s, names), {"x1": x[0], "x2": x[1]})
                          for s in S_src])
        expected = dS + np.array([sum(gamt[a][b][c] * dphi[b][i] * S_val[c]
                                      for b in range(2) for c in range(2))
                                  for a in range(2)])
        assert np.allclose(got, expected, rtol=1e-8, atol=1e-8)


def test_map_components_must_be_base_only():
    fs = FinslerStructure.euclidean(2)
    rs = RiemannStructure.euclidean(2)
    # fiber variables are not even in the map grammar
    with pytest.raises(ExpressionError):
        SmoothMap(["x1 + y1", "x2"], fs, rs)
    with pytest.raises(ConfigError):
        SmoothMap(["x1"], fs, rs)


def _x_in_the_full_space(geom):
    """Bind the x names of `geom` to variables of the (x, y) jet space, so no
    jet of it is x-only; before any member of `geom` is computed."""
    fs = geom.fs
    geom.env.update(jt.jet_space(fs.xnames + fs.ynames, geom.order).point_env(
        dict(zip(fs.xnames, geom.x))))
    return geom


@pytest.mark.parametrize("y", [[0.8, -0.6], [[0.8, -0.3, 1.1], [-0.6, 0.9, 0.2]]],
                         ids=["batch-free", "batched"])
def test_x_only_jets_change_no_bit(y):
    fs = FinslerStructure.randers([["1", "0"], ["0", "1"]],
                                  [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"], 2,
                                  chart=TorusChart((1.0, 1.0)))
    m = _periodic_map(fs, RiemannStructure.sphere(2, 1.0))
    V1 = PullbackSection([f"sin(x1*{TWO_PI!r})", f"0.7*cos(x2*{TWO_PI!r})"])
    V2 = PullbackSection(["0.3*x1*x2 + y1*y2", "cos(x1) - 0.2*y1^2"])
    setup = PerturbationSetup(GEN_CODOMAIN, "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2)", 2,
                              scale=0.05)
    x, x_box = [0.31, 0.77], [0.31, -0.27]
    runs, phi_vars = [], []
    for bind in (lambda geom: geom, _x_in_the_full_space):
        mg = MapGeometry(m, bind(DomainGeometry(fs, x, y, 6)), codomain_order=2)
        mg8 = MapGeometry(m, bind(DomainGeometry(fs, x, y, 8)), codomain_order=3)
        ig = IdentityGeometry(setup, x_box, y, 6)
        bind(ig.geom)
        routes = [ig.tau_route_b, ig.tau_route_conn,
                  MapGeometry(setup.identity_map, ig.geom, codomain_order=1).tension]
        values = [mg.tension, mg.bitension, mg.energy_density,
                  mg8.hessian_integrand(V1.jets(mg8), V2.jets(mg8)), *routes]
        runs.append([[float(v).hex() for v in np.ravel(_values(t))] for t in values])
        phi_vars.append(len(mg.phi[0].space.names))
    assert phi_vars == [2, 4]
    assert runs[0] == runs[1]
