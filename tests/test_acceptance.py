"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
`CRITERION n: PASS` or `CRITERION n: FAIL` line directly to the terminal
(bypassing capture) before asserting, so a full `pytest -v` run always shows
the twelve verdicts.  Tolerances are the pinned acceptance tolerances; a
criterion that does not meet its band fails here and is not loosened.
"""

import json
import math

import numpy as np
import pytest

from finvar import expressions as ex
from finvar import finsler as fn
from finvar import identity as idn
from finvar import jets as jt
from finvar import quadrature as q
from finvar.classical import ClassicalPipeline
from finvar.cli import main
from finvar.finsler import (BoxChart, DomainGeometry, FinslerStructure,
                            PointState, TorusChart, _values)
from finvar.maps import (MapGeometry, PullbackSection, SmoothMap,
                         VariationFamily, bitension, differential,
                         energy_density, rough_laplacian, tension,
                         weitzenbock_residual)
from finvar.riemann import RiemannStructure, metric_at

from helpers import multi_indices, random_expression, richardson2_partial

TWO_PI = 2 * math.pi
PI = math.pi

DOMAIN_MATRIX = [["1 + x2^2/4", "x1*x2/8"], ["x1*x2/8", "1 + x1^2/4"]]
GEN_CODOMAIN = [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"],
                ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]]
MAP_SRC = ["x1/2 + x2^2/5", "x2/2 - x1^2/5"]
SECTION_SRC = ["sin(x1) + x2/3", "x1*x2"]

PERIODIC_MAP = [f"0.8 + 0.3*cos(x1*{TWO_PI!r}) + 0.1*sin(x2*{TWO_PI!r})",
                f"0.2*sin(x1*{TWO_PI!r}) + 0.25*cos(x2*{TWO_PI!r})"]

BOX = BoxChart(((-1.0, 1.0), (-1.0, 1.0)))
EYE = [["1", "0"], ["0", "1"]]
GEN_BASE = [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"],
            ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]]
GEN_B = "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2) + 0.2*sin(x1)*y1^3*y2/(y1^2 + y2^2)"


def _verdict(capfd, n, ok, detail=""):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def _randers_torus():
    return FinslerStructure.randers(
        EYE, [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"],
        2, chart=TorusChart((1.0, 1.0)))


def _torus_euclid():
    return FinslerStructure.euclidean(2, chart=TorusChart((1.0, 1.0)))


def _unit_points(count, seed, lo=-0.8, hi=0.8):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        x = rng.uniform(lo, hi, size=2)
        y = rng.normal(size=2)
        y /= np.linalg.norm(y)
        pts.append(PointState(x, y))
    return pts


def test_criterion_01_riemannian_reduction(capfd):
    # quadratic F²: tension, rough Laplacian and bitension must coincide with
    # the independent classical pipeline at 100 seeded points, rel <= 1e-8
    fs = FinslerStructure.riemannian(DOMAIN_MATRIX, 2)
    rs = RiemannStructure.custom(GEN_CODOMAIN, 2)
    m = SmoothMap(MAP_SRC, fs, rs)
    coords = ["x1", "x2"]
    cp = ClassicalPipeline(
        [[ex.parse(e, coords) for e in row] for row in DOMAIN_MATRIX],
        [[ex.parse(e, coords) for e in row] for row in GEN_CODOMAIN],
        [ex.parse(s, coords) for s in MAP_SRC], 2, 2)
    S_asts = [ex.parse(s, coords) for s in SECTION_SRC]
    S = PullbackSection(SECTION_SRC)
    worst = 0.0
    for p in _unit_points(100, 2024):
        pairs = [(tension(m, p).tau, cp.tension(p.x)),
                 (rough_laplacian(m, S, p), cp.rough_laplacian(S_asts, p.x)),
                 (bitension(m, p).tau2, cp.bitension(p.x))]
        for got, want in pairs:
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    _verdict(capfd, 1, worst <= 1e-8, f"worst rel gap {worst:.2e} <= 1e-8")


def test_criterion_02_jet_coefficients_vs_richardson(capfd):
    # 100 random smooth expressions, all partials up to order 4, against a
    # two-level Richardson finite-difference oracle, rel <= 1e-5
    names = ("x1", "x2")
    rng = np.random.default_rng(4096)
    worst = 0.0
    for _ in range(100):
        node = random_expression(rng, names)
        point = rng.uniform(-0.8, 0.8, size=2)

        def f(p):
            return ex.evaluate(node, {names[i]: p[i] for i in range(2)})

        env = jt.jet_space(names, 4).point_env(
            {names[i]: np.asarray(point[i]) for i in range(2)})
        j = jt.eval_ast(node, env)
        for mu in multi_indices(2, 4):
            exact = float(j.partial(mu))
            h = 0.03 if sum(mu) >= 3 else 0.01
            fd = richardson2_partial(f, list(point), mu, h)
            worst = max(worst, abs(exact - fd) / max(1.0, abs(exact)))
    _verdict(capfd, 2, worst <= 1e-5, f"worst rel gap {worst:.2e} <= 1e-5")


def test_criterion_03_structural_identities(capfd):
    # Euler identity, adapted derivative of F², h-metricity, bracket identity
    # on a Randers torus, plus the perturbation-form split identities,
    # at 20 seeded points each, rel <= 1e-7
    fs = _randers_torus()
    field = ex.parse("sin(x1)*y2^2/(y1^2 + y2^2) + cos(x2)*y1",
                     list(fs.xnames) + list(fs.ynames))
    worst = 0.0
    for p in _unit_points(20, 11, lo=0.0, hi=1.0):
        geom = DomainGeometry(fs, p.x, p.y, 5)
        f2 = float(_values(geom.f2))
        gyy = float(_values(jt.sum_terms(
            [geom.g[i][j] * geom.env[fs.ynames[i]] * geom.env[fs.ynames[j]]
             for i in range(2) for j in range(2)])))
        worst = max(worst, abs(gyy - f2) / abs(f2))
        for i in range(2):
            worst = max(worst, abs(float(_values(geom.delta(geom.f2, i)))) / abs(f2))
        gscale = max(1.0, max(abs(float(_values(geom.g[i][j])))
                              for i in range(2) for j in range(2)))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    resid = geom.delta(geom.g[i][j], k) - jt.sum_terms(
                        [geom.gamma[l][k][i] * geom.g[l][j]
                         + geom.gamma[l][k][j] * geom.g[i][l] for l in range(2)])
                    worst = max(worst, abs(float(_values(resid))) / gscale)
        fj = jt.eval_ast(field, geom.env)
        for jx in range(2):
            for k in range(2):
                lhs = geom.delta(geom.delta(fj, k), jx) \
                    - geom.delta(geom.delta(fj, jx), k)
                rhs = jt.sum_terms([geom.Rjk[i][jx][k] * fj.deriv(fs.ynames[i])
                                    for i in range(2)])
                scale = max(1.0, abs(float(_values(lhs))))
                worst = max(worst,
                            abs(float(_values(lhs)) - float(_values(rhs))) / scale)
    setup = idn.PerturbationSetup(GEN_BASE, GEN_B, 2, chart=BOX, scale=0.05)
    for p in _unit_points(20, 13):
        ig = idn.IdentityGeometry(setup, p.x, p.y, 4)
        worst = max(worst, float(np.max(np.abs(ig.eq33_residual()))))
        worst = max(worst, float(np.max(np.abs(ig.spray_split_residual()))))
    _verdict(capfd, 3, worst <= 1e-7, f"worst residual {worst:.2e} <= 1e-7")


def test_criterion_04_weitzenbock(capfd):
    # the Weitzenböck balance for a generic map from a Randers torus to the
    # round sphere: residual <= 1e-6 * scale at 20 seeded points
    fs = _randers_torus()
    rs = RiemannStructure.sphere(2, 1.0)
    m = SmoothMap(PERIODIC_MAP, fs, rs)
    worst = 0.0
    for p in _unit_points(20, 42, lo=0.0, hi=1.0):
        res = abs(weitzenbock_residual(m, p))
        scale = max(1.0, tension(m, p).tau_norm ** 2)
        worst = max(worst, res / (1e-6 * scale))
    _verdict(capfd, 4, worst <= 1.0,
             f"worst residual / (1e-6*scale) = {worst:.2e} <= 1")


def test_criterion_05_first_variation(capfd):
    # dE₂/dε by central differences against ∫⟨τ₂, V⟩ with common random
    # numbers: (a) flat domain and codomain, (b) Randers torus to the sphere
    fs_a = FinslerStructure.euclidean(2, chart=BOX)
    rs_a = RiemannStructure.euclidean(2)
    base_a = ["x1^4/12 + x2^2/2 + x1^2*x2^2/4", "x2^4/12 - x1^2/4"]
    bump = "(1 - x1^2)^2*(1 - x2^2)^2"
    fam_a = VariationFamily(
        [f"{base_a[0]} + eps1*{bump}", f"{base_a[1]} + eps1*0.5*{bump}"],
        fs_a, rs_a, base=SmoothMap(base_a, fs_a, rs_a))
    chk_a = q.first_variation_check(
        fam_a, q.QuadratureSpec(x_resolution=8, y_samples=1024, seed=0), h=1e-3)
    bound_a = max(1e-3 * abs(chk_a.fd), 3 * chk_a.stderr)
    ok_a = chk_a.gap <= bound_a

    fs_b = _randers_torus()
    rs_b = RiemannStructure.sphere(2, 1.0)
    base_b = [f"0.8 + 0.5*cos(x1*{TWO_PI!r}) + 0.2*sin(x2*{TWO_PI!r})",
              f"0.4*sin(x1*{TWO_PI!r}) + 0.3*cos(x2*{TWO_PI!r})"]
    fam_b = VariationFamily(
        [f"{base_b[0]} + eps1*sin(x1*{TWO_PI!r})",
         f"{base_b[1]} + eps1*0.7*cos(x2*{TWO_PI!r})"],
        fs_b, rs_b, base=SmoothMap(base_b, fs_b, rs_b))
    chk_b = q.first_variation_check(
        fam_b, q.QuadratureSpec(x_resolution=8, y_samples=2048, seed=0), h=1e-3)
    bound_b = max(1e-3 * abs(chk_b.fd), 3 * chk_b.stderr)
    ok_b = chk_b.gap <= bound_b
    _verdict(capfd, 5, ok_a and ok_b,
             f"flat gap {chk_a.gap:.3g} <= {bound_a:.3g}, "
             f"randers/sphere gap {chk_b.gap:.3g} <= {bound_b:.3g}")


def test_criterion_06_self_adjointness(capfd):
    # ⟨ΔX, Y⟩ vs ⟨X, ΔY⟩ and ⟨JX, Y⟩ vs ⟨X, JY⟩ with compact bump sections on
    # the Randers torus, plus ∫⟨ΔX, X⟩ >= −3·stderr
    fs = _randers_torus()
    rs = RiemannStructure.sphere(2, 1.0)
    m = SmoothMap([f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"],
                  fs, rs)
    X = PullbackSection([f"sin(x1*{PI!r})^2*sin(x2*{PI!r})^2",
                         f"0.5*sin(x1*{PI!r})^2"])
    Y = PullbackSection([f"0.4*sin(x2*{PI!r})^2",
                         f"sin(x1*{PI!r})^2*sin(x2*{PI!r})^2"])
    out = q.self_adjointness_check(
        m, X, Y, q.QuadratureSpec(x_resolution=8, y_samples=1024, seed=7))
    scale = max(1.0, abs(out["laplacian_xy"]), abs(out["jacobi_xy"]))
    bound = 3 * out["stderr"] + 1e-6 * scale
    ok = (out["laplacian_gap"] <= bound and out["jacobi_gap"] <= bound
          and out["positivity"] >= -3 * out["stderr"])
    _verdict(capfd, 6, ok,
             f"gaps {out['laplacian_gap']:.3g}/{out['jacobi_gap']:.3g} <= "
             f"{bound:.3g}, positivity {out['positivity']:.3g}")


def test_criterion_07_sphere_specialization(capfd):
    # τ₂ = −Δτ − K g^{ij}⟨dφ(δ_j), τ⟩ dφ(δ_i) + 2eKτ on the round sphere of
    # curvature K, Randers domain, at 20 seeded points, rel <= 1e-8
    fs = _randers_torus()
    radius = 1.3
    K = 1.0 / radius ** 2
    rs = RiemannStructure.sphere(2, radius)
    m = SmoothMap(PERIODIC_MAP, fs, rs)
    worst = 0.0
    for p in _unit_points(20, 7, lo=0.0, hi=1.0):
        rep = bitension(m, p)
        lap = rough_laplacian(
            m, PullbackSection([lambda mg, a=a: mg.tension[a] for a in range(2)]), p)
        gt = metric_at(rs, m.value(p.x))
        dphi = differential(m, p.x)
        e = energy_density(m, p)
        ginv = np.linalg.inv(fn.metric(fs, p).g)
        trace = sum(ginv[i][j] * (dphi[:, j] @ gt @ rep.tau) * dphi[:, i]
                    for i in range(2) for j in range(2))
        special = -lap - K * trace + 2.0 * e * K * rep.tau
        scale = max(1.0, float(np.max(np.abs(rep.tau2))))
        worst = max(worst, float(np.max(np.abs(rep.tau2 - special))) / scale)
    _verdict(capfd, 7, worst <= 1e-8, f"worst rel gap {worst:.2e} <= 1e-8")


def test_criterion_08_identity_map_routes(capfd):
    # the three identity-map tension routes agree to 1e-8; a parallel
    # perturbation has vanishing tension; the conserved-form condition holds
    # in the trivial case and visibly fails for a wrong candidate covector
    setup = idn.PerturbationSetup(GEN_BASE, GEN_B, 2, chart=BOX, scale=0.05)
    worst = 0.0
    for p in _unit_points(10, 2):
        rep = idn.identity_tension(setup, p)
        scale = max(1.0, float(np.max(np.abs(rep.tau_route_b))))
        worst = max(worst, max(rep.discrepancy_b_conn, rep.discrepancy_b_general,
                               rep.discrepancy_conn_general) / scale)
    routes_ok = worst <= 1e-8

    parallel = idn.PerturbationSetup(
        EYE, "0.2*y1^4/(y1^2 + y2^2)", 2, chart=BOX, scale=1.0,
        a_sources=["0", "0"])
    p = _unit_points(1, 5)[0]
    rep = idn.identity_tension(parallel, p)
    tau_sup = float(np.max(np.abs(rep.tau_route_general)))
    parallel_ok = tau_sup <= 1e-10
    residual, tau_pred = idn.condition35_residual(parallel, p)
    trivial_ok = float(np.max(np.abs(residual))) <= 1e-10 \
        and np.allclose(tau_pred, 0.0)

    negative = idn.PerturbationSetup(GEN_BASE, GEN_B, 2, chart=BOX, scale=0.05,
                                     a_sources=["0.1", "-0.05"])
    neg_res, _ = idn.condition35_residual(negative, _unit_points(1, 6)[0])
    negative_ok = float(np.max(np.abs(neg_res))) > 1e-3

    _verdict(capfd, 8, routes_ok and parallel_ok and trivial_ok and negative_ok,
             f"route gap {worst:.2e}, parallel |tau| {tau_sup:.2e}, "
             f"condition-35 trivial/negative {trivial_ok}/{negative_ok}")


def test_criterion_09_linearized_scaling_slopes(capfd):
    # sup-norm scaling of τ and τ₂ for a perturbation with affine-in-x
    # coefficients, with a quadratic-coefficient control required to fall
    # outside the τ₂ band
    affine = idn.PerturbationSetup(
        EYE, "(x1 + 2*x2)*y1^4/(y1^2 + y2^2)", 2, chart=BOX)
    rep = idn.linearized_scaling(affine, n_points=6)
    quad = idn.PerturbationSetup(
        EYE, "x1*x2*y1^4/(y1^2 + y2^2)", 2, chart=BOX)
    control = idn.linearized_scaling(quad, n_points=6)
    tau_ok = 0.9 <= rep.slope_tau <= 1.1
    tau2_ok = 1.8 <= rep.slope_tau2 <= 2.2
    control_ok = not (1.8 <= control.slope_tau2 <= 2.2)
    _verdict(capfd, 9, tau_ok and tau2_ok and control_ok,
             f"measured slope_tau {rep.slope_tau:.3f} (band [0.9, 1.1]), "
             f"slope_tau2 {rep.slope_tau2:.3f} (band [1.8, 2.2]), "
             f"quadratic control slope_tau2 {control.slope_tau2:.3f}")


def test_criterion_10_second_variation(capfd):
    # mixed FD second derivative of E₂ against the integrated Hessian form at
    # a biharmonic base, symmetry of the form, and H(V, V) >= −3·stderr for
    # 10 random sections
    fs = _torus_euclid()
    rs = RiemannStructure.sphere(2, 1.0)
    base = SmoothMap(["x1*0 + 0.4", "x1*0 - 0.2"], fs, rs)
    fam = VariationFamily(
        [f"0.4 + eps1*sin(x1*{TWO_PI!r}) + 0.3*eps2*cos(x2*{TWO_PI!r})",
         f"-0.2 + eps2*sin(x2*{TWO_PI!r}) + 0.2*eps1*cos(x1*{TWO_PI!r})"],
        fs, rs, base=base)
    spec = q.QuadratureSpec(x_resolution=4, y_samples=256, seed=3)
    chk = q.second_variation_check(fam, spec, h=1e-3)
    scale = max(1.0, abs(chk.fd))
    bound = max(1e-3 * scale, 3 * chk.stderr)
    mixed_ok = chk.gap <= bound
    sym_ok = chk.extras["symmetry_gap"] <= bound

    pos_spec = q.QuadratureSpec(x_resolution=3, y_samples=128, seed=3)
    rng = np.random.default_rng(17)
    worst_pos = float("inf")
    pos_ok = True
    for _ in range(10):
        c = [float(v) for v in rng.uniform(-1, 1, size=4)]
        V = PullbackSection(
            [f"{c[0]!r}*sin(x1*{TWO_PI!r}) + {c[1]!r}*cos(x2*{TWO_PI!r})",
             f"{c[2]!r}*sin(x2*{TWO_PI!r}) + {c[3]!r}*cos(x1*{TWO_PI!r})"])
        hvv = q.hessian_form(base, V, V, pos_spec)
        margin = hvv.value + 3 * hvv.stderr
        worst_pos = min(worst_pos, margin)
        pos_ok = pos_ok and margin >= 0.0
    _verdict(capfd, 10, mixed_ok and sym_ok and pos_ok,
             f"mixed gap {chk.gap:.3g} <= {bound:.3g}, symmetry gap "
             f"{chk.extras['symmetry_gap']:.3g}, worst H(V,V)+3se {worst_pos:.3g}")


def test_criterion_11_reproducibility(capfd, tmp_path):
    # same structure, spec and seed: bitwise-equal estimates across repeated
    # runs and across worker counts, and byte-identical CLI reports
    fs = _randers_torus()
    rs = RiemannStructure.sphere(2, 1.0)
    m = SmoothMap([f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"],
                  fs, rs)
    spec1 = q.QuadratureSpec(x_resolution=4, y_samples=500, seed=17)
    a = q.bienergy(m, spec1)
    b = q.bienergy(m, spec1)
    c = q.bienergy(m, q.QuadratureSpec(x_resolution=4, y_samples=500, seed=17,
                                       workers=3))
    api_ok = (a.value == b.value and a.stderr == b.stderr
              and a.value == c.value and a.stderr == c.stderr)

    cfg = {
        "dimension": 2,
        "domain": {"type": "randers", "alpha": EYE,
                   "beta": [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"],
                   "chart": {"type": "torus", "periods": [1.0, 1.0]}},
        "codomain": {"type": "sphere", "radius": 1.0},
        "map": {"components": [f"0.8 + 0.2*cos(x1*{TWO_PI!r})",
                               f"0.3*sin(x2*{TWO_PI!r})"]},
        "quadrature": {"x_resolution": 4, "y_samples": 500, "seed": 17},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("r1.csv", "r2.csv"):
        dest = tmp_path / name
        code = main(["energy", "--config", str(cfg_path), "--format", "csv",
                     "--out", str(dest)])
        outs.append((code, dest.read_text()))
    cli_ok = (outs[0][0] == outs[1][0] == 0 and outs[0][1] == outs[1][1])
    _verdict(capfd, 11, api_ok and cli_ok,
             f"estimates bitwise equal {api_ok}, CLI reports identical {cli_ok}")


def test_criterion_12_divergence_theorem(capfd):
    # ∫ div X and ∫ Δf over the unit-ball bundle of the Randers torus are
    # zero to within Monte Carlo error
    fs = _randers_torus()
    out = q.divergence_theorem_check(
        fs, [f"cos(x1*{TWO_PI!r})", f"sin(x2*{TWO_PI!r})"],
        q.QuadratureSpec(x_resolution=8, y_samples=2048, seed=5),
        f=f"sin(x1*{TWO_PI!r})*cos(x2*{TWO_PI!r})")
    div_ok = abs(out["divergence_integral"]) <= 3 * out["divergence_stderr"]
    lap_ok = abs(out["laplacian_integral"]) <= 3 * out["laplacian_stderr"]
    _verdict(capfd, 12, div_ok and lap_ok,
             f"|div| {abs(out['divergence_integral']):.3g} <= "
             f"{3 * out['divergence_stderr']:.3g}, |lap| "
             f"{abs(out['laplacian_integral']):.3g} <= "
             f"{3 * out['laplacian_stderr']:.3g}")
