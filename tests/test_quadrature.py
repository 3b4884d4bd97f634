"""Unit-ball-bundle quadrature: closed-form volumes and energies, Monte Carlo
error scaling, bit-level reproducibility, and the integrated variational
checks."""

import math
import os

import numpy as np
import pytest

from finvar import expressions as ex
from finvar import finsler as fi
from finvar import jets as jt
from finvar import maps
from finvar import quadrature as q
from finvar.classical import ClassicalPipeline
from finvar.errors import ConfigError, DomainEvalError, ExpressionError, QuadratureError
from finvar.finsler import (BoxChart, DomainGeometry, FinslerStructure, PointState, TorusChart,
                            _values)
from finvar.maps import MapGeometry, PullbackSection, SmoothMap, VariationFamily
from finvar.riemann import RiemannStructure

TWO_PI = 2 * math.pi


def _torus_euclid():
    return FinslerStructure.euclidean(2, chart=TorusChart((1.0, 1.0)))


def test_unit_ball_volume_closed_forms():
    assert q.unit_ball_volume(1) == pytest.approx(2.0)
    assert q.unit_ball_volume(2) == pytest.approx(math.pi)
    assert q.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_euclidean_torus_volume():
    # normalized integral of 1 over the unit-ball bundle of the flat unit
    # torus is the torus area
    fs = _torus_euclid()
    est = q.integrate("y1*0 + 1", fs, q.QuadratureSpec(x_resolution=4, y_samples=2000, seed=3))
    assert abs(est.value - 1.0) <= max(4 * est.stderr, 1e-3)


def test_a_scalar_integrand_stands_for_its_value_at_every_sample():
    fs = _torus_euclid()
    spec = q.QuadratureSpec(x_resolution=2, y_samples=64, seed=3)
    full = q.integrate(lambda x, y: np.full(y.shape[1], 2.0), fs, spec)
    for fn in (lambda x, y: 2.0, "2", "x1*0 + 2"):
        est = q.integrate(fn, fs, spec)
        assert (est.value, est.stderr) == (full.value, full.stderr)


def test_riemannian_volume_matches_gauss_legendre():
    # for a quadratic F² the normalized bundle volume is the Riemannian
    # volume ∫ √det g dx, computed independently by Gauss–Legendre
    matrix = [["1 + x1^2/3", "0"], ["0", "1 + x2^2/4"]]
    box = BoxChart(((-1.0, 1.0), (-1.0, 1.0)))
    fs = FinslerStructure.riemannian(matrix, 2, chart=box)
    est = q.integrate(lambda x, y: np.ones(y.shape[1]), fs,
                      q.QuadratureSpec(x_resolution=6, y_samples=4000, seed=5))
    nodes, weights = np.polynomial.legendre.leggauss(32)
    vol = 0.0
    for xi, wi in zip(nodes, weights):
        for xj, wj in zip(nodes, weights):
            vol += wi * wj * math.sqrt((1 + xi ** 2 / 3) * (1 + xj ** 2 / 4))
    assert abs(est.value - vol) <= max(4 * est.stderr, 2e-3 * vol)


def test_identity_energy_equals_volume():
    # e(id) = n/2 = 1 pointwise for the flat torus, so E = volume
    fs = _torus_euclid()
    m = SmoothMap(["x1", "x2"], fs, RiemannStructure.euclidean(2))
    spec = q.QuadratureSpec(x_resolution=4, y_samples=2000, seed=7)
    e = q.energy(m, spec)
    v = q.integrate(lambda x, y: np.ones(y.shape[1]), fs, spec)
    assert e.value == pytest.approx(v.value, rel=1e-12)


def test_odd_integrand_averages_to_zero():
    fs = _torus_euclid()
    est = q.integrate("y1 + y1*y2", fs,
                      q.QuadratureSpec(x_resolution=4, y_samples=4000, seed=9))
    assert abs(est.value) <= 4 * est.stderr + 1e-12


def test_bienergy_cross_checks_classical_pipeline():
    # Riemannian domain and codomain: the bundle bienergy reduces to the
    # classical ½∫‖τ‖²√det g dx computed by the independent pipeline
    matrix = [["1 + x1^2/3", "0"], ["0", "1 + x2^2/4"]]
    box = BoxChart(((-0.8, 0.8), (-0.8, 0.8)))
    fs = FinslerStructure.riemannian(matrix, 2, chart=box)
    codomain = [["2 + sin(x1)/3", "0"], ["0", "2 + x2^2/5"]]
    rs = RiemannStructure.custom(codomain, 2)
    map_src = ["x1/2 + x2^2/5", "x2/2 - x1^2/5"]
    m = SmoothMap(map_src, fs, rs)
    est = q.bienergy(m, q.QuadratureSpec(x_resolution=8, y_samples=4000, seed=11))
    coords = ["x1", "x2"]
    cp = ClassicalPipeline(
        [[ex.parse(e_, coords) for e_ in row] for row in matrix],
        [[ex.parse(e_, coords) for e_ in row] for row in codomain],
        [ex.parse(s, coords) for s in map_src], 2, 2)
    expected = cp.bienergy(box.bounds, resolution=24)
    assert abs(est.value - expected) <= max(4 * est.stderr, 5e-3 * abs(expected))


def test_stderr_scales_like_inverse_sqrt_samples():
    fs = _torus_euclid()
    counts = [250, 1000, 4000]
    errs = [q.integrate("y1^2 + x1*0", fs,
                        q.QuadratureSpec(x_resolution=3, y_samples=c, seed=13)).stderr
            for c in counts]
    slope = np.polyfit(np.log(counts), np.log(errs), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_bitwise_reproducibility_across_runs_and_workers():
    fs = _torus_euclid()
    m = SmoothMap([f"x1 + 0.1*sin(x1*{TWO_PI!r})", "x2"], fs,
                  RiemannStructure.euclidean(2))
    a = q.energy(m, q.QuadratureSpec(x_resolution=4, y_samples=500, seed=17))
    b = q.energy(m, q.QuadratureSpec(x_resolution=4, y_samples=500, seed=17))
    c = q.energy(m, q.QuadratureSpec(x_resolution=4, y_samples=500, seed=17, workers=3))
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value == c.value and a.stderr == c.stderr
    # and a different seed genuinely changes the estimate
    d = q.energy(m, q.QuadratureSpec(x_resolution=4, y_samples=500, seed=18))
    assert d.value != a.value


def test_acceptance_rate_guard():
    # extreme anisotropy: the euclidean bounding ball almost never lands in
    # the unit ball of F
    fs = FinslerStructure.riemannian([["1", "0"], ["0", "1000000"]], 2)
    with pytest.raises(QuadratureError):
        q.integrate("y1*0 + 1", fs, q.QuadratureSpec(x_resolution=2, y_samples=500, seed=1))


def test_spec_validation():
    with pytest.raises(ConfigError):
        q.QuadratureSpec(x_resolution=1)
    with pytest.raises(ConfigError):
        q.QuadratureSpec(y_samples=1)
    with pytest.raises(ConfigError):
        q.QuadratureSpec(workers=0)
    for seed in (-1, 2 ** 32):
        with pytest.raises(ConfigError):
            q.QuadratureSpec(seed=seed)


def test_first_variation_check_flat_family():
    # flat codomain, common random numbers: the central difference of E₂ must
    # match ∫⟨τ₂, V⟩ far below the Monte Carlo noise level
    fs = _torus_euclid()
    rs = RiemannStructure.euclidean(2)
    base = SmoothMap(["x1", "x2"], fs, rs)
    fam = VariationFamily(
        [f"x1 + eps1*sin(x1*{TWO_PI!r})", f"x2 + eps1*0.5*cos(x2*{TWO_PI!r})"],
        fs, rs, base=base)
    chk = q.first_variation_check(fam, q.QuadratureSpec(x_resolution=4, y_samples=300, seed=19),
                                  h=1e-3)
    assert chk.gap <= max(1e-6 * max(1.0, abs(chk.fd)), 3 * chk.stderr)


def test_first_variation_check_sphere_codomain():
    fs = _torus_euclid()
    rs = RiemannStructure.sphere(2, 1.0)
    base = SmoothMap([f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"], fs, rs)
    fam = VariationFamily(
        [f"0.8 + 0.2*cos(x1*{TWO_PI!r}) + eps1*sin(x1*{TWO_PI!r})",
         f"0.3*sin(x2*{TWO_PI!r}) + eps1*0.4*cos(x2*{TWO_PI!r})"],
        fs, rs, base=base)
    chk = q.first_variation_check(fam, q.QuadratureSpec(x_resolution=6, y_samples=300, seed=23),
                                  h=1e-4, richardson=True)
    assert chk.gap <= max(1e-3 * max(1.0, abs(chk.fd)), 3 * chk.stderr)


def test_second_variation_check_flat_family():
    fs = _torus_euclid()
    rs = RiemannStructure.euclidean(2)
    ident = SmoothMap(["x1", "x2"], fs, rs)
    fam = VariationFamily(
        [f"x1 + (eps1 + eps2)*sin(x1*{TWO_PI!r})",
         f"x2 + (eps1 - eps2)*sin(x2*{TWO_PI!r})"],
        fs, rs, base=ident)
    chk = q.second_variation_check(fam, q.QuadratureSpec(x_resolution=4, y_samples=200, seed=11),
                                   h=1e-3)
    assert chk.gap <= 1e-4 * max(1.0, abs(chk.fd))
    assert chk.extras["symmetry_gap"] <= 1e-10 * max(1.0, abs(chk.analytic))


def test_second_variation_requires_biharmonic_base():
    fs = _torus_euclid()
    rs = RiemannStructure.sphere(2, 1.0)
    base = SmoothMap([f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"], fs, rs)
    fam = VariationFamily(
        [f"0.8 + 0.2*cos(x1*{TWO_PI!r}) + eps1*sin(x1*{TWO_PI!r})",
         f"0.3*sin(x2*{TWO_PI!r}) + eps2*cos(x2*{TWO_PI!r})"],
        fs, rs, base=base)
    with pytest.raises(ConfigError):
        q.second_variation_check(fam, q.QuadratureSpec(x_resolution=3, y_samples=100, seed=2))


def test_self_adjointness_and_positivity():
    fs = _torus_euclid()
    rs = RiemannStructure.sphere(2, 1.0)
    m = SmoothMap([f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"], fs, rs)
    X = PullbackSection([f"sin(x1*{TWO_PI!r})", f"cos(x2*{TWO_PI!r})"])
    Y = PullbackSection([f"cos(x1*{TWO_PI!r})", f"0.5*sin(x2*{TWO_PI!r})"])
    out = q.self_adjointness_check(m, X, Y,
                                   q.QuadratureSpec(x_resolution=6, y_samples=400, seed=29))
    scale = max(1.0, abs(out["laplacian_xy"]), abs(out["jacobi_xy"]))
    assert out["laplacian_gap"] <= 3 * out["stderr"] + 1e-6 * scale
    assert out["jacobi_gap"] <= 3 * out["stderr"] + 1e-6 * scale
    assert out["positivity"] >= -3 * out["stderr"]


def test_divergence_theorem_on_the_torus():
    fs = _torus_euclid()
    X = [f"sin(x1*{TWO_PI!r})", f"cos(x2*{TWO_PI!r})"]
    out = q.divergence_theorem_check(
        fs, X, q.QuadratureSpec(x_resolution=6, y_samples=400, seed=31),
        f=f"sin(x1*{TWO_PI!r})*cos(x2*{TWO_PI!r})")
    assert abs(out["divergence_integral"]) <= 3 * out["divergence_stderr"] + 1e-10
    assert abs(out["laplacian_integral"]) <= 3 * out["laplacian_stderr"] + 1e-10


def test_randers_divergence_theorem():
    # the torsion-trace correction in div X is exactly what keeps the
    # integral of a divergence at zero for a genuinely non-Riemannian F
    fs = FinslerStructure.randers(
        [["1", "0"], ["0", "1"]],
        [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"],
        2, chart=TorusChart((1.0, 1.0)))
    X = [f"cos(x1*{TWO_PI!r})", f"sin(x2*{TWO_PI!r})"]
    out = q.divergence_theorem_check(
        fs, X, q.QuadratureSpec(x_resolution=8, y_samples=600, seed=37))
    assert abs(out["divergence_integral"]) <= 3 * out["divergence_stderr"] + 1e-8


# --- one assembly pass per check: every row equals its stand-alone integral ---------------

def _sphere_family():
    fs = _torus_euclid()
    rs = RiemannStructure.sphere(2, 1.0)
    base = SmoothMap([f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"], fs, rs)
    return VariationFamily(
        [f"0.8 + 0.2*cos(x1*{TWO_PI!r}) + eps1*sin(x1*{TWO_PI!r})",
         f"0.3*sin(x2*{TWO_PI!r}) + eps1*0.4*cos(x2*{TWO_PI!r})"],
        fs, rs, base=base)


def test_first_variation_pass_equals_separate_integrals():
    fam = _sphere_family()
    spec = q.QuadratureSpec(x_resolution=3, y_samples=64, seed=41)
    h = 1e-3
    chk = q.first_variation_check(fam, spec, h=h)
    fd = (q.bienergy(fam.map_at(h), spec).value
          - q.bienergy(fam.map_at(-h), spec).value) / (2 * h)
    assert chk.fd == fd
    v_asts = fam.deviation_field(1)

    def tau2_v(geom):
        mg = MapGeometry(fam.base, geom)
        V = [jt.eval_ast(a, geom.env) for a in v_asts]
        return [_values(mg.inner(mg.bitension, V))]

    (est,) = q._assemble(tau2_v, fam.base.fs, spec, 6)
    assert chk.analytic == est.value
    assert chk.stderr == est.stderr


def test_second_variation_pass_equals_hessian_forms():
    fs = _torus_euclid()
    rs = RiemannStructure.sphere(2, 1.0)
    base = SmoothMap(["x1*0 + 0.4", "x1*0 - 0.2"], fs, rs)
    fam = VariationFamily(
        [f"0.4 + eps1*sin(x1*{TWO_PI!r}) + 0.3*eps2*cos(x2*{TWO_PI!r})",
         f"-0.2 + eps2*sin(x2*{TWO_PI!r}) + 0.2*eps1*cos(x1*{TWO_PI!r})"],
        fs, rs, base=base)
    spec = q.QuadratureSpec(x_resolution=2, y_samples=16, seed=43)
    chk = q.second_variation_check(fam, spec)
    V1 = PullbackSection(fam.deviation_field(1))
    V2 = PullbackSection(fam.deviation_field(2))
    assert chk.analytic == q.hessian_form(base, V1, V2, spec).value
    assert chk.extras["h21"] == q.hessian_form(base, V2, V1, spec).value


def test_divergence_row_is_independent_of_the_laplacian_row():
    fs = _torus_euclid()
    X = [f"sin(x1*{TWO_PI!r})", f"cos(x2*{TWO_PI!r})"]
    spec = q.QuadratureSpec(x_resolution=3, y_samples=64, seed=47)
    alone = q.divergence_theorem_check(fs, X, spec)
    both = q.divergence_theorem_check(fs, X, spec, f=f"sin(x1*{TWO_PI!r})*cos(x2*{TWO_PI!r})")
    assert alone["divergence_integral"] == both["divergence_integral"]
    assert alone["divergence_stderr"] == both["divergence_stderr"]
    assert "laplacian_integral" in both and "laplacian_integral" not in alone


def test_self_adjointness_is_identical_across_worker_counts():
    m = _sphere_family().base
    X = PullbackSection([f"sin(x1*{TWO_PI!r})", f"cos(x2*{TWO_PI!r})"])
    Y = PullbackSection([f"cos(x1*{TWO_PI!r})", f"0.5*sin(x2*{TWO_PI!r})"])
    one = q.self_adjointness_check(m, X, Y, q.QuadratureSpec(x_resolution=3, y_samples=64,
                                                             seed=53))
    three = q.self_adjointness_check(m, X, Y, q.QuadratureSpec(x_resolution=3, y_samples=64,
                                                               seed=53, workers=3))
    assert one == three


def _shared_outputs(x_resolution, workers):
    """Value and stderr of every integral and check, on small specs."""
    fs = _torus_euclid()
    fam = _sphere_family()
    spec = q.QuadratureSpec(x_resolution=x_resolution, y_samples=16, seed=59,
                            workers=workers)
    ests = [q.energy(fam.base, spec), q.bienergy(fam.base, spec),
            q.integrate("y1*y2 + sin(x1)", fs, spec),
            q.integrate(lambda x, y: np.cos(x[0]) * y[0] ** 2, fs, spec)]
    out = [v for e in ests for v in (e.value, e.stderr)]
    first = q.first_variation_check(fam, spec)
    base = SmoothMap(["x1*0 + 0.4", "x1*0 - 0.2"], fs, fam.base.rs)
    flat_fam = VariationFamily(
        [f"0.4 + eps1*sin(x1*{TWO_PI!r}) + 0.3*eps2*cos(x2*{TWO_PI!r})",
         f"-0.2 + eps2*sin(x2*{TWO_PI!r}) + 0.2*eps1*cos(x1*{TWO_PI!r})"],
        fs, fam.base.rs, base=base)
    second = q.second_variation_check(flat_fam, spec)
    out += [first.fd, first.analytic, first.stderr, second.fd, second.analytic,
            second.stderr, second.extras["h21"]]
    div = q.divergence_theorem_check(fs, [f"sin(x1*{TWO_PI!r})", f"cos(x2*{TWO_PI!r})"],
                                     spec, f=f"sin(x1*{TWO_PI!r})*y1")
    return out + list(div.values())


def test_node_sharing_is_bitwise_identical_for_any_worker_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)     # 3 and 7 strides on any machine
    one = _shared_outputs(3, 1)
    for workers in (2, 3):
        assert _shared_outputs(3, workers) == one, workers
    # more workers than nodes
    assert _shared_outputs(2, 7) == _shared_outputs(2, 1)


def _failing_integral(failing_nodes, workers):
    """integrate() whose callable raises at the given node indices (3x3 nodes)."""
    def fn(x, y):
        node = 3 * round(3 * x[0]) + round(3 * x[1])
        if node in failing_nodes:
            raise DomainEvalError(f"integrand left its domain at node {node}")
        return np.ones(y.shape[1])

    spec = q.QuadratureSpec(x_resolution=3, y_samples=16, seed=61, workers=workers)
    with pytest.raises(Exception) as info:
        q.integrate(fn, _torus_euclid(), spec)
    return type(info.value), str(info.value)


def _no_children_and_fds():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return sorted(os.listdir("/proc/self/fd"))


def test_a_failing_node_raises_what_a_serial_loop_raises(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)     # 3 strides on any machine
    fds = _no_children_and_fds()
    # node 1 is outside stride 0 at two workers; of nodes 3 (a child's) and
    # 4 (the caller's), and of nodes 2 and 5, the lower index wins
    for failing in ({1}, {3, 4}, {2, 5}):
        serial = _failing_integral(failing, 1)
        assert serial[0] is DomainEvalError
        assert serial[1].endswith(f"node {min(failing)}")
        for workers in (2, 3):
            assert _failing_integral(failing, workers) == serial, (failing, workers)
        assert _no_children_and_fds() == fds
    q.integrate("y1*0 + 1", _torus_euclid(), q.QuadratureSpec(x_resolution=3, y_samples=16,
                                                              workers=3))
    assert _no_children_and_fds() == fds


def test_strides_are_capped_at_the_cpu_count(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    fds = _no_children_and_fds()
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tasks = list(range(9))

    def squares(part):
        return [t * t for t in part], None

    assert q._fork_strides(squares, tasks, 10 ** 9) == [t * t for t in tasks]
    assert len(forks) == 1
    # an unknown CPU count runs the nodes in the caller
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert q._fork_strides(squares, tasks, 4) == [t * t for t in tasks]
    assert len(forks) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    m = _sphere_family().base
    spec = q.QuadratureSpec(x_resolution=2, y_samples=16, seed=3)
    huge = q.energy(m, q.QuadratureSpec(x_resolution=2, y_samples=16, seed=3,
                                        workers=10 ** 9))
    assert len(forks) == 2
    serial = q.energy(m, spec)
    assert (huge.value, huge.stderr) == (serial.value, serial.stderr)
    assert _no_children_and_fds() == fds


# --- section and field lengths, and one parse per section source ---------------------------

_P = PointState([0.3, 0.6], [0.8, -0.6])
_SPEC = q.QuadratureSpec(x_resolution=2, y_samples=16, seed=1, workers=1)

# entries where a pullback section (S) or a domain vector field (X) comes in
LENGTH_ENTRIES = {
    "pullback_cov_deriv": lambda m, S: maps.pullback_cov_deriv(m, PullbackSection(S), 0, _P),
    "rough_laplacian": lambda m, S: maps.rough_laplacian(m, PullbackSection(S), _P),
    "jacobi_apply": lambda m, S: maps.jacobi_apply(m, PullbackSection(S), _P),
    "hessian_form": lambda m, S: q.hessian_form(m, PullbackSection(S), PullbackSection(S), _SPEC),
    "divergence": lambda m, X: fi.divergence(m.fs, X, _P),
    "divergence_theorem_check": lambda m, X: q.divergence_theorem_check(m.fs, X, _SPEC),
}


@pytest.mark.parametrize("components", [["sin(x1)"], ["sin(x1)", "cos(x2)", "x1*x2"]],
                         ids=["too-few", "too-many"])
@pytest.mark.parametrize("entry", sorted(LENGTH_ENTRIES))
def test_a_section_or_field_of_the_wrong_length_is_a_config_error(entry, components):
    # S² codomain and a 2-dimensional domain: both want 2 components
    m = SmoothMap([f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"],
                  _torus_euclid(), RiemannStructure.sphere(2, 1.0))
    with pytest.raises(ConfigError, match=f"expected 2 .*components, got {len(components)}$"):
        LENGTH_ENTRIES[entry](m, components)


def test_a_section_parses_each_source_once(monkeypatch):
    fs = _torus_euclid()
    m = SmoothMap([f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"], fs,
                  RiemannStructure.sphere(2, 1.0))
    X = PullbackSection([f"sin(x1*{TWO_PI!r})", f"cos(x2*{TWO_PI!r})"])
    Y = PullbackSection([f"cos(x1*{TWO_PI!r})", f"0.5*sin(x2*{TWO_PI!r}) + y1"])
    parse, parsed = ex.parse, []

    def counting(source, variables):
        if isinstance(source, str):
            parsed.append(source)
        return parse(source, variables)

    monkeypatch.setattr(ex, "parse", counting)
    q.self_adjointness_check(m, X, Y, q.QuadratureSpec(x_resolution=4, y_samples=64, seed=29,
                                                       workers=1))
    assert sorted(parsed) == sorted(X.raw + Y.raw)        # once each, not once per node
    # an undeclared name is still an ExpressionError, at every call
    bad = PullbackSection(["z", "x1"])
    mg = MapGeometry(m, DomainGeometry(fs, _P.x, _P.y, 4))
    for _ in range(2):
        with pytest.raises(ExpressionError, match="undeclared variable 'z'"):
            bad.jets(mg)
