"""Identity-map analysis of a perturbed Riemannian metric: agreement of the
three tension routes, the structural residual identities, the conserved-form
criterion, and the small-perturbation scaling of τ and τ₂."""

import numpy as np
import pytest

from finvar import identity as idn
from finvar.errors import ConfigError, DomainEvalError
from finvar.finsler import BoxChart, PointState

BOX = BoxChart(((-1.0, 1.0), (-1.0, 1.0)))
EYE = [["1", "0"], ["0", "1"]]
GEN_BASE = [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"],
            ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]]
GEN_B = "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2) + 0.2*sin(x1)*y1^3*y2/(y1^2 + y2^2)"


def _generic_setup(scale=0.05):
    return idn.PerturbationSetup(GEN_BASE, GEN_B, 2, chart=BOX, scale=scale)


def _sample_points(count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        x = rng.uniform(-0.8, 0.8, size=2)
        y = rng.normal(size=2)
        y /= np.linalg.norm(y)
        y *= rng.uniform(0.7, 1.4)
        pts.append(PointState(x, y))
    return pts


def test_x_independent_perturbation_gives_zero_tension():
    # flat base with a constant-coefficient perturbation: nothing depends on
    # x, so all three tension routes must vanish identically
    setup = idn.PerturbationSetup(
        EYE, "0.2*y1^4/(y1^2 + y2^2)", 2, chart=BOX, scale=1.0)
    for p in _sample_points(4, 1):
        rep = idn.identity_tension(setup, p)
        assert np.max(np.abs(rep.tau_route_b)) < 1e-12
        assert np.max(np.abs(rep.tau_route_conn)) < 1e-12
        assert np.max(np.abs(rep.tau_route_general)) < 1e-12


def test_three_tension_routes_agree():
    setup = _generic_setup()
    for p in _sample_points(5, 2):
        rep = idn.identity_tension(setup, p)
        scale = max(1.0, float(np.max(np.abs(rep.tau_route_b))))
        assert rep.discrepancy_b_conn < 1e-10 * scale
        assert rep.discrepancy_b_general < 1e-10 * scale
        assert rep.discrepancy_conn_general < 1e-10 * scale


def test_structural_residuals_vanish():
    setup = _generic_setup()
    for p in _sample_points(4, 3):
        ig = idn.IdentityGeometry(setup, p.x, p.y, 6)
        assert np.max(np.abs(ig.eq33_residual())) < 1e-10
        assert np.max(np.abs(ig.spray_split_residual())) < 1e-10
        assert np.max(np.abs(ig.eq34_residual())) < 1e-9


def test_b_field_vanishes_for_riemannian_limit():
    setup = _generic_setup(scale=0.0)
    for p in _sample_points(3, 4):
        assert np.max(np.abs(idn.b_field(setup, p))) < 1e-12


def test_condition35_trivial_case():
    # constant-coefficient b over a flat base has F²_{||h} = 0, so a = 0
    # satisfies the conserved-form condition and predicts τ = 0, which the
    # actual tension confirms
    setup = idn.PerturbationSetup(
        EYE, "0.2*y1^4/(y1^2 + y2^2)", 2, chart=BOX, scale=1.0,
        a_sources=["0", "0"])
    p = _sample_points(1, 5)[0]
    residual, tau_pred = idn.condition35_residual(setup, p)
    assert np.max(np.abs(residual)) < 1e-12
    assert np.allclose(tau_pred, 0.0)
    rep = idn.identity_tension(setup, p)
    assert np.allclose(rep.tau_route_b, tau_pred, atol=1e-12)


def test_condition35_negative_control():
    # a generic perturbation with a nonzero candidate covector must leave a
    # visible residual
    setup = idn.PerturbationSetup(GEN_BASE, GEN_B, 2, chart=BOX, scale=0.05,
                                  a_sources=["0.1", "-0.05"])
    p = _sample_points(1, 6)[0]
    residual, _ = idn.condition35_residual(setup, p)
    assert np.max(np.abs(residual)) > 1e-3


def test_condition35_requires_covector():
    setup = _generic_setup()
    with pytest.raises(ConfigError):
        idn.condition35_residual(setup, _sample_points(1, 7)[0])


def test_scaling_affine_coefficients():
    # coefficients affine in x: ‖τ‖ ~ c while the leading O(c) and O(c²)
    # parts of τ₂ cancel, leaving ‖τ₂‖ ~ c³
    setup = idn.PerturbationSetup(
        EYE, "(x1 + 2*x2)*y1^4/(y1^2 + y2^2)", 2, chart=BOX)
    rep = idn.linearized_scaling(setup, n_points=6)
    assert 0.9 <= rep.slope_tau <= 1.1
    assert 2.8 <= rep.slope_tau2 <= 3.2


def test_scaling_quadratic_coefficients():
    # quadratic coefficients keep a surviving O(c²) bitension
    setup = idn.PerturbationSetup(
        EYE, "x1*x2*y1^4/(y1^2 + y2^2)", 2, chart=BOX)
    rep = idn.linearized_scaling(setup, n_points=6)
    assert 0.9 <= rep.slope_tau <= 1.1
    assert 1.8 <= rep.slope_tau2 <= 2.2


def test_scaling_cubic_coefficients():
    # cubic coefficients put the O(c) term back into τ₂
    setup = idn.PerturbationSetup(
        EYE, "x1^3*y1^4/(y1^2 + y2^2)", 2, chart=BOX)
    rep = idn.linearized_scaling(setup, n_points=6)
    assert 0.9 <= rep.slope_tau2 <= 1.1


def test_notation_note_is_reported():
    setup = _generic_setup()
    rep = idn.identity_tension(setup, _sample_points(1, 8)[0])
    assert "direction" in rep.notation_note


def test_a_zero_sup_norm_has_no_slope():
    setup = idn.PerturbationSetup(EYE, "0*y1^2", 2, chart=BOX)
    with pytest.raises(DomainEvalError, match="sup-norm is 0 at c = 0.01"):
        idn.linearized_scaling(setup, n_points=2)
