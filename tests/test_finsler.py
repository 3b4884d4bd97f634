"""Domain geometry: fundamental tensor, spray, connections, curvature,
divergence, horizontal Laplacian, geodesics.  Oracles are finite differences,
closed forms, and the independent Riemannian code path in `riemann`."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from finvar import expressions as ex
from finvar import finsler as fn
from finvar import riemann as rm
from finvar.errors import ChartError, ConfigError, DomainEvalError, ExpressionError

from helpers import fd_partial, random_expression, reference_validate

GEN_MATRIX = [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"],
              ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]]

RANDERS_ALPHA = [["1 + x2^2/5", "0"], ["0", "1 + x1^2/5"]]
RANDERS_BETA = ["x2/5", "sin(x1)/5"]


def _randers():
    return fn.FinslerStructure.randers(RANDERS_ALPHA, RANDERS_BETA, 2)


def test_euclidean_everything_is_trivial():
    fs = fn.FinslerStructure.euclidean(3)
    p = fn.PointState([0.2, -0.5, 0.7], [1.0, 0.4, -0.3])
    md = fn.metric(fs, p)
    assert np.allclose(md.g, np.eye(3))
    assert md.f2 == pytest.approx(1.0 + 0.16 + 0.09)
    cd = fn.connection(fs, p)
    for table in (cd.spray, cd.nonlinear, cd.chern_rund, cd.berwald,
                  cd.torsion, cd.torsion_trace, cd.bracket):
        assert np.allclose(table, 0.0)
    cv = fn.curvature(fs, p)
    assert np.allclose(cv.hh, 0.0)
    assert np.allclose(cv.hv, 0.0)


def test_metric_is_half_y_hessian_of_f2():
    fs = _randers()
    rng = np.random.default_rng(2)
    for _ in range(4):
        x = rng.uniform(-0.8, 0.8, size=2)
        y = rng.normal(size=2)
        y /= np.linalg.norm(y)
        g = fn.metric(fs, fn.PointState(x, y)).g

        def f2_of_y(yv):
            return fs.f2_value(x, yv)

        for i in range(2):
            for j in range(2):
                mu = [0, 0]
                mu[i] += 1
                mu[j] += 1
                fd = 0.5 * fd_partial(f2_of_y, list(y), tuple(mu), 1e-4)
                assert g[i][j] == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_euler_identity_and_homogeneity():
    fs = _randers()
    p = fn.PointState([0.3, -0.2], [0.8, -0.6])
    md = fn.metric(fs, p)
    assert p.y @ md.g @ p.y == pytest.approx(md.f2, rel=1e-12)
    # g is 0-homogeneous in y
    md2 = fn.metric(fs, fn.PointState(p.x, 3.0 * p.y))
    assert np.allclose(md.g, md2.g, rtol=1e-10)


def test_riemannian_reduction_matches_classical_tables():
    # with a quadratic F² the Chern–Rund symbols are the Levi-Civita symbols
    # of the base metric, the torsion vanishes, and the hh-curvature is the
    # Riemann tensor: all checked against the independent `riemann` path
    fs = fn.FinslerStructure.riemannian(GEN_MATRIX, 2)
    rs = rm.RiemannStructure.custom(GEN_MATRIX, 2)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.uniform(-0.8, 0.8, size=2)
        y = rng.normal(size=2)
        p = fn.PointState(x, y)
        md = fn.metric(fs, p)
        assert np.allclose(md.g, rm.metric_at(rs, x), atol=1e-12)
        cd = fn.connection(fs, p)
        gamma = rm.christoffel(rs, x)
        assert np.allclose(cd.chern_rund, gamma, atol=1e-10)
        assert np.allclose(cd.berwald, gamma, atol=1e-10)
        assert np.allclose(cd.torsion, 0.0, atol=1e-10)
        assert np.allclose(cd.torsion_trace, 0.0, atol=1e-10)
        # spray of a Riemannian metric: G^i = ½ Γ^i_jk y^j y^k
        expected_spray = 0.5 * np.einsum("ijk,j,k->i", gamma, y, y)
        assert np.allclose(cd.spray, expected_spray, atol=1e-10)
        cv = fn.curvature(fs, p)
        riem = rm.curvature(rs, x).riemann
        assert np.allclose(cv.hh, riem, atol=1e-8)
        assert np.allclose(cv.hv, 0.0, atol=1e-10)


def test_structural_identities_randers():
    fs = _randers()
    rng = np.random.default_rng(6)
    for _ in range(4):
        x = rng.uniform(-0.8, 0.8, size=2)
        y = rng.normal(size=2)
        p = fn.PointState(x, y)
        cd = fn.connection(fs, p)
        # homogeneity ladder: G^i_j y^j = 2 G^i and G^i_jk y^k = G^i_j
        assert np.allclose(cd.nonlinear @ y, 2.0 * cd.spray, atol=1e-10)
        assert np.allclose(np.einsum("ijk,k->ij", cd.berwald, y), cd.nonlinear,
                           atol=1e-10)
        # torsion is y-transverse: P^i_jk y^j = 0
        assert np.allclose(np.einsum("ijk,j->ik", cd.torsion, y), 0.0, atol=1e-9)
        # bracket antisymmetry
        assert np.allclose(cd.bracket, -np.swapaxes(cd.bracket, 1, 2), atol=1e-12)
        # the adapted derivative kills F²
        for i in range(2):
            assert fn.delta_derivative(fs, fs.f2_ast, p, i) == pytest.approx(0.0, abs=1e-10)


def test_horizontal_metricity():
    # δ_k g_ij = Γ^l_ik g_lj + Γ^l_jk g_il (Chern–Rund is h-metric)
    fs = _randers()
    p = fn.PointState([0.4, -0.3], [0.9, 0.5])
    geom = fn.DomainGeometry(fs, p.x, p.y, fn.ORDER_TABLE["connection"])
    g = np.array([[float(e.value) for e in row] for row in geom.g])
    gamma = np.array([[[float(geom.gamma[i][j][k].value) for k in range(2)]
                       for j in range(2)] for i in range(2)])
    for i in range(2):
        for j in range(2):
            for k in range(2):
                dg = float(geom.delta(geom.g[i][j], k).value)
                compat = sum(gamma[l][i][k] * g[l][j] + gamma[l][j][k] * g[i][l]
                             for l in range(2))
                assert dg == pytest.approx(compat, abs=1e-10)


def test_divergence_riemannian_closed_form():
    # for a quadratic F² the torsion trace vanishes and the engine divergence
    # must agree with (1/√det g) ∂_i(√det g X^i), computed from exact ASTs
    fs = fn.FinslerStructure.riemannian(GEN_MATRIX, 2)
    coords = ["x1", "x2"]
    X_src = ["sin(x1) + x2^2/3", "x1*x2 - cos(x2)"]
    mat_asts = [[ex.parse(e, coords) for e in row] for row in GEN_MATRIX]
    det_ast = ex.BinOp("-", ex.BinOp("*", mat_asts[0][0], mat_asts[1][1]),
                       ex.BinOp("*", mat_asts[0][1], mat_asts[1][0]))
    sqrt_det = ex.Func("sqrt", det_ast)
    flux = [ex.BinOp("*", sqrt_det, ex.parse(s, coords)) for s in X_src]
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = rng.uniform(-0.8, 0.8, size=2)
        env = {coords[i]: x[i] for i in range(2)}
        expected = sum(ex.evaluate(ex.differentiate(flux[i], coords[i]), env)
                       for i in range(2)) / ex.evaluate(sqrt_det, env)
        got = fn.divergence(fs, X_src, fn.PointState(x, rng.normal(size=2)))
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-10)


def test_horizontal_laplacian_riemannian_reduction():
    # Laplace–Beltrami via the independent `riemann` Christoffel route
    fs = fn.FinslerStructure.riemannian(GEN_MATRIX, 2)
    rs = rm.RiemannStructure.custom(GEN_MATRIX, 2)
    coords = ["x1", "x2"]
    f_ast = ex.parse("sin(x1)*x2 + x1^2/2", coords)
    rng = np.random.default_rng(10)
    for _ in range(3):
        x = rng.uniform(-0.8, 0.8, size=2)
        env = {coords[i]: x[i] for i in range(2)}
        ginv = np.linalg.inv(rm.metric_at(rs, x))
        gamma = rm.christoffel(rs, x)
        df = [ex.evaluate(ex.differentiate(f_ast, c), env) for c in coords]
        d2f = [[ex.evaluate(ex.differentiate(ex.differentiate(f_ast, a), b), env)
                for b in coords] for a in coords]
        expected = -sum(ginv[i][j] * (d2f[i][j]
                                      - sum(gamma[k][i][j] * df[k] for k in range(2)))
                        for i in range(2) for j in range(2))
        got = fn.horizontal_laplacian(fs, f_ast, fn.PointState(x, rng.normal(size=2)))
        assert got == pytest.approx(expected, rel=1e-9)


def test_batched_fiber_evaluation_matches_loop():
    fs = _randers()
    x = np.array([0.3, -0.4])
    ys = np.random.default_rng(12).normal(size=(2, 5))
    geom = fn.DomainGeometry(fs, x, ys, fn.ORDER_TABLE["connection"])
    batched_gamma = np.array(
        [[[np.asarray(geom.gamma[i][j][k].value) for k in range(2)]
          for j in range(2)] for i in range(2)])
    for s in range(5):
        cd = fn.connection(fs, fn.PointState(x, ys[:, s]))
        assert np.allclose(batched_gamma[..., s], cd.chern_rund, atol=1e-12)


def test_geodesics_conserve_speed_and_euclidean_lines():
    fs_e = fn.FinslerStructure.euclidean(2)
    p0 = fn.PointState([0.0, 0.0], [0.3, 0.1])
    path = fn.integrate_geodesic(fs_e, p0, steps=50, h=0.02)
    assert np.allclose(path[-1][:2], [0.3, 0.1], atol=1e-12)

    fs = _randers()
    p0 = fn.PointState([0.1, -0.1], [0.5, 0.2])
    path = fn.integrate_geodesic(fs, p0, steps=40, h=0.01)
    speeds = [fs.f_value(s[:2], s[2:]) for s in path]
    assert np.ptp(speeds) < 1e-8 * speeds[0]


def test_arc_length_closed_forms():
    fs_e = fn.FinslerStructure.euclidean(
        2, chart=fn.BoxChart(((-2.0, 2.0), (-2.0, 2.0))))
    # Euclidean circle of radius 1/2
    length = fn.arc_length(fs_e, ["cos(t)/2", "sin(t)/2"], 0.0, 2 * np.pi)
    assert length == pytest.approx(np.pi, rel=1e-12)
    # flat Randers with constant drift: l(segment) = |AB| + b·(B − A),
    # which is direction dependent
    fsr = fn.FinslerStructure.randers([["1", "0"], ["0", "1"]], ["1/5", "0"], 2)
    fwd = fn.arc_length(fsr, ["t", "t/2"], 0.0, 1.0)
    back = fn.arc_length(fsr, ["1 - t", "(1 - t)/2"], 0.0, 1.0)
    seg = np.sqrt(1.25)
    assert fwd == pytest.approx(seg + 0.2, rel=1e-12)
    assert back == pytest.approx(seg - 0.2, rel=1e-12)


@pytest.mark.parametrize("curve", [["t"], ["t", "t/2", "t^2"]])
def test_arc_length_needs_one_curve_component_per_dimension(curve):
    fs = fn.FinslerStructure.euclidean(2, chart=fn.BoxChart(((-2.0, 2.0), (-2.0, 2.0))))
    with pytest.raises(ConfigError, match=f"expected 2 curve components, got {len(curve)}"):
        fn.arc_length(fs, curve, 0.0, 1.0)


def test_zero_section_floor_and_chart_violations():
    fs = fn.FinslerStructure.euclidean(2)
    with pytest.raises(ChartError):
        fn.PointState([0.0, 0.0], [1e-9, 0.0])
    with pytest.raises(ChartError):
        fn.metric(fs, fn.PointState([5.0, 0.0], [1.0, 0.0]))
    for y in ([float("nan"), 1.0], [float("inf"), 0.0]):
        with pytest.raises(ChartError):
            fn.metric(fs, fn.PointState([0.0, 0.0], y))


def test_invalid_structures_rejected():
    # the sampled checks are pinned in test_validation_outcomes_are_pinned
    with pytest.raises(ConfigError):
        fn.FinslerStructure.euclidean(1)
    with pytest.raises(ExpressionError):
        fn.FinslerStructure(2, ex.parse("y1^2 + y2^2 + z1", ["y1", "y2", "z1"]))


IDENTITY = [["1", "0"], ["0", "1"]]
BOX_2 = fn.BoxChart(((-2.0, 2.0), (-2.0, 2.0)))
S = fn.FinslerStructure


def _outcome(call):
    """None when `call` returns, else the class and message of what it raises."""
    try:
        call()
    except Exception as err:
        return type(err), str(err)
    return None


def _unvalidated(build):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(S, "_validate", lambda self: None)
        return build()


@pytest.mark.parametrize("build, expected", [
    (_randers, None),
    (lambda: S.riemannian(GEN_MATRIX, 2), None),
    (lambda: S.perturbed(GEN_MATRIX, "y1^2*y2^2/(y1^2 + y2^2)*sin(x1)", 2, scale=0.1), None),
    (lambda: S.custom("(y1^4 + y1^2*y2^2 + y2^4)^0.25", 2), None),
    (lambda: S.randers([["1", "0", "0"], ["0", "1 + x1^2/4", "0"], ["0", "0", "1"]],
                       ["x2/5", "0", "x1/4"], 3), None),
    (lambda: S.custom("y1^2 + y2^2", 2),
     "F is not positively 1-homogeneous in y"),
    (lambda: S.randers(IDENTITY, ["3/2", "0"], 2),
     "metric tensor not positive definite at sample "
     "x=[-0.60855926  0.01663426], y=[-0.81092242  0.45431154]"),
    # |b| = 0.9|x1| reaches 1 only for |x1| > 1.11, so an early sample passes
    (lambda: S.randers(IDENTITY, ["0.9*x1", "0"], 2, chart=BOX_2),
     "metric tensor not positive definite at sample "
     "x=[-1.59458084 -1.68494277], y=[ 1.32207409 -1.22368614]"),
    # 1-homogeneous and positive, but its indicatrix is not convex
    (lambda: S.custom("sqrt(y1^2 + y2^2) - 0.8*y1*y2/sqrt(y1^2 + y2^2)", 2),
     "metric tensor not positive definite at sample "
     "x=[-0.62071821  0.99974266], y=[ 0.59547348 -0.67293113]"),
    (lambda: S.perturbed(IDENTITY, "y1*y2", 2, scale=3.0),
     "F(x,y) not positive at sample "
     "x=[-0.62071821  0.99974266], y=[ 0.59547348 -0.67293113]"),
    # 3-homogeneous b, scaled so far down that F passes its 1e-10 check
    (lambda: S.perturbed(IDENTITY, "y1^2*y2", 2, scale=1e-13),
     "perturbation b is not 2-homogeneous in y"),
    (lambda: S.custom("sqrt(y1^2 + y2^2)*(1 + log(x1 + 1.5)/10)", 2, chart=BOX_2),
     (DomainEvalError, "log of a non-positive value")),
], ids=["randers", "riemannian", "perturbed", "custom", "randers-n3", "two-homogeneous",
        "randers-b-1.5", "randers-b-0.9x1", "non-convex", "negative-perturbation",
        "b-not-2-homogeneous", "evaluation-error"])
def test_validation_outcomes_are_pinned(build, expected):
    if isinstance(expected, str):
        expected = (ConfigError, expected)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(build) == expected
    fs = _unvalidated(build)
    with np.errstate(all="ignore"):
        assert _outcome(lambda: reference_validate(fs)) == expected


def test_an_evaluation_error_outranks_an_earlier_failed_check():
    # the one outcome that differs from the sample loop: F is 2-homogeneous,
    # so the loop stops at sample 0, before any x1 < -1.5 makes log raise
    fs = _unvalidated(lambda: S.custom(
        "(y1^2 + y2^2)*(1 + log(x1 + 1.5)/10)", 2, chart=BOX_2))
    with pytest.raises(ConfigError, match="not positively 1-homogeneous"):
        reference_validate(fs)
    with pytest.raises(DomainEvalError, match="log of a non-positive value"):
        fs._validate()


def _randers_like(seed, size):
    """Randers F = α + β on [-1, 1]²: α² from a matrix of random expressions
    with diagonal ≥ 0.5 and off-diagonal ≤ 0.2 (so α² > 0), β of magnitude
    `size`, large enough at the top of its range to break positivity of g."""
    rng = np.random.default_rng(seed)
    e = [random_expression(rng, ["x1", "x2"], depth=2) for _ in range(5)]
    c = ex.Const
    off = ex.BinOp("*", c(0.2), ex.Func("sin", e[2]))
    alpha = [[ex.BinOp("+", c(1.5), ex.Func("sin", e[0])), off],
             [off, ex.BinOp("+", c(1.5), ex.Func("cos", e[1]))]]
    beta = [ex.BinOp("*", c(size), ex.Func("sin", e[3])),
            ex.BinOp("*", c(size), ex.Func("cos", e[4]))]
    return S.randers(alpha, beta, 2)


@given(seed=st.integers(0, 2**32 - 1), size=st.floats(0.0, 1.5))
def test_batched_validation_matches_the_sample_loop(seed, size):
    fs = _unvalidated(lambda: _randers_like(seed, size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = _outcome(fs._validate)
    with np.errstate(all="ignore"):
        assert batched == _outcome(lambda: reference_validate(fs))


def test_validation_samples_are_drawn_once_per_box_and_read_only():
    box = ((0.0, 1.0), (-1.0, 2.0))
    x, y = fn._validation_samples(box, 2)
    again = fn._validation_samples(box, 2)
    assert again[0] is x and again[1] is y
    # the same seed, loop and order as `reference_validate`
    rng = np.random.default_rng(20240611)
    for k in range(64):
        xk = np.array([rng.uniform(lo, hi) for lo, hi in box])
        yk = rng.normal(size=2)
        yk *= rng.uniform(0.5, 2.0) / np.linalg.norm(yk)
        assert x[:, k].tobytes() == xk.tobytes() and y[:, k].tobytes() == yk.tobytes()
    for a in (x, y):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    # every structure still runs every check on the shared samples
    with pytest.raises(ConfigError, match="not positively 1-homogeneous"):
        S.custom("y1^2 + y2^2", 2, chart=fn.BoxChart(box))
    S.custom("sqrt(y1^2 + y2^2)", 2, chart=fn.BoxChart(box))
