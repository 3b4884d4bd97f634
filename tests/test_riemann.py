"""Codomain Riemannian geometry: Christoffel symbols, curvature wiring via the
Ricci identity, covariant derivative of curvature, and constant-curvature
model spaces."""

import numpy as np
import pytest

from finvar import expressions as ex
from finvar import riemann as rm
from finvar.errors import ConfigError, OrderLimitError, SingularMetricError


def _generic_metric(dim=2):
    """A smooth positive-definite 2x2 metric with no special symmetry."""
    coords = [f"x{i + 1}" for i in range(dim)]
    g11 = "2 + sin(x1)*cos(x2)/2"
    g12 = "x1*x2/4"
    g22 = "2 + exp(x1/3)/2 + x2^2/5"
    return rm.RiemannStructure(
        dim,
        [[ex.parse(g11, coords), ex.parse(g12, coords)],
         [ex.parse(g12, coords), ex.parse(g22, coords)]])


def _cov_deriv(rs, z_asts, x):
    """(D_c Z)^a = d_c Z^a + gamma^a_bc Z^b evaluated exactly at x."""
    n = rs.dim
    env = {rs.coords[i]: x[i] for i in range(n)}
    gamma = rm.christoffel(rs, x)
    z = np.array([ex.evaluate(z_asts[a], env) for a in range(n)])
    dz = np.array([[ex.evaluate(ex.differentiate(z_asts[a], rs.coords[c]), env)
                    for a in range(n)] for c in range(n)])
    return np.array([[dz[c][a] + sum(gamma[a][b][c] * z[b] for b in range(n))
                      for a in range(n)] for c in range(n)])


def test_euclidean_is_flat():
    rs = rm.RiemannStructure.euclidean(3)
    x = np.array([0.4, -0.2, 0.9])
    assert np.allclose(rm.christoffel(rs, x), 0.0)
    field = rm.curvature(rs, x)
    assert np.allclose(field.riemann, 0.0)
    assert np.allclose(field.nabla, 0.0)


def test_ricci_identity_fixes_curvature_wiring():
    # commuting two covariant derivatives of a vector field must reproduce
    # riem_apply; the second derivative is taken by finite differences of the
    # exact first covariant derivative
    rs = _generic_metric()
    n = rs.dim
    coords = list(rs.coords)
    z_asts = [ex.parse("sin(x1) + x2^2/3", coords), ex.parse("x1*x2 - cos(x2)", coords)]
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(-0.7, 0.7, size=n)
        env = {coords[i]: x[i] for i in range(n)}
        gamma = rm.christoffel(rs, x)
        riem = rm.curvature(rs, x).riemann
        z = np.array([ex.evaluate(z_asts[a], env) for a in range(n)])
        covd = _cov_deriv(rs, z_asts, x)

        def second(r, c):
            # (D_r D_c Z)^a = d_r (D_c Z)^a + gamma^a_hr (D_c Z)^h
            #                 - gamma^h_cr (D_h Z)^a
            up = x.copy(); up[r] += h
            dn = x.copy(); dn[r] -= h
            plain = (_cov_deriv(rs, z_asts, up)[c] - _cov_deriv(rs, z_asts, dn)[c]) / (2 * h)
            return np.array([plain[a]
                             + sum(gamma[a][hh][r] * covd[c][hh] for hh in range(n))
                             - sum(gamma[hh][c][r] * covd[hh][a] for hh in range(n))
                             for a in range(n)])

        for r in range(n):
            for c in range(n):
                commutator = second(r, c) - second(c, r)
                e_r = np.eye(n)[r]
                e_c = np.eye(n)[c]
                expected = np.array(rm.riem_apply(riem, e_r, e_c, z, n))
                assert np.allclose(commutator, expected, atol=5e-7), (r, c)


def test_sphere_sectional_curvature_is_inverse_radius_squared():
    rng = np.random.default_rng(3)
    for radius in (1.0, 2.0):
        rs = rm.RiemannStructure.sphere(2, radius=radius)
        for _ in range(4):
            x = rng.uniform(-0.8, 0.8, size=2)
            v = rng.uniform(-1, 1, size=2)
            w = rng.uniform(-1, 1, size=2)
            K = rm.sectional_curvature(rs, x, v, w)
            assert K == pytest.approx(1.0 / radius ** 2, rel=1e-9)


def test_hyperbolic_plane_has_curvature_minus_one():
    src = "4/(1 - x1^2 - x2^2)^2"
    rs = rm.RiemannStructure.custom([[src, "0"], ["0", src]], 2)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.uniform(-0.4, 0.4, size=2)
        K = rm.sectional_curvature(rs, x, [1.0, 0.3], [-0.2, 1.0])
        assert K == pytest.approx(-1.0, rel=1e-9)


def test_sphere_curvature_is_parallel():
    # round spheres are locally symmetric: nabla R = 0
    rs = rm.RiemannStructure.sphere(2, radius=1.5)
    field = rm.curvature(rs, [0.3, -0.6])
    scale = np.abs(field.riemann).max()
    assert np.abs(field.nabla).max() <= 1e-9 * max(1.0, scale)


def test_second_bianchi_identity():
    rs = _generic_metric()
    n = rs.dim
    rng = np.random.default_rng(11)
    for _ in range(4):
        x = rng.uniform(-0.7, 0.7, size=n)
        nabla = rm.curvature(rs, x).nabla
        for m in range(n):
            for b in range(n):
                for a in range(n):
                    for c in range(n):
                        for d in range(n):
                            cyc = (nabla[m][b][a][c][d]
                                   + nabla[c][b][a][d][m]
                                   + nabla[d][b][a][m][c])
                            assert abs(cyc) < 1e-10


def test_nabla_curvature_against_finite_differences():
    # plain FD of the curvature components plus the four Christoffel
    # corrections is an independent route to nabla R
    rs = _generic_metric()
    n = rs.dim
    x = np.array([0.35, -0.55])
    gamma = rm.christoffel(rs, x)
    field = rm.curvature(rs, x)
    h = 1e-5
    for m in range(n):
        up = x.copy(); up[m] += h
        dn = x.copy(); dn[m] -= h
        dR = (rm.curvature(rs, up).riemann - rm.curvature(rs, dn).riemann) / (2 * h)
        riem = field.riemann
        for b in range(n):
            for a in range(n):
                for c in range(n):
                    for d in range(n):
                        corr = sum(gamma[a][m][hh] * riem[b][hh][c][d]
                                   - gamma[hh][m][b] * riem[hh][a][c][d]
                                   - gamma[hh][m][c] * riem[b][a][hh][d]
                                   - gamma[hh][m][d] * riem[b][a][c][hh]
                                   for hh in range(n))
                        expected = dR[b][a][c][d] + corr
                        assert field.nabla[m][b][a][c][d] == pytest.approx(
                            expected, rel=1e-6, abs=1e-6)


def test_riem_apply_antisymmetry_in_operator_arguments():
    rs = _generic_metric()
    riem = rm.curvature(rs, [0.2, 0.5]).riemann
    rng = np.random.default_rng(13)
    u, w, z = rng.uniform(-1, 1, size=(3, 2))
    forward = np.array(rm.riem_apply(riem, u, w, z, 2))
    backward = np.array(rm.riem_apply(riem, w, u, z, 2))
    assert np.allclose(forward, -backward, atol=1e-12)


def test_partials_routes_agree():
    rs = _generic_metric()
    x = [0.25, -0.4]
    env = {rs.coords[i]: x[i] for i in range(2)}
    via_ast = rs.partials_at(env)
    via_jets = rs.partials_from_jets(x, 3)
    assert np.allclose(np.array(via_ast.d0, dtype=float), np.array(via_jets.d0, dtype=float))
    assert np.allclose(np.array(via_ast.d1, dtype=float), np.array(via_jets.d1, dtype=float),
                       atol=1e-12)
    assert np.allclose(np.array(via_ast.d2, dtype=float), np.array(via_jets.d2, dtype=float),
                       atol=1e-12)
    assert np.allclose(np.array(via_ast.d3, dtype=float), np.array(via_jets.d3, dtype=float),
                       atol=1e-11)


def test_custom_metric_must_be_symmetric():
    with pytest.raises(ConfigError):
        rm.RiemannStructure.custom([["1 + x2^2", "x1"], ["0", "1"]], 2)


def test_custom_metric_must_be_positive_definite():
    with pytest.raises(ConfigError):
        rm.RiemannStructure.custom([["x1", "0"], ["0", "1"]], 2)


def test_degenerate_plane_rejected():
    rs = rm.RiemannStructure.sphere(2)
    with pytest.raises(SingularMetricError):
        rm.sectional_curvature(rs, [0.1, 0.2], [1.0, 2.0], [2.0, 4.0])


def test_degenerate_plane_test_is_relative_to_the_metric_scale():
    # at radius 1e-4 and x = (0.3, 0.2) g = 2.4e-14·I, so the coordinate plane
    # has |v|²|w|² − ⟨v,w⟩² = 5.6e-28 and is not degenerate
    rs = rm.RiemannStructure.sphere(2, radius=1e-4)
    K = rm.sectional_curvature(rs, [0.3, 0.2], [1.0, 0.0], [0.0, 1.0])
    assert K == pytest.approx(1e8, rel=1e-7)
    with pytest.raises(SingularMetricError):
        rm.sectional_curvature(rs, [0.3, 0.2], [1.0, 2.0], [2.0, 4.0])


def test_sectional_curvature_reads_the_curvature_of_the_pointwise_route():
    # R from second partials equals `curvature`'s R (built from third) bit for bit
    rs = _generic_metric()
    x, v, w = [0.25, -0.4], np.array([1.0, 0.3]), np.array([-0.2, 1.0])
    g = rm.metric_at(rs, x)
    riem = rm.curvature(rs, x).riemann
    rvww = np.array(rm.riem_apply(riem, v, w, w, 2))
    denom = (v @ g @ v) * (w @ g @ w) - (v @ g @ w) ** 2
    assert rm.sectional_curvature(rs, x, v, w) == float((rvww @ g @ v) / denom)


def test_partial_tables_fill_each_level_on_first_read():
    rs = _generic_metric()
    x = [0.25, -0.4]
    via_ast = rs.partials_at({rs.coords[i]: x[i] for i in range(2)})
    via_jets = rs.partials_from_jets(x, 1)
    gamma, _ = rm.christoffel_table(via_ast)
    assert [k for k in ("d0", "d1", "d2", "d3") if k in vars(via_ast)] == ["d0", "d1"]
    assert np.allclose(np.array(gamma, dtype=float), rm.christoffel(rs, x), atol=1e-12)
    assert np.array(via_ast.d3, dtype=float).shape == (2, 2, 2, 2, 2)
    with pytest.raises(OrderLimitError):
        via_jets.d2


def test_a_table_builds_its_christoffel_derivatives_once(monkeypatch):
    # ∂γ and ∂(g⁻¹) are one member, shared by ∇R (read first) and R
    calls = []
    build = rm.dchristoffel_table
    monkeypatch.setattr(rm, "dchristoffel_table", lambda p: calls.append(p) or build(p))
    rs = _generic_metric()
    table = rs.partials_at({rs.coords[i]: x for i, x in enumerate([0.25, -0.4])})
    nabla, riem = table.nabla, table.riem
    assert calls == [table]
    assert table.riem is riem and table.nabla is nabla


def test_curvature_reads_the_members_of_the_pointwise_table():
    rs = _generic_metric()
    x = [0.25, -0.4]
    field = rm.curvature(rs, x)
    table = rs.partials_from_jets(x, 3)
    for got, member in ((field.riemann, table.riem), (field.nabla, table.nabla)):
        want = np.array(member, dtype=float)
        assert got.shape == want.shape
        assert [v.hex() for v in got.ravel()] == [v.hex() for v in want.ravel()]


# --- the shared derivative DAG against the unshared derive-and-walk path ---------

_GEN_B = "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2) + 0.2*sin(x1)*y1^3*y2/(y1^2 + y2^2)"


def _signed_zero_metric():
    """Hand-built entries whose signed-zero leaves must stay apart: equal as
    dataclasses (`Const(0.0) == Const(-0.0)`), different as float hex."""
    x1, x2 = ex.Var("x1"), ex.Var("x2")
    g11 = ex.BinOp("+", ex.BinOp("*", ex.Const(-0.0), x1),
                   ex.BinOp("+", ex.Const(2.0), ex.Func("sin", ex.BinOp("*", x1, x2))))
    g22 = ex.BinOp("+", ex.BinOp("*", ex.Const(0.0), x2),
                   ex.BinOp("/", ex.Const(3.0), ex.BinOp("+", ex.Const(1.5), ex.Pow(x1, 2.0))))
    return rm.RiemannStructure(2, [[g11, ex.Const(-0.0)], [ex.Const(0.0), g22]], label="zeros")


def _dag_structures():
    from finvar.identity import PerturbationSetup
    from finvar.finsler import BoxChart

    setup = PerturbationSetup(
        [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"], ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]],
        _GEN_B, 2, chart=BoxChart(((-1.0, 1.0), (-1.0, 1.0))), scale=0.05)
    return {"sphere2": rm.RiemannStructure.sphere(2), "sphere3": rm.RiemannStructure.sphere(3),
            "euclidean": rm.RiemannStructure.euclidean(2), "zeros": _signed_zero_metric(),
            "crit8-base": setup.base_structure}


def _phi_env(rs, batched):
    """φ-jets at one base point of a 2-D domain, in the x-only space at order 6."""
    from finvar import jets as jt

    names = ("x1", "x2")
    x1 = np.array([0.31, -0.2, 0.05]) if batched else np.asarray(0.31)
    env = jt.jet_space(names, 6).point_env({"x1": x1, "x2": np.asarray(-0.27)})
    comps = ["0.3 + 0.2*cos(x1)", "0.3*sin(x2) - 0.1*x1", "0.1*x1*x2 + 0.2"][:rs.dim]
    return {rs.coords[a]: jt.eval_ast(ex.parse(c, names), env) for a, c in enumerate(comps)}


def _hex(jet):
    return jet.order, jet.space.names, jet.c.shape, [float(v).hex() for v in jet.c.ravel()]


@pytest.mark.parametrize("batched", [False, True], ids=["batch-free", "batched"])
@pytest.mark.parametrize("name", ["sphere2", "sphere3", "euclidean", "zeros", "crit8-base"])
def test_partials_at_is_bit_identical_to_the_unshared_path(name, batched):
    import itertools

    from helpers import unshared_partials

    rs = _dag_structures()[name]
    env = _phi_env(rs, batched)
    table = rs.partials_at(env)
    for level in range(4):
        got = getattr(table, f"d{level}")
        for t, ref in unshared_partials(rs, env, level).items():
            entry = got
            for c in t:
                entry = entry[c]
            for a, b in itertools.product(range(rs.dim), repeat=2):
                assert _hex(entry[a][b]) == _hex(ref[a][b]), (level, t, a, b)


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "euclidean", "zeros", "crit8-base"])
def test_shared_derivative_asts_print_as_the_unshared_ones(name):
    import itertools

    from helpers import unshared_partial_ast

    rs = _dag_structures()[name]
    for k in range(4):
        for mu in itertools.combinations_with_replacement(range(rs.dim), k):
            for a, b in itertools.product(range(rs.dim), repeat=2):
                assert (ex.to_source(rs._partial_ast(a, b, mu))
                        == ex.to_source(unshared_partial_ast(rs, a, b, mu))), (mu, a, b)


def _dag_nodes(roots):
    """The distinct node objects reachable from `roots`, by identity."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, f) for f in ("left", "right", "base", "arg")
                         if hasattr(node, f))
    return seen


def test_each_distinct_node_of_the_sphere_table_is_evaluated_once(monkeypatch):
    import collections
    import itertools

    from finvar import jets as jt

    rs = rm.RiemannStructure.sphere(2)
    env = _phi_env(rs, batched=False)
    seen = collections.Counter()
    compute = jt.AstEvaluator._compute

    def counting(self, node):
        seen[id(node)] += 1
        return compute(self, node)

    monkeypatch.setattr(jt.AstEvaluator, "_compute", counting)
    table = rs.partials_at(env)
    table.d0, table.d1, table.d2
    roots = [rs._partial_ast(a, b, mu) for k in range(3)
             for mu in itertools.combinations_with_replacement(range(2), k)
             for a in range(2) for b in range(2)]
    nodes = _dag_nodes(roots)
    assert set(seen) == set(nodes) and set(seen.values()) == {1}
    # the 642 tree nodes of the 12 distinct entries collapse into far fewer shared ones
    tree_nodes = sum(_tree_size(r) for r in {id(r): r for r in roots}.values())
    assert len(nodes) < tree_nodes // 4, (len(nodes), tree_nodes)


def _tree_size(node):
    return 1 + sum(_tree_size(getattr(node, f)) for f in ("left", "right", "base", "arg")
                   if hasattr(node, f))
