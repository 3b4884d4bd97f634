"""Terms cut to the order their sum keeps, and geometry views at a lower order.

`Jet.truncated` is a view of a jet's graded prefix of rows. The map
operators cut a term's factor to the order its sum keeps before the
products (J's curvature trace, `cov_deriv`'s connection term,
`horizontal_trace`'s Γ·B and P·B, the Hessian integrand's R̃ and ∇R̃
terms), and `DomainGeometry.at_order` shares a geometry's members with a
lower-order view. Both must give the same bits as the uncut computation:
the reference loops of `tests/helpers.py` and a fresh geometry of the
lower order. A product-order counter checks that no product inside a cut
term runs above its sum's order.
"""

import numpy as np
import pytest

from finvar import jets as jt
from finvar.errors import OrderLimitError
from finvar.maps import MapGeometry, PullbackSection
from finvar.riemann import RiemannStructure

from helpers import (BATCHES, DOMAINS, GEN_CODOMAIN, formula_geometry, formula_map,
                     reference_cov_deriv, reference_hessian_integrand,
                     reference_horizontal_trace, reference_jacobi)

MEMBERS = ("f2", "g", "ginv", "detg", "spray", "Gj", "Gjk", "gamma", "P", "P_i", "Rjk",
           "hh_curvature", "hv_curvature")
CODOMAINS = {"sphere": lambda: RiemannStructure.sphere(2, 1.0),
             "custom": lambda: RiemannStructure.custom(GEN_CODOMAIN, 2)}


def _rows(table):
    """(order, float hex of every coefficient) of each jet of a nested table."""
    if isinstance(table, jt.Jet):
        return [(table.order, [float(v).hex() for v in np.ravel(table.c)])]
    return [row for t in table for row in _rows(t)]


def _sections(fs):
    x, y = fs.xnames, fs.ynames
    return (PullbackSection([f"sin({x[0]}) + 0.3*{y[0]}*{y[1]}", f"cos({x[1]})*{y[0]}"]),
            PullbackSection([f"0.2*cos({x[1]})*{y[1]}", f"sin({x[0]})*{x[1]} + 0.1*{y[0]}"]))


# --- Jet.truncated ----------------------------------------------------------------------

def test_truncated_is_a_view_of_the_prefix_with_the_same_zero_flag():
    space = jt.jet_space(("x1", "y1"), 6)
    jet = (space.variable("x1", np.array([0.3, 0.5])) * space.variable("y1", 1.2)).sin()
    cut = jet.truncated(2)
    assert cut.order == 2 and cut.space is space and np.shares_memory(cut.c, jet.c)
    assert np.array_equal(cut.c, jet.c[:space.nrows[2]])
    assert jet.truncated(6) is jet and jet.truncated(9) is jet
    assert space.zeros(4, ()).truncated(1).zero and not cut.zero
    with pytest.raises(OrderLimitError):
        jet.truncated(-1)


# --- DomainGeometry.at_order --------------------------------------------------------------

def _member(geom, name):
    try:
        return _rows(getattr(geom, name))
    except OrderLimitError:
        return OrderLimitError


@pytest.mark.parametrize("order", [4, 2, 0])
@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_a_view_equals_a_fresh_geometry_of_its_order(domain, batch, order):
    full = formula_geometry(domain, batch, 6)
    for name in MEMBERS:
        getattr(full, name)
    view = full.at_order(order)
    shared = {4: set(MEMBERS) - {"detg"}, 2: {"f2", "g", "ginv", "spray"}, 0: {"f2"}}[order]
    assert set(vars(view)) - {"fs", "n", "order", "x", "y", "env"} == shared
    assert np.shares_memory(view.f2.c, full.f2.c)       # F² is not evaluated again
    fresh = formula_geometry(domain, batch, order)
    raised = 0
    for name in MEMBERS:
        got = _member(view, name)
        assert got == _member(fresh, name), name
        raised += got is OrderLimitError
    assert raised == {4: 0, 2: 8, 0: 12}[order]


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("domain", ["randers", "custom-n3"])
def test_a_view_computes_what_its_geometry_had_not(domain, batch):
    full = formula_geometry(domain, batch, 6)
    full.gamma
    view = full.at_order(4)
    assert "hh_curvature" not in vars(view) and "gamma" in vars(view)
    fresh = formula_geometry(domain, batch, 4)
    for name in MEMBERS:
        assert _member(view, name) == _member(fresh, name), name
    assert "hh_curvature" not in vars(full)


def test_a_view_keeps_the_orders_it_can_have():
    geom = formula_geometry("randers", "batch-free", 4)
    assert geom.at_order(4) is geom
    with pytest.raises(ValueError):
        geom.at_order(5)
    with pytest.raises(ValueError):
        geom.at_order(-1)


# --- the cut operators against the uncut reference loops ----------------------------------

@pytest.mark.parametrize("codomain", sorted(CODOMAINS))
@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_cut_operators_match_the_uncut_reference_loops(domain, batch, codomain):
    geom = formula_geometry(domain, batch, 6)
    mg = MapGeometry(formula_map(geom.fs, CODOMAINS[codomain]()), geom)
    n, m = mg.n, mg.m
    V1, V2 = (V.jets(mg) for V in _sections(geom.fs))
    for S in (V1, mg.tension):
        for i in range(n):
            assert _rows(mg.cov_deriv(S, i)) == _rows(reference_cov_deriv(mg, S, i))
        DS = [mg.cov_deriv(S, j) for j in range(n)]
        DDS = [[mg.cov_deriv(DS[j], i) for j in range(n)] for i in range(n)]
        for a in range(m):
            A = [[DDS[i][j][a] for j in range(n)] for i in range(n)]
            B = [DS[k][a] for k in range(n)]
            assert _rows(geom.horizontal_trace(A, B)) == _rows(reference_horizontal_trace(geom, A, B))
        assert _rows(mg.jacobi(S)) == _rows(reference_jacobi(mg, S))
    assert _rows(mg.bitension) == _rows(reference_jacobi(mg, mg.tension))
    assert [float(v).hex() for v in np.ravel(mg.hessian_integrand(V1, V2))] == \
        [float(v).hex() for v in np.ravel(reference_hessian_integrand(mg, V1, V2).value)]


# --- no product above its sum's order -------------------------------------------------------

class _ProductOrders:
    """Records the order of every jet × jet product while `on`."""

    def __init__(self, monkeypatch):
        self.on, self.orders = False, []
        mul = jt.Jet.__mul__

        def counted(a, b):
            out = mul(a, b)
            if self.on and isinstance(b, jt.Jet):
                self.orders.append(out.order)
            return out

        monkeypatch.setattr(jt.Jet, "__mul__", counted)
        monkeypatch.setattr(jt.Jet, "__rmul__", counted)

    def during(self, fn, *args):
        self.on, self.orders = True, []
        try:
            return fn(*args)
        finally:
            self.on = False


def _map_geometry(domain):
    geom = formula_geometry(domain, "batched", 6)
    mg = MapGeometry(formula_map(geom.fs, RiemannStructure.sphere(2, 1.0)), geom)
    mg.tension, mg.codomain.gamma, mg.codomain.riem, mg.codomain.nabla, geom.P_i   # not counted
    return mg, [V.jets(mg) for V in _sections(geom.fs)]


@pytest.mark.parametrize("domain", ["randers", "custom-n3"])
def test_no_product_of_a_cut_term_runs_above_its_sums_order(domain, monkeypatch):
    products = _ProductOrders(monkeypatch)
    mg, (V1, V2) = _map_geometry(domain)
    n, tau = mg.n, mg.tension

    # cov_deriv: the connection term at the order of δ_i S, below dφ's and S's
    for S in (V1, tau):
        out = products.during(mg.cov_deriv, S, 0)
        assert max(products.orders) == jt.least_order(out) < jt.least_order(S, mg.dphi)

    # horizontal_trace: Γ·B and P·B (and g^{ij}T_ij) at the order of T, below B's
    DS = [mg.cov_deriv(tau, j) for j in range(n)]
    DDS = [[mg.cov_deriv(DS[j], i) for j in range(n)] for i in range(n)]
    A, B = [[DDS[i][j][0] for j in range(n)] for i in range(n)], [DS[k][0] for k in range(n)]
    out = products.during(mg.geom.horizontal_trace, A, B)
    assert max(products.orders) == out.order == 0 < jt.least_order(B)

    # J: the curvature trace at the order of Δ^{dφ}S, below S's
    trace, trace_orders = mg.curvature_trace, []

    def counted_trace(S):
        result = products.during(trace, S)
        trace_orders.extend(products.orders)
        return result

    monkeypatch.setattr(mg, "curvature_trace", counted_trace)
    for S in (V1, tau):
        trace_orders.clear()
        out = mg.jacobi(S)
        assert max(trace_orders) == jt.least_order(out) < jt.least_order(S)


@pytest.mark.parametrize("domain", ["randers", "custom-n3"])
def test_no_product_of_the_hessian_terms_runs_above_the_order_of_jjv2(domain, monkeypatch):
    # every product outside J²V₂: the R̃ and ∇R̃ terms, Dτ, DV₂ and ⟨V₁, ·⟩
    products = _ProductOrders(monkeypatch)
    mg, (V1, V2) = _map_geometry(domain)
    jacobi = mg.jacobi

    def uncounted(S):
        products.on = False
        try:
            return jacobi(S)
        finally:
            products.on = True

    monkeypatch.setattr(mg, "jacobi", uncounted)
    products.during(mg.hessian_integrand, V1, V2)
    assert len(products.orders) > 100 and max(products.orders) == 0
