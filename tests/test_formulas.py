"""One owner per geometric formula: the domain's Chern–Rund Γ and hh
curvature (`riemann.levi_civita`, `riemann.curvature_table`) and the one
horizontal trace behind Δf, τ and Δ^{dφ} (`DomainGeometry.horizontal_trace`)
against the expanded loops of `tests/helpers.py`. Nonzero entries must match
as float hex; zeros match by value, because the reference Δ^{dφ} negates each
term where the engine negates the sum, which may flip the sign of an exact
zero."""

import numpy as np
import pytest

from finvar.finsler import _field_jet, _values
from finvar.maps import MapGeometry, PullbackSection
from finvar.riemann import RiemannStructure

from helpers import (BATCHES, DOMAINS, GEN_CODOMAIN, formula_geometry, formula_map,
                     reference_chern_rund, reference_horizontal_laplacian,
                     reference_hh_curvature, reference_rough_laplacian, reference_tension)


def _bits(table):
    """Float hex of every entry, with each zero as the number 0."""
    return [0.0 if v == 0 else float(v).hex() for v in np.ravel(_values(table))]


def _hex(table):
    """Float hex of every entry, the sign of a zero included."""
    return [float(v).hex() for v in np.ravel(_values(table))]


def _geometry(domain, batch):
    return formula_geometry(domain, batch, 6)


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_domain_tables_and_laplacian_match_the_expanded_loops(domain, batch):
    geom = _geometry(domain, batch)
    fs = geom.fs
    assert _bits(geom.gamma) == _bits(reference_chern_rund(geom))
    assert _bits(geom.hh_curvature) == _bits(reference_hh_curvature(geom))
    f = f"sin({fs.xnames[0]})*{fs.ynames[1]}^2/({fs.ynames[0]}^2 + {fs.ynames[1]}^2)" \
        f" + cos({fs.xnames[1]})*{fs.ynames[0]}"
    fj = _field_jet(fs, f, geom)
    assert _bits(geom.horizontal_laplacian_of(fj)) == _bits(reference_horizontal_laplacian(geom, fj))


@pytest.mark.parametrize("codomain", ["sphere", "custom"])
@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_tension_and_rough_laplacian_match_the_expanded_loops(domain, batch, codomain):
    geom = _geometry(domain, batch)
    rs = (RiemannStructure.sphere(2, 1.0) if codomain == "sphere"
          else RiemannStructure.custom(GEN_CODOMAIN, 2))
    mg = MapGeometry(formula_map(geom.fs, rs), geom)
    assert _bits(mg.tension) == _bits(reference_tension(mg))
    x, y = geom.fs.xnames, geom.fs.ynames
    S = PullbackSection([f"sin({x[0]}) + 0.3*{y[0]}*{y[1]}", f"cos({x[1]})*{y[0]}"]).jets(mg)
    assert _bits(mg.rough_laplacian(S)) == _bits(reference_rough_laplacian(mg, S))
    assert _bits(mg.rough_laplacian(mg.tension)) == _bits(reference_rough_laplacian(mg, mg.tension))


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("domain, calls", [("randers", (6, 12)), ("custom-n3", (18, 54))])
def test_gamma_and_hh_apply_delta_once_per_mirrored_pair(domain, batch, calls):
    # g_ab and g_ba are one jet, and so are Γ^i_jk and Γ^i_kj: one δ serves both
    geom = _geometry(domain, batch)
    geom.g, geom.ginv, geom.Gj       # built before the count: they apply no δ
    count = [0]
    delta = geom.delta

    def counting(jet, i):
        count[0] += 1
        return delta(jet, i)

    geom.delta = counting
    geom.gamma
    assert count[0] == calls[0]
    geom.hh_curvature
    assert count[0] == calls[0] + calls[1]
    del geom.delta
    assert _hex(geom.gamma) == _hex(reference_chern_rund(geom))
    assert _hex(geom.hh_curvature) == _hex(reference_hh_curvature(geom))
