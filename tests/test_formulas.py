"""One owner per geometric formula: the domain's Chern–Rund Γ and hh
curvature (`riemann.levi_civita`, `riemann.curvature_table`) and the one
horizontal trace behind Δf, τ and Δ^{dφ} (`DomainGeometry.horizontal_trace`)
against the expanded loops of `tests/helpers.py`. Nonzero entries must match
as float hex; zeros match by value, because the reference Δ^{dφ} negates each
term where the engine negates the sum, which may flip the sign of an exact
zero."""

import math

import numpy as np
import pytest

from finvar.finsler import DomainGeometry, FinslerStructure, TorusChart, _field_jet, _values
from finvar.maps import MapGeometry, PullbackSection, SmoothMap
from finvar.riemann import RiemannStructure

from helpers import (reference_chern_rund, reference_horizontal_laplacian,
                     reference_hh_curvature, reference_rough_laplacian, reference_tension)

TWO_PI = 2 * math.pi
CHART = TorusChart((1.0, 1.0))
GEN_CODOMAIN = [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"],
                ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]]

DOMAINS = {
    "randers": lambda: FinslerStructure.randers(
        [["1", "0"], ["0", "1"]], [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"], 2,
        chart=CHART),
    "perturbed": lambda: FinslerStructure.perturbed(
        [["1 + x2^2/4", "x1*x2/8"], ["x1*x2/8", "1 + x1^2/4"]],
        "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2)", 2, chart=CHART, scale=0.05),
    "euclidean": lambda: FinslerStructure.euclidean(2, chart=CHART),
    "custom-n3": lambda: FinslerStructure.custom(
        "sqrt(y1^2 + y2^2 + y3^2)*(1 + 0.1*sin(x1)*cos(x2) + 0.05*x3)"
        " + 0.1*sin(x2)*y1 + 0.05*y3*cos(x1)", 3, chart=TorusChart((1.0, 1.0, 1.0))),
}

BATCHES = {"batch-free": [0.8, -0.6, 0.3],
           "batched": [[0.8, -0.3, 1.1], [-0.6, 0.9, 0.2], [0.3, 0.1, -0.7]]}


def _bits(table):
    """Float hex of every entry, with each zero as the number 0."""
    return [0.0 if v == 0 else float(v).hex() for v in np.ravel(_values(table))]


def _geometry(domain, batch):
    fs = DOMAINS[domain]()
    n = fs.dim
    return DomainGeometry(fs, [0.31, 0.77, 0.12][:n], BATCHES[batch][:n], 6)


def _map(fs, rs):
    x = fs.xnames
    return SmoothMap([f"0.8 + 0.3*cos({x[0]}*{TWO_PI!r}) + 0.1*sin({x[-1]}*{TWO_PI!r})",
                      f"0.2*sin({x[0]}*{TWO_PI!r}) + 0.25*cos({x[1]}*{TWO_PI!r})"], fs, rs)


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
    mg = MapGeometry(_map(geom.fs, rs), geom)
    assert _bits(mg.tension) == _bits(reference_tension(mg))
    x, y = geom.fs.xnames, geom.fs.ynames
    S = PullbackSection([f"sin({x[0]}) + 0.3*{y[0]}*{y[1]}", f"cos({x[1]})*{y[0]}"]).jets(mg)
    assert _bits(mg.rough_laplacian(S)) == _bits(reference_rough_laplacian(mg, S))
    assert _bits(mg.rough_laplacian(mg.tension)) == _bits(reference_rough_laplacian(mg, mg.tension))
