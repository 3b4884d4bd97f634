"""Jet orders: `finsler.ORDER_TABLE` entries and one geometry per point or node stack.

Each table entry must be the least jet order at which its readers raise no
`OrderLimitError`, on the inputs their callers pass: the README config, the
criterion-8 perturbation with a covector a, τ as a callable section
(criterion 7) and the deviation-field pair of the criterion-10 Hessian. At
the entry a reader's output must equal, as float hex, its output at the
orders the engine used before the table was keyed by reads: a
Taylor coefficient of degree d depends only on input coefficients of degree
<= d, so a higher order adds nothing to what is read.
"""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from finvar import cli
from finvar import finsler as fi
from finvar import identity as idn
from finvar import maps
from finvar import quadrature as q
from finvar.errors import OrderLimitError
from finvar.finsler import BoxChart, FinslerStructure, PointState, TorusChart
from finvar.maps import PullbackSection, SmoothMap, VariationFamily
from finvar.report import Report
from finvar.riemann import RiemannStructure

TWO_PI = 2 * math.pi
PI = math.pi
EYE = [["1", "0"], ["0", "1"]]
BETA = [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"]
README_MAP = [f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"]
GEN_BASE = [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"],
            ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]]
GEN_B = "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2) + 0.2*sin(x1)*y1^3*y2/(y1^2 + y2^2)"
BOX = BoxChart(((-1.0, 1.0), (-1.0, 1.0)))
TORUS = {"type": "torus", "periods": [1.0, 1.0]}
README_CONFIG = {"dimension": 2,
                 "domain": {"type": "randers", "alpha": EYE, "beta": BETA, "chart": TORUS},
                 "codomain": {"type": "sphere", "radius": 1.0},
                 "map": {"components": README_MAP}}
PERTURBED_CONFIG = {"dimension": 2,
                    "domain": {"type": "perturbed", "matrix": GEN_BASE, "b": GEN_B,
                               "scale": 0.05,
                               "chart": {"type": "box", "bounds": [[-1.0, 1.0], [-1.0, 1.0]]}},
                    "codomain": {"type": "custom", "matrix": GEN_BASE},
                    "map": {"components": ["x1/2 + x2^2/5", "x2/2 - x1^2/5"]},
                    "perturbation": {"b": f"0.05*({GEN_B})", "a": ["0.1", "-0.05"],
                                     "c_grid": [1e-2, 5e-3]}}
POINT = PointState([0.2, 0.7], [1.0, -0.3])
BOX_POINT = PointState([0.3, -0.4], [0.6, 0.8])
SPEC = q.QuadratureSpec(x_resolution=2, y_samples=16, seed=3)


@functools.cache
def _inputs():
    fs = FinslerStructure.randers(EYE, BETA, 2, chart=TorusChart((1.0, 1.0)))
    sphere = RiemannStructure.sphere(2, 1.0)
    flat = FinslerStructure.euclidean(2, chart=TorusChart((1.0, 1.0)))
    base = SmoothMap(["x1*0 + 0.4", "x1*0 - 0.2"], flat, sphere)
    hessian_family = VariationFamily(
        [f"0.4 + eps1*sin(x1*{TWO_PI!r}) + 0.3*eps2*cos(x2*{TWO_PI!r})",
         f"-0.2 + eps2*sin(x2*{TWO_PI!r}) + 0.2*eps1*cos(x1*{TWO_PI!r})"],
        flat, sphere, base=base)
    readme_map = SmoothMap(README_MAP, fs, sphere)
    return {
        "fs": fs,
        "map": readme_map,
        "family": VariationFamily([f"{README_MAP[0]} + eps1*sin(x1*{TWO_PI!r})",
                                   f"{README_MAP[1]} + eps1*0.7*cos(x2*{TWO_PI!r})"],
                                  fs, sphere, base=readme_map),
        "hessian_family": hessian_family,
        "pair": [PullbackSection(hessian_family.deviation_field(k)) for k in (1, 2)],
        # criterion 7: τ of a map to the sphere of radius 1.3, as a callable section
        "tau_map": SmoothMap([f"0.8 + 0.3*cos(x1*{TWO_PI!r}) + 0.1*sin(x2*{TWO_PI!r})",
                              f"0.2*sin(x1*{TWO_PI!r}) + 0.25*cos(x2*{TWO_PI!r})"],
                             fs, RiemannStructure.sphere(2, 1.3)),
        "tau": PullbackSection([lambda mg, a=a: mg.tension[a] for a in range(2)]),
        "sections": [PullbackSection([f"sin(x1*{PI!r})^2*sin(x2*{PI!r})^2",
                                      f"0.5*sin(x1*{PI!r})^2"]),
                     PullbackSection([f"0.4*sin(x2*{PI!r})^2",
                                      f"sin(x1*{PI!r})^2*sin(x2*{PI!r})^2"])],
        "setup": idn.PerturbationSetup(GEN_BASE, GEN_B, 2, chart=BOX, scale=0.05,
                                       a_sources=["0.1", "-0.05"]),
    }


def _cli(tmp_path, config, *argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return cli.run(cli.build_parser().parse_args([*argv, "--config", str(path)]))


def _bits(out):
    """Every number of an output as float hex (signed zeros included), with its text."""
    if isinstance(out, Report):
        return [_bits([r.name, r.status, r.value, r.bound, r.stderr, r.detail])
                for r in out.records]
    if dataclasses.is_dataclass(out):
        return _bits([getattr(out, f.name) for f in dataclasses.fields(out)])
    if isinstance(out, dict):
        return [_bits([k, v]) for k, v in sorted(out.items())]
    if isinstance(out, (list, tuple)):
        return [_bits(v) for v in out]
    if isinstance(out, (str, type(None), bool)):
        return out
    return [float(v).hex() for v in np.ravel(out)]


def _field():
    return "sin(x1)*y2^2/(y1^2 + y2^2) + cos(x2)*y1"


# name: ({table key: the order the reader used for it before}, reader(inputs,
# tmp_path)); a reader of several keys builds one geometry at their largest entry
READERS = {
    "metric": ({"metric": 2}, lambda d, t: fi.metric(d["fs"], POINT)),
    "integrate": ({"metric": 2}, lambda d, t: q.integrate("x1*y1^2", d["fs"], SPEC)),
    "energy_density": ({"energy_density": 2}, lambda d, t: maps.energy_density(d["map"], POINT)),
    "energy": ({"energy_density": 2}, lambda d, t: q.energy(d["map"], SPEC)),
    "spray": ({"spray": 3}, lambda d, t: fi.spray_value(d["fs"], POINT.x, POINT.y)),
    "b_field": ({"spray": 4}, lambda d, t: idn.b_field(d["setup"], BOX_POINT)),
    "condition35": ({"condition35": 3},
                    lambda d, t: idn.condition35_residual(d["setup"], BOX_POINT)),
    "delta_derivative": ({"delta": 4},
                         lambda d, t: fi.delta_derivative(d["fs"], _field(), POINT, 1)),
    "pullback_cov_deriv": ({"delta": 4}, lambda d, t: maps.pullback_cov_deriv(
        d["map"], d["sections"][0], 1, POINT)),
    "connection": ({"connection": 4}, lambda d, t: fi.connection(d["fs"], POINT)),
    "curvature": ({"curvature": 5}, lambda d, t: fi.curvature(d["fs"], POINT)),
    "geom": ({"metric": 2, "connection": 4, "curvature": 5}, lambda d, t: _cli(
        t, README_CONFIG, "geom", "--point", "0.2,0.7,1.0,-0.3")),
    "tension": ({"tension": 4}, lambda d, t: maps.tension(d["map"], POINT)),
    "tension_cli": ({"tension": 4}, lambda d, t: _cli(
        t, README_CONFIG, "tension", "--point", "0.2,0.7,1.0,-0.3")),
    "bienergy": ({"tension": 4}, lambda d, t: q.bienergy(d["map"], SPEC)),
    "laplacian": ({"laplacian": 6},
                  lambda d, t: fi.horizontal_laplacian(d["fs"], _field(), POINT)),
    "divergence": ({"divergence": 4}, lambda d, t: fi.divergence(
        d["fs"], [_field(), "x1*y2 + y1^2/(y1^2 + y2^2)"], POINT)),
    "divergence_check": ({"divergence": 5, "laplacian": 6},
                         lambda d, t: q.divergence_theorem_check(
                             d["fs"], [f"cos(x1*{TWO_PI!r})", f"sin(x2*{TWO_PI!r})"], SPEC,
                             f=f"sin(x1*{TWO_PI!r})*cos(x2*{TWO_PI!r})")),
    "identity_tension": ({"identity_tension": 6},
                         lambda d, t: idn.identity_tension(d["setup"], BOX_POINT)),
    "invariants": ({"invariants": 5},
                   lambda d, t: _cli(t, PERTURBED_CONFIG, "check", "invariants")),
    "self_adjoint": ({"jacobi": 6}, lambda d, t: q.self_adjointness_check(
        d["map"], *d["sections"], SPEC)),
    "check_identity": ({"identity_residuals": 6},
                       lambda d, t: _cli(t, PERTURBED_CONFIG, "check", "identity")),
    "bitension": ({"bitension": 6}, lambda d, t: maps.bitension(d["map"], POINT)),
    "bitension_cli": ({"bitension": 6}, lambda d, t: _cli(
        t, README_CONFIG, "bitension", "--point", "0.2,0.7,1.0,-0.3")),
    "rough_laplacian_of_tau": ({"bitension": 6}, lambda d, t: maps.rough_laplacian(
        d["tau_map"], d["tau"], POINT)),
    "jacobi_of_tau": ({"bitension": 6}, lambda d, t: maps.jacobi_apply(
        d["tau_map"], d["tau"], POINT)),
    "scaling": ({"bitension": 6}, lambda d, t: idn.linearized_scaling(
        d["setup"], c_grid=(1e-2, 5e-3), n_points=2)),
    "first_variation": ({"tension": 4, "bitension": 6},
                        lambda d, t: q.first_variation_check(d["family"], SPEC)),
    "weitzenbock": ({"weitzenbock": 6}, lambda d, t: maps.weitzenbock_residual(d["map"], POINT)),
    "weitzenbock_cli": ({"weitzenbock": 6}, lambda d, t: _cli(
        t, README_CONFIG, "check", "weitzenbock")),
    "hessian": ({"hessian": 8}, lambda d, t: maps.hessian_integrand(
        d["hessian_family"].base, *d["pair"], POINT)),
    "second_variation": ({"tension": 4, "hessian": 8},
                         lambda d, t: q.second_variation_check(d["hessian_family"], SPEC)),
}


def test_every_table_key_has_a_reader():
    assert set(fi.ORDER_TABLE) == {k for before, _ in READERS.values() for k in before}


@pytest.mark.parametrize("name", sorted(READERS))
def test_each_table_entry_is_the_least_order_its_readers_need(name, monkeypatch, tmp_path):
    before, reader = READERS[name]
    inputs = _inputs()
    entry = {k: fi.ORDER_TABLE[k] for k in before}

    def run_at(orders):
        for k, order in orders.items():
            monkeypatch.setitem(fi.ORDER_TABLE, k, order)
        return reader(inputs, tmp_path)

    with pytest.raises(OrderLimitError):
        run_at({k: order - 1 for k, order in entry.items()})
    want = _bits(run_at(before))
    assert _bits(run_at(entry)) == want


@pytest.fixture
def geometry_count(monkeypatch):
    """Calls of DomainGeometry.__init__ and IdentityGeometry.__init__."""
    counts = {"domain": 0, "identity": 0}
    for cls, key in ((fi.DomainGeometry, "domain"), (idn.IdentityGeometry, "identity")):
        def counted(self, *args, _init=cls.__init__, _key=key, **kwargs):
            counts[_key] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_each_check_node_builds_one_geometry(geometry_count):
    # the 4 nodes of 16 samples each fit in one stack of q.STACK_FIBERS lanes
    d = _inputs()
    spec = q.QuadratureSpec(x_resolution=2, y_samples=16, seed=3, workers=1)
    q.first_variation_check(d["family"], spec)
    assert geometry_count == {"domain": 1, "identity": 0}
    q.divergence_theorem_check(d["fs"], [f"cos(x1*{TWO_PI!r})", f"sin(x2*{TWO_PI!r})"], spec,
                               f=f"sin(x1*{TWO_PI!r})*cos(x2*{TWO_PI!r})")
    assert geometry_count == {"domain": 2, "identity": 0}
    q.second_variation_check(d["hessian_family"], spec)
    # one stack, and the 5 points of the biharmonic precondition
    assert geometry_count == {"domain": 2 + 1 + 5, "identity": 0}


def test_each_pointwise_command_builds_one_geometry_per_point(geometry_count, tmp_path):
    _cli(tmp_path, README_CONFIG, "geom", "--point", "0.2,0.7,1.0,-0.3")
    assert geometry_count == {"domain": 1, "identity": 0}
    geometry_count["domain"] = 0
    rep = _cli(tmp_path, PERTURBED_CONFIG, "check", "identity")
    assert "proportionality_residual" in [r.name for r in rep.records]
    # 10 sample points, and 8 points per scale of the scaling fit (2 scales)
    assert geometry_count == {"domain": 10 + 2 * 8, "identity": 10}


def test_check_invariants_builds_one_geometry_per_point(geometry_count, tmp_path):
    rep = _cli(tmp_path, README_CONFIG, "check", "invariants")
    assert "tension_vs_divergence_form" in [r.name for r in rep.records]
    # 20 sample points, each geometry shared by the domain rows and the map's row
    assert geometry_count == {"domain": 20, "identity": 0}
