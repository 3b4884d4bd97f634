"""The benchmark tracer (`benchmarks/tracing.py`) against the engine it wraps.

`run.py --trace 1` wraps engine functions and methods by name, so renaming or
removing one breaks the traced benchmark. This test installs the tracer in
process, runs one small operation through each layer, and checks that the
layer table fills and that `uninstall()` restores every wrapped attribute.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

from finvar import cli, identity, maps
from finvar import quadrature as q
from finvar.finsler import FinslerStructure, PointState, TorusChart
from finvar.maps import PullbackSection, SmoothMap, VariationFamily
from finvar.riemann import RiemannStructure

TWO_PI = 2 * math.pi
TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("finvar_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _engine_attributes():
    """id of every attribute of every finvar module and finvar class."""
    mods = [m for name, m in sys.modules.items() if name == "finvar" or name.startswith("finvar.")]
    owners = mods + [v for m in mods for v in vars(m).values()
                     if isinstance(v, type) and v.__module__.startswith("finvar")]
    return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()}


def test_tracer_wraps_every_layer_and_restores_the_engine(tmp_path):
    tracing = _load_tracing()
    fs = FinslerStructure.randers([["1", "0"], ["0", "1"]],
                                  [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"], 2,
                                  chart=TorusChart((1.0, 1.0)))
    rs = RiemannStructure.sphere(2, 1.0)
    base = [f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"]
    family = VariationFamily([f"{base[0]} + eps1*sin(x1*{TWO_PI!r})",
                              f"{base[1]} + eps1*0.7*cos(x2*{TWO_PI!r})"],
                             fs, rs, base=SmoothMap(base, fs, rs))
    setup = identity.PerturbationSetup(
        [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"], ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]],
        "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2)", 2, scale=0.05)
    V1 = PullbackSection([f"sin(x1*{TWO_PI!r})", f"0.7*cos(x2*{TWO_PI!r})"])
    V2 = PullbackSection(["0.3*x1*x2", "cos(x1)"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": 2,
                               "domain": {"type": "euclidean",
                                          "chart": {"type": "torus", "periods": [1.0, 1.0]}}}))

    before = _engine_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.ops"):
            assert cli.main(["geom", "--config", str(cfg), "--point", "0.2,0.3,1.0,0.5"]) == 0
            identity.identity_tension(setup, PointState([0.31, -0.27], [0.8, -0.6]))
            maps.hessian_integrand(family.base, V1, V2, PointState([0.31, 0.77], [0.8, -0.6]))
            q.first_variation_check(family, q.QuadratureSpec(x_resolution=2, y_samples=16,
                                                             seed=0, workers=1))
    finally:
        tracer.uninstall()
    rows, metrics = tracing.aggregate(tracer.spans(), tracer.names, tracer.counts())

    assert [row["layer"] for row in rows] == list(tracing.LAYERS)
    assert all(row["spans"] > 0 for row in rows), rows
    for name in ("riemann.partials.count", "maps.map_geometry.count", "identity.tension.count",
                 "quadrature.nodes", "jets.mul.count", "finsler.domain_geometry.count"):
        assert metrics[name] > 0, name
    assert _engine_attributes() == before
