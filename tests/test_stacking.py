"""Stacked quadrature nodes, stacked sample sets and blocked Leibniz
products change no bit.

`quadrature._assemble` evaluates a stride's nodes in stacks of up to
`quadrature.STACK_FIBERS` fiber lanes, one `DomainGeometry` per stack, and
`Jet.__mul__` runs a batched product of more than `jets.LEIBNIZ_BLOCK`
elements in lane slices. Every kernel is elementwise over the batch, so each
estimate must equal, as float hex, its value with stacks of one node, at any
worker count, and each blocked product the unblocked kernel. Likewise each
row of `check invariants`, `check weitzenbock` and `check identity`, which
evaluate their sample set as one stack, must equal the largest of its values
over one geometry per point, and so must the scaling fit's sup-norms and the
biharmonic precondition of `second_variation_check`.
"""

import json
import math
import os
import re

import numpy as np
import pytest

from finvar import cli
from finvar import expressions as ex
from finvar import identity as idn
from finvar import jets as jt
from finvar import quadrature as q
from finvar.config import RunConfig
from finvar.errors import ConfigError
from finvar.finsler import (ORDER_TABLE, BoxChart, DomainGeometry, FinslerStructure, PointState,
                            TorusChart, _values, order_for, sample_stack)
from finvar.maps import MapGeometry, PullbackSection, SmoothMap, VariationFamily
from finvar.riemann import RiemannStructure

TWO_PI = 2 * math.pi
TORUS = TorusChart((1.0, 1.0))
BOX = BoxChart(((-1.0, 1.0), (-1.0, 1.0)))
BOX3 = BoxChart(((-1.0, 1.0),) * 3)

DOMAINS = {
    "randers-torus": lambda: FinslerStructure.randers(
        [["1", "0"], ["0", "1"]], [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"], 2,
        chart=TORUS),
    "perturbed-box": lambda: FinslerStructure.perturbed(
        [["1 + x2^2/4", "x1*x2/8"], ["x1*x2/8", "1 + x1^2/4"]],
        "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2)", 2, chart=BOX, scale=0.05),
    "euclidean-torus": lambda: FinslerStructure.euclidean(2, chart=TORUS),
    "custom-n3-box": lambda: FinslerStructure.custom(
        "sqrt(y1^2 + y2^2 + y3^2)*(1 + 0.1*sin(x1)*cos(x2) + 0.05*x3)"
        " + 0.1*sin(x2)*y1 + 0.05*y3*cos(x1)", 3, chart=BOX3),
}


def _outputs(fs, workers):
    """Float hex of (value, stderr) of every `_assemble` caller on `fs`."""
    xn = fs.xnames
    rs = RiemannStructure.sphere(2, 1.0)
    base = [f"0.6 + 0.3*cos({xn[0]}*{TWO_PI!r}) + 0.1*sin({xn[-1]}*{TWO_PI!r})",
            f"0.2*sin({xn[0]}*{TWO_PI!r}) + 0.25*cos({xn[1]}*{TWO_PI!r})"]
    phi = SmoothMap(base, fs, rs)
    family = VariationFamily([f"{base[0]} + eps1*sin({xn[1]}*{TWO_PI!r})",
                              f"{base[1]} + eps1*0.5*cos({xn[0]}*{TWO_PI!r})"],
                             fs, rs, base=phi)
    flat = VariationFamily([f"0.4 + eps1*sin({xn[0]}*{TWO_PI!r}) + 0.3*eps2*{xn[1]}",
                            f"-0.2 + eps2*cos({xn[-1]}*{TWO_PI!r}) + 0.2*eps1"],
                           fs, rs, base=SmoothMap([f"{xn[0]}*0 + 0.4", f"{xn[0]}*0 - 0.2"],
                                                  fs, rs))
    X = PullbackSection([f"sin({xn[0]}*{TWO_PI!r}) + 0.2*y1", f"cos({xn[1]}*{TWO_PI!r})"])
    Y = PullbackSection([f"0.3*{xn[-1]}", f"0.5*sin({xn[1]}*{TWO_PI!r}) + y2"])
    field = [f"sin({x}*{TWO_PI!r}) + 0.1*y1" for x in xn]
    spec = q.QuadratureSpec(x_resolution=2, y_samples=16, seed=17, workers=workers)
    out = []
    for est in (q.integrate("x1*y1^2 + cos(x2)*y2^2 + 0.5", fs, spec),
                q.integrate(lambda x, y: np.cos(x[0]) * y[0] ** 2 + x[-1], fs, spec),
                q.energy(phi, spec), q.bienergy(phi, spec), q.hessian_form(phi, X, Y, spec)):
        out += [est.value, est.stderr]
    first = q.first_variation_check(family, spec)
    second = q.second_variation_check(flat, spec)
    out += [first.fd, first.analytic, first.stderr, second.fd, second.analytic,
            second.stderr, second.extras["h21"]]
    out += list(q.self_adjointness_check(phi, X, Y, spec).values())
    out += list(q.divergence_theorem_check(fs, field, spec, f=f"sin({xn[0]})*y1").values())
    return [float(v).hex() for v in out]


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_every_estimate_is_bitwise_that_of_stacks_of_one(domain, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)     # 3 strides on any machine
    fs = DOMAINS[domain]()
    runs = {}
    for budget in (1, q.STACK_FIBERS):
        for workers in (1, 2, 3):
            monkeypatch.setattr(q, "STACK_FIBERS", budget)
            runs[budget, workers] = _outputs(fs, workers)
    want = runs[1, 1]
    for key, got in runs.items():
        assert got == want, key


def _drawn(fs, spec):
    """(position, accepted count) of every node of one stride of all nodes."""
    xs, _ = q._x_rule(fs, spec.x_resolution)
    return [(j, int(q._fiber_samples(fs, x, spec, j)[1].sum())) for j, x in enumerate(xs)]


def test_the_default_stacks_pad_short_rows():
    # the comparisons above read padded lanes only if a stack mixes counts
    for domain in sorted(DOMAINS):
        fs = DOMAINS[domain]()
        nodes = _drawn(fs, q.QuadratureSpec(x_resolution=2, y_samples=16, seed=17))
        (stack,) = q._stacks(nodes, q.STACK_FIBERS)
        assert len({count for _, count in stack}) > 1, domain


def test_stacks_are_filled_in_order_of_accepted_count():
    nodes = [(0, 30), (1, 10), (2, 50), (3, 10), (4, 20), (5, 70)]
    assert q._stacks(nodes, 60) == [[(1, 10), (3, 10), (4, 20)], [(0, 30)], [(2, 50)],
                                    [(5, 70)]]
    # a node above the budget is a stack of one; a budget of one stacks nothing
    assert q._stacks(nodes, 1) == [[node] for node in sorted(nodes, key=lambda n: n[::-1])]


def test_each_stack_builds_one_geometry(monkeypatch):
    fs = DOMAINS["randers-torus"]()
    phi = SmoothMap(["0.3*sin(x1)", "x2*0.2"], fs, RiemannStructure.sphere(2, 1.0))
    init = DomainGeometry.__init__
    built = []

    def counted(self, fs, x, y, order):
        built.append(np.shape(x))
        init(self, fs, x, y, order)

    monkeypatch.setattr(DomainGeometry, "__init__", counted)
    for samples in (128, 1024):
        spec = q.QuadratureSpec(x_resolution=3, y_samples=samples, seed=5)
        built.clear()
        q.bienergy(phi, spec)
        stacks = q._stacks(_drawn(fs, spec), q.STACK_FIBERS)
        assert sorted(built) == sorted((2, len(stack)) for stack in stacks)
        # several nodes a stack; at 1,024 samples every node is over the budget
        assert len(stacks) == (2 if samples == 128 else 9), samples


def test_a_callable_integrand_gets_each_node_and_its_accepted_fibers():
    fs = DOMAINS["randers-torus"]()
    spec = q.QuadratureSpec(x_resolution=3, y_samples=64, seed=5)
    seen = {}

    def fn(x, y):
        seen[tuple(x)] = (x.shape, y.copy())
        return np.ones(y.shape[1])

    q.integrate(fn, fs, spec)
    xs, _ = q._x_rule(fs, spec.x_resolution)
    assert len(seen) == len(xs)
    for j, x in enumerate(xs):
        y, inside, _ = q._fiber_samples(fs, x, spec, j)
        shape, got = seen[tuple(x)]
        assert shape == (2,) and np.array_equal(got, y[:, inside])


# --- blocked Leibniz products ---------------------------------------------------------

def _unblocked(a, b, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(jt, "LEIBNIZ_BLOCK", 1 << 62)
        return a * b


@pytest.mark.parametrize("names, order", [(("x1", "x2", "y1", "y2"), 6), (("x1", "y1"), 3)])
def test_a_blocked_product_is_bitwise_the_unblocked_kernel(names, order, monkeypatch):
    space = jt.jet_space(names, order)
    triples = len(space._mul_tables[order][0])
    rng = np.random.default_rng(3)

    def jet(*batch):
        return jt.Jet(space, rng.normal(size=(space.ncoef,) + batch), order)

    for block in (jt.LEIBNIZ_BLOCK, 20 * triples):
        monkeypatch.setattr(jt, "LEIBNIZ_BLOCK", block)
        lanes = block // triples
        # just below, at and above the block; node × fiber batches, broadcast
        # (G, 1) × (G, K) operands and a batch-free factor lifted to the batch
        for a, b in [(jet(lanes - 1), jet(lanes - 1)), (jet(lanes), jet(lanes)),
                     (jet(lanes + 1), jet(lanes + 1)), (jet(3, lanes), jet(3, lanes)),
                     (jet(3, 1), jet(3, lanes)), (jet(4, lanes), jet(4, 1)),
                     (jet(2, lanes + 7), jt.Jet(space, rng.normal(size=space.ncoef), order))]:
            got = a * b
            want = _unblocked(a, b, monkeypatch)
            assert got.c.shape == want.c.shape
            assert [v.hex() for v in got.c.ravel().tolist()] == \
                   [v.hex() for v in want.c.ravel().tolist()], (block, a.c.shape, b.c.shape)


# --- stacked sample sets of the check suites -------------------------------------------

_GEN_BASE = [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"], ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]]
_GEN_B = "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2) + 0.2*sin(x1)*y1^3*y2/(y1^2 + y2^2)"


def _perturbed(a):
    perturbation = {"b": f"0.05*({_GEN_B})", "c_grid": [1e-2, 5e-3]}
    if a is not None:
        perturbation["a"] = a
    return {"dimension": 2,
            "domain": {"type": "perturbed", "matrix": _GEN_BASE, "b": _GEN_B, "scale": 0.05,
                       "chart": {"type": "box", "bounds": [[-1.0, 1.0], [-1.0, 1.0]]}},
            "codomain": {"type": "custom", "matrix": _GEN_BASE},
            "map": {"components": ["x1/2 + x2^2/5", "x2/2 - x1^2/5"]},
            "perturbation": perturbation}


CONFIGS = {
    "readme": {"dimension": 2,
               "domain": {"type": "randers", "alpha": [["1", "0"], ["0", "1"]],
                          "beta": [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"],
                          "chart": {"type": "torus", "periods": [1.0, 1.0]}},
               "codomain": {"type": "sphere", "radius": 1.0},
               "map": {"components": [f"0.8 + 0.2*cos(x1*{TWO_PI!r})",
                                      f"0.3*sin(x2*{TWO_PI!r})"]}},
    "perturbed-no-a": _perturbed(None),
    "perturbed-constant-a": _perturbed(["0.1", "-0.05"]),
    "perturbed-x-a": _perturbed(["0.1*x1 + 0.02*x2^2", "-0.05*sin(x2)"]),
    "custom-n3": {"dimension": 3,
                  "domain": {"type": "custom",
                             "f": "sqrt(y1^2 + y2^2 + y3^2)*(1 + 0.1*sin(x1)*cos(x2)"
                                  " + 0.05*x3) + 0.1*sin(x2)*y1 + 0.05*y3*cos(x1)",
                             "chart": {"type": "torus", "periods": [1.0, 1.0, 1.0]}},
                  "codomain": {"type": "sphere", "dimension": 2, "radius": 1.3},
                  "map": {"components": [
                      f"0.8 + 0.3*cos(x1*{TWO_PI!r}) + 0.1*sin(x3*{TWO_PI!r})",
                      f"0.2*sin(x1*{TWO_PI!r}) + 0.25*cos(x2*{TWO_PI!r})"]},
                  "perturbation": {"b": "0.05*(x1 + 0.2*x3)*y1^4/(y1^2 + y2^2 + y3^2)",
                                   "a": ["0.1", "-0.05", "0.02*x3"], "c_grid": [1e-2, 5e-3]}},
}


def _points(cfg, count):
    """The sample set of `cfg`, one (x, y) of shape (n,) a point."""
    x, y = cfg.sample_points(count)
    return [(x[:, g], y[:, g, 0]) for g in range(count)]


class _Worst(dict):
    """Row name -> the largest value seen, as the per-point loop kept it."""

    def keep(self, name, value):
        self[name] = max(self.get(name, 0.0), float(value))


def _invariants_per_point(cfg):
    fs, n = cfg.finsler(), cfg.dimension
    field = ex.parse("sin(x1)*y2^2/(y1^2 + y2^2) + cos(x2)*y1", fs.xnames + fs.ynames)
    worst = _Worst()
    for x, y in _points(cfg, 20):
        geom = DomainGeometry(fs, x, y, ORDER_TABLE["invariants"])
        f2 = float(geom.f2.value)
        gyy = float(jt.sum_terms([geom.g[i][j] * geom.env[fs.ynames[i]] * geom.env[fs.ynames[j]]
                                  for i in range(n) for j in range(n)]).value)
        worst.keep("euler", abs(gyy - f2) / abs(f2))
        for i in range(n):
            worst.keep("delta_f2", abs(float(geom.delta(geom.f2, i).value)) / abs(f2))
        gscale = max(1.0, max(abs(float(geom.g[i][j].value)) for i in range(n) for j in range(n)))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    resid = geom.delta(geom.g[i][j], k) - jt.sum_terms(
                        [geom.gamma[l][k][i] * geom.g[l][j] + geom.gamma[l][k][j] * geom.g[i][l]
                         for l in range(n)])
                    worst.keep("h_metricity", abs(float(resid.value)) / gscale)
        fj = jt.eval_ast(field, geom.env)
        for j in range(n):
            for k in range(n):
                lhs = float((geom.delta(geom.delta(fj, k), j)
                             - geom.delta(geom.delta(fj, j), k)).value)
                rhs = float(jt.sum_terms([geom.Rjk[i][j][k] * fj.deriv(fs.ynames[i])
                                          for i in range(n)]).value)
                worst.keep("bracket", abs(lhs - rhs) / max(1.0, abs(lhs)))
        mg = MapGeometry(cfg.smooth_map(), geom)
        tau = _values(mg.tension)
        gap = np.max(np.abs(tau - _values(mg.tension_divergence_form())))
        worst.keep("tension_vs_divergence_form", gap / max(1.0, np.max(np.abs(tau))))
        if "perturbation" in cfg.data:
            ig = idn.IdentityGeometry(cfg.perturbation(), x, y, ORDER_TABLE["invariants"])
            worst.keep("adapted_derivative_of_f2", np.max(np.abs(ig.eq33_residual())))
            worst.keep("spray_split", np.max(np.abs(ig.spray_split_residual())))
    return worst


def _weitzenbock_per_point(cfg):
    worst = _Worst()
    map = cfg.smooth_map()
    for x, y in _points(cfg, 20):
        mg = MapGeometry(map, DomainGeometry(map.fs, x, y, ORDER_TABLE["weitzenbock"]))
        worst.keep("weitzenbock_residual", abs(mg.weitzenbock_residual()))
        worst.keep("scale", abs(float(mg.inner(mg.tension, mg.tension).value)))
    return worst


def _identity_per_point(cfg):
    setup = cfg.perturbation()
    worst = _Worst()
    for x, y in _points(cfg, 10):
        ig = idn.IdentityGeometry(setup, x, y, order_for("identity_tension",
                                                         "identity_residuals", "condition35"))
        itr = ig.tension_report()
        worst.keep("route_b_vs_conn", itr.discrepancy_b_conn)
        worst.keep("route_b_vs_general", itr.discrepancy_b_general)
        worst.keep("adapted_derivative_of_f2", np.max(np.abs(ig.eq33_residual())))
        worst.keep("tension_derivative", np.max(np.abs(ig.eq34_residual())))
        worst.keep("spray_split", np.max(np.abs(ig.spray_split_residual())))
        if setup.a_asts is not None:
            residual, tau_pred = ig.condition35_residual()
            worst.keep("proportionality_residual", np.max(np.abs(residual)))
            worst.keep("predicted_tension_gap", np.max(np.abs(itr.tau_route_b - tau_pred)))
    return worst


def _report(tmp_path, config, *argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rep = cli.run(cli.build_parser().parse_args([*argv, "--config", str(path)]))
    return {r.name: r for r in rep.records}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_each_stacked_check_row_is_the_largest_per_point_value(config, tmp_path):
    cfg = RunConfig(CONFIGS[config])
    suites = {"invariants": _invariants_per_point, "weitzenbock": _weitzenbock_per_point}
    if "perturbation" in cfg.data:
        suites["identity"] = _identity_per_point
    for suite, per_point in suites.items():
        rows = _report(tmp_path, CONFIGS[config], "check", suite)
        want = per_point(cfg)
        if suite == "weitzenbock":
            bound = cfg.tolerances["weitzenbock"] * max(1.0, want.pop("scale"))
            assert rows["weitzenbock_residual"].bound.hex() == bound.hex()
        for name, value in want.items():
            assert rows[name].value.hex() == value.hex(), (suite, name)
        # every point-set row was compared; the rest are the scaling fit's
        assert set(rows) - set(want) <= {"scaling_slope_tau", "scaling_slope_tau2"}, suite


@pytest.mark.parametrize("config", ["perturbed-constant-a", "perturbed-x-a", "custom-n3"])
def test_a_stacked_condition35_residual_is_the_pointwise_one(config):
    cfg = RunConfig(CONFIGS[config])
    setup, (x, y) = cfg.perturbation(), cfg.sample_points(10)
    residual, tau_pred = idn.IdentityGeometry(setup, x, y,
                                              ORDER_TABLE["condition35"]).condition35_residual()
    n = cfg.dimension
    assert residual.shape == tau_pred.shape == (n, 10, 1)
    for g, (xg, yg) in enumerate(_points(cfg, 10)):
        want = idn.condition35_residual(setup, PointState(xg, yg))
        for stacked, point in zip((residual, tau_pred), want):
            assert [v.hex() for v in stacked[:, g, 0].tolist()] == \
                   [v.hex() for v in np.asarray(point, dtype=float).tolist()], g


def test_the_scaling_fit_is_the_per_point_sup_norms():
    setup = RunConfig(CONFIGS["perturbed-x-a"]).perturbation()
    sc = idn.linearized_scaling(setup, c_grid=(1e-2, 5e-3), n_points=4)
    x, y = sample_stack(setup.finsler.chart.sample_box(), 4, np.random.default_rng(77))
    for c, tau_sup, tau2_sup in zip(sc.c_grid, sc.tau_sup, sc.tau2_sup):
        idmap = setup.with_scale(c).identity_map
        worst = _Worst()
        for g in range(4):
            mg = MapGeometry(idmap, DomainGeometry(idmap.fs, x[:, g], y[:, g, 0],
                                                   ORDER_TABLE["bitension"]))
            worst.keep("tau", np.max(np.abs(_values(mg.tension))))
            worst.keep("tau2", np.max(np.abs(_values(mg.bitension))))
        assert (tau_sup.hex(), tau2_sup.hex()) == (worst["tau"].hex(), worst["tau2"].hex())


def test_the_biharmonic_precondition_names_the_first_point_over_the_tolerance():
    fs = FinslerStructure.euclidean(2, chart=TORUS)
    rs = RiemannStructure.sphere(2, 1.0)
    source = [f"0.3*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"]
    family = VariationFamily([f"{source[0]} + eps1*x1*0", f"{source[1]} + eps2*x2*0"], fs, rs,
                             base=SmoothMap(source, fs, rs))
    x, y = sample_stack(fs.chart.sample_box(), 5, np.random.default_rng(99), radii=None)
    first = None
    for g in range(5):
        mg = MapGeometry(family.base, DomainGeometry(fs, x[:, g], y[:, g, 0],
                                                     ORDER_TABLE["bitension"]))
        t2 = float(np.max(np.abs(_values(mg.bitension))))
        if first is None and t2 > 1e-6:
            first = t2
    with pytest.raises(ConfigError, match=re.escape(f"|tau2| = {first:.3e}") + "$"):
        q.second_variation_check(family, q.QuadratureSpec(x_resolution=2, y_samples=8))
