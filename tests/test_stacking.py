"""Stacked quadrature nodes and blocked Leibniz products change no bit.

`quadrature._assemble` evaluates a stride's nodes in stacks of up to
`quadrature.STACK_FIBERS` fiber lanes, one `DomainGeometry` per stack, and
`Jet.__mul__` runs a batched product of more than `jets.LEIBNIZ_BLOCK`
elements in lane slices. Every kernel is elementwise over the batch, so each
estimate must equal, as float hex, its value with stacks of one node, at any
worker count, and each blocked product the unblocked kernel.
"""

import math
import os

import numpy as np
import pytest

from finvar import jets as jt
from finvar import quadrature as q
from finvar.finsler import BoxChart, DomainGeometry, FinslerStructure, TorusChart
from finvar.maps import PullbackSection, SmoothMap, VariationFamily
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
