"""Integration over the unit-ball bundle and the variational checks.

The functional ∫_{BM} α is computed with the normalization

    (1/VolB^n) ∫_M ( ∫_{B_x} α(x, y) det g(x, y) dy ) dx,   B_x = {F(x, ·) ≤ 1},

with the fiber integral estimated by Monte Carlo rejection sampling from a
Euclidean bounding ball of per-point radius SAFETY / min_{‖u‖=1} F(x, u)
(the fixed factor SAFETY = 1.1), redrawing any sample below the zero-section
floor `finsler.DEFAULT_R_MIN`, and the base integral by a periodic
trapezoidal rule (torus charts) or a Gauss–Legendre product rule (box charts).

Every functional and check supplies only its integrands α, read off a
geometry; `_assemble` builds that `DomainGeometry` and applies det g. It
builds one geometry per stack of a stride's nodes, the nodes along the batch
axis (vector-mode Taylor propagation, Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13), and reduces every node's own fibers on their
own.

Reproducibility: every x-node owns a counter-based Philox stream keyed by
(seed, node index), and the node reduction runs in a fixed order in the
calling process. Every jet kernel is elementwise over the batch, so a fixed
spec yields bit-identical estimates regardless of the worker count and of
how the nodes are stacked.  Because the fiber samples depend only on (domain
structure, spec), every ε-shifted evaluation in the finite-difference
variational checks reuses the same samples (common random numbers), which is
what lets the FD noise cancel.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
import pickle
# not used by the engine: kept bound because benchmarks/tracing.py patches this name
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import expressions as ex
from . import jets as jt
from .errors import ConfigError, QuadratureError
from .finsler import (DEFAULT_R_MIN, ORDER_TABLE, BoxChart, DomainGeometry, FinslerStructure,
                      TorusChart, _values, order_for)
from .maps import MapGeometry, PullbackSection, SmoothMap, VariationFamily


#: The bounding ball's radius times min_{‖u‖=1} F(x, u); below 1 the ball would cut B_x.
SAFETY = 1.1
#: Fiber lanes of one stacked geometry (`_stacks`): its nodes × their largest
#: accepted count. Chosen by a sweep recorded in BENCH_stack-nodes.json.
STACK_FIBERS = 400


@dataclass(frozen=True)
class QuadratureSpec:
    """Base-rule resolution, fibers per node, seed and worker count.

    The sampler's settings are fixed: each node draws its fibers from a ball
    of radius `SAFETY` / min_{‖u‖=1} F(x, u), redrawing any sample whose |y|
    is below the zero-section floor `finsler.DEFAULT_R_MIN`.

    `workers` processes share out the x-nodes in strides: the caller
    evaluates nodes 0, w, 2w, …, and a forked child each further stride.
    w is `workers` capped at the node count and at `os.cpu_count()`, so a
    large `workers` never starts more processes than there are CPUs. A
    stride holds stacks: its nodes, in order of accepted fiber count, share
    one geometry per `STACK_FIBERS` lanes (`_assemble`). Estimates are
    bitwise identical for any worker count. Side effects of a
    callable integrand in a child's stride do not come back to the caller.
    Without `os.fork` the nodes run serially (README gives timings of two
    workers against one). Every integral and every check draws each node's
    fibers once.
    """

    x_resolution: int = 16
    y_samples: int = 4096
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"quadrature {f.name} must be of type {f.type}, "
                                  f"got {value!r}")
        for name, least in (("x_resolution", 2), ("y_samples", 2), ("workers", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"quadrature.{name} must be >= {least}, "
                                  f"got {getattr(self, name)}")
        if not 0 <= self.seed < 2 ** 32:
            # the Philox key is (seed << 32) + node index in 64 bits
            raise ConfigError(f"quadrature.seed must be in [0, 2^32), got {self.seed}")


@dataclass
class FunctionalEstimate:
    value: float
    stderr: float
    x_nodes: int
    y_samples: int
    spec_hash: str
    structure_hash: str


def _hash_of(*parts) -> str:
    text = json.dumps([repr(p) for p in parts], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def _x_rule(fs: FinslerStructure, res: int):
    """Base-integral nodes and weights as product rules per chart type."""
    n = fs.dim
    chart = fs.chart
    axes, wts = [], []
    if isinstance(chart, TorusChart):
        for period in chart.periods:
            axes.append(period * np.arange(res) / res)
            wts.append(np.full(res, period / res))
    elif isinstance(chart, BoxChart):
        nodes, weights = np.polynomial.legendre.leggauss(res)
        for lo, hi in chart.bounds:
            axes.append(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
            wts.append(0.5 * (hi - lo) * weights)
    else:
        raise ConfigError(f"unsupported chart type {type(chart).__name__}")
    xs, ws = [], []
    for idx in np.ndindex(*([res] * n)):
        xs.append(np.array([axes[d][idx[d]] for d in range(n)]))
        ws.append(math.prod(wts[d][idx[d]] for d in range(n)))
    return xs, np.array(ws)


def _bounding_radius(fs: FinslerStructure, x) -> float:
    """SAFETY / min F(x, u) over a dense scan of unit directions."""
    n = fs.dim
    count = 64 * n
    if n == 2:
        theta = 2 * np.pi * np.arange(count) / count
        dirs = np.stack([np.cos(theta), np.sin(theta)])
    else:
        rng = np.random.default_rng(12345)
        raw = rng.normal(size=(n, count))
        dirs = raw / np.linalg.norm(raw, axis=0)
    f2 = np.asarray(fs.f2_value(x, dirs))
    if np.any(f2 <= 0) or not np.all(np.isfinite(f2)):
        raise QuadratureError(f"F^2 <= 0 detected during the bounding-radius scan at x={x}")
    return SAFETY / float(np.sqrt(f2.min()))


def _fiber_samples(fs: FinslerStructure, x, spec: QuadratureSpec, node_index: int):
    """(y, inside, radius): candidate fiber points uniform in the bounding
    ball, the {F ≤ 1} indicator, and the ball radius.

    The stream is keyed by (seed, node index) only, so the same samples are
    drawn for any map/integrand evaluated over this structure and spec.
    """
    n = fs.dim
    radius = _bounding_radius(fs, x)
    rng = np.random.Generator(np.random.Philox(key=(np.uint64(spec.seed) << np.uint64(32))
                                               + np.uint64(node_index)))
    raw = rng.normal(size=(n, spec.y_samples))
    u = rng.uniform(size=spec.y_samples)
    norms = np.linalg.norm(raw, axis=0)
    y = radius * (u ** (1.0 / n)) * raw / norms
    # resample points below the zero-section floor (bounded retry loop)
    for _ in range(100):
        low = np.linalg.norm(y, axis=0) < DEFAULT_R_MIN
        if not np.any(low):
            break
        k = int(low.sum())
        raw = rng.normal(size=(n, k))
        u = rng.uniform(size=k)
        y[:, low] = radius * (u ** (1.0 / n)) * raw / np.linalg.norm(raw, axis=0)
    else:
        raise QuadratureError("could not draw fiber samples above the zero-section floor")
    f2 = np.asarray(fs.f2_value(x, y))
    inside = f2 <= 1.0
    rate = float(inside.mean())
    if rate < 0.01:
        raise QuadratureError(
            f"fiber acceptance rate {rate:.4f} below 1% at x={x}; F is too anisotropic "
            "for the bounding-ball sampler")
    return y, inside, radius


def integrate(fn, fs: FinslerStructure, spec: QuadratureSpec) -> FunctionalEstimate:
    """Normalized unit-ball-bundle integral of a scalar integrand.

    `fn` is either an expression (source or AST, variables x1.., y1..) or a
    callable `(x, y_batch) -> values`, called node by node on the node's
    accepted samples; a scalar value stands for the same value at every
    sample.
    """
    if not callable(fn):
        fn = functools.partial(fs.evaluate, ex.parse(fn, fs.xnames + fs.ynames))

    def rows(geom):
        # `fn` node by node, on the node's x and its accepted fibers
        row = np.zeros(geom.y.shape[1:])
        for g, (x, y) in enumerate(geom.nodes):
            row[g, :y.shape[1]] = fn(x, y)
        return [row]

    return _assemble(rows, fs, spec, ORDER_TABLE["metric"],
                     structure_hash=_hash_of(fs.label, ex.to_source(fs.f2_ast)))[0]


def _run_stride(fn, part):
    """fn over the tasks of `part` in order, up to the first failure:
    (results, (position in `part`, exception) of that failure or None)."""
    results = []
    for j, task in enumerate(part):
        try:
            results.append(fn(task))
        except BaseException as err:
            return results, (j, err)
    return results, None


def _fork_strides(run, tasks, workers: int) -> list:
    """The results of every task, where `run(tasks[k::w])` evaluates stride k
    and returns (results, failure): the results of the stride's tasks in
    order (of its first ones, when one fails) and None, or the (position in
    the stride, exception) of its failure, as `_run_stride` does. There are
    `workers` strides, at most one per task and one per CPU (`os.cpu_count()`).

    The caller runs stride 0; each further stride k runs in a child made by
    `os.fork` that pickles its results to a pipe and exits. Every child is
    read and reaped, also when a stride fails; then the exception of the
    lowest failing task is raised, as a serial loop would raise it (an
    interrupt or exit in any stride takes precedence).
    """
    w = min(workers, len(tasks), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    children, payloads = [], {}
    try:
        for k in range(1, w):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)
                    out = run(tasks[k::w])
                    try:
                        data = pickle.dumps(out)
                        pickle.loads(data)
                    except Exception:           # an exception that does not survive pickling
                        j, err = out[1]
                        data = pickle.dumps((out[0], (j, RuntimeError(
                            f"{type(err).__name__}: {err}"))))
                    with os.fdopen(write, "wb") as fh:
                        fh.write(data)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((k, pid, read))
        strides = [run(tasks[0::w])]
    finally:
        for k, pid, read in children:
            with os.fdopen(read, "rb") as fh:
                payloads[k] = fh.read()
            os.waitpid(pid, 0)
    for k in range(1, w):
        try:
            strides.append(pickle.loads(payloads[k]))
        except Exception:                       # the child ended before it sent a result
            strides.append(([], (0, RuntimeError(f"the worker of node stride {k} "
                                                 "ended without a result"))))
    results = [None] * len(tasks)
    failures = []
    for k, (done, failure) in enumerate(strides):
        results[k:k + w * len(done):w] = done
        if failure is not None:
            failures.append((k + w * failure[0], failure[1]))
    if failures:
        # an interrupt or exit first, else the lowest failing task
        raise min(failures, key=lambda f: (isinstance(f[1], Exception), f[0]))[1]
    return results


def _stacks(nodes, budget: int) -> list:
    """`nodes`, (position, accepted count, …) tuples, split into stacks: in
    order of accepted count (then position), each stack takes nodes while
    its nodes × its largest count stays within `budget` lanes. A node whose
    count alone exceeds the budget is a stack of one."""
    stacks = []
    for node in sorted(nodes, key=lambda node: (node[1], node[0])):
        if stacks and (len(stacks[-1]) + 1) * node[1] <= budget:
            stacks[-1].append(node)
        else:
            stacks.append([node])
    return stacks


def _assemble(rows, fs: FinslerStructure, spec: QuadratureSpec, order: int,
              structure_hash: str = "") -> list:
    """The one node loop: per-node fiber Monte Carlo + deterministic reduction.

    Each stride (`_fork_strides`) draws the fibers of its nodes in index
    order (`_fiber_samples`, once per node), orders the nodes by accepted
    count and stacks them (`_stacks`, at most `STACK_FIBERS` lanes a stack).
    A stack of G nodes is one `DomainGeometry` of jet order `order`, x of
    shape (n, G) and y of shape (n, G, K) for the largest accepted count K,
    a node's short row padded with its first accepted fiber. `rows(geom)`
    gives the stack's k integrands α (a scalar stands for its value at every
    sample); each is weighed by det g, and every node's own unpadded slice is
    reduced on its own into its part of one of the k returned estimates, in
    node order. `geom.nodes` holds each node's x, of shape (n,), and its
    accepted fibers, for integrands evaluated node by node.

    Every jet kernel is elementwise over the batch, so every estimate is
    bitwise that of a geometry per node, for any stack and worker count. A
    stack that raises is evaluated again node by node, as stacks of one in
    index order, so the exception is that of its lowest failing node.
    """
    xs, ws = _x_rule(fs, spec.x_resolution)
    vol_bn = unit_ball_volume(fs.dim)

    def evaluate(stack):
        lanes = max(count for _, count, *_ in stack)
        Y = np.empty((fs.dim, len(stack), lanes))
        for g, (_, count, _, y, _, _) in enumerate(stack):
            Y[:, g] = y[:, :1]
            Y[:, g, :count] = y
        geom = DomainGeometry(fs, np.stack([x for _, _, x, *_ in stack], axis=1), Y, order)
        geom.nodes = [(x, y) for _, _, x, y, _, _ in stack]
        integrands = rows(geom)
        det = np.broadcast_to(_values(geom.detg), Y.shape[1:])
        weighted = np.asarray([np.asarray(row) * det for row in integrands], dtype=np.float64)
        out = []
        for g, (_, count, _, _, inside, radius) in enumerate(stack):
            vals = np.zeros((len(weighted), spec.y_samples))
            vals[:, inside] = weighted[:, g, :count]
            ball_vol = vol_bn * radius ** fs.dim
            contrib = ball_vol * vals.mean(axis=1) / vol_bn
            contrib_var = (ball_vol / vol_bn) ** 2 * vals.var(axis=1, ddof=1) / spec.y_samples
            out.append((contrib, contrib_var))
        return out

    def run(part):
        """One stride: (each node's (contrib, var), None), or ([], its failure)."""
        drawn, failures = [], []
        for j, (node_index, x) in enumerate(part):
            try:
                y, inside, radius = _fiber_samples(fs, x, spec, node_index)
            except BaseException as err:
                failures.append((j, err))
                break
            drawn.append((j, int(inside.sum()), x, y[:, inside], inside, radius))
        results = {}
        for stack in _stacks(drawn, STACK_FIBERS):
            try:
                results.update(zip([node[0] for node in stack], evaluate(stack)))
                continue
            except Exception as err:
                failure = (0, err)
            except BaseException as err:       # an interrupt or exit: no rerun
                return [], (stack[0][0], err)
            if len(stack) > 1:
                # node by node in index order, up to the lowest failing node
                stack = sorted(stack, key=lambda node: node[0])
                done, failure = _run_stride(lambda node: evaluate([node])[0], stack)
                results.update(zip([node[0] for node in stack], done))
            if failure is not None:
                failures.append((stack[failure[0]][0], failure[1]))
        if failures:
            return [], min(failures, key=lambda f: (isinstance(f[1], Exception), f[0]))
        return [results[j] for j in range(len(drawn))], None

    results = _fork_strides(run, list(enumerate(xs)), spec.workers)
    value = 0.0
    variance = 0.0
    for w, (contrib, contrib_var) in zip(ws, results):
        value += w * contrib
        variance += w * w * contrib_var
    if not np.all(np.isfinite(value)):
        raise QuadratureError("integral estimate is not finite")
    spec_hash = _hash_of(spec)
    return [FunctionalEstimate(value=float(v), stderr=float(np.sqrt(var)), x_nodes=len(xs),
                               y_samples=spec.y_samples, spec_hash=spec_hash,
                               structure_hash=structure_hash)
            for v, var in zip(value, variance)]


# --- functionals ----------------------------------------------------------------

def _map_hash(map: SmoothMap) -> str:
    return _hash_of(map.fs.label, ex.to_source(map.fs.f2_ast), map.rs.label,
                    [ex.to_source(c) for c in map.components])


def _bienergy_rows(maps, geom: DomainGeometry):
    """½⟨τ, τ⟩ of each map, over one shared domain geometry."""
    return [0.5 * _values(mg.inner(mg.tension, mg.tension))
            for mg in (MapGeometry(m, geom) for m in maps)]


def _hessian_rows(map: SmoothMap, pairs, geom: DomainGeometry):
    """H(V, W) integrand of each (V, W) pair, over `map` on `geom`."""
    mg = MapGeometry(map, geom)
    return [mg.hessian_integrand(V.jets(mg), W.jets(mg)) for V, W in pairs]


def energy(map: SmoothMap, spec: QuadratureSpec) -> FunctionalEstimate:
    """E(φ) = ∫_{BM} e(φ), e = ½ g^{ij} g̃_{αβ}(φ) φ^α_{,i} φ^β_{,j}."""
    return _assemble(lambda geom: [_values(MapGeometry(map, geom).energy_density)],
                     map.fs, spec, ORDER_TABLE["energy_density"],
                     structure_hash=_map_hash(map))[0]


def bienergy(map: SmoothMap, spec: QuadratureSpec) -> FunctionalEstimate:
    """E₂(φ) = ½ ∫_{BM} ⟨τ, τ⟩."""
    return _assemble(lambda geom: _bienergy_rows([map], geom), map.fs, spec,
                     ORDER_TABLE["tension"], structure_hash=_map_hash(map))[0]


# --- variational checks -----------------------------------------------------------

@dataclass
class VariationCheck:
    fd: float
    analytic: float
    gap: float
    stderr: float
    extras: dict = field(default_factory=dict)


def first_variation_check(family: VariationFamily, spec: QuadratureSpec,
                          h: float = 1e-3, richardson: bool = False) -> VariationCheck:
    """dE₂/dε|₀ by central differences against ∫⟨τ₂, V⟩, in one pass: the E₂
    rows at ±h (and ±h/2) and the ⟨τ₂, V⟩ row share each node's samples and
    geometry. The ⟨τ₂, V⟩ row runs first, on the node's order-6 geometry, and
    the E₂ rows then on its order-4 view (`DomainGeometry.at_order`), which
    shares everything the first row computed."""
    base = family.base
    steps = (h, h / 2) if richardson else (h,)
    maps = [family.map_at(eps) for step in steps for eps in (step, -step)]
    v_asts = family.deviation_field(1)

    def rows(geom):
        mg = MapGeometry(base, geom)
        V = [jt.eval_ast(a, geom.env) for a in v_asts]
        variation = _values(mg.inner(mg.bitension, V))
        return [*_bienergy_rows(maps, geom.at_order(ORDER_TABLE["tension"])), variation]

    *e2, est = _assemble(rows, base.fs, spec, order_for("tension", "bitension"),
                         structure_hash=_map_hash(base))
    central = [(e2[2 * k].value - e2[2 * k + 1].value) / (2 * step)
               for k, step in enumerate(steps)]
    fd = central[0]
    if richardson:
        fd = (4.0 * central[1] - fd) / 3.0
    return VariationCheck(fd=fd, analytic=est.value, gap=abs(fd - est.value),
                          stderr=est.stderr)


def self_adjointness_check(map: SmoothMap, X: PullbackSection, Y: PullbackSection,
                           spec: QuadratureSpec) -> dict:
    """Operator-symmetry gaps for Δ^{dφ} and J plus the positivity diagnostic.

    All five integrands share each node's geometry, so their estimates are
    exactly comparable sample by sample.
    """

    def rows(geom):
        mg = MapGeometry(map, geom)
        Xj, Yj = X.jets(mg), Y.jets(mg)
        LX, LY = mg.rough_laplacian(Xj), mg.rough_laplacian(Yj)
        JX, JY = mg.jacobi(Xj), mg.jacobi(Yj)
        return [_values(mg.inner(S, T))
                for S, T in ((LX, Yj), (Xj, LY), (JX, Yj), (Xj, JY), (LX, Xj))]

    ests = _assemble(rows, map.fs, spec, ORDER_TABLE["jacobi"], structure_hash=_map_hash(map))
    sums = [e.value for e in ests]
    return {
        "laplacian_gap": abs(sums[0] - sums[1]),
        "jacobi_gap": abs(sums[2] - sums[3]),
        "laplacian_xy": sums[0], "laplacian_yx": sums[1],
        "jacobi_xy": sums[2], "jacobi_yx": sums[3],
        "positivity": sums[4],
        "stderr": max(e.stderr for e in ests),
    }


def hessian_form(map: SmoothMap, V1: PullbackSection, V2: PullbackSection,
                 spec: QuadratureSpec) -> FunctionalEstimate:
    """H(V₁, V₂) = ∫_{BM} hessian integrand."""
    return _assemble(lambda geom: _hessian_rows(map, [(V1, V2)], geom), map.fs, spec,
                     ORDER_TABLE["hessian"], structure_hash=_map_hash(map))[0]


def second_variation_check(family: VariationFamily, spec: QuadratureSpec,
                           h: float = 1e-3) -> VariationCheck:
    """∂²E₂/∂ε₁∂ε₂ by the 4-corner mixed central difference against the
    integrated Hessian form; also reports the H(V₁,V₂) − H(V₂,V₁) gap. One pass: the
    four E₂ corners and both Hessian rows share each node's samples and geometry,
    the Hessian rows first at order 6 and the corners then on the order-4 view."""
    base = family.base
    # prerequisite: base map numerically biharmonic at sample points
    rng = np.random.default_rng(99)
    box = base.fs.chart.sample_box()
    for _ in range(5):
        x = np.array([rng.uniform(lo, hi) for lo, hi in box])
        y = rng.normal(size=base.fs.dim)
        y /= np.linalg.norm(y)
        mg = MapGeometry(base, DomainGeometry(base.fs, x, y, ORDER_TABLE["bitension"]))
        t2 = float(np.max(np.abs(_values(mg.bitension))))
        if t2 > 1e-6:
            raise ConfigError(f"base map is not biharmonic at tolerance: |tau2| = {t2:.3e}")

    corners = [family.map_at(e1, e2) for e1, e2 in ((h, h), (h, -h), (-h, h), (-h, -h))]
    V1 = PullbackSection(family.deviation_field(1))
    V2 = PullbackSection(family.deviation_field(2))

    def rows(geom):
        hessian = _hessian_rows(base, [(V1, V2), (V2, V1)], geom)
        return [*_bienergy_rows(corners, geom.at_order(ORDER_TABLE["tension"])), *hessian]

    pp, pm, mp, mm, h12, h21 = _assemble(rows, base.fs, spec, order_for("tension", "hessian"),
                                         structure_hash=_map_hash(base))
    fd = (pp.value - pm.value - mp.value + mm.value) / (4 * h * h)
    return VariationCheck(fd=fd, analytic=h12.value, gap=abs(fd - h12.value),
                          stderr=h12.stderr,
                          extras={"symmetry_gap": abs(h12.value - h21.value),
                                  "h21": h21.value})


def divergence_theorem_check(fs: FinslerStructure, X, spec: QuadratureSpec,
                             f=None) -> dict:
    """∫_{BM} div X (and optionally ∫ Δf) on one geometry per node; both should vanish."""
    if len(X) != fs.dim:
        raise ConfigError(f"expected {fs.dim} vector field components, got {len(X)}")
    names = fs.xnames + fs.ynames
    X_asts = [ex.parse(c, names) for c in X]
    f_ast = None if f is None else ex.parse(f, names)

    def rows(geom):
        out = [_values(geom.divergence_of([jt.eval_ast(a, geom.env) for a in X_asts]))]
        if f_ast is not None:
            out.append(_values(geom.horizontal_laplacian_of(jt.eval_ast(f_ast, geom.env))))
        return out

    ests = _assemble(rows, fs, spec, order_for("divergence", "laplacian"))
    out = {"divergence_integral": ests[0].value, "divergence_stderr": ests[0].stderr}
    if f_ast is not None:
        out.update({"laplacian_integral": ests[1].value,
                    "laplacian_stderr": ests[1].stderr})
    return out
