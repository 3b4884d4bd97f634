"""Integration over the unit-ball bundle and the variational checks.

The functional ∫_{BM} α is computed with the normalization

    (1/VolB^n) ∫_M ( ∫_{B_x} α(x, y) det g(x, y) dy ) dx,   B_x = {F(x, ·) ≤ 1},

with the fiber integral estimated by Monte Carlo rejection sampling from a
Euclidean bounding ball of per-point radius SAFETY / min_{‖u‖=1} F(x, u)
(the fixed factor SAFETY = 1.1), redrawing any sample below the zero-section
floor `finsler.DEFAULT_R_MIN`, and the base integral by a periodic
trapezoidal rule (torus charts) or a Gauss–Legendre product rule (box charts).

Reproducibility: every x-node owns a counter-based Philox stream keyed by
(seed, node index), and the node reduction runs in a fixed order in the
calling process, so a fixed spec yields bit-identical estimates regardless of
the worker count.  Because the fiber samples depend only on (domain
structure, spec), every ε-shifted evaluation in the finite-difference
variational checks reuses the same samples (common random numbers), which is
what lets the FD noise cancel.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Base-rule resolution, fibers per node, seed and worker count.

    The sampler's settings are fixed: each node draws its fibers from a ball
    of radius `SAFETY` / min_{‖u‖=1} F(x, u), redrawing any sample whose |y|
    is below the zero-section floor `finsler.DEFAULT_R_MIN`.

    `workers` processes share out the x-nodes in strides: the caller
    evaluates nodes 0, w, 2w, …, and a forked child each further stride.
    w is `workers` capped at the node count and at `os.cpu_count()`, so a
    large `workers` never starts more processes than there are CPUs.
    Estimates are bitwise identical for any worker count. Side effects of a
    callable integrand in a child's stride do not come back to the caller.
    Without `os.fork` the nodes run serially. Two workers against one on a
    2-core machine, medians of six interleaved runs: 1.09 s vs 1.81 s on a
    first-variation check at 8×8 nodes × 128 fibers, 0.29 s vs 0.54 s on a
    bienergy at 4×4 × 2048. Every integral and every check draws each node's
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
        if self.x_resolution < 2:
            raise ConfigError("x resolution must be >= 2")
        if self.y_samples < 2:
            raise ConfigError("y sample count must be >= 2")
        if self.workers < 1:
            raise ConfigError("worker count must be >= 1")
        if not 0 <= self.seed < 2 ** 32:
            # the Philox key is (seed << 32) + node index in 64 bits
            raise ConfigError("seed must be in [0, 2^32)")


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
    callable `(x, y_batch) -> values` evaluated on the accepted samples.
    """
    if not callable(fn):
        node = ex.parse(fn, fs.xnames + fs.ynames)

        def fn(x, y):
            env = {fs.xnames[i]: x[i] for i in range(fs.dim)}
            env.update({fs.ynames[i]: y[i] for i in range(fs.dim)})
            return np.broadcast_to(np.asarray(ex.evaluate(node, env), dtype=np.float64),
                                   y.shape[1:]).copy()

    def node_rows(x, y):
        geom = DomainGeometry(fs, x, y, ORDER_TABLE["metric"])
        return [np.asarray(fn(x, y)) * _values(geom.detg)]

    return _assemble(node_rows, fs, spec,
                     structure_hash=_hash_of(fs.label, ex.to_source(fs.f2_ast)))[0]


def _run_stride(fn, tasks, k: int, w: int):
    """fn over tasks[k::w] in order, up to the first failure: (results,
    (task index, exception) of that failure or None)."""
    results = []
    for i in range(k, len(tasks), w):
        try:
            results.append(fn(tasks[i]))
        except BaseException as err:
            return results, (i, err)
    return results, None


def _fork_map(fn, tasks, workers: int) -> list:
    """[fn(t) for t in tasks] over `workers` strides of the task list, at
    most one stride per task and one per CPU (`os.cpu_count()`).

    The caller evaluates tasks[0::w]; each further stride k runs in a child
    made by `os.fork` that pickles its results to a pipe and exits. Every
    child is read and reaped, also when a stride fails; then the exception
    of the lowest failing task is raised, as a serial loop would raise it
    (an interrupt or exit in any stride takes precedence).
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
                    out = _run_stride(fn, tasks, k, w)
                    try:
                        data = pickle.dumps(out)
                        pickle.loads(data)
                    except Exception:           # an exception that does not survive pickling
                        i, err = out[1]
                        data = pickle.dumps((out[0], (i, RuntimeError(
                            f"{type(err).__name__}: {err}"))))
                    with os.fdopen(write, "wb") as fh:
                        fh.write(data)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((k, pid, read))
        strides = [_run_stride(fn, tasks, 0, w)]
    finally:
        for k, pid, read in children:
            with os.fdopen(read, "rb") as fh:
                payloads[k] = fh.read()
            os.waitpid(pid, 0)
    for k in range(1, w):
        try:
            strides.append(pickle.loads(payloads[k]))
        except Exception:                       # the child ended before it sent a result
            strides.append(([], (k, RuntimeError(f"the worker of node stride {k} "
                                                 "ended without a result"))))
    results = [None] * len(tasks)
    for k, (done, _) in enumerate(strides):
        results[k:k + w * len(done):w] = done
    failures = [failure for _, failure in strides if failure is not None]
    if failures:
        # an interrupt or exit first, else the lowest failing task
        raise min(failures, key=lambda f: (isinstance(f[1], Exception), f[0]))[1]
    return results


def _assemble(node_rows, fs: FinslerStructure, spec: QuadratureSpec,
              structure_hash: str = "") -> list:
    """The one node loop: per-node fiber Monte Carlo + deterministic reduction.

    `node_rows(x, y_accepted)` returns k rows of integrand·det g on the
    accepted fiber samples of one node, shape (k, accepted); every row is
    reduced on its own into one of the k returned estimates. All rows of a
    node see the same samples, drawn once.
    """
    xs, ws = _x_rule(fs, spec.x_resolution)
    vol_bn = unit_ball_volume(fs.dim)

    def one_node(args):
        node_index, x = args
        y, inside, radius = _fiber_samples(fs, x, spec, node_index)
        rows = np.asarray(node_rows(x, y[:, inside]), dtype=np.float64)
        vals = np.zeros((len(rows), spec.y_samples))
        vals[:, inside] = rows
        ball_vol = vol_bn * radius ** fs.dim
        contrib = ball_vol * vals.mean(axis=1) / vol_bn
        contrib_var = (ball_vol / vol_bn) ** 2 * vals.var(axis=1, ddof=1) / spec.y_samples
        return contrib, contrib_var

    results = _fork_map(one_node, list(enumerate(xs)), spec.workers)
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
    """½⟨τ, τ⟩ det g of each map, over one shared domain geometry."""
    det = _values(geom.detg)
    rows = []
    for m in maps:
        mg = MapGeometry(m, geom)
        rows.append(0.5 * _values(mg.inner(mg.tension, mg.tension)) * det)
    return rows


def _hessian_rows(map: SmoothMap, pairs, geom: DomainGeometry):
    """H(V, W) integrand·det g of each (V, W) pair, over `map` on `geom`."""
    mg = MapGeometry(map, geom)
    det = _values(geom.detg)
    return [np.asarray(mg.hessian_integrand(V.jets(mg), W.jets(mg))) * det for V, W in pairs]


def energy(map: SmoothMap, spec: QuadratureSpec) -> FunctionalEstimate:
    """E(φ) = ∫_{BM} e(φ), e = ½ g^{ij} g̃_{αβ}(φ) φ^α_{,i} φ^β_{,j}."""

    def node_rows(x, y):
        mg = MapGeometry(map, DomainGeometry(map.fs, x, y, ORDER_TABLE["energy_density"]))
        return [_values(mg.energy_density) * _values(mg.geom.detg)]

    return _assemble(node_rows, map.fs, spec, structure_hash=_map_hash(map))[0]


def bienergy(map: SmoothMap, spec: QuadratureSpec) -> FunctionalEstimate:
    """E₂(φ) = ½ ∫_{BM} ⟨τ, τ⟩."""
    return _assemble(
        lambda x, y: _bienergy_rows([map], DomainGeometry(map.fs, x, y, ORDER_TABLE["tension"])),
        map.fs, spec, structure_hash=_map_hash(map))[0]


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

    def node_rows(x, y):
        geom = DomainGeometry(base.fs, x, y, order_for("tension", "bitension"))
        mg = MapGeometry(base, geom)
        V = [jt.eval_ast(a, geom.env) for a in v_asts]
        variation = _values(mg.inner(mg.bitension, V)) * _values(geom.detg)
        return [*_bienergy_rows(maps, geom.at_order(ORDER_TABLE["tension"])), variation]

    *e2, est = _assemble(node_rows, base.fs, spec, structure_hash=_map_hash(base))
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

    def node_rows(x, y):
        mg = MapGeometry(map, DomainGeometry(map.fs, x, y, ORDER_TABLE["jacobi"]))
        Xj, Yj = X.jets(mg), Y.jets(mg)
        LX, LY = mg.rough_laplacian(Xj), mg.rough_laplacian(Yj)
        JX, JY = mg.jacobi(Xj), mg.jacobi(Yj)
        det = _values(mg.geom.detg)
        return [_values(mg.inner(S, T)) * det
                for S, T in ((LX, Yj), (Xj, LY), (JX, Yj), (Xj, JY), (LX, Xj))]

    ests = _assemble(node_rows, map.fs, spec, structure_hash=_map_hash(map))
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
    return _assemble(lambda x, y: _hessian_rows(
        map, [(V1, V2)], DomainGeometry(map.fs, x, y, ORDER_TABLE["hessian"])),
        map.fs, spec, structure_hash=_map_hash(map))[0]


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

    def node_rows(x, y):
        geom = DomainGeometry(base.fs, x, y, order_for("tension", "hessian"))
        hessian = _hessian_rows(base, [(V1, V2), (V2, V1)], geom)
        return [*_bienergy_rows(corners, geom.at_order(ORDER_TABLE["tension"])), *hessian]

    pp, pm, mp, mm, h12, h21 = _assemble(node_rows, base.fs, spec,
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

    def node_rows(x, y):
        geom = DomainGeometry(fs, x, y, order_for("divergence", "laplacian"))
        det = _values(geom.detg)
        rows = [_values(geom.divergence_of([jt.eval_ast(a, geom.env) for a in X_asts])) * det]
        if f_ast is not None:
            rows.append(_values(geom.horizontal_laplacian_of(jt.eval_ast(f_ast, geom.env))) * det)
        return rows

    ests = _assemble(node_rows, fs, spec)
    out = {"divergence_integral": ests[0].value, "divergence_stderr": ests[0].stderr}
    if f_ast is not None:
        out.update({"laplacian_integral": ests[1].value,
                    "laplacian_stderr": ests[1].stderr})
    return out
