"""Spans and counts recorded around the engine's functions, from outside.

`Tracer.install()` replaces the finvar functions and methods that the
workloads reach with wrappers that record one span per call: name, start, end, parent span and
thread. Nothing in the engine changes; `uninstall()` restores it. Spans stay
in memory in per-thread buffers and are written once, by `write()`.

The layer of a span is the first component of its name (`jets.mul` belongs
to `jets`). Self time is a span's duration minus the part of it that its
child spans cover, so children running in parallel threads are not counted
twice. Inclusive time of a layer sums the spans of that layer that have no
ancestor in the same layer; over several threads it is a sum of thread time
and can exceed the wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np

from finvar import cli, config, expressions, finsler, identity, jets, maps, quadrature, report, riemann

LAYERS = ("bench", "expressions", "jets", "finsler", "riemann", "maps", "identity",
          "quadrature", "cli")

#: Spans whose inclusive time is reported by name; each gets an ancestor bit.
NAMED = ("jets.table_build", "finsler.validate", "maps.tension", "maps.bitension",
         "maps.hessian", "maps.cov_deriv", "identity.tension", "quadrature.assemble",
         "quadrature.sample", "cli.config", "cli.render")


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack = []                  # (span id, name id) of the open spans
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict = {}
        self.keys: dict = {}             # counter name -> set of distinct keys

    def record(self, sid, parent, nid, start, end):
        self.ids.append(sid)
        self.parents.append(parent)
        self.names.append(nid)
        self.starts.append(start)
        self.ends.append(end)

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def key(self, name, key):
        self.keys.setdefault(name, set()).add(key)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list = []
        self._lock = threading.Lock()
        self._patches: list = []

    # --- recording -------------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, after=None):
        nid = self._name_id(name)
        ids, buffer, clock = self._ids, self._buffer, time.perf_counter

        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            if stack and stack[-1][1] == nid:        # direct recursion: one span
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            sid = next(ids)
            stack.append((sid, nid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.record(sid, parent, nid, start, end)
            if after is not None:
                after(buf, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        nid = self._name_id(name)
        buf = self._buffer()
        parent = buf.stack[-1][0] if buf.stack else -1
        sid = next(self._ids)
        buf.stack.append((sid, nid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            buf.stack.pop()
            buf.record(sid, parent, nid, start, end)

    # --- installation ------------------------------------------------------------------

    def _patch_function(self, module, attr, name, after=None):
        """Wrap a module function everywhere finvar imported it by name."""
        orig = getattr(module, attr)
        wrapped = self._wrap(orig, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "finvar" or mod_name.startswith("finvar."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)

    def _patch_method(self, cls, attr, name, after=None):
        orig = cls.__dict__[attr]
        if isinstance(orig, cached_property):
            new = cached_property(self._wrap(orig.func, name, after))
            new.__set_name__(cls, attr)
        elif isinstance(orig, classmethod):
            new = classmethod(self._wrap(orig.__func__, name, after))
        else:
            new = self._wrap(orig, name, after)
        self._set(cls, attr, new, orig)

    def _set(self, owner, attr, value, orig=None):
        self._patches.append((owner, attr, getattr(owner, attr) if orig is None else orig))
        setattr(owner, attr, value)

    def install(self):
        P, M = self._patch_function, self._patch_method
        P(expressions, "parse", "expressions.parse")
        P(expressions, "evaluate", "expressions.evaluate")

        Jet = jets.Jet
        for attr in ("__mul__", "__rmul__"):
            M(Jet, attr, "jets.mul", after=_count_mul)
        for attr in ("__add__", "__radd__"):
            M(Jet, attr, "jets.add")
        M(Jet, "deriv", "jets.deriv")
        M(Jet, "_compose", "jets.compose")
        P(jets, "eval_ast", "jets.eval_ast")
        M(jets.JetSpace, "__init__", "jets.table_build")
        build = self._wrap(jets.JetSpace._mul_table, "jets.table_build")
        cached = jets.JetSpace._mul_table

        def mul_table(space, r):
            return cached(space, r) if r in space._mul_tables else build(space, r)

        self._set(jets.JetSpace, "_mul_table", mul_table)

        DG = finsler.DomainGeometry
        M(DG, "__init__", "finsler.domain_geometry", after=_count_geometry)
        for attr, member in list(DG.__dict__.items()):
            if isinstance(member, cached_property) or attr == "delta":
                M(DG, attr, f"finsler.{attr}")
        M(finsler.FinslerStructure, "_validate", "finsler.validate")

        M(riemann.RiemannStructure, "partials_at", "riemann.partials")
        for fn in ("christoffel_table", "dchristoffel_table", "curvature_table",
                   "nabla_curvature_table", "riem_apply", "nabla_riem_apply"):
            P(riemann, fn, f"riemann.{fn}")

        MG = maps.MapGeometry
        M(MG, "__init__", "maps.map_geometry")
        for attr, member in list(MG.__dict__.items()):
            if isinstance(member, cached_property) or attr in (
                    "cov_deriv", "inner", "rough_laplacian", "curvature_trace", "jacobi"):
                M(MG, attr, f"maps.{attr.lstrip('_')}")
        M(MG, "hessian_integrand", "maps.hessian")
        M(maps.VariationFamily, "map_at", "maps.map_at")
        M(maps.PullbackSection, "jets", "maps.section_jets")

        P(identity, "identity_tension", "identity.tension")
        IG = identity.IdentityGeometry
        M(IG, "__init__", "identity.geometry")
        for attr, member in list(IG.__dict__.items()):
            if isinstance(member, cached_property) or attr == "delta_tilde":
                M(IG, attr, f"identity.{attr}")

        P(quadrature, "_assemble", "quadrature.assemble")
        P(quadrature, "_fiber_samples", "quadrature.sample", after=_count_samples)
        for fn in ("bienergy", "hessian_form", "first_variation_check",
                   "second_variation_check"):
            P(quadrature, fn, f"quadrature.{fn}")
        self._set(quadrature, "ThreadPoolExecutor", self._executor_class())

        P(cli, "main", "cli.main")
        for fn in ("cmd_geom", "cmd_tension"):
            P(cli, fn, f"cli.{fn}")
        for attr in ("from_file", "finsler", "riemann", "smooth_map"):
            M(config.RunConfig, attr, "cli.config")
        M(report.Report, "render", "cli.render")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _executor_class(self):
        """A thread pool whose tasks open their spans under the submitting span."""
        buffer = self._buffer

        class SpanPropagatingExecutor(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                stack = buffer().stack
                parent = stack[-1] if stack else (-1, -1)

                def task(*args):
                    inner = buffer().stack
                    inner.append((parent[0], -1))
                    try:
                        return fn(*args)
                    finally:
                        inner.pop()

                return super().map(task, *iterables, **kwargs)

        return SpanPropagatingExecutor

    # --- results ------------------------------------------------------------------

    def spans(self) -> dict:
        """All recorded spans as arrays sorted by span id."""
        cols = {"id": [], "parent": [], "name": [], "start": [], "end": [], "thread": []}
        for buf in self._buffers:
            n = len(buf.ids)
            cols["id"].append(np.frombuffer(buf.ids, dtype=np.int64, count=n))
            cols["parent"].append(np.frombuffer(buf.parents, dtype=np.int64, count=n))
            cols["name"].append(np.frombuffer(buf.names, dtype=np.int32, count=n))
            cols["start"].append(np.frombuffer(buf.starts, dtype=np.float64, count=n))
            cols["end"].append(np.frombuffer(buf.ends, dtype=np.float64, count=n))
            cols["thread"].append(np.full(n, buf.thread, dtype=np.int32))
        out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
        order = np.argsort(out["id"], kind="stable")
        return {k: v[order] for k, v in out.items()}

    def counts(self) -> dict:
        total: dict = {}
        keys: dict = {}
        for buf in self._buffers:
            for k, v in buf.counts.items():
                total[k] = total.get(k, 0) + v
            for k, v in buf.keys.items():
                keys.setdefault(k, set()).update(v)
        total.update({f"{k}.distinct": len(v) for k, v in keys.items()})
        return total

    def write(self, path: str):
        s = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **s)


# --- counters attached to spans ---------------------------------------------------------

def _count_mul(buf, args, result):
    a, b = args
    if not isinstance(b, jets.Jet):
        buf.add("jets.mul.scalar_count")
        return
    r = result.order
    buf.add("jets.mul.count")
    buf.add(f"jets.mul.count.r{r}")
    if a.c.ndim == 1 and b.c.ndim == 1:
        buf.add("jets.mul.batchfree")
    rows = len(a.space._mul_tables[r][0])
    buf.add("jets.gather_bytes", rows * result.c[0].size * 8)


def _count_geometry(buf, args, result):
    geom = args[0]
    buf.add("finsler.domain_geometry.count")
    buf.key("finsler.domain_geometry",
            (id(geom.fs), geom.x.tobytes(), geom.order, hash(geom.y.tobytes())))


def _count_samples(buf, args, result):
    fs, x, spec, node_index = args
    y, inside, radius = result
    buf.add("quadrature.draws")
    buf.add("quadrature.samples_drawn", inside.size)
    buf.add("quadrature.samples_accepted", int(inside.sum()))
    buf.key("quadrature.streams", (spec.seed, node_index))


# --- aggregation ---------------------------------------------------------------------

def _self_times(parent, thread, start, end):
    """Duration minus the union of the child intervals, per span."""
    n = len(parent)
    dur = end - start
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    cross = has_parent & (thread != thread[safe])
    # children of one thread run one after another: their durations add up
    covered = np.bincount(safe[has_parent], weights=dur[has_parent], minlength=n)
    # children spread over threads may overlap: take the union of their intervals
    for p in np.unique(parent[cross]):
        kids = np.flatnonzero(parent == p)
        kids = kids[np.argsort(start[kids], kind="stable")]
        total, lo, hi = 0.0, start[kids[0]], end[kids[0]]
        for k in kids[1:]:
            if start[k] > hi:
                total += hi - lo
                lo, hi = start[k], end[k]
            else:
                hi = max(hi, end[k])
        covered[p] = total + hi - lo
    return dur - covered


def aggregate(spans: dict, names: list, counts: dict):
    """Per-layer table rows and the per-layer metrics of one traced run."""
    ids = spans["id"]
    if not np.array_equal(ids, np.arange(len(ids))):
        raise RuntimeError("span ids are not dense; a span was left open")
    parent, name = spans["parent"], spans["name"]
    start, end, thread = spans["start"], spans["end"], spans["thread"]
    dur = end - start
    self_t = _self_times(parent, thread, start, end)

    layer_of = np.array([LAYERS.index(nm.split(".")[0]) for nm in names], dtype=np.int64)
    bit_of = [(1 << int(layer_of[k])) | (1 << (len(LAYERS) + NAMED.index(nm))
                                         if nm in NAMED else 0)
              for k, nm in enumerate(names)]
    # ancestor bits (layers and NAMED spans) in id order: parents open before children
    span_bits = [bit_of[k] for k in name.tolist()]
    mask = [0] * len(ids)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            mask[i] = mask[p] | span_bits[p]
    mask = np.array(mask, dtype=np.int64)
    layer = layer_of[name] if len(name) else np.zeros(0, dtype=np.int64)

    def outermost(sel, bit):
        return float(dur[sel & ((mask & bit) == 0)].sum())

    def by_name(nm):
        return name == names.index(nm) if nm in names else np.zeros(len(name), bool)

    def incl(nm):
        return outermost(by_name(nm), 1 << (len(LAYERS) + NAMED.index(nm)))

    def calls(nm):
        return int(by_name(nm).sum())

    def self_s(nm):
        return float(self_t[by_name(nm)].sum())

    rows, metrics = [], {}
    for L, lname in enumerate(LAYERS):
        sel = layer == L
        row = {"layer": lname, "spans": int(sel.sum()), "self_s": float(self_t[sel].sum()),
               "incl_s": outermost(sel, 1 << L)}
        rows.append(row)
        metrics[f"{lname}.self_s"] = row["self_s"]
        metrics[f"{lname}.incl_s"] = row["incl_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    c = counts.get
    products = c("jets.mul.count", 0)
    metrics.update({
        "jets.mul.count": products,
        **{f"jets.mul.count.r{r}": c(f"jets.mul.count.r{r}", 0) for r in range(9)},
        "jets.mul.scalar_count": c("jets.mul.scalar_count", 0),
        "jets.mul.s": self_s("jets.mul"),
        "jets.mul.batchfree_frac": ratio(c("jets.mul.batchfree", 0), products),
        "jets.gather_mib": c("jets.gather_bytes", 0) / 2 ** 20,
        "jets.add.count": calls("jets.add"),
        "jets.add.s": self_s("jets.add"),
        "jets.deriv.count": calls("jets.deriv"),
        "jets.compose.count": calls("jets.compose"),
        "jets.compose.s": self_s("jets.compose"),
        "jets.eval_ast.count": calls("jets.eval_ast"),
        "jets.table_build_s": incl("jets.table_build"),
        "expressions.parse.count": calls("expressions.parse"),
        "expressions.parse.s": self_s("expressions.parse"),
        "expressions.evaluate.count": calls("expressions.evaluate"),
        "expressions.evaluate.s": self_s("expressions.evaluate"),
        "finsler.domain_geometry.count": c("finsler.domain_geometry.count", 0),
        "finsler.domain_geometry.reuse_ratio": ratio(
            c("finsler.domain_geometry.distinct", 0), c("finsler.domain_geometry.count", 0)),
        "finsler.validate_s": incl("finsler.validate"),
        "riemann.partials.count": calls("riemann.partials"),
        "maps.map_geometry.count": calls("maps.map_geometry"),
        "maps.tension.incl_s": incl("maps.tension"),
        "maps.bitension.incl_s": incl("maps.bitension"),
        "maps.hessian.incl_s": incl("maps.hessian"),
        "maps.tension.cov_deriv_s": float(dur[
            by_name("maps.cov_deriv")
            & ((mask & (1 << (len(LAYERS) + NAMED.index("maps.tension")))) != 0)
            & ((mask & (1 << (len(LAYERS) + NAMED.index("maps.cov_deriv")))) == 0)].sum()),
        "identity.tension.count": calls("identity.tension"),
        "identity.tension.incl_s": incl("identity.tension"),
        "quadrature.nodes": c("quadrature.draws", 0),
        "quadrature.integrals": calls("quadrature.assemble"),
        "quadrature.assemble.incl_s": incl("quadrature.assemble"),
        "quadrature.sample_s": incl("quadrature.sample"),
        "quadrature.samples_drawn": c("quadrature.samples_drawn", 0),
        "quadrature.accept_ratio": ratio(c("quadrature.samples_accepted", 0),
                                         c("quadrature.samples_drawn", 0)),
        "quadrature.resample_ratio": ratio(c("quadrature.draws", 0),
                                           c("quadrature.streams.distinct", 0)),
        "cli.config_s": incl("cli.config"),
        "cli.render_s": incl("cli.render"),
    })
    return rows, metrics
