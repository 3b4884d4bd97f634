"""The benchmark's workloads: inputs drawn from a seed, set-up, warm-up and
the timed operations.

Every input is drawn by the workload seed from a fixed pool whose outputs
are stored in `reference.json` (written by `reference.py`), so `run.py`
checks each operation of every run against a stored reference. The engine
sees only the generated inputs: the quadrature seed of a check, or the point
of a single-point query.

A *pass* is the workload's fixed unit of work: one variational check on the
quadrature workloads, `POINTWISE_POINTS` single-point operations of each kind
on `pointwise-cli`. A timed run repeats passes until its window is used. Every
pass of a run repeats the same operations, in a new order on `pointwise-cli`,
so `run.py` can average each operation's latency over the whole run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re

import numpy as np

from finvar import cli
from finvar import identity as idn
from finvar import maps
from finvar import quadrature as q
from finvar.config import RunConfig
from finvar.finsler import BoxChart, FinslerStructure, PointState, TorusChart
from finvar.maps import PullbackSection, SmoothMap, VariationFamily
from finvar.report import config_hash
from finvar.riemann import RiemannStructure

HERE = os.path.dirname(os.path.abspath(__file__))
README_CONFIG = os.path.join(HERE, "readme_config.json")

TWO_PI = 2 * math.pi
EYE = [["1", "0"], ["0", "1"]]

#: Quadrature seeds of the two check workloads; the workload seed picks among them.
MC_SEEDS = tuple(range(12))
#: Points of the single-point pool, per query family.
POINT_POOL = 48
#: Points per query kind of one `pointwise-cli` run, drawn from the pool by the seed.
POINTWISE_POINTS = 25
POINTWISE_KINDS = ("geom", "tension", "bitension", "identity_tension")


def check_passes(seed):
    """One check per pass, all of a run at the quadrature seed drawn from MC_SEEDS."""
    mc = int(np.random.default_rng(seed).choice(MC_SEEDS))
    while True:
        yield [{"key": f"mc{mc}", "mc_seed": mc}]


# --- variation-randers: first variation, Randers torus -> unit sphere -----------------

class VariationRanders:
    """Criterion 5(b): dE2/de by central differences against the integral of
    <tau2, V>, Randers torus to the unit sphere, two threads over nodes."""

    name = "variation-randers"
    # two threads over nodes, never more than the machine has
    spec = dict(x_resolution=8, y_samples=128, workers=min(2, os.cpu_count() or 1))
    warmup_spec = dict(spec, x_resolution=2, y_samples=16)

    def build(self):
        fs = FinslerStructure.randers(
            EYE, [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"], 2,
            chart=TorusChart((1.0, 1.0)))
        rs = RiemannStructure.sphere(2, 1.0)
        base = [f"0.8 + 0.5*cos(x1*{TWO_PI!r}) + 0.2*sin(x2*{TWO_PI!r})",
                f"0.4*sin(x1*{TWO_PI!r}) + 0.3*cos(x2*{TWO_PI!r})"]
        return VariationFamily(
            [f"{base[0]} + eps1*sin(x1*{TWO_PI!r})",
             f"{base[1]} + eps1*0.7*cos(x2*{TWO_PI!r})"],
            fs, rs, base=SmoothMap(base, fs, rs))

    def warm_up(self, family):
        q.first_variation_check(family, q.QuadratureSpec(seed=0, **self.warmup_spec))

    passes = staticmethod(check_passes)

    def execute(self, family, op):
        spec = q.QuadratureSpec(seed=op["mc_seed"], **self.spec)
        chk = q.first_variation_check(family, spec, h=1e-3)
        bound = max(1e-3 * abs(chk.fd), 3 * chk.stderr)
        return {"values": [chk.fd, chk.analytic, chk.gap, chk.stderr],
                "verdict": chk.gap <= bound,
                "detail": f"gap {chk.gap:.4g} <= bound {bound:.4g}",
                "spec_hash": q._hash_of(spec),
                "structure_hash": q._map_hash(family.base)}


# --- hessian-sphere: second variation, flat torus -> unit sphere ----------------------

class HessianSphere:
    """Criterion 10: mixed second difference of E2 against H(V1, V2) at a
    constant biharmonic map, flat torus to the unit sphere, one thread."""

    name = "hessian-sphere"
    spec = dict(x_resolution=3, y_samples=16, workers=1)

    def build(self):
        fs = FinslerStructure.euclidean(2, chart=TorusChart((1.0, 1.0)))
        rs = RiemannStructure.sphere(2, 1.0)
        base = SmoothMap(["x1*0 + 0.4", "x1*0 - 0.2"], fs, rs)
        return VariationFamily(
            [f"0.4 + eps1*sin(x1*{TWO_PI!r}) + 0.3*eps2*cos(x2*{TWO_PI!r})",
             f"-0.2 + eps2*sin(x2*{TWO_PI!r}) + 0.2*eps1*cos(x1*{TWO_PI!r})"],
            fs, rs, base=base)

    def warm_up(self, family):
        # one point at each jet order the check reaches: 4 (bienergy),
        # 6 (the biharmonic precondition) and 8 (the Hessian integrand)
        p = PointState([0.3, 0.6], [0.8, -0.6])
        V1 = PullbackSection(family.deviation_field(1))
        V2 = PullbackSection(family.deviation_field(2))
        maps.tension(family.base, p)
        maps.bitension(family.base, p)
        maps.hessian_integrand(family.base, V1, V2, p)

    passes = staticmethod(check_passes)

    def execute(self, family, op):
        spec = q.QuadratureSpec(seed=op["mc_seed"], **self.spec)
        chk = q.second_variation_check(family, spec, h=1e-3)
        bound = max(1e-3 * max(1.0, abs(chk.fd)), 3 * chk.stderr)
        sym = chk.extras["symmetry_gap"]
        return {"values": [chk.fd, chk.analytic, chk.gap, chk.stderr,
                           chk.extras["h21"], sym],
                "verdict": chk.gap <= bound and sym <= bound,
                "detail": f"gap {chk.gap:.4g}, symmetry {sym:.4g} <= bound {bound:.4g}",
                "spec_hash": q._hash_of(spec),
                "structure_hash": q._map_hash(family.base)}


# --- pointwise-cli: single-point CLI queries and identity-map tension ------------------

_NUMBER = re.compile(r"(?<![A-Za-z_\d.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _csv_numbers(text: str):
    """Every number of a CSV report: value, bound, stderr and those printed in details."""
    out = []
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        for cell in row[2:5]:
            if cell:
                out.append(float(cell))
        out.extend(float(t) for t in _NUMBER.findall(row[5]))
    return out


def point_pool():
    """Fixed query points: (x, y) on the README torus, and box points for the
    identity-map perturbation of criterion 8. Independent of the workload seed."""
    rng = np.random.default_rng(20261017)
    torus, box = [], []
    for _ in range(POINT_POOL):
        y = rng.normal(size=2)
        torus.append((rng.uniform(0.0, 1.0, size=2), y / np.linalg.norm(y) * rng.uniform(0.7, 1.5)))
        y = rng.normal(size=2)
        box.append((rng.uniform(-0.8, 0.8, size=2), y / np.linalg.norm(y)))
    return torus, box


class PointwiseCli:
    """In-process `finvar geom|tension|bitension --point` on the README config
    (CSV reports), and `identity_tension` on the criterion-8 perturbation."""

    name = "pointwise-cli"

    def build(self):
        torus, box = point_pool()
        setup = idn.PerturbationSetup(
            [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"], ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]],
            "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2) + 0.2*sin(x1)*y1^3*y2/(y1^2 + y2^2)",
            2, chart=BoxChart(((-1.0, 1.0), (-1.0, 1.0))), scale=0.05)
        return {"torus": torus, "box": box, "setup": setup}

    def warm_up(self, ctx):
        for kind in POINTWISE_KINDS:
            self.execute(ctx, {"kind": kind, "index": 0})

    def passes(self, seed):
        """The seed draws POINTWISE_POINTS points per kind; each pass makes
        every one of those operations once, in a new seeded order."""
        rng = np.random.default_rng(seed)
        ops = [{"key": f"{kind}:{index}", "kind": kind, "index": int(index)}
               for kind in POINTWISE_KINDS
               for index in sorted(rng.choice(POINT_POOL, POINTWISE_POINTS, replace=False))]
        while True:
            yield [ops[i] for i in rng.permutation(len(ops))]

    def execute(self, ctx, op):
        kind = op["kind"]
        if kind == "identity_tension":
            x, y = ctx["box"][op["index"]]
            rep = idn.identity_tension(ctx["setup"], PointState(x, y))
            worst = max(rep.discrepancy_b_conn, rep.discrepancy_b_general,
                        rep.discrepancy_conn_general)
            scale = max(1.0, float(np.max(np.abs(rep.tau_route_b))))
            values = [*rep.tau_route_b, *rep.tau_route_conn, *rep.tau_route_general,
                      rep.discrepancy_b_conn, rep.discrepancy_b_general,
                      rep.discrepancy_conn_general]
            return {"values": [float(v) for v in values],
                    "verdict": worst <= 1e-8 * scale,
                    "detail": f"route gap {worst:.3g}"}
        x, y = ctx["torus"][op["index"]]
        point = ",".join(repr(float(v)) for v in (*x, *y))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([kind, "--config", README_CONFIG, "--point", point,
                             "--format", "csv"])
        return {"values": _csv_numbers(buf.getvalue()), "verdict": code == 0,
                "detail": f"exit {code}"}

    @staticmethod
    def config_hash():
        return config_hash(RunConfig.from_file(README_CONFIG).canonical_json())


WORKLOADS = {w.name: w for w in (VariationRanders(), HessianSphere(), PointwiseCli())}
