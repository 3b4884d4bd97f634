"""Float-hex snapshot of a fixed set of finvar outputs, to check that a change
moves no bit.

    python tests/snapshot.py OUT.json [--no-tier1]
    python tests/snapshot.py --diff BEFORE.json AFTER.json

Run it from the root of a checkout; it imports finvar from that checkout's
`src` (copy this file into an older checkout to snapshot that one). A
snapshot maps a name to a list of float-hex strings:

- `pointwise-cli/...`: every operation of the `pointwise-cli` benchmark
  pool, all four kinds at all of its points;
- `variation-randers/...`, `hessian-sphere/...`: the benchmark checks at
  quadrature seeds 0, 5 and 11;
- `pointwise/...`: τ, τ₂, JV, the Hessian integrand, Γ and the hh curvature
  on Randers, perturbed, Euclidean and n = 3 custom domains into the sphere
  and a custom codomain, batch-free and batched;
- `tier1/<test id>/<call>`: the (value, stderr) pairs of every quadrature
  estimate the test suite makes (it runs the suite in-process, about a
  minute and a half on two cores; `--no-tier1` leaves it out).

`--diff` counts the names whose values are equal, differ only in the sign
of a zero, differ, or appear in one snapshot only, and lists the latter two.
This file is not a test module: pytest does not collect it.
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 5, 11)
TWO_PI = 2 * math.pi


def _hex(values):
    return [float(v).hex() for v in values]


def _flat(table):
    import numpy as np
    from finvar.finsler import _values
    return np.ravel(_values(table)).tolist()


def benchmark_outputs():
    """The pointwise-cli pool and the two quadrature checks at SEEDS."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    import workloads

    out = {}
    wl = workloads.PointwiseCli()
    ctx = wl.build()
    for kind in workloads.POINTWISE_KINDS:
        for index in range(workloads.POINT_POOL):
            op = wl.execute(ctx, {"kind": kind, "index": index})
            out[f"pointwise-cli/{kind}:{index}"] = _hex(op["values"])
    for name in ("variation-randers", "hessian-sphere"):
        wl = workloads.WORKLOADS[name]
        family = wl.build()
        for seed in SEEDS:
            out[f"{name}/mc{seed}"] = _hex(wl.execute(family, {"mc_seed": seed})["values"])
    return out


def pointwise_outputs():
    """τ, τ₂, JV, the Hessian integrand, Γ and hh on four domains."""
    from finvar.finsler import DomainGeometry, FinslerStructure, TorusChart
    from finvar.maps import MapGeometry, PullbackSection, SmoothMap
    from finvar.riemann import RiemannStructure

    chart = TorusChart((1.0, 1.0))
    domains = {
        "randers": lambda: FinslerStructure.randers(
            [["1", "0"], ["0", "1"]],
            [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"], 2, chart=chart),
        "perturbed": lambda: FinslerStructure.perturbed(
            [["1 + x2^2/4", "x1*x2/8"], ["x1*x2/8", "1 + x1^2/4"]],
            "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2)", 2, chart=chart, scale=0.05),
        "euclidean": lambda: FinslerStructure.euclidean(2, chart=chart),
        "custom-n3": lambda: FinslerStructure.custom(
            "sqrt(y1^2 + y2^2 + y3^2)*(1 + 0.1*sin(x1)*cos(x2) + 0.05*x3)"
            " + 0.1*sin(x2)*y1 + 0.05*y3*cos(x1)", 3, chart=TorusChart((1.0, 1.0, 1.0))),
    }
    codomains = {
        "sphere": lambda: RiemannStructure.sphere(2, 1.0),
        "custom": lambda: RiemannStructure.custom(
            [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"], ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]], 2),
    }
    batches = {"batch-free": [0.8, -0.6, 0.3],
               "batched": [[0.8, -0.3, 1.1], [-0.6, 0.9, 0.2], [0.3, 0.1, -0.7]]}
    V1 = PullbackSection(["sin(x1) + 0.3*y1*y2", "cos(x2)*y1"])
    V2 = PullbackSection(["0.2*cos(x2)*y2", "sin(x1)*x2 + 0.1*y1"])
    out = {}
    for dname, make_fs in domains.items():
        fs = make_fs()
        n, xn = fs.dim, fs.xnames
        for cname, make_rs in codomains.items():
            rs = make_rs()
            phi = SmoothMap([f"0.8 + 0.3*cos({xn[0]}*{TWO_PI!r}) + 0.1*sin({xn[-1]}*{TWO_PI!r})",
                             f"0.2*sin({xn[0]}*{TWO_PI!r}) + 0.25*cos({xn[1]}*{TWO_PI!r})"],
                            fs, rs)
            for bname, y in batches.items():
                key = f"pointwise/{dname}/{cname}/{bname}"
                geom = DomainGeometry(fs, [0.31, 0.77, 0.12][:n], y[:n], 6)
                mg = MapGeometry(phi, geom)
                out[f"{key}/tau"] = _hex(_flat(mg.tension))
                out[f"{key}/tau2"] = _hex(_flat(mg.bitension))
                out[f"{key}/jacobi"] = _hex(_flat(mg.jacobi(V1.jets(mg))))
                out[f"{key}/hessian"] = _hex(_flat(mg.hessian_integrand(V1.jets(mg),
                                                                        V2.jets(mg))))
                if cname == "sphere":
                    out[f"{key}/gamma"] = _hex(_flat(geom.gamma))
                    out[f"{key}/hh"] = _hex(_flat(geom.hh_curvature))
    return out


class _Tier1Recorder:
    """A pytest plugin that records every `quadrature._assemble` result."""

    def __init__(self):
        self.out, self.test, self.calls = {}, None, 0

    def pytest_runtest_setup(self, item):
        self.test, self.calls = item.nodeid, 0

    def install(self):
        from finvar import quadrature

        orig = quadrature._assemble

        def recording(*args, **kwargs):
            ests = orig(*args, **kwargs)
            self.out[f"tier1/{self.test}/{self.calls}"] = _hex(
                v for e in ests for v in (e.value, e.stderr))
            self.calls += 1
            return ests

        quadrature._assemble = recording


def tier1_outputs():
    import pytest

    rec = _Tier1Recorder()
    rec.install()
    pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")], plugins=[rec])
    return rec.out


def diff(before_path, after_path):
    with open(before_path) as fh:
        before = json.load(fh)
    with open(after_path) as fh:
        after = json.load(fh)
    equal, zero_sign, differ = [], [], []
    for key in sorted(set(before) & set(after)):
        a, b = before[key], after[key]
        if a == b:
            equal.append(key)
        elif len(a) == len(b) and all(x == y or float.fromhex(x) == float.fromhex(y) == 0
                                      for x, y in zip(a, b)):
            zero_sign.append(key)
        else:
            differ.append(key)
    only = sorted(set(before) ^ set(after))
    print(f"equal {len(equal)}  zero sign only {len(zero_sign)}  differ {len(differ)}  "
          f"in one snapshot only {len(only)}")
    for label, keys in (("ZERO SIGN", zero_sign), ("DIFFER", differ), ("ONLY IN ONE", only)):
        for key in keys:
            print(f"{label:<12} {key}")
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="snapshot file to write")
    parser.add_argument("--no-tier1", action="store_true", help="leave out the test suite")
    parser.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.diff:
        sys.exit(diff(*args.diff))
    if not args.out:
        parser.error("give an output file or --diff")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    snap = {**benchmark_outputs(), **pointwise_outputs()}
    if not args.no_tier1:
        snap.update(tier1_outputs())
    with open(args.out, "w") as fh:
        json.dump(snap, fh, indent=0, sort_keys=True)
    print(f"{len(snap)} entries written to {args.out}")


if __name__ == "__main__":
    main()
