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
  quadrature seeds 0, 5 and 11, at the benchmark's worker count and at 1
  and 3 (`w1/`, `w3/`), so a diff covers stacks of several nodes at one and
  at several strides;
- `readme/bienergy/4096`: the README config's bienergy at 4,096 fibers a
  node, each node a stack of one, whose large products run in blocks;
- `pointwise/...`: τ, τ₂, JV, the Hessian integrand, Γ and the hh curvature
  on Randers, perturbed, Euclidean and n = 3 custom domains into the sphere
  and a custom codomain, batch-free and batched;
- `plain/...`: `expressions.evaluate` and `jets.eval_ast` over a fixed
  expression list (constant powers included), `f2_value` at a fixed fiber
  batch, `arc_length` and `integrate` of an expression on each domain, and
  the codomain's Christoffel symbols, curvature and sectional curvature at
  fixed points;
- `cli/<config>/<command>`: the CSV report of `tension`, `bitension`,
  `identity-analysis` and every `check` suite (no `--point`) on the README
  config, the perturbed config with no `a`, a constant `a` and an
  x-dependent `a`, an n = 3 custom domain, a biharmonic flat-torus family
  and a map whose |τ|² overflows: the exit code, then each row's value,
  bound and stderr and every number in its detail;
- `cli/repeat/<command>/<call>`: the same for `geom`, `tension` and
  `bitension` at two points on the README config and for
  `identity-analysis` on the perturbed config, each called twice in one
  process, so a diff covers calls that reuse a config;
- `tier1/<test id>/<call>`: the (value, stderr) pairs of every quadrature
  estimate the test suite makes (it runs the suite in-process, about a
  minute and a half on two cores; `--no-tier1` leaves it out).

`--diff` counts the names whose values are equal, differ only in the sign
of a zero, differ, or appear in one snapshot only, and lists the latter two.
This file is not a test module: pytest does not collect it.
"""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
import tempfile

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
        # the same checks at 1 and 3 strides, whatever the CPU count
        cpu_count, os.cpu_count = os.cpu_count, lambda: 8
        try:
            for workers in (1, 3):
                wl.spec = dict(type(wl).spec, workers=workers)
                for seed in SEEDS:
                    out[f"{name}/w{workers}/mc{seed}"] = _hex(
                        wl.execute(family, {"mc_seed": seed})["values"])
        finally:
            os.cpu_count = cpu_count
            vars(wl).pop("spec", None)
    return out


def readme_bienergy():
    """The README config's bienergy at 4,096 fibers a node, where every node
    is over the stack budget and is a stack of one."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from finvar import quadrature
    from finvar.config import RunConfig
    import workloads

    cfg = RunConfig.from_file(workloads.README_CONFIG)
    spec = dataclasses.replace(cfg.quadrature_spec(), y_samples=4096)
    est = quadrature.bienergy(cfg.smooth_map(), spec)
    return {"readme/bienergy/4096": _hex([est.value, est.stderr])}


def _domains():
    from finvar.finsler import FinslerStructure, TorusChart

    chart = TorusChart((1.0, 1.0))
    return {
        "randers": FinslerStructure.randers(
            [["1", "0"], ["0", "1"]],
            [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"], 2, chart=chart),
        "perturbed": FinslerStructure.perturbed(
            [["1 + x2^2/4", "x1*x2/8"], ["x1*x2/8", "1 + x1^2/4"]],
            "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2)", 2, chart=chart, scale=0.05),
        "euclidean": FinslerStructure.euclidean(2, chart=chart),
        "custom-n3": FinslerStructure.custom(
            "sqrt(y1^2 + y2^2 + y3^2)*(1 + 0.1*sin(x1)*cos(x2) + 0.05*x3)"
            " + 0.1*sin(x2)*y1 + 0.05*y3*cos(x1)", 3, chart=TorusChart((1.0, 1.0, 1.0))),
    }


def _codomains():
    from finvar.riemann import RiemannStructure

    return {
        "sphere": RiemannStructure.sphere(2, 1.0),
        "custom": RiemannStructure.custom(
            [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"], ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]], 2),
    }


def pointwise_outputs():
    """τ, τ₂, JV, the Hessian integrand, Γ and hh on four domains."""
    from finvar.finsler import DomainGeometry
    from finvar.maps import MapGeometry, PullbackSection, SmoothMap

    batches = {"batch-free": [0.8, -0.6, 0.3],
               "batched": [[0.8, -0.3, 1.1], [-0.6, 0.9, 0.2], [0.3, 0.1, -0.7]]}
    V1 = PullbackSection(["sin(x1) + 0.3*y1*y2", "cos(x2)*y1"])
    V2 = PullbackSection(["0.2*cos(x2)*y2", "sin(x1)*x2 + 0.1*y1"])
    out = {}
    for dname, fs in _domains().items():
        n, xn = fs.dim, fs.xnames
        for cname, rs in _codomains().items():
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


PLAIN_EXPRESSIONS = (
    "0.3^-2*x1", "0.7^-2*x1", "1.3^3*x2 + 0.9^-3", "(2 + x2)^0.5*1.7^2.5",
    "atan(0.4)*x1", "x1^2*x2 - 3/x2", "sqrt(x1^2 + x2^2)", "exp(0.5*x1)*sin(x2)",
    "log(1 + x1^2)*atan(x2)", "tan(0.2*x1)/(2 + cos(x2))", "(1 + x1^2)^-1.5",
)


def plain_outputs():
    """Plain evaluation: expressions, F², arc length, an integral, and the
    codomain's pointwise geometry."""
    import numpy as np
    from finvar import expressions as ex
    from finvar import jets as jt
    from finvar import quadrature, riemann
    from finvar.finsler import arc_length

    names = ("x1", "x2")
    x = {"x1": np.array([0.3, -0.7, 1.1]), "x2": np.array([0.45, 1.6, -0.2])}
    env = jt.jet_space(names, 2).point_env(x)
    out = {}
    for i, source in enumerate(PLAIN_EXPRESSIONS):
        node = ex.parse(source, names)
        out[f"plain/evaluate/{i}"] = _hex(np.ravel(ex.evaluate(node, x)))
        out[f"plain/eval_ast/{i}"] = _hex(np.ravel(jt.eval_ast(node, env).c))
    y = np.array([[0.8, -0.3, 1.1, 0.05], [-0.6, 0.9, 0.2, -0.4], [0.3, 0.1, -0.7, 0.5]])
    curve = ["0.3 + 0.2*cos(t)", "0.5 + 0.1*sin(2*t)", "0.2 + 0.1*t"]
    integrand = "x1*y1^2 + cos(x2)*y2^2 + 0.5"
    spec = quadrature.QuadratureSpec(x_resolution=3, y_samples=64, seed=3)
    for dname, fs in _domains().items():
        n = fs.dim
        out[f"plain/{dname}/f2_value"] = _hex(np.ravel(fs.f2_value([0.31, 0.77, 0.12][:n],
                                                                   y[:n])))
        out[f"plain/{dname}/arc_length"] = _hex([arc_length(fs, curve[:n], 0.0, 1.5)])
        est = quadrature.integrate(integrand, fs, spec)
        out[f"plain/{dname}/integrate"] = _hex([est.value, est.stderr])
    for cname, rs in _codomains().items():
        for k, p in enumerate(([0.3, -0.2], [1.1, 0.4])):
            key = f"plain/{cname}/{k}"
            out[f"{key}/christoffel"] = _hex(np.ravel(riemann.christoffel(rs, p)))
            field = riemann.curvature(rs, p)
            out[f"{key}/curvature"] = _hex(np.ravel(field.riemann))
            out[f"{key}/nabla_curvature"] = _hex(np.ravel(field.nabla))
            out[f"{key}/sectional"] = _hex([riemann.sectional_curvature(rs, p, [1.0, 0.2],
                                                                        [-0.3, 0.8])])
    return out


_PERTURBED_BASE = [["2 + sin(x1)*cos(x2)/2", "x1*x2/4"],
                   ["x1*x2/4", "2 + exp(x1/3)/2 + x2^2/5"]]
_PERTURBED_B = "(0.3*x1 + 0.1*x2^2)*y1^4/(y1^2 + y2^2) + 0.2*sin(x1)*y1^3*y2/(y1^2 + y2^2)"
_PERTURBED = {
    "dimension": 2,
    "domain": {"type": "perturbed", "matrix": _PERTURBED_BASE, "b": _PERTURBED_B,
               "scale": 0.05, "chart": {"type": "box", "bounds": [[-1.0, 1.0], [-1.0, 1.0]]}},
    "codomain": {"type": "custom", "matrix": _PERTURBED_BASE},
    "map": {"components": ["x1/2 + x2^2/5", "x2/2 - x1^2/5"]},
    "perturbation": {"b": f"0.05*({_PERTURBED_B})", "c_grid": [1e-2, 5e-3, 2.5e-3]},
}
_SMALL_SPEC = {"x_resolution": 3, "y_samples": 48, "seed": 5}


def _cli_configs():
    """Configs of the `cli/...` entries, each with the blocks its commands read."""
    with open(os.path.join(ROOT, "benchmarks", "readme_config.json")) as fh:
        readme = json.load(fh)
    phi = readme["map"]["components"]
    readme.update({
        "variation": {"components": [f"{phi[0]} + eps1*sin(x1*{TWO_PI!r})",
                                     f"{phi[1]} + eps1*0.7*cos(x2*{TWO_PI!r})"]},
        "sections": {"X": [f"sin(x1*{TWO_PI!r})", "0.5*cos(x2)*x1"],
                     "Y": ["0.4*cos(x2)", f"sin(x1*{TWO_PI!r})*x2"],
                     "f": f"sin(x1*{TWO_PI!r})*cos(x2*{TWO_PI!r})"},
        "quadrature": _SMALL_SPEC})

    def perturbed(a):
        cfg = json.loads(json.dumps(_PERTURBED))
        if a is not None:
            cfg["perturbation"]["a"] = a
        return cfg

    torus3 = {"type": "torus", "periods": [1.0, 1.0, 1.0]}
    return {
        "readme": readme,
        "perturbed-no-a": perturbed(None),
        "perturbed-const-a": perturbed(["0.1", "-0.05"]),
        "perturbed-x-a": perturbed(["0.1*x1 + 0.02*x2^2", "-0.05*sin(x2)"]),
        "custom-n3": {
            "dimension": 3,
            "domain": {"type": "custom", "chart": torus3,
                       "f": "sqrt(y1^2 + y2^2 + y3^2)*(1 + 0.1*sin(x1)*cos(x2) + 0.05*x3)"
                            " + 0.1*sin(x2)*y1 + 0.05*y3*cos(x1)"},
            "codomain": {"type": "sphere", "dimension": 2, "radius": 1.3},
            "map": {"components": [f"0.8 + 0.3*cos(x1*{TWO_PI!r}) + 0.1*sin(x3*{TWO_PI!r})",
                                   f"0.2*sin(x1*{TWO_PI!r}) + 0.25*cos(x2*{TWO_PI!r})"]},
            "sections": {"X": ["sin(x1)", "cos(x2)*x3", "0.3*x1"]},
            "perturbation": {"b": "0.05*(x1 + 0.2*x3)*y1^4/(y1^2 + y2^2 + y3^2)",
                             "a": ["0.1", "-0.05", "0.02*x3"]},
            "quadrature": _SMALL_SPEC},
        "hessian-sphere": {
            "dimension": 2,
            "domain": {"type": "euclidean", "chart": {"type": "torus", "periods": [1.0, 1.0]}},
            "codomain": {"type": "sphere", "radius": 1.0},
            "map": {"components": ["0.4", "-0.2"]},
            "variation": {"components": [
                f"0.4 + eps1*sin(x1*{TWO_PI!r}) + 0.3*eps2*cos(x2*{TWO_PI!r})",
                f"-0.2 + eps2*sin(x2*{TWO_PI!r}) + 0.2*eps1*cos(x1*{TWO_PI!r})"]},
            "quadrature": {"x_resolution": 3, "y_samples": 16, "seed": 3}},
        "overflow": {
            "dimension": 2,
            "domain": {"type": "euclidean", "chart": {"type": "torus", "periods": [1.0, 1.0]}},
            "codomain": {"type": "euclidean"},
            "map": {"components": ["1e200*x1^4", "x2"]}},
    }


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _csv_report(argv):
    """The exit code of the CLI call `argv` (CSV format), then each row's
    value, bound and stderr and every number in its detail."""
    from finvar import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--format", "csv"])
    values = [code]
    for row in list(csv.DictReader(io.StringIO(stdout.getvalue()))):
        values += [row[k] for k in ("value", "bound", "stderr") if row[k]]
        values += _NUMBER.findall(row["detail"])
    return _hex(values)


def cli_outputs():
    """The CSV reports of the commands without `--point` on `_cli_configs`,
    and of repeated calls in one process: `geom`, `tension` and `bitension`
    at two points on the README config and `identity-analysis` on the
    perturbed config, each run twice (`cli/repeat/<command>/<call>`)."""
    from finvar import cli

    commands = [["tension"], ["bitension"], ["identity-analysis"]] + [
        ["check", suite] for suite in cli.SUITES]
    points = ("0.2,0.7,1.0,-0.3", "0.61,0.05,-0.4,0.9")
    repeats = [("readme", [command, "--point", p]) for command in ("geom", "tension", "bitension")
               for p in points] + [("perturbed-x-a", ["identity-analysis"])]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cname, config in _cli_configs().items():
            path = os.path.join(tmp, f"{cname}.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            for command in commands:
                out[f"cli/{cname}/{' '.join(command)}"] = _csv_report([*command, "--config", path])
        for call in (1, 2):
            for cname, argv in repeats:
                path = os.path.join(tmp, f"{cname}.json")
                out[f"cli/repeat/{' '.join(argv)}/{call}"] = _csv_report([*argv, "--config", path])
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
    snap = {**benchmark_outputs(), **readme_bienergy(), **pointwise_outputs(),
            **plain_outputs(), **cli_outputs()}
    if not args.no_tier1:
        snap.update(tier1_outputs())
    with open(args.out, "w") as fh:
        json.dump(snap, fh, indent=0, sort_keys=True)
    print(f"{len(snap)} entries written to {args.out}")


if __name__ == "__main__":
    main()
