"""Command-line front end.

Commands: geom, tension, bitension, energy, bienergy, check <suite>,
identity-analysis.  Exit codes: 0 all checks pass, 1 check failure,
2 configuration error, 3 numerical failure or internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import warnings

import numpy as np

from . import __version__
from . import expressions as ex
from . import finsler as fi
from . import jets as jt
from . import quadrature as q
from .config import RunConfig
from .errors import (ChartError, ConfigError, DomainEvalError, ExpressionError,
                     OrderLimitError, QuadratureError, SingularMetricError)
from .finsler import ORDER_TABLE, DomainGeometry, PointState, _values, order_for
from .identity import IdentityGeometry, identity_tension, linearized_scaling
from .maps import MapGeometry, PullbackSection, tension_report
from .report import FAIL, INFO, PASS, Report, config_hash

SUITES = ("first-variation", "second-variation", "self-adjoint", "weitzenbock",
          "divergence", "invariants", "identity")


def _fmt(arr) -> str:
    return np.array2string(np.asarray(arr), precision=8, separator=", ",
                           suppress_small=True, max_line_width=10 ** 6)


def _parse_point(text: str, dim: int):
    parts = text.split(",")
    if any(p.strip() == "" for p in parts):
        raise ConfigError(f"--point has an empty field: {text!r}")
    if len(parts) != 2 * dim:
        raise ConfigError(f"--point expects {2 * dim} comma-separated values "
                          f"(x1..x{dim},y1..y{dim}), got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as err:
        raise ConfigError(f"--point: {err}") from err
    bad = [v for v in vals if not np.isfinite(v)]
    if bad:
        raise ConfigError(f"--point: non-finite value {bad[0]}")
    return np.array(vals[:dim]), np.array(vals[dim:])


def _finite(what: str, x, y, *values):
    """Raise DomainEvalError unless every entry of `values`, the numbers a
    report shows for the point (x, y), is finite."""
    for v in values:
        if not np.all(np.isfinite(v)):
            raise DomainEvalError(f"non-finite {what} at x={_fmt(x)} y={_fmt(y)}")


# --- commands -------------------------------------------------------------------


def cmd_geom(cfg: RunConfig, rep: Report, args):
    fs = cfg.finsler()
    if args.point:
        x, y = _parse_point(args.point, cfg.dimension)
    else:
        x, y = cfg.sample_points(1)[0]
    p = PointState(x, y)
    geom = DomainGeometry(fs, p.x, p.y, order_for("metric", "connection", "curvature"))
    md, cd, cv = fi._metric_data(geom), fi._connection_data(geom), fi._curvature_data(geom)
    _finite("geometry", x, y, md.g, md.ginv, md.detg, md.y_low,
            *vars(cd).values(), *vars(cv).values())
    rep.add("point", INFO, detail=f"x={_fmt(x)} y={_fmt(y)}")
    rep.add("metric.g", INFO, detail=_fmt(md.g))
    rep.add("metric.ginv", INFO, detail=_fmt(md.ginv))
    rep.add("metric.detg", INFO, value=md.detg)
    rep.add("metric.y_low", INFO, detail=_fmt(md.y_low))
    rep.add("connection.spray", INFO, detail=_fmt(cd.spray))
    rep.add("connection.nonlinear", INFO, detail=_fmt(cd.nonlinear))
    rep.add("connection.chern_rund", INFO, detail=_fmt(cd.chern_rund))
    rep.add("connection.berwald", INFO, detail=_fmt(cd.berwald))
    rep.add("connection.torsion", INFO, detail=_fmt(cd.torsion))
    rep.add("connection.torsion_trace", INFO, detail=_fmt(cd.torsion_trace))
    rep.add("connection.bracket", INFO, detail=_fmt(cd.bracket))
    rep.add("curvature.hh", INFO, detail=_fmt(cv.hh))
    rep.add("curvature.hv", INFO, detail=_fmt(cv.hv))


def cmd_tension(cfg: RunConfig, rep: Report, args, with_bitension: bool):
    map = cfg.smooth_map()
    if args.point:
        points = [_parse_point(args.point, cfg.dimension)]
    else:
        points = cfg.sample_points(10)
    order = ORDER_TABLE["bitension" if with_bitension else "tension"]
    tau_max = 0.0
    tau2_max = 0.0
    for x, y in points:
        report = tension_report(MapGeometry(map, DomainGeometry(map.fs, x, y, order)),
                                with_bitension)
        _finite("tension", x, y, report.tau, report.tau_norm)
        norm = float(report.tau_norm)
        tau_max = max(tau_max, norm)
        detail = f"x={_fmt(x)} y={_fmt(y)} tau={_fmt(report.tau)}"
        if with_bitension:
            _finite("bitension", x, y, report.tau2, report.tau2_norm)
            tau2_max = max(tau2_max, float(report.tau2_norm))
            detail += f" tau2={_fmt(report.tau2)}"
        rep.add("sample", INFO, value=norm, detail=detail)
    tol = cfg.tolerances["harmonic"]
    rep.add("harmonic", INFO, value=tau_max, bound=tol,
            detail="yes" if tau_max <= tol else "no")
    if with_bitension:
        tol2 = cfg.tolerances["biharmonic"]
        rep.add("biharmonic", INFO, value=tau2_max, bound=tol2,
                detail="yes" if tau2_max <= tol2 else "no")


def cmd_energy(cfg: RunConfig, rep: Report, args, functional):
    map = cfg.smooth_map()
    est = functional(map, cfg.quadrature_spec(args.seed))
    rep.add(functional.__name__, INFO, value=est.value, stderr=est.stderr,
            detail=f"x_nodes={est.x_nodes} y_samples={est.y_samples} "
                   f"spec={est.spec_hash}")


# --- check suites --------------------------------------------------------------


def _suite_invariants(cfg: RunConfig, rep: Report, args):
    fs = cfg.finsler()
    tol = cfg.tolerances["structural"]
    test_field = ex.parse("sin(x1)*y2^2/(y1^2 + y2^2) + cos(x2)*y1",
                          list(fs.xnames) + list(fs.ynames))
    worst = {"euler": 0.0, "delta_f2": 0.0, "h_metricity": 0.0, "bracket": 0.0}
    n = fs.dim
    # the map's domain is `fs` itself, so one geometry per point serves every row
    map = cfg.smooth_map() if "map" in cfg.data else None
    worst_tau = 0.0
    for x, y in cfg.sample_points(20):
        geom = DomainGeometry(fs, x, y, ORDER_TABLE["invariants"])
        f2 = float(_values(geom.f2))
        gyy = float(_values(jt.sum_terms(
            [geom.g[i][j] * geom.env[fs.ynames[i]] * geom.env[fs.ynames[j]]
             for i in range(n) for j in range(n)])))
        worst["euler"] = max(worst["euler"], abs(gyy - f2) / abs(f2))
        for i in range(n):
            worst["delta_f2"] = max(worst["delta_f2"],
                                    abs(float(_values(geom.delta(geom.f2, i)))) / abs(f2))
        gscale = max(1.0, max(abs(float(_values(geom.g[i][j])))
                              for i in range(n) for j in range(n)))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    resid = geom.delta(geom.g[i][j], k) \
                        - jt.sum_terms([geom.gamma[l][k][i] * geom.g[l][j]
                                        + geom.gamma[l][k][j] * geom.g[i][l]
                                        for l in range(n)])
                    worst["h_metricity"] = max(worst["h_metricity"],
                                               abs(float(_values(resid))) / gscale)
        fj = jt.eval_ast(test_field, geom.env)
        for j in range(n):
            for k in range(n):
                lhs = geom.delta(geom.delta(fj, k), j) - geom.delta(geom.delta(fj, j), k)
                rhs = jt.sum_terms([geom.Rjk[i][j][k] * fj.deriv(fs.ynames[i])
                                    for i in range(n)])
                scale = max(1.0, abs(float(_values(lhs))))
                worst["bracket"] = max(worst["bracket"],
                                       abs(float(_values(lhs)) - float(_values(rhs))) / scale)
        if map is not None:
            mg = MapGeometry(map, geom)
            tau = _values(mg.tension)
            gap = float(np.max(np.abs(tau - _values(mg.tension_divergence_form()))))
            worst_tau = max(worst_tau, gap / max(1.0, float(np.max(np.abs(tau)))))
    for name, value in worst.items():
        rep.check(name, value, tol)
    if map is not None:
        rep.check("tension_vs_divergence_form", worst_tau, tol)
    if "perturbation" in cfg.data:
        setup = cfg.perturbation()
        worst33 = worst_split = 0.0
        for x, y in cfg.sample_points(20):
            ig = IdentityGeometry(setup, x, y, ORDER_TABLE["invariants"])
            worst33 = max(worst33, float(np.max(np.abs(ig.eq33_residual()))))
            worst_split = max(worst_split,
                              float(np.max(np.abs(ig.spray_split_residual()))))
        rep.check("adapted_derivative_of_f2", worst33, tol)
        rep.check("spray_split", worst_split, tol)


def _suite_weitzenbock(cfg: RunConfig, rep: Report, args):
    map = cfg.smooth_map()
    tol = cfg.tolerances["weitzenbock"]
    worst = 0.0
    scale = 1.0
    for x, y in cfg.sample_points(20):
        mg = MapGeometry(map, DomainGeometry(map.fs, x, y, ORDER_TABLE["weitzenbock"]))
        resid = float(np.max(np.abs(np.asarray(mg.weitzenbock_residual()))))
        scale = max(scale, abs(float(_values(mg.inner(mg.tension, mg.tension)))))
        worst = max(worst, resid)
    rep.check("weitzenbock_residual", worst, tol * scale,
              detail=f"scale={scale:.3e}")


def _suite_first_variation(cfg: RunConfig, rep: Report, args):
    family = cfg.family()
    spec = cfg.quadrature_spec(args.seed)
    chk = q.first_variation_check(family, spec)
    bound = max(cfg.tolerances["first_variation_rel"] * abs(chk.fd), 3 * chk.stderr)
    rep.check("first_variation_gap", chk.gap, bound, stderr=chk.stderr,
              detail=f"fd={chk.fd:.8e} analytic={chk.analytic:.8e}")


def _suite_second_variation(cfg: RunConfig, rep: Report, args):
    family = cfg.family()
    spec = cfg.quadrature_spec(args.seed)
    chk = q.second_variation_check(family, spec)
    scale = max(abs(chk.fd), abs(chk.analytic), 1.0)
    bound = max(cfg.tolerances["second_variation_rel"] * scale, 3 * chk.stderr)
    rep.check("second_variation_gap", chk.gap, bound, stderr=chk.stderr,
              detail=f"fd={chk.fd:.8e} analytic={chk.analytic:.8e}")
    rep.check("hessian_symmetry_gap", chk.extras["symmetry_gap"], bound)


def _suite_self_adjoint(cfg: RunConfig, rep: Report, args):
    map = cfg.smooth_map()
    X, Y = (PullbackSection(cfg.section(key, map.rs.dim)) for key in ("X", "Y"))
    out = q.self_adjointness_check(map, X, Y, cfg.quadrature_spec(args.seed))
    scale = max(1.0, abs(out["laplacian_xy"]), abs(out["jacobi_xy"]))
    bound = 3 * out["stderr"] + 1e-6 * scale
    rep.check("laplacian_adjoint_gap", out["laplacian_gap"], bound,
              stderr=out["stderr"])
    rep.check("jacobi_adjoint_gap", out["jacobi_gap"], bound, stderr=out["stderr"])
    ok = out["positivity"] >= -3 * out["stderr"]
    rep.add("laplacian_positivity", PASS if ok else FAIL, value=out["positivity"],
            bound=-3 * out["stderr"], detail="expect value >= bound")


def _suite_divergence(cfg: RunConfig, rep: Report, args):
    fs = cfg.finsler()
    out = q.divergence_theorem_check(fs, cfg.section("X", fs.dim), cfg.quadrature_spec(args.seed),
                                     f=cfg.data.get("sections", {}).get("f"))
    rep.check("divergence_integral", abs(out["divergence_integral"]),
              3 * out["divergence_stderr"] + 1e-12,
              stderr=out["divergence_stderr"])
    if "laplacian_integral" in out:
        rep.check("laplacian_integral", abs(out["laplacian_integral"]),
                  3 * out["laplacian_stderr"] + 1e-12,
                  stderr=out["laplacian_stderr"])


def _suite_identity(cfg: RunConfig, rep: Report, args):
    setup, c_grid = cfg.perturbation(), cfg.c_grid()
    tol = cfg.tolerances["identity_routes"]
    worst = {"route_b_vs_conn": 0.0, "route_b_vs_general": 0.0,
             "adapted_derivative_of_f2": 0.0, "tension_derivative": 0.0,
             "spray_split": 0.0}
    worst35 = worst_pred = 0.0
    order = order_for("identity_tension", "identity_residuals", "condition35")
    for x, y in cfg.sample_points(10):
        ig = IdentityGeometry(setup, x, y, order)
        itr = ig.tension_report()
        worst["route_b_vs_conn"] = max(worst["route_b_vs_conn"], itr.discrepancy_b_conn)
        worst["route_b_vs_general"] = max(worst["route_b_vs_general"],
                                          itr.discrepancy_b_general)
        worst["adapted_derivative_of_f2"] = max(
            worst["adapted_derivative_of_f2"], float(np.max(np.abs(ig.eq33_residual()))))
        worst["tension_derivative"] = max(
            worst["tension_derivative"], float(np.max(np.abs(ig.eq34_residual()))))
        worst["spray_split"] = max(worst["spray_split"],
                                   float(np.max(np.abs(ig.spray_split_residual()))))
        if setup.a_asts is not None:
            residual, tau_pred = ig.condition35_residual()
            worst35 = max(worst35, float(np.max(np.abs(residual))))
            worst_pred = max(worst_pred, float(np.max(np.abs(itr.tau_route_b - tau_pred))))
    for name, value in worst.items():
        rep.check(name, value, tol)
    if setup.a_asts is not None:
        rep.check("proportionality_residual", worst35, tol)
        rep.check("predicted_tension_gap", worst_pred, tol)
    sc = linearized_scaling(setup, c_grid=c_grid)
    lo, hi = cfg.tolerances["slope_tau_low"], cfg.tolerances["slope_tau_high"]
    ok = lo <= sc.slope_tau <= hi
    rep.add("scaling_slope_tau", PASS if ok else FAIL, value=sc.slope_tau,
            detail=f"band [{lo}, {hi}]")
    lo2, hi2 = cfg.tolerances["slope_tau2_low"], cfg.tolerances["slope_tau2_high"]
    ok2 = lo2 <= sc.slope_tau2 <= hi2
    rep.add("scaling_slope_tau2", PASS if ok2 else FAIL, value=sc.slope_tau2,
            detail=f"band [{lo2}, {hi2}]")


def cmd_identity_analysis(cfg: RunConfig, rep: Report, args):
    setup, c_grid = cfg.perturbation(), cfg.c_grid()
    if args.point:
        x, y = _parse_point(args.point, cfg.dimension)
    else:
        x, y = cfg.sample_points(1)[0]
    itr = identity_tension(setup, PointState(x, y))
    rep.add("tau_via_b_field", INFO, detail=_fmt(itr.tau_route_b))
    rep.add("tau_via_connection_difference", INFO, detail=_fmt(itr.tau_route_conn))
    rep.add("tau_via_general_tension", INFO, detail=_fmt(itr.tau_route_general))
    rep.add("route_discrepancy_b_conn", INFO, value=itr.discrepancy_b_conn)
    rep.add("route_discrepancy_b_general", INFO, value=itr.discrepancy_b_general)
    rep.add("notation", INFO, detail=itr.notation_note)
    sc = linearized_scaling(setup, c_grid=c_grid)
    for c, t, t2 in zip(sc.c_grid, sc.tau_sup, sc.tau2_sup):
        rep.add("scaling_row", INFO, value=c,
                detail=f"tau_sup={t:.8e} tau2_sup={t2:.8e}")
    rep.add("slope_tau", INFO, value=sc.slope_tau)
    rep.add("slope_tau2", INFO, value=sc.slope_tau2)


_SUITE_FNS = {
    "invariants": _suite_invariants,
    "weitzenbock": _suite_weitzenbock,
    "first-variation": _suite_first_variation,
    "second-variation": _suite_second_variation,
    "self-adjoint": _suite_self_adjoint,
    "divergence": _suite_divergence,
    "identity": _suite_identity,
}


# --- entry point -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, as nothing in it depends on argv."""
    parser = argparse.ArgumentParser(
        prog="finvar",
        description="Finsler-to-Riemann harmonic/biharmonic map verification engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--point", default=None,
                       help="comma-separated x1,..,xn,y1,..,yn")
        p.add_argument("--format", default="text", choices=("json", "text", "csv"))
        p.add_argument("--seed", default=None, type=int,
                       help="override the quadrature seed")
        p.add_argument("--out", default=None, help="also write the report here")

    for name in ("geom", "tension", "bitension", "energy", "bienergy",
                 "identity-analysis"):
        common(sub.add_parser(name))
    pc = sub.add_parser("check")
    pc.add_argument("suite", choices=SUITES)
    common(pc)
    return parser


def run(args) -> Report:
    cfg = RunConfig.from_file(args.config)
    rep = Report(command=args.command if args.command != "check"
                 else f"check {args.suite}",
                 config_hash=config_hash(cfg.canonical_json()),
                 engine_version=__version__)
    start = time.perf_counter()
    if args.command == "geom":
        cmd_geom(cfg, rep, args)
    elif args.command == "tension":
        cmd_tension(cfg, rep, args, with_bitension=False)
    elif args.command == "bitension":
        cmd_tension(cfg, rep, args, with_bitension=True)
    elif args.command == "energy":
        cmd_energy(cfg, rep, args, q.energy)
    elif args.command == "bienergy":
        cmd_energy(cfg, rep, args, q.bienergy)
    elif args.command == "identity-analysis":
        cmd_identity_analysis(cfg, rep, args)
    elif args.command == "check":
        _SUITE_FNS[args.suite](cfg, rep, args)
    rep.wall_time = time.perf_counter() - start
    return rep


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite number raises where it is reported; NumPy's warnings
        # on the way there would only add lines to stderr
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = run(args)
            text = rep.render(args.format)
    except (ConfigError, ExpressionError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (SingularMetricError, DomainEvalError, QuadratureError,
            OrderLimitError, ChartError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # the last resort: one line, never a traceback
        message = str(err).replace("\n", " ")
        print(f"internal error: {type(err).__name__}: {message}", file=sys.stderr)
        return 3
    print(text, end="")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            print(f"config error: cannot write --out file: {err}", file=sys.stderr)
            return 2
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())
