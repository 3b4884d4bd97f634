"""Command-line interface: exit codes, report formats, reproducibility."""

import json
import math
from functools import cached_property

import pytest

from finvar import cli
from finvar import jets as jt
from finvar.cli import main
from finvar.finsler import DomainGeometry
from finvar.report import Report

TWO_PI = 2 * math.pi
NAN, INF = float("nan"), float("inf")     # written to the config as JSON NaN, Infinity

EUCLID_TORUS = {
    "dimension": 2,
    "domain": {"type": "euclidean",
               "chart": {"type": "torus", "periods": [1.0, 1.0]}},
    "codomain": {"type": "euclidean"},
    "map": {"components": ["x1", "x2"]},
    "quadrature": {"x_resolution": 3, "y_samples": 200, "seed": 5},
}

RANDERS = {
    "dimension": 2,
    "domain": {"type": "randers",
               "alpha": [["1", "0"], ["0", "1"]],
               "beta": [f"0.2*sin(x1*{TWO_PI!r})", f"0.2*cos(x2*{TWO_PI!r})"],
               "chart": {"type": "torus", "periods": [1.0, 1.0]}},
}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_geom_reports_flat_tables(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    assert main(["geom", "--config", cfg, "--point", "0.2,0.3,1.0,0.5"]) == 0
    out = capsys.readouterr().out
    assert "metric.g" in out
    assert "connection.spray" in out
    assert out.strip().endswith("RESULT: PASS")


def test_tension_flags_harmonic_map(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    assert main(["tension", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "harmonic" in out


def test_invariants_suite_passes_for_randers(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", RANDERS)
    assert main(["check", "invariants", "--config", cfg]) == 0
    out = capsys.readouterr().out
    for name in ("euler", "delta_f2", "h_metricity", "bracket"):
        assert name in out
    assert out.strip().endswith("RESULT: PASS")


def test_invariants_suite_compares_the_tension_forms_when_there_is_a_map(tmp_path, capsys):
    with_map = {**RANDERS, "codomain": {"type": "sphere", "radius": 1.0},
                "map": {"components": [f"0.8 + 0.2*cos(x1*{TWO_PI!r})",
                                       f"0.3*sin(x2*{TWO_PI!r})"]}}
    assert main(["check", "invariants", "--config", _write(tmp_path, "cfg.json", with_map),
                 "--format", "json"]) == 0
    rows = {r.name: r for r in Report.from_json(capsys.readouterr().out).records}
    assert rows["tension_vs_divergence_form"].status == "pass"
    assert main(["check", "invariants", "--config", _write(tmp_path, "bare.json", RANDERS)]) == 0
    assert "tension_vs_divergence_form" not in capsys.readouterr().out


def _trace_without_torsion(self, A, B):
    """`DomainGeometry.horizontal_trace` with its P_i B_j term dropped."""
    n = self.n
    return self.contract([[A[i][j] - jt.sum_terms([self.gamma[k][i][j] * B[k] for k in range(n)])
                           for j in range(n)] for i in range(n)])


_CHERN_RUND = DomainGeometry.gamma.func


def _gamma_shifted(self):
    """Chern–Rund Γ with Γ¹₂₂ moved by 0.01."""
    gamma = _CHERN_RUND(self)
    gamma[0][1][1] = gamma[0][1][1] + 0.01
    return gamma


@pytest.mark.parametrize("attr, mutant", [
    ("horizontal_trace", _trace_without_torsion),
    ("gamma", cached_property(_gamma_shifted)),
], ids=["torsion_term_dropped", "gamma_122_shifted"])
def test_the_divergence_form_row_catches_a_wrong_tension(attr, mutant, tmp_path, capsys,
                                                          monkeypatch):
    if isinstance(mutant, cached_property):
        mutant.__set_name__(DomainGeometry, attr)
    monkeypatch.setattr(DomainGeometry, attr, mutant)
    with_map = {**RANDERS, "codomain": {"type": "sphere", "radius": 1.0},
                "map": {"components": [f"0.8 + 0.2*cos(x1*{TWO_PI!r})",
                                       f"0.3*sin(x2*{TWO_PI!r})"]}}
    assert main(["check", "invariants", "--config", _write(tmp_path, "cfg.json", with_map),
                 "--format", "json"]) == 1
    rows = {r.name: r for r in Report.from_json(capsys.readouterr().out).records}
    assert rows["tension_vs_divergence_form"].status == "fail"


def test_divergence_suite_passes_and_fails_honestly(tmp_path, capsys):
    good = dict(EUCLID_TORUS)
    good["sections"] = {"X": [f"sin(x1*{TWO_PI!r})", f"cos(x2*{TWO_PI!r})"]}
    cfg = _write(tmp_path, "good.json", good)
    assert main(["check", "divergence", "--config", cfg]) == 0
    capsys.readouterr()
    # a field with nonzero net divergence on a box chart must fail the check
    bad = {
        "dimension": 2,
        "domain": {"type": "euclidean",
                   "chart": {"type": "box", "bounds": [[-1, 1], [-1, 1]]}},
        "sections": {"X": ["x1", "x2"]},
        "quadrature": {"x_resolution": 3, "y_samples": 200, "seed": 5},
    }
    cfg_bad = _write(tmp_path, "bad.json", bad)
    assert main(["check", "divergence", "--config", cfg_bad]) == 1
    out = capsys.readouterr().out
    assert out.strip().endswith("RESULT: FAIL")


def test_json_report_round_trips(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    assert main(["energy", "--config", cfg, "--format", "json"]) == 0
    out = capsys.readouterr().out
    rep = Report.from_json(out)
    assert rep.command == "energy"
    assert rep.records[0].name == "energy"
    assert rep.to_json() == Report.from_json(rep.to_json()).to_json()


def test_csv_format(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    assert main(["energy", "--config", cfg, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "name,status,value,bound,stderr,detail"


def test_out_file_matches_stdout(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    dest = tmp_path / "report.txt"
    assert main(["bienergy", "--config", cfg, "--out", str(dest)]) == 0
    out = capsys.readouterr().out
    assert dest.read_text() == out


def test_unwritable_out_file_is_exit_2_with_one_line(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    dest = tmp_path / "missing" / "report.txt"
    assert main(["geom", "--config", cfg, "--point", "0.1,0.2,1,0", "--out", str(dest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write --out file") and err.count("\n") == 1


def test_estimates_are_reproducible_and_seed_sensitive(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    runs = []
    for argv in (["energy", "--config", cfg, "--format", "json"],
                 ["energy", "--config", cfg, "--format", "json"],
                 ["energy", "--config", cfg, "--format", "json", "--seed", "99"]):
        assert main(argv) == 0
        rep = Report.from_json(capsys.readouterr().out)
        runs.append(rep.records[0].value)
    assert runs[0] == runs[1]
    assert runs[2] != runs[0]


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    bad = dict(EUCLID_TORUS)
    bad["quadratur"] = {"seed": 1}
    cfg = _write(tmp_path, "cfg.json", bad)
    assert main(["geom", "--config", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_malformed_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["geom", "--config", str(path)]) == 2
    assert "config" in capsys.readouterr().err


def test_bad_point_argument_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    assert main(["geom", "--config", cfg, "--point", "0,0,1"]) == 2


def test_numerical_failure_is_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "dimension": 2,
        "domain": {"type": "riemannian",
                   "matrix": [["1", "0"], ["0", "1000000"]]},
        "codomain": {"type": "euclidean"},
        "map": {"components": ["x1", "x2"]},
        "quadrature": {"x_resolution": 2, "y_samples": 200, "seed": 1},
    })
    assert main(["energy", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_missing_map_block_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", RANDERS)
    assert main(["tension", "--config", cfg]) == 2


def test_output_block_is_rejected(tmp_path, capsys):
    cfg = dict(EUCLID_TORUS)
    cfg["output"] = {"format": "csv", "path": str(tmp_path / "report.csv")}
    assert main(["energy", "--config", _write(tmp_path, "cfg.json", cfg)]) == 2
    assert "unknown key(s) ['output']" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def _torus(periods):
    return {"domain": {"type": "euclidean", "chart": {"type": "torus", "periods": periods}}}


def _box(bounds):
    return {"domain": {"type": "euclidean", "chart": {"type": "box", "bounds": bounds}}}


def _sphere(**codomain):
    return {"codomain": {"type": "sphere", **codomain}}


# numbers that describe no geometry, and the key each message must name
NO_GEOMETRY = [
    ("geom", _torus([-1, 1]), ["--point", "0.1,0.2,1,0"], "domain.chart.periods[0]"),
    ("geom", _torus([1, 0]), ["--point", "0.1,0.2,1,0"], "domain.chart.periods[1]"),
    ("geom", _box([[1, -1], [-1, 1]]), ["--point", "0.1,0.2,1,0"], "domain.chart.bounds[0]"),
    ("geom", _box([[-1, 1], [0, 0]]), ["--point", "0.1,0.2,1,0"], "domain.chart.bounds[1]"),
    ("tension", _sphere(radius=0), [], "codomain.radius"),
    ("tension", _sphere(radius=-1), [], "codomain.radius"),
    ("tension", _sphere(dimension="2"), [], "codomain.dimension"),
    ("tension", _sphere(dimension=2.5), [], "codomain.dimension"),
    ("tension", _sphere(dimension=True), [], "codomain.dimension"),
    ("tension", _sphere(radius="2"), [], "codomain.radius"),
    ("tension", _sphere(radius=False), [], "codomain.radius"),
    ("tension", {"domain": {"type": "perturbed", "matrix": [["1", "0"], ["0", "1"]],
                            "b": "x1*y1^2", "scale": "2"}}, [], "domain.scale"),
    ("tension", {"tolerances": {"harmonic": "0.1"}}, [], "tolerances.harmonic"),
    ("geom", _torus(["1", 1]), ["--point", "0.1,0.2,1,0"], "domain.chart.periods[0]"),
    ("tension", _sphere(radius=1e-100), [], "codomain.radius"),     # ρ⁴ underflows to 0
    ("check", {"perturbation": {"b": "x1*y1^2", "c_grid": []}}, ["identity"],
     "perturbation.c_grid"),
    ("identity-analysis", {"perturbation": {"b": "x1*y1^2", "c_grid": [0.01]}}, [],
     "perturbation.c_grid"),
    ("check", {"perturbation": {"b": "x1*y1^2", "c_grid": [0.01, 0.01]}}, ["identity"],
     "perturbation.c_grid"),                                       # one distinct scale
    ("energy", {"quadrature": {"x_resolution": "2"}}, [], "quadrature.x_resolution"),
    ("energy", {"quadrature": {"x_resolution": 1}}, [], "quadrature.x_resolution"),
    ("energy", {"quadrature": {"y_samples": 1}}, [], "quadrature.y_samples"),
    ("energy", {"quadrature": {"workers": 0}}, [], "quadrature.workers"),
    ("energy", {"quadrature": {"seed": -1}}, [], "quadrature.seed"),
]


# tolerances that bound nothing, and the message each must give
MEANINGLESS_TOLERANCES = [
    ("check", {"tolerances": {"weitzenbock": -1}}, ["weitzenbock"],
     "tolerances.weitzenbock must be >= 0, got -1.0"),
    ("tension", {"tolerances": {"harmonic": -1}}, [], "tolerances.harmonic must be >= 0, got -1.0"),
    ("bitension", {"tolerances": {"biharmonic": -1e-9}}, [],
     "tolerances.biharmonic must be >= 0, got -1e-09"),
    ("check", {"tolerances": {"identity_routes": -0.5}}, ["identity"],
     "tolerances.identity_routes must be >= 0, got -0.5"),
    ("check", {"tolerances": {"structural": -1}}, ["invariants"],
     "tolerances.structural must be >= 0, got -1.0"),
    ("check", {"tolerances": {"first_variation_rel": -1}}, ["first-variation"],
     "tolerances.first_variation_rel must be >= 0, got -1.0"),
    ("check", {"tolerances": {"second_variation_rel": -1}}, ["second-variation"],
     "tolerances.second_variation_rel must be >= 0, got -1.0"),
    ("identity-analysis", {"tolerances": {"slope_tau_low": 1.1, "slope_tau_high": 0.9}}, [],
     "tolerances.slope_tau_low must be below tolerances.slope_tau_high, got [1.1, 0.9]"),
    ("identity-analysis", {"tolerances": {"slope_tau2_low": 2.5}}, [],
     "tolerances.slope_tau2_low must be below tolerances.slope_tau2_high, got [2.5, 2.2]"),
    ("identity-analysis", {"tolerances": {"slope_tau_high": 0.9, "slope_tau_low": 0.9}}, [],
     "tolerances.slope_tau_low must be below tolerances.slope_tau_high, got [0.9, 0.9]"),
]


@pytest.mark.parametrize("command, change, extra, message", MEANINGLESS_TOLERANCES)
def test_a_meaningless_tolerance_names_the_key(tmp_path, capsys, command, change, extra,
                                               message):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, **change})
    assert main([command, "--config", cfg, *extra]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_zero_tolerance_is_accepted(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, "tolerances": {"harmonic": 0}})
    assert main(["tension", "--config", cfg, "--point", "0.1,0.2,1,0"]) in (0, 1)


@pytest.mark.parametrize("command, change, extra", [
    ("geom", {}, ["--point", "0.1,0.2,abc,1"]),
    ("energy", {"dimension": "two"}, []),
    ("energy", {"quadrature": {"x_resolution": "abc"}}, []),
    ("tension", {"tolerances": {"harmonic": "abc"}}, []),
    ("tension", {"codomain": {"type": "sphere", "radius": "big"}}, []),
    ("geom", {"domain": {"type": "euclidean", "chart": {"type": "torus", "periods": ["a", 1.0]}}},
     ["--point", "0.1,0.2,1,0"]),
    ("geom", {"domain": {"type": "euclidean", "chart": {"type": "box", "bounds": [[0, 1], 2]}}},
     ["--point", "0.1,0.2,1,0"]),
    ("tension", {}, ["--point", "nan,0.2,1,0"]),
    ("tension", {}, ["--point", "0.1,0.2,inf,0"]),
    ("energy", {"domain": {"type": "euclidean",
                           "chart": {"type": "torus", "periods": [NAN, 1.0]}}}, []),
    ("energy", {"domain": {"type": "euclidean",
                           "chart": {"type": "box", "bounds": [[0, INF], [0, 1]]}}}, []),
    ("tension", {"codomain": {"type": "sphere", "radius": NAN}}, []),
    ("tension", {"tolerances": {"harmonic": NAN}}, []),
    ("tension", {"domain": {"type": "perturbed", "matrix": [["1", "0"], ["0", "1"]],
                            "b": "x1*y1^2", "scale": INF}}, []),
    ("energy", {"quadrature": {"x_resolution": 2, "y_samples": 20, "r_min": NAN}}, []),
    ("energy", {"quadrature": {"x_resolution": 2, "y_samples": 20, "r_min": -1.0}}, []),
    ("energy", {"quadrature": {"x_resolution": 2, "y_samples": 20, "safety": INF}}, []),
    ("energy", {"quadrature": {"x_resolution": 2, "y_samples": 20, "safety": NAN}}, []),
    ("energy", {"quadrature": {"x_resolution": 2, "y_samples": 20, "safety": 0.5}}, []),
    ("identity-analysis", {"perturbation": {"b": "x1*y1^2", "c_grid": [0.01, NAN]}}, []),
    ("identity-analysis", {"perturbation": {"b": "x1*y1^2", "c_grid": [0.01, 0.0]}}, []),
    ("geom", {"domain": {"type": "randers", "alpha": [["1"]], "beta": ["0", "0"]}},
     ["--point", "0.1,0.2,1,0"]),
    ("geom", {"domain": {"type": "randers", "alpha": [["1", "0"], ["0", "1"]], "beta": ["0.1"]}},
     ["--point", "0.1,0.2,1,0"]),
    ("geom", {"domain": {"type": "riemannian", "matrix": [["1", "0"]]}},
     ["--point", "0.1,0.2,1,0"]),
    ("tension", {"codomain": {"type": "custom", "matrix": [["1"]]}}, []),
    ("check", {"sections": {"X": ["x1"], "Y": ["x1", "x2"]}}, ["self-adjoint"]),
    ("check", {"sections": {"X": ["x1"]}}, ["divergence"]),
    ("tension", {"map": {"components": [0.5, "x2"]}}, []),
    ("check", {"variation": {"components": ["x1 + eps1", 3]}}, ["first-variation"]),
    ("check", {"sections": {"X": [1, "x2"]}}, ["divergence"]),
    ("check", {"perturbation": {"b": "x1*y1^2", "a": ["1"]}}, ["identity"]),
    ("tension", {"map": {"components": 5}}, []),
    ("check", {"variation": {"components": 3}}, ["first-variation"]),
    ("tension", {"codomain": {"type": "sphere", "dimension": 0}}, []),
    ("tension", {"codomain": {"type": "sphere", "dimension": -2}}, []),
] + [case[:3] for case in NO_GEOMETRY] + [
    ("tension", {"codomain": {"type": "sphere", "radius": 1e200}}, []),   # ρ⁴ overflows
    ("tension", {}, ["--point", "0.1,,0.2,1.0,0.5"]),
    ("tension", {}, ["--point", "0.1,0.2,1.0,0.5,"]),
    ("tension", {}, ["--point", ",0.1,0.2,1.0,0.5"]),
] + [case[:3] for case in MEANINGLESS_TOLERANCES])
def test_malformed_input_is_exit_2_with_one_line(tmp_path, capsys, command, change, extra):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, **change})
    assert main([command, "--config", cfg, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, change, extra, key", NO_GEOMETRY)
def test_numbers_that_describe_no_geometry_name_the_key(tmp_path, capsys, command, change,
                                                        extra, key):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, **change})
    assert main([command, "--config", cfg, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must ") and err.count("\n") == 1, err


@pytest.mark.parametrize("key, value, rule", [("x_resolution", 1, "be >= 2"),
                                              ("y_samples", 1, "be >= 2"),
                                              ("workers", 0, "be >= 1"),
                                              ("seed", -1, "be in [0, 2^32)")])
def test_a_quadrature_number_out_of_range_names_the_key_and_value(tmp_path, capsys, key,
                                                                  value, rule):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, "quadrature": {key: value}})
    assert main(["energy", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: quadrature.{key} must {rule}, got {value}\n"


def test_an_integral_float_is_an_integer_key(tmp_path, capsys):
    for command, change in (("tension", _sphere(dimension=2.0)),
                            ("tension", {"dimension": 2.0}),
                            ("energy", {"quadrature": {"x_resolution": 2.0, "y_samples": 16}})):
        cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, **change})
        extra = ["--point", "0.1,0.2,1,0"] if command == "tension" else []
        assert main([command, "--config", cfg, *extra]) == 0, change


@pytest.mark.parametrize("kind, dim", [("sphere", 0), ("sphere", -2), ("euclidean", 0)])
def test_codomain_dimension_below_one_names_the_key(tmp_path, capsys, kind, dim):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS,
                                        "codomain": {"type": kind, "dimension": dim}})
    assert main(["tension", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: codomain.dimension must be >= 1, got {dim}\n"


def test_unexpected_exception_is_exit_3_with_one_line(tmp_path, capsys, monkeypatch):
    def boom(cfg, rep, args):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(cli, "cmd_geom", boom)
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    assert main(["geom", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: unexpected state\n"
    assert captured.out == ""


@pytest.mark.parametrize("command, change, what", [
    ("tension", {"map": {"components": ["1e308*x1*x1", "x2"]}}, "tension"),
    ("bitension", {"map": {"components": ["1e308*x1*x1", "x2"]}}, "tension"),
    ("bitension", {"map": {"components": ["1e200*x1^4", "x2"]}}, "tension"),   # |τ|² overflows
    ("geom", {"domain": {"type": "riemannian", "matrix": [["1e200", "0"], ["0", "1e200"]]}},
     "geometry"),                                                          # det g overflows
])
def test_a_non_finite_reported_number_is_exit_3_with_one_line(tmp_path, capsys, command,
                                                               change, what):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, **change})
    assert main([command, "--config", cfg, "--point", "0.1,0.2,1,0"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"numerical failure: non-finite {what} at x=[0.1, 0.2]")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_an_overflowed_f2_is_exit_3_with_one_line(tmp_path, capsys):
    # F² = g_ij y^i y^j = inf: the Euler check reads inf - inf = NaN as a failure
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    assert main(["geom", "--config", cfg, "--point", "0.1,0.2,1e300,0"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: Euler identity")
    assert captured.err.count("\n") == 1 and captured.out == ""


def _python_m_finvar(tmp_path, *args):
    """`python -m finvar ARGS` in a fresh interpreter, with this checkout's `src` first."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-m", "finvar", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_finvar_runs_the_command(tmp_path):
    done = _python_m_finvar(tmp_path, "geom", "--config", _write(tmp_path, "cfg.json", EUCLID_TORUS),
                            "--point", "0.2,0.3,1.0,0.5")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.strip().endswith("RESULT: PASS")


def test_a_non_finite_metric_is_one_line_on_stderr(tmp_path):
    # NumPy's overflow warnings stay off stderr, and g is checked before its
    # condition number is taken (an SVD of a non-finite matrix fails)
    readme = {**RANDERS, "codomain": {"type": "sphere", "radius": 1.0},
              "map": {"components": [f"0.8 + 0.2*cos(x1*{TWO_PI!r})",
                                     f"0.3*sin(x2*{TWO_PI!r})"]}}
    done = _python_m_finvar(tmp_path, "bitension", "--config",
                            _write(tmp_path, "cfg.json", readme), "--point", "0.1,0.2,1e300,0")
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == "numerical failure: metric tensor is not finite\n"


def test_a_zero_scaling_slope_is_exit_3_with_one_line(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, "domain": {"type": "euclidean"},
                                        "perturbation": {"b": "0*y1^2", "c_grid": [0.01, 0.02]}})
    assert main(["identity-analysis", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: log-log slope") and err.count("\n") == 1


README_MAP = {"components": [f"0.8 + 0.2*cos(x1*{TWO_PI!r})", f"0.3*sin(x2*{TWO_PI!r})"]}


@pytest.mark.parametrize("command, change", [
    ("tension", {"codomain": {"type": "sphere", "radius": 1e-4}}),           # g̃ ≈ 6e-16·I
    ("geom", {"domain": {"type": "custom", "f": "1e-7*sqrt(y1^2 + y2^2)",
                         "chart": {"type": "torus", "periods": [1.0, 1.0]}}}),  # g = 1e-14·I
])
def test_a_small_well_conditioned_metric_is_not_singular(tmp_path, capsys, command, change):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, "map": README_MAP, **change})
    assert main([command, "--config", cfg, "--point", "0.2,0.3,1.0,0.5"]) == 0
    assert capsys.readouterr().err == ""


def test_a_metric_with_a_tiny_eigenvalue_is_still_singular(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, "map": README_MAP,
                                        "codomain": {"type": "custom",
                                                     "matrix": [["1", "0"], ["0", "1e-15"]]}})
    assert main(["tension", "--config", cfg, "--point", "0.2,0.3,1.0,0.5"]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: metric is singular or indefinite")
