"""Command-line interface: exit codes, report formats, reproducibility."""

import json
import math

import pytest

from finvar import cli
from finvar.cli import main
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
    assert rows["tension_expanded_vs_structural"].status == "pass"
    assert main(["check", "invariants", "--config", _write(tmp_path, "bare.json", RANDERS)]) == 0
    assert "tension_expanded_vs_structural" not in capsys.readouterr().out


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
])
def test_malformed_input_is_exit_2_with_one_line(tmp_path, capsys, command, change, extra):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, **change})
    assert main([command, "--config", cfg, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_unexpected_exception_is_exit_3_with_one_line(tmp_path, capsys, monkeypatch):
    def boom(cfg, rep, args):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(cli, "cmd_geom", boom)
    cfg = _write(tmp_path, "cfg.json", EUCLID_TORUS)
    assert main(["geom", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: unexpected state\n"
    assert captured.out == ""


def test_a_zero_scaling_slope_is_exit_3_with_one_line(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {**EUCLID_TORUS, "domain": {"type": "euclidean"},
                                        "perturbation": {"b": "0*y1^2", "c_grid": [0.01, 0.02]}})
    assert main(["identity-analysis", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: log-log slope") and err.count("\n") == 1
