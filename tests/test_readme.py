"""The README's examples run: its Python session, and its example config
through the `bitension` command."""

import re
from pathlib import Path

from finvar import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang):
    blocks = re.findall(rf"```{lang}\n(.*?)```", README, re.S)
    assert len(blocks) == 1, f"expected one {lang} block in README.md"
    return blocks[0]


def test_the_python_session_runs(capsys):
    exec(compile(_block("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_the_example_config_runs_bitension(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(_block("json"))
    assert cli.main(["bitension", "--config", str(path), "--point", "0.2,0.7,1.0,-0.3"]) == 0
    assert "RESULT: PASS" in capsys.readouterr().out
