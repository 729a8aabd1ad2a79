"""The README's examples run against the API and CLI that exist."""

import re
import shlex
from pathlib import Path

from attkit import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(r"```%s\n(.*?)```" % lang, README, flags=re.S)


def test_python_quick_start_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    settling, verdicts = capsys.readouterr().out.splitlines()
    assert 40.0 < float(settling) < 46.0
    assert verdicts == "True True True"


def test_cli_lines_parse():
    lines = [
        line.split("#")[0]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("attkit ")
    ]
    assert len(lines) >= 6
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
