"""README's Quick start and Command line blocks run as written."""

import re
import shlex
from pathlib import Path

from ghztangle.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (Quick start)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # full_report's two tangles, then find_esd's death at p = 1/2 and its revival.
    assert len(lines) == 2
    assert lines[1].startswith("0.5 True ")


def _command_lines():
    """The ``ghztangle`` lines of README's Command line block, continuations joined."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("ghztangle ")]


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _command_lines()
    assert any("--strict" in line for line in lines)
    for line in lines:
        args = shlex.split(line)[1:]
        # README: --strict exits 3 on any deviation, and the transcribed closed forms deviate.
        assert main(args) == (3 if "--strict" in args else 0), line
    capsys.readouterr()
