"""README's Quick start runs as written against the package's API."""

import re
from pathlib import Path

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
