"""The README's Quick start block runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Quick start", "exec"), {})
    assert capsys.readouterr().out.strip()
