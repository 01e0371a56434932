"""The README's library example runs against the current API."""

from __future__ import annotations

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    final_text, total_tokens = capsys.readouterr().out.rsplit(maxsplit=1)
    assert final_text.startswith("recap:")
    assert int(total_tokens) > 0
