"""The README's library example runs against the current API, and its list of
top-level names is the package's public surface."""

from __future__ import annotations

import functools
import pathlib
import re
import types

import grouptopo as gt

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    final_text, total_tokens = capsys.readouterr().out.rsplit(maxsplit=1)
    assert final_text.startswith("recap:")
    assert int(total_tokens) > 0


def readme_top_level() -> dict[str, str]:
    """Each name of the README's "Top-level names" table, with its module."""
    section = README.read_text("utf-8").split("### Top-level names\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    return {name: module for module, names in rows for name in re.findall(r"`(\w+)`", names)}


def test_top_level_names_are_the_readme_list():
    listed = readme_top_level()
    public = {name for name, value in vars(gt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(listed)
    for name, module in listed.items():
        assert getattr(getattr(gt, module), name) is getattr(gt, name), name


def test_names_the_bench_and_ci_read_exist():
    """Every ``gt.<name>`` chain in ``bench/*.py`` and the CI workflow resolves."""
    files = [*sorted((ROOT / "bench").glob("*.py")), ROOT / ".github/workflows/tests.yml"]
    chains = {chain for path in files
              for chain in re.findall(r"\bgt((?:\.\w+)+)", path.read_text("utf-8"))}
    assert chains
    for chain in sorted(chains):
        functools.reduce(getattr, chain.split(".")[1:], gt)
