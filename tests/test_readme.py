"""The Python examples in README.md run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list:
    """The bodies of the ```python fenced blocks of a Markdown text."""
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_python_blocks_are_found():
    text = "```sh\nls\n```\n```python\nx = 1\n```\n```python\nprint(x)\n```\n"
    assert python_blocks(text) == ["x = 1\n", "print(x)\n"]


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks(README.read_text())
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # The library example's first printout: the sum row of two rows over Q.
    assert capsys.readouterr().out.splitlines()[0] == "['-20', '-13']"
