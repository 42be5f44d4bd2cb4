"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The python block under the README's "## Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    match = re.match(r"\s*```python\n(.*?)\n```", section, re.S)
    assert match, "no python block directly under ## Library example"
    return match.group(1)


def test_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {})
