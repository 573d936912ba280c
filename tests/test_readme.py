"""README's code runs as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(heading: str) -> str:
    """The one fenced ``python`` block under the level-2 ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.S | re.M)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_library_quickstart_runs():
    code = compile(section_code("Library quickstart"),
                   f"{README.name}: Library quickstart", "exec")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(code, {"__name__": "quickstart"})
