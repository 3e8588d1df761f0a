"""The README's library Quickstart runs as documented."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_block() -> str:
    """The fenced python block under the `## Quickstart (library)` heading."""
    section = README.read_text().split("## Quickstart (library)\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1, "expected one python block in the library Quickstart"
    return blocks[0]


def test_library_quickstart_runs():
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(quickstart_block(), "README.md:Quickstart (library)", "exec"), {})
    # the parameters line, then the repaired symbol as a plain int code
    assert out.getvalue().splitlines() == ["18 8 7", "3"]
