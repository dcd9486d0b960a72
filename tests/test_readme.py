"""The README's library quickstart prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return block


def test_quickstart_prints_its_comments():
    block = quickstart()
    expected = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
