"""The Python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    """Every ```python block of README.md, in order, in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
