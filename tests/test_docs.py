import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_api_block_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    median_bg, mean_sig = (float(v) for v in capsys.readouterr().out.split())
    # the numbers the block's comments quote
    assert median_bg == pytest.approx(1.15, abs=0.01)
    assert mean_sig == pytest.approx(4.2, abs=0.05)
