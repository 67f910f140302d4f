import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    # The documented package surface: the README's "Library use" block runs
    # as written and reproduces the values its comments quote.
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["w1"] == pytest.approx(0.35340, abs=1e-5)
    assert namespace["point"].converged
    assert namespace["shape"].u1.shape == (201,)
