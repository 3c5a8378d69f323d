"""The README's library example runs against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md (Library example)", "exec"), namespace)
    fit, g = namespace["fit"], namespace["g"]
    assert fit.sigmas is not None
    assert 0.5 < fit.params["g"] / g < 2.0
