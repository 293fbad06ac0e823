"""The library example in README.md runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1

    def my_expensive_function(X):
        return np.sin(6 * X[:, 0]) + X[:, 1] ** 2 + 0.5 * X[:, 2] * X[:, 3]

    namespace = {"my_expensive_function": my_expensive_function}
    exec(blocks[0], namespace)
    assert np.all(np.isfinite(namespace["mean"]))
    assert namespace["m1"].shape == namespace["v1"].shape == (101,)
    assert np.all(namespace["v1"] >= 0)
