"""Python processes the tests start import the package from src/ as well.

pyproject's `pythonpath` setting puts src/ on the test process's own path
only; `python -m tracereg.cli` in a child process needs PYTHONPATH.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from tracereg import build_problem, vec

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def _conditioned_design(ratio, seed, p=4, q=5, n=10):
    """A p x q, n-sample design whose stacked singular values fall geometrically to ratio."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((p * q, n)))
    stacked = (u * np.geomspace(1.0, ratio, n)) @ v.T
    X = stacked.reshape(n, q, p).transpose(0, 2, 1)
    y = stacked @ vec(rng.standard_normal((p, q))) + 0.1 * rng.standard_normal(n)
    return build_problem(X, y)


@pytest.fixture
def conditioned_design():
    return _conditioned_design
