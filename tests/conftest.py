import os
from pathlib import Path

import numpy as np
import pytest

# `python -m dirinfo.cli` subprocesses import the package from the source tree too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_stable(rng, n, radius=0.8):
    """Random matrix rescaled to the requested spectral radius."""
    A = rng.normal(size=(n, n))
    r = max(abs(np.linalg.eigvals(A)))
    return A * (radius / r)


def random_spd(rng, n, floor=0.2):
    X = rng.normal(size=(n, n))
    return X @ X.T + floor * np.eye(n)
