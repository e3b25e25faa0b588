import math
import os

import numpy as np
import pytest

import sl2geom
from sl2geom.core import ChartPoint


def pytest_configure(config):
    # Child interpreters started by the command-line tests import the same
    # sl2geom as this process, whether or not the package is installed.
    src = os.path.dirname(os.path.dirname(sl2geom.__file__))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_point(rng) -> ChartPoint:
    return ChartPoint(
        float(rng.uniform(-2.0, 2.0)),
        float(rng.uniform(0.2, 5.0)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def random_vec(rng) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, 3)
