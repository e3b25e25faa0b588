import io
import math
import os

import numpy as np
import pytest

import sl2geom
from sl2geom.core import ChartPoint
from sl2geom.gaussmap import grid_samples
from sl2geom.suites import ALL_ROSTER
from sl2geom.surface import surface_shape

# The specs of the "all" roster whose sample the gauss suite classifies.
CLASSIFIED = [spec for spec, _, classify in ALL_ROSTER if classify]


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


def assert_one_point_views(fn, *args, reference=None):
    """``fn`` over scalar and equal-shape array arguments gives, field by
    field, exactly (``==``) what ``fn`` gives at each point called with
    floats, and what ``reference``, when given, gives there; a result that
    is not a tuple counts as one field."""
    shape = np.broadcast(*args).shape
    batched = fn(*args)
    batched = batched if isinstance(batched, tuple) else (batched,)
    for k in np.ndindex(shape):
        point = [a if np.ndim(a) == 0 else np.asarray(a)[k].item() for a in args]
        for view in (fn, reference) if reference else (fn,):
            one = view(*point)
            one = one if isinstance(one, tuple) else (one,)
            assert len(one) == len(batched)
            for field, value in zip(batched, one):
                assert np.broadcast_to(field, shape)[k] == value, (view, k, field, value)


def sampled(s, n_u: int, n_v: int, nu: float = 1.0):
    """The immersion ``s`` evaluated by ``surface_shape`` on its n_u x n_v
    sample grid: the sample ``classify_gauss_map`` reads."""
    return surface_shape([(s, *grid_samples(s, n_u, n_v))], nu)[0]


def rendered(render, *args) -> str:
    """The text that ``render`` (``suites.render``, ``render_rows`` or
    ``render_report``) writes to a stream given ``args``."""
    out = io.StringIO()
    render(*args, out)
    return out.getvalue()
