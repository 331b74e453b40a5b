"""Session fixtures.

One short track in both modes and one verification run up front, so that
no individual test pays the first-use costs of imports and lazily built
module state inside its own runtime budget.
"""

import pytest

from pathcert.bench import gen_newton_homotopy
from pathcert.certificate import (
    MODE_RECT,
    MODE_TILTED,
    deserialize,
    serialize,
    verify,
)
from pathcert.tracker import TrackerConfig, track


@pytest.fixture(scope="session", autouse=True)
def warm_up():
    """Exercise the tracking and verification paths once.

    dt0 < r0: at dt0 = r0 the path's speed at t = 1 (m/2 = 1) equals
    r/dt, and a rect box then holds the path only on a step that t = 1
    happens to clip, which depends on the step factor."""
    h, starts = gen_newton_homotopy(2.0)
    cfg = TrackerConfig(dt0=0.1, r0=0.25)
    res = track(h, starts[0], cfg, mode=MODE_TILTED)
    track(h, starts[0], cfg, mode=MODE_RECT)
    verify(deserialize(serialize(res.certificate)))

