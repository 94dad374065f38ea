import numpy as np
import pytest
from hypothesis import settings

from omdp_sense import optimize

# properties that leave their example count to the profile: "ci" runs with
# the test suite, "thorough" on demand (pytest --hypothesis-profile=thorough)
settings.register_profile("ci", max_examples=30)
settings.register_profile("thorough", max_examples=250)
settings.load_profile("ci")


@pytest.fixture
def checked_scans(monkeypatch):
    """Make every scan_then_golden call assert that the scan values it is
    given are its objective's, point by point and bit for bit; returns the
    list of grids scanned."""
    scan, grids = optimize.scan_then_golden, []

    def checked(f, xs, ys, polish=None):
        grids.append(xs)
        # the objective takes Python floats, as the polish passes them
        assert np.asarray(ys).tolist() == [f(x) for x in xs.tolist()]
        return scan(f, xs, ys, polish)
    monkeypatch.setattr(optimize, "scan_then_golden", checked)
    return grids
