"""Shared fixtures (the expensive calibration run is session wide) and the hypothesis profile."""

import pytest
from hypothesis import settings

from stochrd import Grid, calibrate_c, canonical_cubic, periodic_bump_forcing


@pytest.fixture(scope="session")
def calibrated_c():
    """Grid constant for the canonical model, from the reference ensemble."""
    spec = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
    return calibrate_c(spec, Grid(dim=1, half_width=8.0, n=257))


# a failing property prints its replay blob, so a rare draw can be replayed from a test log;
# every other setting is the loaded profile's (hypothesis loads its ci profile on CI)
settings.register_profile("replay", settings.default, print_blob=True)
settings.load_profile("replay")
