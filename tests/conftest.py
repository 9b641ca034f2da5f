"""Shared fixtures and frozen oracle data.

The exact three-point census takes about 0.15 s (2-core host; 1.8 s
before it ranked on integers and solved each distinct matrix once), and
many tests read it, so the suite computes it once per session.  The
inverse-normal table was computed once with mpmath at 60 decimal digits
and frozen here.
"""

import pytest
from hypothesis import settings

from deconvsim.smallcase import full_census

# Property tests draw the same examples on every run (derandomize), and
# a loaded host cannot fail one on Hypothesis's 200 ms per-example
# deadline.
settings.register_profile("deconvsim", derandomize=True, deadline=None)
settings.load_profile("deconvsim")

# Inverse standard normal CDF at the exact float arguments below.
INVERSE_NORMAL_TABLE = [
    (1e-06, -4.7534243088228989),
    (0.0001, -3.7190164854556806),
    (0.001, -3.0902323061678135),
    (0.02425, -1.9729610513118849),
    (0.025, -1.9599639845400542),
    (0.1, -1.2815515655446005),
    (0.16666666666666666, -0.96742156610170107),
    (0.25, -0.67448975019608174),
    (0.3333333333333333, -0.43072729929545758),
    (0.5, 0.0),
    (0.6666666666666666, 0.43072729929545731),
    (0.75, 0.67448975019608174),
    (0.8333333333333334, 0.96742156610170131),
    (0.9, 1.2815515655446005),
    (0.975, 1.9599639845400542),
    (0.97575, 1.9729610513118849),
    (0.999, 3.0902323061678135),
    (0.9999, 3.7190164854556806),
    (0.999999, 4.7534243088228989),
]


@pytest.fixture(scope="session")
def census():
    return full_census()
