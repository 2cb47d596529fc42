import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `--hypothesis-profile=ci` runs every property test on a larger budget
settings.register_profile("ci", max_examples=2000, deadline=None)

import vortexdiff as vd


@pytest.fixture(scope="session")
def grid256():
    return vd.make_grid(256, 8.0)


@pytest.fixture(scope="session")
def lg01(grid256):
    spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=0, m=1, w0=1.0, P=1.0)
    return vd.lg_field(spec, grid256)


@pytest.fixture(scope="session")
def lg00(grid256):
    spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=0, m=0, w0=1.0, P=1.0)
    return vd.lg_field(spec, grid256)


@pytest.fixture(scope="session")
def lg11(grid256):
    spec = vd.ModeSpec(kind=vd.ModeKind.LG, p=1, m=1, w0=1.0, P=1.0)
    return vd.lg_field(spec, grid256)


@pytest.fixture(scope="session")
def blocked_w0(grid256):
    spec = vd.ModeSpec(kind=vd.ModeKind.BLOCKED_GAUSSIAN, w0=1.0, P=1.0, block_radius=1.0)
    return vd.blocked_gaussian(spec, grid256)
