import numpy as np
import pytest

from oddmsim import (
    EstimatedChannel,
    ModemParams,
    eva_profile,
    make_constellation,
    sample_channel,
)

@pytest.fixture(scope="session")
def desk_params():
    return ModemParams(n_delay=64, n_doppler=16, max_delay=8)


@pytest.fixture(scope="session")
def desk_profile():
    return eva_profile(k_max=3, max_tap=9)


@pytest.fixture(scope="session")
def qam4():
    return make_constellation(4)


@pytest.fixture()
def desk_channel(desk_params, desk_profile):
    rng = np.random.default_rng(2024)
    return sample_channel(desk_profile, desk_params, rng)


@pytest.fixture()
def desk_perfect(desk_channel):
    return EstimatedChannel.from_true(desk_channel)
