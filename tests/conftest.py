import numpy as np
import pytest

from isacloc import OfdmConfig


@pytest.fixture(scope="session")
def fr2_config():
    """120 kHz / 66-PRB / comb-12 numerology used throughout."""
    return OfdmConfig(
        subcarrier_spacing=120e3,
        num_subcarriers=792,
        num_symbols=14,
        comb_size=12,
    )


@pytest.fixture(scope="session")
def small_config():
    """Small grid for fast physical-layer tests."""
    return OfdmConfig(
        subcarrier_spacing=120e3,
        num_subcarriers=48,
        num_symbols=4,
        comb_size=4,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
