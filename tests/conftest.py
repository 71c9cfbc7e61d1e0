import pytest

from secfan.secondary import mori_fan_K


@pytest.fixture
def cold_mori_fan():
    """An empty mori_fan_K cache at the start and end of the test, so a test
    that counts or patches the Mori build sees it run; call the fixture's
    value to empty the cache again mid-test."""
    mori_fan_K.cache_clear()
    yield mori_fan_K.cache_clear
    mori_fan_K.cache_clear()
