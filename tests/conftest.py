"""Suite-wide checks that run around every test."""
from __future__ import annotations

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that ends with the cyclic collector disabled, so that a
    pause that leaks out of the engine (or out of a test) cannot hide."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test ended with the cyclic collector disabled", pytrace=False)
