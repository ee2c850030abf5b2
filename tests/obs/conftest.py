"""Fixtures shared by the :mod:`repro.obs` tests."""

import gc

import pytest


@pytest.fixture
def no_collections():
    """Automatic garbage collections are recorded as ``gc.*`` spans and
    counters; tests that check exact span and counter sets run without
    them (``test_recorder.TestGarbageCollections`` checks the
    recording)."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()
