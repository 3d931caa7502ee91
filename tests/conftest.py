"""Shared fixtures, and the hypothesis profile of the wire fuzzer."""

import numpy as np
import pytest
from hypothesis import settings

# ``--hypothesis-profile=wire-fuzz``: tests/test_wire_fuzz.py at 5,000
# examples per property (CI's wire-fuzz step; tier-1 runs the default 100).
settings.register_profile("wire-fuzz", max_examples=5000, derandomize=True, deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
