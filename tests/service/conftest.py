"""Every test here must reap the processes it starts."""

import pytest


@pytest.fixture(autouse=True)
def _reaps_its_children(no_leaked_children):
    yield
