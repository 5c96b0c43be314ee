import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def gallery_matrices():
    from kreisslab.operators import gallery, make_gallery_operator

    return {e.name: make_gallery_operator(e.spec) for e in gallery()}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
