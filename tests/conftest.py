import numpy as np
import pytest

from normratio.sampling import keyed_rng, random_convex_polygon


@pytest.fixture
def rng():
    return keyed_rng(20240817)


def corpus_domains(seed, count):
    """Deterministic list of random convex polygons for property loops."""
    return [random_convex_polygon(keyed_rng(seed, k)) for k in range(count)]
