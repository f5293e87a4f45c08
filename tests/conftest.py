import pytest

from centroid_ir import EmbeddingStore
from stores import make_store


@pytest.fixture
def ab_store() -> EmbeddingStore:
    """Two orthogonal unit words, the workhorse of the hand examples."""
    return make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
