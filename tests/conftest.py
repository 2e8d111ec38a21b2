import pytest

from stagemallows import mallows


@pytest.fixture
def fresh_partition_cache(monkeypatch):
    """A new process-wide PartitionCache for one test, so that its rows and
    draw tables are built cold; the shared stage-count steps are kept."""
    cache = mallows.PartitionCache()
    monkeypatch.setattr(mallows, "_DEFAULT_CACHE", cache)
    return cache
