"""SweepCache: layering, durability, and version invalidation."""

from __future__ import annotations


from repro.sweep import CACHE_DIR_ENV, SweepCache, Task, cache_key, default_cache

from tests.sweep.workers import square


def _task(x=2):
    return Task(name=f"square:{x}", fn=square, params={"x": x})


def test_memory_hit_miss_accounting():
    cache = SweepCache()
    key = cache_key(_task())
    hit, value = cache.get(key)
    assert not hit and value is None
    cache.put(key, 4)
    hit, value = cache.get(key)
    assert hit and value == 4
    assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}


def test_disk_round_trip_across_instances(tmp_path):
    key = cache_key(_task())
    SweepCache(dir=tmp_path).put(key, {"answer": 4}, meta={"task": "t"})

    fresh = SweepCache(dir=tmp_path)
    hit, value = fresh.get(key)
    assert hit and value == {"answer": 4}
    meta = fresh._meta_path(key)
    assert meta.exists() and b'"task"' in meta.read_bytes()


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    cache = SweepCache(dir=tmp_path)
    key = cache_key(_task())
    cache.put(key, 4)
    cache._entry_path(key).write_bytes(b"not a pickle")

    fresh = SweepCache(dir=tmp_path)
    hit, _ = fresh.get(key)
    assert not hit


def test_clear_drops_both_layers(tmp_path):
    cache = SweepCache(dir=tmp_path)
    key = cache_key(_task())
    cache.put(key, 4)
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
    assert not SweepCache(dir=tmp_path).get(key)[0]


def test_version_bump_changes_cache_key(monkeypatch):
    task = _task()
    before = cache_key(task)
    monkeypatch.setattr("repro._version.__version__", "99.99.99")
    after = cache_key(task)
    assert before != after
    assert cache_key(task, version="pinned") == cache_key(task,
                                                          version="pinned")


def test_version_bump_invalidates_entries(monkeypatch):
    cache = SweepCache()
    task = _task()
    cache.put(cache_key(task), 4)
    assert cache.get(cache_key(task))[0]
    monkeypatch.setattr("repro._version.__version__", "99.99.99")
    assert not cache.get(cache_key(task))[0]


def test_default_cache_follows_env_var(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    memory_only = default_cache()
    assert memory_only.dir is None
    assert default_cache() is memory_only

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    disk_backed = default_cache()
    assert disk_backed is not memory_only
    assert disk_backed.dir == tmp_path
