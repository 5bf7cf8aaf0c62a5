"""The serve layer's warm cache and the recipe-key fingerprints.

:class:`repro.serve.registry.WarmCache` keeps each flow-cache entry's
pickled bytes in a bounded LRU in front of the disk store.  These
tests hold it to the isolation the deep-copying layer it replaced
gave: no caller can mutate the memo or see another caller's mutation.
"""

from __future__ import annotations

import inspect

import pytest

from repro.flow import Flow, Runner
from repro.flow.stage import function_fingerprint
from repro.serve.registry import WarmCache

KEYS = [f"{i:02x}" * 32 for i in range(4)]


def square(x: int):
    return x * x


def plus_one(y):
    return y + 1


@pytest.fixture
def cache(tmp_path):
    return WarmCache(tmp_path / "fc", max_entries=2)


def _counts(cache: WarmCache) -> tuple[int, int, int, int]:
    s = cache.stats()
    return s["entries"], s["memory_hits"], s["disk_hits"], s["misses"]


class TestIsolation:
    def test_mutating_a_hit_leaves_the_memo(self, cache):
        cache.put(KEYS[0], "s", {"rows": [1, 2], "meta": {"k": "v"}})
        got = cache.get(KEYS[0])
        got["rows"].append(3)
        got["meta"]["k"] = "changed"
        got["extra"] = 1
        again = cache.get(KEYS[0])
        assert again == {"rows": [1, 2], "meta": {"k": "v"}}
        assert again["rows"] is not got["rows"]
        assert _counts(cache) == (1, 2, 0, 0)

    def test_mutating_the_mapping_given_to_put(self, cache):
        arts = {"rows": [1, 2]}
        cache.put(KEYS[0], "s", arts)
        arts["rows"].append(3)
        arts["late"] = True
        assert cache.get(KEYS[0]) == {"rows": [1, 2]}
        assert _counts(cache) == (1, 1, 0, 0)


class TestUnpicklable:
    def test_put_returns_minus_one_and_keeps_nothing(self, cache):
        assert cache.put(KEYS[0], "s", {"fn": lambda: 1}) == -1
        assert cache.stats()["entries"] == 0
        assert cache.get(KEYS[0]) is None
        assert _counts(cache) == (0, 0, 0, 1)


class TestBound:
    def test_least_recently_used_entry_leaves_memory(self, cache):
        for i in range(3):
            cache.put(KEYS[i], "s", {"v": i})
        assert cache.stats()["entries"] == 2
        # KEYS[0] left memory but not the disk.
        assert cache.get(KEYS[0]) == {"v": 0}
        assert _counts(cache) == (2, 0, 1, 0)
        # Remembering KEYS[0] evicted KEYS[1], the oldest by then.
        assert cache.get(KEYS[2]) == {"v": 2}
        assert cache.get(KEYS[1]) == {"v": 1}
        assert _counts(cache) == (2, 1, 2, 0)

    def test_zero_entries_turns_the_layer_off(self, tmp_path):
        cache = WarmCache(tmp_path / "fc", max_entries=0)
        assert cache.put(KEYS[0], "s", {"v": 0}) > 0
        assert cache.get(KEYS[0]) == {"v": 0}
        assert cache.get(KEYS[0]) == {"v": 0}
        assert _counts(cache) == (0, 0, 2, 0)


class TestDiskHit:
    def test_disk_hit_fills_the_memory_layer(self, tmp_path):
        first = WarmCache(tmp_path / "fc")
        first.put(KEYS[0], "s", {"rows": [(1, "a")], "n": 7})
        fresh = WarmCache(tmp_path / "fc")
        got = fresh.get(KEYS[0])
        assert _counts(fresh) == (1, 0, 1, 0)
        # The next lookup needs no disk: remove the entry and still hit.
        for path in (tmp_path / "fc").rglob("*.pkl"):
            path.unlink()
        again = fresh.get(KEYS[0])
        assert _counts(fresh) == (1, 1, 1, 0)
        assert again == got == {"rows": [(1, "a")], "n": 7}
        assert again is not got

    def test_memory_layer_does_not_travel_through_pickle(self, cache):
        import pickle

        cache.put(KEYS[0], "s", {"v": 0})
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.stats()["entries"] == 0
        assert clone.get(KEYS[0]) == {"v": 0}
        assert clone.stats()["disk_hits"] == 1


def test_stage_keys_read_each_stage_source_once(monkeypatch):
    """Recipe keys fingerprint a stage function from its source once per
    function object, however often the keys are computed."""
    calls = []
    getsource = inspect.getsource

    def counted(obj):
        calls.append(obj)
        return getsource(obj)

    monkeypatch.setattr(inspect, "getsource", counted)
    function_fingerprint.cache_clear()
    flow = Flow("memo")
    flow.stage("sq", square, outputs=("y",), params={"x": 3})
    flow.stage("inc", plus_one, inputs=("y",), outputs=("z",))
    keys = Runner().stage_keys(flow)
    assert Runner().stage_keys(flow) == keys
    assert calls == [square, plus_one]
