"""Zero-copy shard dispatch: transport selection, payload lifecycle,
warm-worker caches, ship-once discipline, and error surfacing.

The contract under test (docs/shard_dispatch.md): results are
byte-identical across ``{pickle, shm} x {1, 2, 4}`` shard configs, the
parent owns (and always unlinks) every shared-memory segment, a worker
forked for a call starts from the parent's compiled netlist, a warm
worker unpickles and compiles each distinct netlist once per pool
generation, and worker exceptions are counted instead of swallowed.
"""

from __future__ import annotations

import glob
import multiprocessing
import pickle
import random
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import example, given, settings

from repro.flow import shm
from repro.flow.metrics import collect
from repro.flow.resilience import (
    PoolProvider,
    run_sharded,
    set_shard_pool_provider,
)
from repro.gatelevel import fault_sim, genscale, kernel, shard
from repro.gatelevel.faults import all_faults
from repro.gatelevel.shard import open_shard, shard_map
from repro.knobs import KnobError
from repro.serve.registry import WarmPoolProvider
from tests.test_kernel_equivalence import _sequence, netlists

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="no usable shared memory here"
)


def _no_repro_segments() -> bool:
    return not glob.glob("/dev/shm/repro_*")


# -- transport resolution --------------------------------------------------

class TestTransportResolution:
    def test_explicit_arg_wins(self, monkeypatch):
        monkeypatch.setenv(shm.TRANSPORT_ENV, "shm")
        assert shm.resolve_transport("pickle") == "pickle"

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(shm.TRANSPORT_ENV, "pickle")
        assert shm.resolve_transport() == "pickle"
        monkeypatch.setenv(shm.TRANSPORT_ENV, "shm")
        assert shm.resolve_transport() == "shm"

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(shm.TRANSPORT_ENV, "carrier-pigeon")
        with pytest.raises(KnobError):
            shm.resolve_transport()

    def test_degrades_to_pickle_without_shm(self, monkeypatch):
        monkeypatch.setattr(shm, "_SHM_PROBE", False)
        assert shm.resolve_transport() == "pickle"
        assert shm.resolve_transport("shm") == "pickle"


# -- payload plane lifecycle -----------------------------------------------

class TestPayloadPlane:
    @pytest.fixture(autouse=True)
    def _shm_transport(self, monkeypatch):
        # A plane reads the transport when it is made; these tests pin
        # the segment path whatever REPRO_SHARD_TRANSPORT says.
        monkeypatch.setenv(shm.TRANSPORT_ENV, "shm")

    def test_bytes_roundtrip_and_unlink(self):
        with shm.PayloadPlane() as plane:
            h = plane.publish_bytes(b"stuck-at-0")
            assert h.name.startswith(shm.SEGMENT_PREFIX)
            assert shm.attach_bytes(h) == b"stuck-at-0"
        assert _no_repro_segments()

    def test_array_roundtrip_zero_copy(self):
        np = pytest.importorskip("numpy")
        arr = np.arange(24, dtype=np.uint64).reshape(4, 6)
        with shm.PayloadPlane() as plane:
            h = plane.publish_array(arr)
            view = shm.attach_array(h)
            assert view.dtype == arr.dtype
            assert (view == arr).all()
            del view

    def test_object_roundtrip_digest_cached(self):
        payload = {"faults": list(range(64))}
        with shm.PayloadPlane() as plane:
            ref = plane.publish_object(payload)
            before = shm.worker_cache_stats()["object_misses"]
            assert shm.fetch_object(ref) == payload
            assert shm.fetch_object(ref) == payload
            stats = shm.worker_cache_stats()
        assert stats["object_misses"] == before + 1
        assert stats["object_hits"] >= 1

    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_fetch_reads_either_transport(self, monkeypatch, transport):
        np = pytest.importorskip("numpy")
        monkeypatch.setenv(shm.TRANSPORT_ENV, transport)
        payload = {"faults": list(range(8))}
        arr = np.arange(12, dtype=np.int64).reshape(6, 2)
        with shm.PayloadPlane() as plane:
            obj_ref = plane.publish_object(payload)
            arr_ref = plane.publish_array(arr)
            assert plane.inline == (transport == "pickle")
            assert shm.fetch(obj_ref) == payload
            assert (shm.fetch(arr_ref) == arr).all()
            if plane.inline:
                # The reference carries the payload: no segment at all.
                assert shm.fetch(obj_ref) is payload
                assert plane.total_bytes == 0

    def test_close_is_idempotent_and_exception_safe(self):
        plane = shm.PayloadPlane()
        plane.publish_bytes(b"x")
        with pytest.raises(RuntimeError):
            with plane:
                raise RuntimeError("shard blew up")
        plane.close()
        assert _no_repro_segments()


# -- content-hash netlist cache --------------------------------------------

class TestNetlistHash:
    def test_hash_is_content_determined(self):
        a = genscale.generate_netlist(60, seed=5)
        b = genscale.generate_netlist(60, seed=5)
        c = genscale.generate_netlist(60, seed=6)
        assert a is not b
        assert kernel.netlist_hash(a) == kernel.netlist_hash(b)
        assert kernel.netlist_hash(a) != kernel.netlist_hash(c)

    def test_hash_tracks_mutation(self):
        nl = genscale.generate_netlist(60, seed=5)
        before = kernel.netlist_hash(nl)
        nl.add("extra", "not", "i0")
        nl.add_output("extra")
        assert kernel.netlist_hash(nl) != before

    def test_resolve_netlist_caches_and_evicts(self, monkeypatch):
        monkeypatch.setattr(shm, "WORKER_CACHE_SIZE", 2)
        kernel._BY_HASH.clear()
        designs = [genscale.generate_netlist(40, seed=s)
                   for s in range(3)]
        blobs = [kernel.netlist_blob(nl) for nl in designs]

        def body(i):
            return lambda: pickle.loads(blobs[i][1])

        first = kernel.resolve_netlist(blobs[0][0], body(0))
        assert kernel.resolve_netlist(blobs[0][0], None) is first
        kernel.resolve_netlist(blobs[1][0], body(1))
        kernel.resolve_netlist(blobs[2][0], body(2))  # evicts [0]
        again = kernel.resolve_netlist(blobs[0][0], body(0))
        assert again is not first
        assert pickle.dumps(again) == pickle.dumps(first)


# -- ship-once discipline --------------------------------------------------

def _probe_worker_caches(_arg):
    from repro.flow import shm as worker_shm
    from repro.gatelevel import kernel as worker_kernel

    return (worker_kernel.netlist_cache_stats(),
            worker_shm.worker_cache_stats())


@pytest.fixture
def warm_pool():
    from repro.flow.resilience import set_shard_pool_provider

    provider = WarmPoolProvider(jobs=1)
    provider.prewarm()
    set_shard_pool_provider(provider)
    yield provider
    set_shard_pool_provider(None)
    provider.close()


class TestShipOnce:
    def test_shm_serializes_netlist_once_across_calls(
        self, monkeypatch, warm_pool
    ):
        monkeypatch.setenv(shm.TRANSPORT_ENV, "shm")
        monkeypatch.setattr(shard, "TEST_FAULTS_PER_SHARD", 4)
        nl = genscale.generate_netlist(120, seed=11)
        faults = all_faults(nl)[:16]
        seq = _sequence(nl, width=8, n_cycles=2)
        assert nl._pickles == 0
        results = []
        for _ in range(2):
            results.append(fault_sim.fault_simulate_cycles(
                nl, faults, seq, width=8, shards=2, backend="kernel",
            ))
        # netlist_blob memoises: one parent-side pickle total, vs one
        # per shard per call through the pool pipe under the old path.
        assert nl._pickles == 1
        assert results[0] == results[1]

    def test_pickle_transport_ships_per_shard(self, monkeypatch):
        monkeypatch.setenv(shm.TRANSPORT_ENV, "pickle")
        monkeypatch.setattr(shard, "TEST_FAULTS_PER_SHARD", 4)
        nl = genscale.generate_netlist(120, seed=11)
        faults = all_faults(nl)[:16]
        seq = _sequence(nl, width=8, n_cycles=2)
        fault_sim.fault_simulate_cycles(
            nl, faults, seq, width=8, shards=2, backend="kernel",
        )
        # One full copy per shard arg, and no blob: an inline plane
        # never ships the pickled body, so the parent never builds it.
        assert nl._pickles == 2
        assert "blob" not in nl.derived()

    def test_warm_worker_unpickles_once_per_generation(
        self, monkeypatch, warm_pool
    ):
        monkeypatch.setenv(shm.TRANSPORT_ENV, "shm")
        monkeypatch.setattr(shard, "TEST_FAULTS_PER_SHARD", 4)
        nl = genscale.generate_netlist(150, seed=12)
        faults = all_faults(nl)[:16]
        seq = _sequence(nl, width=8, n_cycles=2)
        # Forked workers inherit the parent's counters, so measure
        # deltas against a baseline probed in the worker itself.
        pool = warm_pool.acquire(1)
        base, _ = pool.submit(_probe_worker_caches, None).result(
            timeout=60)
        for _ in range(3):
            fault_sim.fault_simulate_cycles(
                nl, faults, seq, width=8, shards=2, backend="kernel",
            )
        net_stats, _obj_stats = pool.submit(
            _probe_worker_caches, None
        ).result(timeout=60)
        # Three sharded calls -> six shard tasks in the single warm
        # worker, but the netlist body crossed exactly once.
        assert net_stats["misses"] - base["misses"] == 1
        assert net_stats["hits"] - base["hits"] == 5
        assert net_stats["entries"] >= 1

    def test_shm_payload_refs_are_smaller(self, monkeypatch):
        monkeypatch.setattr(shard, "TEST_FAULTS_PER_SHARD", 4)
        nl = genscale.generate_netlist(400, seed=13)
        faults = all_faults(nl)[:32]
        seq = _sequence(nl, width=8, n_cycles=2)
        sizes = {}
        for transport in ("pickle", "shm"):
            monkeypatch.setenv(shm.TRANSPORT_ENV, transport)
            with collect() as custom:
                fault_sim.fault_simulate_cycles(
                    nl, faults, seq, width=8, shards=2,
                    backend="kernel",
                )
            sizes[transport] = custom["payload_bytes"]
        assert sizes["shm"] * 5 <= sizes["pickle"]
        assert _no_repro_segments()


# -- shard workers inherit the parent's netlist ----------------------------

def _inherit_probe(args):
    """A shard worker that reports how it came by its netlist."""
    before = kernel.netlist_cache_stats()
    fetched = shm.worker_cache_stats()["object_misses"]
    _digest, netlist, faults, _shared, _params = open_shard(args)
    after = kernel.netlist_cache_stats()
    return {
        "in_worker": multiprocessing.parent_process() is not None,
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "fetched": shm.worker_cache_stats()["object_misses"] - fetched,
        "compiled": "compiled" in netlist.derived(),
        "faults": [(f.net, f.stuck_at) for f in faults],
    }


def _failing_probe(args):
    open_shard(args)
    raise ValueError("probe shard refused")


class _SpawnPools(PoolProvider):
    """Fresh one-worker pools whose workers start from a new
    interpreter, not a fork of the parent."""

    def acquire(self, jobs: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn"))


@pytest.fixture
def spawn_pools():
    set_shard_pool_provider(_SpawnPools())
    yield
    set_shard_pool_provider(None)


def _registry():
    return [(d, id(nl)) for d, nl in kernel._BY_HASH.items()]


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers inherit the registry only through fork")


class TestInheritance:
    @needs_fork
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_forked_worker_starts_from_parent_netlist(
        self, monkeypatch, transport
    ):
        """A worker forked for the call resolves the digest from the
        registry without a fetch and finds the parent's compiled program
        in the netlist's memo; the parent's registry is as it was."""
        monkeypatch.setenv(shm.TRANSPORT_ENV, transport)
        nl = genscale.generate_netlist(150, seed=21)
        faults = all_faults(nl)[:8]
        before = _registry()
        got = shard_map(_inherit_probe, nl, [faults[:4], faults[4:]],
                        "probe")
        assert [r["in_worker"] for r in got] == [True, True]
        assert [(r["hits"], r["misses"], r["fetched"]) for r in got] \
            == [(1, 0, 0)] * 2
        assert [r["compiled"] for r in got] == [True, True]
        assert [r["faults"] for r in got] == [
            [(f.net, f.stuck_at) for f in chunk]
            for chunk in (faults[:4], faults[4:])]
        assert _registry() == before

    def test_registry_unchanged_when_a_shard_raises(self):
        nl = genscale.generate_netlist(120, seed=22)
        faults = all_faults(nl)[:8]
        before = _registry()
        with pytest.raises(ValueError, match="probe shard refused"):
            shard_map(_failing_probe, nl, [faults[:4], faults[4:]],
                      "probe")
        assert _registry() == before

    @needs_fork
    def test_existing_entry_left_alone(self):
        nl = genscale.generate_netlist(120, seed=23)
        digest, blob = kernel.netlist_blob(nl)
        copy = pickle.loads(blob)
        kernel._BY_HASH[digest] = copy
        try:
            got = shard_map(_inherit_probe, nl, [all_faults(nl)[:4]],
                            "probe")
            assert got[0]["hits"] == 1
            assert kernel._BY_HASH[digest] is copy
        finally:
            kernel._BY_HASH.pop(digest, None)

    def test_concurrent_lends_leave_registry_clean(self):
        """Threads lending the same few digests at once (the serve layer
        runs flows on threads) leave the registry as they found it."""
        designs = [genscale.generate_netlist(40, seed=s) for s in range(3)]
        lends = [(kernel.netlist_hash(nl), nl) for nl in designs] + [
            (kernel.netlist_hash(designs[0]), pickle.loads(
                pickle.dumps(designs[0])))]
        before = _registry()
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    digest, nl = rng.choice(lends)
                    with kernel.lend_netlist(digest, nl):
                        pass
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert _registry() == before

    def test_spawned_worker_decodes_once(self, monkeypatch, spawn_pools):
        """A spawned worker inherits nothing: its first shard fetches
        and decodes the published body (one miss), its second hits, and
        sharded fault simulation on such pools equals serial."""
        monkeypatch.setenv(shm.TRANSPORT_ENV, "shm")
        nl = genscale.generate_netlist(150, seed=24)
        faults = all_faults(nl)[:32]
        got = shard_map(_inherit_probe, nl, [faults[:16], faults[16:]],
                        "probe")
        assert [r["in_worker"] for r in got] == [True, True]
        assert [(r["hits"], r["misses"]) for r in got] == [(0, 1), (1, 0)]
        assert [r["fetched"] for r in got] == [1, 0]
        assert not got[0]["compiled"]
        seq = _sequence(nl, width=8, n_cycles=2)
        assert fault_sim.fault_simulate_cycles(
            nl, faults, seq, width=8, shards=2, backend="kernel",
        ) == fault_sim.fault_simulate_cycles(
            nl, faults, seq, width=8, shards=1, backend="kernel",
        )


@pytest.fixture(autouse=True)
def _leak_guard():
    yield
    assert _no_repro_segments(), "leaked repro_* shared-memory segments"


# -- transport equivalence on random designs -------------------------------

@pytest.fixture(scope="class")
def eq_pool():
    """One warm 2-worker pool shared across hypothesis examples, so the
    test measures transport equivalence rather than pool spawn time."""
    from repro.flow.resilience import set_shard_pool_provider

    provider = WarmPoolProvider(jobs=2)
    provider.prewarm()
    set_shard_pool_provider(provider)
    yield provider
    set_shard_pool_provider(None)
    provider.close()


class TestTransportEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(nl=netlists())
    # At scale: an 11,975-gate genscale design, 64 sampled faults.
    @example(nl=genscale.generate_netlist(10_000, seed=1,
                                          signature_bits=32))
    def test_shm_and_pickle_agree(self, eq_pool, nl):
        import os

        faults = genscale.sample_faults(nl, 64, seed=3)
        if len(faults) < 8:
            return
        seq = _sequence(nl, width=8, n_cycles=3)
        saved = shard.TEST_FAULTS_PER_SHARD
        shard.TEST_FAULTS_PER_SHARD = 4
        got = {}
        try:
            for t in ("pickle", "shm"):
                os.environ[shm.TRANSPORT_ENV] = t
                for shards in (2, 4):
                    got[t, shards] = fault_sim.fault_simulate_cycles(
                        nl, faults, seq, width=8, shards=shards,
                        backend="kernel",
                    )
        finally:
            shard.TEST_FAULTS_PER_SHARD = saved
            os.environ.pop(shm.TRANSPORT_ENV, None)
        serial = fault_sim.fault_simulate_cycles(
            nl, faults, seq, width=8, shards=1, backend="kernel",
        )
        for config, result in got.items():
            assert result == serial, config
            assert list(result) == list(serial), config


# -- scale-proof generator -------------------------------------------------

class TestGenscale:
    def test_seeded_and_reproducible(self):
        a = genscale.generate_netlist(300, seed=9, signature_bits=8)
        b = genscale.generate_netlist(300, seed=9, signature_bits=8)
        c = genscale.generate_netlist(300, seed=10, signature_bits=8)
        assert kernel.netlist_hash(a) == kernel.netlist_hash(b)
        assert kernel.netlist_hash(a) != kernel.netlist_hash(c)
        a.validate()
        assert len(a) >= 270  # ~n_gates budget, mop-up included
        assert any(g.scan for g in a.dffs())

    def test_bist_wrap(self):
        nl = genscale.generate_netlist(200, seed=2, signature_bits=8)
        hw = genscale.bist_wrap(nl)
        assert hw.signature_registers == ("sr0",)
        assert len(hw.signature_bit_nets()["sr0"]) == 8
        with pytest.raises(ValueError):
            genscale.bist_wrap(genscale.generate_netlist(200, seed=2))

    def test_patterns_and_faults_deterministic(self):
        nl = genscale.generate_netlist(120, seed=4)
        assert (genscale.random_patterns(nl, 5, seed=1)
                == genscale.random_patterns(nl, 5, seed=1))
        assert (genscale.sample_faults(nl, 20, seed=1)
                == genscale.sample_faults(nl, 20, seed=1))
        assert len(genscale.sample_faults(nl, 10**9)) == len(
            all_faults(nl))


# -- error surfacing (satellite: no silently swallowed workers) ------------

def _fails_in_workers_only(args):
    i, x = args
    if multiprocessing.parent_process() is not None:
        raise ValueError(f"worker refused shard {i}")
    return x * 10


def _always_fails(args):
    i, _x = args
    raise ValueError(f"shard {i} is cursed")


class TestErrorSurfacing:
    def test_worker_errors_are_counted_not_swallowed(self):
        results, info = run_sharded(
            _fails_in_workers_only, [(i, i) for i in range(3)],
            max_workers=2,
        )
        assert results == [0, 10, 20]  # in-process fallback rescued
        assert info["shard_errors"] >= 3
        assert info["shard_fallbacks"] == 3
        count, last = info["shard_error_detail"][0]
        assert count >= 1
        assert "worker refused shard 0" in last

    def test_exhausted_shard_raises_with_worker_history(self):
        with pytest.raises(ValueError) as excinfo:
            run_sharded(_always_fails, [(0, 0)], max_workers=1)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("also failed" in n and "worker processes" in n
                   for n in notes)
