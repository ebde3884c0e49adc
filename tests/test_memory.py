"""Tests for the heap models, arena, pool, and the
fragmentation workload (Section IV.B)."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    AllocatorStack,
    ArenaAllocator,
    GlobalLockAllocator,
    SimulatedHeap,
    SizeClassHeap,
    SizeClassPool,
    generate_trace,
    replay_trace,
)
from repro.util.errors import AllocationError


class TestSimulatedHeap:
    def test_basic_alloc_free(self):
        h = SimulatedHeap()
        a = h.malloc(100)
        b = h.malloc(200)
        assert a != b
        assert h.live_bytes == 112 + 208  # 16-byte aligned
        h.free(a)
        h.free(b)
        assert h.live_bytes == 0
        assert h.heap_end == 0  # everything trimmed back

    def test_first_fit_reuses_hole(self):
        h = SimulatedHeap()
        a = h.malloc(1000)
        _pin = h.malloc(64)  # pins the top so the hole survives
        h.free(a)
        end_before = h.heap_end
        c = h.malloc(500)
        assert c == a  # reused the hole
        assert h.heap_end == end_before

    def test_best_fit_picks_tightest(self):
        h = SimulatedHeap(policy="best_fit")
        a = h.malloc(1024)
        _p1 = h.malloc(16)
        b = h.malloc(256)
        _p2 = h.malloc(16)
        h.free(a)
        h.free(b)
        c = h.malloc(200)
        assert c == b  # tightest hole, not the first

    def test_coalescing(self):
        h = SimulatedHeap()
        addrs = [h.malloc(64) for _ in range(4)]
        _pin = h.malloc(16)
        for a in addrs:
            h.free(a)
        assert h.largest_free_block() == 4 * 64
        h.check_invariants()

    def test_double_free(self):
        h = SimulatedHeap()
        a = h.malloc(64)
        h.free(a)
        with pytest.raises(AllocationError):
            h.free(a)

    def test_bad_size(self):
        with pytest.raises(AllocationError):
            SimulatedHeap().malloc(0)

    def test_fragmentation_metric(self):
        h = SimulatedHeap()
        a = h.malloc(1 << 20)
        _pin = h.malloc(16)
        h.free(a)
        assert h.fragmentation > 0.9  # a big hole under a small pin

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 5000)), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_invariants_random_workload(self, ops):
        """Property: free-list invariants survive any alloc/free order."""
        h = SimulatedHeap()
        live = []
        for is_alloc, size in ops:
            if is_alloc or not live:
                live.append(h.malloc(size))
            else:
                h.free(live.pop(size % len(live)))
            h.check_invariants()
        for a in live:
            h.free(a)
        h.check_invariants()
        assert h.live_bytes == 0


class TestSizeClassHeap:
    def test_rounding_to_class(self):
        h = SizeClassHeap()
        h.malloc(17)
        assert h.live_bytes == 32

    def test_page_reuse_within_class(self):
        h = SizeClassHeap(page_size=256)
        addrs = [h.malloc(64) for _ in range(4)]  # exactly one page
        assert h.pages_mapped == 1
        h.free(addrs[0])
        again = h.malloc(64)
        assert again == addrs[0]
        assert h.pages_mapped == 1

    def test_empty_page_unmapped(self):
        h = SizeClassHeap(page_size=256)
        addrs = [h.malloc(64) for _ in range(4)]
        for a in addrs:
            h.free(a)
        assert h.pages_mapped == 0

    def test_persistent_object_pins_page(self):
        """The tcmalloc residual: one live object holds a whole page."""
        h = SizeClassHeap(page_size=4096)
        addrs = [h.malloc(64) for _ in range(64)]  # one page of 64B slots
        for a in addrs[1:]:
            h.free(a)
        assert h.pages_mapped == 1
        assert h.fragmentation > 0.9

    def test_large_objects_to_page_heap(self):
        h = SizeClassHeap(page_size=4096)
        a = h.malloc(100_000)
        assert h.live_bytes == 100_000
        h.free(a)
        assert h.live_bytes == 0

    def test_double_free(self):
        h = SizeClassHeap()
        a = h.malloc(64)
        h.free(a)
        with pytest.raises(AllocationError):
            h.free(a)


class TestArena:
    def test_page_rounding(self):
        a = ArenaAllocator(page_size=4096)
        addr = a.malloc(5000)
        assert a.mapped_bytes == 8192
        a.free(addr)
        assert a.mapped_bytes == 0
        assert a.munmap_calls == 1

    def test_no_fragmentation_after_churn(self):
        """The arena's whole point: any alloc/free pattern returns all
        address space."""
        a = ArenaAllocator()
        rng = np.random.default_rng(0)
        live = []
        for _ in range(500):
            if rng.random() < 0.6 or not live:
                live.append(a.malloc(int(rng.integers(1, 10 ** 7))))
            else:
                a.free(live.pop(int(rng.integers(0, len(live)))))
        for addr in live:
            a.free(addr)
        assert a.mapped_bytes == 0
        assert a.fragmentation == 0.0

    def test_rounding_waste_bounded(self):
        a = ArenaAllocator(page_size=4096)
        a.malloc(1)
        assert a.fragmentation <= 1.0 - 1 / 4096

    def test_errors(self):
        a = ArenaAllocator()
        with pytest.raises(AllocationError):
            a.malloc(0)
        with pytest.raises(AllocationError):
            a.free(123)


class TestSizeClassPool:
    def test_alloc_free_reuse(self):
        p = SizeClassPool(chunk_slots=4)
        a = p.malloc(100)
        p.free(a)
        b = p.malloc(100)
        assert b == a  # slab slot reused
        assert p.live_objects == 1

    def test_footprint_bounded_by_high_water(self):
        p = SizeClassPool(chunk_slots=8)
        addrs = [p.malloc(64) for _ in range(32)]
        fp = p.footprint
        for a in addrs:
            p.free(a)
        for _ in range(10):  # churn at lower occupancy
            a = p.malloc(64)
            p.free(a)
        assert p.footprint == fp  # slab footprint never grows past peak

    def test_size_cap(self):
        p = SizeClassPool(max_size=1024)
        with pytest.raises(AllocationError):
            p.malloc(4096)

    def test_double_free_detected(self):
        p = SizeClassPool()
        a = p.malloc(64)
        p.free(a)
        with pytest.raises(AllocationError):
            p.free(a)

    def test_threaded_correctness(self):
        """8 threads churning the pool: every address unique among live
        allocations, all frees clean."""
        p = SizeClassPool(chunk_slots=16)
        errors = []

        def churn(seed):
            rng = np.random.default_rng(seed)
            live = []
            try:
                for _ in range(400):
                    if rng.random() < 0.55 or not live:
                        live.append(p.malloc(int(rng.integers(16, 512))))
                    else:
                        p.free(live.pop(int(rng.integers(0, len(live)))))
                for a in live:
                    p.free(a)
            except BaseException as e:  # pragma: no cover  # repro: allow(overbroad-except)
                errors.append(e)

        threads = [threading.Thread(target=churn, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert p.live_objects == 0

    def test_per_class_locks_remove_contention(self):
        """4 threads each in their own size class, with a real
        (GIL-releasing) critical section: the global lock piles up,
        the per-class pool never contends."""
        hold = 1e-4
        sizes = [17, 33, 65, 129]  # four distinct classes
        n_ops = 20

        def drive(allocator):
            def worker(size):
                live = []
                for _ in range(n_ops):
                    live.append(allocator.malloc(size))
                for a in live:
                    allocator.free(a)

            threads = [threading.Thread(target=worker, args=(s,)) for s in sizes]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return allocator.contended_acquires

        contended_lock = drive(GlobalLockAllocator(hold_time=hold))
        contended_pool = drive(SizeClassPool(hold_time=hold, chunk_slots=64))
        assert contended_lock > 0
        assert contended_pool == 0


class TestWorkloadReplay:
    @pytest.fixture(scope="class")
    def results(self):
        events = generate_trace(timesteps=25, seed=1)
        return {k: replay_trace(k, events) for k in ("glibc", "tcmalloc", "custom")}

    def test_custom_eliminates_fragmentation(self, results):
        assert results["custom"].fragmentation_factor < 1.02

    def test_ordering_matches_paper(self, results):
        """glibc worst, tcmalloc helps, custom (arena+pool) wins."""
        assert (
            results["custom"].fragmentation_factor
            < results["tcmalloc"].fragmentation_factor
            <= results["glibc"].fragmentation_factor
        )

    def test_glibc_persistent_overhead(self, results):
        """The heap holds substantially more address space than the
        application has live, for the whole run — the leak-like symptom.
        (The *unbounded* growth the paper saw additionally needs real
        glibc's binning pathologies; a clean first-fit model saturates,
        see DESIGN.md.)"""
        frag = results["glibc"].fragmentation_series
        n = len(frag)
        late_mean = sum(frag[n // 2:]) / (n - n // 2)
        assert late_mean > 1.3

    def test_custom_frag_flat_at_one(self, results):
        # skip sample 0: one live object against a freshly mapped slab
        # chunk is a cold-start artifact, not fragmentation
        frag = results["custom"].fragmentation_series[1:]
        assert max(frag) < 1.02

    def test_unknown_stack(self):
        with pytest.raises(AllocationError):
            AllocatorStack("jemalloc")

    def test_trace_is_deterministic(self):
        a = generate_trace(timesteps=3, seed=7)
        b = generate_trace(timesteps=3, seed=7)
        assert [(e.op, e.obj_id, e.size) for e in a] == [
            (e.op, e.obj_id, e.size) for e in b
        ]

    def test_nonoverlap_mode(self):
        events = generate_trace(timesteps=5, overlap=False, seed=2)
        r = replay_trace("glibc", events)
        assert r.final_footprint >= 0
