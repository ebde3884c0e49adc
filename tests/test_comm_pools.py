"""Tests for the request pools: wait-free correctness under real
threads, the legacy race reproduction, and Algorithm 1 semantics."""

import threading
import time

import pytest

from repro.comm import (
    BufferLedger,
    CommNode,
    LockedVectorCommPool,
    WaitFreeCommPool,
    make_pool,
    run_comm_workload,
)
from repro.runtime.mpi import SimMPI
from repro.util.errors import CommError


def completed_node(payload=b"data", nbytes=64):
    fabric = SimMPI(2)
    fabric.comm(0).isend(payload, dest=1, tag=0)
    req = fabric.comm(1).irecv(source=0, tag=0)
    assert req.test()
    return CommNode(req, nbytes=nbytes)


def pending_node():
    fabric = SimMPI(2)
    req = fabric.comm(1).irecv(source=0, tag=0)
    return CommNode(req, nbytes=64), fabric


class TestCommNode:
    def test_finish_once(self):
        node = completed_node()
        ledger = BufferLedger()
        ledger.allocate(node.nbytes)
        assert node.finish_communication(ledger)
        assert not node.finish_communication(ledger)  # second caller loses
        assert ledger.outstanding == 0

    def test_callback_invoked_with_data(self):
        got = []
        node = completed_node(payload=b"hello")
        node.on_finish = got.append
        node.finish_communication()
        assert got == [b"hello"]

    def test_ledger_accounting(self):
        ledger = BufferLedger()
        ledger.allocate(100)
        ledger.allocate(50)
        ledger.free(100)
        assert ledger.outstanding == 1
        assert ledger.outstanding_bytes == 50


class TestWaitFreePool:
    def test_insert_find_erase(self):
        pool = WaitFreeCommPool(capacity=4)
        node = completed_node()
        pool.insert(node)
        assert len(pool) == 1
        it = pool.find_any(lambda n: n.test())
        assert it and it.value is node
        it.erase()
        assert len(pool) == 0

    def test_find_any_none_when_pending(self):
        pool = WaitFreeCommPool(capacity=4)
        node, _fabric = pending_node()
        pool.insert(node)
        assert pool.find_any(lambda n: n.test()) is None

    def test_iterator_uniqueness(self):
        """While one iterator holds a slot, find_any cannot return it."""
        pool = WaitFreeCommPool(capacity=4)
        pool.insert(completed_node())
        it1 = pool.find_any(lambda n: True)
        assert it1 is not None
        assert pool.find_any(lambda n: True) is None  # slot is claimed
        it1.release()
        assert pool.find_any(lambda n: True) is not None

    def test_iterator_invalidated_after_use(self):
        pool = WaitFreeCommPool(capacity=4)
        pool.insert(completed_node())
        it = pool.find_any(lambda n: True)
        it.erase()
        with pytest.raises(CommError):
            _ = it.value
        with pytest.raises(CommError):
            it.erase()

    def test_iterator_context_manager_releases(self):
        pool = WaitFreeCommPool(capacity=4)
        pool.insert(completed_node())
        with pool.find_any(lambda n: True) as it:
            assert it.valid
        assert pool.find_any(lambda n: True) is not None  # released

    def test_growth_beyond_capacity(self):
        pool = WaitFreeCommPool(capacity=2, growth_chunk=2)
        for _ in range(7):
            pool.insert(completed_node())
        assert len(pool) == 7
        assert pool.capacity >= 7

    def test_process_ready_processes_all_completed(self):
        pool = WaitFreeCommPool(capacity=16)
        for _ in range(5):
            pool.insert(completed_node())
        pending, _fabric = pending_node()
        pool.insert(pending)
        assert pool.process_ready() == 5
        assert len(pool) == 1  # the pending one remains
        assert pool.ledger.outstanding == 0

    def test_bad_capacity(self):
        with pytest.raises(CommError):
            WaitFreeCommPool(capacity=0)

    def test_concurrent_claim_race(self):
        """Many threads fighting over few completed records: every record
        processed exactly once, nothing leaked."""
        pool = WaitFreeCommPool(capacity=64)
        n = 40
        for _ in range(n):
            pool.insert(completed_node())
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            while pool.processed < n:
                pool.process_ready()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pool.processed == n
        assert pool.ledger.outstanding == 0
        assert pool.ledger.allocated == n


class TestLockedPool:
    def test_safe_mode_processes_all(self):
        pool = LockedVectorCommPool(mode="safe")
        for _ in range(5):
            pool.insert(completed_node())
        assert pool.process_ready() == 5
        assert pool.ledger.outstanding == 0
        assert len(pool) == 0

    def test_pending_stay(self):
        pool = LockedVectorCommPool(mode="safe")
        node, _fabric = pending_node()
        pool.insert(node)
        assert pool.process_ready() == 0
        assert len(pool) == 1

    def test_bad_mode(self):
        with pytest.raises(CommError):
            LockedVectorCommPool(mode="yolo")

    def test_racy_mode_single_thread_is_clean(self):
        pool = LockedVectorCommPool(mode="racy")
        for _ in range(5):
            pool.insert(completed_node())
        assert pool.process_ready() == 5
        assert pool.ledger.outstanding == 0


class TestPoolStats:
    def test_waitfree_counts_scans_and_retired(self):
        pool = WaitFreeCommPool(capacity=16)
        for _ in range(5):
            pool.insert(completed_node())
        assert pool.process_ready() == 5
        assert pool.stats.retired == 5
        assert pool.stats.passes == 1
        assert pool.stats.slot_scans >= 5  # at least one scan per record

    def test_waitfree_counts_claim_failures(self):
        pool = WaitFreeCommPool(capacity=4)
        pool.insert(completed_node())
        it = pool.find_any(lambda n: True)  # holds the slot's try-lock
        assert it is not None
        assert pool.find_any(lambda n: True) is None
        assert pool.stats.claim_failures >= 1
        it.release()

    def test_waitfree_counts_grows(self):
        pool = WaitFreeCommPool(capacity=2, growth_chunk=2)
        for _ in range(5):
            pool.insert(completed_node())
        assert pool.stats.grows >= 1

    def test_pools_report_comparable_retired_counts(self):
        """Same workload through the locked and wait-free pools: both
        designs must retire exactly every completed request — the
        paper's change is about contention, not about what gets done."""
        n = 12
        waitfree = WaitFreeCommPool(capacity=32)
        locked = LockedVectorCommPool(mode="safe")
        for _ in range(n):
            waitfree.insert(completed_node())
            locked.insert(completed_node())
        while waitfree.process_ready():
            pass
        while locked.process_ready():
            pass
        assert waitfree.stats.retired == n
        assert locked.stats.retired == n
        assert waitfree.stats.retired == locked.stats.retired
        assert waitfree.stats.slot_scans >= n
        assert locked.stats.slot_scans >= n

    def test_publish_metrics_delta_flush(self):
        from repro.perf.metrics import MetricsRegistry

        registry = MetricsRegistry()
        pool = WaitFreeCommPool(capacity=16)
        for _ in range(3):
            pool.insert(completed_node())
        pool.process_ready()
        pool.publish_metrics(registry, pool="waitfree")
        assert registry.value("comm.pool.retired", pool="waitfree") == 3
        # publishing again without new work must not double-count
        pool.publish_metrics(registry, pool="waitfree")
        assert registry.value("comm.pool.retired", pool="waitfree") == 3
        pool.insert(completed_node())
        pool.process_ready()
        pool.publish_metrics(registry, pool="waitfree")
        assert registry.value("comm.pool.retired", pool="waitfree") == 4


class TestWorkloads:
    @pytest.mark.parametrize("kind", ["waitfree", "locked"])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_clean_under_concurrency(self, kind, threads):
        pool = make_pool(kind)
        result = run_comm_workload(pool, num_threads=threads, num_messages=300)
        assert result.clean, (
            f"{kind}/{threads}t: processed={result.processed}, "
            f"leaked={result.leaked_buffers}, races={result.races_observed}"
        )

    def test_legacy_racy_leaks_under_concurrency(self):
        """The Section IV.A bug: with several threads, the legacy pool
        double-processes completions and leaks buffers. The race is
        probabilistic; drive enough messages that it fires."""
        leaked = 0
        races = 0
        for attempt in range(6):
            pool = make_pool("legacy-racy", unpack_delay=1e-5)
            result = run_comm_workload(
                pool, num_threads=8, num_messages=400, overlapped_sends=True
            )
            leaked += result.leaked_buffers
            races += result.races_observed
            assert result.processed == result.expected  # each msg processed once
            if leaked > 0:
                break
        assert leaked > 0 and races > 0, "race did not manifest in 2400 messages"
        assert leaked == races  # one leaked buffer per lost race

    def test_make_pool_unknown(self):
        with pytest.raises(CommError):
            make_pool("mystery")

    def test_make_pool_builds_every_kind_the_profile_cli_offers(self, capsys):
        import re

        from repro.comm import POOL_KINDS
        from repro.perf.profile import cmd_profile

        with pytest.raises(SystemExit):
            cmd_profile(["--help"])
        offered = re.search(r"--pool \{([^}]*)\}", capsys.readouterr().out)
        assert tuple(offered.group(1).split(",")) == POOL_KINDS
        for kind in POOL_KINDS:
            assert isinstance(make_pool(kind), (LockedVectorCommPool, WaitFreeCommPool))

    def test_workload_validation(self):
        with pytest.raises(CommError):
            run_comm_workload(make_pool("waitfree"), num_threads=0)


def test_rank_pool_is_sized_to_its_posted_receives(monkeypatch):
    """A rank's wait-free pool is sized before the fact (as Uintah sizes
    it) to the receives the rank posts, and never grows."""
    from repro.core import DistributedRMCRT, benchmark_property_init
    from repro.grid import LoadBalancer
    from repro.radiation import BurnsChristonBenchmark
    from repro.runtime import DistributedScheduler
    from repro.runtime.scheduler import RankLink

    links = []
    post_init = RankLink.__post_init__

    def recorded(link):
        post_init(link)
        links.append(link)

    monkeypatch.setattr(RankLink, "__post_init__", recorded)
    bench = BurnsChristonBenchmark(resolution=24)
    grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
    drm = DistributedRMCRT(grid, benchmark_property_init(bench), rays_per_cell=1, halo=2)
    graph = drm.build_graph(
        assignment=LoadBalancer(2).assign(grid.finest_level.patches), num_ranks=2
    )
    DistributedScheduler(2).execute(graph)
    assert sorted(link.rank for link in links) == [0, 1]
    for link in links:
        receives = len(graph.messages_to(link.rank))
        assert receives > 0
        assert link.pool.capacity == receives
        assert link.pool.stats.grows == 0
        assert link.pool.stats.retired == receives
