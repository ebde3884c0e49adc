"""The lockset + vector-clock race detector: must flag the seeded
``pool_locked`` race deterministically under contention, pass the
wait-free and safe locked pools clean, and stay quiet over the
threaded scheduler and service worker pool (the instrumented
production paths)."""

import threading

import numpy as np
import pytest

from repro.check import (
    RaceDetector,
    TrackedLock,
    TrackedQueue,
    drive_pool_contended,
    instrument_datawarehouse,
    instrument_worker_pool,
    patch_locks,
)

DRIVE = dict(num_threads=4, num_messages=24, unpack_delay=2e-3)


def run_pair(target_a, target_b):
    """Run two thread bodies concurrently from a barrier."""
    barrier = threading.Barrier(2)

    def wrap(fn):
        def body():
            barrier.wait()
            fn()
        return body

    threads = [threading.Thread(target=wrap(t)) for t in (target_a, target_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestDetectorCore:
    def test_unsynchronized_writes_race(self):
        det = RaceDetector()
        run_pair(lambda: det.on_write("x"), lambda: det.on_write("x"))
        assert det.race_count == 1
        assert det.findings[0].rule == "lockset-race"

    def test_common_lock_is_clean(self):
        det = RaceDetector()
        lock = TrackedLock(threading.Lock(), det, "guard")

        def body():
            with lock:
                det.on_write("x")

        run_pair(body, body)
        assert det.race_count == 0

    def test_channel_transfer_orders_accesses(self):
        """put/get carries happens-before: producer writes, consumer
        reads after receiving — never a race, no locks involved."""
        det = RaceDetector()
        import queue

        chan = TrackedQueue(queue.Queue(), det, "chan")

        def producer():
            det.on_write("payload")
            chan.put(1)

        def consumer():
            chan.get()
            det.on_read("payload")

        run_pair(producer, consumer)
        assert det.race_count == 0

    def test_distinct_locations_do_not_race(self):
        det = RaceDetector()
        run_pair(lambda: det.on_write("a"), lambda: det.on_write("b"))
        assert det.race_count == 0

    def test_tracked_lock_positional_blocking(self):
        """threading.Condition's fallback ``_is_owned`` calls
        ``acquire(False)`` positionally — the shim must accept it."""
        det = RaceDetector()
        lock = TrackedLock(threading.Lock(), det, "cv")
        cv = threading.Condition(lock)
        with cv:
            cv.notify_all()
        assert not lock.locked()


class TestCommPoolVerdicts:
    def test_legacy_racy_pool_is_flagged(self):
        det = drive_pool_contended("legacy-racy", **DRIVE)
        assert det.race_count > 0
        assert all(f.rule == "lockset-race" for f in det.findings)
        assert all("pool_locked.py" in f.file for f in det.findings)

    def test_legacy_racy_verdict_is_deterministic(self):
        """The lockset half needs no lucky interleaving: every repeat
        of the pinned drive must reach the same verdict."""
        for _ in range(3):
            det = drive_pool_contended("legacy-racy", **DRIVE)
            assert det.race_count > 0

    def test_waitfree_pool_is_clean(self):
        det = drive_pool_contended("waitfree", **DRIVE)
        assert det.race_count == 0
        assert det.findings == []

    def test_locked_safe_pool_is_clean(self):
        det = drive_pool_contended("locked", **DRIVE)
        assert det.race_count == 0


class TestSchedulerAndService:
    def test_threaded_scheduler_runs_clean_under_patched_locks(self):
        """Every lock the threaded scheduler creates becomes a tracked
        lock; the solve must complete, match serial, and race-free."""
        from repro.core import DistributedRMCRT, benchmark_property_init
        from repro.grid import Box, Grid, decompose_level
        from repro.radiation import BurnsChristonBenchmark

        bench = BurnsChristonBenchmark(resolution=8)
        grid = Grid()
        grid.add_level(Box.cube(4), (2.0 / 8,) * 3)
        level = grid.add_level(Box.cube(8), (1.0 / 8,) * 3,
                               refinement_ratio=(2, 2, 2))
        decompose_level(level, (4, 4, 4))
        drm = DistributedRMCRT(
            grid, benchmark_property_init(bench),
            rays_per_cell=4, halo=2, seed=1,
        )
        serial = drm.solve("serial")
        det = RaceDetector()
        with patch_locks(det):
            threaded = drm.solve("threaded", num_threads=4)
        np.testing.assert_array_equal(serial.divq, threaded.divq)
        assert det.race_count == 0

    def test_datawarehouse_shim_flags_unordered_double_put(self):
        from repro.dw.datawarehouse import DataWarehouse
        from repro.dw.label import cc
        from repro.util.errors import DataWarehouseError

        det = RaceDetector()
        dw = instrument_datawarehouse(DataWarehouse(), det)
        phi = cc("phi")

        def put():
            try:
                dw.put(phi, 0, np.zeros(2))
            except DataWarehouseError:
                pass  # the double-compute guard fires for one thread

        run_pair(put, put)
        assert det.race_count == 1
        assert "dw:phi@p0" in det.distinct_locations()

    @pytest.mark.parametrize("read", ["get_regions", "get_region", "trace_window"])
    def test_datawarehouse_shim_flags_put_racing_a_region_read(self, read):
        """Every region read is one walk, ``get_regions_into``: a ``put``
        with no ordering against a gather of the same patch is flagged
        for every label gathered, whichever entry point the reader used —
        a trace task's window, read through its launch's one walk,
        included."""
        from repro.core import DistributedRMCRT
        from repro.core.distributed import ABSKG, CELL_TYPE, SIGMA_T4
        from repro.dw import CCVariable, DataWarehouse, cc
        from repro.grid import Box, Level, build_two_level_grid, decompose_level
        from repro.runtime import Requires, Task, TaskContext

        det = RaceDetector()
        dw = instrument_datawarehouse(DataWarehouse(), det)
        if read == "trace_window":
            grid = build_two_level_grid(8, 2, fine_patch_size=4)
            level = grid.finest_level
            patch = level.patches[0]
            labels = [ABSKG, SIGMA_T4, CELL_TYPE]
            drm = DistributedRMCRT(grid, lambda level, box: {}, halo=1)
            trace = Task("rmcrt.trace", lambda ctx: None,
                         requires=[Requires(label, num_ghost=1) for label in labels])
            ctx = TaskContext(trace, patch, level, None, dw)
        else:
            level = Level(0, Box.cube(8), dx=(1 / 8,) * 3)
            patch = decompose_level(level, (4, 4, 4))[0]
            labels = [cc("phi"), cc("psi")]

        def put():
            for label in labels:
                dw.put(label, patch.patch_id, CCVariable(patch.box))

        def gather():   # a default per label: the read may come first
            if read == "get_regions":
                dw.get_regions(labels, level, patch.box, [0.0, 0.0])
            elif read == "get_region":
                for label in labels:
                    dw.get_region(label, level, patch.box, default=0.0)
            else:
                drm._fine_windows([ctx])

        run_pair(put, gather)
        assert det.distinct_locations() == {
            f"dw:{label.name}@p{patch.patch_id}" for label in labels
        }

    @pytest.mark.parametrize("racing, flagged", [((4, 0, 0), True), ((8, 0, 0), False)])
    def test_datawarehouse_shim_sees_a_launch_read_region_by_region(self, racing, flagged):
        """A launch read walks its tasks' regions at once, pasting over
        their bounding box, but reads only the patches a region meets:
        a ``put`` racing it is flagged on a patch one task's region
        meets, and not on a patch inside the bounding box that no
        region meets."""
        from repro.dw import CCVariable, DataWarehouse, cc
        from repro.grid import Box, Level, decompose_level
        from repro.runtime import Requires, Task, TaskContext

        det = RaceDetector()
        dw = instrument_datawarehouse(DataWarehouse(), det)
        level = Level(0, Box((0, 0, 0), (20, 4, 4)), dx=(1 / 20,) * 3)
        patches = {p.box.lo: p for p in decompose_level(level, (4, 4, 4))}
        phi = cc("phi")
        task = Task("t", lambda ctx: None, requires=[Requires(phi, num_ghost=1)])
        # regions x in [0, 5) and [15, 20): their bounding box holds every patch
        ctxs = [TaskContext(task, patches[lo], level, None, dw) for lo in [(0, 0, 0), (16, 0, 0)]]
        target = patches[racing]

        def put():
            dw.put(phi, target.patch_id, CCVariable(target.box))

        def gather():   # a default: nothing else is put, and the read may come first
            box, _ = TaskContext.require_launch(ctxs, [phi], defaults=[0.0])
            assert box == level.domain_box.grow(1)

        run_pair(put, gather)
        expected = {f"dw:phi@p{target.patch_id}"} if flagged else set()
        assert det.distinct_locations() == expected

    def test_worker_pool_shim_is_clean(self):
        """Batches hand off dispatcher -> shard through the tracked
        queues; the channel happens-before keeps the verdict clean."""
        from repro.service.batcher import Batch
        from repro.service.workers import WorkerPool

        class Sink:
            def expire(self, pending):
                pass

            def completed(self, *a, **k):
                pass

            def failed(self, *a, **k):
                pass

        det = RaceDetector()
        pool = WorkerPool(num_workers=2, sink=Sink())
        instrument_worker_pool(pool, det)
        pool.start()
        try:
            for i in range(8):
                pool.dispatch(Batch(scene_key=f"{i:08x}"))
        finally:
            pool.stop()
        assert det.race_count == 0
        # every batch hand-off was observed by the shim
        batch_locs = [k for k in det._locations if k.startswith("batch:")]
        assert len(batch_locs) >= 1
