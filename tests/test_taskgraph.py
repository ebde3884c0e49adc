"""Tests for task declarations and task-graph compilation."""

import numpy as np
import pytest

from repro.core import DistributedRMCRT
from repro.grid import (
    Box,
    Grid,
    Level,
    LoadBalancer,
    build_two_level_grid,
    decompose_level,
)
from repro.dw import DataWarehouse, cc, per_level, reduction
from repro.runtime import (
    Computes,
    DistributedScheduler,
    Requires,
    Task,
    TaskContext,
    TaskGraph,
    gather_cc,
)
from repro.util.errors import SchedulerError


def make_grid(n=8, patch=4):
    grid = Grid()
    level = grid.add_level(Box.cube(n), (1.0 / n,) * 3)
    decompose_level(level, (patch,) * 3)
    return grid


PHI = cc("phi")
PSI = cc("psi")
COARSE = per_level("coarse_phi")


def noop(ctx):
    pass


class TestTaskDeclaration:
    def test_valid(self):
        t = Task("init", noop, computes=[Computes(PHI)])
        assert t.name == "init" and not t.device

    def test_empty_name(self):
        with pytest.raises(SchedulerError):
            Task("", noop)

    def test_double_compute_label(self):
        with pytest.raises(SchedulerError):
            Task("t", noop, computes=[Computes(PHI), Computes(PHI)])

    def test_requires_validation(self):
        with pytest.raises(SchedulerError):
            Requires(PHI, dw="future")
        with pytest.raises(SchedulerError):
            Requires(PHI, num_ghost=-1)
        with pytest.raises(SchedulerError):
            Requires(COARSE)  # PER_LEVEL needs level_index


class TestCompile:
    def test_detailed_task_per_patch(self):
        grid = make_grid()
        tg = TaskGraph(grid)
        tg.add_task(Task("init", noop, computes=[Computes(PHI)]), level_index=0)
        graph = tg.compile()
        assert len(graph.detailed_tasks) == 8
        assert not graph.messages

    def test_ghost_dependencies_link_neighbors(self):
        grid = make_grid()
        tg = TaskGraph(grid)
        tg.add_task(Task("init", noop, computes=[Computes(PHI)]), 0)
        tg.add_task(
            Task("smooth", noop, requires=[Requires(PHI, num_ghost=1)],
                 computes=[Computes(PSI)]),
            0,
        )
        graph = tg.compile()
        smooth_tasks = [t for t in graph.detailed_tasks if t.task.name == "smooth"]
        # each smooth patch depends on its own init plus all face/edge/corner
        # neighbours: interior 2x2x2 decomposition -> all 8 init tasks
        for t in smooth_tasks:
            assert len(t.internal_deps) == 8

    def test_no_ghost_only_self_dependency(self):
        grid = make_grid()
        tg = TaskGraph(grid)
        tg.add_task(Task("init", noop, computes=[Computes(PHI)]), 0)
        tg.add_task(
            Task("copy", noop, requires=[Requires(PHI)], computes=[Computes(PSI)]), 0
        )
        graph = tg.compile()
        for t in graph.detailed_tasks:
            if t.task.name == "copy":
                assert len(t.internal_deps) == 1

    def test_old_dw_requires_make_no_edges(self):
        grid = make_grid()
        tg = TaskGraph(grid)
        tg.add_task(
            Task("advance", noop, requires=[Requires(PHI, dw="old", num_ghost=2)],
                 computes=[Computes(PHI)]),
            0,
        )
        graph = tg.compile()
        assert all(not t.internal_deps for t in graph.detailed_tasks)

    def test_cycle_detected(self):
        grid = make_grid()
        tg = TaskGraph(grid)
        tg.add_task(
            Task("a", noop, requires=[Requires(PSI)], computes=[Computes(PHI)]), 0
        )
        tg.add_task(
            Task("b", noop, requires=[Requires(PHI)], computes=[Computes(PSI)]), 0
        )
        with pytest.raises(SchedulerError):
            tg.compile()

    def test_missing_level_producer(self):
        grid = make_grid()
        tg = TaskGraph(grid)
        tg.add_task(
            Task("use", noop, requires=[Requires(COARSE, level_index=0)],
                 computes=[Computes(PHI)]),
            0,
        )
        with pytest.raises(SchedulerError):
            tg.compile()

    def test_empty_graph(self):
        with pytest.raises(SchedulerError):
            TaskGraph(make_grid()).compile()

    def test_level_task_instantiated_once(self):
        grid = make_grid()
        tg = TaskGraph(grid)
        tg.add_task(Task("init", noop, computes=[Computes(PHI)]), 0)
        tg.add_level_task(
            Task("coarsen", noop, requires=[Requires(PHI)],
                 computes=[Computes(COARSE, level_index=0)]),
            0,
        )
        graph = tg.compile()
        coarsen = [t for t in graph.detailed_tasks if t.task.name == "coarsen"]
        assert len(coarsen) == 1
        assert len(coarsen[0].internal_deps) == 8  # needs every patch

    def test_level_var_computed_twice_rejected(self):
        grid = make_grid()
        tg = TaskGraph(grid)
        tg.add_level_task(Task("c1", noop, computes=[Computes(COARSE, level_index=0)]), 0)
        tg.add_level_task(Task("c2", noop, computes=[Computes(COARSE, level_index=0)]), 0)
        with pytest.raises(SchedulerError):
            tg.compile()


class TestDistributedCompile:
    def assignment(self, grid, num_ranks):
        return {p.patch_id: p.patch_id % num_ranks for p in grid.level(0).patches}

    def test_cross_rank_messages_generated(self):
        grid = make_grid()
        tg = TaskGraph(grid)
        tg.add_task(Task("init", noop, computes=[Computes(PHI)]), 0)
        tg.add_task(
            Task("smooth", noop, requires=[Requires(PHI, num_ghost=1)],
                 computes=[Computes(PSI)]),
            0,
        )
        graph = tg.compile(assignment=self.assignment(grid, 2), num_ranks=2)
        assert graph.messages
        for m in graph.messages:
            assert m.src_rank != m.dst_rank
            assert not m.region.empty

    def test_message_volume_shrinks_with_locality(self):
        """An SFC-style assignment (contiguous halves) moves fewer ghost
        bytes than round-robin scattering."""
        grid = make_grid(n=16, patch=4)  # 64 patches
        patches = grid.level(0).patches

        def build(assign):
            tg = TaskGraph(grid)
            tg.add_task(Task("init", noop, computes=[Computes(PHI)]), 0)
            tg.add_task(
                Task("smooth", noop, requires=[Requires(PHI, num_ghost=1)],
                     computes=[Computes(PSI)]),
                0,
            )
            return tg.compile(assignment=assign, num_ranks=2)

        contiguous = {p.patch_id: (0 if p.box.lo[0] < 8 else 1) for p in patches}
        scattered = {p.patch_id: p.patch_id % 2 for p in patches}
        assert (
            build(contiguous).total_message_bytes
            < build(scattered).total_message_bytes
        )

    def test_level_broadcast_deduplicated_per_rank(self):
        """The coarse level variable crosses to each rank exactly once,
        however many consumer patches live there."""
        grid = make_grid(n=8, patch=2)  # 64 patches
        tg = TaskGraph(grid)
        tg.add_level_task(
            Task("coarsen", noop, computes=[Computes(COARSE, level_index=0)]), 0
        )
        tg.add_task(
            Task("trace", noop, requires=[Requires(COARSE, level_index=0)],
                 computes=[Computes(PHI)]),
            0,
        )
        assign = {p.patch_id: p.patch_id % 4 for p in grid.level(0).patches}
        # the pseudo-patch of the level task defaults to rank 0
        graph = tg.compile(assignment=assign, num_ranks=4)
        level_msgs = [m for m in graph.messages if m.label.name == "coarse_phi"]
        assert len(level_msgs) == 3  # ranks 1..3; rank 0 has it locally

    def test_bad_rank_assignment(self):
        grid = make_grid()
        tg = TaskGraph(grid)
        tg.add_task(Task("init", noop, computes=[Computes(PHI)]), 0)
        with pytest.raises(SchedulerError):
            tg.compile(assignment={0: 5}, num_ranks=2)


class TestTaskContext:
    def test_undeclared_read_rejected(self):
        grid = make_grid()
        patch = grid.level(0).patches[0]
        dw = DataWarehouse()
        ctx = TaskContext(Task("t", noop), patch, grid.level(0), None, dw)
        with pytest.raises(SchedulerError):
            ctx.require(PHI)

    def test_undeclared_write_rejected(self):
        grid = make_grid()
        patch = grid.level(0).patches[0]
        ctx = TaskContext(Task("t", noop), patch, grid.level(0), None, DataWarehouse())
        with pytest.raises(SchedulerError):
            ctx.compute(PHI, np.zeros(patch.box.extent))

    def test_ghost_overdraw_rejected(self):
        grid = make_grid()
        patch = grid.level(0).patches[0]
        task = Task("t", noop, requires=[Requires(PHI, num_ghost=1)])
        ctx = TaskContext(task, patch, grid.level(0), None, DataWarehouse())
        with pytest.raises(SchedulerError):
            ctx.require(PHI, num_ghost=2)

    def test_wrong_shape_compute_rejected(self):
        grid = make_grid()
        patch = grid.level(0).patches[0]
        task = Task("t", noop, computes=[Computes(PHI)])
        ctx = TaskContext(task, patch, grid.level(0), None, DataWarehouse())
        with pytest.raises(SchedulerError):
            ctx.compute(PHI, np.zeros((2, 2, 2)))

    def test_old_dw_missing_rejected(self):
        grid = make_grid()
        patch = grid.level(0).patches[0]
        task = Task("t", noop, requires=[Requires(PHI, dw="old")])
        ctx = TaskContext(task, patch, grid.level(0), None, DataWarehouse())
        with pytest.raises(SchedulerError):
            ctx.require(PHI)

    def test_reduction_compute(self):
        grid = make_grid()
        patch = grid.level(0).patches[0]
        lbl = reduction("total")
        task = Task("t", noop, computes=[Computes(lbl)])
        dw = DataWarehouse()
        ctx = TaskContext(task, patch, grid.level(0), None, dw)
        ctx.compute_reduction(lbl, 3.0)
        assert dw.get_reduction(lbl).value == 3.0


class TestProducerLookup:
    """Producers of a ghosted requirement are found through the patch
    index of the consumer's own level."""

    def test_ghosts_never_cross_levels(self):
        """A label computed on two levels: a fine consumer depends on
        the fine producers only. Box overlap across index spaces is
        meaningless, and the stray messages it produced carried coarse
        data into fine gathers."""
        grid = build_two_level_grid(16, 2, fine_patch_size=8, coarse_patch_size=4)

        def init(value):
            return lambda ctx: ctx.compute(PHI, np.full(ctx.patch.box.extent, value))

        def smooth(ctx):
            ghost = ctx.require(PHI, default=np.nan)
            ctx.compute(PSI, np.full(ctx.patch.box.extent, np.nanmin(ghost)))

        tg = TaskGraph(grid)
        tg.add_task(Task("init0", init(0.0), computes=[Computes(PHI)]), 0)
        tg.add_task(Task("init1", init(1.0), computes=[Computes(PHI)]), 1)
        tg.add_task(
            Task("smooth", smooth, requires=[Requires(PHI, num_ghost=1)],
                 computes=[Computes(PSI)]),
            1,
        )
        graph = tg.compile()
        by_id = {t.dtask_id: t for t in graph.detailed_tasks}
        for t in graph.detailed_tasks:
            if t.task.name == "smooth":
                assert {by_id[d].task.name for d in t.internal_deps} == {"init1"}
                assert len(t.internal_deps) == 8    # 2x2x2: all are neighbours

        assign = {p.patch_id: p.patch_id % 3 for p in grid.all_patches()}
        graph = tg.compile(assignment=assign, num_ranks=3)
        assert graph.messages
        for m in graph.messages:
            assert by_id[m.src_dtask_id].level_index == m.level_index == 1
            assert grid.level(1).patch(m.src_patch_id).box.contains_box(m.region)
        rank_dws = DistributedScheduler(3).execute(graph)
        assert (gather_cc(graph, rank_dws, PSI, 1) == 1.0).all()

    def test_overlap_tests_bounded_by_neighbour_count(self, monkeypatch):
        """The scaling guard, as a count: on the 512-patch, 4-rank RMCRT
        graph each (consumer, requirement) tests the <= 27 patches around
        it, not all 512 producers of the label."""
        grid = build_two_level_grid(64, 4, fine_patch_size=8)
        fine = grid.finest_level
        assert fine.num_patches == 512
        tg = DistributedRMCRT(grid, lambda level, box: {}, halo=2).build_taskgraph()

        box_tests = [0]
        queries = []        # (region, box tests inside the query, patches found)

        def counted(method):
            def wrapper(a, b):
                box_tests[0] += 1
                return method(a, b)
            return wrapper

        real_query = Level.patches_intersecting

        def query(level, region):
            before = box_tests[0]
            found = real_query(level, region)
            queries.append((region, box_tests[0] - before, len(found)))
            return found

        monkeypatch.setattr(Box, "intersects", counted(Box.intersects))
        monkeypatch.setattr(Box, "intersect", counted(Box.intersect))
        monkeypatch.setattr(Level, "patches_intersecting", query)
        graph = tg.compile(
            assignment=LoadBalancer(4).assign(fine.patches), num_ranks=4, validate=False
        )
        assert (len(graph.detailed_tasks), len(graph.messages)) == (1025, 6705)
        # one lookup per (consumer, ghosted requirement): 512 traces and
        # the level-wide coarsen, three labels each
        assert len(queries) == (512 + 1) * 3
        for region, tests, found in queries:
            if region == fine.domain_box:       # coarsen reads every patch
                assert tests == found == 512
            else:
                assert found <= tests <= 27
        # beyond the lookups, at most one overlap per producer found
        lookups = sum(tests for _, tests, _ in queries)
        assert box_tests[0] - lookups <= sum(found for _, _, found in queries)
        assert box_tests[0] <= 2 * (27 * 512 * 3 + 512 * 3)
