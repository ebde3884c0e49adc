"""Tests for task declarations and task-graph compilation."""

import random

import numpy as np
import pytest

from repro.core import DistributedRMCRT
from repro.grid import (
    Box,
    Grid,
    Level,
    LoadBalancer,
    Patch,
    build_two_level_grid,
    decompose_level,
)
from repro.dw import CCVariable, DataWarehouse, VarKind, cc, per_level, reduction
from repro.runtime import (
    Computes,
    DistributedScheduler,
    Requires,
    SerialScheduler,
    Task,
    TaskContext,
    TaskGraph,
    gather_cc,
)
from repro.util.errors import SchedulerError
from tests.test_three_level import three_level_grid


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
            assert m.parts and not any(region.empty for _, region, _ in m.parts)

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
        # ranks 1..3; rank 0 has it locally
        assert [(m.dst_rank, m.parts) for m in graph.messages] == [
            (rank, ((COARSE, grid.level(0).domain_box, 0),)) for rank in (1, 2, 3)
        ]
        for rank in (1, 2, 3):
            waiting = [t for t in graph.tasks_on_rank(rank) if t.pending_msgs]
            assert len(waiting) == 16 and all(t.pending_msgs == {rank - 1} for t in waiting)

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

    def test_require_many_checks_every_label_and_wants_one_region(self):
        grid = make_grid()
        level = grid.level(0)
        patch = level.patches[0]
        psi, chi = cc("psi"), cc("chi")
        task = Task("t", noop, requires=[
            Requires(PHI, num_ghost=1), Requires(psi, num_ghost=1), Requires(chi, num_ghost=2),
        ])
        dw = DataWarehouse()
        for p in level.patches:
            for label in (PHI, psi, chi):
                data = np.full(p.box.extent, p.patch_id + 0.5)
                dw.put(label, p.patch_id, CCVariable(p.box, data))
        ctx = TaskContext(task, patch, level, None, dw)
        phi_arr, psi_arr = ctx.require_many([PHI, psi], defaults=[-1.0, -2.0])
        np.testing.assert_array_equal(phi_arr, ctx.require(PHI, default=-1.0))
        np.testing.assert_array_equal(psi_arr, ctx.require(psi, default=-2.0))
        with pytest.raises(SchedulerError, match="different ghost widths"):
            ctx.require_many([PHI, chi])
        with pytest.raises(SchedulerError, match="undeclared label rho"):
            ctx.require_many([PHI, cc("rho")])
        # a launch read, over a part of the declared ghost box
        inner = patch.box.grow(1).intersect(level.domain_box)
        block_box, (phi_block, psi_block) = TaskContext.require_launch(
            [ctx], [PHI, psi], [inner]
        )
        assert block_box == inner
        np.testing.assert_array_equal(phi_block, phi_arr[1:, 1:, 1:])
        np.testing.assert_array_equal(psi_block, psi_arr[1:, 1:, 1:])
        with pytest.raises(SchedulerError, match="outside its declared 1-ghost box"):
            TaskContext.require_launch([ctx], [PHI, psi], [patch.box.grow(2)])

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
            assert by_id[m.src_dtask_id].level_index == 1
            for _, region, level_index in m.parts:
                assert level_index == 1
                assert grid.level(1).patch(m.src_patch_id).box.contains_box(region)
        rank_dws = DistributedScheduler(3).execute(graph)
        assert (gather_cc(graph, rank_dws, PSI, 1) == 1.0).all()

    def test_overlap_tests_bounded_by_neighbour_count(self, monkeypatch):
        """The scaling guard, as a count: on the 512-patch, 4-rank RMCRT
        graph each (consumer, ghost width) tests the <= 27 patches around
        it, not all 512 producers of the label — once, whatever the
        number of labels read with that width."""
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
        assert (len(graph.detailed_tasks), len(graph.messages)) == (1025, 603)
        # one lookup per (consumer, ghost width): 512 traces and the
        # level-wide coarsen, each reading its three labels with one width
        assert len(queries) == 512 + 1
        for region, tests, found in queries:
            if region == fine.domain_box:       # coarsen reads every patch
                assert tests == found == 512
            else:
                assert found <= tests <= 27
        # beyond the lookups, at most one overlap per producer found
        lookups = sum(tests for _, tests, _ in queries)
        assert box_tests[0] - lookups <= sum(found for _, _, found in queries)
        assert box_tests[0] <= 2 * (27 * 512 * 3 + 512 * 3)


class TestGatherCC:
    """``gather_cc`` finds holes by the cells its patches cover, never
    by looking for NaN in the values."""

    @staticmethod
    def gather(grid, fill):
        tg = TaskGraph(grid)
        tg.add_task(
            Task("init", lambda ctx: ctx.compute(PHI, fill(ctx.patch)),
                 computes=[Computes(PHI)]),
            0,
        )
        graph = tg.compile()
        return gather_cc(graph, {0: SerialScheduler().execute(graph)}, PHI, 0)

    def test_nan_values_are_data(self):
        grid = make_grid()

        def fill(patch):
            values = np.full(patch.box.extent, float(patch.patch_id))
            values[0, 0, 0] = np.nan
            return values

        out = self.gather(grid, fill)
        assert np.isnan(out).sum() == len(grid.level(0).patches)
        assert np.isnan(out[0, 0, 0]) and np.isnan(out[4, 4, 4])
        assert out[1, 1, 1] == 0.0

    def test_a_hole_raises_naming_the_label(self):
        grid = Grid()
        level = grid.add_level(Box.cube(8), (1.0 / 8,) * 3)
        level.add_patch(Patch(0, 0, Box.cube(4)))      # 448 of 512 cells owned by none
        with pytest.raises(SchedulerError, match="gather of phi left holes"):
            self.gather(grid, lambda patch: np.zeros(patch.box.extent))


@pytest.mark.parametrize("levels", [2, 3])
@pytest.mark.parametrize("halo", [1, 2, 4])
@pytest.mark.parametrize("num_ranks", [2, 3, 4])
class TestMessageCoverage:
    """One message per (producing task, destination rank), and what it
    carries is proved at compile time from the geometry alone: random
    assignments, halos up to the patch size, two and three levels."""

    @pytest.fixture
    def graphs(self, levels, halo, num_ranks):
        if levels == 2:
            grid = build_two_level_grid(12, 2, fine_patch_size=4)
        else:
            grid = three_level_grid(fine=12, patch=4)
        tg = DistributedRMCRT(grid, lambda level, box: {}, halo=halo).build_taskgraph()
        fine = grid.finest_level
        compiled = []
        for seed in (0, 1):
            rng = random.Random(seed)
            assignment = {p.patch_id: rng.randrange(num_ranks) for p in fine.patches}
            # the level task's pseudo-patch: the coarsen task moves about too
            assignment[-(1000 + fine.num_patches)] = rng.randrange(num_ranks)
            compiled.append(tg.compile(assignment=assignment, num_ranks=num_ranks))
        return compiled

    def test_one_message_of_maximal_parts_per_producer_and_rank(self, graphs):
        for graph in graphs:
            routes = [(m.src_dtask_id, m.dst_rank) for m in graph.messages]
            assert len(set(routes)) == len(routes)
            for m in graph.messages:
                src = graph.detailed_tasks[m.src_dtask_id]
                assert graph.messages[m.msg_id] is m
                assert (m.src_rank, m.src_patch_id) == (src.rank, src.patch.patch_id)
                assert m.src_rank != m.dst_rank
                for label, region, level_index in m.parts:
                    if label.kind is VarKind.CELL_CENTERED:
                        assert src.patch.box.contains_box(region)
                    else:
                        assert region == graph.grid.level(level_index).domain_box
                    assert not any(
                        other != region and other.contains_box(region)
                        for name, other, _ in m.parts if name == label
                    )

    def test_parts_cover_what_every_consumer_reads(self, graphs):
        for graph in graphs:
            tasks = graph.detailed_tasks
            per_consumer_bytes = 0
            for dt in tasks:
                level = graph.grid.level(dt.level_index)
                sent = [part for mid in dt.pending_msgs for part in graph.messages[mid].parts]
                local = [tasks[dep] for dep in dt.internal_deps]
                for req in dt.task.requires:
                    computed_here = [
                        t for t in local if any(c.label == req.label for c in t.task.computes)
                    ]
                    if req.label.kind is not VarKind.CELL_CENTERED:
                        domain = graph.grid.level(req.level_index).domain_box
                        assert bool(computed_here) != ((req.label, domain, req.level_index) in sent)
                        continue
                    want = dt.patch.box.grow(req.num_ghost).intersect(level.domain_box)
                    covered = np.zeros(want.extent, dtype=bool)
                    pieces = [t.patch.box for t in computed_here] + [
                        region for label, region, _ in sent if label == req.label
                    ]
                    for piece in pieces:
                        covered[piece.intersect(want).slices(origin=want.lo)] = True
                    assert covered.all(), (dt, req.label.name)
                    # what one message per (producer, consumer, label) carried
                    per_consumer_bytes += 8 * sum(
                        patch.box.intersect(want).volume
                        for patch in level.patches_intersecting(want)
                        if graph.assignment[patch.patch_id] != dt.rank
                    )
            level_bytes = sum(m.nbytes for m in graph.messages if m.src_patch_id < 0)
            assert graph.total_message_bytes <= per_consumer_bytes + level_bytes
