"""Static task-graph validation: the broken-graph fixture must light
up, the real three-level RMCRT graph must be clean, and compilation
must refuse graphs the validator rejects."""

import dataclasses

import pytest

from repro.check import validate_compiled, validate_taskgraph
from repro.check.cli import broken_taskgraph, demo_taskgraph
from repro.dw.label import cc
from repro.grid import Box, Grid, build_two_level_grid, decompose_level
from repro.grid.loadbalance import LoadBalancer
from repro.runtime.task import Computes, Requires, Task
from repro.runtime.taskgraph import TaskGraph
from repro.util.errors import SchedulerError


def rules(findings):
    return sorted(f.rule for f in findings)


def small_graph():
    grid = Grid()
    level = grid.add_level(Box.cube(8), (1.0 / 8,) * 3)
    decompose_level(level, (4, 4, 4))
    return grid, TaskGraph(grid)


def noop(ctx):
    pass


class TestBrokenGraph:
    def test_fixture_flags_both_defects(self):
        findings = validate_taskgraph(broken_taskgraph())
        assert rules(findings) == ["graph-dangling-consumer",
                                   "graph-write-write"]
        assert all(f.severity == "error" for f in findings)

    def test_compile_refuses_broken_graph(self):
        with pytest.raises(SchedulerError, match="failed validation"):
            broken_taskgraph().compile()

    def test_compile_can_opt_out(self):
        # validate=False preserves the old permissive behavior (the
        # dangling consumer simply never receives data)
        graph = broken_taskgraph().compile(validate=False)
        assert len(graph.detailed_tasks) > 0

    def test_empty_graph(self):
        _, tg = small_graph()
        assert rules(validate_taskgraph(tg)) == ["graph-empty"]

    def test_dangling_level_consumer(self):
        from repro.dw.label import per_level

        _, tg = small_graph()
        tg.add_task(
            Task("t", noop,
                 requires=[Requires(per_level("coarse"), level_index=0)],
                 computes=[Computes(cc("out"))]),
            0,
        )
        assert "graph-dangling-consumer" in rules(validate_taskgraph(tg))

    def test_producer_on_another_level_is_dangling(self):
        """Ghosts are gathered on the consumer's own level, so a CC
        variable computed only on another level feeds nothing."""
        tg = TaskGraph(build_two_level_grid(16, 2, fine_patch_size=8, coarse_patch_size=4))
        phi = cc("phi")
        tg.add_task(Task("init0", noop, computes=[Computes(phi)]), 0)
        tg.add_task(
            Task("use1", noop, requires=[Requires(phi)], computes=[Computes(cc("out"))]),
            1,
        )
        findings = validate_taskgraph(tg)
        assert rules(findings) == ["graph-dangling-consumer"]
        assert "on level 1" in findings[0].message
        tg.add_task(Task("init1", noop, computes=[Computes(phi)]), 1)
        assert validate_taskgraph(tg) == []

    def test_old_dw_requires_need_no_producer(self):
        _, tg = small_graph()
        tg.add_task(
            Task("t", noop,
                 requires=[Requires(cc("prev"), dw="old")],
                 computes=[Computes(cc("out"))]),
            0,
        )
        assert validate_taskgraph(tg) == []

    def test_ordered_write_write_is_clean(self):
        """Two writers of the same variable ARE allowed when dataflow
        orders them (producer -> consumer-that-rewrites)."""
        _, tg = small_graph()
        phi = cc("phi")
        tg.add_task(Task("init", noop, computes=[Computes(phi)]), 0)
        tg.add_task(
            Task("smooth", noop, requires=[Requires(phi)],
                 computes=[Computes(phi)]),
            0,
        )
        assert validate_taskgraph(tg) == []


class TestCompiledGraphChecks:
    def compiled(self):
        _, tg = small_graph()
        phi = cc("phi")
        tg.add_task(Task("produce", noop, computes=[Computes(phi)]), 0)
        tg.add_task(
            Task("consume", noop, requires=[Requires(phi, num_ghost=1)],
                 computes=[Computes(cc("out"))]),
            0,
        )
        fine = tg.grid.finest_level
        assignment = LoadBalancer(2).assign(fine.patches)
        return tg.compile(assignment=assignment, num_ranks=2)

    def test_real_compile_is_clean(self):
        graph = self.compiled()
        assert graph.messages, "fixture should produce ghost traffic"
        assert validate_compiled(graph) == []

    def test_orphan_message_flagged(self):
        """Nobody on the destination rank waits on the message."""
        graph = self.compiled()
        for dt in graph.detailed_tasks:
            dt.pending_msgs.discard(graph.messages[0].msg_id)
        assert rules(validate_compiled(graph)) == ["graph-ghost-orphan"]

    def test_pending_id_without_message_flagged(self):
        graph = self.compiled()
        gone = graph.messages.pop()
        found = validate_compiled(graph)
        assert rules(found) == ["graph-ghost-orphan"] * len(found)
        assert all(f"#{gone.msg_id}" in f.message for f in found)

    def test_out_of_range_rank_flagged(self):
        graph = self.compiled()
        bad = dataclasses.replace(graph.messages[0], dst_rank=7)
        graph.messages[0] = bad
        found = rules(validate_compiled(graph))
        assert "graph-ghost-orphan" in found

    @staticmethod
    def replace_part(graph, label=None, region=None):
        """Seed a defect into the first part of the first message."""
        msg = graph.messages[0]
        old_label, old_region, level_index = msg.parts[0]
        part = (label or old_label, region or old_region, level_index)
        graph.messages[0] = dataclasses.replace(msg, parts=(part,) + msg.parts[1:])

    def test_disjoint_region_flagged(self):
        """Outside the producing patch, and met by no waiter."""
        graph = self.compiled()
        self.replace_part(graph, region=Box((100, 100, 100), (102, 102, 102)))
        assert rules(validate_compiled(graph)) == ["graph-ghost-region"] * 2

    def test_region_beyond_the_producing_patch_flagged(self):
        """The waiters meet it, but the producer does not own all of it."""
        graph = self.compiled()
        self.replace_part(graph, region=graph.grid.level(0).domain_box)
        assert rules(validate_compiled(graph)) == ["graph-ghost-region"]

    def test_undeclared_label_flagged(self):
        """A part whose label no waiter declares is read by nobody, even
        when a waiter's box meets it — a level task's pseudo-patch spans
        the domain and meets every region."""
        _, tg = small_graph()
        phi = cc("phi")
        tg.add_task(Task("produce", noop, computes=[Computes(phi)]), 0)
        tg.add_level_task(
            Task("reduce", noop, requires=[Requires(phi)], computes=[Computes(cc("sum"))]), 0
        )
        assignment = LoadBalancer(2).assign(tg.grid.finest_level.patches)
        graph = tg.compile(assignment=assignment, num_ranks=2)
        assert graph.messages and validate_compiled(graph) == []
        self.replace_part(graph, label=cc("never_declared"))
        found = validate_compiled(graph)
        assert rules(found) == ["graph-ghost-region"]
        assert "never_declared" in found[0].message


class TestThreeLevelRMCRTGraphClean:
    def test_declarations_clean(self):
        tg = demo_taskgraph()
        assert validate_taskgraph(tg) == []

    def test_compiled_clean_across_ranks(self):
        tg = demo_taskgraph()
        fine = tg.grid.finest_level
        assignment = LoadBalancer(4).assign(fine.patches)
        graph = tg.compile(assignment=assignment, num_ranks=4)
        assert graph.messages, "three-level graph must ship ghosts + levels"
        assert validate_compiled(graph) == []
