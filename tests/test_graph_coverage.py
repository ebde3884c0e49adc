"""Coverage of every ghost read, as a property of the compiled graph.

For every consumer, every new-DW cell-centred requirement and every
producer on a patch meeting the consumer's ghosted box, the compile must
have provided the producer's cells one of two ways: the producer runs on
the consumer's rank and is one of its ``internal_deps``, or a message the
consumer waits on comes from that producer and its parts for the label
cover ``producer box ∩ ghosted box``. A per-level requirement is an edge
or a level-domain part. Checked by brute force over the grid, never
through the patch index the compile uses, on random grids of two and
three levels, random (and uneven) patch sizes, halos 0–3 and random
assignments to one to four ranks.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedRMCRT
from repro.dw import VarKind, cc, per_level
from repro.grid import Box, Grid, decompose_level
from repro.runtime import Computes, Requires, Task, TaskGraph

PHI, PSI, OUT = cc("phi"), cc("psi"), cc("out")
TOTAL = per_level("total_phi")


def random_grid(rng, levels, fine):
    """``levels`` levels at ratio 2 under a ``fine``^3 finest one, every
    level tiled by its own (possibly uneven) patch extent; patch ids are
    unique across levels."""
    grid = Grid()
    next_id = 0
    for index in range(levels):
        n = fine >> (levels - 1 - index)
        level = grid.add_level(
            Box.cube(n), (1.0 / n,) * 3,
            refinement_ratio=(2, 2, 2) if index else (1, 1, 1),
        )
        extent = tuple(rng.randint(max(1, n // 4), n) for _ in range(3))
        next_id += len(decompose_level(level, extent, next_id, allow_remainder=True))
    return grid


def stencil_taskgraph(grid, ghosts):
    """A level task first (pseudo-patch -1000), then on every level an
    init computing two labels and a smooth reading both with the given
    ghost widths and the level variable."""
    tg = TaskGraph(grid)
    fine = grid.num_levels - 1
    tg.add_level_task(
        Task("total", lambda ctx: None, requires=[Requires(PHI)],
             computes=[Computes(TOTAL, level_index=0)]),
        fine,
    )
    for index in range(grid.num_levels):
        tg.add_task(Task(f"init{index}", lambda ctx: None,
                         computes=[Computes(PHI), Computes(PSI)]), index)
        tg.add_task(
            Task(f"smooth{index}", lambda ctx: None,
                 requires=[Requires(PHI, num_ghost=ghosts[0]),
                           Requires(TOTAL, level_index=0),
                           Requires(PSI, num_ghost=ghosts[1])],
                 computes=[Computes(OUT)]),
            index,
        )
    return tg, [-1000]


def rmcrt_taskgraph(grid, halo):
    tg = DistributedRMCRT(grid, lambda level, box: {}, halo=halo).build_taskgraph()
    return tg, [-(1000 + grid.finest_level.num_patches)]


def assert_every_read_is_covered(graph):
    tasks = graph.detailed_tasks
    computed_on = {}        # (level, patch id, label name) -> producing tasks
    level_writer = {}       # (label name, level) -> producing task
    for t in tasks:
        for comp in t.task.computes:
            if comp.label.kind is VarKind.PER_LEVEL:
                level = comp.level_index if comp.level_index is not None else t.level_index
                level_writer[(comp.label.name, level)] = t
            else:
                key = (t.level_index, t.patch.patch_id, comp.label.name)
                computed_on.setdefault(key, []).append(t)
    edges = 0
    for dt in tasks:
        waits = [graph.messages[mid] for mid in dt.pending_msgs]
        for req in dt.task.requires:
            if req.dw != "new":
                continue
            name = req.label.name
            if req.label.kind is VarKind.PER_LEVEL:
                producer = level_writer[(name, req.level_index)]
                if producer.rank == dt.rank:
                    assert producer.dtask_id in dt.internal_deps, (dt, name)
                    continue
                domain = graph.grid.level(req.level_index).domain_box
                assert any(
                    m.src_dtask_id == producer.dtask_id
                    and (req.label, domain, req.level_index) in m.parts
                    for m in waits
                ), (dt, name)
                continue
            ghosted = dt.patch.box.grow(req.num_ghost)
            for patch in graph.grid.level(dt.level_index).patches:
                if not patch.box.intersects(ghosted):
                    continue
                for producer in computed_on.get((dt.level_index, patch.patch_id, name), ()):
                    if producer is dt:
                        continue
                    if producer.rank == dt.rank:
                        assert producer.dtask_id in dt.internal_deps, (dt, producer, name)
                        edges += 1
                        continue
                    want = patch.box.intersect(ghosted)
                    covered = np.zeros(want.extent, dtype=bool)
                    for m in waits:
                        if m.src_dtask_id != producer.dtask_id:
                            continue
                        assert m.dst_rank == dt.rank
                        for label, region, _ in m.parts:
                            if label == req.label:
                                covered[region.intersect(want).slices(origin=want.lo)] = True
                    assert covered.all(), (dt, producer, name)
    return edges


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    levels=st.integers(2, 3),
    fine=st.sampled_from([8, 12]),
    ghosts=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    num_ranks=st.integers(1, 4),
    pipeline=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_every_ghost_read_is_an_edge_or_a_covering_message(
    levels, fine, ghosts, num_ranks, pipeline, seed
):
    rng = random.Random(seed)
    grid = random_grid(rng, levels, fine)
    if pipeline:
        tg, pseudo = rmcrt_taskgraph(grid, ghosts[0])
    else:
        tg, pseudo = stencil_taskgraph(grid, ghosts)
    patch_ids = [p.patch_id for p in grid.all_patches()] + pseudo
    assignment = {pid: rng.randrange(num_ranks) for pid in patch_ids}
    graph = tg.compile(assignment=assignment, num_ranks=num_ranks)
    assert_every_read_is_covered(graph)
    if num_ranks == 1:
        assert not graph.messages


def test_the_checker_sees_a_missing_part():
    """The property discriminates: drop one part of one message and the
    covering fails for the consumer that needed it."""
    grid = random_grid(random.Random(3), 2, 8)
    tg, pseudo = stencil_taskgraph(grid, (1, 2))
    assignment = {p.patch_id: p.patch_id % 2 for p in grid.all_patches()}
    assignment.update(dict.fromkeys(pseudo, 0))
    graph = tg.compile(assignment=assignment, num_ranks=2)
    assert assert_every_read_is_covered(graph) > 0
    victim = next(m for m in graph.messages if len(m.parts) > 1)
    graph.messages[victim.msg_id] = type(victim)(
        msg_id=victim.msg_id, src_rank=victim.src_rank, dst_rank=victim.dst_rank,
        src_dtask_id=victim.src_dtask_id, src_patch_id=victim.src_patch_id,
        parts=victim.parts[1:],
    )
    try:
        assert_every_read_is_covered(graph)
    except AssertionError:
        return
    raise AssertionError("a message without its first part still covered every read")
