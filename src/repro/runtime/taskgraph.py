"""Task-graph compilation.

Uintah compiles the per-timestep task list into *detailed tasks* — one
per (task type, patch) — and derives every dependency edge and MPI
message from the declared requires/computes (paper Section II). This
module reproduces that: given tasks, a grid, and a patch->rank
assignment, :meth:`TaskGraph.compile` emits

* detailed tasks with same-graph ordering edges, and
* ghost messages, one per (producing detailed task, destination rank):
  everything that task's results owe that rank, as ``(label, region,
  level)`` parts — the distinct maximal overlaps of the producing patch
  with the ghosted boxes of the rank's consumers for a CC label, the
  level domain for a PER_LEVEL one (the coarse radiation properties
  every rank needs). Every consumer on the rank that reads any part
  waits on the one message; a message leaves when its producer
  finishes, so batching stops at the task and never waits for a rank's
  last producer.

The compiled graph is execution-engine agnostic: the serial, threaded,
and distributed schedulers in :mod:`repro.runtime.scheduler` all run
the same object.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grid.box import Box
from repro.grid.grid import Grid
from repro.grid.patch import Patch
from repro.dw.label import VarKind, VarLabel
from repro.perf.metrics import get_metrics
from repro.runtime.task import Task
from repro.util.errors import SchedulerError


@dataclass
class DetailedTask:
    """One executable unit: a task type bound to a patch."""

    dtask_id: int
    task: Task
    patch: Patch
    level_index: int
    rank: int = 0
    #: dtask ids that must complete first (same rank: ordering;
    #: cross rank: satisfied by the corresponding message instead)
    internal_deps: Set[int] = field(default_factory=set)
    #: message ids that must arrive before this task is ready
    pending_msgs: Set[int] = field(default_factory=set)
    dependents: Set[int] = field(default_factory=set)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DT#{self.dtask_id}({self.task.name}@p{self.patch.patch_id}, r{self.rank})"


#: one piece of a message: ``(label, region, level_index)`` — cells of
#: the producing patch for a CC label, the level domain for a PER_LEVEL one
MessagePart = Tuple[VarLabel, Box, int]


@dataclass(frozen=True)
class GhostMessage:
    """Everything one detailed task's results owe one other rank, derived
    from the declarations. Who waits on it is recorded once, in the
    consumers' ``pending_msgs``."""

    msg_id: int
    src_rank: int
    dst_rank: int
    src_dtask_id: int          #: producing detailed task
    src_patch_id: int          #: its patch (negative: a level task's pseudo-patch)
    parts: Tuple[MessagePart, ...]  #: in task-then-requirement order

    @cached_property
    def nbytes(self) -> int:
        return 8 * sum(region.volume for _, region, _ in self.parts)


#: labels read together at one level, posted to a message as one piece
Run = Tuple[Tuple[VarLabel, ...], int]


def _maximal(pieces: Sequence[Tuple[Run, Box]]) -> Tuple[MessagePart, ...]:
    """A message's parts from its ``(run, region)`` pieces, in posting
    order, once each, without those another part of the same label
    contains: nothing is grown to a bounding box, so the bytes a message
    carries can only fall. A label's regions are taken largest first,
    each tested only against those already kept (a box that contains
    another has at least its volume, and containment is transitive); the
    labels of a run share its regions, so they share one decision.
    """
    runs: Dict[int, list] = {}  # id(run) -> [run, its regions in order]
    for run, region in pieces:
        runs.setdefault(id(run), [run]).append(region)
    # a label's regions are those of the runs that read it
    holders: Dict[Tuple[str, int], Tuple[int, ...]] = {}
    for key, ((labels, level_index), *_) in runs.items():
        for label in labels:
            name = (label.name, level_index)
            holders[name] = holders.get(name, ()) + (key,)
    decided: Dict[Tuple[int, ...], Set[tuple]] = {}
    for keys in set(holders.values()):
        kept: List[Box] = []
        regions = [region for key in keys for region in runs[key][1:]]
        for region in sorted(regions, key=attrgetter("volume"), reverse=True):
            for other in kept:
                if other.contains_box(region):
                    break
            else:
                kept.append(region)
        decided[keys] = {(box.lo, box.hi) for box in kept}
    parts: Dict[tuple, MessagePart] = {}
    for (labels, level_index), region in pieces:
        corners = (region.lo, region.hi)
        for label in labels:
            if corners in decided[holders[(label.name, level_index)]]:
                parts.setdefault((label.name, level_index) + corners, (label, region, level_index))
    return tuple(parts.values())


@dataclass
class CompiledGraph:
    detailed_tasks: List[DetailedTask]
    messages: List[GhostMessage]
    grid: Grid
    assignment: Dict[int, int]
    num_ranks: int

    def tasks_on_rank(self, rank: int) -> List[DetailedTask]:
        return [t for t in self.detailed_tasks if t.rank == rank]

    def messages_to(self, rank: int) -> List[GhostMessage]:
        return [m for m in self.messages if m.dst_rank == rank]

    def messages_from(self, rank: int) -> List[GhostMessage]:
        return [m for m in self.messages if m.src_rank == rank]

    @property
    def total_message_bytes(self) -> int:
        return sum(m.nbytes for m in self.messages)

    def topological_order(self) -> List[DetailedTask]:
        """Kahn's algorithm over internal edges (messages count as arrived),
        in :class:`ReadyTracker`'s ascending-id order; raises on cycles."""
        tasks = self.detailed_tasks
        blockers = [len(t.internal_deps) for t in tasks]
        ready = deque(t.dtask_id for t in tasks if not blockers[t.dtask_id])
        order: List[DetailedTask] = []
        while ready:
            task = tasks[ready.popleft()]
            order.append(task)
            for tid in sorted(task.dependents):
                blockers[tid] -= 1
                if not blockers[tid]:
                    ready.append(tid)
        if len(order) < len(tasks):
            raise SchedulerError(
                f"task graph has a cycle: only {len(order)} of "
                f"{len(tasks)} tasks orderable"
            )
        return order


class ReadyTracker:
    """The readiness rule, in one place: a task may run once its
    internal dependencies are done and its pending messages have arrived.

    Built over any set of detailed tasks closed under internal edges —
    one rank's share or a whole graph. :meth:`start`, :meth:`task_done`
    and :meth:`message_arrived` return the task ids they release, in
    Kahn order (ascending id); a task is released exactly once. One
    message id releases every task on its rank that reads a part of it.
    Not thread-safe: the caller serialises.
    """

    def __init__(self, tasks: Iterable[DetailedTask]) -> None:
        self._dependents: Dict[int, List[int]] = {}
        self._blockers: Dict[int, int] = {}
        self._waiters: Dict[int, List[int]] = {}
        for t in tasks:
            self._dependents[t.dtask_id] = sorted(t.dependents)
            self._blockers[t.dtask_id] = len(t.internal_deps) + len(t.pending_msgs)
            for mid in t.pending_msgs:
                self._waiters.setdefault(mid, []).append(t.dtask_id)
        #: tasks not yet reported done
        self.remaining = len(self._blockers)

    def _unblock(self, tids: Iterable[int]) -> List[int]:
        released = []
        for tid in tids:
            self._blockers[tid] -= 1
            if self._blockers[tid] == 0:
                released.append(tid)
        return released

    def start(self) -> List[int]:
        """The tasks that wait on nothing."""
        return [tid for tid, n in self._blockers.items() if n == 0]

    def task_done(self, tid: int) -> List[int]:
        self.remaining -= 1
        return self._unblock(self._dependents[tid])

    def message_arrived(self, msg_id: int) -> List[int]:
        return self._unblock(self.waiters(msg_id))

    def waiters(self, msg_id: int) -> List[int]:
        """The tasks pending on ``msg_id``, in task order."""
        return self._waiters.get(msg_id, [])


class TaskGraph:
    """Per-timestep task list, compiled to a :class:`CompiledGraph`."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self._entries: List[Tuple[Task, int, bool]] = []  # (task, level, per_level)

    def add_task(self, task: Task, level_index: int) -> None:
        """Instantiate ``task`` on every patch of a level."""
        self.grid.level(level_index)  # validates
        self._entries.append((task, level_index, False))

    def add_level_task(self, task: Task, level_index: int) -> None:
        """Instantiate ``task`` once for the whole level (e.g. the
        coarsen-and-publish step producing per-level variables)."""
        self.grid.level(level_index)
        self._entries.append((task, level_index, True))

    # ------------------------------------------------------------------
    def compile(
        self,
        assignment: Optional[Dict[int, int]] = None,
        num_ranks: int = 1,
        validate: bool = True,
    ) -> CompiledGraph:
        """Compile to a :class:`CompiledGraph`.

        With ``validate`` (the default), the static checks from
        :mod:`repro.check.graph` run on the declarations before
        compilation and on the message structure after — a dangling
        consumer or unordered write-write pair aborts here, at compile
        time, instead of surfacing as a DataWarehouse miss or a
        nondeterministic double-compute mid-execution.
        """
        if not self._entries:
            raise SchedulerError("task graph is empty")
        if validate:
            self._validate_declarations()
        assignment = dict(assignment or {})

        by_id = attrgetter("dtask_id")
        detailed: List[DetailedTask] = []
        #: each entry's instances, in id order
        instances: List[Tuple[Task, int, List[DetailedTask]]] = []
        # writers of CC labels: (name, level) -> dtasks, in id order
        writers: Dict[Tuple[str, int], List[DetailedTask]] = {}
        # producers of level labels: (name, level) -> dtask
        level_producers: Dict[Tuple[str, int], DetailedTask] = {}

        for task, level_index, per_level in self._entries:
            level = self.grid.level(level_index)
            if per_level:
                pseudo = Patch(
                    patch_id=-(1000 + len(detailed)),
                    level_index=level_index,
                    box=level.domain_box,
                )
                patches = [pseudo]
            else:
                patches = level.patches
                if not patches:
                    raise SchedulerError(
                        f"level {level_index} has no patches for task {task.name}"
                    )
            dts: List[DetailedTask] = []
            instances.append((task, level_index, dts))
            for patch in patches:
                rank = assignment.get(patch.patch_id, 0)
                if not 0 <= rank < num_ranks:
                    raise SchedulerError(
                        f"patch {patch.patch_id} assigned to rank {rank} "
                        f"outside [0, {num_ranks})"
                    )
                dt = DetailedTask(
                    dtask_id=len(detailed),
                    task=task,
                    patch=patch,
                    level_index=level_index,
                    rank=rank,
                )
                detailed.append(dt)
                dts.append(dt)
            for comp in task.computes:
                if comp.label.kind is VarKind.PER_LEVEL:
                    key = (comp.label.name, comp.level_index
                           if comp.level_index is not None else level_index)
                    if key in level_producers or len(dts) > 1:
                        raise SchedulerError(f"level variable {key} computed twice")
                    level_producers[key] = dts[0]
                elif comp.label.kind is VarKind.CELL_CENTERED:
                    writers.setdefault((comp.label.name, level_index), []).extend(dts)

        # patch id -> producers, one table per distinct list of writers, so
        # labels the same tasks write share it
        tables: Dict[Tuple[int, ...], Dict[int, List[DetailedTask]]] = {}
        cc_producers: Dict[Tuple[str, int], Dict[int, List[DetailedTask]]] = {}
        for key, dts in writers.items():
            table = cc_producers[key] = tables.setdefault(tuple(map(by_id, dts)), {})
            if not table:
                for dt in dts:
                    table.setdefault(dt.patch.patch_id, []).append(dt)

        def reads_of(task: Task, level_index: int) -> List[tuple]:
            """New-DW requirements in order as ``(ghost, producer table,
            run)``, consecutive CC labels with one ghost width and table as
            one run (walked once, they post what a walk per label would),
            and ``(None, producer, run)`` for a level variable."""
            reads: List[list] = []
            for req in task.requires:
                if req.dw != "new":
                    continue  # old-DW data is last timestep's, already local
                if req.label.kind is VarKind.CELL_CENTERED:
                    table = cc_producers.get((req.label.name, level_index), {})
                    if reads and reads[-1][0] == req.num_ghost and reads[-1][1] is table:
                        reads[-1][2].append(req.label)
                    else:
                        reads.append([req.num_ghost, table, [req.label], level_index])
                elif req.label.kind is VarKind.PER_LEVEL:
                    key = (req.label.name, req.level_index)
                    producer = level_producers.get(key)
                    if producer is None:
                        raise SchedulerError(
                            f"task {task.name} requires level variable {key} "
                            f"that no task computes"
                        )
                    reads.append([None, producer, [req.label], req.level_index])
            return [(ghost, source, (tuple(labels), lvl)) for ghost, source, labels, lvl in reads]

        # one message per (producing task, destination rank): its id and
        # its (run, region) pieces, an ordered set
        outbox: Dict[Tuple[int, int], Tuple[int, Dict[tuple, Tuple[Run, Box]]]] = {}
        neighbourhoods = 0
        for task, level_index, dts in instances:
            reads = reads_of(task, level_index)
            level = self.grid.level(level_index)
            for dt in dts:
                rank, tid, deps, waits = dt.rank, dt.dtask_id, dt.internal_deps, dt.pending_msgs
                # per ghost width: the grown box, the patches meeting it and
                # each one's overlap with it — shared by every run read
                # with that width, and by every producer on one patch
                hoods: Dict[int, Tuple[Box, List[Patch], Dict[int, Box]]] = {}
                for ghost, source, run in reads:
                    if ghost is None:
                        producers = [source]
                    else:
                        # ghosts come from the consumer's own level: only the
                        # patches meeting its grown box can hold a producer
                        hood = hoods.get(ghost)
                        if hood is None:
                            region = dt.patch.box.grow(ghost)
                            hood = hoods[ghost] = (
                                region, level.patches_intersecting(region), {}
                            )
                            neighbourhoods += 1
                        region, patches, overlaps = hood
                        producers = [
                            producer
                            for patch in patches
                            for producer in source.get(patch.patch_id, ())
                        ]
                        # message ids follow task order, whatever the patch order
                        producers.sort(key=by_id)
                    for producer in producers:
                        if producer.rank == rank:
                            if producer is not dt:
                                deps.add(producer.dtask_id)
                                producer.dependents.add(tid)
                            continue
                        entry = outbox.get((producer.dtask_id, rank))
                        if entry is None:
                            entry = outbox[producer.dtask_id, rank] = (len(outbox), {})
                        waits.add(entry[0])
                        if ghost is None:
                            # a level variable travels whole
                            piece = self.grid.level(run[1]).domain_box
                        else:
                            pid = producer.patch.patch_id
                            piece = overlaps.get(pid)
                            if piece is None:
                                piece = overlaps[pid] = producer.patch.box.intersect(region)
                        entry[1].setdefault((id(run), piece.lo, piece.hi), (run, piece))

        messages = [
            GhostMessage(
                msg_id=msg_id,
                src_rank=detailed[src].rank,
                dst_rank=dst_rank,
                src_dtask_id=src,
                src_patch_id=detailed[src].patch.patch_id,
                parts=_maximal(list(pieces.values())),
            )
            for (src, dst_rank), (msg_id, pieces) in outbox.items()
        ]

        graph = CompiledGraph(
            detailed_tasks=detailed,
            messages=messages,
            grid=self.grid,
            assignment=assignment,
            num_ranks=num_ranks,
        )
        graph.topological_order()  # cycle check at compile time
        if validate:
            self._validate_structure(graph)
        metrics = get_metrics()
        metrics.counter("taskgraph.compiles").inc()
        metrics.counter("taskgraph.neighbourhoods").inc(neighbourhoods)
        return graph

    def _validate_declarations(self) -> None:
        from repro.check.graph import validate_taskgraph  # repro: allow(layer-violation) validate=True only

        errors = [f for f in validate_taskgraph(self) if f.severity == "error"]
        if errors:
            raise SchedulerError(
                "task graph failed validation:\n  "
                + "\n  ".join(f.format() for f in errors)
            )

    @staticmethod
    def _validate_structure(graph: CompiledGraph) -> None:
        from repro.check.graph import validate_compiled  # repro: allow(layer-violation) validate=True only

        errors = [f for f in validate_compiled(graph) if f.severity == "error"]
        if errors:
            raise SchedulerError(
                "compiled graph failed validation:\n  "
                + "\n  ".join(f.format() for f in errors)
            )
