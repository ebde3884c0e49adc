"""Static task-graph validation.

The schedulers trust the compiled graph blindly: a variable consumed
with no producer surfaces as a DataWarehouse miss mid-execution, an
unordered write-write pair surfaces as a nondeterministic
double-compute, and a ghost message part that misses every consumer's
patch silently ships bytes nobody reads. All three are decidable from the
declarations alone, so this module decides them — standalone via
``python -m repro check graph``, and at every
:meth:`~repro.runtime.taskgraph.TaskGraph.compile` (error-severity
findings abort compilation).

Two entry points:

* :func:`validate_taskgraph` — declaration-level checks on an
  uncompiled :class:`~repro.runtime.taskgraph.TaskGraph` (dangling
  consumers, unordered write-write pairs);
* :func:`validate_compiled` — structural checks on a
  :class:`~repro.runtime.taskgraph.CompiledGraph` (message endpoints
  and waiters, the region of every part).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.check.findings import CheckFinding
from repro.dw.label import VarKind

#: rule catalog: name -> (severity, one-line description)
RULES = {
    "graph-empty": (
        "error",
        "task graph has no tasks",
    ),
    "graph-dangling-consumer": (
        "error",
        "a task requires a variable no task computes",
    ),
    "graph-write-write": (
        "error",
        "two tasks compute the same variable with no ordering between "
        "them",
    ),
    "graph-ghost-orphan": (
        "error",
        "a ghost-exchange message with no producing task, no waiter on its "
        "destination rank or a route outside the ranks, or a pending id "
        "that names no message",
    ),
    "graph-ghost-region": (
        "error",
        "a message part that leaves its producing patch, or that no "
        "waiter declaring its label meets with its ghosted box",
    ),
}


def _finding(rule: str, message: str, severity: str = "error") -> CheckFinding:
    return CheckFinding(
        rule=rule, severity=severity, message=message,
        file="<taskgraph>", line=0, check="graph",
    )


def _entry_producers(
    entries,
) -> Tuple[Dict[Tuple[str, int], List[int]], Dict[Tuple[str, int], List[int]]]:
    """(CC producers, PER_LEVEL producers), both by (name, level), as
    entry indices. A CC variable is produced for the level its task runs
    on: ghosts are gathered from the consumer's own level, as in
    :meth:`~repro.runtime.taskgraph.TaskGraph.compile`."""
    cc: Dict[Tuple[str, int], List[int]] = {}
    per_level: Dict[Tuple[str, int], List[int]] = {}
    for idx, (task, level_index, _per_level_task) in enumerate(entries):
        for comp in task.computes:
            if comp.label.kind is VarKind.PER_LEVEL:
                lvl = comp.level_index if comp.level_index is not None else level_index
                per_level.setdefault((comp.label.name, lvl), []).append(idx)
            elif comp.label.kind is VarKind.CELL_CENTERED:
                cc.setdefault((comp.label.name, level_index), []).append(idx)
    return cc, per_level


def _dataflow_reachable(entries, cc, per_level) -> Dict[int, Set[int]]:
    """entry index -> entries reachable through new-DW dataflow edges."""
    succ: Dict[int, Set[int]] = {i: set() for i in range(len(entries))}
    for idx, (task, level_index, _pl) in enumerate(entries):
        for req in task.requires:
            if req.dw != "new":
                continue
            if req.label.kind is VarKind.CELL_CENTERED:
                producers = cc.get((req.label.name, level_index), [])
            else:
                producers = per_level.get((req.label.name, req.level_index), [])
            for p in producers:
                if p != idx:
                    succ[p].add(idx)
    # transitive closure (graphs are a handful of task types)
    reach: Dict[int, Set[int]] = {}
    for start in succ:
        seen: Set[int] = set()
        stack = list(succ[start])
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(succ[n])
        reach[start] = seen
    return reach


def validate_taskgraph(tg) -> List[CheckFinding]:
    """Declaration-level validation of an uncompiled TaskGraph."""
    findings: List[CheckFinding] = []
    entries = tg._entries
    if not entries:
        return [_finding("graph-empty", "task graph has no tasks")]
    cc, per_level = _entry_producers(entries)

    # consumers with no producer ---------------------------------------
    for task, level_index, _pl in entries:
        for req in task.requires:
            if req.dw != "new":
                continue  # old-DW data is last timestep's, already present
            if req.label.kind is VarKind.CELL_CENTERED:
                if (req.label.name, level_index) not in cc:
                    findings.append(_finding(
                        "graph-dangling-consumer",
                        f"task {task.name!r} requires CC variable "
                        f"{req.label.name!r} (new DW) that no task computes "
                        f"on level {level_index}",
                    ))
            elif req.label.kind is VarKind.PER_LEVEL:
                key = (req.label.name, req.level_index)
                if key not in per_level:
                    findings.append(_finding(
                        "graph-dangling-consumer",
                        f"task {task.name!r} requires level variable "
                        f"{key!r} that no task computes",
                    ))

    # write-write pairs with no ordering edge --------------------------
    reach = _dataflow_reachable(entries, cc, per_level)
    for (name, lvl), writers in sorted(cc.items()):
        for i in range(len(writers)):
            for j in range(i + 1, len(writers)):
                a, b = writers[i], writers[j]
                if b in reach[a] or a in reach[b]:
                    continue  # ordered through dataflow
                findings.append(_finding(
                    "graph-write-write",
                    f"tasks {entries[a][0].name!r} and {entries[b][0].name!r} "
                    f"both compute {name!r} on level {lvl} with no ordering "
                    f"edge between them (nondeterministic double-compute)",
                ))
    # PER_LEVEL double-computes (compile also rejects these)
    for (name, lvl), writers in sorted(per_level.items()):
        if len(writers) > 1:
            names = ", ".join(repr(entries[w][0].name) for w in writers)
            findings.append(_finding(
                "graph-write-write",
                f"level variable ({name!r}, L{lvl}) computed by {names} "
                f"with no ordering",
            ))
    return findings


def _meets_ghosted(region, box, ghost: int) -> bool:
    """``region.intersects(box.grow(ghost))``, without building the grown box."""
    (a0, a1, a2), (b0, b1, b2) = region.lo, region.hi
    (c0, c1, c2), (d0, d1, d2) = box.lo, box.hi
    return (max(a0, c0 - ghost) < min(b0, d0 + ghost)
            and max(a1, c1 - ghost) < min(b1, d1 + ghost)
            and max(a2, c2 - ghost) < min(b2, d2 + ghost))


def _route(msg) -> str:
    return f"message #{msg.msg_id} ({msg.src_rank}->{msg.dst_rank})"


def validate_compiled(graph) -> List[CheckFinding]:
    """Structural validation of a CompiledGraph's messages: every rule
    is stated per message, per part and per waiter (the tasks that hold
    the message id in ``pending_msgs``)."""
    findings: List[CheckFinding] = []
    by_id = {t.dtask_id: t for t in graph.detailed_tasks}
    msg_ids = {msg.msg_id for msg in graph.messages}
    waiters: Dict[int, List] = {}
    for dt in graph.detailed_tasks:
        for msg_id in sorted(dt.pending_msgs):
            waiters.setdefault(msg_id, []).append(dt)
            if msg_id not in msg_ids:
                findings.append(_finding(
                    "graph-ghost-orphan",
                    f"task {dt.task.name!r} on patch {dt.patch.patch_id} waits "
                    f"on message #{msg_id}, which does not exist",
                ))
    ghosts = {task: {} for task in {dt.task for dt in graph.detailed_tasks}}
    for task, widths in ghosts.items():  # label name -> the ghost widths it is read with
        for req in task.requires:
            if req.dw == "new":
                widths.setdefault(req.label.name, []).append(req.num_ghost)
    for msg in graph.messages:
        if not (0 <= msg.src_rank < graph.num_ranks
                and 0 <= msg.dst_rank < graph.num_ranks):
            findings.append(_finding(
                "graph-ghost-orphan", f"{_route(msg)} routes outside [0, {graph.num_ranks})",
            ))
        src = by_id.get(msg.src_dtask_id)
        if src is None:
            findings.append(_finding(
                "graph-ghost-orphan",
                f"{_route(msg)} names unknown producing task {msg.src_dtask_id}",
            ))
            continue
        waiting = [dt for dt in waiters.get(msg.msg_id, ()) if dt.rank == msg.dst_rank]
        if not waiting:
            findings.append(_finding(
                "graph-ghost-orphan",
                f"{_route(msg)} from task {src.task.name!r} has no waiter on rank "
                f"{msg.dst_rank}",
            ))
            continue
        inside: Dict[int, bool] = {}  # the labels of a run share a region object
        for label, region, _level_index in msg.parts:
            if label.kind is not VarKind.CELL_CENTERED:
                continue  # a level broadcast carries the whole level domain
            if id(region) not in inside:
                inside[id(region)] = src.patch.box.contains_box(region)
            if not inside[id(region)]:
                findings.append(_finding(
                    "graph-ghost-region",
                    f"{_route(msg)} carries {label.name} region {region} outside its "
                    f"producing patch {src.patch.patch_id} {src.patch.box}",
                ))
            # only a waiter that declares the label can read the part
            if not any(
                _meets_ghosted(region, dt.patch.box, ghost)
                for dt in waiting
                for ghost in ghosts[dt.task].get(label.name, ())
            ):
                findings.append(_finding(
                    "graph-ghost-region",
                    f"{_route(msg)} carries {label.name} region {region} that no "
                    f"waiter on rank {msg.dst_rank} declaring {label.name} "
                    f"meets with its ghosted patch",
                ))
    return findings
