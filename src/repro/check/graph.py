"""Static task-graph validation.

The schedulers trust the compiled graph blindly: a variable consumed
with no producer surfaces as a DataWarehouse miss mid-execution, an
unordered write-write pair surfaces as a nondeterministic
double-compute, and a ghost message that misses its consumer's patch
silently ships bytes nobody reads. All three are decidable from the
declarations alone, so this module decides them — standalone via
``python -m repro check graph``, and at every
:meth:`~repro.runtime.taskgraph.TaskGraph.compile` (error-severity
findings abort compilation).

Two entry points:

* :func:`validate_taskgraph` — declaration-level checks on an
  uncompiled :class:`~repro.runtime.taskgraph.TaskGraph` (dangling
  consumers, unordered write-write pairs);
* :func:`validate_compiled` — structural checks on a
  :class:`~repro.runtime.taskgraph.CompiledGraph` (ghost-message
  regions, message endpoints).
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
        "a ghost-exchange message with no producing or consuming task",
    ),
    "graph-ghost-region": (
        "error",
        "a ghost region not covered by any exchange message",
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


def validate_compiled(graph) -> List[CheckFinding]:
    """Structural validation of a CompiledGraph's messages."""
    findings: List[CheckFinding] = []
    by_id = {t.dtask_id: t for t in graph.detailed_tasks}
    for msg in graph.messages:
        dst = by_id.get(msg.dst_dtask_id)
        if dst is None:
            findings.append(_finding(
                "graph-ghost-orphan",
                f"message #{msg.msg_id} ({msg.label.name}) targets unknown "
                f"detailed task {msg.dst_dtask_id}",
            ))
            continue
        if not (0 <= msg.src_rank < graph.num_ranks
                and 0 <= msg.dst_rank < graph.num_ranks):
            findings.append(_finding(
                "graph-ghost-orphan",
                f"message #{msg.msg_id} ({msg.label.name}) routes "
                f"{msg.src_rank}->{msg.dst_rank} outside "
                f"[0, {graph.num_ranks})",
            ))
        if msg.label.kind is not VarKind.CELL_CENTERED:
            continue  # level broadcasts carry the whole level domain
        ghost = 0
        for req in dst.task.requires:
            if req.label.name == msg.label.name:
                ghost = max(ghost, req.num_ghost)
        wanted = dst.patch.box.grow(ghost)
        if msg.region.intersect(wanted).empty:
            findings.append(_finding(
                "graph-ghost-region",
                f"message #{msg.msg_id} carries {msg.label.name} region "
                f"{msg.region} that never intersects consumer task "
                f"{dst.task.name!r} patch {dst.patch.patch_id} "
                f"(+{ghost} ghosts)",
            ))
    return findings
