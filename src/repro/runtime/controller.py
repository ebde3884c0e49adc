"""The simulation controller: timestepping through the runtime.

Uintah's SimulationController owns the outer loop: each timestep it
swaps DataWarehouse generations (new -> old), re-executes the compiled
task graph against the fresh warehouses, and collects per-timestep
statistics. Applications declare their per-timestep tasks once; the
controller re-runs the same compiled graph every step, which is what
lets Uintah amortize task-graph compilation across a whole simulation.

Because our CompiledGraph carries immutable declarations and the
schedulers take the warehouses as arguments, re-execution needs no
recompilation — matching Uintah's static-taskgraph fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dw.datawarehouse import DataWarehouse, DataWarehouseManager
from repro.perf.flightrec import get_flight_recorder
from repro.perf.tracer import SpanTracer, get_tracer
from repro.perf.tsdb import get_collector
from repro.resilience.state import capture_state, verify_layout
from repro.runtime.scheduler import SerialScheduler
from repro.runtime.taskgraph import CompiledGraph
from repro.util.errors import SchedulerError


@dataclass
class TimestepReport:
    step: int
    time: float
    dt: float
    dw_generation: int


class SimulationController:
    """Run a per-timestep task graph for many steps.

    ``initial_graph`` (optional) runs once against the very first new
    DW — the initialization taskgraph in Uintah terms. ``graph`` then
    runs every timestep with old/new warehouse swapping.
    """

    def __init__(
        self,
        graph: CompiledGraph,
        scheduler=None,
        initial_graph: Optional[CompiledGraph] = None,
        archive=None,
        tracer: Optional[SpanTracer] = None,
        checkpointer=None,
        streams=None,
        collector=None,
    ) -> None:
        self.graph = graph
        self.initial_graph = initial_graph
        self.scheduler = scheduler if scheduler is not None else SerialScheduler()
        if not hasattr(self.scheduler, "execute"):
            raise SchedulerError("scheduler must expose .execute(graph, old, new)")
        self.archive = archive
        self.tracer = tracer
        #: optional repro.resilience.Checkpointer; when set, advance()
        #: snapshots on its cadence alongside (not instead of) the archive
        self.checkpointer = checkpointer
        #: optional repro.util.rng.RandomStreams captured into checkpoints
        self.streams = streams
        #: optional repro.perf.tsdb.SnapshotCollector sampled after each
        #: timestep (falls back to the process default; None = no sampling)
        self.collector = collector
        self.dw_manager = DataWarehouseManager()
        self.reports: List[TimestepReport] = []
        self.time = 0.0
        self.step = 0
        self._initialized = False
        #: where advance() writes flight-recorder postmortems when a
        #: timestep dies with an unhandled exception
        self.flightrec_dir = "."

    @classmethod
    def restart(
        cls,
        graph: CompiledGraph,
        archive,
        step: Optional[int] = None,
        scheduler=None,
    ) -> "SimulationController":
        """Resume from an archived timestep (checkpoint/restart).

        The loaded warehouse becomes the controller's current state;
        the next :meth:`advance` swaps it to the old generation exactly
        as if the run had never stopped, so a restarted simulation
        continues bit-identically.
        """
        ctrl = cls(graph, scheduler=scheduler, archive=archive)
        step = step if step is not None else archive.latest()
        if step is None:
            raise SchedulerError(f"archive {archive.root} holds no timesteps")
        dw, meta = archive.load(step)
        ctrl.dw_manager.new_dw = dw
        ctrl.dw_manager._generation = dw.generation
        ctrl.time = float(meta["time"])
        ctrl.step = int(meta["step"])
        ctrl._initialized = True
        return ctrl

    # ------------------------------------------------------------------
    def initialize(self) -> DataWarehouse:
        """Run the initialization graph (or mark ready without one)."""
        if self._initialized:
            raise SchedulerError("controller already initialized")
        tracer = self.tracer if self.tracer is not None else get_tracer()
        if self.initial_graph is not None:
            with tracer.span("initialize", cat="controller"):
                self.scheduler.execute(
                    self.initial_graph, old_dw=None, new_dw=self.dw_manager.new_dw
                )
        self._initialized = True
        return self.dw_manager.new_dw

    def advance(self, dt: float) -> DataWarehouse:
        """One timestep: swap warehouses, execute the graph."""
        if not self._initialized:
            raise SchedulerError("call initialize() before advance()")
        if dt <= 0:
            raise SchedulerError("dt must be positive")
        self.dw_manager.advance()
        tracer = self.tracer if self.tracer is not None else get_tracer()
        recorder = get_flight_recorder()
        recorder.record("controller", "timestep.begin", step=self.step + 1)
        try:
            with tracer.span(
                f"timestep {self.step + 1}", cat="controller", step=self.step + 1
            ):
                self.scheduler.execute(
                    self.graph,
                    old_dw=self.dw_manager.old_dw,
                    new_dw=self.dw_manager.new_dw,
                )
        except BaseException as exc:  # repro: allow(overbroad-except) — postmortem then re-raise
            # the postmortem the flight recorder exists for: dump the
            # recent-history ring before the exception unwinds the run
            recorder.record(
                "crash", type(exc).__name__, step=self.step + 1, error=str(exc)
            )
            recorder.dump_all_ranks(
                self.flightrec_dir,
                reason=f"unhandled {type(exc).__name__} in timestep "
                f"{self.step + 1}: {exc}",
            )
            raise
        recorder.record("controller", "timestep.end", step=self.step + 1)
        self.time += dt
        self.step += 1
        self.reports.append(
            TimestepReport(
                step=self.step,
                time=self.time,
                dt=dt,
                dw_generation=self.dw_manager.generation,
            )
        )
        if self.archive is not None and self.archive.should_save(self.step):
            self.archive.save(self.dw_manager.new_dw, self.step, self.time)
        if self.checkpointer is not None and self.checkpointer.should_checkpoint(
            self.step
        ):
            self.checkpoint()
        collector = (
            self.collector if self.collector is not None else get_collector()
        )
        if collector is not None:
            collector.maybe_sample(step=self.step, sim_time=self.time)
        return self.dw_manager.new_dw

    # ------------------------------------------------------------------
    # checkpoint/restart (resilience layer)
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Snapshot the current state through the attached checkpointer.

        Returns the manifest path. Unlike the archive (an output
        product), checkpoints capture RNG stream positions so a restore
        resumes bit-identically.
        """
        if self.checkpointer is None:
            raise SchedulerError("no checkpointer attached to this controller")
        state = capture_state(
            self.dw_manager.new_dw,
            step=self.step,
            time=self.time,
            grid=self.graph.grid,
            streams=self.streams,
        )
        return self.checkpointer.save(state)

    @classmethod
    def from_checkpoint(
        cls,
        graph: CompiledGraph,
        checkpointer,
        step: Optional[int] = None,
        scheduler=None,
        streams=None,
        archive=None,
    ) -> "SimulationController":
        """Resume from the latest valid (or a specific) checkpoint.

        Corrupt or torn checkpoints are skipped automatically when no
        ``step`` is pinned; the restored warehouse becomes the current
        generation and attached RNG streams are rewound, so the next
        :meth:`advance` continues bit-identically.
        """
        if step is not None:
            state = checkpointer.load(step)
            found_step = step
        else:
            state, found_step = checkpointer.load_latest_valid()
        verify_layout(graph.grid, state.layout)
        ctrl = cls(
            graph,
            scheduler=scheduler,
            archive=archive,
            checkpointer=checkpointer,
            streams=streams,
        )
        ctrl.dw_manager.new_dw = state.build_dw()
        ctrl.dw_manager._generation = state.generation
        ctrl.time = state.time
        ctrl.step = found_step
        if streams is not None:
            state.restore_streams(streams)
        ctrl._initialized = True
        return ctrl

    def run(self, num_steps: int, dt: float) -> DataWarehouse:
        """Initialize (if needed) and advance ``num_steps`` steps."""
        if not self._initialized:
            self.initialize()
        dw = self.dw_manager.new_dw
        for _ in range(num_steps):
            dw = self.advance(dt)
        return dw

    @property
    def steps_taken(self) -> int:
        return len(self.reports)
