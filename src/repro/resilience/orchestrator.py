"""Recovery orchestration: kill-and-recover drills on a live campaign.

:class:`RadiationCampaign` is a miniature multi-timestep production
run: a Burns & Christon two-level grid, the 3-task RMCRT pipeline
executed serially or across simulated MPI ranks, and an evolving
emissive-power field coupled back from del.q each step (plus per-patch
stochastic forcing, so the RNG streams genuinely advance and resume
must genuinely restore them). Because the pipeline's randomness is
keyed per patch — never per rank — the same campaign produces
*byte-identical* fields under any decomposition, which is the property
that makes recovery-by-re-decomposition exact rather than approximate.

:class:`RecoveryOrchestrator` drives a campaign under a
:class:`~repro.resilience.faultplan.FaultPlan`: it checkpoints on
cadence, injects the scripted failures (rank deaths, corrupt/torn
checkpoint chunks), and on each death restores from the latest *valid*
checkpoint, re-homes the dead rank's patches onto the survivors, and
replays. A drill passes when the recovered run's final field equals the
uninterrupted gold run's, byte for byte.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.comm.driver import drain_before_snapshot
from repro.core.distributed import DIVQ, DistributedRMCRT
from repro.dw.datawarehouse import DataWarehouse
from repro.dw.label import cc, per_level, reduction
from repro.dw.variables import CCVariable, ReductionVariable
from repro.grid.celltype import CellType
from repro.grid.loadbalance import LoadBalancer, compact_ranks, reassign_on_failure
from repro.perf.flightrec import get_flight_recorder
from repro.radiation.benchmark import BurnsChristonBenchmark
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.faultplan import FaultEvent, FaultPlan
from repro.resilience.state import SimulationState, capture_state, verify_layout
from repro.runtime.scheduler import DistributedScheduler, SerialScheduler, gather_cc
from repro.util.errors import ResilienceError
from repro.util.rng import RandomStreams

#: RNG purpose for the per-patch stochastic forcing (trace rays use 0,
#: boundary-flux rays use 1 — see core.distributed)
NOISE_PURPOSE = 3

EMISSIVE = per_level("emissive")
ABSKG_CKPT = cc("abskg")
DIVQ_TOTAL = reduction("divq_total")


class RadiationCampaign:
    """A resumable multi-timestep RMCRT run on the Burns & Christon box.

    ``num_ranks == 1`` runs the serial scheduler; more ranks run the
    distributed scheduler over simulated MPI with an SFC assignment.
    The rank count may shrink mid-campaign (that is the point).
    """

    def __init__(
        self,
        resolution: int = 12,
        refinement_ratio: int = 4,
        fine_patch_size: int = 6,
        rays_per_cell: int = 2,
        halo: int = 2,
        seed: int = 0,
        num_ranks: int = 1,
        alpha: float = 0.05,
        noise_amp: float = 0.01,
        dt: float = 1e-3,
    ) -> None:
        self.params = {
            "resolution": resolution,
            "refinement_ratio": refinement_ratio,
            "fine_patch_size": fine_patch_size,
            "rays_per_cell": rays_per_cell,
            "halo": halo,
            "seed": seed,
            "alpha": alpha,
            "noise_amp": noise_amp,
            "dt": dt,
        }
        self.bench = BurnsChristonBenchmark(resolution)
        self.grid = self.bench.two_level_grid(
            refinement_ratio=refinement_ratio, fine_patch_size=fine_patch_size
        )
        self.fine = self.grid.finest_level
        self.seed = int(seed)
        self.alpha = float(alpha)
        self.noise_amp = float(noise_amp)
        self.dt = float(dt)
        self.streams = RandomStreams(seed)
        self.step = 0
        self.time = 0.0
        self.last_divq_total = 0.0
        self.last_drain_s = 0.0
        #: static absorption coefficient over the whole fine level
        self._abskg = self.bench.abskg_field(self.fine)
        #: the evolving emissive-power field (checkpointed state)
        self.emissive = np.ones(self.fine.domain_box.extent)
        self.num_ranks = int(num_ranks)
        if self.num_ranks > 1:
            self.assignment = LoadBalancer(self.num_ranks).assign(self.fine.patches)
        else:
            self.assignment = {p.patch_id: 0 for p in self.fine.patches}
        self.rmcrt = DistributedRMCRT(
            self.grid,
            self._property_init,
            rays_per_cell=rays_per_cell,
            halo=halo,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def _property_init(self, level, box) -> Dict[str, np.ndarray]:
        origin = self.fine.domain_box.lo
        sl = box.slices(origin=origin)
        return {
            "abskg": self._abskg[sl].copy(),
            "sigma_t4": self.emissive[sl].copy(),
            "cell_type": np.full(box.extent, CellType.FLOW, dtype=np.int8),
        }

    # ------------------------------------------------------------------
    # timestepping
    # ------------------------------------------------------------------
    def step_once(self) -> np.ndarray:
        """Execute one timestep; returns the gathered del.q field."""
        fine_idx = self.grid.num_levels - 1
        if self.num_ranks == 1:
            graph = self.rmcrt.build_graph()
            rank_dws = {0: SerialScheduler().execute(graph)}
        else:
            graph = self.rmcrt.build_graph(
                assignment=self.assignment, num_ranks=self.num_ranks
            )
            sched = DistributedScheduler(self.num_ranks)
            rank_dws = sched.execute(graph)
            # consistent-cut barrier: no in-flight traffic may survive
            # into a snapshot taken after this step
            self.last_drain_s = drain_before_snapshot(sched.fabric)
        divq = gather_cc(graph, rank_dws, DIVQ, fine_idx)
        self.last_divq_total = float(divq.sum())
        origin = self.fine.domain_box.lo
        self.emissive = self.emissive - self.alpha * divq
        # per-patch stochastic forcing: streams keyed by patch id, so
        # the update is identical under any decomposition, and the
        # streams advance statefully (what checkpoints must capture)
        for patch in sorted(self.fine.patches, key=lambda p: p.patch_id):
            gen = self.streams.for_patch(patch.patch_id, purpose=NOISE_PURPOSE)
            sl = patch.box.slices(origin=origin)
            self.emissive[sl] += self.noise_amp * gen.standard_normal(patch.box.extent)
        np.clip(self.emissive, 1e-6, None, out=self.emissive)
        self.step += 1
        self.time += self.dt
        return divq

    def run(self, num_steps: int) -> np.ndarray:
        """Run to ``num_steps`` completed steps; returns the final field."""
        while self.step < num_steps:
            self.step_once()
        return self.emissive.copy()

    # ------------------------------------------------------------------
    # checkpoint round-trip
    # ------------------------------------------------------------------
    def capture(self) -> SimulationState:
        """Snapshot the campaign as a checkpointable state.

        The static absorption field rides along as per-patch CC
        variables — unchanged content whose chunks dedupe across every
        checkpoint, exercising the incremental path — while the
        evolving emissive field and RNG positions carry the actual
        resume burden.
        """
        fine_idx = self.grid.num_levels - 1
        dw = DataWarehouse(generation=self.step)
        origin = self.fine.domain_box.lo
        for patch in sorted(self.fine.patches, key=lambda p: p.patch_id):
            sl = patch.box.slices(origin=origin)
            dw.put(ABSKG_CKPT, patch.patch_id, CCVariable(patch.box, self._abskg[sl].copy()))
        dw.put_level(EMISSIVE, fine_idx, self.emissive.copy())
        dw.put_reduction(DIVQ_TOTAL, ReductionVariable(self.last_divq_total, "sum"))
        return capture_state(
            dw,
            step=self.step,
            time=self.time,
            grid=self.grid,
            streams=self.streams,
            assignment=self.assignment,
        )

    def restore(self, state: SimulationState) -> None:
        """Adopt a captured state (mesh must match; decomposition need
        not — the current assignment, possibly post-failure, stands)."""
        verify_layout(self.grid, state.layout)
        fine_idx = self.grid.num_levels - 1
        entry = next(
            (e for e in state.level_entries
             if e.name == EMISSIVE.name and e.level_index == fine_idx),
            None,
        )
        if entry is None:
            raise ResilienceError("checkpoint has no emissive field; not a campaign state")
        self.emissive = entry.array.copy()
        self.step = state.step
        self.time = state.time
        state.restore_streams(self.streams)
        for name, value, _op in state.reductions:
            if name == DIVQ_TOTAL.name:
                self.last_divq_total = value

    # ------------------------------------------------------------------
    # failure response
    # ------------------------------------------------------------------
    def lose_ranks(self, dead_ranks: List[int]) -> Dict[str, object]:
        """Re-home the dead ranks' patches onto survivors and renumber.

        Returns a summary of the re-decomposition (who inherited how
        many patches). Raises :class:`~repro.util.errors.GridError` via
        the load balancer if nobody survives.
        """
        before = dict(self.assignment)
        reassigned = reassign_on_failure(self.fine.patches, self.assignment, dead_ranks)
        self.assignment, self.num_ranks = compact_ranks(reassigned)
        moved = sum(
            1 for pid in before
            if before[pid] in set(dead_ranks)
        )
        return {
            "dead_ranks": sorted(int(r) for r in dead_ranks),
            "surviving_ranks": self.num_ranks,
            "patches_rehomed": moved,
        }


# ----------------------------------------------------------------------
# the drill
# ----------------------------------------------------------------------
@dataclass
class RecoveryEvent:
    """One death-and-restore cycle."""

    at_step: int
    dead_ranks: List[int]
    survivors: int
    restored_step: int
    steps_replayed: int
    restore_seconds: float
    patches_rehomed: int

    def as_dict(self) -> dict:
        return {
            "at_step": self.at_step,
            "dead_ranks": self.dead_ranks,
            "survivors": self.survivors,
            "restored_step": self.restored_step,
            "steps_replayed": self.steps_replayed,
            "restore_seconds": self.restore_seconds,
            "patches_rehomed": self.patches_rehomed,
        }


@dataclass
class DrillReport:
    """What a kill-and-recover drill did and how it ended."""

    num_steps: int
    initial_ranks: int
    final_ranks: int
    checkpoints_saved: int = 0
    chunk_faults: List[dict] = field(default_factory=list)
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    final_step: int = 0
    #: flight-recorder postmortems written for killed ranks
    flightrec_dumps: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "num_steps": self.num_steps,
            "initial_ranks": self.initial_ranks,
            "final_ranks": self.final_ranks,
            "checkpoints_saved": self.checkpoints_saved,
            "chunk_faults": self.chunk_faults,
            "recoveries": [r.as_dict() for r in self.recoveries],
            "final_step": self.final_step,
            "flightrec_dumps": self.flightrec_dumps,
        }


class RecoveryOrchestrator:
    """Run a campaign to completion under a fault plan.

    Each loop iteration either injects the failures scheduled before
    the next step or executes that step; every injected event fires at
    most once, so the replay after a restore passes cleanly through the
    step where the failure originally struck (as a real re-submitted
    job would — the node is already gone).
    """

    def __init__(
        self,
        campaign: RadiationCampaign,
        checkpointer: Checkpointer,
        fault_plan: Optional[FaultPlan] = None,
        flightrec_dir: Optional[str] = None,
    ) -> None:
        self.campaign = campaign
        self.checkpointer = checkpointer
        self.plan = fault_plan if fault_plan is not None else FaultPlan()
        self._fired: set = set()
        #: where rank-death postmortems land (None = next to the
        #: checkpoint store)
        self.flightrec_dir = (
            flightrec_dir if flightrec_dir is not None else str(checkpointer.root)
        )
        #: flightrec_rank<k>.json paths written by recoveries this run
        self.flightrec_dumps: List[str] = []

    # ------------------------------------------------------------------
    def run(self, num_steps: int) -> DrillReport:
        campaign = self.campaign
        report = DrillReport(
            num_steps=num_steps,
            initial_ranks=campaign.num_ranks,
            final_ranks=campaign.num_ranks,
        )
        # step-0 checkpoint: recovery always has a valid floor to land on
        self.checkpointer.save(campaign.capture())
        report.checkpoints_saved += 1
        while campaign.step < num_steps:
            next_step = campaign.step + 1
            for event in self.plan.chunk_faults_at(next_step):
                key = ("chunk", event.kind, event.step, event.target)
                if key in self._fired:
                    continue
                self._fired.add(key)
                applied = self._apply_chunk_fault(event)
                if applied:
                    report.chunk_faults.append(applied)
            deaths = [
                r for r in self.plan.rank_deaths_at(next_step)
                if ("death", next_step, r) not in self._fired
            ]
            if deaths and campaign.num_ranks > 1:
                for r in deaths:
                    self._fired.add(("death", next_step, r))
                self._recover(next_step, deaths, report)
                continue
            campaign.step_once()
            if campaign.step < num_steps and self.checkpointer.should_checkpoint(
                campaign.step
            ):
                self.checkpointer.save(campaign.capture())
                report.checkpoints_saved += 1
        report.final_step = campaign.step
        report.final_ranks = campaign.num_ranks
        report.flightrec_dumps = list(self.flightrec_dumps)
        return report

    # ------------------------------------------------------------------
    def _recover(
        self, at_step: int, plan_targets: List[int], report: DrillReport
    ) -> None:
        campaign = self.campaign
        # plan targets are rank ids of the original configuration; map
        # them onto the current (possibly already shrunken) rank set and
        # always leave at least one survivor
        dead = sorted({int(r) % campaign.num_ranks for r in plan_targets})
        if len(dead) >= campaign.num_ranks:
            dead = dead[: campaign.num_ranks - 1]
        # the black box comes off the wreck first: dump each killed
        # rank's recent history before its entries age out of the ring
        recorder = get_flight_recorder()
        recorder.record(
            "failure", "rank-death", step=at_step, dead_ranks=list(dead)
        )
        for r in dead:
            path = recorder.dump(
                self.flightrec_dir, rank=r,
                reason=f"rank {r} killed at step {at_step}",
            )
            self.flightrec_dumps.append(str(path))
        rehoming = campaign.lose_ranks(dead)
        t0 = time.perf_counter()
        state, restored_step = self.checkpointer.load_latest_valid(
            before=campaign.step
        )
        campaign.restore(state)
        restore_seconds = time.perf_counter() - t0
        report.recoveries.append(
            RecoveryEvent(
                at_step=at_step,
                dead_ranks=dead,
                survivors=campaign.num_ranks,
                restored_step=restored_step,
                steps_replayed=(at_step - 1) - restored_step,
                restore_seconds=restore_seconds,
                patches_rehomed=int(rehoming["patches_rehomed"]),
            )
        )

    # ------------------------------------------------------------------
    def _apply_chunk_fault(self, event: FaultEvent) -> Optional[dict]:
        """Damage a chunk of the newest checkpoint on disk.

        Prefers a chunk unique to the newest manifest (content
        addressing shares unchanged chunks across checkpoints, and
        corrupting a shared one would take out the fallback too — a
        correlated failure the drill is not scripting)."""
        ckpt = self.checkpointer
        steps = ckpt.steps()
        if len(steps) < 2:
            # never damage the only checkpoint: the drill scripts a
            # survivable corruption, not an unrecoverable run
            return None
        newest = steps[-1]

        def chunk_digests(step: int) -> List[str]:
            try:
                manifest = json.loads(ckpt.manifest_path(step).read_text())
                refs = manifest["payload"]["chunks"]
                return [refs[k]["sha256"] for k in sorted(refs)]
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                return []

        shared = set()
        for step in steps[:-1]:
            shared.update(chunk_digests(step))
        digests = chunk_digests(newest)
        if not digests:
            return None
        unique = [d for d in digests if d not in shared]
        digest = (unique or digests)[0]
        path = ckpt.chunk_path(digest)
        if not path.exists():
            return None
        data = bytearray(path.read_bytes())
        if event.kind == "chunk-torn":
            data = data[: max(1, len(data) // 2)]
        else:
            data[len(data) // 2] ^= 0xFF
        # deliberately NOT atomic: this models the storage layer
        # damaging a committed file, not a torn writer
        path.write_bytes(bytes(data))  # repro: allow(fs-non-atomic-publish)
        return {"kind": event.kind, "step": newest, "sha256": digest}
