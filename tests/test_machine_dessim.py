"""Tests for the machine models, DES engine, cost model, and cluster
simulator."""

import numpy as np
import pytest

from repro.machine import GEMINI, K20X, TITAN, GPUModel, NetworkModel
from repro.dessim import (
    LARGE,
    MEDIUM,
    ClusterSimulator,
    EventSimulator,
    PoolTimingModel,
    RMCRTProblem,
    RayWorkModel,
    SimOptions,
    SlotResource,
    StrongScalingStudy,
    multi_level_comm_per_rank,
    single_level_comm_per_rank,
)
from repro.util.errors import ReproError


class TestTitanSpec:
    def test_paper_footnote_values(self):
        assert TITAN.cores_per_node == 16
        assert TITAN.gpu_memory_bytes == 6 * 1024 ** 3
        assert TITAN.network_latency_s == 1.4e-6
        assert TITAN.injection_bandwidth == 20e9
        assert TITAN.num_nodes == 18_688

    def test_full_occupancy(self):
        assert TITAN.full_occupancy_threads == 14 * 2048


class TestNetworkModel:
    def test_ptp_alpha_beta(self):
        assert GEMINI.ptp_time(0) == pytest.approx(1.4e-6)
        t = GEMINI.ptp_time(20_000_000_000)
        assert t == pytest.approx(1.0 + 1.4e-6)

    def test_congestion(self):
        slow = NetworkModel(congestion=0.5)
        assert slow.ptp_time(1000) > GEMINI.ptp_time(1000)

    def test_validation(self):
        with pytest.raises(ReproError):
            NetworkModel(bandwidth=0)


class TestGPUModel:
    def test_occupancy_ramp(self):
        assert K20X.occupancy_efficiency(28_672) == 1.0
        assert K20X.occupancy_efficiency(32 ** 3) == 1.0  # saturated
        small = K20X.occupancy_efficiency(16 ** 3)
        assert 0.1 < small < 0.2  # 4096/28672

    def test_kernel_time_patch_ordering(self):
        """Per-cell kernel time: 16^3 patches pay the occupancy penalty."""
        t16 = K20X.kernel_time(16 ** 3, 100, 150) / 16 ** 3
        t32 = K20X.kernel_time(32 ** 3, 100, 150) / 32 ** 3
        t64 = K20X.kernel_time(64 ** 3, 100, 150) / 64 ** 3
        assert t16 > 4 * t32
        assert t64 <= t32 * 1.01

    def test_pcie_times(self):
        assert K20X.h2d_time(6_000_000_000) == pytest.approx(1.0, rel=1e-3)

    def test_memory_check(self):
        assert K20X.fits_in_memory(5 * 1024 ** 3)
        assert not K20X.fits_in_memory(7 * 1024 ** 3)

    def test_validation(self):
        with pytest.raises(ReproError):
            K20X.kernel_time(0, 1, 1)
        with pytest.raises(ReproError):
            K20X.occupancy_efficiency(0)


class TestEventSimulator:
    def test_ordering(self):
        sim = EventSimulator()
        seen = []
        sim.schedule(3.0, lambda: seen.append("c"))
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(2.0, lambda: seen.append("b"))
        assert sim.run() == 3.0
        assert seen == ["a", "b", "c"]

    def test_nested_scheduling(self):
        sim = EventSimulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(5.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 6.0]

    def test_run_until(self):
        sim = EventSimulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(2))
        sim.run(until=5.0)
        assert seen == [1] and sim.now == 5.0

    def test_tie_breaking_fifo(self):
        sim = EventSimulator()
        seen = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_past_rejected(self):
        with pytest.raises(ReproError):
            EventSimulator().schedule(-1, lambda: None)


class TestSlotResource:
    def test_single_slot_serializes(self):
        r = SlotResource(1)
        assert r.request(0.0, 2.0) == (0.0, 2.0)
        assert r.request(0.0, 2.0) == (2.0, 4.0)
        assert r.request(5.0, 1.0) == (5.0, 6.0)
        assert r.makespan == 6.0

    def test_two_slots_overlap(self):
        r = SlotResource(2)
        assert r.request(0.0, 3.0) == (0.0, 3.0)
        assert r.request(0.0, 3.0) == (0.0, 3.0)
        assert r.request(0.0, 3.0) == (3.0, 6.0)

    def test_utilization(self):
        r = SlotResource(2)
        r.request(0.0, 2.0)
        r.request(0.0, 2.0)
        assert r.utilization() == 1.0

    def test_validation(self):
        with pytest.raises(ReproError):
            SlotResource(0)
        with pytest.raises(ReproError):
            SlotResource(1).request(0.0, -1.0)


class TestCostModel:
    def test_problem_cell_counts_match_paper(self):
        assert MEDIUM.total_cells == 17_039_360
        assert LARGE.total_cells == 136_314_880
        assert LARGE.num_patches(8) == 262_144  # Table I's 262k patches

    def test_indivisible_patch(self):
        with pytest.raises(ReproError):
            LARGE.num_patches(48)

    def test_halo_messages_shrink_with_ranks(self):
        a = multi_level_comm_per_rank(LARGE, 16, 512)
        b = multi_level_comm_per_rank(LARGE, 16, 16384)
        assert b.halo_messages < a.halo_messages
        assert b.coarse_bytes <= a.coarse_bytes * 1.01

    def test_single_level_volume_blowup(self):
        """E8's core fact: the 2-level scheme moves orders of magnitude
        fewer bytes per rank than fine-mesh replication."""
        multi = multi_level_comm_per_rank(LARGE, 16, 4096)
        single = single_level_comm_per_rank(LARGE, 16, 4096)
        assert single.total_bytes > 50 * multi.total_bytes

    def test_single_level_aggregate_quadraticish(self):
        per_rank_1k = single_level_comm_per_rank(LARGE, 16, 1024).total_bytes
        per_rank_4k = single_level_comm_per_rank(LARGE, 16, 4096).total_bytes
        # per-rank volume ~constant => aggregate grows linearly in R,
        # i.e. quadratically in problem+machine scaling together
        assert per_rank_4k == pytest.approx(per_rank_1k, rel=0.01)

    def test_pool_model_ordering(self):
        pm = PoolTimingModel()
        for n in (100, 1000, 5000):
            assert pm.local_comm_time(n, "locked") > pm.local_comm_time(n, "waitfree")

    def test_pool_model_validation(self):
        with pytest.raises(ReproError):
            PoolTimingModel().local_comm_time(-1, "waitfree")
        with pytest.raises(ReproError):
            PoolTimingModel().local_comm_time(10, "spinlock")

    def test_ray_work_modes(self):
        fixed = RayWorkModel(roi_mode="fixed")
        pb = RayWorkModel(roi_mode="patch_based")
        # fixed: identical work for all patch sizes
        assert fixed.steps_per_ray(LARGE, 16) == fixed.steps_per_ray(LARGE, 64)
        # patch-based: bigger patches march farther on the fine level
        assert pb.steps_per_ray(LARGE, 64) > pb.steps_per_ray(LARGE, 16)
        with pytest.raises(ReproError):
            RayWorkModel(roi_mode="adaptive").steps_per_ray(LARGE, 16)


class TestClusterSimulator:
    @pytest.fixture(scope="class")
    def sim(self):
        return ClusterSimulator()

    def test_strong_scaling_decreases(self, sim):
        t = [
            sim.simulate_timestep(LARGE, 16, g).total_time
            for g in (512, 1024, 2048, 4096, 8192, 16384)
        ]
        assert t == sorted(t, reverse=True)

    def test_paper_efficiency_band(self, sim):
        """Figure 3's quoted strong-scaling efficiencies: 96% for
        4096->8192 and 89% for 4096->16384 — model must land within
        +-10 points."""
        study = StrongScalingStudy(sim)
        series = study.run(LARGE, [16], [4096, 8192, 16384])[16]
        e1 = series.efficiency(4096, 8192)
        e2 = series.efficiency(4096, 16384)
        assert 0.86 <= e1 <= 1.0
        assert 0.79 <= e2 <= 1.0
        assert e2 <= e1

    def test_small_patches_slower(self, sim):
        """Figure 2/3 message: 16^3 patches starve the GPU."""
        t16 = sim.simulate_timestep(LARGE, 16, 512).total_time
        t32 = sim.simulate_timestep(LARGE, 32, 512).total_time
        t64 = sim.simulate_timestep(LARGE, 64, 512).total_time
        assert t16 > 3 * t32
        assert t64 <= t32 * 1.05

    def test_series_end_where_patches_run_out(self, sim):
        """MEDIUM at 64^3 has only 64 patches: the series must stop."""
        study = StrongScalingStudy(sim)
        res = study.run(MEDIUM, [16, 64], [64, 128, 256])
        assert res[64].gpu_counts == [64]
        assert res[16].gpu_counts == [64, 128, 256]

    def test_table1_band(self, sim):
        """Table I: locked/wait-free speedups within the paper's 2-4.5x
        band, decreasing-magnitude times as nodes grow."""
        speedups = []
        befores = []
        for nodes in (512, 1024, 2048, 4096, 8192, 16384):
            tb = sim.simulate_timestep(
                LARGE, 8, nodes, SimOptions(pool="locked")
            ).local_comm_time
            ta = sim.simulate_timestep(
                LARGE, 8, nodes, SimOptions(pool="waitfree")
            ).local_comm_time
            befores.append(tb)
            speedups.append(tb / ta)
        assert befores == sorted(befores, reverse=True)
        assert all(2.0 <= s <= 5.0 for s in speedups)

    def test_level_db_ablation_traffic(self, sim):
        """E7: disabling the GPU level DB multiplies H2D traffic by
        roughly patches-per-GPU (the radiation kernel itself stays
        compute-bound, so the cost shows as PCIe bytes + memory)."""
        with_db = sim.simulate_timestep(
            LARGE, 16, 2048, SimOptions(use_level_db=True)
        )
        without = sim.simulate_timestep(
            LARGE, 16, 2048, SimOptions(use_level_db=False)
        )
        assert without.h2d_bytes > 5 * with_db.h2d_bytes
        assert without.total_time >= with_db.total_time
        assert with_db.gpu_memory_ok

    def test_level_db_ablation_time_when_pcie_bound(self, sim):
        """With a cheap kernel (1 ray/cell) the redundant coarse
        uploads dominate the pipeline and the slowdown is visible in
        wall-clock, not just traffic."""
        # RR 2 => a 256^3 coarse level (400 MB): redundant uploads hurt
        cheap = RMCRTProblem(fine_cells=512, refinement_ratio=2, rays_per_cell=1)
        with_db = sim.simulate_timestep(
            cheap, 32, 512, SimOptions(use_level_db=True)
        )
        without = sim.simulate_timestep(
            cheap, 32, 512, SimOptions(use_level_db=False)
        )
        assert without.pipeline_time > 2 * with_db.pipeline_time

    def test_gpu_memory_infeasible_without_level_db(self, sim):
        """At high patches-in-flight the legacy per-task coarse copies
        exceed K20X memory — the problem contribution (ii) fixed."""
        opts = SimOptions(use_level_db=False, max_in_flight=64)
        b = sim.simulate_timestep(LARGE, 16, 512, opts)
        assert not b.gpu_memory_ok
        ok = sim.simulate_timestep(
            LARGE, 16, 512, SimOptions(use_level_db=True, max_in_flight=64)
        )
        assert ok.gpu_memory_ok

    def test_over_decomposition_hides_copies(self, sim):
        """Multiple patches in flight overlap PCIe with kernels."""
        serial = sim.simulate_timestep(
            MEDIUM, 32, 64, SimOptions(max_in_flight=1)
        ).pipeline_time
        pipelined = sim.simulate_timestep(
            MEDIUM, 32, 64, SimOptions(max_in_flight=8)
        ).pipeline_time
        assert pipelined < serial

    def test_validation(self, sim):
        with pytest.raises(ReproError):
            sim.simulate_timestep(LARGE, 16, 0)
        with pytest.raises(ReproError):
            sim.simulate_timestep(LARGE, 16, 10 ** 6)

    def test_idle_gpus_beyond_patch_count(self, sim):
        b = sim.simulate_timestep(MEDIUM, 64, 512)
        assert b.active_gpus == 64
        assert b.patches_per_gpu == 1
