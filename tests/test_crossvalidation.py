"""Cross-validation between the executable runtime and the analytic
cost model — the two layers of the reproduction must tell the same
story about communication structure.

A compiled distributed-RMCRT task graph's actual message batches and
byte counts are compared against what
:func:`repro.dessim.multi_level_comm_per_rank` predicts for the same
(problem, patch size, rank) configuration, and the CPU-vs-GPU node
models are sanity-checked against each other.
"""

import numpy as np
import pytest

from repro.core import DistributedRMCRT, benchmark_property_init
from repro.dessim import (
    BYTES_PER_VAR,
    NUM_PROPERTY_VARS,
    ClusterSimulator,
    RMCRTProblem,
    SimOptions,
    multi_level_comm_per_rank,
)
from repro.grid import LoadBalancer
from repro.machine import OPTERON_6274, CPUNodeModel, K20X
from repro.radiation import BurnsChristonBenchmark
from repro.util.errors import ReproError


class TestGraphVsCostModel:
    @pytest.fixture(scope="class")
    def compiled(self):
        """A 32^3/RR4 benchmark graph on 8 ranks with 8^3 patches."""
        bench = BurnsChristonBenchmark(resolution=32)
        grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=8)
        drm = DistributedRMCRT(
            grid, benchmark_property_init(bench), rays_per_cell=2, halo=2
        )
        lb = LoadBalancer(8)
        assignment = lb.assign(grid.finest_level.patches)
        return drm.build_graph(assignment=assignment, num_ranks=8)

    def test_coarse_bytes_match_model(self, compiled):
        """Level-variable traffic per rank == the model's coarse bytes
        (3 property arrays x coarse volume x remote fraction)."""
        problem = RMCRTProblem(fine_cells=32, refinement_ratio=4, halo=2)
        predicted = multi_level_comm_per_rank(problem, 8, 8).coarse_bytes
        level_msgs = [m for m in compiled.messages if m.src_patch_id < 0]
        # per receiving rank: 3 arrays x 8^3 cells x 8 bytes
        per_rank = {}
        for m in level_msgs:
            per_rank[m.dst_rank] = per_rank.get(m.dst_rank, 0) + m.nbytes
        expected_exact = NUM_PROPERTY_VARS * 8 ** 3 * BYTES_PER_VAR
        for rank, nbytes in per_rank.items():
            assert nbytes == expected_exact
        # model says the same to within its remote-fraction rounding
        assert predicted == pytest.approx(expected_exact, rel=0.15)

    def test_halo_bytes_same_order_as_model(self, compiled):
        """Fine ghost traffic per rank lands within 3x of the model's
        halo estimate (the model assumes a fixed off-node face fraction;
        the graph has the real SFC geometry)."""
        problem = RMCRTProblem(fine_cells=32, refinement_ratio=4, halo=2)
        predicted = multi_level_comm_per_rank(problem, 8, 8).halo_bytes
        halo_msgs = [m for m in compiled.messages if m.src_patch_id >= 0]
        per_rank = np.zeros(8)
        for m in halo_msgs:
            per_rank[m.dst_rank] += m.nbytes
        measured = per_rank.mean()
        assert measured / 3 < predicted < measured * 3


class TestCPUNodeModel:
    def test_validation(self):
        with pytest.raises(ReproError):
            CPUNodeModel(steps_per_second_per_core=0)
        with pytest.raises(ReproError):
            CPUNodeModel(parallel_efficiency=0)
        with pytest.raises(ReproError):
            OPTERON_6274.task_time(0, 1, 1)

    def test_gpu_node_beats_cpu_node_at_saturation(self):
        """A saturated K20X out-runs the 16-core Opteron node — the
        premise of the GPU port (>90% of Titan's FLOPS on the GPUs)."""
        cells, rays, steps = 32 ** 3, 100, 150.0
        t_gpu = K20X.kernel_time(cells, rays, steps)
        # node CPU time: the patch shared across all 16 cores at best
        t_cpu = OPTERON_6274.task_time(cells, rays, steps) / OPTERON_6274.cores
        assert t_gpu < t_cpu

    def test_small_patches_erase_the_gpu_advantage(self):
        """At 16^3 the K20X runs at ~14% occupancy and the node contest
        tightens — the Section V motivation for patch-size tuning."""
        rays, steps = 100, 150.0
        ratios = []
        for ps in (16, 32):
            cells = ps ** 3
            t_gpu = K20X.kernel_time(cells, rays, steps)
            t_cpu = OPTERON_6274.task_time(cells, rays, steps) / OPTERON_6274.cores
            ratios.append(t_cpu / t_gpu)
        assert ratios[0] < ratios[1]  # GPU advantage grows with patch size


class TestClusterCPUDevice:
    def test_cpu_timestep_runs(self):
        sim = ClusterSimulator()
        problem = RMCRTProblem(fine_cells=256)
        b = sim.simulate_timestep(problem, 32, 128, SimOptions(device="cpu"))
        assert b.total_time > 0
        assert b.h2d_bytes == 0  # no PCIe stage on the CPU path
        assert b.gpu_memory_ok  # host memory is ample

    def test_gpu_vs_cpu_node_ratio(self):
        """Per the machine models, the GPU configuration wins per node
        for well-sized patches."""
        sim = ClusterSimulator()
        problem = RMCRTProblem(fine_cells=256)
        gpu = sim.simulate_timestep(problem, 32, 128, SimOptions(device="gpu"))
        cpu = sim.simulate_timestep(problem, 32, 128, SimOptions(device="cpu"))
        assert gpu.total_time < cpu.total_time
        ratio = cpu.total_time / gpu.total_time
        assert 1.2 < ratio < 20  # modest node-for-node win, not magic

    def test_unknown_device(self):
        sim = ClusterSimulator()
        with pytest.raises(ReproError):
            sim.simulate_timestep(
                RMCRTProblem(fine_cells=256), 32, 64, SimOptions(device="tpu")
            )
