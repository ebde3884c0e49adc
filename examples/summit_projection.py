#!/usr/bin/env python
"""Project the LARGE benchmark onto DOE Summit.

The paper's closing motivation: "enable the Utah CCMSC to run the
target 1000MWe boiler problem on current and emerging GPU-based
architectures at large scale", naming Summit explicitly. This example
re-runs the Figure 3 study on the Summit machine model (V100s, NVLink,
EDR fat-tree) next to Titan and reports the projected per-GPU speedup
and where the scaling limits move. It first runs one Summit-class node
for real: a small two-level scene across the node's six GPUs, which
must match the serial solve bit for bit (Section I's "arbitrary number
of on-node GPUs").

Run:  python examples/summit_projection.py
"""

import numpy as np

from repro import (LARGE, BurnsChristonBenchmark, DistributedRMCRT,
                   MultiGPUScheduler, StrongScalingStudy, benchmark_property_init)
from repro.core.distributed import DIVQ
from repro.machine import SUMMIT, summit_simulator
from repro.runtime import gather_cc

GPUS = [512, 1024, 2048, 4096, 8192, 16384]


def node_solve() -> None:
    """One node's task graph across all of its GPUs, checked against
    the serial solve."""
    bench = BurnsChristonBenchmark(resolution=16)
    drm = DistributedRMCRT(
        bench.two_level_grid(refinement_ratio=4, fine_patch_size=8),
        benchmark_property_init(bench), rays_per_cell=4, halo=2, seed=1, device=True,
    )
    serial = drm.solve("serial").divq
    node = MultiGPUScheduler(num_gpus=SUMMIT.gpus_per_node)
    graph = drm.build_graph()
    divq = gather_cc(graph, {0: node.execute(graph)}, DIVQ, 1)
    assert np.array_equal(divq, serial), "multi-GPU node solve != serial solve"
    tasks = [d["tasks"] for d in node.stats_summary()]
    print(f"one Summit node: 16^3 two-level scene, trace tasks per GPU {tasks}, "
          f"del.q bit-identical to the serial solve\n")


def main() -> None:
    node_solve()

    titan = StrongScalingStudy()
    summit = StrongScalingStudy(summit_simulator())

    patch_sizes = [16, 64]
    t_res = titan.run(LARGE, patch_sizes, GPUS)
    s_res = summit.run(LARGE, patch_sizes, GPUS)

    print("LARGE problem (512^3 + 128^3, 100 rays/cell), time per timestep:\n")
    print(f"{'GPUs':>7} | {'Titan 16^3':>10} {'Summit 16^3':>11} | "
          f"{'Titan 64^3':>10} {'Summit 64^3':>11}")
    for g in GPUS:
        row = f"{g:>7} |"
        for ps in patch_sizes:
            for res in (t_res, s_res):
                s = res[ps]
                row += (
                    f" {s.times[s.gpu_counts.index(g)]:9.3f}s"
                    if g in s.gpu_counts
                    else f" {'--':>10}"
                )
            if ps == patch_sizes[0]:
                row += " |"
        print(row)

    small = t_res[16].times[0] / s_res[16].times[0]
    big = t_res[64].times[0] / s_res[64].times[0]
    print(f"\nprojected per-GPU speedup (V100 vs K20X): "
          f"{small:.2f}x at 16^3 patches, {big:.2f}x at 64^3")
    print(f"Titan  efficiency 4096->16384 (16^3): "
          f"{t_res[16].efficiency(4096, 16384):.1%}")
    print(f"Summit efficiency 4096->16384 (16^3): "
          f"{s_res[16].efficiency(4096, 16384):.1%}")
    print("\nthe projection's real finding: a V100 needs 163,840 resident")
    print("threads to saturate (vs the K20X's 28,672), so Titan-tuned 16^3")
    print("patches leave Summit's GPUs mostly idle — the faster machine is")
    print("SLOWER until patches grow. The paper's patch-size tension gets")
    print("sharper, not weaker, on emerging hardware.")


if __name__ == "__main__":
    main()
