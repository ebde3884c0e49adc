"""One-command reproduction report.

``python -m repro.report`` regenerates every paper table and figure on
the cluster model and prints them next to the published values — the
quick-look counterpart to the full benchmark suite (which additionally
runs the live-measurement experiments E1b/E4/E5/E6/E7-executable).
"""

from __future__ import annotations

import sys

from repro.dessim.cluster import ClusterSimulator, SimOptions, StrongScalingStudy
from repro.dessim.costmodel import (
    LARGE,
    MEDIUM,
    multi_level_comm_per_rank,
    single_level_comm_per_rank,
)

#: Table I as printed in the paper
PAPER_TABLE1 = {
    512: (6.25, 1.42, 4.40),
    1024: (2.68, 1.18, 2.27),
    2048: (1.26, 0.54, 2.33),
    4096: (0.89, 0.36, 2.47),
    8192: (0.79, 0.30, 2.63),
    16384: (0.73, 0.23, 3.17),
}

PATCH_SIZES = [16, 32, 64]


def report_table1(sim: ClusterSimulator, out) -> None:
    print("=" * 72, file=out)
    print("Table I / Figure 1 — local communication time (s)", file=out)
    print("=" * 72, file=out)
    print(f"{'nodes':>6} | {'model before':>12} {'model after':>11} {'model x':>8}"
          f" | {'paper before':>12} {'paper after':>11} {'paper x':>8}", file=out)
    for nodes, (pb, pa, px) in PAPER_TABLE1.items():
        before = sim.simulate_timestep(
            LARGE, 8, nodes, SimOptions(pool="locked")
        ).local_comm_time
        after = sim.simulate_timestep(
            LARGE, 8, nodes, SimOptions(pool="waitfree")
        ).local_comm_time
        print(f"{nodes:>6} | {before:>12.3f} {after:>11.3f} {before / after:>8.2f}"
              f" | {pb:>12.2f} {pa:>11.2f} {px:>8.2f}", file=out)
    print(file=out)


def report_figure(sim: ClusterSimulator, problem, title, gpu_counts, out,
                  quote_efficiencies=False) -> None:
    print("=" * 72, file=out)
    print(title, file=out)
    print("=" * 72, file=out)
    study = StrongScalingStudy(sim)
    results = study.run(problem, PATCH_SIZES, gpu_counts)
    print(f"{'GPUs':>7} |" + "".join(f"  patch {ps}^3" for ps in PATCH_SIZES),
          file=out)
    for g in gpu_counts:
        row = f"{g:>7} |"
        for ps in PATCH_SIZES:
            s = results[ps]
            row += (
                f" {s.times[s.gpu_counts.index(g)]:10.3f}"
                if g in s.gpu_counts
                else f" {'--':>10}"
            )
        print(row, file=out)
    if quote_efficiencies:
        s16 = results[16]
        print(f"\nefficiency 4096->8192:  {s16.efficiency(4096, 8192):6.1%} "
              f"(paper: 96%)", file=out)
        print(f"efficiency 4096->16384: {s16.efficiency(4096, 16384):6.1%} "
              f"(paper: 89%)", file=out)
    print(file=out)


def report_comm_volume(out) -> None:
    print("=" * 72, file=out)
    print("E8 — per-rank communication: single-level vs data onion (LARGE)",
          file=out)
    print("=" * 72, file=out)
    print(f"{'ranks':>7} {'single-level':>14} {'2-level':>10} {'reduction':>10}",
          file=out)
    for ranks in (512, 2048, 8192, 16384):
        s = single_level_comm_per_rank(LARGE, 16, ranks).total_bytes
        m = multi_level_comm_per_rank(LARGE, 16, ranks).total_bytes
        print(f"{ranks:>7} {s / 1e9:>12.2f}GB {m / 1e6:>8.1f}MB {s / m:>9.0f}x",
              file=out)
    print(file=out)


def main(out=None) -> int:
    out = out if out is not None else sys.stdout
    sim = ClusterSimulator()
    print("\nRMCRT @ 16,384 GPUs — reproduction report "
          "(model values; see EXPERIMENTS.md)\n", file=out)
    report_table1(sim, out)
    report_figure(
        sim, MEDIUM,
        "Figure 2 — MEDIUM strong scaling (256^3 + 64^3, s/timestep)",
        [16, 64, 256, 1024, 4096], out,
    )
    report_figure(
        sim, LARGE,
        "Figure 3 — LARGE strong scaling (512^3 + 128^3, s/timestep)",
        [64, 256, 1024, 4096, 8192, 16384], out,
        quote_efficiencies=True,
    )
    report_comm_volume(out)
    print("Run `pytest benchmarks/ --benchmark-only -s` for the measured "
          "experiments\n(E1b pools, E4 convergence, E5 kernels, E6 "
          "allocators, E7 level DB, E11 traces).", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
