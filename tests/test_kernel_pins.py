"""The pins of the two kernel-bound scenes the end-to-end benchmark runs
in one process: ``onion_fat`` (B&C 32^3 under a coarse level, eight
fine patches of 16^3, halo 4, four rays per cell) and
``longmarch_reflect`` (B&C 16^3, one level, gray walls of emissivity
0.5, reflections on, three rays per cell). The answer, byte for byte,
and the DDA counters of one solve per launch kind (``handoff`` 0: fresh
launches on the finest level; 1: the coarse re-launches of parked rays).
A change to how ``core.dda.march`` keeps its lanes moves these or
nothing. ``tests/test_pipeline_thin_pins.py`` pins the third solver scene.
"""

import hashlib

import numpy as np
import pytest

from repro.core import MultiLevelRMCRT, SingleLevelRMCRT
from repro.perf import MetricsRegistry, set_metrics
from repro.radiation import BurnsChristonBenchmark, RadiativeProperties

COUNTERS = ("calls", "steps", "ray_steps", "lanes_launched")

#: scene -> seed -> (divq sha256, {handoff label: (calls, steps, ray_steps, lanes_launched)})
PINS = {
    "onion_fat": {
        5: (
            "f307e2520eab4b052931539a12421b120a2c4b9326c71df7564c87daed76b2d4",
            {"0": (8, 402, 1_974_270, 131_072), "1": (8, 101, 223_621, 50_438)},
        ),
        123456: (
            "e5289f95b30422c9b70a3585b50e3489aab25a23c11ebd8cb8688e633c103c58",
            {"0": (8, 411, 1_976_396, 131_072), "1": (8, 100, 225_545, 50_866)},
        ),
    },
    "longmarch_reflect": {
        5: (
            "a51289951e3ce1764f03ddb72d9691ed21395f845bfc8b033ec1fbf28da20626",
            {"0": (1, 211, 2_183_549, 12_288), "1": (0, 0, 0, 0)},
        ),
        123456: (
            "9a606da7a536083dae575c3e9db96fb035b7fe30da2cd7d350c0780099d25a0e",
            {"0": (1, 209, 2_182_014, 12_288), "1": (0, 0, 0, 0)},
        ),
    },
}


def onion_fat(seed):
    bench = BurnsChristonBenchmark(resolution=32)
    grid = bench.two_level_grid(refinement_ratio=4, fine_patch_size=16)
    props = bench.properties_for_level(grid.finest_level)
    return MultiLevelRMCRT(rays_per_cell=4, halo=4, seed=seed).solve(grid, props).divq


def longmarch_reflect(seed):
    bench = BurnsChristonBenchmark(resolution=16)
    grid = bench.single_level_grid()
    level = grid.finest_level
    props = RadiativeProperties.from_fields(
        level.domain_box,
        abskg=bench.abskg_field(level),
        sigma_t4=np.ones(level.domain_box.extent),
        wall_temperature=0.0,
        wall_emissivity=0.5,
    )
    return SingleLevelRMCRT(rays_per_cell=3, reflections=True, seed=seed).solve(grid, props).divq


#: scene -> seed -> {handoff label: dda.rows_stepped}, the rows each step
#: carried, live or parked; ray_steps / rows_stepped is the active-lane
#: fraction
ROWS_STEPPED = {
    "onion_fat": {
        5: {"0": 2_535_588, "1": 275_880},
        123456: {"0": 2_536_536, "1": 275_180},
    },
    "longmarch_reflect": {
        5: {"0": 2_243_263, "1": 0},
        123456: {"0": 2_241_691, "1": 0},
    },
}


SOLVES = {"onion_fat": onion_fat, "longmarch_reflect": longmarch_reflect}


@pytest.mark.parametrize(
    "scene, seed", [(scene, seed) for scene, seeds in PINS.items() for seed in seeds]
)
def test_divq_and_kernel_counters_are_pinned(scene, seed):
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        divq = SOLVES[scene](seed)
    finally:
        set_metrics(previous)
    sha, counts = PINS[scene][seed]
    assert hashlib.sha256(np.ascontiguousarray(divq).tobytes()).hexdigest() == sha
    for handoff, expected in counts.items():
        got = tuple(int(registry.value(f"dda.{n}", handoff=handoff)) for n in COUNTERS)
        assert got == expected, handoff
        rows = int(registry.value("dda.rows_stepped", handoff=handoff))
        assert rows == ROWS_STEPPED[scene][seed][handoff], handoff
