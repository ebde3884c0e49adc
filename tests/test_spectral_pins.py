"""The spectral answer, byte for byte.

Every level's band fields are a pointwise transform of the level's
(``LevelFields.bands``): interior kappa scaled by the band's kappa
scale, surface cells by the tabulated band emissivity at the local
surface temperature. These pins hold the divq sha256 of the three
packaged volume scenarios on both backends (the scalar one smaller: it
marches one ray at a time) and of one two-level solve, whose coarse
level's bands are transformed too. A change to how a band's fields are
laid out or derived moves one of them or nothing.

The enclosure has no volume trace: its pins hold the raw Monte Carlo
view-factor matrix (points and cosine-weighted directions drawn per
face, exit faces tallied) and the net face flux of the packaged and
the default enclosure; the packaged one folds in its band edges'
Planck inverse.
"""

import hashlib
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.core import MultiLevelRMCRT
from repro.radiation import BurnsChristonBenchmark, RadiativeProperties
from repro.radiation.spectral.scenario import get_scenario
from repro.radiation.spectral.viewfactor import EnclosureScenario, view_factor_matrix

#: scenario -> divq sha256 on the vectorized backend at the scenario's size
VECTORIZED = {
    "gray-limit": "799821c62e0527cbd1a99e0e9d412d00236da61f272399b0df6dbc342f4522e2",
    "combustion-3band": "e52a07f57a109c73df01a867a9f04070580080b90c9cf857ef79073ac6c7f24e",
    "hot-wall-tungsten": "cc50adc22aed9ae37d999ea5cf373649dca45945fe25e0987176965d122a092c",
}
#: scenario -> divq sha256 on the scalar backend at 8^3, two rays a cell
SCALAR = {
    "gray-limit": "393ea0cb235cc3c635c83af119693b2a3e5f9afc137e4ca38119ccdc9a416e01",
    "combustion-3band": "9bed6510d0ad4e27e264b837a91d1a88eaa97012cf7dd2ff5716ae77ed85395f",
    "hot-wall-tungsten": "1c9d826523904436ba4b156bb62b7749460fbee5041c8f8ce6074244924fe0e4",
}
TWO_LEVEL = "a0a1f435c61f6ba5d5ce502f4fd23940535333337aecbafe0b9dab56755cff22"
#: (dims, samples per face, seed) -> raw view-factor matrix sha256
VIEW_FACTORS = {
    ((1.0, 1.0, 1.0), 20000, 0): "04d803feb149e6ac7db4bba5202dccfd69403107a1bdd8333f85d2f2de734f30",
    ((2.0, 1.0, 0.5), 4000, 3): "338b2baef81266b0da3bb964c861c54c149014eb3b8eb71b4984800d14feae18",
}
ENCLOSURE_FLUX = "bd0363ea878bae13f63aefe8770068a46c180b585dd784b406f425345df259d8"
DEFAULT_ENCLOSURE_FLUX = "5b9f4f3660b87803abdce89644ca6bcaf652e0b056f64b02342e0ec78a7067d9"


def digest(divq):
    return hashlib.sha256(np.ascontiguousarray(divq).tobytes()).hexdigest()


@lru_cache(maxsize=None)
def scenario(name):
    """The packaged case, its model built once for the module."""
    return get_scenario(name)


@pytest.mark.parametrize("name", sorted(VECTORIZED))
def test_vectorized_scenario_is_pinned(name):
    assert digest(scenario(name).solve("vectorized").divq) == VECTORIZED[name]


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_scalar_scenario_is_pinned(name):
    case = replace(scenario(name), resolution=8, rays_per_cell=2)
    assert digest(case.solve("scalar").divq) == SCALAR[name]


def test_two_level_spectral_solve_is_pinned():
    """Hot tungsten walls under a coarse level: both levels' band fields
    carry the tabulated emissivity."""
    case = scenario("hot-wall-tungsten")
    bench = BurnsChristonBenchmark(resolution=16)
    grid = bench.two_level_grid(refinement_ratio=2, fine_patch_size=8)
    level = grid.finest_level
    props = RadiativeProperties.from_fields(
        level.domain_box,
        abskg=bench.abskg_field(level),
        sigma_t4=np.ones(level.domain_box.extent),
        wall_temperature=case.wall_temperature,
        wall_emissivity=case.wall_emissivity,
    )
    solver = MultiLevelRMCRT(rays_per_cell=2, halo=2, seed=3, spectral=case.model)
    assert digest(solver.solve(grid, props).divq) == TWO_LEVEL


@pytest.mark.parametrize("case", sorted(VIEW_FACTORS))
def test_view_factor_matrix_is_pinned(case):
    dims, samples, seed = case
    assert digest(view_factor_matrix(dims, samples, seed=seed)) == VIEW_FACTORS[case]


def test_enclosure_flux_is_pinned():
    assert digest(get_scenario("enclosure").solve().flux) == ENCLOSURE_FLUX
    assert digest(EnclosureScenario().solve().flux) == DEFAULT_ENCLOSURE_FLUX
