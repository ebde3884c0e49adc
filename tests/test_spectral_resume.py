"""Spectral campaigns must checkpoint and resume bit-identically.

A multi-step spectral campaign advances one shared
:class:`RandomStreams` — both the per-patch ray streams and the named
spectral band streams move every step. Resume works only if state
capture covers the named streams too: restore at step k, replay, and
every subsequent solve must be bit-identical to the uninterrupted run.
"""

import json

import numpy as np

from repro.dw.datawarehouse import DataWarehouse
from repro.radiation.spectral.model import SpectralModel
from repro.radiation.spectral.scenario import SpectralCase
from repro.resilience.state import capture_state
from repro.util.rng import SPECTRAL_STREAM, RandomStreams

SEED = 11
STEPS = 4
RESUME_AT = 2  # capture after step index 1, replay steps 2..3


def campaign_case():
    return SpectralCase(
        name="resume",
        model=SpectralModel.build(
            bands=3, temperature=1400.0, kappa_exponent=0.8,
            emissivity="tungsten",
        ),
        resolution=8, rays_per_cell=2,
        wall_temperature=0.5, wall_emissivity=0.8,
        seed=SEED,
    )


def run_campaign(steps, streams):
    """Each step is one spectral solve drawing from the shared streams
    (so later steps see stream positions advanced by earlier ones)."""
    case = campaign_case()
    grid, props = case.prepare()
    tracer = case.tracer()
    return [tracer.solve(grid, props, streams=streams).divq for _ in range(steps)]


def test_resume_is_bit_identical():
    # the gold run, capturing RNG state mid-campaign
    streams = RandomStreams(SEED)
    case = campaign_case()
    grid, props = case.prepare()
    tracer = case.tracer()
    gold = []
    snapshot = None
    for step in range(STEPS):
        if step == RESUME_AT:
            snapshot = capture_state(DataWarehouse(), step, streams=streams)
        gold.append(tracer.solve(grid, props, streams=streams).divq)

    # restore into a fresh process-equivalent and replay the tail
    resumed_streams = RandomStreams(SEED)
    snapshot.restore_streams(resumed_streams)
    resumed = run_campaign(STEPS - RESUME_AT, resumed_streams)
    for step, divq in enumerate(resumed, start=RESUME_AT):
        np.testing.assert_array_equal(divq, gold[step])


def test_snapshot_covers_named_spectral_streams():
    streams = RandomStreams(SEED)
    run_campaign(1, streams)
    state = capture_state(DataWarehouse(), 1, streams=streams)
    keys = state.rng["streams"].keys()
    spectral_keys = [k for k in keys if k.startswith(f"{SPECTRAL_STREAM},")]
    assert spectral_keys, f"no named spectral stream captured: {sorted(keys)}"
    # the ray streams are there too (integer-keyed)
    assert any(k.split(",")[0].lstrip("-").isdigit() for k in keys)

    # the snapshot must survive a JSON round-trip (checkpoint format)
    restored = RandomStreams(SEED)
    restored.set_state(json.loads(json.dumps(state.rng)))
    a = run_campaign(1, restored)[0]
    b = run_campaign(1, streams)[0]
    np.testing.assert_array_equal(a, b)


def test_without_restore_the_tail_differs():
    streams = RandomStreams(SEED)
    gold = run_campaign(STEPS, streams)
    # a fresh RandomStreams starts at the beginning of every stream, so
    # its first solve reproduces step 0, not the post-checkpoint step
    fresh = run_campaign(1, RandomStreams(SEED))[0]
    np.testing.assert_array_equal(fresh, gold[0])
    assert np.max(np.abs(fresh - gold[RESUME_AT])) > 0.0
