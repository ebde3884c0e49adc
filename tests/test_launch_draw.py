"""A launch draws its rays once: composition and cuts are invisible.

``generate_patch_rays`` draws the rays of a launch's K patches in one
call, each patch from its own stream, and ``trace_patch_multi_level``
takes the per-cell mean once over the launch. Neither may show: a
patch's rays, its stream afterwards and its del.q are byte-identical
whether it is drawn and traced alone or in a launch of K, and each
stream ends the draw advanced by exactly 5n doubles (2n centred).

A trace wider than a launch is drawn, marched and reduced a launch at a
time, each cut source read through cursors (``repro.util.rng.advance``):
its bytes, and where every stream ends, are those of the trace as one
launch, and its memory does not grow with its rays.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Box
from repro.core import (
    LevelFields,
    TraceOptions,
    generate_patch_rays,
    patch_roi,
    trace_patch_multi_level,
    trace_patch_single_level,
)
from repro.core.kernels import LAUNCH_RAYS
from repro.core.rays import wall_faces
from repro.radiation import BurnsChristonBenchmark, RadiativeProperties, SpectralModel
from repro.util.rng import advance
from tests.level_fields import level_fields, whole_level

FINE = Box.cube(8)
DX = (0.1, 0.125, 0.2)
ANCHOR = (-0.3, 0.0, 0.25)


def random_level(interior, dx, seed):
    rng = np.random.default_rng(seed)
    props = RadiativeProperties.from_fields(
        interior,
        abskg=rng.uniform(0.5, 3.0, interior.extent),
        sigma_t4=rng.uniform(0.5, 2.0, interior.extent),
        wall_emissivity=0.7,
    )
    return whole_level(props, dx, ANCHOR)


FINE_FIELDS = random_level(FINE, DX, 1)
COARSE_FIELDS = random_level(Box.cube(4), tuple(2 * h for h in DX), 2)

boxes = st.builds(
    lambda lo, extent: Box(lo, tuple(min(8, a + e) for a, e in zip(lo, extent))),
    st.tuples(*[st.integers(0, 7)] * 3),
    st.tuples(*[st.integers(1, 4)] * 3),
)


def streams(seeds):
    return [np.random.default_rng(s) for s in seeds]


@settings(max_examples=30, deadline=None)
@given(
    patch_boxes=st.lists(boxes, min_size=2, max_size=4),
    rays_per_cell=st.integers(1, 5),
    centered=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_a_patch_draws_and_traces_the_same_alone_or_in_a_launch(
    patch_boxes, rays_per_cell, centered, seed
):
    seeds = [seed + k for k in range(len(patch_boxes))]
    launch_rngs = streams(seeds)
    origins, directions = generate_patch_rays(
        FINE_FIELDS, patch_boxes, rays_per_cell, launch_rngs, centered_origins=centered
    )
    doubles = (2 if centered else 5) * rays_per_cell
    end = 0
    for box, s, launch_rng in zip(patch_boxes, seeds, launch_rngs):
        alone_rng = np.random.default_rng(s)
        o, d = generate_patch_rays(
            FINE_FIELDS, [box], rays_per_cell, [alone_rng], centered_origins=centered
        )
        n = o.shape[0]
        assert n == box.volume * rays_per_cell
        assert origins[end:end + n].tobytes() == o.tobytes()
        assert directions[end:end + n].tobytes() == d.tobytes()
        assert launch_rng.bit_generator.state == alone_rng.bit_generator.state
        advanced = np.random.default_rng(s)
        advanced.random(doubles * box.volume)
        assert launch_rng.bit_generator.state == advanced.bit_generator.state
        end += n
    assert end == origins.shape[0]

    def patch(box, s):
        return (box, patch_roi(FINE, box, 1), np.random.default_rng(s))

    options = TraceOptions(rays_per_cell=rays_per_cell, centered_origins=centered)
    coarse = [COARSE_FIELDS]
    # the whole fine level, once a patch
    whole = (FINE.grow(1), *FINE_FIELDS.views(0))
    launched = trace_patch_multi_level(
        coarse, level_fields(FINE, DX, ANCHOR, [whole] * len(patch_boxes)),
        [patch(b, s) for b, s in zip(patch_boxes, seeds)], options,
    )
    for box, s, divq in zip(patch_boxes, seeds, launched):
        (alone,) = trace_patch_multi_level(
            coarse, FINE_FIELDS, [patch(box, s)], options
        )
        assert divq.tobytes() == alone.tobytes()


def test_the_draw_is_by_axis_rows():
    """The set-up reads the draw without a copy: each array is the
    transposed view of contiguous ``(3, n)`` rows."""
    o, d = generate_patch_rays(FINE_FIELDS, [Box.cube(2), Box.cube(3)], 2, streams([0, 1]))
    assert o.shape == d.shape == (70, 3)
    assert o.T.flags.c_contiguous and d.T.flags.c_contiguous


THREE_BANDS = SpectralModel.build(bands=3, temperature=1400.0, kappa_exponent=0.8)
GENERATORS = {"Philox": np.random.Philox, "PCG64": np.random.PCG64}


def started(generator, seed, skip):
    """A stream of ``generator`` that has drawn ``skip`` doubles: mid-block
    for Philox unless ``skip`` is a multiple of 4."""
    rng = np.random.Generator(GENERATORS[generator](seed))
    rng.random(skip)
    return rng


def position(rng):
    return repr(rng.bit_generator.state)


@settings(max_examples=25, deadline=None)
@given(
    patch_boxes=st.lists(boxes, min_size=1, max_size=3),
    rays_per_cell=st.integers(2, 5),
    chunk_rays=st.integers(2, 40),
    centered=st.booleans(),
    spectral=st.booleans(),
    flux=st.booleans(),
    generator=st.sampled_from(sorted(GENERATORS)),
    skip=st.integers(0, 7),
    seed=st.integers(0, 2**31),
)
def test_a_trace_cut_into_launches_is_the_trace_as_one_launch(
    patch_boxes, rays_per_cell, chunk_rays, centered, spectral, flux, generator, skip, seed
):
    """Rays cut anywhere (``rays_per_cell`` need not divide the width, so
    a cell's or a face's rays may span launches): del.q, the wall flux and
    where every stream ends are byte for byte those of the trace as one
    launch."""
    options = TraceOptions(
        rays_per_cell=rays_per_cell, centered_origins=centered,
        spectral=THREE_BANDS if spectral else None,
    )
    window = (FINE.grow(1), *FINE_FIELDS.views(0))
    fine = level_fields(FINE, DX, ANCHOR, [window] * len(patch_boxes))

    def trace(width):
        streams = iter(range(1000))

        def stream():
            return started(generator, seed + next(streams), skip)

        patches = [(box, patch_roi(FINE, box, 1), stream()) for box in patch_boxes]
        faces = [[(*face, stream()) for face in wall_faces(FINE, box)] for box in patch_boxes]
        bands = [stream() for _ in patch_boxes] if spectral else None
        out = trace_patch_multi_level(
            [COARSE_FIELDS], fine, patches, options, chunk_rays=width, band_rngs=bands,
            faces=faces if flux else None, rays_per_face=3,
        )
        used = [rng for _, _, rng in patches] + list(bands or ())
        used += [face[3] for patch_faces in faces for face in patch_faces] if flux else []
        return out, [position(rng) for rng in used]

    whole, whole_ends = trace(LAUNCH_RAYS)
    cut, cut_ends = trace(chunk_rays)
    divqs = (whole[0], cut[0]) if flux else (whole, cut)
    for a, b in zip(*divqs):
        assert a.tobytes() == b.tobytes()
    if flux:
        for a, b in zip(whole[1], cut[1]):
            assert [q.tobytes() for q in a] == [q.tobytes() for q in b]
    assert cut_ends == whole_ends


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_advance_is_drawing_the_doubles(generator):
    """At every offset mod 4, from every position in a Philox block: a
    stream moved on by ``advance`` draws what one that drew the doubles
    draws next, and its state is the same."""
    for skip in range(8):
        for doubles in [*range(9), 401, 402, 403, 404]:
            drawn, moved = started(generator, 7, skip), started(generator, 7, skip)
            drawn.random(doubles)
            assert advance(moved, doubles) is moved
            assert moved.random(9).tobytes() == drawn.random(9).tobytes(), (skip, doubles)
            assert position(moved) == position(drawn), (skip, doubles)


def peak_bytes(fields, box, rays_per_cell, chunk_rays):
    tracemalloc.start()
    try:
        trace_patch_single_level(
            fields, box, TraceOptions(rays_per_cell=rays_per_cell),
            np.random.default_rng(0), chunk_rays=chunk_rays,
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_trace_holds_one_launch_whatever_its_rays():
    """A 16^3 trace, launches of 4096 lanes: eight times the rays (eight
    launches against one) peak within 15 % of one ray a cell."""
    bench = BurnsChristonBenchmark(resolution=16)
    level = bench.single_level_grid().finest_level
    fields = LevelFields.from_properties(level, bench.properties_for_level(level))
    peak_bytes(fields, level.domain_box, 1, 4096)  # warm: nothing built once lands in a peak
    one, eight = (peak_bytes(fields, level.domain_box, r, 4096) for r in (1, 8))
    assert abs(eight - one) < 0.15 * one, (one, eight)
