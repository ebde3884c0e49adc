"""A launch draws its rays once: composition is invisible.

``generate_patch_rays`` draws the rays of a launch's K patches in one
call, each patch from its own stream, and ``trace_patch_multi_level``
takes the per-cell mean once over the launch. Neither may show: a
patch's rays, its stream afterwards and its del.q are byte-identical
whether it is drawn and traced alone or in a launch of K, and each
stream ends the draw advanced by exactly 5n doubles (2n centred).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Box
from repro.core import TraceOptions, generate_patch_rays, patch_roi, trace_patch_multi_level
from repro.radiation import RadiativeProperties
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
