"""Level fields from arrays, the one way a test builds them: the stack is
allocated and each window written through its views, as the solvers
write theirs."""

from repro.core import LevelFields


def level_fields(interior, dx, anchor, windows):
    """A :class:`~repro.core.LevelFields` of ``windows`` of one level, each
    ``(box, abskg, sigma_t4, cell_type)`` with the arrays shaped like
    ``box``; window ``k`` is the ``k``-th."""
    fields = LevelFields(interior, dx, anchor, [box for box, *_ in windows])
    for k, (box, *arrays) in enumerate(windows):
        for view, data in zip(fields.views(k), arrays):
            assert data.shape == box.extent, (data.shape, box)
            view[...] = data
    return fields


def whole_level(props, dx, anchor=(0.0, 0.0, 0.0)):
    """The level of ``props`` (a :class:`~repro.radiation.RadiativeProperties`)
    as its one window, the ring box."""
    arrays = (props.abskg, props.sigma_t4, props.cell_type)
    return level_fields(props.interior, dx, anchor, [(props.interior.grow(1), *arrays)])
