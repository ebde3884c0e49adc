"""The spec's one declaration, and the entries that read untrusted specs.

Every spec drawn from the declaration (the spec dataclasses' fields:
tag, converter, rule) survives its UPS text and its JSON dict form, and
its content address moves exactly when a content field changes: any
``<Grid>``, ``<RMCRT>`` or ``<Spectral>`` value, never a ``<Scheduler>``
one. A journaled spec and a ``<Spectral>`` block with bad band edges
fail typed at the entry, not inside a worker.
"""

import copy
import json
import math
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.ups as ups
from repro.perf.metrics import MetricsRegistry
from repro.ups import (
    GridSpec,
    ProblemSpec,
    RMCRTSpec,
    SchedulerSpec,
    SpectralSpec,
    parse_ups,
    spec_fingerprint,
    spec_from_dict,
    spec_to_dict,
    spec_to_ups,
)
from repro.util.errors import ReproError

#: the values a field of each converter draws from, before its rule
#: picks among them: small, so that a drawn spec digests quickly
DRAWS = {
    ups._INT: st.integers(1, 3),
    ups._FLOAT: st.floats(0.05, 0.95),
    ups._BOOL: st.booleans(),
}


def band_edges(bands: int):
    """Equal-fraction banding, or ``bands + 1`` edges from 0 to inf."""
    inner = st.lists(st.floats(0.1, 50.0), min_size=bands - 1, max_size=bands - 1, unique=True)
    return st.just(()) | inner.map(lambda xs: (0.0, *sorted(xs), math.inf))


@st.composite
def sections(draw, cls):
    """One section, each value drawn by its field's converter and rule."""
    values = {}
    for f in fields(cls):
        conv, rule = f.metadata["conv"], f.metadata["rule"]
        if conv is ups._WAVELENGTHS:
            strategy = band_edges(values["bands"])
        elif rule is not None and rule.choices:
            strategy = st.sampled_from(rule.choices)
        else:
            strategy = DRAWS[conv] if rule is None else DRAWS[conv].filter(rule.holds)
        if f.default is None:
            strategy = st.none() | strategy
        values[f.name] = draw(strategy)
    return cls(**values)


@st.composite
def specs(draw):
    """A valid spec, every section drawn from the declaration."""
    spec = ProblemSpec(**{
        part.name: draw(sections(part.metadata["cls"]))
        for part in fields(ProblemSpec)
    })
    if draw(st.booleans()):
        spec.spectral = None
    # the rules that tie two sections together, which no field holds
    if spec.spectral is not None:
        spec.rmcrt.allow_reflect = False
    if spec.grid.patch_size is None or spec.grid.levels != 2:
        spec.scheduler.type = "serial"
    return spec


@settings(max_examples=60, deadline=None)
@given(specs())
def test_a_spec_survives_its_ups_text_and_its_dict_form(spec):
    assert parse_ups(spec_to_ups(spec)) == spec
    assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec


def one_field_changes(a: ProblemSpec, b: ProblemSpec):
    """(spec, section, field) for each valid spec that is ``a`` with one
    value taken from ``b``, where the two differ."""
    for part in fields(ProblemSpec):
        ours, theirs = getattr(a, part.name), getattr(b, part.name)
        if ours is None or theirs is None:
            continue
        for f in fields(ours):
            if getattr(ours, f.name) == getattr(theirs, f.name):
                continue
            changed = copy.deepcopy(a)
            setattr(getattr(changed, part.name), f.name, getattr(theirs, f.name))
            try:
                yield parse_ups(spec_to_ups(changed)), part, f
            except ReproError:
                continue  # the value breaks a rule that ties it to another


GRAY_A = ProblemSpec(
    grid=GridSpec(8, 2, 2, 4),
    rmcrt=RMCRTSpec(2, 0.25, 1, False, False, 1),
    scheduler=SchedulerSpec("serial", 1, "waitfree", 2),
)
GRAY_B = ProblemSpec(
    grid=GridSpec(4, 1, 4, None),
    rmcrt=RMCRTSpec(3, 0.5, 2, True, True, 2),
    scheduler=SchedulerSpec("distributed", 2, "locked", 3),
)
SPECTRAL_A = copy.deepcopy(GRAY_A)
SPECTRAL_A.spectral = SpectralSpec(2, (0.0, 2.0, math.inf), 1400.0, 0.5, "gray")
SPECTRAL_B = copy.deepcopy(GRAY_A)
SPECTRAL_B.spectral = SpectralSpec(1, (), 1000.0, 1.0, "tungsten")


@settings(max_examples=6, deadline=None)
@given(specs(), specs())
@example(GRAY_A, GRAY_B)
@example(SPECTRAL_A, SPECTRAL_B)
def test_a_content_field_moves_the_fingerprint_and_a_scheduler_field_does_not(a, b):
    """The two explicit pairs differ in every field, so each field of
    each section is changed in every run."""
    for one, other in ((a, b), (b, a)):
        try:
            base = spec_fingerprint(one)
        except ReproError:
            continue  # a drawn grid that does not decompose
        for changed, part, f in one_field_changes(one, other):
            if f.name in ("kappa_exponent", "band_edges_um") and changed.spectral.bands == 1:
                # one band spans 0 to inf however it is given, and its
                # kappa scale is normalised to 1 whatever the exponent:
                # the same model, so rightly the same address
                continue
            try:
                moved = spec_fingerprint(changed) != base
            except ReproError:
                continue
            assert moved == (part.name != "scheduler"), (part.name, f.name)


# ----------------------------------------------------------------------
# untrusted specs fail typed at their entry
# ----------------------------------------------------------------------
GOOD = """
<Uintah_specification>
  <Grid><resolution>8</resolution><levels>1</levels></Grid>
  <RMCRT><nDivQRays>2</nDivQRays></RMCRT>
  <Spectral><bands>2</bands>{edges}</Spectral>
</Uintah_specification>
"""


@pytest.mark.parametrize("edges,match", [
    ("2 1 3", "must be strictly increasing"),
    ("-1 1 2", "must be non-negative"),
    ("0 1e-9 2e-9", "cover a negligible fraction"),
], ids=["decreasing", "negative", "negligible"])
@pytest.mark.parametrize("entry", ["parse_ups", "spec_from_dict"])
def test_bad_band_edges_fail_at_the_entry(entry, edges, match, monkeypatch):
    """Not inside a spool worker's model build, after the request was
    accepted; and a journaled spec with such edges is not replayed."""

    def no_build(sp):
        raise AssertionError("validation built the spectral model")

    monkeypatch.setattr(ups, "spectral_model", no_build)
    doc = spec_to_dict(parse_ups(GOOD.format(edges="")))
    doc["spectral"]["band_edges_um"] = edges.split()
    check = {
        "parse_ups": lambda: parse_ups(GOOD.format(edges=f"<bandEdges>{edges}</bandEdges>")),
        "spec_from_dict": lambda: spec_from_dict(doc),
    }[entry]
    with pytest.raises(ReproError, match=f"^<Spectral> bandEdges.* {match}"):
        check()


def test_equal_fraction_bands_cost_no_planck_series_at_parse(monkeypatch):
    import repro.radiation.spectral.planck as planck

    def no_series(lambda_t):
        raise AssertionError("a parse without band edges summed the Planck series")

    monkeypatch.setattr(planck, "planck_fraction", no_series)
    assert parse_ups(GOOD.format(edges="")).spectral.band_edges_um == ()
    with pytest.raises(AssertionError, match="summed the Planck series"):
        parse_ups(GOOD.format(edges="<bandEdges>0 2 inf</bandEdges>"))


@pytest.mark.parametrize("bad", [[], "x", {"grid": []}, {"grid": "x"}, {"spectral": 3}],
                         ids=["list", "string", "grid-list", "grid-string", "spectral-int"])
def test_a_non_mapping_journal_entry_is_dropped_and_the_good_one_replayed(tmp_path, bad):
    """A malformed entry is counted and unlinked; it does not abort the
    warm restart that replays the entries beside it."""
    from repro.service import RequestJournal

    registry = MetricsRegistry()
    journal = RequestJournal(tmp_path, metrics=registry)
    good = parse_ups(GOOD.format(edges=""))
    journal.record("ab12", good)
    (tmp_path / "cd34.json").write_text(json.dumps({"fingerprint": "cd34", "spec": bad}))
    assert journal.outstanding() == [good]
    assert registry.value("service.journal.corrupt") == 1
    assert not (tmp_path / "cd34.json").exists()
