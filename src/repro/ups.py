"""Uintah problem specification (UPS) input files.

Uintah simulations are driven by XML "UPS" files; this module accepts
a UPS-like specification for the reproduction's RMCRT benchmark and
scaling studies, so runs are configured the way a Uintah user would
configure them. Supported layout (tags mirror Uintah's RMCRT spec
where one exists)::

    <Uintah_specification>
      <Grid>
        <resolution> 64 </resolution>
        <levels> 2 </levels>
        <refinement_ratio> 4 </refinement_ratio>
        <patch_size> 16 </patch_size>
      </Grid>
      <RMCRT>
        <nDivQRays> 100 </nDivQRays>
        <Threshold> 0.0001 </Threshold>
        <halo> 4 </halo>
        <allowReflect> false </allowReflect>
        <CCRays> false </CCRays>
        <randomSeed> 0 </randomSeed>
      </RMCRT>
      <Spectral>
        <bands> 3 </bands>
        <temperature> 1400 </temperature>
        <kappaExponent> 0.8 </kappaExponent>
        <emissivity> tungsten </emissivity>
      </Spectral>
      <Scheduler type="distributed" ranks="8" pool="waitfree" threads="16"/>
    </Uintah_specification>

The optional ``<Spectral>`` block makes the trace wavelength-sampled
(the solvers' ``spectral`` option, a
:class:`~repro.radiation.spectral.model.SpectralModel`): ``bands``
Planck-sampled wavelength bands at the given reference ``temperature``
(or explicit ``<bandEdges>``, micrometres, ``bands + 1`` increasing
values with ``inf`` allowed), a kappa power law in wavelength, and a
named surface emissivity table.

The schema is declared once, in the spec dataclasses: a class names
its section and each field its tag, converter and rule (:func:`_tag`).
Parsing, :func:`spec_to_ups`, the dict form and the fingerprints all
read that declaration, and a section decides where its values go:
``<Grid>`` into the scene digest, ``<RMCRT>`` into the fingerprint's
parameters, ``<Spectral>`` into the model digest, ``<Scheduler>``
nowhere.

Parsing is strict: unknown tags raise, so typos fail loudly instead of
silently running defaults (a lesson every Uintah user learns once). A
value is converted by its tag's converter, which names the tag when it
cannot read it. Every entry (:func:`parse_ups`, :func:`spec_from_dict`,
:func:`run_ups`) checks the same rules before any solve, each written
once: a single value's in its field's rule; the trace options' in
:class:`~repro.core.kernels.TraceOptions` (rays >= 1, 0 < threshold <
1, halo >= 0, no reflections with a spectral model); the temperature's
and band edges' in :func:`~repro.radiation.spectral.planck.check_banding`,
without building the model; and those tying two sections in
:func:`_validate`.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from collections.abc import Mapping
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from functools import lru_cache
from typing import Any, Callable, ClassVar, NamedTuple, Optional

import numpy as np

from repro.core.distributed import DistributedRMCRT, benchmark_property_init
from repro.core.kernels import TraceOptions
from repro.core.single_level import RMCRTResult
from repro.core.solver import RMCRTSolver
from repro.grid.grid import Grid
from repro.radiation.benchmark import BurnsChristonBenchmark
from repro.radiation.properties import RadiativeProperties
from repro.radiation.spectral.emissivity import MATERIALS
from repro.radiation.spectral.planck import check_banding
from repro.util.errors import ReproError

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False}


class _Converter(NamedTuple):
    """How a tag's text reads into a spec value, and the value writes back."""

    read: Callable[[str], Any]
    write: Callable[[Any], str]
    #: what ``read`` accepts, for the error naming a value it cannot
    expects: str


_INT = _Converter(int, str, "an integer")
_FLOAT = _Converter(float, repr, "a number")
_BOOL = _Converter(
    lambda raw: _BOOL_WORDS[raw.lower()], lambda value: str(value).lower(), "true/false"
)
_WORD = _Converter(str, str, "a word")
_WAVELENGTHS = _Converter(
    lambda raw: tuple(float(tok) for tok in raw.split()),
    lambda edges: " ".join(repr(e) for e in edges),
    "whitespace-separated wavelengths (um, 'inf' allowed)",
)


class _Rule(NamedTuple):
    """What a converted value must be: ``text`` in words, ``holds`` as a test."""

    text: str
    holds: Callable[[Any], bool]
    #: the values allowed, when the rule is a list of them
    choices: tuple = ()


def _at_least(low) -> _Rule:
    return _Rule(f">= {low}", lambda value: value >= low)


def _one_of(*choices) -> _Rule:
    text = ", ".join(map(str, choices[:-1])) + f" or {choices[-1]}"
    return _Rule(text, lambda value: value in choices, choices)


_FINITE = _Rule("finite", math.isfinite)


def _tag(tag: str, conv: _Converter, default, rule: Optional[_Rule] = None):
    """A spec field read from, and written to, the UPS tag (or, in an
    attribute section, the attribute) ``tag``. A field whose default is
    no value (None or empty) is written only when it holds one."""
    return field(default=default, metadata={"tag": tag, "conv": conv, "rule": rule})


class _Section:
    """A UPS section, ``<SECTION>``: a spec dataclass whose fields are
    :func:`_tag` s."""

    #: the values are attributes of one empty element, not child tags
    ATTRIBUTES: ClassVar[bool] = False


@dataclass
class GridSpec(_Section):
    SECTION: ClassVar[str] = "Grid"

    resolution: int = _tag("resolution", _INT, 32, _at_least(2))
    levels: int = _tag("levels", _INT, 2, _one_of(1, 2))
    refinement_ratio: int = _tag("refinement_ratio", _INT, 4, _at_least(1))
    patch_size: Optional[int] = _tag("patch_size", _INT, None)


@dataclass
class RMCRTSpec(_Section):
    SECTION: ClassVar[str] = "RMCRT"

    n_divq_rays: int = _tag("nDivQRays", _INT, 25)
    threshold: float = _tag("Threshold", _FLOAT, 1e-4)
    halo: int = _tag("halo", _INT, 4)
    allow_reflect: bool = _tag("allowReflect", _BOOL, False)
    cc_rays: bool = _tag("CCRays", _BOOL, False)
    random_seed: int = _tag("randomSeed", _INT, 0, _at_least(0))


@dataclass
class SpectralSpec(_Section):
    """The ``<Spectral>`` block: wavelength-sampled transport.

    ``band_edges_um`` is empty for equal-Planck-fraction banding, or
    ``bands + 1`` increasing wavelength edges in micrometres.
    """

    SECTION: ClassVar[str] = "Spectral"

    bands: int = _tag("bands", _INT, 3, _at_least(1))
    band_edges_um: tuple = _tag("bandEdges", _WAVELENGTHS, ())
    temperature: float = _tag("temperature", _FLOAT, 1000.0)
    kappa_exponent: float = _tag("kappaExponent", _FLOAT, 0.0, _FINITE)
    emissivity: str = _tag("emissivity", _WORD, "gray", _one_of("gray", *sorted(MATERIALS)))


@dataclass
class SchedulerSpec(_Section):
    SECTION: ClassVar[str] = "Scheduler"
    ATTRIBUTES: ClassVar[bool] = True

    type: str = _tag("type", _WORD, "serial", _one_of("serial", "threaded", "distributed", "gpu"))
    ranks: int = _tag("ranks", _INT, 1, _at_least(1))
    # legacy-racy demonstrates the Section IV.A race: no solve runs on it
    pool: str = _tag("pool", _WORD, "waitfree", _one_of("waitfree", "locked"))
    threads: int = _tag("threads", _INT, 4, _at_least(1))


def _part(cls, optional: bool = False):
    """A :class:`ProblemSpec` field holding one section, None until the
    section appears when it is ``optional``."""
    if optional:
        return field(default=None, metadata={"cls": cls})
    return field(default_factory=cls, metadata={"cls": cls})


@dataclass
class ProblemSpec:
    """A whole UPS document, its sections in the order they are written."""

    grid: GridSpec = _part(GridSpec)
    rmcrt: RMCRTSpec = _part(RMCRTSpec)
    #: None = gray transport (the classic solvers); set = spectral
    spectral: Optional[SpectralSpec] = _part(SpectralSpec, optional=True)
    scheduler: SchedulerSpec = _part(SchedulerSpec)


#: section element -> (its ProblemSpec field, {tag: its spec field}), for the parse
_LAYOUT = {
    part.metadata["cls"].SECTION: (
        part, {f.metadata["tag"]: f for f in fields(part.metadata["cls"])}
    )
    for part in fields(ProblemSpec)
}


def _where(cls, tag: str) -> str:
    """How an error names ``tag`` of section ``cls``."""
    return f"<{cls.SECTION} {tag}=...>" if cls.ATTRIBUTES else f"<{tag}>"


def parse_ups(source: str) -> ProblemSpec:
    """Parse a UPS document from a string or a file path."""
    try:
        if source.lstrip().startswith("<"):
            root = ET.fromstring(source)
        else:
            root = ET.parse(source).getroot()
    except ET.ParseError as exc:
        raise ReproError(f"malformed UPS XML: {exc}") from exc

    if root.tag != "Uintah_specification":
        raise ReproError(
            f"UPS root must be <Uintah_specification>, got <{root.tag}>"
        )
    spec = ProblemSpec()
    for elem in root:
        if elem.tag not in _LAYOUT:
            raise ReproError(f"unknown UPS section <{elem.tag}>")
        part, tags = _LAYOUT[elem.tag]
        cls = part.metadata["cls"]
        values = getattr(spec, part.name) or cls()  # an optional section is on once it appears
        setattr(spec, part.name, values)
        kind, entries = (
            ("attribute", elem.attrib.items()) if cls.ATTRIBUTES
            else ("tag", [(child.tag, (child.text or "").strip()) for child in elem])
        )
        for tag, raw in entries:
            if tag not in tags:
                raise ReproError(f"unknown <{elem.tag}> {kind} {tag!r}")
            conv = tags[tag].metadata["conv"]
            try:
                setattr(values, tags[tag].name, conv.read(raw))
            except (KeyError, ValueError):
                raise ReproError(
                    f"{_where(cls, tag)} expects {conv.expects}, got {raw!r}"
                ) from None

    _validate(spec)
    return spec


def _trace_options(spec: ProblemSpec, spectral) -> TraceOptions:
    """The solvers' trace options for ``spec``; ``spectral`` is its model."""
    r = spec.rmcrt
    return TraceOptions(
        rays_per_cell=r.n_divq_rays,
        threshold=r.threshold,
        halo=r.halo,
        reflections=r.allow_reflect,
        centered_origins=r.cc_rays,
        spectral=spectral,
    )


def _validate(spec: ProblemSpec) -> None:
    g, s = spec.grid, spec.scheduler
    for values in (g, spec.rmcrt, s):
        _check_rules(values)
    # the <Spectral> block stands in for its model, which is slow to
    # build: the trace options' rules only ask whether there is one
    _trace_options(spec, spec.spectral)
    if spec.spectral is not None:
        _validate_spectral(spec.spectral)
    if s.type != "serial":
        if g.patch_size is None:
            raise ReproError(f"{s.type} runs need a <{g.SECTION}> patch size")
        if g.levels != 2:
            raise ReproError("the RMCRT task pipeline needs a 2-level grid")


def _check_rules(values: _Section) -> None:
    """Refuse the first value of a section that breaks its field's rule."""
    for f in fields(values):
        rule, value = f.metadata["rule"], getattr(values, f.name)
        if rule is not None and not rule.holds(value):
            tag = f.metadata["tag"]
            name = _where(type(values), tag) if values.ATTRIBUTES else tag
            raise ReproError(f"{name} must be {rule.text}, got {value!r}")


def _validate_spectral(sp: SpectralSpec) -> None:
    """The ``<Spectral>`` block's rules, each error naming the block;
    only explicit edges cost the Planck series, and no model is built."""
    edges = SpectralSpec.__dataclass_fields__["band_edges_um"].metadata["tag"]
    try:
        _check_rules(sp)
        if sp.band_edges_um and len(sp.band_edges_um) != sp.bands + 1:
            raise ReproError(
                f"{sp.bands} bands need {sp.bands + 1} {edges}, got {len(sp.band_edges_um)}"
            )
        check_banding(sp.temperature, sp.band_edges_um or None, edges)
    except ReproError as exc:
        raise ReproError(f"<{sp.SECTION}> {exc}") from None


def spectral_model(sp: SpectralSpec):
    """Resolve a :class:`SpectralSpec` into the tracer's model.

    Pure function of the spec fields — journaled spectral specs
    rebuild the identical model (and digest) anywhere.
    """
    from repro.radiation.spectral.model import SpectralModel

    return SpectralModel.build(**{**vars(sp), "band_edges_um": sp.band_edges_um or None})


@dataclass
class PreparedScene:
    """The solve-independent part of a UPS problem: the benchmark
    factory, the built grid, and the finest-level property bundle.

    Preparing a scene is the expensive shared setup of a solve (grid
    decomposition + analytic property evaluation); the service layer's
    micro-batcher prepares one scene and runs every request that shares
    its grid/property fingerprint against it.
    """

    bench: BurnsChristonBenchmark
    grid: Grid
    props: RadiativeProperties


def prepare_scene(spec: ProblemSpec) -> PreparedScene:
    """Build the grid and properties a spec's solve will run against."""
    bench = BurnsChristonBenchmark(resolution=spec.grid.resolution)
    if spec.grid.levels == 1:
        grid = bench.single_level_grid(patch_size=spec.grid.patch_size)
    else:
        grid = bench.two_level_grid(
            refinement_ratio=spec.grid.refinement_ratio,
            fine_patch_size=spec.grid.patch_size,
        )
    return PreparedScene(bench, grid, bench.properties_for_level(grid.finest_level))


def run_prepared(spec: ProblemSpec, scene: PreparedScene) -> RMCRTResult:
    """Run a spec against an already-prepared scene.

    Results are bit-identical to :func:`run_ups` on the same spec — the
    same grid construction and solver calls, only with the scene build
    hoisted out so it can be shared across a batch.
    """
    spectral = None if spec.spectral is None else spectral_model(spec.spectral)
    options = vars(_trace_options(spec, spectral))
    seed = spec.rmcrt.random_seed
    # the 3-task pipeline for threaded/distributed/gpu runs, the direct
    # solvers for serial ones: one trace, the same bytes
    if spec.scheduler.type != "serial":
        drm = DistributedRMCRT(
            scene.grid, benchmark_property_init(scene.bench), seed=seed, **options
        )
        return drm.solve(
            spec.scheduler.type,
            num_ranks=spec.scheduler.ranks,
            num_threads=spec.scheduler.threads,
            pool_kind=spec.scheduler.pool,
        )
    return RMCRTSolver(seed=seed, **options).solve(scene.grid, scene.props)


def run_ups(spec: ProblemSpec) -> RMCRTResult:
    """Build and run the specified Burns & Christon problem, validated
    as :func:`parse_ups` validates a document."""
    _validate(spec)
    return run_prepared(spec, prepare_scene(spec))


# ----------------------------------------------------------------------
# scene / spec fingerprints
# ----------------------------------------------------------------------
# The service layer treats solves as content-addressed: two requests
# with the same fingerprint are the same solve. The *scene* fingerprint
# covers what the rays march through (grid geometry + the actual
# property arrays); the *spec* fingerprint adds the RMCRT sampling
# parameters and seed. Scheduler choice is deliberately excluded — the
# pipeline reproduces the direct solvers bit-for-bit on every scheduler
# (pinned by tests/test_distributed_rmcrt.py), so a cached result
# serves requests regardless of how they would have been executed.


@lru_cache(maxsize=64)
def _scene_digest(grid: tuple, spectral_digest: Optional[str]) -> str:
    g = GridSpec(*grid)
    scene = prepare_scene(ProblemSpec(grid=g))
    h = hashlib.sha256()
    # the spectral model reshapes the per-band marching fields, so
    # spectral scenes are distinct from the gray scene built from the
    # same grid, and from each other
    h.update(json.dumps({**asdict(g), "spectral": spectral_digest}, sort_keys=True).encode())
    for name in ("abskg", "sigma_t4", "cell_type"):
        arr = np.ascontiguousarray(getattr(scene.props, name))
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@lru_cache(maxsize=64)
def _spectral_model_digest(spectral: tuple) -> str:
    return spectral_model(SpectralSpec(*spectral)).digest()


def _spectral_digest(spec: ProblemSpec) -> Optional[str]:
    sp = spec.spectral
    if sp is None:
        return None
    # a hashable key, however the edges were given
    return _spectral_model_digest(astuple(replace(sp, band_edges_um=tuple(sp.band_edges_um))))


def scene_fingerprint(spec: ProblemSpec) -> str:
    """Digest of the grid geometry and property fields (batching key)."""
    return _scene_digest(astuple(spec.grid), _spectral_digest(spec))


def spec_to_dict(spec: ProblemSpec) -> dict:
    """A JSON-able round-trippable form of a spec (request journaling)."""
    doc = {name: values for name, values in asdict(spec).items() if values is not None}
    if spec.spectral is not None:
        # JSON has no Infinity; band edges travel as repr strings
        doc["spectral"]["band_edges_um"] = [repr(e) for e in spec.spectral.band_edges_um]
    return doc


def spec_from_dict(doc: dict) -> ProblemSpec:
    """Inverse of :func:`spec_to_dict`, with the same validation as
    :func:`parse_ups` (a journaled spec is untrusted input: the file
    may have been truncated or edited)."""
    spec = ProblemSpec()
    try:
        if not isinstance(doc, Mapping):
            raise TypeError(f"a {type(doc).__name__}, not a mapping")
        for part in fields(ProblemSpec):
            optional = part.default is None
            values = doc.get(part.name, None if optional else {})
            if values is None and optional:
                continue  # an optional section left out
            if "band_edges_um" in values:
                edges = tuple(float(e) for e in values["band_edges_um"])
                values = {**values, "band_edges_um": edges}
            setattr(spec, part.name, part.metadata["cls"](**values))
    except (TypeError, ValueError) as exc:
        raise ReproError(f"malformed spec document: {exc}") from None
    # through the UPS text, so every value meets the converter and the
    # rules its tag meets in a file
    return parse_ups(spec_to_ups(spec))


def _written(values: _Section):
    """(tag, text) for each value of a section, as :func:`spec_to_ups`
    writes them: a field whose default is no value is left out while it
    holds that default (a serial grid's patch size, equal-fraction bands)."""
    for f in fields(values):
        value = getattr(values, f.name)
        if not (f.default in (None, ()) and value == f.default):
            yield f.metadata["tag"], f.metadata["conv"].write(value)


def spec_to_ups(spec: ProblemSpec) -> str:
    """Emit a spec as UPS XML that :func:`parse_ups` round-trips.

    The fabric layer uses this to materialize journaled or
    programmatically-built specs back into spool request files — the
    wire format of the file-spool transport is UPS text, so anything
    that re-homes or regenerates requests needs the inverse of
    :func:`parse_ups`.
    """
    lines = ["<Uintah_specification>"]
    for part in fields(ProblemSpec):
        values = getattr(spec, part.name)
        if values is None:
            continue
        name = values.SECTION
        if values.ATTRIBUTES:
            attrs = " ".join(f'{tag}="{text}"' for tag, text in _written(values))
            lines.append(f"  <{name} {attrs}/>")
        else:
            lines.append(f"  <{name}>")
            lines += [f"    <{tag}> {text} </{tag}>" for tag, text in _written(values)]
            lines.append(f"  </{name}>")
    lines.append("</Uintah_specification>")
    return "\n".join(lines) + "\n"


def spec_fingerprint(spec: ProblemSpec) -> str:
    """Full content address of a solve: scene + RMCRT params + seed.

    Spectral specs carry a ``spectral`` key (the model digest) that
    gray specs never have — so even the gray-*limit* spectral spec,
    whose answer is bit-identical to the gray solve, addresses a
    distinct cache entry: the identity is an invariant we test, not an
    equivalence we assume.
    """
    r = spec.rmcrt
    params = {}
    for f in fields(r):  # each <RMCRT> value by its tag, a float by its repr
        value = getattr(r, f.name)
        params[f.metadata["tag"]] = repr(value) if f.metadata["conv"] is _FLOAT else value
    sd = _spectral_digest(spec)
    if sd is not None:
        params["spectral"] = sd
    h = hashlib.sha256()
    h.update(scene_fingerprint(spec).encode())
    h.update(json.dumps(params, sort_keys=True).encode())
    return h.hexdigest()
