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

Parsing is strict: unknown tags raise, so typos fail loudly instead of
silently running defaults (a lesson every Uintah user learns once). A
value is converted by its tag's converter, which names the tag when it
cannot read it. Every entry (:func:`parse_ups`, :func:`spec_from_dict`,
:func:`run_ups`) checks the same rules before any solve, each where it
is written once: the ``<RMCRT>`` block's trace options in
:class:`~repro.core.kernels.TraceOptions`, which every solver builds
from its keywords (rays >= 1, 0 < threshold < 1, halo >= 0, no
reflections with a spectral model); the grid, the seed and the
scheduler in :func:`_validate`; the ``<Spectral>`` block in
:func:`_validate_spectral`, without building its model.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.core.distributed import DistributedRMCRT, benchmark_property_init
from repro.core.kernels import TraceOptions
from repro.core.single_level import RMCRTResult
from repro.core.solver import RMCRTSolver
from repro.grid.grid import Grid
from repro.radiation.benchmark import BurnsChristonBenchmark
from repro.radiation.properties import RadiativeProperties
from repro.util.errors import ReproError

_BOOL = {"true": True, "false": False, "1": True, "0": False}


@dataclass
class GridSpec:
    resolution: int = 32
    levels: int = 2
    refinement_ratio: int = 4
    patch_size: Optional[int] = None


@dataclass
class RMCRTSpec:
    n_divq_rays: int = 25
    threshold: float = 1e-4
    halo: int = 4
    allow_reflect: bool = False
    cc_rays: bool = False
    random_seed: int = 0


@dataclass
class SchedulerSpec:
    type: str = "serial"
    ranks: int = 1
    pool: str = "waitfree"
    threads: int = 4


@dataclass
class SpectralSpec:
    """The ``<Spectral>`` block: wavelength-sampled transport.

    ``band_edges_um`` is empty for equal-Planck-fraction banding, or
    ``bands + 1`` increasing wavelength edges in micrometres.
    """

    bands: int = 3
    band_edges_um: tuple = ()
    temperature: float = 1000.0
    kappa_exponent: float = 0.0
    emissivity: str = "gray"


@dataclass
class ProblemSpec:
    grid: GridSpec = field(default_factory=GridSpec)
    rmcrt: RMCRTSpec = field(default_factory=RMCRTSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    #: None = gray transport (the classic solvers); set = spectral
    spectral: Optional[SpectralSpec] = None


def _text(elem: ET.Element) -> str:
    return (elem.text or "").strip()


def _bool(raw: str) -> bool:
    return _BOOL[raw.lower()]


def _band_edges(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split())


#: what each converter reads, for the error naming a value it cannot
_EXPECTS = {
    int: "an integer",
    float: "a number",
    _bool: "true/false",
    _band_edges: "whitespace-separated wavelengths (um, 'inf' allowed)",
}


def _convert(conv, raw: str, where: str):
    """``conv(raw)``, or a ReproError naming the tag or attribute."""
    try:
        return conv(raw)
    except (KeyError, ValueError):
        raise ReproError(f"{where} expects {_EXPECTS[conv]}, got {raw!r}") from None


#: UPS section -> (ProblemSpec attribute, {tag: (attribute, converter)})
_SECTIONS = {
    "Grid": ("grid", {
        "resolution": ("resolution", int),
        "levels": ("levels", int),
        "refinement_ratio": ("refinement_ratio", int),
        "patch_size": ("patch_size", int),
    }),
    "RMCRT": ("rmcrt", {
        "nDivQRays": ("n_divq_rays", int),
        "Threshold": ("threshold", float),
        "halo": ("halo", int),
        "allowReflect": ("allow_reflect", _bool),
        "CCRays": ("cc_rays", _bool),
        "randomSeed": ("random_seed", int),
    }),
    "Spectral": ("spectral", {
        "bands": ("bands", int),
        "bandEdges": ("band_edges_um", _band_edges),
        "temperature": ("temperature", float),
        "kappaExponent": ("kappa_exponent", float),
        "emissivity": ("emissivity", str),
    }),
}
#: <Scheduler> attribute -> converter
_SCHEDULER_ATTRS = {"type": str, "ranks": int, "pool": str, "threads": int}


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
    for section in root:
        if section.tag in _SECTIONS:
            name, tags = _SECTIONS[section.tag]
            if section.tag == "Spectral":
                spec.spectral = SpectralSpec()
            target = getattr(spec, name)
            for child in section:
                if child.tag not in tags:
                    raise ReproError(f"unknown <{section.tag}> tag <{child.tag}>")
                attr, conv = tags[child.tag]
                setattr(target, attr, _convert(conv, _text(child), f"<{child.tag}>"))
        elif section.tag == "Scheduler":
            unknown = set(section.attrib) - set(_SCHEDULER_ATTRS)
            if unknown:
                raise ReproError(f"unknown <Scheduler> attributes {sorted(unknown)}")
            for attr, raw in section.attrib.items():
                where = f"<Scheduler {attr}=...>"
                setattr(spec.scheduler, attr, _convert(_SCHEDULER_ATTRS[attr], raw, where))
        else:
            raise ReproError(f"unknown UPS section <{section.tag}>")

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
    g, r, s = spec.grid, spec.rmcrt, spec.scheduler
    if g.levels not in (1, 2):
        raise ReproError(f"levels must be 1 or 2, got {g.levels}")
    if g.resolution < 2:
        raise ReproError(f"resolution must be >= 2, got {g.resolution}")
    if g.refinement_ratio < 1:
        raise ReproError(f"refinement_ratio must be >= 1, got {g.refinement_ratio}")
    if r.random_seed < 0:
        raise ReproError(f"randomSeed must be >= 0, got {r.random_seed}")
    # the <Spectral> block stands in for its model, which is slow to
    # build: the trace options' rules only ask whether there is one
    _trace_options(spec, spec.spectral)
    if s.type not in ("serial", "threaded", "distributed", "gpu"):
        raise ReproError(f"unknown scheduler type {s.type!r}")
    for attr in ("ranks", "threads"):
        if getattr(s, attr) < 1:
            raise ReproError(
                f"<Scheduler {attr}=...> must be >= 1, got {getattr(s, attr)}"
            )
    # legacy-racy demonstrates the Section IV.A race: no solve runs on it
    if s.pool not in ("waitfree", "locked"):
        raise ReproError(
            f"<Scheduler pool=...> must be waitfree or locked, got {s.pool!r}"
        )
    if spec.spectral is not None:
        _validate_spectral(spec.spectral)
    if s.type != "serial":
        if g.patch_size is None:
            raise ReproError(f"{s.type} runs need <patch_size>")
        if g.levels != 2:
            raise ReproError("the RMCRT task pipeline needs a 2-level grid")


def _validate_spectral(sp: SpectralSpec) -> None:
    from repro.radiation.spectral.emissivity import MATERIALS

    if sp.bands < 1:
        raise ReproError(f"<Spectral> bands must be >= 1, got {sp.bands}")
    if not 0.0 < sp.temperature < math.inf:
        raise ReproError(
            f"<Spectral> temperature must be positive and finite, got {sp.temperature}"
        )
    if not math.isfinite(sp.kappa_exponent):
        raise ReproError(
            f"<Spectral> kappaExponent must be finite, got {sp.kappa_exponent}"
        )
    if any(math.isnan(e) for e in sp.band_edges_um):
        raise ReproError(
            f"<Spectral> bandEdges must be numbers, got {sp.band_edges_um}"
        )
    if sp.band_edges_um and len(sp.band_edges_um) != sp.bands + 1:
        raise ReproError(
            f"{sp.bands} spectral bands need {sp.bands + 1} band edges, "
            f"got {len(sp.band_edges_um)}"
        )
    known = {"gray"} | set(MATERIALS)
    if sp.emissivity not in known:
        raise ReproError(
            f"unknown <Spectral> emissivity {sp.emissivity!r}; "
            f"known: {', '.join(sorted(known))}"
        )


def spectral_model(sp: SpectralSpec):
    """Resolve a :class:`SpectralSpec` into the tracer's model.

    Pure function of the spec fields — journaled spectral specs
    rebuild the identical model (and digest) anywhere.
    """
    from repro.radiation.spectral.model import SpectralModel

    return SpectralModel.build(
        bands=sp.bands,
        temperature=sp.temperature,
        band_edges_um=sp.band_edges_um or None,
        kappa_exponent=sp.kappa_exponent,
        emissivity=sp.emissivity,
    )


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
def _scene_digest(
    resolution: int,
    levels: int,
    refinement_ratio: int,
    patch_size: Optional[int],
    spectral_digest: Optional[str] = None,
) -> str:
    spec = ProblemSpec(
        grid=GridSpec(
            resolution=resolution,
            levels=levels,
            refinement_ratio=refinement_ratio,
            patch_size=patch_size,
        )
    )
    scene = prepare_scene(spec)
    h = hashlib.sha256()
    h.update(
        json.dumps(
            {
                "resolution": resolution,
                "levels": levels,
                "refinement_ratio": refinement_ratio,
                "patch_size": patch_size,
                # the spectral model reshapes the per-band marching
                # fields, so spectral scenes are distinct from the gray
                # scene built from the same grid — and from each other
                "spectral": spectral_digest,
            },
            sort_keys=True,
        ).encode()
    )
    for name in ("abskg", "sigma_t4", "cell_type"):
        arr = np.ascontiguousarray(getattr(scene.props, name))
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@lru_cache(maxsize=64)
def _spectral_model_digest(
    bands: int,
    band_edges_um: tuple,
    temperature: float,
    kappa_exponent: float,
    emissivity: str,
) -> str:
    return spectral_model(
        SpectralSpec(
            bands=bands,
            band_edges_um=band_edges_um,
            temperature=temperature,
            kappa_exponent=kappa_exponent,
            emissivity=emissivity,
        )
    ).digest()


def _spectral_digest(spec: ProblemSpec) -> Optional[str]:
    sp = spec.spectral
    if sp is None:
        return None
    return _spectral_model_digest(
        sp.bands,
        tuple(sp.band_edges_um),
        sp.temperature,
        sp.kappa_exponent,
        sp.emissivity,
    )


def scene_fingerprint(spec: ProblemSpec) -> str:
    """Digest of the grid geometry and property fields (batching key)."""
    g = spec.grid
    return _scene_digest(
        g.resolution, g.levels, g.refinement_ratio, g.patch_size,
        _spectral_digest(spec),
    )


def spec_to_dict(spec: ProblemSpec) -> dict:
    """A JSON-able round-trippable form of a spec (request journaling)."""
    doc = {
        "grid": asdict(spec.grid),
        "rmcrt": asdict(spec.rmcrt),
        "scheduler": asdict(spec.scheduler),
    }
    if spec.spectral is not None:
        sp = asdict(spec.spectral)
        # JSON has no Infinity; band edges travel as repr strings
        sp["band_edges_um"] = [repr(e) for e in spec.spectral.band_edges_um]
        doc["spectral"] = sp
    return doc


def spec_from_dict(doc: dict) -> ProblemSpec:
    """Inverse of :func:`spec_to_dict`, with the same validation as
    :func:`parse_ups` (a journaled spec is untrusted input: the file
    may have been truncated or edited)."""
    try:
        spectral = None
        if doc.get("spectral") is not None:
            sp = dict(doc["spectral"])
            sp["band_edges_um"] = tuple(
                float(e) for e in sp.get("band_edges_um", ())
            )
            spectral = SpectralSpec(**sp)
        spec = ProblemSpec(
            grid=GridSpec(**doc.get("grid", {})),
            rmcrt=RMCRTSpec(**doc.get("rmcrt", {})),
            scheduler=SchedulerSpec(**doc.get("scheduler", {})),
            spectral=spectral,
        )
    except (TypeError, ValueError) as exc:
        raise ReproError(f"malformed spec document: {exc}") from None
    # through the UPS text, so every value meets the converter and the
    # rules its tag meets in a file
    return parse_ups(spec_to_ups(spec))


def spec_to_ups(spec: ProblemSpec) -> str:
    """Emit a spec as UPS XML that :func:`parse_ups` round-trips.

    The fabric layer uses this to materialize journaled or
    programmatically-built specs back into spool request files — the
    wire format of the file-spool transport is UPS text, so anything
    that re-homes or regenerates requests needs the inverse of
    :func:`parse_ups`.
    """
    g, r, s = spec.grid, spec.rmcrt, spec.scheduler
    lines = ["<Uintah_specification>", "  <Grid>"]
    lines.append(f"    <resolution> {g.resolution} </resolution>")
    lines.append(f"    <levels> {g.levels} </levels>")
    lines.append(f"    <refinement_ratio> {g.refinement_ratio} </refinement_ratio>")
    if g.patch_size is not None:
        lines.append(f"    <patch_size> {g.patch_size} </patch_size>")
    lines.append("  </Grid>")
    lines.append("  <RMCRT>")
    lines.append(f"    <nDivQRays> {r.n_divq_rays} </nDivQRays>")
    lines.append(f"    <Threshold> {r.threshold!r} </Threshold>")
    lines.append(f"    <halo> {r.halo} </halo>")
    lines.append(f"    <allowReflect> {str(r.allow_reflect).lower()} </allowReflect>")
    lines.append(f"    <CCRays> {str(r.cc_rays).lower()} </CCRays>")
    lines.append(f"    <randomSeed> {r.random_seed} </randomSeed>")
    lines.append("  </RMCRT>")
    if spec.spectral is not None:
        sp = spec.spectral
        lines.append("  <Spectral>")
        lines.append(f"    <bands> {sp.bands} </bands>")
        if sp.band_edges_um:
            edges = " ".join(repr(e) for e in sp.band_edges_um)
            lines.append(f"    <bandEdges> {edges} </bandEdges>")
        lines.append(f"    <temperature> {sp.temperature!r} </temperature>")
        lines.append(
            f"    <kappaExponent> {sp.kappa_exponent!r} </kappaExponent>"
        )
        lines.append(f"    <emissivity> {sp.emissivity} </emissivity>")
        lines.append("  </Spectral>")
    lines.append(
        f'  <Scheduler type="{s.type}" ranks="{s.ranks}" '
        f'pool="{s.pool}" threads="{s.threads}"/>'
    )
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
    params = {
        "nDivQRays": r.n_divq_rays,
        "Threshold": repr(r.threshold),
        "halo": r.halo,
        "allowReflect": r.allow_reflect,
        "CCRays": r.cc_rays,
        "randomSeed": r.random_seed,
    }
    sd = _spectral_digest(spec)
    if sd is not None:
        params["spectral"] = sd
    h = hashlib.sha256()
    h.update(scene_fingerprint(spec).encode())
    h.update(json.dumps(params, sort_keys=True).encode())
    return h.hexdigest()
