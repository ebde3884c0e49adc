"""Surface-to-surface enclosure radiation: view factors + radiosity.

The optically-thin counterpart of the volume tracer: when the medium
between surfaces is transparent, radiative exchange is governed purely
by geometry (the view-factor matrix ``F``) and surface properties
(band emissivities). The machinery here:

* :func:`view_factor_matrix` — Monte Carlo view factors for the six
  faces of a rectangular box enclosure: uniform points on each face,
  the trace's cosine-weighted directions
  (:func:`repro.core.rays.cosine_hemisphere_directions`), exit-face
  counting. Drawn from seeded named streams
  (``streams.named("viewfactor", face)``) so the matrix is
  reproducible per seed.
* :func:`enforce_constraints` — projects the raw MC matrix onto the
  exact constraint set (reciprocity ``A_i F_ij = A_j F_ji`` and unit
  row sums) by alternating symmetrization and row normalisation; both
  then hold to round-off, which is what makes the radiosity solve
  conserve energy to round-off too.
* :func:`radiosity_solve` — the banded radiosity system
  ``(I - (1-eps_b) F) J_b = eps_b Eb_b`` per wavelength band, with
  band emissive powers from the Planck fraction function at each
  surface's own temperature.
* :class:`EnclosureScenario` — the packaged hot-wall box case.

The analytic oracle is :func:`parallel_plates_view_factor`, the
classical coaxial-rectangles formula (for the unit cube, opposite
faces see each other with F = 0.19982...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.rays import cosine_hemisphere_directions
from repro.perf.metrics import get_metrics
from repro.perf.tracer import get_tracer
from repro.radiation.constants import SIGMA_SB
from repro.radiation.spectral.model import SpectralModel
from repro.radiation.spectral.planck import planck_fraction
from repro.util.errors import ReproError
from repro.util.rng import RandomStreams

#: face index convention: 2*axis + side, side 0 at coordinate 0,
#: side 1 at coordinate L_axis
NFACES = 6


def face_areas(dims: Sequence[float]) -> np.ndarray:
    """(6,) face areas of an ``lx x ly x lz`` box, in face order."""
    lx, ly, lz = (float(d) for d in dims)
    per_axis = (ly * lz, lx * lz, lx * ly)
    return np.array([per_axis[f // 2] for f in range(NFACES)])


def parallel_plates_view_factor(a: float, b: float, c: float) -> float:
    """Analytic view factor between coaxial parallel ``a x b``
    rectangles separated by ``c`` (Modest, *Radiative Heat Transfer*,
    config 38). For the unit cube this is 0.1998...: the oracle the
    Monte Carlo matrix is validated against."""
    x, y = a / c, b / c
    x2, y2 = x * x, y * y
    rx, ry = math.sqrt(1.0 + x2), math.sqrt(1.0 + y2)
    term = (
        0.5 * math.log((1.0 + x2) * (1.0 + y2) / (1.0 + x2 + y2))
        + x * ry * math.atan(x / ry)
        + y * rx * math.atan(y / rx)
        - x * math.atan(x)
        - y * math.atan(y)
    )
    return 2.0 / (math.pi * x * y) * term


def _sample_face(
    rng: np.random.Generator, dims: Sequence[float], face: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(points, directions) for ``n`` cosine-weighted rays leaving a
    face: points uniform over the face, directions the trace's
    cosine-weighted draw about the inward normal (the diffuse-surface
    emission law)."""
    axis, side = face // 2, face % 2
    pts = np.empty((n, 3))
    pts[:, axis] = float(dims[axis]) if side else 0.0
    for k in range(3):
        if k != axis:
            pts[:, k] = rng.random(n) * float(dims[k])
    return pts, cosine_hemisphere_directions(rng, n, axis, side)


def _exit_faces(
    pts: np.ndarray, dirs: np.ndarray, dims: Sequence[float]
) -> np.ndarray:
    """The face each interior ray exits through — nearest boundary
    plane along the direction (the box is convex, so exactly one)."""
    n = pts.shape[0]
    t = np.full((n, 3), np.inf)
    for k in range(3):
        d = dirs[:, k]
        fwd = d > 0.0
        bwd = d < 0.0
        t[fwd, k] = (float(dims[k]) - pts[fwd, k]) / d[fwd]
        t[bwd, k] = -pts[bwd, k] / d[bwd]
    hit_axis = np.argmin(t, axis=1)
    hit_side = (dirs[np.arange(n), hit_axis] > 0.0).astype(np.int64)
    return 2 * hit_axis + hit_side


def view_factor_matrix(
    dims: Sequence[float],
    samples_per_face: int = 20000,
    streams: Optional[RandomStreams] = None,
    seed: int = 0,
) -> np.ndarray:
    """Raw Monte Carlo view-factor matrix (6, 6) for a box enclosure.

    Rows sum to 1 exactly (every ray exits somewhere); reciprocity
    holds only to MC accuracy — run :func:`enforce_constraints` before
    a radiosity solve.
    """
    if samples_per_face < 1:
        raise ReproError(f"need >= 1 sample per face, got {samples_per_face}")
    if len(dims) != 3 or any(float(d) <= 0.0 for d in dims):
        raise ReproError(f"enclosure dims must be 3 positive lengths: {dims}")
    if streams is None:
        streams = RandomStreams(seed)
    metrics = get_metrics()
    f = np.zeros((NFACES, NFACES))
    with get_tracer().span(
        "viewfactor_mc", cat="spectral", samples=samples_per_face
    ):
        for face in range(NFACES):
            rng = streams.named("viewfactor", face)
            pts, dirs = _sample_face(rng, dims, face, samples_per_face)
            hits = _exit_faces(pts, dirs, dims)
            f[face] = np.bincount(hits, minlength=NFACES) / samples_per_face
    metrics.counter("spectral.viewfactor.rays").inc(NFACES * samples_per_face)
    return f


def enforce_constraints(
    f: np.ndarray, areas: np.ndarray, iterations: int = 64
) -> np.ndarray:
    """Project a raw MC view-factor matrix onto the constraint set.

    Alternates reciprocity symmetrization of the exchange areas
    ``S_ij = A_i F_ij`` with row normalisation; for a matrix already
    within MC noise of feasible this converges to round-off in a
    handful of sweeps. The last operation is symmetrization, so
    reciprocity is exact and row sums are exact to ~1e-15 — tight
    enough that radiosity energy balance closes to round-off.
    """
    if f.shape != (areas.size, areas.size):
        raise ReproError(f"view factor shape {f.shape} != ({areas.size},) squared")
    g = f.copy()
    for _ in range(iterations):
        g = g / g.sum(axis=1, keepdims=True)
        s = areas[:, None] * g
        s = 0.5 * (s + s.T)
        g = s / areas[:, None]
    return g


def band_emissive_power(
    model: SpectralModel, temperatures: np.ndarray
) -> np.ndarray:
    """(nfaces, nbands) band emissive powers ``f_b(T_i) * sigma T_i^4``.

    Band fractions use the Planck fraction function at each surface's
    *own* temperature (not the table's reference temperature) — a hot
    face emits with its own spectrum.
    """
    t = np.asarray(temperatures, dtype=np.float64)
    edges = np.asarray(model.table.edges_um)
    fr = planck_fraction(edges[None, :] * t[:, None])  # (nfaces, nbands+1)
    fractions = np.diff(fr, axis=1)
    return fractions * (SIGMA_SB * t[:, None] ** 4)


def radiosity_solve(
    f: np.ndarray, eps: np.ndarray, emissive: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the banded radiosity system.

    ``f`` is the constrained view-factor matrix (nfaces, nfaces),
    ``eps`` band emissivities (nfaces, nbands), ``emissive`` band
    emissive powers (nfaces, nbands). Returns ``(J, q)`` — radiosity
    and net heat flux per face per band — from

        (I - (1 - eps_b) F) J_b = eps_b Eb_b,     q_b = J_b - F J_b.
    """
    nfaces, nbands = eps.shape
    if f.shape != (nfaces, nfaces) or emissive.shape != (nfaces, nbands):
        raise ReproError("radiosity inputs disagree on face/band counts")
    j = np.empty((nfaces, nbands))
    identity = np.eye(nfaces)
    for b in range(nbands):
        a = identity - (1.0 - eps[:, b])[:, None] * f
        j[:, b] = np.linalg.solve(a, eps[:, b] * emissive[:, b])
    q = j - f @ j
    return j, q


@dataclass
class EnclosureResult:
    """One enclosure solve: geometry factors and per-face energetics."""

    view_factors: np.ndarray      #: (6, 6) constrained matrix
    areas: np.ndarray             #: (6,) face areas
    radiosity: np.ndarray         #: (6, nbands) J
    band_flux: np.ndarray         #: (6, nbands) q per band
    flux: np.ndarray              #: (6,) net flux, bands summed
    face_power: np.ndarray        #: (6,) A_i * q_i
    rays_traced: int

    @property
    def energy_balance(self) -> float:
        """Net power out of the enclosure — zero for exact view
        factors; the residual measures constraint quality."""
        return float(self.face_power.sum())


@dataclass
class EnclosureScenario:
    """A box enclosure with per-face temperatures and spectral walls.

    The view-factor scenario of the spectral subsystem: no volume
    tracing at all, exchange is surface-to-surface through the model's
    band structure and emissivity table. ``face_temperatures`` follows
    the face order (x-, x+, y-, y+, z-, z+).
    """

    dims: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    face_temperatures: Tuple[float, ...] = (
        1500.0, 300.0, 900.0, 900.0, 900.0, 900.0,
    )
    model: SpectralModel = field(default_factory=SpectralModel.gray_limit)
    samples_per_face: int = 20000
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.face_temperatures) != NFACES:
            raise ReproError(
                f"need {NFACES} face temperatures, got {len(self.face_temperatures)}"
            )
        if any(t < 0.0 for t in self.face_temperatures):
            raise ReproError("face temperatures must be non-negative")

    def solve(self, streams: Optional[RandomStreams] = None) -> EnclosureResult:
        areas = face_areas(self.dims)
        raw = view_factor_matrix(
            self.dims, self.samples_per_face, streams=streams, seed=self.seed
        )
        f = enforce_constraints(raw, areas)
        temps = np.asarray(self.face_temperatures)
        eps = np.stack(
            [
                self.model.emissivity.band_values(b, temps)
                for b in range(self.model.nbands)
            ],
            axis=1,
        )
        emissive = band_emissive_power(self.model, temps)
        j, q_band = radiosity_solve(f, eps, emissive)
        flux = q_band.sum(axis=1)
        get_metrics().counter("spectral.enclosure.solves").inc()
        return EnclosureResult(
            view_factors=f,
            areas=areas,
            radiosity=j,
            band_flux=q_band,
            flux=flux,
            face_power=areas * flux,
            rays_traced=NFACES * self.samples_per_face,
        )
