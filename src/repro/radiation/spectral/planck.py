"""Planck-distribution wavelength sampling.

Spectral RMCRT assigns every ray a wavelength band drawn from the
Planck (black-body) distribution at the medium temperature — rays then
march with that band's absorption coefficient and surface emissivity.
The machinery here is the banded Planck table:

* :func:`planck_fraction` — the black-body fraction function
  ``F(0 -> lambda*T)``, the fraction of total emissive power below a
  wavelength, via the standard converging series;
* :class:`PlanckTable` — band edges, per-band emission weights at a
  reference temperature, and inverse-CDF band sampling driven by a
  seeded generator (see :mod:`repro.util.rng`);
* :func:`default_band_edges` — equal-Planck-fraction edges, the
  sensible default when a spec names only a band count;
* :func:`check_banding` — the rules a reference temperature and
  explicit edges must meet, written once for the table and for a
  spec's parse.

Everything is pure NumPy and deterministic: the same (table, stream)
pair always yields the same band sequence, which is what lets spectral
campaigns checkpoint and resume bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import ReproError

#: second radiation constant h*c/k_B in micrometre-kelvin
C2_UM_K = 14387.768775039337

#: Wien displacement constant in micrometre-kelvin (peak of Planck curve)
WIEN_UM_K = 2897.771955

#: series terms for the fraction function; the series converges like
#: exp(-n*xi)/n^4 so 100 terms is exact to double precision for any
#: lambda*T of practical interest
_SERIES_TERMS = 100


def planck_fraction(lambda_t) -> np.ndarray:
    """Black-body fraction function F(0 -> lambda*T).

    ``lambda_t`` is wavelength times temperature in um*K (scalar or
    array). Returns the fraction of total black-body emissive power at
    wavelengths below lambda, computed with the classical series

        F = (15/pi^4) sum_n exp(-n xi)/n * (xi^3 + 3 xi^2/n
                                            + 6 xi/n^2 + 6/n^3)

    where xi = C2/(lambda*T). F(0) = 0, F(inf) = 1, monotone.
    """
    lt = np.asarray(lambda_t, dtype=np.float64)
    out = np.zeros(lt.shape if lt.ndim else (1,))
    flat_lt = np.atleast_1d(lt)
    positive = flat_lt > 0.0
    infinite = np.isinf(flat_lt)
    finite = positive & ~infinite
    if np.any(finite):
        xi = C2_UM_K / flat_lt[finite]
        total = np.zeros_like(xi)
        for n in range(1, _SERIES_TERMS + 1):
            total += (
                np.exp(-n * xi)
                / n
                * (xi ** 3 + 3.0 * xi ** 2 / n + 6.0 * xi / n ** 2 + 6.0 / n ** 3)
            )
        out[finite] = (15.0 / math.pi ** 4) * total
    out[infinite] = 1.0
    np.clip(out, 0.0, 1.0, out=out)
    return out if lt.ndim else float(out[0])


def fraction_inverse(fraction: float, temperature: float) -> float:
    """Wavelength (um) below which ``fraction`` of the black-body power
    at ``temperature`` is emitted — the inverse of
    :func:`planck_fraction`, by bisection."""
    if not 0.0 < fraction < 1.0:
        raise ReproError(f"fraction must be in (0, 1), got {fraction}")
    if temperature <= 0.0:
        raise ReproError(f"temperature must be positive, got {temperature}")
    lo, hi = 1e-3, 1e6 / temperature  # lambda*T from 1e-3*T to 1e6 um*K
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # adjacent doubles: every later step would repeat this one
        lo, hi = (mid, hi) if planck_fraction(mid * temperature) < fraction else (lo, mid)
    return 0.5 * (lo + hi)


def default_band_edges(nbands: int, temperature: float) -> Tuple[float, ...]:
    """Equal-Planck-fraction band edges (um) at ``temperature``.

    Every band carries the same emission weight 1/nbands — the default
    banding when a spec gives only a band count. Edges run 0 to inf so
    the table covers the whole spectrum.
    """
    if nbands < 1:
        raise ReproError(f"need at least one band, got {nbands}")
    interior = [
        fraction_inverse(k / nbands, temperature) for k in range(1, nbands)
    ]
    return tuple([0.0] + interior + [math.inf])


def check_banding(
    temperature: float, edges_um: Optional[Sequence[float]] = None, name: str = "band edges"
) -> Optional[np.ndarray]:
    """Check a banding's reference temperature and, when given, its
    explicit wavelength edges (um); return each band's raw Planck
    fraction, or None without edges.

    The temperature must be positive and finite. Edges must be at least
    two numbers, non-negative and strictly increasing (the last may be
    inf), and must cover a non-negligible fraction of the spectrum at
    that temperature. Only edges pay for the fraction series, so an
    equal-fraction banding is checked at no cost. ``name`` is what an
    error calls the edges.
    """
    if not 0.0 < temperature < math.inf:
        raise ReproError(f"temperature must be positive and finite, got {temperature}")
    if edges_um is None:
        return None
    edges = tuple(float(e) for e in edges_um)
    if len(edges) < 2:
        raise ReproError(f"need >= 2 {name}, got {len(edges)}")
    if any(math.isnan(e) for e in edges):
        raise ReproError(f"{name} must be numbers, got {edges}")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ReproError(f"{name} must be strictly increasing: {edges}")
    if edges[0] < 0.0:
        raise ReproError(f"{name} must be non-negative: {edges}")
    raw = np.diff(planck_fraction(np.asarray(edges) * temperature))
    coverage = float(raw.sum())
    if coverage < 1e-9:
        raise ReproError(
            f"{name} {edges} cover a negligible fraction "
            f"({coverage:.2e}) of the Planck spectrum at {temperature} K"
        )
    return raw


@dataclass(frozen=True)
class PlanckTable:
    """Banded Planck distribution at a reference temperature.

    ``edges_um`` are nbands+1 increasing wavelength edges (um; the
    first may be 0 and the last inf); ``weights`` the per-band fraction
    of black-body emission, normalised to sum to 1 over the covered
    range; ``coverage`` the raw Planck fraction the edges span (1.0
    when they run 0 to inf).
    """

    edges_um: Tuple[float, ...]
    temperature: float
    weights: Tuple[float, ...]
    coverage: float
    #: cumulative weights for inverse-CDF sampling (last entry == 1)
    cdf: Tuple[float, ...] = field(repr=False, default=())

    @classmethod
    def from_edges(
        cls, edges_um: Sequence[float], temperature: float
    ) -> "PlanckTable":
        edges = tuple(float(e) for e in edges_um)
        raw = check_banding(temperature, edges)
        coverage = float(raw.sum())
        weights = raw / coverage
        cdf = np.cumsum(weights)
        cdf[-1] = 1.0  # guard against rounding so sampling never overflows
        return cls(
            edges_um=edges,
            temperature=float(temperature),
            weights=tuple(float(w) for w in weights),
            coverage=coverage,
            cdf=tuple(float(c) for c in cdf),
        )

    @classmethod
    def equal_fraction(cls, nbands: int, temperature: float) -> "PlanckTable":
        """The default table: ``nbands`` equal-emission bands."""
        return cls.from_edges(default_band_edges(nbands, temperature), temperature)

    @property
    def nbands(self) -> int:
        return len(self.weights)

    def band_median_um(self, band: int) -> float:
        """The Planck-median wavelength of one band: the wavelength
        splitting the band's emission in half. Well-defined even for
        half-open bands (edges 0 or inf), unlike the midpoint."""
        if not 0 <= band < self.nbands:
            raise ReproError(f"band {band} outside [0, {self.nbands})")
        lo_f = float(planck_fraction(self.edges_um[band] * self.temperature))
        hi_f = float(planck_fraction(self.edges_um[band + 1] * self.temperature))
        return fraction_inverse(0.5 * (lo_f + hi_f), self.temperature)

    def band_medians_um(self) -> np.ndarray:
        return np.array([self.band_median_um(b) for b in range(self.nbands)])

    def sample_bands(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` band indices drawn from the Planck weights by inverse
        CDF over uniform draws — one draw per ray, vectorized.

        The scalar and vectorized tracers call this with the *same*
        named stream so their per-ray band assignments are identical
        (the cross-validation contract).
        """
        u = rng.random(n)
        bands = np.searchsorted(np.asarray(self.cdf), u, side="right")
        return np.minimum(bands, self.nbands - 1).astype(np.int64)
