"""The spectral transport model: what turns a gray scene spectral.

A :class:`SpectralModel` bundles the three wavelength-dependent pieces
the tracer needs:

* a :class:`~repro.radiation.spectral.planck.PlanckTable` — band
  structure and per-band emission weights (the sampling distribution);
* per-band **kappa scales** — the band absorption coefficient is
  ``kappa_scale[b] * kappa_gray``, i.e. the gray field carries the
  spatial shape and the model carries the spectral shape;
* a :class:`~repro.radiation.spectral.emissivity.TabulatedEmissivity`
  — band surface-emissivity multipliers, temperature-interpolated.

``gray_limit()`` builds the degenerate model (one band spanning the
spectrum, scale 1, identity emissivity) under which the spectral
tracer must reproduce the gray solver bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.radiation.spectral.emissivity import TabulatedEmissivity, named_emissivity
from repro.radiation.spectral.planck import PlanckTable
from repro.util.errors import ReproError


def kappa_scales_power_law(
    table: PlanckTable, exponent: float = 0.0, normalize: bool = True
) -> np.ndarray:
    """Per-band kappa scales from a wavelength power law.

    ``kappa_b = (lambda_b / lambda_peak)^exponent`` at the band's
    Planck-median wavelength, optionally normalised so the Planck-mean
    scale ``sum_b w_b * kappa_b`` is 1 — then the spectral medium has
    the *same* Planck-mean absorption as the gray one and gray-vs-
    spectral differences are pure redistribution, not a kappa rescale.

    ``exponent > 0`` makes long wavelengths optically thick (molecular
    gas bands); ``exponent < 0`` thickens the short end (soot-like).
    """
    lam = table.band_medians_um()
    lam_ref = float(np.exp(np.sum(np.asarray(table.weights) * np.log(lam))))
    scales = (lam / lam_ref) ** exponent
    if normalize:
        planck_mean = float(np.sum(np.asarray(table.weights) * scales))
        scales = scales / planck_mean
    return scales


@dataclass
class SpectralModel:
    """Band structure + per-band optics for one spectral solve."""

    table: PlanckTable
    kappa_scales: np.ndarray
    emissivity: TabulatedEmissivity
    name: str = "custom"
    #: Planck-mean kappa scale sum_b w_b s_b (1.0 for normalised models)
    planck_mean_scale: float = field(init=False)

    def __post_init__(self) -> None:
        self.kappa_scales = np.asarray(self.kappa_scales, dtype=np.float64)
        if self.kappa_scales.shape != (self.table.nbands,):
            raise ReproError(
                f"kappa scales shape {self.kappa_scales.shape} != "
                f"(nbands={self.table.nbands},)"
            )
        if not np.all((self.kappa_scales >= 0.0) & np.isfinite(self.kappa_scales)):
            raise ReproError(
                f"band kappa scales must be finite and non-negative, "
                f"got {self.kappa_scales.tolist()}"
            )
        if self.emissivity.nbands != self.table.nbands:
            raise ReproError(
                f"emissivity table has {self.emissivity.nbands} bands, "
                f"Planck table has {self.table.nbands}"
            )
        self.planck_mean_scale = float(
            np.sum(np.asarray(self.table.weights) * self.kappa_scales)
        )

    @property
    def nbands(self) -> int:
        return self.table.nbands

    @property
    def is_gray_limit(self) -> bool:
        """One full-spectrum band, unit kappa, identity emissivity —
        the configuration under which spectral == gray bit-for-bit."""
        return (
            self.nbands == 1
            and float(self.kappa_scales[0]) == 1.0
            and self.emissivity.is_gray
        )

    def digest(self) -> str:
        """SHA-256 identity of the model — folded into scene and spec
        fingerprints so spectral requests cache and route distinctly."""
        h = hashlib.sha256()
        h.update(
            json.dumps(
                {
                    "edges_um": [repr(e) for e in self.table.edges_um],
                    "temperature": repr(self.table.temperature),
                    "kappa_scales": [repr(float(s)) for s in self.kappa_scales],
                },
                sort_keys=True,
            ).encode()
        )
        h.update(self.emissivity.digest().encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def gray_limit(cls) -> "SpectralModel":
        table = PlanckTable.from_edges((0.0, np.inf), temperature=1000.0)
        return cls(
            table=table,
            kappa_scales=np.ones(1),
            emissivity=TabulatedEmissivity.gray(1),
            name="gray-limit",
        )

    @classmethod
    def build(
        cls,
        bands: int,
        temperature: float,
        band_edges_um: Optional[Sequence[float]] = None,
        kappa_exponent: float = 0.0,
        emissivity: str = "gray",
        name: Optional[str] = None,
    ) -> "SpectralModel":
        """The spec-facing factory: counts, edges, and names in; a
        fully-resolved model out. This is what ``ups.py`` calls, so a
        journaled spec rebuilds the identical model anywhere.

        ``bands`` equal-fraction bands, unless ``band_edges_um`` band the
        spectrum themselves: a spec's parse holds the two to agree."""
        if band_edges_um is not None:
            table = PlanckTable.from_edges(band_edges_um, temperature)
        else:
            table = PlanckTable.equal_fraction(bands, temperature)
        return cls(
            table=table,
            kappa_scales=kappa_scales_power_law(table, kappa_exponent),
            emissivity=named_emissivity(emissivity, table),
            name=name or f"{table.nbands}-band/{emissivity}",
        )
