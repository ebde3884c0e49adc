"""Gemini network cost model: alpha-beta point-to-point messages, the
unit the RMCRT communication phase is priced in."""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.titan import TITAN
from repro.util.errors import ReproError


@dataclass
class NetworkModel:
    """Alpha-beta model with a torus congestion knob.

    ``congestion`` scales effective bandwidth down for traffic patterns
    that cross the torus bisection (1.0 = pure injection-bound).
    """

    latency_s: float = TITAN.network_latency_s
    bandwidth: float = TITAN.injection_bandwidth
    congestion: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.bandwidth <= 0 or not 0 < self.congestion <= 1:
            raise ReproError("invalid network parameters")

    @property
    def effective_bandwidth(self) -> float:
        return self.bandwidth * self.congestion

    def ptp_time(self, nbytes: int) -> float:
        """One point-to-point message."""
        return self.latency_s + nbytes / self.effective_bandwidth


GEMINI = NetworkModel()
