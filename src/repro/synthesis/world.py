"""The assembled world model: population + services + infrastructure.

A :class:`World` is the complete ground truth the synthetic measurements
are drawn from.  Everything is parameterized by :class:`WorldConfig` and a
single seed; any day can be regenerated independently and reproducibly
(per-day child seeds are spawned from the root seed, DESIGN.md §6).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.routing.rib import RibArchive
from repro.services import catalog
from repro.synthesis.infrastructure import (
    ServiceInfrastructure,
    WorldPools,
    build_default_infrastructure,
    build_default_pools,
    build_rib_archive,
)
from repro.synthesis.population import Population, PopulationConfig
from repro.synthesis.servicemodels import ServiceModel, build_default_services
from repro.synthesis.studycalendar import STUDY_END, STUDY_START
from repro.tstat.outages import OutageCalendar, default_outages

#: Subscribers per RNG block: every per-day stream is keyed by the block
#: of subscriber ids ``[k * SUBSCRIBER_BLOCK, (k + 1) * SUBSCRIBER_BLOCK)``
#: it draws for, so a task over whole blocks draws only its own.  Not an
#: option — another width is another world.
SUBSCRIBER_BLOCK = 1024


@dataclass(frozen=True)
class WorldConfig:
    """Sizing knobs of the synthetic world."""

    seed: int = 2018
    adsl_count: int = 400
    ftth_count: int = 200
    start: datetime.date = STUDY_START
    end: datetime.date = STUDY_END
    ip_scale: float = 0.05  # scales the paper's daily-active-IP counts
    adoption_overshoot: float = 1.6  # adopters vs daily users (see flowgen)
    with_outages: bool = True

    def population_config(self) -> PopulationConfig:
        return PopulationConfig(
            adsl_count=self.adsl_count,
            ftth_count=self.ftth_count,
            start=self.start,
            end=self.end,
        )


class World:
    """The synthetic ISP vantage and the Internet behind it."""

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config or WorldConfig()
        self.population = Population(
            self.config.population_config(), seed=self.config.seed
        )
        self.services: Tuple[ServiceModel, ...] = build_default_services()
        self.pools: WorldPools = build_default_pools()
        self.infrastructure: Dict[str, ServiceInfrastructure] = (
            build_default_infrastructure(self.pools, ip_scale=self.config.ip_scale)
        )
        self.rib: RibArchive = build_rib_archive(
            self.pools, self.config.start, self.config.end
        )
        self.outages: OutageCalendar = (
            default_outages() if self.config.with_outages else OutageCalendar()
        )
        self._service_index = {
            service.name: index for index, service in enumerate(self.services)
        }
        self._affinity = self._build_affinities()

    def service(self, name: str) -> ServiceModel:
        return self.services[self._service_index[name]]

    def service_names(self) -> Tuple[str, ...]:
        return tuple(service.name for service in self.services)

    def infrastructure_for(self, service: str) -> ServiceInfrastructure:
        found = self.infrastructure.get(service)
        if found is None:
            found = self.infrastructure[catalog.OTHER]
        return found

    def day_rng(
        self, day: datetime.date, stream: int = 0, block: int = 0
    ) -> np.random.Generator:
        """A fresh generator for (day, stream, subscriber block),
        independent of other days and blocks (DESIGN.md §6).

        Block 0 keeps the three-element key streams had before they were
        keyed by block: ``SeedSequence`` tells ``[s, d, st]`` from
        ``[s, d, st, 0]`` once the seed needs more than 32 bits, so a
        trailing 0 would re-draw a one-block world's every stream.
        """
        key = [self.config.seed, day.toordinal(), stream]
        if block:
            key.append(block)
        return np.random.default_rng(np.random.SeedSequence(key))

    # -- per-(subscriber, service) persistent randomness --------------------

    def _build_affinities(self) -> Dict[str, np.ndarray]:
        """Adoption ranks and volume affinities, one row per subscriber."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 0xAFF])
        )
        count = len(self.population)
        ranks = rng.random((count, len(self.services)))
        volume_affinity = np.empty((count, len(self.services)))
        for index, service in enumerate(self.services):
            sigma = service.affinity_sigma
            volume_affinity[:, index] = rng.lognormal(
                mean=-0.5 * sigma * sigma, sigma=sigma, size=count
            )
        return {"rank": ranks, "volume": volume_affinity}

    def adoption_rank(self, subscriber_id: int, service: str) -> float:
        """Fixed adoption percentile of a subscriber for a service."""
        return float(
            self._affinity["rank"][subscriber_id, self._service_index[service]]
        )

    def volume_affinity(self, subscriber_id: int, service: str) -> float:
        """Fixed per-subscriber volume multiplier for a service (mean 1)."""
        return float(
            self._affinity["volume"][subscriber_id, self._service_index[service]]
        )

    def affinity_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        """(adoption ranks, volume affinities): one row per subscriber,
        one column per service in :attr:`services` order."""
        return self._affinity["rank"], self._affinity["volume"]
