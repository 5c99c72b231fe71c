"""Server-distance analytics from per-flow RTT (Fig. 10).

"For all TCP connections to a given service, we extract the minimum
per-flow RTT, and plot the corresponding CDF... we focus on the body of
the distribution of minimum per-flow RTT, ignoring samples in the tails."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.analytics.distributions import EmpiricalDistribution
from repro.services.rules import RuleSet
from repro.tstat.flow import FlowRecord, Transport
from repro.tstat.flowbatch import BatchServiceView, FlowBatch


def min_rtt_mask(
    flows: FlowBatch,
    rules: RuleSet,
    service: str,
    min_samples: int = 1,
    codes: Optional[BatchServiceView] = None,
) -> np.ndarray:
    """Boolean mask of the batch flows :func:`min_rtt_samples` selects.

    Exposed separately so shard partials can tag each sample with its
    flow position (the merged sample list is order-sensitive)."""
    flows, view = FlowBatch.classified(flows, rules, codes)
    return (
        flows.equals("transport", Transport.TCP.value)
        & (flows.columns["rtt_samples"] >= min_samples)
        & view.name_mask(service)
    )


def min_rtt_samples(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    service: str,
    min_samples: int = 1,
    codes: Optional[BatchServiceView] = None,
) -> List[float]:
    """Per-flow minimum RTTs (ms) of TCP flows classified to ``service``.

    Classification here is by domain rules alone (``rules.classify``): the
    P2P fallback label never names an RTT-tracked service.  The three
    filters reduce to one boolean mask over the columns, reusing the
    caller's shared classification when ``codes`` is given.
    """
    batch = FlowBatch.of(flows)
    mask = min_rtt_mask(batch, rules, service, min_samples, codes)
    return batch.columns["rtt_min_ms"][mask].tolist()


def rtt_distribution(
    flows: Iterable[FlowRecord],
    rules: RuleSet,
    service: str,
    trim_tails: float = 0.01,
) -> Optional[EmpiricalDistribution]:
    """The body of the min-RTT distribution for a service.

    ``trim_tails`` removes the given fraction at both ends (queueing and
    processing outliers), as the paper does.
    """
    samples = sorted(min_rtt_samples(flows, rules, service))
    if not samples:
        return None
    cut = int(len(samples) * trim_tails)
    trimmed = samples[cut : len(samples) - cut] if cut else samples
    if not trimmed:
        trimmed = samples
    return EmpiricalDistribution.from_samples(trimmed)


@dataclass(frozen=True)
class RttSummaryStats:
    """Headline distances used in the EXPERIMENTS comparisons."""

    service: str
    flows: int
    median_ms: float
    p10_ms: float
    p90_ms: float
    share_below_1ms: float
    share_below_5ms: float
    share_above_100ms: float

    @classmethod
    def from_distribution(
        cls, service: str, distribution: EmpiricalDistribution
    ) -> "RttSummaryStats":
        return cls(
            service=service,
            flows=len(distribution),
            median_ms=distribution.median,
            p10_ms=distribution.quantile(0.10),
            p90_ms=distribution.quantile(0.90),
            share_below_1ms=distribution.cdf(1.0),
            share_below_5ms=distribution.cdf(5.0),
            share_above_100ms=distribution.ccdf(100.0),
        )


def summarize_services(
    flows: Iterable[FlowRecord], rules: RuleSet, services: Iterable[str]
) -> Dict[str, RttSummaryStats]:
    """RTT summaries for several services over one flow set (turned into
    a batch, and classified, once for all of them)."""
    batch = FlowBatch.of(flows)
    summaries = {}
    for service in services:
        distribution = rtt_distribution(batch, rules, service)
        if distribution is not None:
            summaries[service] = RttSummaryStats.from_distribution(
                service, distribution
            )
    return summaries
