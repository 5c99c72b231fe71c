"""RIB snapshots: monthly prefix → origin-AS tables.

The paper uses "the Routing Information Base for each month from a major
vantage point in the Route Views project to map IP addresses to ASNs"
(Section 6, footnote 11).  Real RIB dumps are not redistributable at this
scale, so the world model *emits* monthly snapshots consistent with its
server infrastructure (prefixes appear/disappear as services migrate CDNs),
and the analytics join against whichever snapshot covers each measurement
day — exactly the paper's procedure.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.nettypes.ip import IPV4_MAX, Prefix
from repro.routing.asns import AutonomousSystem, by_number
from repro.routing.trie import PrefixTrie


@dataclass(frozen=True)
class RibEntry:
    """One route: a prefix originated by an AS."""

    prefix: Prefix
    origin: int  # ASN


class RibSnapshot:
    """The table of one monthly dump, with LPM lookup."""

    def __init__(self, month: Tuple[int, int], entries: Iterable[RibEntry]) -> None:
        self.month = month
        self._trie: PrefixTrie[int] = PrefixTrie()
        self._entries: List[RibEntry] = []
        self._flat: Optional[Tuple[np.ndarray, np.ndarray]] = None
        for entry in entries:
            self._trie.insert(entry.prefix, entry.origin)
            self._entries.append(entry)

    def __len__(self) -> int:
        return len(self._trie)

    @property
    def entries(self) -> Tuple[RibEntry, ...]:
        return tuple(self._entries)

    def origin_of(self, address: int) -> Optional[AutonomousSystem]:
        """The origin AS announcing the covering prefix, or ``None``."""
        asn = self._trie.lookup(address)
        if asn is None:
            return None
        return by_number(asn)

    def _intervals(self) -> Tuple[np.ndarray, np.ndarray]:
        """The table as sorted disjoint intervals: ``origins[i]`` is the
        ASN of the most specific prefix covering ``[starts[i],
        starts[i + 1])`` — 0, the OTHER AS, where none does.  Flattened
        on the first array lookup, never while the archive is built."""
        if self._flat is None:
            starts = np.unique(
                [0, IPV4_MAX + 1]
                + [entry.prefix.first() for entry in self._entries]
                + [entry.prefix.last() + 1 for entry in self._entries]
            )
            origins = np.zeros(starts.size, dtype=np.int64)
            # Less specific first, so a more specific prefix paints over
            # it; of two routes for one prefix the later replaces, as in
            # the trie.
            for entry in sorted(self._entries, key=lambda entry: entry.prefix.length):
                lo, hi = np.searchsorted(
                    starts, (entry.prefix.first(), entry.prefix.last() + 1)
                )
                origins[lo:hi] = entry.origin
            self._flat = (starts, origins)
        return self._flat

    def origins_of(self, addresses: np.ndarray) -> np.ndarray:
        """:meth:`origin_of` over an array, as AS numbers (0: no route):
        one ``searchsorted`` against the flattened table."""
        starts, origins = self._intervals()
        return origins[np.searchsorted(starts, addresses, side="right") - 1]


class RibArchive:
    """Keyed collection of monthly snapshots with nearest-month fallback.

    Real archives occasionally miss a month; the paper's join then uses the
    most recent earlier snapshot, which :meth:`snapshot_for` reproduces.
    """

    def __init__(self) -> None:
        self._snapshots: Dict[Tuple[int, int], RibSnapshot] = {}

    def add(self, snapshot: RibSnapshot) -> None:
        self._snapshots[snapshot.month] = snapshot

    def months(self) -> List[Tuple[int, int]]:
        return sorted(self._snapshots)

    def snapshot_for(self, day: datetime.date) -> Optional[RibSnapshot]:
        """The snapshot of ``day``'s month, or the latest one before it."""
        wanted = (day.year, day.month)
        exact = self._snapshots.get(wanted)
        if exact is not None:
            return exact
        earlier = [month for month in self._snapshots if month <= wanted]
        if not earlier:
            return None
        return self._snapshots[max(earlier)]

    def origin_of(self, address: int, day: datetime.date) -> AutonomousSystem:
        """Join one address against the archive; unknown → the OTHER AS."""
        snapshot = self.snapshot_for(day)
        if snapshot is None:
            return by_number(0)
        origin = snapshot.origin_of(address)
        return origin if origin is not None else by_number(0)

    def origins_of(self, addresses: np.ndarray, day: datetime.date) -> np.ndarray:
        """:meth:`origin_of` over an array of addresses, as AS numbers."""
        snapshot = self.snapshot_for(day)
        if snapshot is None:
            return np.zeros(len(addresses), dtype=np.int64)
        return snapshot.origins_of(addresses)

    def __len__(self) -> int:
        return len(self._snapshots)
