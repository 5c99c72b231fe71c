"""The study plan: every curve of the world, evaluated once over its span.

The world's ground truth is a set of curves over the calendar (service
popularity, volumes, upload ratios, protocol mixes, deployment shares,
active server slots, domain weights).  A :class:`StudyPlan` evaluates all
of them over a run of day ordinals as arrays, a row per day, together
with what the aggregate and flow tiers derive from them: adoption and use
probabilities, protocol-table entries, each service's protocol-mix
cumulative shares and its :class:`~repro.synthesis.infrastructure.ServerCalendar`.
A day's :class:`~repro.synthesis.flowgen.DayPlan` reads one row of it
(DESIGN.md §5).

Every value is the one the former per-day scalar evaluation computed:
the same float operations in the same order, elementwise.
"""

from __future__ import annotations

import datetime
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.services import catalog
from repro.synthesis.curves import shared_rows
from repro.synthesis.infrastructure import ServerCalendar, ServerPlan
from repro.synthesis.population import Technology
from repro.synthesis.servicemodels import ThirdPartyContact
from repro.synthesis.world import World
from repro.tstat.flow import WebProtocol
from repro.tstat.versions import REPORTING_DATES, capabilities_on

#: The generator's dictionary of protocols: every member in declaration
#: order, a column holding positions in it.
PROTOCOLS = tuple(WebProtocol)
protocol_code = PROTOCOLS.index


class ServiceDay(NamedTuple):
    """The aggregate tier's per-service parameters on one day: a row per
    service of ``world.services``, a column per technology (ADSL, FTTH).

    A service nobody can adopt that day keeps zero volumes and no
    protocol-mix entries: no block draws users for it.
    """

    adoption: np.ndarray  # a subscriber whose rank is below it adopts
    use: np.ndarray  # P(an adopter uses the service today)
    volume: np.ndarray  # mean bytes down of a user
    ratio: np.ndarray  # upload / download
    boost: np.ndarray  # per service: the holiday volume boost applies
    noise: List[Tuple[float, float]]  # download noise lognormal (mean, sigma)
    flow_mean: np.ndarray
    third_party: List[Optional[ThirdPartyContact]]
    #: Protocol-mix entries: the service row, its share, and the entry's
    #: (service, reported label) key as an index into ``keys``.
    entry_service: np.ndarray
    entry_share: np.ndarray
    entry_key: np.ndarray
    #: Each key's (service row, label code into PROTOCOLS), in protocol-table
    #: order: by service name, then label.
    keys: np.ndarray


class FlowMix(NamedTuple):
    """A service's protocol mix as the flow tier draws it, over the days
    on which the same components are entries: their protocol codes and,
    a row per day, their shares cumulated (None: an empty mix)."""

    codes: np.ndarray
    cumulative: Optional[np.ndarray]


class StudyPlan:
    """Every curve of ``world`` over the days ``first`` … ``last``.

    Built once per :class:`~repro.synthesis.flowgen.TrafficGenerator`
    for the world's span, on the first day planned; a day outside it
    gets a one-row plan built by the same code.  Nothing is kept per
    day: a row is sliced out of the arrays when a day asks for it.
    """

    def __init__(self, world: World, first: datetime.date, last: datetime.date) -> None:
        self.first = first.toordinal()
        ordinals = np.arange(self.first, last.toordinal() + 1, dtype=np.int64)
        self.days = ordinals.size
        services = world.services
        self._label_table, self._label_run = _label_runs(ordinals)

        popularity = _per_technology([service.popularity for service in services], ordinals)
        overshoot = np.array(
            [
                1.0 if service.name == catalog.OTHER else world.config.adoption_overshoot
                for service in services
            ]
        )
        adoption = np.minimum(1.0, popularity * overshoot[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            use = np.where(adoption > 0, popularity / np.maximum(adoption, 1e-12), 0.0)
        del popularity
        adopted = (adoption > 0).any(axis=2)
        volume = np.where(
            adopted[..., None],
            _per_technology([service.volume_down for service in services], ordinals),
            0.0,
        )
        ratio = np.where(
            adopted[..., None],
            _per_technology([service.upload_ratio for service in services], ordinals),
            0.0,
        )
        flows = np.column_stack([service.flows_per_day.over(ordinals) for service in services])
        flow_mean = np.where(adopted & (flows > 1.0), flows, 1.0)
        mixes = [service.protocol_mix.over(ordinals) for service in services]
        shares = self._entries(services, adopted, mixes)
        self._columns = DayColumns([adoption, use, volume, ratio, flow_mean, shares])
        #: Per service: a holiday boosts its use and volumes.
        self.boostable = np.array([service.holiday_messaging_boost for service in services])
        self.noise = [
            (-0.5 * service.volume_sigma * service.volume_sigma, service.volume_sigma)
            for service in services
        ]
        self.third_party = [service.third_party for service in services]
        self._mixes: Dict[str, Tuple[List[FlowMix], np.ndarray, np.ndarray]] = {
            service.name: _flow_mixes(service.protocol_mix.keys, mix)
            for service, mix in zip(services, mixes)
        }
        self._servers: Dict[str, ServerCalendar] = {
            service.name: ServerCalendar(world.infrastructure_for(service.name), ordinals)
            for service in services
        }

    def _entries(self, services, adopted: np.ndarray, mixes) -> np.ndarray:
        """The layouts of the days' protocol-mix entries, and every mix
        component's share, a row per day.

        A day's entries are its adopted services' present mix components,
        service by service in component order; its keys are the distinct
        (service, reported label) pairs among them, by service name, then
        label.  Days with the same entries under the same probe labels
        share one layout: the entries' components, service rows and key
        indices, and the keys.
        """
        component_service = np.concatenate(
            [np.full(len(service.protocol_mix.keys), row) for row, service in enumerate(services)]
        ).astype(np.intp)
        component_protocol = np.array(
            [protocol_code(key) for service in services for key in service.protocol_mix.keys],
            dtype=np.intp,
        )
        valid = np.concatenate([mix.present for mix in mixes], axis=1)
        valid &= adopted[:, component_service]
        # Every possible key in protocol-table order, and each (service,
        # label) pair's position in that order.
        pairs = sorted(
            ((row, code) for row in range(len(services)) for code in range(len(PROTOCOLS))),
            key=lambda pair: (services[pair[0]].name, PROTOCOLS[pair[1]].value),
        )
        table = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        rank = np.empty((len(services), len(PROTOCOLS)), dtype=np.intp)
        rank[tuple(table.T)] = np.arange(len(pairs))
        _, firsts, layout_of = np.unique(
            np.column_stack([np.packbits(valid, axis=1), self._label_run.astype(np.uint8)]),
            axis=0, return_index=True, return_inverse=True,
        )
        self._layout_of = layout_of.reshape(-1)
        self._layouts: List[Tuple[np.ndarray, ...]] = []
        for first in firsts.tolist():
            columns = np.flatnonzero(valid[first])
            labels = self.label_of(first)[component_protocol[columns]]
            key = rank[component_service[columns], labels]
            held = np.unique(key)
            self._layouts.append(
                (columns, component_service[columns], np.searchsorted(held, key), table[held])
            )
        return np.concatenate([mix.shares for mix in mixes], axis=1)

    def label_of(self, row: int) -> np.ndarray:
        """The probe's reported label of each true protocol on row
        ``row``'s day, both as codes."""
        return self._label_table[self._label_run[row]]

    def services(self, row: int) -> ServiceDay:
        """The aggregate tier's parameters of row ``row``'s day, were it
        no holiday."""
        adoption, use, volume, ratio, flow_mean, shares = self._columns.row(row)
        columns, entry_service, entry_key, keys = self._layouts[self._layout_of[row]]
        return ServiceDay(
            adoption=adoption,
            use=use,
            volume=volume,
            ratio=ratio,
            boost=np.zeros(len(self.noise), dtype=bool),
            noise=self.noise,
            flow_mean=flow_mean,
            third_party=self.third_party,
            entry_service=entry_service,
            entry_share=shares[columns],
            entry_key=entry_key,
            keys=keys,
        )

    def flow_mix(self, row: int, name: str) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Service ``name``'s cumulated protocol shares on row ``row``'s
        day (None: an empty mix) and their protocols, as codes."""
        mixes, which, place = self._mixes[name]
        mix = mixes[which[row]]
        return (None if mix.cumulative is None else mix.cumulative[place[row]]), mix.codes

    def servers(self, row: int, name: str, day: datetime.date) -> ServerPlan:
        """Service ``name``'s server selection on row ``row``'s day."""
        return ServerPlan(self._servers[name], row, day)


class DayColumns:
    """Float64 arrays over the days, a row per day, kept by column: a
    column that holds one value on every day is kept once as that value,
    and columns of one array that are equal bit for bit are kept once.
    :meth:`row` gives one day's arrays."""

    def __init__(self, arrays: Sequence[np.ndarray]) -> None:
        self._shapes = [array.shape[1:] for array in arrays]
        varying: List[np.ndarray] = []
        constant: List[float] = []
        places: List[Tuple[bool, int]] = []  # per column: (varies, position)
        for array in arrays:
            seen: Dict[bytes, Tuple[bool, int]] = {}
            for column in np.ascontiguousarray(array.reshape(len(array), -1).T):
                place = seen.get(column.tobytes())
                if place is None:
                    bits = column.view(np.uint64)
                    if (bits == bits[0]).all():
                        place = (False, len(constant))
                        constant.append(column[0])
                    else:
                        place = (True, len(varying))
                        varying.append(column)
                    seen[column.tobytes()] = place
                places.append(place)
        self._varying = np.column_stack(varying) if varying else np.empty((len(arrays[0]), 0))
        self._constant = np.array(constant, dtype=np.float64)
        #: Each column's place in a day's varying values, then the constants.
        self._index = np.array(
            [where if varies else len(varying) + where for varies, where in places], dtype=np.intp
        )
        sizes = [int(np.prod(shape)) for shape in self._shapes]
        ends = np.cumsum(sizes).tolist()
        self._bounds = [(end - size, end) for end, size in zip(ends, sizes)]

    def row(self, row: int) -> List[np.ndarray]:
        values = np.concatenate((self._varying[row], self._constant))[self._index]
        return [
            values[lo:hi].reshape(shape) for (lo, hi), shape in zip(self._bounds, self._shapes)
        ]


def _per_technology(curves: List[Dict[Technology, object]], ordinals: np.ndarray) -> np.ndarray:
    """Per-technology curves over ``ordinals``, as (day, service,
    technology) values; a curve both technologies share is evaluated once."""
    values = np.empty((len(ordinals), len(curves), 2))
    for row, pair in enumerate(curves):
        adsl, ftth = pair[Technology.ADSL], pair[Technology.FTTH]
        values[:, row, 0] = adsl.over(ordinals)
        values[:, row, 1] = values[:, row, 0] if ftth is adsl else ftth.over(ordinals)
    return values


def _label_runs(ordinals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The reported label of every true protocol, as codes, per run of
    days between reporting dates (on which none of them changes), and
    each day's run: the probe's capabilities are read once per run."""
    edges = sorted({day.toordinal() for day in REPORTING_DATES})
    runs, firsts, run = np.unique(
        np.searchsorted(edges, ordinals, side="right"), return_index=True, return_inverse=True
    )
    table = np.array(
        [
            [
                protocol_code(capabilities.reported_label(protocol))
                for protocol in PROTOCOLS
            ]
            for capabilities in (
                capabilities_on(datetime.date.fromordinal(int(ordinals[first])))
                for first in firsts.tolist()
            )
        ],
        dtype=np.int64,
    ).reshape(runs.size, len(PROTOCOLS))
    return table, run.reshape(-1)


def _flow_mixes(keys, mix) -> Tuple[List[FlowMix], np.ndarray, np.ndarray]:
    """One service's flow-tier mixes: one :class:`FlowMix` per set of
    present components, and for each day which one and its row in it.

    A day's shares are divided by their numpy ``sum`` and cumulated, as
    the flow tier always has: the days of one set are one 2-D array of
    just those components, reduced row by row.
    """
    shares, present = mix
    pattern = present @ (1 << np.arange(present.shape[1]))
    patterns, which = np.unique(pattern, return_inverse=True)
    place = np.empty(len(pattern), dtype=np.int32)
    mixes = []
    codes = np.array([protocol_code(key) for key in keys], dtype=np.int64)
    for index in range(patterns.size):
        rows = np.flatnonzero(which == index)
        place[rows] = np.arange(rows.size)
        columns = present[rows[0]]
        if not columns.any():
            mixes.append(FlowMix(codes[columns], None))
            continue
        kept = shares[rows][:, columns]
        cumulative = np.cumsum(kept / kept.sum(axis=1)[:, None], axis=1)
        mixes.append(FlowMix(codes[columns], shared_rows(cumulative)))
    return mixes, which.reshape(-1).astype(np.int32), place


