"""The study plan against the scalar curves and per-day plans it replaced.

:class:`~repro.synthesis.studyplan.StudyPlan` evaluates every curve of
the world over the world's span as arrays, and a
:class:`~repro.synthesis.flowgen.DayPlan` reads its row.  None of it may
move a single value.  The curve closures the primitives used to be stay
here verbatim as the scalar oracle (``oracle_*``); ``scalar`` turns any
curve of the world into the oracle closure it used to be.  Every
primitive's ``over`` is the oracle bit for bit, and every planned day's
``DayPlan.services`` / ``flow_service`` / server plan is the former
per-day evaluation (``former_*``), field by field and dtype by dtype, on
every golden config.
"""

import bisect
import datetime
import itertools
from typing import Callable, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import small_study
from repro.core.study import LongitudinalStudy
from repro.services import catalog
from repro.synthesis import curves, studycalendar
from repro.synthesis.flowgen import (
    _HOLIDAY_USE_BOOST,
    PROTOCOLS,
    DayPlan,
    TrafficGenerator,
    protocol_code,
)
from repro.synthesis.population import Technology
from repro.synthesis.studyplan import ServiceDay
from repro.tstat.versions import capabilities_on
from tests.test_core_shards import fixture_config, multiblock_config, tiny_config

D = datetime.date

# ---------------------------------------------------------------------------
# The scalar oracle: the closures the curve primitives used to be.


def oracle_constant(value):
    return lambda day: value


def oracle_piecewise(knots):
    days = [day.toordinal() for day, _ in knots]

    def curve(day):
        ordinal = day.toordinal()
        if ordinal <= days[0]:
            return knots[0][1]
        if ordinal >= days[-1]:
            return knots[-1][1]
        index = bisect.bisect_left(days, ordinal)  # first knot on or after day
        left_value, right_value = knots[index - 1][1], knots[index][1]
        span = float(days[index]) - float(days[index - 1])
        fraction = (float(ordinal) - float(days[index - 1])) / span
        return left_value + fraction * (right_value - left_value)

    return curve


def oracle_launched(when, curve_after):
    return lambda day: 0.0 if day < when else curve_after(day)


def oracle_dip(base, start, end, factor):
    return lambda day: base(day) * (factor if start <= day < end else 1.0)


def oracle_multiplied(*factors):
    def curve(day):
        product = 1.0
        for factor in factors:
            product *= factor(day)
        return product

    return curve


def oracle_normalized_mix(components):
    def mix(day):
        weights = [(name, curve(day)) for name, curve in components]
        weights = [(name, weight) for name, weight in weights if weight > 0.0]
        total = sum(weight for _, weight in weights)
        if total <= 0.0:
            return []
        return [(name, weight / total) for name, weight in weights]

    return mix


def oracle_fixed_mix(*shares):
    total = sum(share for _, share in shares)
    normalized = [(protocol, share / total) for protocol, share in shares]
    return lambda day: list(normalized)


def scalar(curve) -> Callable:
    """The oracle closure a curve of the world used to be."""
    if isinstance(curve, curves.Constant):
        return oracle_constant(curve.value)
    if isinstance(curve, curves.PiecewiseLinear):
        return oracle_piecewise(curve.knots)
    if isinstance(curve, curves.Launched):
        return oracle_launched(D.fromordinal(curve.when), scalar(curve.after))
    if isinstance(curve, curves.Dip):
        return oracle_dip(
            scalar(curve.base), D.fromordinal(curve.start), D.fromordinal(curve.end), curve.factor
        )
    if isinstance(curve, curves.Product):
        return oracle_multiplied(*(scalar(factor) for factor in curve.factors))
    if isinstance(curve, curves.NormalizedMix):
        return oracle_normalized_mix([(key, scalar(part)) for key, part in curve.components])
    if isinstance(curve, curves.FixedMix):
        # The stored entries are already normalized; dividing by their sum
        # again would not be the former closure's arithmetic.
        entries = list(curve.entries)
        return lambda day: list(entries)
    raise TypeError(f"no oracle for {curve!r}")


# ---------------------------------------------------------------------------
# Each primitive's ``over`` is its oracle, bit for bit.

_ANCHOR = D(2015, 6, 1).toordinal()
_OFFSETS = st.integers(-900, 900)
_FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
#: A lone constant or piecewise curve may hold integers: its value is
#: their float.  Composed curves hold floats, as every curve of the world
#: does — integer operands would make the oracle's arithmetic exact
#: (``0 * -1`` is ``0``, where ``0.0 * -1.0`` is ``-0.0``).
_VALUES = st.one_of(st.integers(-10**6, 10**6), _FLOATS)


@st.composite
def knots(draw, values=_VALUES):
    offsets = sorted(draw(st.lists(_OFFSETS, min_size=1, max_size=6, unique=True)))
    return tuple((D.fromordinal(_ANCHOR + offset), draw(values)) for offset in offsets)


def probe_days(draw, edges: Sequence[D]) -> List[D]:
    """Each edge, its neighbours, days before and after all of them, and
    a few drawn days."""
    days = []
    for edge in edges:
        days += [edge - datetime.timedelta(days=1), edge, edge + datetime.timedelta(days=1)]
    low, high = min(edges), max(edges)
    days += [low - datetime.timedelta(days=400), high + datetime.timedelta(days=400)]
    days += [D.fromordinal(_ANCHOR + draw(_OFFSETS)) for _ in range(4)]
    return days


@st.composite
def leaf_curves(draw):
    """A constant or a piecewise curve, with the days it turns on."""
    if draw(st.booleans()):
        value = draw(_FLOATS)
        return curves.constant(value), oracle_constant(value), [D.fromordinal(_ANCHOR)]
    points = draw(knots(_FLOATS))
    return curves.PiecewiseLinear(points), oracle_piecewise(points), [day for day, _ in points]


def assert_same_values(curve, oracle, days: Sequence[D]) -> None:
    mine = curve.over(np.array([day.toordinal() for day in days], dtype=np.int64))
    theirs = np.array([oracle(day) for day in days], dtype=np.float64)
    assert mine.dtype == np.float64
    assert mine.tobytes() == theirs.tobytes()
    called = [curve(day) for day in days]
    assert all(type(value) is float for value in called)
    assert np.array(called).tobytes() == theirs.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_constant_is_the_oracle(data):
    value = data.draw(_VALUES)
    days = probe_days(data.draw, [D.fromordinal(_ANCHOR)])
    assert_same_values(curves.constant(value), oracle_constant(value), days)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_piecewise_is_the_oracle(data):
    points = data.draw(knots())
    days = probe_days(data.draw, [day for day, _ in points])
    assert_same_values(curves.PiecewiseLinear(points), oracle_piecewise(points), days)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_launched_is_the_oracle(data):
    after, oracle_after, edges = data.draw(leaf_curves())
    when = D.fromordinal(_ANCHOR + data.draw(_OFFSETS))
    days = probe_days(data.draw, [when, *edges])
    assert_same_values(curves.launched(when, after), oracle_launched(when, oracle_after), days)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dip_is_the_oracle(data):
    base, oracle_base, edges = data.draw(leaf_curves())
    start = _ANCHOR + data.draw(_OFFSETS)
    start, end = D.fromordinal(start), D.fromordinal(start + data.draw(st.integers(0, 60)))
    factor = data.draw(_FLOATS)
    days = probe_days(data.draw, [start, end, *edges])
    assert_same_values(
        curves.dip(base, start, end, factor), oracle_dip(oracle_base, start, end, factor), days
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multiplied_is_the_oracle(data):
    leaves = data.draw(st.lists(leaf_curves(), min_size=0, max_size=4))
    edges = [edge for _, _, leaf_edges in leaves for edge in leaf_edges] or [D.fromordinal(_ANCHOR)]
    days = probe_days(data.draw, edges)
    assert_same_values(
        curves.multiplied(*(leaf[0] for leaf in leaves)),
        oracle_multiplied(*(leaf[1] for leaf in leaves)),
        days,
    )


def assert_same_mix(mix, oracle, days: Sequence[D]) -> None:
    """Row by row: the present components are the oracle's entries, in
    order, with its shares bit for bit; the day's call is the oracle's."""
    shares, present = mix.over(np.array([day.toordinal() for day in days], dtype=np.int64))
    assert shares.dtype == np.float64 and present.dtype == bool
    for row, day in enumerate(days):
        theirs = oracle(day)
        kept = present[row].nonzero()[0]
        assert [mix.keys[column] for column in kept] == [key for key, _ in theirs]
        assert (
            shares[row, kept].tobytes()
            == np.array([share for _, share in theirs], dtype=np.float64).tobytes()
        )
        mine = mix(day)
        assert mine == theirs
        assert all(type(share) is float for _, share in mine)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normalized_mix_is_the_oracle(data):
    leaves = data.draw(st.lists(leaf_curves(), min_size=1, max_size=5))
    components = [(f"c{index}", leaf[0]) for index, leaf in enumerate(leaves)]
    oracle = oracle_normalized_mix([(f"c{index}", leaf[1]) for index, leaf in enumerate(leaves)])
    days = probe_days(data.draw, [edge for leaf in leaves for edge in leaf[2]])
    assert_same_mix(curves.normalized_mix(components), oracle, days)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fixed_mix_is_the_oracle(data):
    weights = data.draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5))
    if sum(weights) <= 0:
        weights[0] = 1.0
    shares = [(f"c{index}", weight) for index, weight in enumerate(weights)]
    days = probe_days(data.draw, [D.fromordinal(_ANCHOR)])
    assert_same_mix(curves.fixed_mix(*shares), oracle_fixed_mix(*shares), days)


def test_world_curves_are_the_oracle(world):
    """Every curve of the world, over a span wider than the study's."""
    days = [D(2013, 1, 1) + datetime.timedelta(days=offset) for offset in range(0, 2000, 3)]
    for service in world.services:
        for per_tech in (service.popularity, service.volume_down, service.upload_ratio):
            for curve in per_tech.values():
                assert_same_values(curve, scalar(curve), days)
        assert_same_values(service.flows_per_day, scalar(service.flows_per_day), days)
        assert_same_mix(service.protocol_mix, scalar(service.protocol_mix), days)
        for deployment in world.infrastructure_for(service.name).deployments:
            for curve in (deployment.share, deployment.active_slots):
                assert_same_values(curve, scalar(curve), days)
            for _, curve in deployment.domains:
                assert_same_values(curve, scalar(curve), days)


# ---------------------------------------------------------------------------
# The former per-day plan: every curve evaluated by its scalar oracle.


def former_per_technology(curves_by_technology, day) -> List[float]:
    adsl, ftth = curves_by_technology[Technology.ADSL], curves_by_technology[Technology.FTTH]
    value = scalar(adsl)(day)
    return [value, value if ftth is adsl else scalar(ftth)(day)]


def former_label_of(day) -> np.ndarray:
    capabilities = capabilities_on(day)
    return np.fromiter(
        (protocol_code(capabilities.reported_label(protocol)) for protocol in PROTOCOLS),
        np.int64, len(PROTOCOLS),
    )


def former_services(world, day) -> ServiceDay:
    """``DayPlan.services`` as it was, for ``day``."""
    services = world.services
    holiday = studycalendar.is_christmas_period(day) or studycalendar.is_new_year(day)
    popularity = np.array(
        [former_per_technology(service.popularity, day) for service in services],
        dtype=np.float64,
    )
    overshoot = np.array(
        [
            1.0 if service.name == catalog.OTHER else world.config.adoption_overshoot
            for service in services
        ]
    )
    adoption = np.minimum(1.0, popularity * overshoot[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        use = np.where(adoption > 0, popularity / np.maximum(adoption, 1e-12), 0.0)
    boost = np.array(
        [holiday and service.holiday_messaging_boost for service in services], dtype=bool
    )
    use = np.where(boost[:, None], np.minimum(1.0, use * _HOLIDAY_USE_BOOST), use)
    volume = np.zeros_like(popularity)
    ratio = np.zeros_like(popularity)
    flow_mean = [1.0] * len(services)
    labels = former_label_of(day).tolist()
    entries: List[Tuple[float, Tuple[int, int]]] = []  # (share, (row, label))
    for row in np.flatnonzero((adoption > 0).any(axis=1)).tolist():
        service = services[row]
        volume[row] = former_per_technology(service.volume_down, day)
        ratio[row] = former_per_technology(service.upload_ratio, day)
        flow_mean[row] = max(1.0, scalar(service.flows_per_day)(day))
        for protocol, share in scalar(service.protocol_mix)(day):
            entries.append((share, (row, labels[protocol_code(protocol)])))
    keys = sorted(
        {key for _, key in entries},
        key=lambda key: (services[key[0]].name, PROTOCOLS[key[1]].value),
    )
    place = {key: index for index, key in enumerate(keys)}
    numbered = [(key[0], share, place[key]) for share, key in entries]
    entry_service, entry_share, entry_key = (
        np.array([entry[index] for entry in numbered], dtype=dtype)
        for index, dtype in enumerate((np.intp, np.float64, np.intp))
    )
    return ServiceDay(
        adoption=adoption,
        use=use,
        volume=volume,
        ratio=ratio,
        boost=boost,
        noise=[
            (-0.5 * service.volume_sigma * service.volume_sigma, service.volume_sigma)
            for service in services
        ],
        flow_mean=flow_mean,
        third_party=[service.third_party for service in services],
        entry_service=entry_service,
        entry_share=entry_share,
        entry_key=entry_key,
        keys=np.array(keys, dtype=np.intp).reshape(-1, 2),
    )


def former_shares_on(infra, day):
    weights = [
        (deployment, max(0.0, scalar(deployment.share)(day))) for deployment in infra.deployments
    ]
    total = sum(weight for _, weight in weights)
    if total <= 0.0:
        return []
    return [(deployment, weight / total) for deployment, weight in weights]


def former_domain_plan(deployment, day):
    weights = [max(0.0, scalar(curve)(day)) for _, curve in deployment.domains]
    total = sum(weights)
    cumulative = np.array(list(itertools.accumulate(weights))) if total > 0 else None
    return cumulative, total


def former_server_plan(infra, day):
    """``ServerPlan`` as it was: its cumulative shares and, per
    deployment, (slot offset, active slots, domain cumulative, total)."""
    shares = former_shares_on(infra, day)
    cumulative = itertools.accumulate(share for _, share in shares)
    parts = [
        (
            deployment.slot_offset,
            max(1, int(scalar(deployment.active_slots)(day))),
            *former_domain_plan(deployment, day),
        )
        for deployment in infra.deployments
    ]
    return (np.array(list(cumulative)) if shares else None), parts


def former_flow_mix(world, name, day):
    mix = scalar(world.service(name).protocol_mix)(day)
    shares = np.array([share for _, share in mix], dtype=np.float64)
    return (
        np.cumsum(shares / shares.sum()) if mix else None,
        np.fromiter((protocol_code(protocol) for protocol, _ in mix), np.int64, len(mix)),
    )


def assert_same_array(mine, theirs, name) -> None:
    if theirs is None:
        assert mine is None, name
        return
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    assert mine.dtype == theirs.dtype, name
    assert mine.shape == theirs.shape, name
    assert mine.tobytes() == theirs.tobytes(), name


def assert_day_is_former(generator: TrafficGenerator, day: D) -> None:
    world = generator.world
    plan = DayPlan(generator, day)
    assert_same_array(plan.label_of, former_label_of(day), "label_of")
    mine, theirs = plan.services, former_services(world, day)
    for field in ServiceDay._fields:
        if field in ("noise", "third_party"):
            assert getattr(mine, field) == getattr(theirs, field), field
        else:
            assert_same_array(getattr(mine, field), getattr(theirs, field), field)
    for service in world.services:
        flows = plan.flow_service(service.name)
        mix, codes = former_flow_mix(world, service.name, day)
        assert_same_array(flows.mix, mix, f"{service.name} mix")
        assert_same_array(flows.mix_codes, codes, f"{service.name} mix_codes")
        infra = world.infrastructure_for(service.name)
        cumulative, parts = former_server_plan(infra, day)
        assert_same_array(flows.servers.cumulative, cumulative, f"{service.name} servers")
        for index, (offset, active, domains, total) in enumerate(parts):
            part = flows.servers._part(index)
            assert part[:2] == (offset, active), service.name
            assert type(part[1]) is int
            assert part[2] is infra._domain_layout()[1][index]
            assert_same_array(part[3].cumulative, domains, f"{service.name} domains")
            assert part[3].total == total and type(part[3].total) is float


_GOLDEN_CONFIGS = {
    "small_study:7": lambda: small_study(7),
    "small_study:17": lambda: small_study(17),
    "small_study:23": lambda: small_study(23),
    "tiny_config:7": lambda: tiny_config(7),
    "tiny_config:17": lambda: tiny_config(17),
    "tiny_config:23": lambda: tiny_config(23),
    "multiblock:17": lambda: multiblock_config(17),
    "checkpoint_fixture:17": fixture_config,
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_every_planned_day_is_the_former_plan(name):
    study = LongitudinalStudy(_GOLDEN_CONFIGS[name]())
    for day in sorted(study.planned_days()):
        assert_day_is_former(study.generator, day)


@pytest.mark.parametrize("day", [D(2013, 1, 1), D(2016, 12, 25), D(2017, 12, 31), D(2019, 3, 4)])
def test_a_day_outside_the_span_is_a_one_row_plan(day):
    generator = TrafficGenerator(LongitudinalStudy(tiny_config(17)).world)
    assert not generator.world.config.start <= day <= generator.world.config.end
    plan = DayPlan(generator, day)
    assert plan._plan.days == 1 and plan._row == 0
    assert_day_is_former(generator, day)


def test_the_plan_is_built_once_on_the_first_day():
    """Not by the study's constructor (``setup_s`` would carry it), and
    then shared by every day of the span."""
    study = LongitudinalStudy(tiny_config(17))
    generator = study.generator
    assert generator._plan is None
    days = sorted(study.planned_days())
    first, last = DayPlan(generator, days[0]), DayPlan(generator, days[-1])
    assert first._plan is last._plan is generator._plan
    span = study.world.config.end.toordinal() - study.world.config.start.toordinal() + 1
    assert generator._plan.days == span
