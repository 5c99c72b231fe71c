"""Curve primitives for the world model.

Every longitudinal quantity in the ground truth — service popularity,
per-user volume, protocol shares, CDN traffic shares, IP pool sizes — is a
function of the calendar date.  This module provides the few shapes needed
to encode the paper's dynamics: piecewise-linear trends, logistic adoption,
sudden steps (protocol launches), and temporary dips (the QUIC kill
switch), plus composition.
"""

from __future__ import annotations

import bisect
import datetime
import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple, TypeVar

Curve = Callable[[datetime.date], float]
K = TypeVar("K")


def _ordinal(day: datetime.date) -> float:
    return float(day.toordinal())


def constant(value: float) -> Curve:
    """A flat curve."""
    return lambda day: value


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation through (date, value) knots, clamped outside.

    A day strictly between two knots is found by bisecting the knots'
    ordinals, kept beside the knots; the value is the same float
    expression a scan from the left would compute: on an inner knot's
    own day it is ``left + 1.0 * (right - left)``, not the knot value.
    """

    knots: Tuple[Tuple[datetime.date, float], ...]
    _days: List[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.knots:
            raise ValueError("at least one knot required")
        dates = [knot[0] for knot in self.knots]
        if dates != sorted(dates):
            raise ValueError("knots must be sorted by date")
        if len(set(dates)) != len(dates):
            raise ValueError("duplicate knot dates")
        object.__setattr__(self, "_days", [day.toordinal() for day in dates])

    def __call__(self, day: datetime.date) -> float:
        knots, days, ordinal = self.knots, self._days, day.toordinal()
        if ordinal <= days[0]:
            return knots[0][1]
        if ordinal >= days[-1]:
            return knots[-1][1]
        index = bisect.bisect_left(days, ordinal)  # first knot on or after day
        left_value, right_value = knots[index - 1][1], knots[index][1]
        span = float(days[index]) - float(days[index - 1])
        fraction = (float(ordinal) - float(days[index - 1])) / span
        return left_value + fraction * (right_value - left_value)


def piecewise(*knots: Tuple[datetime.date, float]) -> Curve:
    """Shorthand constructor for :class:`PiecewiseLinear`."""
    return PiecewiseLinear(tuple(knots))


def logistic(
    midpoint: datetime.date,
    ceiling: float,
    steepness_days: float,
    floor: float = 0.0,
) -> Curve:
    """Logistic adoption: ``floor`` → ``ceiling`` centred on ``midpoint``.

    ``steepness_days`` is the time scale of the transition (smaller is
    sharper).
    """
    if steepness_days <= 0:
        raise ValueError("steepness_days must be positive")
    mid = _ordinal(midpoint)

    def curve(day: datetime.date) -> float:
        z = (_ordinal(day) - mid) / steepness_days
        return floor + (ceiling - floor) / (1.0 + math.exp(-z))

    return curve


def step(when: datetime.date, before: float, after: float) -> Curve:
    """A hard step on ``when`` (the paper's 'sudden changes')."""
    return lambda day: before if day < when else after


def launched(when: datetime.date, curve_after: Curve) -> Curve:
    """Zero before a launch date, ``curve_after`` from then on."""
    return lambda day: 0.0 if day < when else curve_after(day)


def dip(
    base: Curve, start: datetime.date, end: datetime.date, factor: float
) -> Curve:
    """Multiply ``base`` by ``factor`` inside [start, end) — e.g. the
    December-2015 QUIC disable (event D)."""
    return lambda day: base(day) * (factor if start <= day < end else 1.0)


def scaled(base: Curve, factor: float) -> Curve:
    return lambda day: base(day) * factor


def added(*curves: Curve) -> Curve:
    return lambda day: sum(curve(day) for curve in curves)


def multiplied(*curves: Curve) -> Curve:
    def curve(day: datetime.date) -> float:
        product = 1.0
        for factor in curves:
            product *= factor(day)
        return product

    return curve


def clamped(base: Curve, low: float = 0.0, high: float = 1.0) -> Curve:
    return lambda day: min(high, max(low, base(day)))


def normalized_mix(
    components: Sequence[Tuple[K, Curve]]
) -> Callable[[datetime.date], List[Tuple[K, float]]]:
    """Turn weighted component curves into a share mix summing to 1.

    Components whose weight is ≤ 0 on a date are dropped.  If every weight
    is zero the mix is empty.  A component is named by any key.
    """

    def mix(day: datetime.date) -> List[Tuple[K, float]]:
        weights = [(name, curve(day)) for name, curve in components]
        weights = [(name, weight) for name, weight in weights if weight > 0.0]
        total = sum(weight for _, weight in weights)
        if total <= 0.0:
            return []
        return [(name, weight / total) for name, weight in weights]

    return mix
