"""Curve primitives for the world model.

Every longitudinal quantity in the ground truth — service popularity,
per-user volume, protocol shares, CDN traffic shares, IP pool sizes — is a
function of the calendar date.  This module provides the few shapes needed
to encode the paper's dynamics: piecewise-linear trends, launches (zero
before a date), temporary dips (the QUIC kill switch), products, and share
mixes over weighted components.

A curve is evaluated over an array of day ordinals at once
(:meth:`Curve.over`): the study plan evaluates each one over the world's
whole span (DESIGN.md §5).  Calling a curve on a date is ``over`` of that
one ordinal.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Generic, List, NamedTuple, Sequence, Tuple, TypeVar

import numpy as np

K = TypeVar("K")


def one_day(day: datetime.date) -> np.ndarray:
    """The ordinal of ``day`` as a one-element array."""
    return np.array([day.toordinal()], dtype=np.int64)


def shared_rows(values: np.ndarray) -> np.ndarray:
    """``values`` (a row per day) or, when every row is the first bit for
    bit, that row broadcast over the days: a read-only view holding one
    row's memory."""
    bits = values.view(f"u{values.itemsize}")
    if (bits == bits[:1]).all():
        return np.broadcast_to(values[:1].copy(), values.shape)
    return values


class Curve:
    """A float quantity over the calendar."""

    __slots__ = ()

    def over(self, ordinals: np.ndarray) -> np.ndarray:
        """The value on each of ``ordinals`` (day ordinals), as float64."""
        raise NotImplementedError

    def __call__(self, day: datetime.date) -> float:
        return float(self.over(one_day(day))[0])


@dataclass(frozen=True)
class Constant(Curve):
    """A flat curve."""

    value: float

    def over(self, ordinals: np.ndarray) -> np.ndarray:
        return np.full(len(ordinals), self.value, dtype=np.float64)


def constant(value: float) -> Curve:
    return Constant(value)


@dataclass(frozen=True)
class PiecewiseLinear(Curve):
    """Linear interpolation through (date, value) knots, clamped outside.

    A day strictly between two knots is found by a left-sided search of
    the knots' ordinals; the value is ``left + fraction * (right - left)``,
    so on an inner knot's own day it is ``left + 1.0 * (right - left)``,
    not the knot value.
    """

    knots: Tuple[Tuple[datetime.date, float], ...]
    #: The knots' ordinals, and per segment between two knots: its left
    #: ordinal and value, its length in days and its rise (as floats).
    _days: np.ndarray = field(init=False, repr=False, compare=False)
    _segments: Tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.knots:
            raise ValueError("at least one knot required")
        dates = [knot[0] for knot in self.knots]
        if dates != sorted(dates):
            raise ValueError("knots must be sorted by date")
        if len(set(dates)) != len(dates):
            raise ValueError("duplicate knot dates")
        days = np.array([day.toordinal() for day in dates], dtype=np.int64)
        at, values = days.astype(np.float64), np.array([knot[1] for knot in self.knots], float)
        segments = (at[:-1], values[:-1], at[1:] - at[:-1], values[1:] - values[:-1], values)
        object.__setattr__(self, "_days", days)
        object.__setattr__(self, "_segments", segments)

    def over(self, ordinals: np.ndarray) -> np.ndarray:
        days, (left_at, left, length, rise, values) = self._days, self._segments
        if days.size == 1:
            return np.full(len(ordinals), values[0])
        # The segment ending at the first knot on or after each day, kept
        # off both ends.
        segment = np.searchsorted(days, ordinals, side="left") - 1
        np.maximum(segment, 0, out=segment)
        np.minimum(segment, days.size - 2, out=segment)
        fraction = (ordinals.astype(np.float64) - left_at[segment]) / length[segment]
        inner = left[segment] + fraction * rise[segment]
        return np.where(
            ordinals <= days[0], values[0], np.where(ordinals >= days[-1], values[-1], inner)
        )


def piecewise(*knots: Tuple[datetime.date, float]) -> Curve:
    """Shorthand constructor for :class:`PiecewiseLinear`."""
    return PiecewiseLinear(tuple(knots))


@dataclass(frozen=True)
class Launched(Curve):
    """Zero before a launch day (an ordinal), ``after`` from then on."""

    when: int
    after: Curve

    def over(self, ordinals: np.ndarray) -> np.ndarray:
        return np.where(ordinals < self.when, 0.0, self.after.over(ordinals))


def launched(when: datetime.date, curve_after: Curve) -> Curve:
    return Launched(when.toordinal(), curve_after)


@dataclass(frozen=True)
class Dip(Curve):
    """``base`` times ``factor`` inside [start, end) (ordinals)."""

    base: Curve
    start: int
    end: int
    factor: float

    def over(self, ordinals: np.ndarray) -> np.ndarray:
        inside = (ordinals >= self.start) & (ordinals < self.end)
        return self.base.over(ordinals) * np.where(inside, self.factor, 1.0)


def dip(base: Curve, start: datetime.date, end: datetime.date, factor: float) -> Curve:
    """Multiply ``base`` by ``factor`` inside [start, end) — e.g. the
    December-2015 QUIC disable (event D)."""
    return Dip(base, start.toordinal(), end.toordinal(), factor)


@dataclass(frozen=True)
class Product(Curve):
    """The product of curves, multiplied in from ``1.0`` in order."""

    factors: Tuple[Curve, ...]

    def over(self, ordinals: np.ndarray) -> np.ndarray:
        product = np.ones(len(ordinals))
        for factor in self.factors:
            product = product * factor.over(ordinals)
        return product


def multiplied(*curves: Curve) -> Curve:
    return Product(curves)


class MixRows(NamedTuple):
    """A share mix over a run of days: a row per day, a column per
    component, and which components are entries of the day's mix."""

    shares: np.ndarray
    present: np.ndarray


class Mix(Generic[K]):
    """Shares of named components over the calendar.

    Called on a date it is that day's entries: ``(key, share)`` of each
    present component, in component order.
    """

    __slots__ = ()

    @property
    def keys(self) -> Tuple[K, ...]:
        raise NotImplementedError

    def over(self, ordinals: np.ndarray) -> MixRows:
        raise NotImplementedError

    def __call__(self, day: datetime.date) -> List[Tuple[K, float]]:
        shares, present = self.over(one_day(day))
        return [
            (key, share)
            for key, share, kept in zip(self.keys, shares[0].tolist(), present[0].tolist())
            if kept
        ]


@dataclass(frozen=True)
class NormalizedMix(Mix[K]):
    """Weighted component curves as shares summing to 1.

    A component whose weight is ≤ 0 on a day is no entry of that day's
    mix; a day whose every weight is ≤ 0 has an empty mix.
    """

    components: Tuple[Tuple[K, Curve], ...]

    @property
    def keys(self) -> Tuple[K, ...]:
        return tuple(key for key, _ in self.components)

    def over(self, ordinals: np.ndarray) -> MixRows:
        weights = np.column_stack([curve.over(ordinals) for _, curve in self.components])
        present = weights > 0.0
        kept = np.where(present, weights, 0.0)
        total = np.zeros(len(ordinals))
        for column in kept.T:  # summed in component order
            total = total + column
        shares = np.divide(kept, total[:, None], out=np.zeros_like(kept), where=present)
        return MixRows(shares, present)


def normalized_mix(components: Sequence[Tuple[K, Curve]]) -> Mix[K]:
    """Turn weighted component curves into a share mix summing to 1.
    A component is named by any key."""
    return NormalizedMix(tuple(components))


@dataclass(frozen=True)
class FixedMix(Mix[K]):
    """The same shares on every day; every component is an entry."""

    entries: Tuple[Tuple[K, float], ...]

    @property
    def keys(self) -> Tuple[K, ...]:
        return tuple(key for key, _ in self.entries)

    def over(self, ordinals: np.ndarray) -> MixRows:
        rows, width = len(ordinals), len(self.entries)
        shares = np.array([share for _, share in self.entries], dtype=np.float64)
        return MixRows(np.tile(shares, (rows, 1)), np.ones((rows, width), dtype=bool))


def fixed_mix(*shares: Tuple[K, float]) -> Mix[K]:
    """Constant shares, normalized to sum to 1."""
    total = sum(share for _, share in shares)
    return FixedMix(tuple((key, share / total) for key, share in shares))
