"""RPR001 fixture: calendar-derived times only — no wall clock, no host zone."""

import calendar
import datetime
import time

_EPOCH = datetime.date(1970, 1, 1).toordinal()


def midnight_of(day: datetime.date) -> float:
    # The epoch comes from the day's ordinal: the same under any zone.
    return float((day.toordinal() - _EPOCH) * 86400)


def start_of(day: datetime.date) -> datetime.datetime:
    # datetime.time() is a plain constructor, not a clock read.
    return datetime.datetime.combine(day, datetime.time())


def hour_of(seconds: float) -> int:
    return time.gmtime(seconds).tm_hour  # UTC: no host zone


def epoch_of(fields: tuple) -> int:
    return calendar.timegm(fields)


def study_day(ordinal: int) -> datetime.date:
    return datetime.date.fromordinal(ordinal)
