"""RPR001 fixture: host-time-zone reads inside a synthesis module."""

import datetime
import time
from time import localtime as local


def midnight_of(day: datetime.date) -> float:
    return datetime.datetime.combine(day, datetime.time()).timestamp()  # banned: host zone


def epoch_of(fields: tuple) -> float:
    return time.mktime(fields)  # banned: host zone


def hour_of(seconds: float) -> int:
    return time.localtime(seconds).tm_hour + local(seconds).tm_hour  # banned: both
