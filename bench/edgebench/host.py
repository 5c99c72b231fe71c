"""Host fingerprint recorded beside every result.

A wall-clock number means nothing without the machine it came from, so
each run record carries the CPU count the scheduler grants, the
interpreter and NumPy versions, and ``host.parallel_efficiency`` — how
much of a second core two busy processes actually get.  That last
number explains (never gates) the pooled workloads: on shared vCPUs two
workers can be *slower* than one.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

#: A fresh interpreter per burner: no fork of a process that may already
#: run threads, and nothing of the harness is imported into the burner.
_BURN = "t = 0\nfor v in range(4000000):\n    t += v * v\n"


def _time_burners(count: int) -> float:
    started = time.perf_counter()
    burners = [subprocess.Popen([sys.executable, "-c", _BURN]) for _ in range(count)]
    for burner in burners:
        burner.wait()
    return time.perf_counter() - started


def parallel_efficiency() -> float:
    """One burner's time ÷ the time two concurrent burners need.

    1.0 means two real cores, 0.5 means the two processes shared one.
    """
    # The faster of two tries each: the host's speed drifts over seconds,
    # and a slow solo try would read as more than two cores.
    single = min(_time_burners(1) for _ in range(2))
    both = min(_time_burners(2) for _ in range(2))
    return single / both if both > 0 else 0.0


def fingerprint() -> dict:
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without the call
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": affinity,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
