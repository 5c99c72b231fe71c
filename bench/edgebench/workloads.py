"""Name → workload class, in catalogue order."""

from __future__ import annotations

from typing import Dict, Type

from edgebench import catalog
from edgebench.harness import Workload
from edgebench.lake import LakeReplay
from edgebench.probe import ProbeCapture
from edgebench.service import ServiceBurst
from edgebench.study import FiveyearPooledCkpt, FiveyearSerial, HeavydaySharded

WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (
        FiveyearSerial,
        FiveyearPooledCkpt,
        HeavydaySharded,
        LakeReplay,
        ProbeCapture,
        ServiceBurst,
    )
}

assert tuple(WORKLOADS) == catalog.WORKLOAD_NAMES
