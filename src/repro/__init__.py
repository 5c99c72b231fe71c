"""repro — a reproduction of "Five Years at the Edge: Watching Internet
from the ISP Network" (Trevisan et al., CoNEXT 2018).

The package rebuilds the paper's measurement pipeline end to end:

* :mod:`repro.tstat` — the Tstat-equivalent passive probe (flow metering,
  DPI, DN-Hunter, RTT estimation, flow logs);
* :mod:`repro.packets` / :mod:`repro.protocols` — wire-format codecs the
  probe parses (Ethernet/IPv4/TCP/UDP, DNS, TLS, HTTP, gQUIC, FB-Zero);
* :mod:`repro.services` / :mod:`repro.routing` — domain→service rules
  (Table 1) and monthly RIB → ASN joins;
* :mod:`repro.dataflow` — the Spark-like two-stage analytics substrate;
* :mod:`repro.synthesis` — the world model substituting the proprietary
  five-year traces (see DESIGN.md §2);
* :mod:`repro.analytics` / :mod:`repro.figures` — stage-1/stage-2 jobs and
  one module per paper figure;
* :mod:`repro.core` — :class:`~repro.core.study.LongitudinalStudy`, the
  end-to-end orchestration, run by :func:`~repro.core.parallel.execute_study`.

Quickstart::

    from repro import small_study
    from repro.core.parallel import execute_study
    from repro.figures import fig03_volume_trend

    data = execute_study(small_study(), workers=1).data
    print("\n".join(fig03_volume_trend.report(fig03_volume_trend.compute(data))))
"""

from repro.core.config import COMPARISON_MONTHS, StudyConfig, small_study
from repro.core.study import LongitudinalStudy, StudyData
from repro.synthesis.world import World, WorldConfig

__version__ = "1.0.0"

__all__ = [
    "COMPARISON_MONTHS",
    "LongitudinalStudy",
    "StudyConfig",
    "StudyData",
    "World",
    "WorldConfig",
    "small_study",
    "__version__",
]
