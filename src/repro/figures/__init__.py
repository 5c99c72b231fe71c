"""Figure modules — one per table/figure of the paper, plus shared helpers.

Each module exposes ``compute(data) -> Fig<N>Data`` (stage 2 over a
:class:`~repro.core.study.StudyData`) and ``report(fig) -> List[str]``
(paper-vs-measured lines).  Table 1's ``compute`` takes a rule set
instead of study data.

===================  =====================================================
module               paper content
===================  =====================================================
``table1``           domain → service association examples
``fig02_ccdf``       CCDF of per-subscriber daily traffic, 2014 vs 2017
``fig03_volume_trend``  54-month per-subscription traffic trend
``fig04_hourly_ratio``  hour-of-day download ratio 2017/2014
``fig05_services``   service popularity and byte-share heatmaps (ADSL)
``fig06_video_p2p``  P2P, Netflix, YouTube panels
``fig07_social``     SnapChat, WhatsApp, Instagram panels
``fig08_protocols``  web-protocol breakdown with events A-F
``fig09_autoplay``   Facebook video auto-play volume series (2014)
``fig10_rtt``        min-RTT CDFs, April 2014 vs April 2017
``fig11_infrastructure``  FB/IG/YT infrastructure evolution
===================  =====================================================
"""

from repro.figures import (
    fig02_ccdf,
    fig03_volume_trend,
    fig04_hourly_ratio,
    fig05_services,
    fig06_video_p2p,
    fig07_social,
    fig08_protocols,
    fig09_autoplay,
    fig10_rtt,
    fig11_infrastructure,
    table1,
)

#: Figure name → module, in paper order.  The names are the public ones:
#: ``repro run --figure NAME``, ``GET /v1/runs/{id}/figures/{name}`` and
#: the ``figures`` list of a run's ``results.json``.
FIGURES = {
    "table1": table1,
    "fig02": fig02_ccdf,
    "fig03": fig03_volume_trend,
    "fig04": fig04_hourly_ratio,
    "fig05": fig05_services,
    "fig06": fig06_video_p2p,
    "fig07": fig07_social,
    "fig08": fig08_protocols,
    "fig09": fig09_autoplay,
    "fig10": fig10_rtt,
    "fig11": fig11_infrastructure,
}
