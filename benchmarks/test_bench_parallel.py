"""Benchmark: parallel vs serial study execution.

The study days are independent (per-day seeds), so the pipeline scales
across processes like the paper's cluster scaled across nodes.  This
benchmark times a half-year study serially and with 4 workers.  On a
single-core host the parallel variant only measures the fork/pickle
overhead (workers can't overlap); the speedup appears with real cores —
the equal-results property is what the test suite asserts either way.
"""

import datetime


from repro.core.config import StudyConfig
from repro.core.parallel import execute_study
from repro.core.study import LongitudinalStudy
from repro.synthesis.world import WorldConfig

D = datetime.date


def quarter_config():
    return StudyConfig(
        world=WorldConfig(
            seed=5,
            adsl_count=200,
            ftth_count=100,
            start=D(2017, 1, 1),
            end=D(2017, 6, 30),
        ),
        day_stride=2,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=2,
    )


def test_study_serial(benchmark):
    def run():
        return LongitudinalStudy(quarter_config()).run()

    data = benchmark.pedantic(run, rounds=2, iterations=1)
    assert data.subscriber_days


def test_study_parallel_4workers(benchmark):
    import multiprocessing

    def run():
        return execute_study(quarter_config(), workers=4).data

    data = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["host_cpus"] = multiprocessing.cpu_count()
    assert data.subscriber_days
