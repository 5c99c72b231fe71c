"""edgebench — the repository's end-to-end and per-layer benchmark.

``bench/run.py`` is the command; this package holds its parts:

``catalog``   names, units, directions and bounds of every metric
``harness``   one run of one workload: set up, measure, verify, report
``spans``     harness-side spans for the traced run
``host``      host fingerprint and parallel efficiency
``study`` ``lake`` ``probe`` ``service``   the six workloads
``sets``      rounds of runs interleaved across workloads, run records
"""
