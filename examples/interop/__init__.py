"""Interchange formats for probe data, kept beside the example that uses
them (``examples/interop_formats.py``): classic pcap traces (``pcap``),
IPFIX (``ipfix``) and NetFlow v5 with biflow reconstruction (``netflow``).

None of the study's paths reads or writes these formats; the package runs
with ``examples/`` on the import path, as ``python examples/<script>.py``
puts it there.
"""
