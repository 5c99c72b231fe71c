"""The Tstat-equivalent passive probe and its export format.

Submodules: ``probe`` (deployment wrapper), ``meter`` (flow table + DPI),
``rtt`` (SEQ/ACK estimation), ``dnhunter`` (DNS-based naming), ``flow``
(record schema), ``logs`` (native gzip TSV logs), ``flowbatch`` (flow
records as columns), ``versions`` (probe capability history),
``outages`` (failure calendar).
"""
