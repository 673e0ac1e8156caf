"""Network packet filters — the paper's application domain (§3).

* :mod:`repro.filters.packets` — Ethernet/ARP/IPv4/TCP/UDP packet
  synthesis and parsing (the substrate the paper gets from the network);
* :mod:`repro.filters.trace` — a seeded synthetic trace generator standing
  in for the paper's 200,000-packet CMU Ethernet trace;
* :mod:`repro.filters.policy` — the packet-filter safety policy of §3
  (precondition over packet pointer, length, and scratch memory);
* :mod:`repro.filters.programs` — the four filters, hand-coded in Alpha
  assembly with the paper's optimizations (64-bit loads + byte extraction,
  the ``((w >> 46) & 60) + 16`` TCP-port offset computation);
* :mod:`repro.filters.oracle` — straightforward Python reference
  implementations used to cross-check every filter implementation
  (PCC, BPF, SFI, M3) on every packet;
* :mod:`repro.filters.checksum` — the §4 IP-header checksum experiment:
  a looping routine certified with an explicit loop invariant;
* :mod:`repro.filters.kv` — the write-capable family (KV table, NAT
  rewriter, load balancer): store-bearing programs certified under a
  §2-style read/write policy, with loop invariants per table scan and
  pure-Python oracles for verdicts *and* post-state.
"""

from repro.filters.trace import TraceConfig, generate_trace
from repro.filters.policy import filter_registers, packet_memory
from repro.filters.programs import FILTERS
from repro.filters.oracle import ORACLES

__all__ = [
    "TraceConfig",
    "generate_trace",
    "packet_memory",
    "filter_registers",
    "FILTERS",
    "ORACLES",
]
