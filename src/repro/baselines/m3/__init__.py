"""The safe-language baseline: a Modula-3-like filter language (paper §3.1).

SPIN accepts kernel extensions written in the safe subset of Modula-3,
compiled by a trusted compiler that inserts bounds checks the type system
cannot eliminate — crucially, "the fact that packets are at least 64 bytes
long cannot be communicated to the compiler through the Modula-3 type
system", so *every* packet access pays a check.

We model this with a small expression language over packet bytes
(:mod:`repro.baselines.m3.lang`) and two toy compilers to Alpha code
(:mod:`repro.baselines.m3.compile`):

* **plain** — packet fields are loaded a byte at a time, one bounds check
  per byte (the DEC SRC Modula-3 model);
* **VIEW** — the packet is safely cast to an array of aligned 64-bit
  words, one bounds check per word access (the VIEW extension; the paper
  measured it ~20% faster).

A failed check terminates the filter and rejects the packet, mirroring
the language's runtime exception.  The compiled output is ordinary Alpha
code, so it runs on the same concrete machine and — because the inserted
checks make it safe — can even be certified as PCC (the §4 "certifying
compiler" direction).
"""

from repro.baselines.m3.lang import (
    Const,
    Len,
    PacketByte,
    ViewWord,
    Bin,
    If,
    evaluate,
)
from repro.baselines.m3.compile import compile_plain, compile_view
from repro.baselines.m3.programs import M3_FILTERS, M3_VIEW_FILTERS

__all__ = [
    "Const",
    "Len",
    "PacketByte",
    "ViewWord",
    "Bin",
    "If",
    "evaluate",
    "compile_plain",
    "compile_view",
    "M3_FILTERS",
    "M3_VIEW_FILTERS",
]
