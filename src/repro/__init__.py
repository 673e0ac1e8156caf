"""Proof-carrying code: Necula & Lee, OSDI '96, reproduced in Python.

The package implements the full PCC stack — DEC Alpha subset, first-order
logic with two's-complement arithmetic, Floyd-style VC generation, an
automatic theorem prover, LF proof representation and type checking, and
the PCC binary container — plus the paper's application (network packet
filters) and every baseline it measures against (BPF, SFI, a Modula-3-like
safe language).

Most users want the high-level API:

>>> from repro.pcc.api import CodeProducer, CodeConsumer
>>> from repro.vcgen.policy import resource_access_policy

See README.md for the tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for paper-versus-measured results.
"""

import sys

__version__ = "1.0.0"

# Safety predicates, invariants and proofs nest hundreds of connectives,
# and the VC generator, the LF checker and the prover all walk them with
# plain CPython recursion.  The limit is raised here, in the one module
# the consumer and the producer both import, so a verdict never depends
# on whether the process also loaded the prover.
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)
