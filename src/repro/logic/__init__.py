"""First-order logic with 64-bit two's-complement arithmetic.

This package is the *lingua franca* of the whole system: the VC generator
produces formulas, the prover builds proofs about them, the LF layer encodes
them, and the abstract machine's safety checks are their semantics.

The semantic domain is the unbounded integers.  Every machine-level operator
(``add64``, ``and64``, ``sel`` ...) is a total function that reduces its
operands modulo 2**64 first, exactly mirroring the paper's definition
``e1 (+) e2 = (e1 + e2) mod 2**64``.  This choice makes the arithmetic axiom
schemas in :mod:`repro.proof.rules` unconditionally sound.
"""
