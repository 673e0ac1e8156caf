"""The Edinburgh Logical Framework (LF) layer — proof representation and
validation by type checking (paper §2.3).

The paper represents predicates and proofs in LF so that "the validity of a
proof is implied by the well-typedness of the proof representation[;] proof
validation amounts to typechecking".  This package implements that stack:

* :mod:`repro.lf.syntax` — the dependently typed lambda calculus (de Bruijn
  terms, substitution, beta normalization),
* :mod:`repro.lf.typecheck` — the type checker, the consumer's trusted core,
* :mod:`repro.lf.signature` — first-order logic and its proof rules as an
  LF signature, each rule stated once as a constant's Π-type; arithmetic
  rules that depend on literal values carry *computational side
  conditions* (the analogue of the paper's "predicate calculus extended
  with two's-complement integer arithmetic"),
* :mod:`repro.lf.arith` — the arithmetic those side conditions compute:
  one check per guarded constant, on its decoded arguments,
* :mod:`repro.lf.encode` — encoding of formulas and terms into LF objects
  (and the decoding used by side conditions),
* :mod:`repro.lf.binary` — the binary wire format with its symbol table
  (the PCC binary's relocation + proof sections, Figure 7).
"""
