"""Natural-deduction proofs: the producer's proof layer (§2.2).

A proof is a tree of steps (:class:`repro.proof.proofs.Proof`), each
naming a proof constant of the LF signature (:mod:`repro.lf.signature`):
the predicate-calculus rules and the two's-complement arithmetic schemas,
stated once, as the constants' Π-types.
:func:`repro.proof.encode.instantiate` reads a step off its constant's
type and :func:`repro.proof.encode.encode_proof` folds it over a tree to
build the LF object that ships.  None of this package is in the
consumer's trusted core: the consumer type-checks that object
(:mod:`repro.lf`).
"""
