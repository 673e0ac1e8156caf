"""The proof-carrying-code mechanism itself (paper §2, Figure 1).

* :mod:`repro.pcc.container` — the PCC binary: native code, relocation
  (symbol table), proof, and loop-invariant sections, with the Figure 7
  layout accounting;
* :mod:`repro.pcc.producer` — the producer: assemble, compute the safety
  predicate, prove it, encode the proof (the "compilation & certification"
  box of Figure 1);
* :mod:`repro.pcc.validate` — the consumer: parse the untrusted container,
  recompute the safety predicate from the code it actually received, and
  type-check the enclosed proof against it ("proof validation");
* :mod:`repro.pcc.loader` — the kernel-side loading subsystem: a
  content-addressed validation cache (sha256 of the binary x policy
  fingerprint) plus parallel batch validation with per-item error
  isolation;
* :mod:`repro.pcc.api` — the high-level producer/consumer façade used by
  the examples;
* :mod:`repro.pcc.incremental` — block-level proof patches: reuse
  unchanged obligations' subproofs from a content-addressed store
  (:mod:`repro.proof.store`), ship only the changed blocks' proofs, and
  fully revalidate the reassembled container before admission.

The package exports two names.  :func:`validate` is the trusted core and
is imported eagerly; importing it loads only the checker's own modules.
:func:`certify` is resolved on first access, because the producer pulls
in the prover.
"""

from repro.pcc.validate import validate

__all__ = ["certify", "validate"]


# No submodule may be named ``certify``: importing it would bind the
# module to that package attribute, and this hook would never run.
def __getattr__(name: str):
    if name == "certify":
        from repro.pcc.producer import certify
        return certify
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
