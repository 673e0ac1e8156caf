"""Floyd-style verification-condition generation (paper §2.1-§2.2).

:mod:`repro.vcgen.vcgen` implements the VC rules of Figure 4, extended to
the full instruction subset and to loops via explicit invariants (§4).
:mod:`repro.vcgen.policy` defines the :class:`SafetyPolicy` container and
the concrete policies used in the paper: the resource-access service of §2
and helpers shared by the packet-filter policy in
:mod:`repro.filters.policy`.
"""
