"""Differential layer: incremental certification vs full recertification.

The incremental path (``repro.pcc.incremental``) is a *producer-side*
optimization riding on a trusted-checker invariant: a container
reassembled from a proof patch must be admitted or rejected exactly as a
from-scratch certification of the same program would be.  This suite is
the de Bruijn criterion applied to that claim:

* Hypothesis drives random single- and multi-block mutations of a
  multi-pass loop program through both paths and asserts identical
  admission verdicts (both certify and validate, or both fail
  certification);
* the reconstructed container is bit-identical to the producer's and
  fully revalidates, and its ``pcc.mutate`` mutants are all rejected —
  a patched proof gets no slack a shipped proof would not;
* a *poisoned* patch — a subproof swapped for a perfectly well-formed
  proof of a different obligation, with its content digest updated so
  the hash check passes — must still be rejected, proving the applied
  patch is actually rechecked rather than trusted on resolution.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CertificationError, PatchError, ValidationError
from repro.filters.checksum import (
    checksum_policy,
    multipass_checksum_source,
    multipass_invariants,
)
from repro.pcc.container import PccBinary, unpack_proof
from repro.pcc.incremental import (
    ProofPatch,
    apply_patch,
    block_diff,
    certify_incremental,
    split_conjunction,
)
from repro.pcc.loader import ExtensionLoader
from repro.pcc.mutate import mutants
from repro.pcc.producer import certify
from repro.pcc.validate import validate
from repro.proof.store import ProofStore, subproof_digest
from repro.alpha.parser import parse_program

PASSES = 3
POLICY = checksum_policy()
INVARIANTS = multipass_invariants(PASSES)


@pytest.fixture(scope="module")
def base():
    return certify(multipass_checksum_source(PASSES), POLICY,
                   invariants=INVARIANTS)


@pytest.fixture(scope="module")
def base_blob(base):
    return base.binary.to_bytes()


def _edit(shifts: dict[int, int] | None = None, commuted=()) -> str:
    return multipass_checksum_source(PASSES, shifts, commuted)


class TestBlockDiff:
    def test_identical_programs_diff_empty(self, base):
        diff = block_diff(base.program, base.program)
        assert diff.changed == ()

    def test_single_pass_edit_is_local(self, base):
        edited = parse_program(_edit(commuted={1}))
        diff = block_diff(base.program, edited)
        assert len(diff.changed) == 1
        assert diff.old_blocks == diff.new_blocks


class TestSingleBlockUpgrade:
    def test_reuses_all_but_one_obligation(self, base_blob):
        store = ProofStore()
        result = certify_incremental(base_blob, _edit(commuted={1}),
                                     POLICY, invariants=INVARIANTS,
                                     store=store)
        assert result.total_parts == PASSES + 1
        assert result.proved_parts == 1
        assert result.reused_parts == PASSES
        # The patch ships exactly the changed obligation's subproof.
        assert len(result.patch.entries) == 1

    def test_code_only_edit_reuses_everything(self, base_blob):
        """A shift edit changes the code but provably not the predicate:
        every subproof is reused, the patch ships no entries, and full
        validation still passes on the reconstruction."""
        result = certify_incremental(base_blob, _edit({1: 9}), POLICY,
                                     invariants=INVARIANTS)
        assert result.proved_parts == 0
        assert result.patch.entries == {}
        rebuilt = apply_patch(result.patch, base_blob, POLICY)
        assert rebuilt.code != PccBinary.from_bytes(base_blob).code
        validate(rebuilt, POLICY)

    def test_reconstruction_is_bit_identical(self, base_blob):
        result = certify_incremental(base_blob, _edit(commuted={0}),
                                     POLICY, invariants=INVARIANTS)
        rebuilt = apply_patch(result.patch, base_blob, POLICY)
        assert rebuilt.to_bytes() == result.binary.to_bytes()
        report = validate(rebuilt, POLICY)
        full = certify(_edit(commuted={0}), POLICY,
                       invariants=INVARIANTS)
        assert report.predicate == full.predicate

    def test_patch_wire_roundtrip(self, base_blob):
        result = certify_incremental(base_blob, _edit(commuted={2}),
                                     POLICY, invariants=INVARIANTS)
        wire = result.patch.to_bytes()
        assert ProofPatch.from_bytes(wire) == result.patch
        # Consumer can apply straight from the wire form.
        rebuilt = apply_patch(wire, base_blob, POLICY)
        validate(rebuilt, POLICY)


class TestUpgradeChains:
    def test_chain_stays_warm(self, base_blob):
        """Each upgrade in a chain commutes one more pass: exactly one
        fresh obligation per round, the rest harvested from the store
        without re-splitting the previous proof."""
        store = ProofStore()
        current = base_blob
        commuted: set[int] = set()
        for round_index in range(PASSES):
            commuted.add(round_index)
            result = certify_incremental(
                current, _edit(commuted=commuted), POLICY,
                invariants=INVARIANTS, store=store)
            assert result.proved_parts == 1
            assert result.reused_parts == PASSES
            rebuilt = apply_patch(result.patch, current, POLICY,
                                  store=store)
            validate(rebuilt, POLICY)
            current = rebuilt.to_bytes()
        stats = store.stats()
        assert stats.verify_failures == 0
        # Shared-store growth is sublinear in upgrades: PASSES rounds
        # added only PASSES fresh subproofs to the original PASSES + 1.
        assert stats.entries == 2 * PASSES + 1


class TestDifferentialVerdicts:
    @settings(max_examples=8, deadline=None)
    @given(st.dictionaries(st.integers(min_value=0, max_value=PASSES - 1),
                           st.integers(min_value=1, max_value=20),
                           max_size=PASSES),
           st.sets(st.integers(min_value=0, max_value=PASSES - 1),
                   max_size=PASSES))
    def test_safe_mutations_agree(self, base_blob, shifts, commuted):
        """Random single/multi-block mutations (code-only shift edits
        and obligation-changing address commutes, in any mix): both
        paths certify, the reconstructed container validates, and
        predicates match."""
        source = _edit(shifts, commuted)
        full = certify(source, POLICY, invariants=INVARIANTS)
        result = certify_incremental(base_blob, source, POLICY,
                                     invariants=INVARIANTS)
        assert result.reused_parts + result.proved_parts == \
            result.total_parts
        rebuilt = apply_patch(result.patch, base_blob, POLICY)
        incremental_report = validate(rebuilt, POLICY)
        full_report = validate(full.binary, POLICY)
        assert incremental_report.predicate == full_report.predicate

    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=PASSES - 1))
    def test_unsafe_mutations_rejected_by_both_paths(self, base_blob,
                                                     which):
        """Swap a pass's buffer base for the length register: the load
        runs off the buffer, and *both* paths must refuse to certify
        with the same error type."""
        source = _edit().replace(
            f"loop{which}: ADDQ   r1, r4, r5",
            f"loop{which}: ADDQ   r2, r4, r5")
        with pytest.raises(CertificationError):
            certify(source, POLICY, invariants=INVARIANTS)
        with pytest.raises(CertificationError):
            certify_incremental(base_blob, source, POLICY,
                                invariants=INVARIANTS)

    def test_mutants_of_reconstruction_rejected(self, base_blob):
        """pcc.mutate's whole corruption vocabulary against the
        reconstructed container: every mutant must fail validation,
        exactly as mutants of a from-scratch container do."""
        result = certify_incremental(base_blob, _edit(commuted={1}),
                                     POLICY, invariants=INVARIANTS)
        rebuilt = apply_patch(result.patch, base_blob, POLICY)
        blob = rebuilt.to_bytes()
        total = 0
        for kind, mutant in mutants(blob, seed=7, rounds=2):
            total += 1
            with pytest.raises(ValidationError):
                validate(mutant, POLICY)
        assert total > 0


class TestPoisonedPatches:
    def test_bitflip_in_entry_fails_hash_check(self, base_blob):
        result = certify_incremental(base_blob, _edit(commuted={1}),
                                     POLICY, invariants=INVARIANTS)
        patch = result.patch
        (digest, blob), = patch.entries.items()
        poisoned = ProofPatch(
            patch.base_digest, patch.fingerprint, patch.code,
            patch.invariants, patch.part_digests,
            {digest: blob[:40] + bytes([blob[40] ^ 1]) + blob[41:]},
            patch.changed_blocks)
        with pytest.raises(PatchError):
            apply_patch(poisoned, base_blob, POLICY)

    def test_substituted_subproof_rejected_by_full_recheck(self, base,
                                                           base_blob):
        """The strongest poison: replace the changed obligation's
        subproof with a *valid, well-formed* subproof of a different
        obligation, and fix the claimed digest so the content-hash check
        passes.  Resolution and hashing succeed; only the full proof
        recheck can catch it — and must."""
        result = certify_incremental(base_blob, _edit(commuted={1}),
                                     POLICY, invariants=INVARIANTS)
        patch = result.patch
        poison_digest, = patch.entries
        # A genuine subproof of a *different* obligation, from the base.
        base_parts = split_conjunction(
            unpack_proof(base.binary.relocation, base.binary.proof),
            PASSES + 1)
        foreign = base_parts[0]
        foreign_digest = subproof_digest(foreign)
        assert foreign_digest != poison_digest
        store = ProofStore()
        store.put(foreign)
        substituted_digests = tuple(
            foreign_digest if digest == poison_digest else digest
            for digest in patch.part_digests)
        poisoned = ProofPatch(
            patch.base_digest, patch.fingerprint, patch.code,
            patch.invariants, substituted_digests,
            {foreign_digest: store.get_blob(foreign_digest)},
            patch.changed_blocks)
        # apply_patch resolves and reassembles without complaint...
        rebuilt = apply_patch(poisoned, base_blob, POLICY)
        # ...and the mandatory full revalidation is what rejects it.
        with pytest.raises(ValidationError):
            validate(rebuilt, POLICY)
        loader = ExtensionLoader(POLICY)
        with pytest.raises(ValidationError):
            loader.load_patch(poisoned, base_blob)
        assert loader.stats().patch_rejects == 1

    def test_wrong_base_rejected(self, base_blob):
        result = certify_incremental(base_blob, _edit(commuted={1}),
                                     POLICY, invariants=INVARIANTS)
        other = certify(_edit({0: 5}), POLICY,
                        invariants=INVARIANTS).binary.to_bytes()
        with pytest.raises(PatchError):
            apply_patch(result.patch, other, POLICY)

    def test_wrong_policy_fingerprint_rejected(self, base_blob):
        from repro.filters.policy import packet_filter_policy

        result = certify_incremental(base_blob, _edit(commuted={1}),
                                     POLICY, invariants=INVARIANTS)
        with pytest.raises(PatchError):
            apply_patch(result.patch, base_blob, packet_filter_policy())

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_truncations_fail_closed(self, base_blob, data):
        result = certify_incremental(base_blob, _edit(commuted={1}),
                                     POLICY, invariants=INVARIANTS)
        wire = result.patch.to_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        with pytest.raises(PatchError):
            patch = ProofPatch.from_bytes(wire[:cut])
            apply_patch(patch, base_blob, POLICY)
