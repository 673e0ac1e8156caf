"""Proof-object accounting used by the size benchmarks, plus structural
sanity of prover output on the shipped programs."""

from repro.proof.proofs import Proof, proof_rules_used, proof_size


class TestSharedAccounting:
    def test_diamond_proof_counts_once(self):
        leaf = Proof("truei")
        layer = Proof("andi", (), (leaf, leaf))
        top = Proof("andi", (), (layer, layer))
        assert proof_size(top) == 3
        assert proof_rules_used(top) == {"andi": 2, "truei": 1}

    def test_deep_chain(self):
        node = Proof("truei")
        from repro.logic.formulas import Truth
        for __ in range(50):
            node = Proof("andel", (Truth(),), (node,))
        assert proof_size(node) == 51


class TestShippedProofs:
    def test_filter_proofs_share_heavily(self, certified_filters):
        """The same policy facts are used at many sites; sharing must be
        visible in the node accounting (size << naive node count)."""
        for name in ("filter3", "filter4"):
            proof = certified_filters[name].proof
            rules = proof_rules_used(proof)
            # the state quantifiers: eleven registers and the memory
            assert rules.get("alli", 0) >= 11
            assert rules.get("alli_m", 0) >= 1
            assert "linarith" in rules or "arith_eval" in rules
            assert proof_size(proof) < 2000

    def test_loop_proofs_use_invariant_machinery(self):
        from repro.filters.checksum import (
            CHECKSUM_LOOP_PC,
            CHECKSUM_SOURCE,
            checksum_invariant,
            checksum_policy,
        )
        from repro.pcc import certify

        certified = certify(
            CHECKSUM_SOURCE, checksum_policy(),
            invariants={CHECKSUM_LOOP_PC: checksum_invariant()})
        rules = proof_rules_used(certified.proof)
        # two closed obligations -> two full quantifier prefixes
        assert rules["alli"] >= 22
        assert rules["alli_m"] >= 2
        # loop-bound reasoning leans on the compare-flag semantics
        assert "cmpult_true" in rules
