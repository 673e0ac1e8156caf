"""Incremental certification: block-level proof patches (§ upgrades).

Every extension upgrade today regenerates and rechecks the full proof
even when one basic block changed.  But the safety predicate is a
conjunction of per-cut-point obligations (:func:`repro.vcgen.vcgen.
safety_obligations`), each depending only on its own acyclic fragment of
the control-flow graph — so an edit confined to one loop body changes
exactly one conjunct, and every other conjunct's proof can be *reused*
byte for byte from the old container via the content-addressed
:class:`repro.proof.store.ProofStore`.

The producer side (:func:`certify_incremental`) diffs basic blocks with
:mod:`repro.analysis.cfg`, recomputes the new obligations with the
ordinary trusted VC generator, harvests the old container's subproofs
into the store, proves only the obligations whose formula digest has no
stored proof, and emits a :class:`ProofPatch`: the new code and
invariants, the ordered subproof digests for every conjunct, and store
entries for just the changed ones.

The consumer side (:func:`apply_patch`) is deliberately boring: it
resolves each digest (patch entries, then the shared store, then the
base container's own subproofs), re-hashes every resolved blob against
its claimed digest, reassembles the full LF proof, and returns an
ordinary :class:`~repro.pcc.container.PccBinary` — which then goes
through the unmodified, full :func:`repro.pcc.validate.validate`
pipeline (VC recomputation + LF type-checking) before anything is
admitted.  A patch is a *transport optimization*, never a trust
shortcut: nothing in this module can admit code, and every mismatch
raises :class:`repro.errors.PatchError` (fail closed).  The
differential suite ``tests/pcc/test_incremental_differential.py`` pins
the two paths to bit-identical admission verdicts.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.alpha.encoding import decode_program, encode_program
from repro.alpha.isa import Program
from repro.alpha.parser import parse_program
from repro.analysis.cfg import build_cfg
from repro.errors import CertificationError, LfError, PatchError, PccError
from repro.lf.binary import deserialize_lf, serialize_lf
from repro.lf.encode import decode_logic_formula, encode_formula
from repro.lf.syntax import LfConst, LfTerm, lf_app, spine
from repro.logic.formulas import And, Formula, Truth
from repro.pcc.container import (
    PccBinary,
    _read_varint,
    _varint,
    pack_invariants,
    pack_proof,
    unpack_invariants,
    unpack_proof,
)
from repro.pcc.loader import policy_fingerprint
from repro.pcc.producer import canonicalize_invariants
from repro.proof.encode import encode_proof
from repro.proof.store import (
    ProofStore,
    frame_sections,
    unframe_sections,
)
from repro.prover import Prover
from repro.vcgen.policy import SafetyPolicy
from repro.vcgen.vcgen import conjoin_obligations, safety_obligations

__all__ = [
    "BlockDiff",
    "IncrementalResult",
    "ProofPatch",
    "apply_patch",
    "block_diff",
    "certify_incremental",
    "obligation_digest",
    "split_conjunction",
]

_MAGIC = b"PCCP"
_VERSION = 1
_CLOCK = time.perf_counter


def obligation_digest(formula: Formula) -> str:
    """Content address of a proof *obligation* (not of its proof).

    The store binds obligation digests to subproof digests; keying by the
    formula's canonical LF wire encoding means two obligations match only
    if the consumer-recomputed formulas are structurally identical —
    binder hints and Python hash seeds never enter the key.
    """
    return hashlib.sha256(
        frame_sections(*serialize_lf(encode_formula(formula, {}, 0)))
    ).hexdigest()


def _program_key(code: bytes, invariants: bytes) -> str:
    """Manifest key for a program's obligation list.

    The effective obligations are a pure function of (code, invariants,
    policy), so this hash plus the policy fingerprint addresses them —
    a warm upgrade chain looks up its base's obligation digests instead
    of rerunning the VC generator (producer-side shortcut only)."""
    return hashlib.sha256(
        len(code).to_bytes(4, "little") + code + invariants).hexdigest()


# -- basic-block diffing ---------------------------------------------------

@dataclass(frozen=True)
class BlockDiff:
    """Which basic blocks differ between two programs.

    ``changed`` holds new-program block indices (paired positionally with
    the old program's blocks; unmatched trailing blocks on either side
    count as changed).  This is *guidance only* — the proof patch is keyed
    by obligation digests, so a wrong diff can waste prover time but
    never admit a wrong proof.
    """

    changed: tuple[int, ...]
    old_blocks: int
    new_blocks: int

    @property
    def unchanged(self) -> int:
        return min(self.old_blocks, self.new_blocks) - len(
            [b for b in self.changed
             if b < min(self.old_blocks, self.new_blocks)])


def block_diff(old_program: Program, new_program: Program) -> BlockDiff:
    """Pairwise basic-block comparison via the analysis CFG."""
    old_cfg = build_cfg(old_program)
    new_cfg = build_cfg(new_program)
    changed: list[int] = []
    for index, block in enumerate(new_cfg.blocks):
        if index >= len(old_cfg.blocks):
            changed.append(index)
            continue
        old_block = old_cfg.blocks[index]
        if (old_program[old_block.start:old_block.end]
                != new_program[block.start:block.end]):
            changed.append(index)
    for index in range(len(new_cfg.blocks), len(old_cfg.blocks)):
        # Old blocks with no new counterpart: report against the last
        # new block so the count reflects a shrink.
        if new_cfg.blocks and (len(new_cfg.blocks) - 1) not in changed:
            changed.append(len(new_cfg.blocks) - 1)
        break
    return BlockDiff(tuple(sorted(set(changed))),
                     len(old_cfg.blocks), len(new_cfg.blocks))


# -- splitting and composing conjunction proofs ----------------------------

def _effective_parts(obligations: tuple[Formula, ...]) -> list[Formula]:
    """The obligations that survive :func:`conjoin_obligations`' unit
    laws — ``Truth`` conjuncts drop out of the fold and need no proof."""
    return [part for part in obligations if not isinstance(part, Truth)]


def split_conjunction(proof_term: LfTerm, count: int) -> list[LfTerm]:
    """Split a left-folded ``andi`` proof into its ``count`` conjunct
    subproofs, in obligation order.

    The prover proves ``And(l, r)`` with ``andi(F(l), F(r), P(l), P(r))``
    and the predicate is a left fold, so the last conjunct's proof peels
    off the right ``count - 1`` times.  Raises :class:`PatchError` if the
    term does not decompose (a base proof that certifies a differently
    shaped predicate than claimed).
    """
    if count == 0:
        return []
    parts: list[LfTerm] = []
    current = proof_term
    for __ in range(count - 1):
        head, args = spine(current)
        if head != LfConst("andi") or len(args) != 4:
            raise PatchError(
                "base proof does not decompose into the expected "
                f"conjunction of {count} obligations")
        parts.append(args[3])
        current = args[2]
    parts.append(current)
    parts.reverse()
    return parts


def _compose_conjunction(formulas: list[Formula],
                         terms: list[LfTerm]) -> LfTerm:
    """Left-fold subproofs back into one ``andi`` proof term, mirroring
    the fold in :func:`conjoin_obligations` node for node."""
    if not formulas:
        return LfConst("truei")
    accumulated_formula = formulas[0]
    accumulated_term = terms[0]
    for formula, term in zip(formulas[1:], terms[1:]):
        accumulated_term = lf_app(
            LfConst("andi"),
            encode_formula(accumulated_formula, {}, 0),
            encode_formula(formula, {}, 0),
            accumulated_term, term)
        accumulated_formula = And(accumulated_formula, formula)
    return accumulated_term


# -- the patch container ---------------------------------------------------

@dataclass(frozen=True)
class ProofPatch:
    """A block-level proof patch: everything a consumer needs to rebuild
    a full PCC binary from a base container it already holds.

    All fields are *untrusted* — the consumer recomputes obligations from
    ``code``/``invariants`` under its own policy, verifies every resolved
    subproof blob against its digest, and fully revalidates the
    reassembled container.  ``part_digests`` lists the subproof content
    address for every non-trivial conjunct of the new predicate in
    obligation order; ``entries`` carries the blobs the base container
    cannot supply (the changed blocks' fresh proofs).
    """

    base_digest: str
    fingerprint: str
    code: bytes
    invariants: bytes
    part_digests: tuple[str, ...]
    entries: Mapping[str, bytes]
    changed_blocks: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        chunks = [_MAGIC, _varint(_VERSION),
                  bytes.fromhex(self.base_digest),
                  bytes.fromhex(self.fingerprint),
                  _varint(len(self.code)), self.code,
                  _varint(len(self.invariants)), self.invariants,
                  _varint(len(self.part_digests))]
        for digest in self.part_digests:
            chunks.append(bytes.fromhex(digest))
        chunks.append(_varint(len(self.entries)))
        for digest in sorted(self.entries):
            blob = self.entries[digest]
            chunks.append(bytes.fromhex(digest))
            chunks.append(_varint(len(blob)))
            chunks.append(blob)
        chunks.append(_varint(len(self.changed_blocks)))
        for block in self.changed_blocks:
            chunks.append(_varint(block))
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProofPatch":
        try:
            return cls._parse(data)
        except PatchError:
            raise
        except (PccError, ValueError, IndexError) as error:
            raise PatchError(f"malformed proof patch: {error}") from error

    @classmethod
    def _parse(cls, data: bytes) -> "ProofPatch":
        if data[:4] != _MAGIC:
            raise PatchError("proof patch magic mismatch")
        offset = 4
        version, offset = _read_varint(data, offset)
        if version != _VERSION:
            raise PatchError(f"unsupported proof patch version {version}")

        def take(count: int) -> bytes:
            nonlocal offset
            if offset + count > len(data):
                raise PatchError("proof patch truncated")
            piece = data[offset:offset + count]
            offset += count
            return piece

        base_digest = take(32).hex()
        fingerprint = take(32).hex()
        code_len, offset = _read_varint(data, offset)
        code = take(code_len)
        inv_len, offset = _read_varint(data, offset)
        invariants = take(inv_len)
        part_count, offset = _read_varint(data, offset)
        if part_count > 1_000_000:
            raise PatchError("proof patch part count implausible")
        part_digests = tuple(take(32).hex() for __ in range(part_count))
        entry_count, offset = _read_varint(data, offset)
        if entry_count > part_count:
            raise PatchError("proof patch carries more entries than parts")
        entries: dict[str, bytes] = {}
        for __ in range(entry_count):
            digest = take(32).hex()
            blob_len, offset = _read_varint(data, offset)
            entries[digest] = take(blob_len)
        block_count, offset = _read_varint(data, offset)
        if block_count > 1_000_000:
            raise PatchError("proof patch block count implausible")
        changed: list[int] = []
        for __ in range(block_count):
            block, offset = _read_varint(data, offset)
            changed.append(block)
        if offset != len(data):
            raise PatchError("proof patch has trailing bytes")
        return cls(base_digest, fingerprint, code, invariants,
                   part_digests, entries, tuple(changed))


# -- producer side ---------------------------------------------------------

@dataclass(frozen=True)
class IncrementalResult:
    """What :func:`certify_incremental` produced, with reuse accounting.

    ``binary`` is assembled lazily by running the patch through
    :func:`apply_patch` against the base: the patch *is* the product,
    so certification never pays for composing and packing a container
    the consumer rebuilds anyway — and by construction the producer's
    container is bit-identical to the consumer's reconstruction, so the
    loader's content-addressed cache keys line up.
    """

    patch: ProofPatch
    program: Program
    predicate: Formula
    total_parts: int
    reused_parts: int
    proved_parts: int
    changed_blocks: tuple[int, ...]
    certify_seconds: float
    _base_blob: bytes = field(repr=False, compare=False, default=b"")
    _policy: SafetyPolicy | None = field(repr=False, compare=False,
                                         default=None)
    _store: ProofStore | None = field(repr=False, compare=False,
                                      default=None)
    _binary: PccBinary | None = field(repr=False, compare=False,
                                      default=None)

    @property
    def binary(self) -> PccBinary:
        if self._binary is None:
            object.__setattr__(
                self, "_binary",
                apply_patch(self.patch, self._base_blob, self._policy,
                            store=self._store))
        return self._binary

    @property
    def patch_bytes(self) -> int:
        return self.patch.size

    @property
    def full_proof_bytes(self) -> int:
        return len(self.binary.relocation) + len(self.binary.proof)


def harvest_subproofs(base: PccBinary, policy: SafetyPolicy,
                      store: ProofStore) -> dict[str, str]:
    """Split a base container's proof per obligation and put each
    subproof in the store, binding obligation digest -> subproof digest
    under the policy fingerprint.  Returns the obligation -> subproof
    digest map (also usable without the store, for patch application
    against an evicted store).

    Warm path: a recorded manifest (upgrade chains re-harvest their own
    previous result) supplies the base's obligation digests without
    rerunning the VC generator, and when every one of them is already
    bound the proof is never unpacked or re-serialized — the harvest
    costs one digest lookup per obligation.
    """
    fingerprint = policy_fingerprint(policy)
    program_key = _program_key(base.code, base.invariants)
    part_digests = store.manifest(fingerprint, program_key)
    if part_digests is None:
        program = decode_program(base.code)
        invariants = {pc: decode_logic_formula(term)
                      for pc, term
                      in unpack_invariants(base.invariants).items()}
        obligations = safety_obligations(program, policy.precondition,
                                         policy.postcondition, invariants)
        parts = _effective_parts(obligations)
        part_digests = tuple(obligation_digest(part) for part in parts)
        store.record_manifest(fingerprint, program_key, part_digests)

    bound = [store.lookup(fingerprint, digest) for digest in part_digests]
    if all(digest is not None for digest in bound):
        return dict(zip(part_digests, bound))

    proof_term = unpack_proof(base.relocation, base.proof)
    subterms = split_conjunction(proof_term, len(part_digests))
    bindings: dict[str, str] = {}
    for part_digest, subterm in zip(part_digests, subterms):
        term_digest = store.put(subterm)
        store.bind(fingerprint, part_digest, term_digest)
        bindings[part_digest] = term_digest
    return bindings


def certify_incremental(base: bytes | PccBinary, source: str | Program,
                        policy: SafetyPolicy,
                        invariants: Mapping[int, Formula] | None = None,
                        store: ProofStore | None = None,
                        ) -> IncrementalResult:
    """Certify ``source`` by patching ``base`` instead of proving from
    scratch.

    Producer-side only: the result's :class:`ProofPatch` ships to a
    consumer, and its ``binary`` is exactly what :func:`apply_patch`
    reconstructs (so the loader's content-addressed cache keys line up).
    Proofs are reused per obligation whose formula digest already has a
    stored (or base-harvested) subproof; everything fresh is proved with
    the ordinary :class:`~repro.prover.Prover` and replayed rule by rule
    as it is encoded, before it is stored.  Raises
    :class:`CertificationError` on prover failure — i.e. an unsafe
    changed block fails certification exactly as the from-scratch path
    would.
    """
    started = _CLOCK()
    store = store if store is not None else ProofStore()
    try:
        if isinstance(base, PccBinary):
            base_binary = base
            base_blob = base.to_bytes()
        else:
            base_blob = bytes(base)
            base_binary = PccBinary.from_bytes(base_blob)
        base_digest = hashlib.sha256(base_blob).hexdigest()
        fingerprint = policy_fingerprint(policy)

        if isinstance(source, str):
            program = parse_program(source)
        else:
            program = tuple(source)

        base_bindings = harvest_subproofs(base_binary, policy, store)
        base_subproofs = set(base_bindings.values())
        diff = block_diff(decode_program(base_binary.code), program)

        canonical = canonicalize_invariants(invariants or {})
        obligations = safety_obligations(program, policy.precondition,
                                         policy.postcondition, canonical)
        parts = _effective_parts(obligations)

        part_keys: list[str] = []
        part_digests: list[str] = []
        entries: dict[str, bytes] = {}
        reused = proved = 0
        for part in parts:
            part_key = obligation_digest(part)
            part_keys.append(part_key)
            bound = store.lookup(fingerprint, part_key)
            # get_blob re-hashes, so a rotted entry falls through to the
            # prover; reused subproofs are never deserialized here — the
            # consumer's apply_patch decodes whatever it resolves.
            blob = store.get_blob(bound) if bound is not None else None
            if blob is not None:
                reused += 1
                term_digest = bound
            else:
                # Encoding replays the proof's rules against the
                # obligation; the LF type check runs at validation.
                term = encode_proof(Prover().prove(part), part)
                blob = frame_sections(*serialize_lf(term))
                term_digest = store.put(term)
                store.bind(fingerprint, part_key, term_digest)
                proved += 1
            part_digests.append(term_digest)
            if term_digest not in base_subproofs:
                entries[term_digest] = blob

        predicate = conjoin_obligations(obligations)
        code_bytes = encode_program(program)
        invariant_bytes = pack_invariants(
            {pc: encode_formula(formula, {}, 0)
             for pc, formula in canonical.items()})
        store.record_manifest(fingerprint,
                              _program_key(code_bytes, invariant_bytes),
                              tuple(part_keys))
        patch = ProofPatch(
            base_digest=base_digest,
            fingerprint=fingerprint,
            code=code_bytes,
            invariants=invariant_bytes,
            part_digests=tuple(part_digests),
            entries=entries,
            changed_blocks=diff.changed,
        )
        return IncrementalResult(
            patch=patch, program=program, predicate=predicate,
            total_parts=len(parts), reused_parts=reused, proved_parts=proved,
            changed_blocks=diff.changed,
            certify_seconds=_CLOCK() - started,
            _base_blob=base_blob, _policy=policy, _store=store)
    except (CertificationError, PatchError):
        raise
    except PccError as error:
        raise CertificationError(
            f"incremental certification failed: {error}") from error


# -- consumer side ---------------------------------------------------------

def apply_patch(patch: ProofPatch | bytes, base_blob: bytes,
                policy: SafetyPolicy,
                store: ProofStore | None = None) -> PccBinary:
    """Reassemble a full PCC binary from ``patch`` and the base container.

    Untrusted input, trusted plumbing: obligations are recomputed from
    the patch's own code/invariants under the *consumer's* policy, every
    resolved subproof blob is re-hashed against its claimed digest, and
    the returned container has NOT been validated — callers must run the
    full :func:`repro.pcc.validate.validate` (the loader's
    :meth:`~repro.pcc.loader.ExtensionLoader.load_patch` does) before
    admitting anything.  Raises :class:`PatchError` on any mismatch.
    """
    if isinstance(patch, bytes):
        patch = ProofPatch.from_bytes(patch)
    if patch.fingerprint != policy_fingerprint(policy):
        raise PatchError("proof patch was produced for a different policy "
                         "fingerprint; refusing to apply")
    if hashlib.sha256(base_blob).hexdigest() != patch.base_digest:
        raise PatchError("proof patch base digest does not match the held "
                         "base container")
    try:
        base_binary = PccBinary.from_bytes(base_blob)
        program = decode_program(patch.code)
        invariants = {pc: decode_logic_formula(term)
                      for pc, term
                      in unpack_invariants(patch.invariants).items()}
        obligations = safety_obligations(program, policy.precondition,
                                         policy.postcondition, invariants)
    except PatchError:
        raise
    except PccError as error:
        raise PatchError(f"proof patch sections rejected: {error}") from error

    parts = _effective_parts(obligations)
    if len(parts) != len(patch.part_digests):
        raise PatchError(
            f"proof patch claims {len(patch.part_digests)} obligation "
            f"subproofs but the recomputed predicate has {len(parts)}")

    base_blobs = _base_subproof_blobs(base_binary, policy)
    part_terms: list[LfTerm] = []
    for digest in patch.part_digests:
        blob = patch.entries.get(digest)
        if blob is None and store is not None:
            blob = store.get_blob(digest)
        if blob is None:
            blob = base_blobs.get(digest)
        if blob is None:
            raise PatchError(
                f"proof patch references subproof {digest[:12]}... that is "
                "neither shipped, stored, nor derivable from the base")
        if hashlib.sha256(blob).hexdigest() != digest:
            raise PatchError(
                f"subproof blob for {digest[:12]}... fails its content "
                "hash; refusing to apply a tampered patch")
        try:
            part_terms.append(deserialize_lf(*unframe_sections(blob)))
        except LfError as error:
            raise PatchError(
                f"subproof blob for {digest[:12]}... does not decode: "
                f"{error}") from error

    proof_term = _compose_conjunction(parts, part_terms)
    relocation, proof_bytes = pack_proof(proof_term)
    return PccBinary(code=patch.code, relocation=relocation,
                     proof=proof_bytes, invariants=patch.invariants)


def _base_subproof_blobs(base: PccBinary,
                         policy: SafetyPolicy) -> dict[str, bytes]:
    """subproof digest -> framed blob for every conjunct of the base
    container's proof (resolution source of last resort, so patches work
    even against an empty or evicted store)."""
    try:
        program = decode_program(base.code)
        invariants = {pc: decode_logic_formula(term)
                      for pc, term
                      in unpack_invariants(base.invariants).items()}
        obligations = safety_obligations(program, policy.precondition,
                                         policy.postcondition, invariants)
        parts = _effective_parts(obligations)
        proof_term = unpack_proof(base.relocation, base.proof)
        subterms = split_conjunction(proof_term, len(parts))
    except PatchError:
        raise
    except PccError as error:
        raise PatchError(
            f"base container rejected while applying patch: {error}"
        ) from error
    blobs: dict[str, bytes] = {}
    for subterm in subterms:
        blob = frame_sections(*serialize_lf(subterm))
        blobs[hashlib.sha256(blob).hexdigest()] = blob
    return blobs
