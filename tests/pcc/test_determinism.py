"""Cross-process determinism of the content-addressed surfaces.

The loader caches on sha256 of bytes, and negotiation caches accept
decisions on :meth:`PolicyProposal.digest` — both only work if the same
logical input produces the same key in *every* process, regardless of
``PYTHONHASHSEED``.  These tests pin the digests to literals (so any
encoding change shows up as a diff, not a silent cache-miss regression)
and re-derive one in a subprocess with a different hash seed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.filters.checksum import (
    CHECKSUM_LOOP_PC,
    CHECKSUM_SOURCE,
    checksum_invariant,
    checksum_policy,
)
from repro.filters.kv import KV_PROGRAMS, kv_packet_policy
from repro.filters.policy import packet_filter_policy
from repro.filters.programs import FILTERS
from repro.lf.encode import encode_formula
from repro.logic.formulas import conj, ge
from repro.logic.terms import Var
from repro.pcc import certify
from repro.pcc.loader import ExtensionLoader
from repro.pcc.negotiate import PolicyProposal, propose_policy
from repro.proof.store import subproof_digest

#: propose_policy(packet_filter_policy(), conj([ge(Var('r2'), 64)])) —
#: i.e. "the frame is at least the contract minimum", the implication
#: every negotiation demo in this repo starts from.
PINNED_PROPOSAL_DIGEST = \
    "c026993f62de0d4808932231c7971019ac46950b228eb0a387c40936bba1282e"

#: PolicyProposal(b"precondition", b"stream", b"proof-table",
#: b"proof-stream") — pins the digest *format* (length-prefixed sha256)
#: independently of the LF encoder.
PINNED_RAW_DIGEST = \
    "e822be4e0b2d34761e0503ab38ae16c94ec3d4865665a1f92c41908ec860526e"

#: subproof_digest(encode_formula(checksum_invariant(), {}, 0)) — the
#: proof store's content address for the checksum loop invariant.  The
#: store shares subproofs *across processes* (a producer harvests, a
#: later producer reuses), so this key must be a pure function of term
#: structure: canonical LF wire encoding, length-framed, sha256.
PINNED_SUBPROOF_DIGEST = \
    "bec0573c6008d11f19c6a99488c569b9b49a66425b85da2114e87b4627d7cb5b"

SUBPROOF_SNIPPET = """
from repro.filters.checksum import checksum_invariant
from repro.lf.encode import encode_formula
from repro.proof.store import subproof_digest
print(subproof_digest(encode_formula(checksum_invariant(), {}, 0)))
"""

DIGEST_SNIPPET = """
from repro.filters.policy import packet_filter_policy
from repro.logic.formulas import conj, ge
from repro.logic.terms import Var
from repro.pcc.negotiate import propose_policy
proposal = propose_policy(packet_filter_policy(),
                          conj([ge(Var('r2'), 64)]))
print(proposal.digest())
"""


#: sha256 of each corpus program's container, certified as
#: ``perfbench/common.certify_programs`` certifies it (same policies, same
#: invariants).  A producer change that alters one proof step, one
#: encoding choice or the symbol-table order moves these.
PINNED_CONTAINER_DIGESTS = {
    "filter1":
        "fe8dbb2752ca14a429f81836140a66d3ee8fe28b539cb720482dbb5bfbec52fe",
    "filter2":
        "ff84d7b5f2185d68f2ca10beec3e3390116a678c4c681dbda82e21b7fcb77688",
    "filter3":
        "53b731184082563e94ab4b79395af2795508472cf840d3e056a1cec35129cd92",
    "filter4":
        "0f6dfcc97befe54d9acffc8c01488741afd73e809a5bf7d1f7b410570fbb67a0",
    "checksum":
        "29cc85245219d17ce908a09289001f97865689178ed6166d1d76c6852a26f82a",
    "kv-insert":
        "744e57d8fc58022b7f76eac48b7ef551e8eca017dd72dbcdd9d6fed5a0169c8c",
    "kv-evict":
        "37bb32916b6eb3f622ff584c4da34a0a3f257961b690e38d876f91bc64623b8d",
    "nat-rewrite":
        "711e08b883bf118140e92e5b03edc5cabf5f36663f901df03d1f3111f72ef578",
    "lb-balance":
        "25b619c02a9420baf4635346dc0ac448e0854375ba24ef3c140675ffdc2de60d",
}

CONTAINER_SNIPPET = """
import hashlib
from repro.filters.kv import KV_PROGRAMS, kv_packet_policy
from repro.pcc import certify
spec = {spec.name: spec for spec in KV_PROGRAMS}["kv-evict"]
result = certify(spec.source, kv_packet_policy(),
                 invariants=spec.invariants())
print(hashlib.sha256(result.binary.to_bytes()).hexdigest())
"""


def _corpus() -> dict:
    """name -> (source, policy factory, invariants or None)."""
    corpus = {spec.name: (spec.source, packet_filter_policy, None)
              for spec in FILTERS}
    corpus["checksum"] = (CHECKSUM_SOURCE, checksum_policy,
                          {CHECKSUM_LOOP_PC: checksum_invariant()})
    for spec in KV_PROGRAMS:
        corpus[spec.name] = (spec.source, kv_packet_policy,
                             spec.invariants())
    return corpus


@pytest.mark.parametrize("name", sorted(PINNED_CONTAINER_DIGESTS))
def test_container_digest_is_pinned(name):
    source, policy, invariants = _corpus()[name]
    blob = certify(source, policy(), invariants=invariants).binary.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == \
        PINNED_CONTAINER_DIGESTS[name]


def test_container_digest_is_hash_seed_independent():
    """A corpus container certified in a subprocess under another
    PYTHONHASHSEED must hash to its pinned digest."""
    env = dict(os.environ)
    current = env.get("PYTHONHASHSEED", "random")
    env["PYTHONHASHSEED"] = "12345" if current != "12345" else "0"
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = str(src)
    output = subprocess.run(
        [sys.executable, "-c", CONTAINER_SNIPPET], env=env,
        capture_output=True, text=True, check=True)
    assert output.stdout.strip() == PINNED_CONTAINER_DIGESTS["kv-evict"]


def _proposal():
    return propose_policy(packet_filter_policy(),
                          conj([ge(Var("r2"), 64)]))


def test_proposal_digest_is_pinned():
    assert _proposal().digest() == PINNED_PROPOSAL_DIGEST


def test_raw_digest_format_is_pinned():
    proposal = PolicyProposal(b"precondition", b"stream",
                              b"proof-table", b"proof-stream")
    assert proposal.digest() == PINNED_RAW_DIGEST


def test_digest_survives_wire_round_trip():
    proposal = _proposal()
    assert PolicyProposal.from_bytes(
        proposal.to_bytes()).digest() == proposal.digest()


def test_digest_is_hash_seed_independent():
    """The whole pipeline — prover, LF encoder, digest — rerun in a
    subprocess under a different PYTHONHASHSEED must reproduce the
    pinned digest bit-for-bit."""
    env = dict(os.environ)
    current = env.get("PYTHONHASHSEED", "random")
    env["PYTHONHASHSEED"] = "1" if current != "1" else "2"
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = str(src)
    output = subprocess.run(
        [sys.executable, "-c", DIGEST_SNIPPET], env=env,
        capture_output=True, text=True, check=True)
    assert output.stdout.strip() == PINNED_PROPOSAL_DIGEST


def test_subproof_digest_is_pinned():
    assert subproof_digest(
        encode_formula(checksum_invariant(), {}, 0)) == \
        PINNED_SUBPROOF_DIGEST


def test_subproof_digest_is_hash_seed_independent():
    """The proof store's content address rerun under a different
    PYTHONHASHSEED must reproduce the pinned digest bit-for-bit — a
    seed-dependent key would silently break cross-process subproof
    sharing (every lookup a miss) and, worse, patch entry resolution."""
    env = dict(os.environ)
    current = env.get("PYTHONHASHSEED", "random")
    env["PYTHONHASHSEED"] = "1" if current != "1" else "2"
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = str(src)
    output = subprocess.run(
        [sys.executable, "-c", SUBPROOF_SNIPPET], env=env,
        capture_output=True, text=True, check=True)
    assert output.stdout.strip() == PINNED_SUBPROOF_DIGEST


def test_loader_stats_invariant_under_submission_order(certified_filters):
    """validate_batch outcomes and the loads/hits/misses ledger depend
    only on the multiset of submissions, not their order."""
    policy = packet_filter_policy()
    blobs = [certified.binary.to_bytes()
             for name, certified in sorted(certified_filters.items())
             if name.startswith("filter")]
    submissions = blobs + blobs[:2] + [b"garbage"]

    ledgers = []
    for ordering in (submissions, list(reversed(submissions))):
        loader = ExtensionLoader(policy)
        outcomes = loader.validate_batch(ordering)
        stats = loader.stats()
        ledgers.append({
            "ok": sorted(item.ok for item in outcomes),
            "loads": stats.loads,
            "hits": stats.hits,
            "misses": stats.misses,
        })
    assert ledgers[0] == ledgers[1]
    assert ledgers[0]["ok"].count(True) == len(blobs) + 2
