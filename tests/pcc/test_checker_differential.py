"""The two trusted LF checkers agree on mutated proofs.

:func:`repro.lf.typecheck.check_proof_term` (memoized, one pass per
application spine) and :func:`repro.lf.minicheck.minicheck_proof` (the
independent reference) must agree on accept or reject for every LF term,
not only on the proofs the producer ships.  Each example decodes the
proof of filter1–4 or the checksum loop from its container and mutates it
at the LF level:

* replace a subterm with another subterm of the same proof;
* swap two arguments of an application spine, or drop one;
* change an integer literal;
* wrap a subterm ``t`` in ``(λx:T. x) t``, where ``T`` is ``t``'s type
  when ``t`` is closed (the redex is then a sound β-expansion) and
  ``tm`` otherwise;
* pass a side-conditioned constant short of its arity: a full
  application ``c a1 … an`` becomes ``(λf:T. f ak+1 … an) (c a1 … ak)``,
  which types exactly like the original but must be rejected.

Subterms are replaced by identity, at every place the proof DAG shares
them.  A disagreement is a soundness hole in one of the two checkers.
Tier-1 runs a few dozen mutants; ``--hypothesis-profile=ci`` (registered
in ``tests/conftest.py``) runs that profile's count.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.errors import LfError
from repro.lf.encode import encode_formula
from repro.lf.minicheck import minicheck_proof
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import (
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfVar,
    lf_app,
    shift,
    spine,
    subst,
)
from repro.lf.typecheck import check_proof_term, infer_type
from repro.pcc import validate
from repro.pcc.container import PccBinary, unpack_proof

PROGRAMS = ("filter1", "filter2", "filter3", "filter4", "checksum")

MUTATIONS = ("replace", "swap", "drop", "literal", "beta", "partial")

_CI = settings.get_profile("ci")
EXAMPLES = _CI.max_examples if settings.default is _CI else 30


class _Proof:
    """A shipped proof, its expected type, and its distinct nodes."""

    def __init__(self, blob: bytes, policy) -> None:
        binary = PccBinary.from_bytes(blob)
        self.term = unpack_proof(binary.relocation, binary.proof)
        self.expected = LfApp(LfConst("pf"), encode_formula(
            validate(blob, policy).predicate, {}, 0))
        self.nodes = _nodes(self.term)
        self.spines = [node for node in self.nodes
                       if isinstance(node, LfApp)]
        self.literals = [node for node in self.nodes
                         if isinstance(node, LfInt)]
        self.guarded = [node for node in self.spines if _guarded(node)]


def _nodes(term) -> list:
    """The distinct nodes of ``term``, parents before children."""
    order, seen, stack = [], set(), [term]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        if isinstance(node, LfApp):
            stack += [node.arg, node.fn]
        elif isinstance(node, LfLam):
            stack += [node.body, node.ty]
        elif isinstance(node, LfPi):
            stack += [node.cod, node.dom]
    return order


def _guarded(node) -> bool:
    """A full application of a side-conditioned constant."""
    head, args = spine(node)
    entry = (SIGNATURE.entries.get(head.name)
             if isinstance(head, LfConst) else None)
    return (entry is not None and entry.side_condition is not None
            and len(args) == entry.side_arity)


def _replace(term, old, new, memo: dict):
    """``term`` with the node ``old`` (by identity) replaced by ``new``."""
    if term is old:
        return new
    cached = memo.get(id(term))
    if cached is not None:
        return cached
    if isinstance(term, LfApp):
        result = LfApp(_replace(term.fn, old, new, memo),
                       _replace(term.arg, old, new, memo))
    elif isinstance(term, LfLam):
        result = LfLam(_replace(term.ty, old, new, memo),
                       _replace(term.body, old, new, memo), term.hint)
    elif isinstance(term, LfPi):
        result = LfPi(_replace(term.dom, old, new, memo),
                      _replace(term.cod, old, new, memo), term.hint)
    else:
        result = term
    memo[id(term)] = result
    return result


def _closed(term) -> bool:
    """No free de Bruijn index (shifting would change nothing)."""
    return shift(term, 1) == term


def _mutate(proof: _Proof, kind: str, data):
    """``(old node, new node)`` for one mutation of ``kind``, or None
    when the proof has nothing to mutate that way."""
    def pick(nodes):
        return nodes[data.draw(st.integers(0, len(nodes) - 1))] \
            if nodes else None

    if kind == "replace":
        return pick(proof.nodes), pick(proof.nodes)
    if kind in ("swap", "drop"):
        node = pick(proof.spines)
        head, args = spine(node)
        if kind == "drop":
            del args[data.draw(st.integers(0, len(args) - 1))]
        elif len(args) > 1:
            first = data.draw(st.integers(0, len(args) - 2))
            second = data.draw(st.integers(first + 1, len(args) - 1))
            args[first], args[second] = args[second], args[first]
        else:
            return None
        return node, lf_app(head, *args)
    if kind == "literal":
        node = pick(proof.literals)
        if node is None:
            return None
        delta = data.draw(st.sampled_from((-1, 1, 8, 1 << 63, -(1 << 64))))
        return node, LfInt(node.value + delta)
    if kind == "beta":
        node = pick(proof.nodes)
        ty = LfConst("tm")
        if _closed(node):
            try:
                ty = infer_type(node, SIGNATURE)
            except LfError:
                pass
        return node, LfApp(LfLam(ty, LfVar(0)), node)
    # "partial": hand c a1 … ak to a λ that supplies ak+1 … an.
    node = pick(proof.guarded)
    if node is None:
        return None
    head, args = spine(node)
    given_args = data.draw(st.integers(0, len(args) - 1))
    ty = SIGNATURE.entries[head.name].ty
    for arg in args[:given_args]:
        ty = subst(ty.cod, arg)
    rest = [shift(arg, 1) for arg in args[given_args:]]
    return node, LfApp(LfLam(ty, lf_app(LfVar(0), *rest)),
                       lf_app(head, *args[:given_args]))


def _verdict(check, term, expected) -> str | None:
    """None when ``check`` accepts, else the rejection's text."""
    try:
        check(term, expected, SIGNATURE)
    except LfError as error:
        return str(error)
    return None


@pytest.fixture(scope="module")
def proofs(certified_filters, filter_policy, checksum_blob):
    from repro.filters.checksum import checksum_policy

    shipped = {name: _Proof(certified_filters[name].binary.to_bytes(),
                            filter_policy)
               for name in PROGRAMS if name != "checksum"}
    shipped["checksum"] = _Proof(checksum_blob, checksum_policy())
    return shipped


def test_shipped_proofs_pass_both(proofs):
    for proof in proofs.values():
        assert _verdict(check_proof_term, proof.term, proof.expected) is None
        assert _verdict(minicheck_proof, proof.term, proof.expected) is None


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.sampled_from(PROGRAMS), st.sampled_from(MUTATIONS), st.data())
def test_checkers_agree_on_mutants(proofs, name, kind, data):
    proof = proofs[name]
    mutation = _mutate(proof, kind, data)
    if mutation is None:
        return
    old, new = mutation
    term = _replace(proof.term, old, new, {})
    primary = _verdict(check_proof_term, term, proof.expected)
    reference = _verdict(minicheck_proof, term, proof.expected)
    assert (primary is None) == (reference is None), (primary, reference)
    event(f"{kind}: {'rejected' if primary else 'accepted'}")
    if kind == "partial":
        assert "not fully applied" in primary
