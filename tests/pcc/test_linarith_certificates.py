"""``linarith`` steps ship a Farkas certificate the consumer checks in one
pass, so the consumer never searches.

Two attacks on that check.  The Fourier-Motzkin bomb is filter1's code
with the proof ``impi a c (λh:pf a. linarith a c h)``, where ``a`` is 126
``le`` atoms over 4 opaque ground atoms whose coefficient signs split
evenly in every column: a checker that eliminated variables itself would
build millions of rows before giving up.  A tampered certificate is
filter4's own container with one nonzero weight zeroed or doubled.

The side conditions' sharing bombs are filter1's code with the proof
``arith_eval (eq t_k t_k)`` or ``norm_mod_eq t_k t_k``, where ``t_0 = 1``
and ``t_{k+1} = add t_k t_k`` is shared on the wire: a walker that
expands the DAG into a tree does 2^k work on a container of a few hundred
bytes.
"""

import random
import time

import pytest

from repro.errors import ValidationError
from repro.lf.arith import linarith_rows
from repro.lf.encode import encode_formula
from repro.lf.syntax import (
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfVar,
    lf_app,
    spine,
)
from repro.logic.formulas import conj, le
from repro.logic.terms import App, Int
from repro.pcc import validate
from repro.pcc.container import PccBinary, pack_proof, unpack_proof
from repro.prover.prover import _farkas


def _bomb_atoms():
    """126 premises over 4 opaque ground atoms, 63 positive and 63
    negative coefficients per atom, and a goal over the first atom."""
    rng = random.Random(126)
    atoms = [App("and64", (Int(index + 1), Int(255))) for index in range(4)]
    signs = []
    for __ in atoms:
        column = [1] * 63 + [-1] * 63
        rng.shuffle(column)
        signs.append(column)
    premises = []
    for row in range(126):
        total = App("mul", (Int(signs[0][row] * rng.randint(1, 9)),
                            atoms[0]))
        for column in range(1, 4):
            total = App("add", (total, App(
                "mul", (Int(signs[column][row] * rng.randint(1, 9)),
                        atoms[column]))))
        premises.append(le(total, rng.randint(-50, 50)))
    return premises, le(atoms[0], 0)


def _bomb(filter1_code: bytes, certificate: bool) -> bytes:
    premises, goal = _bomb_atoms()
    a = encode_formula(conj(premises), {}, 0)
    c = encode_formula(goal, {}, 0)
    args = [a, c]
    if certificate:
        weights = LfConst("cnil")
        for __ in range(127):  # 126 premise rows, 1 negated-goal row
            weights = lf_app(LfConst("ccons"), LfInt(1), weights)
        args.append(weights)
    body = lf_app(LfConst("linarith"), *args, LfVar(0))
    proof = lf_app(LfConst("impi"), a, c,
                   LfLam(LfApp(LfConst("pf"), a), body, hint="h"))
    relocation, stream = pack_proof(proof)
    return PccBinary(filter1_code, relocation, stream).to_bytes()


def _timed_rejection(blob: bytes, policy) -> tuple[float, str]:
    """Best of three rejection times, and the reason given."""
    best = float("inf")
    for __ in range(3):
        started = time.perf_counter()
        with pytest.raises(ValidationError) as raised:
            validate(blob, policy)
        best = min(best, time.perf_counter() - started)
    return best, str(raised.value)


def test_fm_bomb_rejects_faster_than_filter4_validates(filter_policy,
                                                       certified_filters):
    started = time.perf_counter()
    validate(certified_filters["filter4"].binary.to_bytes(), filter_policy)
    filter4_seconds = time.perf_counter() - started

    code = certified_filters["filter1"].binary.code
    old_form, old_reason = _timed_rejection(_bomb(code, False),
                                            filter_policy)
    new_form, new_reason = _timed_rejection(_bomb(code, True),
                                            filter_policy)
    assert "argument type mismatch" in old_reason
    assert "'linarith'" in new_reason
    assert old_form < filter4_seconds
    assert new_form < filter4_seconds


def _sharing_bomb(filter1_code: bytes, constant: str, depth: int) -> bytes:
    term = LfInt(1)
    for __ in range(depth):
        term = lf_app(LfConst("add"), term, term)
    if constant == "arith_eval":
        proof = lf_app(LfConst("arith_eval"),
                       lf_app(LfConst("eq"), term, term))
    else:
        proof = lf_app(LfConst(constant), term, term)
    relocation, stream = pack_proof(proof)
    return PccBinary(filter1_code, relocation, stream).to_bytes()


#: Depth 22 and 24 take about 10 s each in a side condition that walks
#: the expanded tree (4x per two levels); 64 is a container of about
#: 455 bytes.
@pytest.mark.parametrize("constant, depth", [
    ("arith_eval", 22), ("arith_eval", 64),
    ("norm_mod_eq", 24), ("norm_mod_eq", 64),
])
def test_sharing_bomb_rejects_faster_than_filter4_validates(
        filter_policy, certified_filters, constant, depth):
    started = time.perf_counter()
    validate(certified_filters["filter4"].binary.to_bytes(), filter_policy)
    filter4_seconds = time.perf_counter() - started

    blob = _sharing_bomb(certified_filters["filter1"].binary.code,
                         constant, depth)
    seconds, reason = _timed_rejection(blob, filter_policy)
    assert "does not prove the safety predicate" in reason
    assert seconds < filter4_seconds


def test_prover_gives_up_on_the_bomb():
    """The producer's elimination stops at its row cap, inside the
    second round, instead of building its millions of rows."""
    premises, goal = _bomb_atoms()
    (rows,) = linarith_rows(goal, premises)
    assert _farkas(rows) is None


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


def _first_weighted_cons(term):
    """The first ``ccons w rest`` with ``w != 0`` in a ``linarith``
    certificate of ``term``."""
    stack, seen = [term], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        head, args = spine(node)
        if head == LfConst("linarith") and len(args) == 4:
            cons = args[2]
            while spine(cons)[0] == LfConst("ccons"):
                weight, rest = spine(cons)[1]
                if weight.value:
                    return cons
                cons = rest
        if isinstance(node, LfApp):
            stack.extend((node.arg, node.fn))
        elif isinstance(node, LfLam):
            stack.extend((node.body, node.ty))
    raise AssertionError("no nonzero weight found")


@pytest.mark.parametrize("tamper", [lambda w: 0, lambda w: 2 * w],
                         ids=["zeroed", "doubled"])
def test_tampered_weight_is_rejected(filter_policy, certified_filters,
                                     tamper):
    binary = certified_filters["filter4"].binary
    validate(binary, filter_policy)
    proof = unpack_proof(binary.relocation, binary.proof)
    cons = _first_weighted_cons(proof)
    weight, rest = spine(cons)[1]
    forged = lf_app(LfConst("ccons"), LfInt(tamper(weight.value)), rest)
    relocation, stream = pack_proof(_replace(proof, cons, forged, {}))
    tampered = PccBinary(binary.code, relocation, stream, binary.invariants)
    with pytest.raises(ValidationError,
                       match="side condition of 'linarith' failed"):
        validate(tampered.to_bytes(), filter_policy)
