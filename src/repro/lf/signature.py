"""The LF signature: first-order logic and its proof rules.

The signature is the consumer's *published safety-policy logic* (paper
§2.1: "a set of axioms that can be used to validate the safety predicate").
It declares:

* the syntactic classes ``tm`` (individuals), ``mem`` (memory states) and
  ``form`` (formulas), with one constructor per logic operator/predicate;
* the judgement ``pf : form -> type``;
* one constant per inference rule, whose Π-type is the rule: the only
  statement of it, which the producer also reads its proof steps off
  (:mod:`repro.proof.encode`).  Purely logical rules (and the arithmetic
  rules whose premises fully constrain them, like ``add64_exact``) are
  ordinary LF constants.  Rules whose soundness depends on *literal*
  values (mask disjointness, ground evaluation, the weights of a
  ``linarith`` Farkas certificate) carry a side condition: a decidable
  predicate on the application spine, run by the type checker at every
  full application.  The checker accepts such a constant only fully
  applied, so no proof can bind it to a variable and apply it unchecked.

A side condition decodes the constant's non-proof arguments back into
logic terms, formulas and certificate weights, by the sorts of its
Π-binders, and runs the constant's check in :mod:`repro.lf.arith`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import LfError
from repro.lf import arith
from repro.lf.encode import (
    STATE_CONSTANTS,
    decode_logic_formula,
    decode_logic_term,
    is_memory_var,
)
from repro.lf.syntax import (
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfTerm,
    LfVar,
    TYPE,
    spine,
)
from repro.logic.formulas import PREDICATES
from repro.logic.terms import OPS, WORD_MOD

SideCondition = Callable[[Sequence[LfTerm]], bool]


@dataclass(frozen=True)
class SigEntry:
    """One signature declaration."""

    name: str
    ty: LfTerm
    side_condition: SideCondition | None = None
    side_arity: int = 0


@dataclass(frozen=True)
class Signature:
    entries: dict[str, SigEntry]


# -- a tiny named-binder builder (converted to de Bruijn below) -------------

@dataclass(frozen=True)
class _Ref:
    """A named variable reference inside a signature type skeleton."""

    name: str


def _to_db(term, stack: tuple[str, ...]) -> LfTerm:
    if isinstance(term, _Ref):
        for distance, name in enumerate(reversed(stack)):
            if name == term.name:
                return LfVar(distance)
        raise LfError(f"unbound reference {term.name!r} in signature")
    if isinstance(term, (LfConst, LfInt)):
        return term
    if isinstance(term, LfApp):
        return LfApp(_to_db(term.fn, stack), _to_db(term.arg, stack))
    if isinstance(term, LfPi):
        return LfPi(_to_db(term.dom, stack),
                    _to_db(term.cod, stack + (term.hint,)), term.hint)
    if isinstance(term, LfLam):
        return LfLam(_to_db(term.ty, stack),
                     _to_db(term.body, stack + (term.hint,)), term.hint)
    raise LfError(f"bad signature skeleton node: {term!r}")


def _pi(name: str, dom, cod) -> LfPi:
    return LfPi(dom, cod, hint=name)


def _arrow(dom, cod) -> LfPi:
    # Non-dependent function space; the codomain ignores the binder, and
    # because references are named, no shifting is needed at build time.
    return LfPi(dom, cod, hint="_")


def _app(fn, *args):
    result = fn
    for arg in args:
        result = LfApp(result, arg)
    return result


_TM = LfConst("tm")
_MEM = LfConst("mem")
_FORM = LfConst("form")
_PF = LfConst("pf")
_CERT = LfConst("cert")


def _pf(formula) -> LfTerm:
    return LfApp(_PF, formula)


def _arrows(*types) -> LfTerm:
    result = types[-1]
    for dom in reversed(types[:-1]):
        result = _arrow(dom, result)
    return result


# -- side conditions ---------------------------------------------------------

def _weights(cert: LfTerm) -> tuple[int, ...]:
    """The literals of a ``ccons``/``cnil`` certificate spine."""
    weights = []
    head, args = spine(cert)
    while head == LfConst("ccons") and len(args) == 2:
        if not isinstance(args[0], LfInt):
            raise LfError("certificate weights must be integer literals")
        weights.append(args[0].value)
        head, args = spine(args[1])
    if head != LfConst("cnil") or args:
        raise LfError("certificate must be a ccons/cnil spine")
    return tuple(weights)


#: How a side condition reads a constant's argument, by the binder's sort.
_DECODERS = {_TM: decode_logic_term, _FORM: decode_logic_formula,
             _CERT: _weights}


def _side_condition(ty: LfTerm,
                    check: Callable[..., bool]) -> tuple[SideCondition, int]:
    """The side condition of a constant of type ``ty`` that runs ``check``,
    and the spine length it fires at: the length of the Π-telescope.

    At a full application the condition decodes every non-proof argument
    by its binder's sort and passes them to ``check`` in order; a proof
    premise (``pf …``) is not passed.  An argument that does not decode
    (a λ, an unknown head) fails the condition.
    """
    decoders = []
    while isinstance(ty, LfPi):
        decoders.append(None if spine(ty.dom)[0] == _PF
                        else _DECODERS[ty.dom])
        ty = ty.cod

    def condition(args: Sequence[LfTerm]) -> bool:
        try:
            decoded = [decode(arg) for decode, arg in zip(decoders, args)
                       if decode is not None]
        except LfError:
            return False
        return check(*decoded)

    return condition, len(decoders)


# -- the signature -----------------------------------------------------------

def _build_signature() -> Signature:
    entries: dict[str, SigEntry] = {}

    def declare(name: str, ty,
                side: Callable[..., bool] | None = None) -> None:
        converted = _to_db(ty, ())
        if side is None:
            entries[name] = SigEntry(name, converted)
        else:
            entries[name] = SigEntry(name, converted,
                                     *_side_condition(converted, side))

    # Syntactic classes.
    declare("tm", TYPE)
    declare("mem", TYPE)
    declare("form", TYPE)
    declare("pf", _arrow(_FORM, TYPE))
    declare("cert", TYPE)

    # Term constructors, straight from the logic operator table.
    for op, spec in OPS.items():
        if op == "sel":
            declare(op, _arrows(_MEM, _TM, _TM))
        elif op == "upd":
            declare(op, _arrows(_MEM, _TM, _TM, _MEM))
        else:
            declare(op, _arrows(*([_TM] * spec.arity), _TM))

    # Machine-state constants: free registers in loop invariants encode as
    # these (the VC generator closes over them when building the SP).
    for name in STATE_CONSTANTS:
        declare(name, _MEM if is_memory_var(name) else _TM)

    # Formula constructors.
    declare("true", _FORM)
    declare("false", _FORM)
    for connective in ("and", "or", "imp"):
        declare(connective, _arrows(_FORM, _FORM, _FORM))
    for pred, arity in PREDICATES.items():
        declare(pred, _arrows(*([_TM] * arity), _FORM))
    declare("all", _arrow(_arrow(_TM, _FORM), _FORM))
    declare("allm", _arrow(_arrow(_MEM, _FORM), _FORM))

    a, b, c = _Ref("a"), _Ref("b"), _Ref("c")
    t, m = _Ref("t"), _Ref("m")
    p = _Ref("p")

    # Predicate calculus.
    declare("truei", _pf(LfConst("true")))
    declare("andi", _pi("a", _FORM, _pi("b", _FORM, _arrows(
        _pf(a), _pf(b), _pf(_app(LfConst("and"), a, b))))))
    declare("andel", _pi("a", _FORM, _pi("b", _FORM, _arrow(
        _pf(_app(LfConst("and"), a, b)), _pf(a)))))
    declare("ander", _pi("a", _FORM, _pi("b", _FORM, _arrow(
        _pf(_app(LfConst("and"), a, b)), _pf(b)))))
    declare("impi", _pi("a", _FORM, _pi("b", _FORM, _arrow(
        _arrow(_pf(a), _pf(b)), _pf(_app(LfConst("imp"), a, b))))))
    declare("impe", _pi("a", _FORM, _pi("b", _FORM, _arrows(
        _pf(_app(LfConst("imp"), a, b)), _pf(a), _pf(b)))))
    declare("alli", _pi("p", _arrow(_TM, _FORM), _arrow(
        _pi("x", _TM, _pf(_app(p, _Ref("x")))),
        _pf(_app(LfConst("all"), p)))))
    declare("alle", _pi("p", _arrow(_TM, _FORM), _pi("t", _TM, _arrow(
        _pf(_app(LfConst("all"), p)), _pf(_app(p, t))))))
    declare("alli_m", _pi("p", _arrow(_MEM, _FORM), _arrow(
        _pi("x", _MEM, _pf(_app(p, _Ref("x")))),
        _pf(_app(LfConst("allm"), p)))))
    declare("alle_m", _pi("p", _arrow(_MEM, _FORM), _pi("t", _MEM, _arrow(
        _pf(_app(LfConst("allm"), p)), _pf(_app(p, t))))))
    declare("ori1", _pi("a", _FORM, _pi("b", _FORM, _arrow(
        _pf(a), _pf(_app(LfConst("or"), a, b))))))
    declare("ori2", _pi("a", _FORM, _pi("b", _FORM, _arrow(
        _pf(b), _pf(_app(LfConst("or"), a, b))))))
    declare("ore", _pi("a", _FORM, _pi("b", _FORM, _pi("c", _FORM, _arrows(
        _pf(_app(LfConst("or"), a, b)),
        _pf(_app(LfConst("imp"), a, c)),
        _pf(_app(LfConst("imp"), b, c)),
        _pf(c))))))
    declare("falsee", _pi("a", _FORM, _arrow(
        _pf(LfConst("false")), _pf(a))))

    def eq_f(x, y):
        return _app(LfConst("eq"), x, y)

    declare("eqrefl", _pi("t", _TM, _pf(eq_f(t, t))))
    declare("eqsym", _pi("a", _TM, _pi("b", _TM, _arrow(
        _pf(eq_f(a, b)), _pf(eq_f(b, a))))))
    declare("eqtrans", _pi("a", _TM, _pi("m", _TM, _pi("b", _TM, _arrows(
        _pf(eq_f(a, m)), _pf(eq_f(m, b)), _pf(eq_f(a, b)))))))
    declare("eqsub", _pi("p", _arrow(_TM, _FORM),
                         _pi("a", _TM, _pi("b", _TM, _arrows(
                             _pf(eq_f(a, b)), _pf(_app(p, a)),
                             _pf(_app(p, b)))))))

    # Arithmetic schemas.
    def mod64_t(x):
        return _app(LfConst("mod64"), x)

    declare("arith_eval", _pi("f", _FORM, _pf(_Ref("f"))),
            side=arith.arith_eval)
    declare("mod_word", _pi("t", _TM, _pf(eq_f(mod64_t(t), t))),
            side=arith.is_word_valued)
    declare("norm_mod_eq", _pi("a", _TM, _pi("b", _TM, _pf(
        eq_f(mod64_t(a), mod64_t(b))))), side=arith.norm_mod_eq)
    declare("word_ge0", _pi("t", _TM, _pf(
        _app(LfConst("ge"), t, LfInt(0)))), side=arith.is_word_valued)
    declare("word_lt_mod", _pi("t", _TM, _pf(
        _app(LfConst("lt"), t, LfInt(WORD_MOD)))), side=arith.is_word_valued)

    for name, (op, flag_pred, conclusion_pred) in (
            ("cmpult_true", ("cmpult", "ne", "lt")),
            ("cmpult_false", ("cmpult", "eq", "ge")),
            ("cmpule_true", ("cmpule", "ne", "le")),
            ("cmpule_false", ("cmpule", "eq", "gt")),
            ("cmpeq_true", ("cmpeq", "ne", "eq")),
            ("cmpeq_false", ("cmpeq", "eq", "ne"))):
        flag = _app(LfConst(op), a, b)
        declare(name, _pi("a", _TM, _pi("b", _TM, _arrow(
            _pf(_app(LfConst(flag_pred), flag, LfInt(0))),
            _pf(_app(LfConst(conclusion_pred), mod64_t(a), mod64_t(b)))))))

    declare("add64_exact", _pi("a", _TM, _pi("b", _TM, _arrows(
        _pf(_app(LfConst("ge"), a, LfInt(0))),
        _pf(_app(LfConst("ge"), b, LfInt(0))),
        _pf(_app(LfConst("lt"), _app(LfConst("add"), a, b),
                 LfInt(WORD_MOD))),
        _pf(eq_f(_app(LfConst("add64"), a, b),
                 _app(LfConst("add"), a, b)))))))
    declare("sub64_exact", _pi("a", _TM, _pi("b", _TM, _arrows(
        _pf(_app(LfConst("ge"), b, LfInt(0))),
        _pf(_app(LfConst("le"), b, a)),
        _pf(_app(LfConst("lt"), a, LfInt(WORD_MOD))),
        _pf(eq_f(_app(LfConst("sub64"), a, b),
                 _app(LfConst("sub"), a, b)))))))

    declare("and_ubound", _pi("a", _TM, _pi("c", _TM, _pf(
        _app(LfConst("le"), _app(LfConst("and64"), a, c), c)))),
        side=arith.and_ubound)
    declare("and_mask_disjoint", _pi("a", _TM, _pi("b", _TM, _pi(
        "c", _TM, _pf(eq_f(
            _app(LfConst("and64"), _app(LfConst("and64"), a, b), c),
            LfInt(0)))))), side=arith.and_mask_disjoint)
    declare("add_align", _pi("a", _TM, _pi("b", _TM, _pi("m", _TM, _arrows(
        _pf(eq_f(_app(LfConst("and64"), a, m), LfInt(0))),
        _pf(eq_f(_app(LfConst("and64"), b, m), LfInt(0))),
        _pf(eq_f(_app(LfConst("and64"), _app(LfConst("add64"), a, b), m),
                 LfInt(0))))))), side=arith.add_align)
    declare("srl_bound", _pi("a", _TM, _pi("b", _TM, _pi("c", _TM, _pf(
        _app(LfConst("lt"), _app(LfConst("srl64"), a, b), c))))),
        side=arith.srl_bound)
    declare("sll_align", _pi("a", _TM, _pi("b", _TM, _pi("c", _TM, _pf(
        eq_f(_app(LfConst("and64"), _app(LfConst("sll64"), a, b), c),
             LfInt(0)))))), side=arith.sll_align)
    for ext_op, width in (("extbl", 1 << 8), ("extwl", 1 << 16),
                          ("extll", 1 << 32)):
        declare(f"{ext_op}_bound",
                _pi("a", _TM, _pi("b", _TM, _pi("c", _TM, _pf(
                    _app(LfConst("lt"), _app(LfConst(ext_op), a, b),
                         c))))), side=arith.ext_bound(width))

    declare("sel_upd_same", _pi("m", _MEM, _pi("a", _TM, _pi(
        "v", _TM, _pi("b", _TM, _arrow(
            _pf(eq_f(mod64_t(a), mod64_t(b))),
            _pf(eq_f(_app(LfConst("sel"),
                          _app(LfConst("upd"), m, a, _Ref("v")), b),
                     mod64_t(_Ref("v"))))))))))
    declare("sel_upd_other", _pi("m", _MEM, _pi("a", _TM, _pi(
        "v", _TM, _pi("b", _TM, _arrow(
            _pf(_app(LfConst("ne"), mod64_t(a), mod64_t(b))),
            _pf(eq_f(_app(LfConst("sel"),
                          _app(LfConst("upd"), m, a, _Ref("v")), b),
                     _app(LfConst("sel"), m, b)))))))))

    declare("sll_ubound", _pi("a", _TM, _pi("k", _TM, _pi(
        "m", _TM, _pi("c", _TM, _arrows(
            _pf(_app(LfConst("ge"), a, LfInt(0))),
            _pf(_app(LfConst("le"), a, _Ref("m"))),
            _pf(_app(LfConst("le"),
                     _app(LfConst("sll64"), a, _Ref("k")),
                     _Ref("c")))))))), side=arith.sll_ubound)

    declare("shift_trunc_le", _pi("a", _TM, _pi("k", _TM, _pf(
        _app(LfConst("le"),
             _app(LfConst("sll64"),
                  _app(LfConst("srl64"), a, _Ref("k")), _Ref("k")),
             mod64_t(a))))), side=arith.constant_shift)
    declare("sll_lt_of_srl", _pi("a", _TM, _pi("k", _TM, _pi(
        "b", _TM, _arrow(
            _pf(_app(LfConst("lt"), mod64_t(a),
                     mod64_t(_app(LfConst("srl64"), b, _Ref("k"))))),
            _pf(_app(LfConst("lt"),
                     _app(LfConst("sll64"), a, _Ref("k")),
                     mod64_t(b))))))), side=arith.constant_shift)

    declare("or_disjoint", _pi("x", _TM, _pi("c", _TM, _pi("b", _TM, _arrow(
        _pf(eq_f(_app(LfConst("and64"), b, c), LfInt(0))),
        _pf(eq_f(
            _app(LfConst("or64"),
                 _app(LfConst("and64"), _Ref("x"), c), b),
            _app(LfConst("add64"),
                 _app(LfConst("and64"), _Ref("x"), c), b))))))),
        side=arith.or_disjoint)
    declare("and_submask", _pi("a", _TM, _pi("c1", _TM, _pi(
        "c2", _TM, _arrow(
            _pf(eq_f(_app(LfConst("and64"), a, _Ref("c1")), LfInt(0))),
            _pf(eq_f(_app(LfConst("and64"), a, _Ref("c2")),
                     LfInt(0))))))), side=arith.and_submask)

    for cmp_op in ("cmpeq", "cmpult", "cmpule"):
        flag = _app(LfConst(cmp_op), a, b)
        declare(f"{cmp_op}_bool", _pi("a", _TM, _pi("b", _TM, _pf(
            _app(LfConst("or"),
                 eq_f(flag, LfInt(0)), eq_f(flag, LfInt(1)))))))

    # A Farkas certificate: the weights ``linarith`` checks.
    declare("cnil", _CERT)
    declare("ccons", _arrows(_TM, _CERT, _CERT))
    declare("linarith", _pi("a", _FORM, _pi("c", _FORM, _arrows(
        _CERT, _pf(a), _pf(c)))), side=arith.linarith)

    return Signature(entries)


#: The published signature — part of the consumer's safety policy.
SIGNATURE = _build_signature()
