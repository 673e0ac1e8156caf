"""A deliberately minimal, independent LF type checker.

The paper (§2.3): "typechecking is so simple that any programmers who do
not trust the publicly available implementation can implement it easily
themselves.  Our implementation has about five pages of C code."

This module is that exercise, performed on our own validator: a second,
from-scratch implementation of LF type inference in under two hundred
lines, sharing nothing with :mod:`repro.lf.typecheck` except the term
syntax and the signature's declarations (including side conditions, which
are part of the published policy, not of the checker).  The test suite
cross-checks it against the primary checker on every shipped proof — a
disagreement would mean one of the two trusted cores is wrong.

It is written for obviousness, not speed: no memoization beyond what
soundness requires, plain recursion, and a step budget standing in for
the strong-normalization argument.  Use the primary checker in anything
performance-sensitive.
"""

from __future__ import annotations

from repro.errors import LfError
from repro.lf.signature import Signature
from repro.lf.syntax import (
    KIND,
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfTerm,
    LfVar,
    TYPE,
)


class MiniChecker:
    """Five-pages-of-C, in Python."""

    def __init__(self, signature: Signature,
                 step_budget: int = 5_000_000) -> None:
        self.signature = signature
        self.steps = step_budget

    # -- de Bruijn plumbing --------------------------------------------------

    def _tick(self) -> None:
        self.steps -= 1
        if self.steps <= 0:
            raise LfError("minicheck: step budget exhausted")

    def shift(self, term: LfTerm, amount: int, cutoff: int = 0) -> LfTerm:
        self._tick()
        if isinstance(term, LfVar):
            if term.index >= cutoff:
                return LfVar(term.index + amount)
            return term
        if isinstance(term, (LfConst, LfInt)):
            return term
        if isinstance(term, LfApp):
            return LfApp(self.shift(term.fn, amount, cutoff),
                         self.shift(term.arg, amount, cutoff))
        if isinstance(term, LfLam):
            return LfLam(self.shift(term.ty, amount, cutoff),
                         self.shift(term.body, amount, cutoff + 1))
        if isinstance(term, LfPi):
            return LfPi(self.shift(term.dom, amount, cutoff),
                        self.shift(term.cod, amount, cutoff + 1))
        raise LfError("minicheck: not a term")

    def subst(self, term: LfTerm, value: LfTerm,
              index: int = 0) -> LfTerm:
        self._tick()
        if isinstance(term, LfVar):
            if term.index == index:
                return self.shift(value, index)
            if term.index > index:
                return LfVar(term.index - 1)
            return term
        if isinstance(term, (LfConst, LfInt)):
            return term
        if isinstance(term, LfApp):
            return LfApp(self.subst(term.fn, value, index),
                         self.subst(term.arg, value, index))
        if isinstance(term, LfLam):
            return LfLam(self.subst(term.ty, value, index),
                         self.subst(term.body, value, index + 1))
        if isinstance(term, LfPi):
            return LfPi(self.subst(term.dom, value, index),
                        self.subst(term.cod, value, index + 1))
        raise LfError("minicheck: not a term")

    # -- conversion ----------------------------------------------------------

    def normalize(self, term: LfTerm) -> LfTerm:
        self._tick()
        if isinstance(term, LfApp):
            fn = self.normalize(term.fn)
            arg = self.normalize(term.arg)
            if isinstance(fn, LfLam):
                return self.normalize(self.subst(fn.body, arg))
            return LfApp(fn, arg)
        if isinstance(term, LfLam):
            return LfLam(self.normalize(term.ty),
                         self.normalize(term.body))
        if isinstance(term, LfPi):
            return LfPi(self.normalize(term.dom),
                        self.normalize(term.cod))
        return term

    def equal(self, a: LfTerm, b: LfTerm) -> bool:
        return self.normalize(a) == self.normalize(b)

    # -- inference -----------------------------------------------------------

    def infer(self, term: LfTerm, context: tuple = ()) -> LfTerm:
        """``context`` is a plain tuple, innermost binder first."""
        self._tick()
        if isinstance(term, LfConst):
            if term == TYPE:
                return KIND
            entry = self.signature.entries.get(term.name)
            if entry is None:
                raise LfError(f"minicheck: undeclared {term.name!r}")
            return entry.ty
        if isinstance(term, LfVar):
            if term.index >= len(context):
                raise LfError(f"minicheck: unbound index {term.index}")
            return self.shift(context[term.index], term.index + 1)
        if isinstance(term, LfInt):
            return LfConst("tm")
        if isinstance(term, LfPi):
            if self.normalize(self.infer(term.dom, context)) != TYPE:
                raise LfError("minicheck: Pi domain not a type")
            sort = self.normalize(
                self.infer(term.cod, (term.dom,) + context))
            if sort not in (TYPE, KIND):
                raise LfError("minicheck: Pi codomain not a sort")
            return sort
        if isinstance(term, LfLam):
            if self.normalize(self.infer(term.ty, context)) != TYPE:
                raise LfError("minicheck: lambda annotation not a type")
            body = self.infer(term.body, (term.ty,) + context)
            self._check_saturated(term.body)
            return LfPi(term.ty, body)
        if isinstance(term, LfApp):
            fn_ty = self.normalize(self.infer(term.fn, context))
            if not isinstance(fn_ty, LfPi):
                raise LfError("minicheck: applying a non-function")
            arg_ty = self.infer(term.arg, context)
            if not self.equal(arg_ty, fn_ty.dom):
                raise LfError("minicheck: argument type mismatch")
            self._check_saturated(term.arg)
            self._check_side_condition(term)
            return self.subst(fn_ty.cod, term.arg)
        raise LfError("minicheck: not a term")

    def _check_saturated(self, term: LfTerm) -> None:
        """Only the head of an application may be a side-conditioned
        constant short of its arguments."""
        args = 0
        while isinstance(term, LfApp):
            self._tick()
            term, args = term.fn, args + 1
        if not isinstance(term, LfConst):
            return
        entry = self.signature.entries.get(term.name)
        if (entry is not None and entry.side_condition is not None
                and args < entry.side_arity):
            raise LfError(f"minicheck: {term.name!r} is not fully "
                          f"applied")

    def _check_side_condition(self, application: LfApp) -> None:
        head: LfTerm = application
        args: list[LfTerm] = []
        while isinstance(head, LfApp):
            args.append(head.arg)
            head = head.fn
        args.reverse()
        if not isinstance(head, LfConst):
            return
        entry = self.signature.entries.get(head.name)
        if (entry is not None and entry.side_condition is not None
                and len(args) == entry.side_arity
                and not entry.side_condition(args)):
            raise LfError(f"minicheck: side condition of "
                          f"{head.name!r} failed")


def minicheck_proof(proof_term: LfTerm, expected_type: LfTerm,
                    signature: Signature) -> None:
    """Validate a proof with the independent checker."""
    checker = MiniChecker(signature)
    actual = checker.infer(proof_term)
    if not checker.equal(actual, expected_type):
        raise LfError("minicheck: proof does not prove the expected "
                      "formula")
