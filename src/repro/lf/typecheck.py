"""The LF type checker — the consumer's trusted proof validator.

Standard LF checking specialized to inference: every term's type (or kind)
is synthesized, applications substitute into Pi codomains, and definitional
equality is beta conversion.  The paper stresses that "typechecking is
decidable and is described by a few simple rules ... so simple that any
programmers who do not trust the publicly available implementation can
implement it easily themselves"; :class:`_Checker` is the whole algorithm.

Performance notes (they do not affect what is accepted):

* proof terms arrive from the wire as DAGs — identical subterms are the
  same Python object — so inference and normalization are memoized by
  object identity plus context identity;
* contexts are cons-lists, so extending a context preserves the identity
  of the shared tail;
* an application spine ``h a1 … an`` is checked in one pass: ``h``'s type
  is inferred once, each domain is instantiated by one simultaneous
  substitution of the arguments before it, and the codomain once at the
  end, so no argument is re-walked or re-shifted by a later one.  Each
  prefix ``h a1 … ai`` is memoized unforced, as the rest of the
  Π-telescope plus its pending arguments, so spines sharing a partial
  application resume it instead of re-checking it;
* a context entry's type is shifted on lookup only when it has free
  variables: a closed hypothesis comes back as the same object.

One extension (documented in :mod:`repro.lf.signature`): signature
constants may carry a *side condition*, a decidable predicate on the
argument spine that is checked at every full application, and such a
constant may appear only fully applied.  This implements the paper's
"predicate calculus extended with two's-complement integer arithmetic" —
the logical skeleton is pure LF, the arithmetic literals are checked
computationally.
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
    normalize,
    shift,
    spine,
    whnf,
)

#: Context as a cons-list: None or (type, parent).  Sharing the tail keeps
#: context identity stable for memoization.
Ctx = tuple | None


def _free_indices(term: LfTerm, cache: dict) -> frozenset:
    """Free de Bruijn indices of ``term`` (DAG-cached by identity)."""
    if isinstance(term, LfVar):
        return frozenset((term.index,))
    if isinstance(term, (LfConst, LfInt)):
        return frozenset()
    cached = cache.get(id(term))
    if cached is not None:
        return cached[1]
    if isinstance(term, LfApp):
        result = (_free_indices(term.fn, cache)
                  | _free_indices(term.arg, cache))
    elif isinstance(term, LfLam):
        result = (_free_indices(term.ty, cache)
                  | frozenset(i - 1
                              for i in _free_indices(term.body, cache)
                              if i > 0))
    elif isinstance(term, LfPi):
        result = (_free_indices(term.dom, cache)
                  | frozenset(i - 1
                              for i in _free_indices(term.cod, cache)
                              if i > 0))
    else:
        raise LfError(f"not an LF term: {term!r}")
    cache[id(term)] = (term, result)
    return result



class _Checker:
    def __init__(self, signature: Signature, max_depth: int) -> None:
        self.signature = signature
        self.max_depth = max_depth
        self._max_arity = max(entry.side_arity
                              for entry in signature.entries.values())
        # Memo tables hold strong references to their keys, so ids stay
        # valid for the checker's lifetime.  An inference memo entry is
        # (term, ctx, type, pending): the term's type is ``type`` with
        # the ``pending`` arguments substituted (see _spine).
        self._infer_memo: dict[tuple, tuple] = {}
        self._norm_memo: dict[int, tuple] = {}
        self._free_memo: dict[int, tuple] = {}

    def normalized(self, term: LfTerm) -> LfTerm:
        # The memo is shared across calls (normalize stores
        # (original, normal-form) pairs keyed by node identity), so
        # repeated comparisons over the proof DAG stay linear.
        return normalize(term, self._norm_memo)

    def equal(self, a: LfTerm, b: LfTerm) -> bool:
        if a == b:
            return True
        return self.normalized(a) == self.normalized(b)

    def _lookup(self, ctx: Ctx, index: int) -> LfTerm:
        walked = 0
        while ctx is not None:
            ty, parent = ctx
            if walked == index:
                return self._shifted(ty, index + 1)
            walked += 1
            ctx = parent
        raise LfError(f"unbound de Bruijn index {index}")

    def _shifted(self, term: LfTerm, amount: int) -> LfTerm:
        """``shift(term, amount)``, without the walk when ``term`` is
        closed or ``amount`` is 0."""
        if not amount or not _free_indices(term, self._free_memo):
            return term
        return shift(term, amount)

    def infer(self, term: LfTerm, ctx: Ctx, depth: int) -> LfTerm:
        if depth > self.max_depth:
            raise LfError("type checking exceeded maximum depth")
        # The inferred type depends only on the context entries the term's
        # free variables resolve to — keying on those (instead of the
        # whole context chain) lets join-point subterms shared across
        # branch arms type-check once instead of once per path.
        key = (id(term), self._ctx_fingerprint(term, ctx))
        memo = self._infer_memo.get(key)
        if memo is None:
            # Spines skip _infer: each level of nesting costs two frames.
            result = (self._spine(term, ctx, depth)
                      if isinstance(term, LfApp)
                      else self._infer(term, ctx, depth))
        elif memo[3]:
            result = self._instantiate(memo[2], memo[3], {})
        else:
            return memo[2]
        self._infer_memo[key] = (term, ctx, result, ())
        return result

    def _ctx_fingerprint(self, term: LfTerm, ctx: Ctx) -> tuple:
        indices = _free_indices(term, self._free_memo)
        if not indices:
            return ()
        fingerprint = []
        position = 0
        node = ctx
        for index in sorted(indices):
            while node is not None and position < index:
                node = node[1]
                position += 1
            if node is None:
                # Unbound index: let _infer raise the proper error; an
                # impossible fingerprint avoids false cache hits.
                fingerprint.append((index, -1))
            else:
                fingerprint.append((index, id(node[0])))
        return tuple(fingerprint)

    def _infer(self, term: LfTerm, ctx: Ctx, depth: int) -> LfTerm:
        if isinstance(term, LfConst):
            if term == TYPE:
                return KIND
            entry = self.signature.entries.get(term.name)
            if entry is None:
                raise LfError(f"undeclared constant {term.name!r}")
            return entry.ty
        if isinstance(term, LfVar):
            return self._lookup(ctx, term.index)
        if isinstance(term, LfInt):
            return LfConst("tm")
        if isinstance(term, LfPi):
            dom_sort = whnf(self.infer(term.dom, ctx, depth + 1))
            if dom_sort != TYPE:
                raise LfError("Pi domain is not a type")
            cod_sort = whnf(self.infer(term.cod, (term.dom, ctx),
                                       depth + 1))
            if cod_sort not in (TYPE, KIND):
                raise LfError("Pi codomain is neither a type nor a kind")
            return cod_sort
        if isinstance(term, LfLam):
            dom_sort = whnf(self.infer(term.ty, ctx, depth + 1))
            if dom_sort != TYPE:
                raise LfError("lambda annotation is not a type")
            body_ty = self.infer(term.body, (term.ty, ctx), depth + 1)
            self._fully_applied(term.body)
            return LfPi(term.ty, body_ty, term.hint)
        raise LfError(f"not an LF term: {term!r}")

    def _spine(self, term: LfApp, ctx: Ctx, depth: int) -> LfTerm:
        """Infer ``h a1 … an`` in one pass, making the checks of inferring
        it one application at a time, in the same order and at the same
        depths.  The longest prefix already memoized in this context is
        resumed; each newly checked prefix is memoized unforced."""
        apps = [(term, None)]
        fn = term.fn
        while isinstance(fn, LfApp):
            if depth + len(apps) > self.max_depth:
                raise LfError("type checking exceeded maximum depth")
            key = (id(fn), self._ctx_fingerprint(fn, ctx))
            memo = self._infer_memo.get(key)
            if memo is not None:
                ty, pending = memo[2], memo[3]
                break
            apps.append((fn, key))
            fn = fn.fn
        else:
            ty, pending = self.infer(fn, ctx, depth + len(apps)), ()
        # The spine's head and how many arguments ``fn`` already has; a
        # side condition can only fire within the first _max_arity.
        head, count = fn, 0
        while isinstance(head, LfApp) and count < self._max_arity:
            head, count = head.fn, count + 1
        entry = (self.signature.entries.get(head.name)
                 if isinstance(head, LfConst) else None)
        guarded = entry is not None and entry.side_condition is not None
        instances: dict = {}
        for position in range(len(apps) - 1, -1, -1):
            app, key = apps[position]
            if not isinstance(ty, LfPi):
                ty = whnf(self._instantiate(ty, pending, instances))
                pending, instances = (), {}
                if not isinstance(ty, LfPi):
                    raise LfError("application of a non-function")
            arg_ty = self.infer(app.arg, ctx, depth + position + 1)
            if not self.equal(arg_ty,
                              self._instantiate(ty.dom, pending, instances)):
                raise LfError("argument type mismatch")
            self._fully_applied(app.arg)
            count += 1
            if (guarded and count == entry.side_arity
                    and not entry.side_condition(spine(app)[1])):
                raise LfError(
                    f"side condition of {head.name!r} failed — the proof "
                    f"instantiates an arithmetic schema unsoundly")
            ty, pending = ty.cod, pending + (app.arg,)
            if key is not None:
                self._infer_memo[key] = (app, ctx, ty, pending)
        return self._instantiate(ty, pending, instances)

    def _instantiate(self, term: LfTerm, args: tuple, memo: dict,
                     cutoff: int = 0) -> LfTerm:
        """``term``, which sits under one binder per argument in ``args``
        (outermost first) and ``cutoff`` binders of its own, with the
        arguments substituted for those binders all at once.  Memoized
        per (node, argument count, cutoff); closed subterms and the
        arguments themselves are returned without a walk."""
        if not args:
            return term
        if isinstance(term, LfVar):
            index = term.index - cutoff
            if index < 0:
                return term
            if index < len(args):
                return self._shifted(args[-1 - index], cutoff)
            return LfVar(term.index - len(args))
        if (isinstance(term, (LfConst, LfInt))
                or not _free_indices(term, self._free_memo)):
            return term
        key = (id(term), len(args), cutoff)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(term, LfApp):
            result: LfTerm = LfApp(
                self._instantiate(term.fn, args, memo, cutoff),
                self._instantiate(term.arg, args, memo, cutoff))
        elif isinstance(term, LfLam):
            result = LfLam(self._instantiate(term.ty, args, memo, cutoff),
                           self._instantiate(term.body, args, memo,
                                             cutoff + 1), term.hint)
        elif isinstance(term, LfPi):
            result = LfPi(self._instantiate(term.dom, args, memo, cutoff),
                          self._instantiate(term.cod, args, memo,
                                            cutoff + 1), term.hint)
        else:
            raise LfError(f"not an LF term: {term!r}")
        memo[key] = result
        return result

    def _fully_applied(self, term: LfTerm) -> None:
        """A guarded constant short of its arity, passed as an argument
        or returned from a lambda, would reach its full application under
        a variable head, where no side condition runs: reject it."""
        count = 0
        while isinstance(term, LfApp) and count < self._max_arity:
            term, count = term.fn, count + 1
        entry = (self.signature.entries.get(term.name)
                 if isinstance(term, LfConst) else None)
        if entry is not None and count < entry.side_arity:
            raise LfError(f"{term.name!r} is not fully applied")


def infer_type(term: LfTerm, signature: Signature,
               context: list[LfTerm] | None = None,
               max_depth: int = 10_000) -> LfTerm:
    """Synthesize the type (or kind) of ``term``.

    ``context`` lists binder types innermost-first.  Raises
    :class:`LfError` if the term is ill-typed or a side condition fails.
    """
    ctx: Ctx = None
    for ty in reversed(context or []):  # push outermost first
        ctx = (ty, ctx)
    return _Checker(signature, max_depth).infer(term, ctx, 0)


def check_proof_term(proof_term: LfTerm, expected_type: LfTerm,
                     signature: Signature,
                     max_depth: int = 10_000) -> None:
    """Validate a proof: ``proof_term`` must have exactly ``expected_type``
    (up to beta).  This is the paper's whole validation step — the expected
    type is ``pf (encoding of the consumer-computed safety predicate)``.
    """
    checker = _Checker(signature, max_depth)
    actual = checker.infer(proof_term, None, 0)
    if not checker.equal(actual, expected_type):
        raise LfError(
            "proof term does not prove the safety predicate: its type "
            "differs from pf(SP)")
