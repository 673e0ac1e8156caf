"""Logical terms over unbounded integers with 64-bit machine operators.

Terms are immutable and hashable, so they can be shared freely, used as
dictionary keys, and compared structurally.  Three constructors suffice:

* :class:`Int` — an integer literal (arbitrary precision),
* :class:`Var` — a logical variable (machine registers ``r0`` .. ``r10``,
  the memory pseudo-register ``rm``, and quantifier-bound variables),
* :class:`App` — application of one of the operators in :data:`OPS`.

Machine operators are *total*: they reduce their integer operands modulo
2**64 before computing, so a term like ``add64(x, y)`` always denotes a
value in ``[0, 2**64)`` no matter what ``x`` and ``y`` denote.  This mirrors
the paper's circled-plus definition and keeps the LF signature's arithmetic
proof constants, and the checks :mod:`repro.lf.arith` runs for them,
unconditional.

Memory is modelled with ``sel``/``upd`` exactly as in the paper: ``rm`` is a
pseudo-register holding the whole memory state, ``sel(rm, a)`` reads address
``a`` and ``upd(rm, a, v)`` is the state after writing ``v`` at ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Union

from repro.errors import LogicError
from repro.logic.eqcache import dag_equal

WORD_BITS = 64
WORD_MOD = 1 << WORD_BITS
WORD_MASK = WORD_MOD - 1


@dataclass(frozen=True, slots=True)
class Int:
    """An integer literal.  Values are unbounded Python ints."""

    value: int

    def __repr__(self) -> str:
        return f"Int({self.value})"


@dataclass(frozen=True, slots=True)
class Var:
    """A logical variable, identified by name.

    Machine registers appear as ``r0`` .. ``r10``; the memory state as
    ``rm``; quantified variables carry whatever name the formula binds.
    """

    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True, slots=True)
class App:
    """Application of an operator to argument terms.

    The operator must be a key of :data:`OPS`; the argument count must match
    the declared arity.  Use the module-level helpers (:func:`add64`, ...)
    rather than constructing ``App`` directly.

    Hashes are cached on first use: terms are immutable trees used as
    dictionary keys throughout the prover, and recomputing a deep
    structural hash on every lookup dominated certification time.
    """

    op: str
    args: tuple["Term", ...]
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.op, self.args))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, App):
            return NotImplemented
        return dag_equal(self, other,
                         lambda node: (node.op, node.args))

    def __post_init__(self) -> None:
        spec = OPS.get(self.op)
        if spec is None:
            raise LogicError(f"unknown operator {self.op!r}")
        if len(self.args) != spec.arity:
            raise LogicError(
                f"operator {self.op!r} expects {spec.arity} arguments, "
                f"got {len(self.args)}")

    def __repr__(self) -> str:
        return f"App({self.op!r}, {self.args!r})"


Term = Union[Int, Var, App]


class _Memory:
    """Immutable functional memory used by the term evaluator.

    ``sel``/``upd`` chains evaluate to instances of this class.  A base
    mapping provides initial contents; updates layer on top without
    mutating the base.
    """

    __slots__ = ("_base", "_writes")

    def __init__(self, base: Mapping[int, int] | None = None,
                 writes: dict[int, int] | None = None) -> None:
        self._base = dict(base) if base else {}
        self._writes = dict(writes) if writes else {}

    def read(self, address: int) -> int:
        if address in self._writes:
            return self._writes[address]
        return self._base.get(address, 0)

    def write(self, address: int, value: int) -> "_Memory":
        new_writes = dict(self._writes)
        new_writes[address] = value & WORD_MASK
        return _Memory(self._base, new_writes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Memory):
            return NotImplemented
        keys = (set(self._base) | set(self._writes)
                | set(other._base) | set(other._writes))
        return all(self.read(k) == other.read(k) for k in keys)

    def __hash__(self) -> int:  # pragma: no cover - memories rarely hashed
        return 0


def _w(value: int) -> int:
    """Reduce a semantic integer to a 64-bit machine word."""
    return value % WORD_MOD


def _ev_add64(a: int, b: int) -> int:
    return (_w(a) + _w(b)) % WORD_MOD


def _ev_sub64(a: int, b: int) -> int:
    return (_w(a) - _w(b)) % WORD_MOD


def _ev_mul64(a: int, b: int) -> int:
    return (_w(a) * _w(b)) % WORD_MOD


def _ev_and64(a: int, b: int) -> int:
    return _w(a) & _w(b)


def _ev_or64(a: int, b: int) -> int:
    return _w(a) | _w(b)


def _ev_xor64(a: int, b: int) -> int:
    return _w(a) ^ _w(b)


def _ev_sll64(a: int, b: int) -> int:
    # The Alpha uses only the low 6 bits of the shift count.
    return (_w(a) << (_w(b) & 63)) % WORD_MOD


def _ev_srl64(a: int, b: int) -> int:
    return _w(a) >> (_w(b) & 63)


def _ev_mod64(a: int) -> int:
    return _w(a)


def _ev_cmpeq(a: int, b: int) -> int:
    return 1 if _w(a) == _w(b) else 0


def _ev_cmpult(a: int, b: int) -> int:
    return 1 if _w(a) < _w(b) else 0


def _ev_cmpule(a: int, b: int) -> int:
    return 1 if _w(a) <= _w(b) else 0


def _ev_extbl(a: int, b: int) -> int:
    """Alpha EXTBL: extract the byte selected by the low 3 bits of ``b``."""
    return (_w(a) >> (8 * (_w(b) & 7))) & 0xFF


def _ev_extwl(a: int, b: int) -> int:
    """Alpha EXTWL: extract the 16-bit word at byte offset ``b & 7``."""
    return (_w(a) >> (8 * (_w(b) & 7))) & 0xFFFF


def _ev_extll(a: int, b: int) -> int:
    """Alpha EXTLL: extract the 32-bit longword at byte offset ``b & 7``."""
    return (_w(a) >> (8 * (_w(b) & 7))) & 0xFFFFFFFF


def _ev_sel(m: _Memory, a: int) -> int:
    # Memory cells hold 64-bit words, so sel() is word-valued by
    # construction; reducing here keeps that true for any base contents.
    return _w(m.read(_w(a)))


def _ev_add(a: int, b: int) -> int:
    return a + b


def _ev_sub(a: int, b: int) -> int:
    return a - b


def _ev_mul(a: int, b: int) -> int:
    return a * b


def _ev_upd(m: _Memory, a: int, v: int) -> _Memory:
    return m.write(_w(a), _w(v))


@dataclass(frozen=True, slots=True)
class _OpSpec:
    arity: int
    evaluate: Callable


#: Operator table.  ``sel``/``upd`` take a memory as first argument; every
#: other operator maps integers to an integer.
OPS: dict[str, _OpSpec] = {
    "add64": _OpSpec(2, _ev_add64),
    "sub64": _OpSpec(2, _ev_sub64),
    "mul64": _OpSpec(2, _ev_mul64),
    "and64": _OpSpec(2, _ev_and64),
    "or64": _OpSpec(2, _ev_or64),
    "xor64": _OpSpec(2, _ev_xor64),
    "sll64": _OpSpec(2, _ev_sll64),
    "srl64": _OpSpec(2, _ev_srl64),
    "mod64": _OpSpec(1, _ev_mod64),
    "cmpeq": _OpSpec(2, _ev_cmpeq),
    "cmpult": _OpSpec(2, _ev_cmpult),
    "cmpule": _OpSpec(2, _ev_cmpule),
    "extbl": _OpSpec(2, _ev_extbl),
    "extwl": _OpSpec(2, _ev_extwl),
    "extll": _OpSpec(2, _ev_extll),
    "sel": _OpSpec(2, _ev_sel),
    "upd": _OpSpec(3, _ev_upd),
    # Pure (unbounded) integer arithmetic.  These never appear in VCs; the
    # prover introduces them when it can show a machine operation did not
    # wrap (e.g. the add64_exact rule), after which plain linear arithmetic
    # applies.
    "add": _OpSpec(2, _ev_add),
    "sub": _OpSpec(2, _ev_sub),
    "mul": _OpSpec(2, _ev_mul),
}

#: Operators whose result always lies in [0, 2^64): every machine operator,
#: ``sel`` included because memory cells hold words, but not ``upd``
#: (memory-valued) or the pure integer operators.
WORD_VALUED_OPS = frozenset(OPS) - {"upd", "add", "sub", "mul"}


def _coerce(value: int | Term) -> Term:
    if isinstance(value, int):
        return Int(value)
    return value


def add64(a: int | Term, b: int | Term) -> App:
    """Two's-complement 64-bit addition: ``(a + b) mod 2**64``."""
    return App("add64", (_coerce(a), _coerce(b)))


def sub64(a: int | Term, b: int | Term) -> App:
    """Two's-complement 64-bit subtraction."""
    return App("sub64", (_coerce(a), _coerce(b)))


def mul64(a: int | Term, b: int | Term) -> App:
    """64-bit multiplication (low word)."""
    return App("mul64", (_coerce(a), _coerce(b)))


def and64(a: int | Term, b: int | Term) -> App:
    """Bitwise AND on 64-bit words."""
    return App("and64", (_coerce(a), _coerce(b)))


def or64(a: int | Term, b: int | Term) -> App:
    """Bitwise OR on 64-bit words."""
    return App("or64", (_coerce(a), _coerce(b)))


def xor64(a: int | Term, b: int | Term) -> App:
    """Bitwise XOR on 64-bit words."""
    return App("xor64", (_coerce(a), _coerce(b)))


def sll64(a: int | Term, b: int | Term) -> App:
    """Logical shift left; only the low 6 bits of the count are used."""
    return App("sll64", (_coerce(a), _coerce(b)))


def srl64(a: int | Term, b: int | Term) -> App:
    """Logical shift right; only the low 6 bits of the count are used."""
    return App("srl64", (_coerce(a), _coerce(b)))


def mod64(a: int | Term) -> App:
    """``a mod 2**64`` — the word-value of an arbitrary integer."""
    return App("mod64", (_coerce(a),))


def cmpeq(a: int | Term, b: int | Term) -> App:
    """Value-level equality test: 1 if the words are equal, else 0."""
    return App("cmpeq", (_coerce(a), _coerce(b)))


def cmpult(a: int | Term, b: int | Term) -> App:
    """Value-level unsigned less-than: 1 or 0."""
    return App("cmpult", (_coerce(a), _coerce(b)))


def cmpule(a: int | Term, b: int | Term) -> App:
    """Value-level unsigned less-or-equal: 1 or 0."""
    return App("cmpule", (_coerce(a), _coerce(b)))


def extbl(a: int | Term, b: int | Term) -> App:
    """Extract byte ``b & 7`` of word ``a`` (Alpha EXTBL)."""
    return App("extbl", (_coerce(a), _coerce(b)))


def extwl(a: int | Term, b: int | Term) -> App:
    """Extract the 16-bit word at byte offset ``b & 7`` (Alpha EXTWL)."""
    return App("extwl", (_coerce(a), _coerce(b)))


def extll(a: int | Term, b: int | Term) -> App:
    """Extract the 32-bit longword at byte offset ``b & 7`` (Alpha EXTLL)."""
    return App("extll", (_coerce(a), _coerce(b)))


def add(a: int | Term, b: int | Term) -> App:
    """Pure (unbounded) integer addition."""
    return App("add", (_coerce(a), _coerce(b)))


def sub(a: int | Term, b: int | Term) -> App:
    """Pure (unbounded) integer subtraction."""
    return App("sub", (_coerce(a), _coerce(b)))


def mul(a: int | Term, b: int | Term) -> App:
    """Pure (unbounded) integer multiplication."""
    return App("mul", (_coerce(a), _coerce(b)))


def sel(memory: Term, address: int | Term) -> App:
    """Contents of ``address`` in memory state ``memory``."""
    return App("sel", (memory, _coerce(address)))


def upd(memory: Term, address: int | Term, value: int | Term) -> App:
    """Memory state after writing ``value`` at ``address``."""
    return App("upd", (memory, _coerce(address), _coerce(value)))


#: id-keyed cache for term_vars; values keep the key term alive.
_TERM_VARS_CACHE: dict[int, tuple] = {}


def term_vars(term: Term) -> frozenset[str]:
    """The set of variable names occurring in ``term`` (cached: terms are
    immutable and the prover asks constantly)."""
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, Int):
        return frozenset()
    cached = _TERM_VARS_CACHE.get(id(term))
    if cached is not None:
        return cached[1]
    names = frozenset().union(*(term_vars(arg) for arg in term.args))
    if len(_TERM_VARS_CACHE) >= 500_000:
        _TERM_VARS_CACHE.clear()  # evict wholesale; never stop caching
    _TERM_VARS_CACHE[id(term)] = (term, names)
    return names


def term_size(term: Term) -> int:
    """Node count of a term, used in size accounting and tests."""
    if isinstance(term, (Int, Var)):
        return 1
    return 1 + sum(term_size(arg) for arg in term.args)


Env = Mapping[str, object]


def make_memory(contents: Mapping[int, int] | None = None) -> _Memory:
    """Build a memory value for use in evaluation environments."""
    return _Memory(contents)


def eval_term(term: Term, env: Env, _memo: dict | None = None) -> object:
    """Evaluate ``term`` in ``env`` (variable name -> int or memory).

    Raises :class:`LogicError` if a variable is unbound.  Integer results
    are unbounded; machine operators internally reduce mod 2**64.
    Memoized per call by node identity, so a shared node is evaluated
    once; terms evaluated in the same ``env`` may share one ``_memo``.
    """
    if isinstance(term, Int):
        return term.value
    if isinstance(term, Var):
        if term.name not in env:
            raise LogicError(f"unbound variable {term.name!r}")
        return env[term.name]
    memo = _memo if _memo is not None else {}
    if id(term) in memo:
        return memo[id(term)]
    spec = OPS[term.op]
    args = [eval_term(arg, env, memo) for arg in term.args]
    result = memo[id(term)] = spec.evaluate(*args)
    return result


def all_subterms(term: Term) -> Iterable[Term]:
    """Yield every subterm of ``term``, including itself (pre-order)."""
    yield term
    if isinstance(term, App):
        for arg in term.args:
            yield from all_subterms(arg)
