"""Abstract syntax of history expressions (paper, Definition 1).

The grammar is::

    H ::= ε | h | μh.H | (Σ_{i∈I} a_i.H_i) | (⊕_{i∈I} ā_i.H_i) | α
        | H·H | open_{r,φ} H close_{r,φ} | φ[H]

Nodes are immutable and *hash-consed* (Filliâtre & Conchon, "Type-safe
modular hash-consing", ML 2006): every constructor call, positional or
keyword, goes through one weak unique table keyed on the constructor and
its field values, so structurally equal terms are one object and ``==``
is identity.  Each node caches its hash at construction, equal to
``hash(tuple(field values))`` — the hash a frozen dataclass would have,
so set and dict iteration orders do not depend on interning — and its
free recursion variables on first query (:func:`free_variables`).
Hashing, comparing and repeated closedness checks are therefore O(1)
whatever the size of the term, and history expressions can be used
directly as states of the transition systems built in
:mod:`repro.core.semantics`.

Two *run-time* leaves complement the surface grammar:

* :class:`ClosePending` — the residual ``close_{r,φ}`` left behind once a
  session has been opened (rule S-Open rewrites
  ``open_{r,φ}·H·close_{r,φ}`` to ``H·close_{r,φ}``);
* :class:`FrameClosePending` — the residual ``Mφ`` left behind once a
  framing has been entered (rule P-Open rewrites ``φ[H]`` to ``H·Mφ``).

The structural congruence ``ε·H ≡ H ≡ H·ε`` is enforced by the smart
constructor :func:`seq`, which all library code uses instead of building
:class:`Seq` nodes directly.
"""

from __future__ import annotations

import atexit
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import FrozenInstanceError
from typing import Iterable, Iterator, Union

from repro.core.actions import Event, Receive, Send

_NO_FREE: frozenset[str] = frozenset()


class _Entry(weakref.ref):
    """A unique-table entry: a weak reference to a node plus its key."""

    __slots__ = ("key",)


#: The weak unique table: ``(constructor, *field values)`` → entry of the
#: live node.  It relies on single dict operations being atomic (under
#: the GIL, or a dict's own lock), so lookups, inserts and evictions take
#: no lock of their own and stay safe across threads.
_ENTRIES: dict[tuple, _Entry] = {}
#: Non-empty once the interpreter starts exiting (see :func:`_evict`).
_EXITING: list[bool] = []
atexit.register(_EXITING.append, True)


def _evict(entry: _Entry, entries=_ENTRIES, exiting=_EXITING,
           remove=_remove_dead_weakref) -> None:
    """Drop a dead node's entry, unless a live node has replaced it.

    Skipped at exit: nodes then die while modules are torn down, and
    finding the entry may compare keys, i.e. call field values'
    ``__eq__`` against half-cleared modules."""
    if not exiting:
        remove(entries, entry.key)


def _intern(cls: "_Interned", args: tuple, key: tuple
            ) -> "HistoryExpression":
    """Build the node for a *key* the table has no live entry for."""
    setters = cls._setters
    if len(args) != len(setters):
        raise TypeError(f"{cls.__qualname__}() takes {len(setters)} "
                        f"arguments ({len(args)} given)")
    node = object.__new__(cls)
    for set_field, value in zip(setters, args):
        set_field(node, value)
    _set_hash(node, hash(args))
    entry = _Entry(node, _evict)
    entry.key = key
    while True:
        found = _ENTRIES.setdefault(key, entry)
        if found is entry:
            return node
        winner = found()
        if winner is not None:  # another thread interned it first
            return winner
        _remove_dead_weakref(_ENTRIES, key)


class _Interned(type):
    """Metaclass routing every node construction through the unique
    table.  A node class's fields are its ``__slots__``, in order."""

    def __init__(cls, name: str, bases: tuple, namespace: dict) -> None:
        super().__init__(name, bases, namespace)
        # The slots' own setters, since nodes refuse ``setattr``.  The
        # root class's slots hold bookkeeping, not fields.
        cls._setters = tuple(getattr(cls, field).__set__
                             for field in cls.__slots__) if bases else ()

    def __call__(cls, *args, **kwargs):
        if kwargs:
            args = cls._bind(args, kwargs)
        key = (cls, *args)
        entry = _ENTRIES.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        return _intern(cls, args, key)

    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """Order positional and keyword arguments as the fields are."""
        values = list(args)
        for name in cls.__slots__[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{cls.__qualname__}() missing argument "
                                f"{name!r}")
            values.append(kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got unexpected "
                            f"arguments {sorted(kwargs)}")
        return tuple(values)


class HistoryExpression(metaclass=_Interned):
    """Abstract base class of all history-expression nodes.

    Concrete nodes are interned immutable values (see the module
    docstring); the base class hosts the value protocol — cached hash,
    identity equality, dataclass-style ``repr``, copying and pickling that
    return the interned node — plus shared conveniences (pretty ``str``
    and structural iteration).
    """

    __slots__ = ("_hash", "_free", "__weakref__")

    def children(self) -> tuple["HistoryExpression", ...]:
        """The immediate sub-expressions of this node."""
        return ()

    def walk(self) -> Iterator["HistoryExpression"]:
        """Pre-order traversal of the syntax tree (self included)."""
        yield self
        for child in self.children():
            yield from child.walk()

    def _free_variables(self) -> frozenset[str]:
        """Free variables from the children's cached sets (see
        :func:`free_variables`)."""
        free = _NO_FREE
        for child in self.children():
            if child._free:
                free = free | child._free if free else child._free
        return free

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuilding through the constructor makes pickles and copies
        # return the interned node.
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __str__(self) -> str:  # pragma: no cover - delegated to pretty
        from repro.lang.pretty import pretty
        return pretty(self)


_set_hash = HistoryExpression._hash.__set__
_set_free = HistoryExpression._free.__set__


class Epsilon(HistoryExpression):
    """The empty history expression ``ε``: it cannot do anything."""

    __slots__ = ()


#: The ``ε`` term.  ``Epsilon()`` returns this very node; using the
#: constant saves the unique-table lookup in hot loops.
EPSILON = Epsilon()


class Var(HistoryExpression):
    """A recursion variable ``h``."""

    __slots__ = ("name",)

    name: str

    def _free_variables(self) -> frozenset[str]:
        return frozenset((self.name,))


class Mu(HistoryExpression):
    """Tail recursion ``μh.H``.

    The calculus restricts bodies to be *tail* recursive and *guarded* by a
    communication action; :mod:`repro.core.wellformed` checks both.
    """

    __slots__ = ("var", "body")

    var: str
    body: HistoryExpression

    def children(self) -> tuple[HistoryExpression, ...]:
        return (self.body,)

    def _free_variables(self) -> frozenset[str]:
        free = self.body._free
        return free - {self.var} if self.var in free else free


class EventNode(HistoryExpression):
    """A single access event ``α``."""

    __slots__ = ("event",)

    event: Event

    def children(self) -> tuple[HistoryExpression, ...]:
        return ()


class Seq(HistoryExpression):
    """Sequential composition ``H·H'``.

    Built via :func:`seq`, which normalises away ``ε`` operands and
    right-associates nested sequences so that structurally-congruent terms
    are represented by identical trees.
    """

    __slots__ = ("first", "second")

    first: HistoryExpression
    second: HistoryExpression

    def children(self) -> tuple[HistoryExpression, ...]:
        return (self.first, self.second)


class ExternalChoice(HistoryExpression):
    """External choice ``Σ_{i∈I} a_i.H_i`` over *input* prefixes.

    The choice is driven by the message received: all the inputs are
    available at the same time (single ready set, Definition 3).
    """

    __slots__ = ("branches",)

    branches: tuple[tuple[Receive, HistoryExpression], ...]

    def children(self) -> tuple[HistoryExpression, ...]:
        return tuple(cont for _, cont in self.branches)


class InternalChoice(HistoryExpression):
    """Internal choice ``⊕_{i∈I} ā_i.H_i`` over *output* prefixes.

    The sender picks one output on its own: each output is a singleton
    ready set (Definition 3).
    """

    __slots__ = ("branches",)

    branches: tuple[tuple[Send, HistoryExpression], ...]

    def children(self) -> tuple[HistoryExpression, ...]:
        return tuple(cont for _, cont in self.branches)


class Request(HistoryExpression):
    """A service request ``open_{r,φ} H close_{r,φ}``.

    ``request`` is the unique identifier ``r``; ``policy`` is the policy
    ``φ`` imposed on the whole session (``None`` for the empty policy);
    ``body`` is the client's behaviour within the session.
    """

    __slots__ = ("request", "policy", "body")

    request: str
    policy: object | None
    body: HistoryExpression

    def children(self) -> tuple[HistoryExpression, ...]:
        return (self.body,)


class ClosePending(HistoryExpression):
    """Run-time residual ``close_{r,φ}`` of an opened session."""

    __slots__ = ("request", "policy")

    request: str
    policy: object | None

    def children(self) -> tuple[HistoryExpression, ...]:
        return ()


class Framing(HistoryExpression):
    """A security framing ``φ[H]``: policy ``φ`` is enforced while ``H``
    runs (and, history-dependently, over the whole past)."""

    __slots__ = ("policy", "body")

    policy: object
    body: HistoryExpression

    def children(self) -> tuple[HistoryExpression, ...]:
        return (self.body,)


class FrameClosePending(HistoryExpression):
    """Run-time residual ``Mφ`` of an entered framing."""

    __slots__ = ("policy",)

    policy: object

    def children(self) -> tuple[HistoryExpression, ...]:
        return ()


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

def seq(*parts: HistoryExpression) -> HistoryExpression:
    """Sequentially compose *parts*, normalising ``ε·H ≡ H ≡ H·ε``.

    Nested sequences are flattened and re-associated to the right, so two
    structurally congruent compositions yield the same tree::

        seq(seq(a, b), c) == seq(a, seq(b, c)) == seq(a, b, c)
    """
    flat: list[HistoryExpression] = []
    for part in parts:
        _flatten_seq(part, flat)
    if not flat:
        return EPSILON
    result = flat[-1]
    for part in reversed(flat[:-1]):
        result = Seq(part, result)
    return result


def _flatten_seq(term: HistoryExpression, out: list[HistoryExpression]) -> None:
    if isinstance(term, Epsilon):
        return
    if isinstance(term, Seq):
        _flatten_seq(term.first, out)
        _flatten_seq(term.second, out)
        return
    out.append(term)


def event(name: str, *params: object) -> EventNode:
    """Build the event term ``α_name(params)``."""
    return EventNode(Event(name, tuple(params)))  # type: ignore[arg-type]


def send(channel: str,
         continuation: HistoryExpression = EPSILON) -> InternalChoice:
    """A single output prefix ``ā.H`` (a one-branch internal choice)."""
    return InternalChoice(((Send(channel), continuation),))


def receive(channel: str,
            continuation: HistoryExpression = EPSILON) -> ExternalChoice:
    """A single input prefix ``a.H`` (a one-branch external choice)."""
    return ExternalChoice(((Receive(channel), continuation),))


def external(*branches: tuple[str | Receive, HistoryExpression]
             ) -> ExternalChoice:
    """External choice ``Σ a_i.H_i`` from (channel, continuation) pairs."""
    resolved = tuple(
        (label if isinstance(label, Receive) else Receive(label), cont)
        for label, cont in branches)
    return ExternalChoice(resolved)


def internal(*branches: tuple[str | Send, HistoryExpression]
             ) -> InternalChoice:
    """Internal choice ``⊕ ā_i.H_i`` from (channel, continuation) pairs."""
    resolved = tuple(
        (label if isinstance(label, Send) else Send(label), cont)
        for label, cont in branches)
    return InternalChoice(resolved)


def request(rid: str, policy: object | None,
            body: HistoryExpression) -> Request:
    """The session term ``open_{rid,policy} body close_{rid,policy}``."""
    return Request(str(rid), policy, body)


def framing(policy: object, body: HistoryExpression) -> Framing:
    """The security framing ``policy[body]``."""
    return Framing(policy, body)


def mu(var: str, body: HistoryExpression) -> Mu:
    """The recursion ``μvar.body``."""
    return Mu(var, body)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def free_variables(term: HistoryExpression) -> frozenset[str]:
    """The free recursion variables of *term*.

    Cached on each node: the first query fills the cache of every node
    below *term* still lacking it, in one iterative post-order pass, so
    later queries — on *term* or any of its subterms — are O(1)."""
    try:
        return term._free
    except AttributeError:
        pass
    stack = [term]
    while stack:
        node = stack[-1]
        pending = [child for child in node.children()
                   if not hasattr(child, "_free")]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        _set_free(node, node._free_variables())
    return term._free


def is_closed(term: HistoryExpression) -> bool:
    """True iff *term* has no free recursion variables."""
    return not free_variables(term)


def substitute(term: HistoryExpression, var: str,
               replacement: HistoryExpression) -> HistoryExpression:
    """Capture-avoiding substitution ``term{replacement / var}``.

    Because recursion in the calculus is tail recursion over named
    variables, capture can only occur through shadowing ``μ`` binders; an
    inner binder with the same name simply stops the substitution.
    """
    if isinstance(term, Var):
        return replacement if term.name == var else term
    if isinstance(term, Mu):
        if term.var == var:
            return term
        if term.var in free_variables(replacement):
            fresh = _fresh_name(term.var,
                                free_variables(replacement)
                                | free_variables(term.body))
            renamed = substitute(term.body, term.var, Var(fresh))
            return Mu(fresh, substitute(renamed, var, replacement))
        return Mu(term.var, substitute(term.body, var, replacement))
    if isinstance(term, Seq):
        return seq(substitute(term.first, var, replacement),
                   substitute(term.second, var, replacement))
    if isinstance(term, ExternalChoice):
        return ExternalChoice(tuple(
            (label, substitute(cont, var, replacement))
            for label, cont in term.branches))
    if isinstance(term, InternalChoice):
        return InternalChoice(tuple(
            (label, substitute(cont, var, replacement))
            for label, cont in term.branches))
    if isinstance(term, Request):
        return Request(term.request, term.policy,
                       substitute(term.body, var, replacement))
    if isinstance(term, Framing):
        return Framing(term.policy, substitute(term.body, var, replacement))
    return term


def _fresh_name(base: str, avoid: Iterable[str]) -> str:
    avoid_set = set(avoid)
    candidate = base
    counter = 0
    while candidate in avoid_set:
        counter += 1
        candidate = f"{base}_{counter}"
    return candidate


def unfold(term: Mu) -> HistoryExpression:
    """One unfolding ``H{μh.H / h}`` of a recursion."""
    return substitute(term.body, term.var, term)


def requests_of(term: HistoryExpression) -> tuple[Request, ...]:
    """All :class:`Request` subterms of *term*, in pre-order.

    This includes requests nested inside other requests (nested sessions).
    """
    return tuple(node for node in term.walk() if isinstance(node, Request))


def events_of(term: HistoryExpression) -> frozenset[Event]:
    """All concrete access events syntactically occurring in *term*."""
    return frozenset(node.event for node in term.walk()
                     if isinstance(node, EventNode))


def channels_of(term: HistoryExpression) -> frozenset[str]:
    """All channel names occurring in *term* (inputs and outputs alike)."""
    channels: set[str] = set()
    for node in term.walk():
        if isinstance(node, ExternalChoice):
            channels.update(label.channel for label, _ in node.branches)
        elif isinstance(node, InternalChoice):
            channels.update(label.channel for label, _ in node.branches)
    return frozenset(channels)


def policies_of(term: HistoryExpression) -> frozenset[object]:
    """All policies mentioned by framings or requests of *term*."""
    found: set[object] = set()
    for node in term.walk():
        if isinstance(node, (Framing, FrameClosePending)):
            found.add(node.policy)
        elif isinstance(node, (Request, ClosePending)):
            if node.policy is not None:
                found.add(node.policy)
    return frozenset(found)


#: Union type of every concrete node class (useful for exhaustive matches).
Node = Union[Epsilon, Var, Mu, EventNode, Seq, ExternalChoice, InternalChoice,
             Request, ClosePending, Framing, FrameClosePending]
