"""Behavioural contracts: projected history expressions with a finite LTS.

A :class:`Contract` wraps the projection ``H!`` of a history expression and
caches the finite transition system it generates.  The finiteness relies on
the calculus restrictions (guarded tail recursion; see Section 4: "the
transition system of H! is finite state").
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.actions import Label, Receive, Send, is_input, is_output
from repro.core.projection import project
from repro.core.ready_sets import ReadySet, ready_sets
from repro.core.semantics import step
from repro.core.syntax import HistoryExpression, is_closed
from repro.contracts.lts import LTS, build_lts
from repro.observability.cache_stats import (cache_stats, reset_cache_stats,
                                             track_cache)

#: Entries kept in the shared projection / LTS caches.  Terms are interned
#: immutable values with cached hashes and identity equality, so a lookup
#: is O(1) and caching is sound; the bound only trades memory for
#: recomputation.
CONTRACT_CACHE_SIZE = 4096


@lru_cache(maxsize=CONTRACT_CACHE_SIZE)
def _projection_of(term: HistoryExpression) -> HistoryExpression:
    """Shared, memoised projection ``H!``."""
    return project(term)


@lru_cache(maxsize=CONTRACT_CACHE_SIZE)
def _lts_of(projected: HistoryExpression) -> LTS[HistoryExpression, Label]:
    """Shared, memoised transition system of a projected term.

    Keyed on the (interned) projected term, so every ``Contract`` over a
    structurally equal term — however constructed — reuses one built LTS
    (and with it the label-indexed adjacency the LTS itself caches).
    """
    return build_lts(projected, step)


track_cache("contracts.projection", _projection_of)
track_cache("contracts.lts", _lts_of)

#: The cache-stats names owned by this module (see
#: :func:`contract_cache_stats`).  Higher layers append their own names
#: through :func:`register_cache_stat_names`, so one
#: :func:`contract_cache_stats` call surveys every contract-derived memo
#: table (the compiled transition tables in particular).
_CACHE_NAMES: list[str] = ["contracts.projection", "contracts.lts"]


def register_cache_stat_names(*names: str) -> None:
    """Expose additional cache-stats *names* through
    :func:`contract_cache_stats`.  Idempotent per name."""
    for name in names:
        if name not in _CACHE_NAMES:
            _CACHE_NAMES.append(name)

#: Extra cache-clearing callbacks run by :func:`clear_contract_caches`.
#: Higher layers (``repro.staticcheck`` in particular) memoise results
#: *derived from* contracts; stale derivations after a cache reset would
#: desynchronise benchmarks and cache-stats baselines, so they register
#: their own clearers here instead of this module importing them (which
#: would invert the layering).
_EXTRA_CLEARERS: list = []


def register_cache_clearer(clearer) -> None:
    """Register *clearer* (a zero-argument callable) to run whenever
    :func:`clear_contract_caches` is invoked.  Idempotent per callable."""
    if clearer not in _EXTRA_CLEARERS:
        _EXTRA_CLEARERS.append(clearer)


def clear_contract_caches() -> None:
    """Drop the shared projection and LTS caches (benchmark hygiene) and
    rebaseline their telemetry adapters, so hit/miss counts read from a
    clean slate afterwards.  Registered higher-layer clearers (see
    :func:`register_cache_clearer`) run as well, so memo tables derived
    from contracts never outlive the contracts themselves.  The flight
    recorder's per-kind counters are rebaselined too (after noting the
    flush as a ``cache.cleared`` event), so event counts — like cache
    hit/miss counts — always read relative to the last flush."""
    _projection_of.cache_clear()
    _lts_of.cache_clear()
    reset_cache_stats(*_CACHE_NAMES)
    for clearer in _EXTRA_CLEARERS:
        clearer()
    from repro.observability import runtime as _telemetry
    tel = _telemetry.active()
    if tel is not None:
        tel.emit("cache.cleared", caches=len(_CACHE_NAMES))
        tel.events.rebaseline()


def contract_cache_stats() -> dict[str, dict[str, int]]:
    """Hits/misses/size of the projection and LTS caches since the last
    :func:`clear_contract_caches` (or adapter reset)."""
    return cache_stats(*_CACHE_NAMES)


class Contract:
    """The communication behaviour of a (closed) history expression.

    Instances are immutable; the underlying LTS is built on first use and
    cached.  Two contracts are equal iff their projected terms are the
    same interned node, i.e. structurally equal.
    """

    __slots__ = ("_term", "__dict__")

    def __init__(self, term: HistoryExpression,
                 already_projected: bool = False) -> None:
        if not is_closed(term):
            raise ValueError("contracts are built from closed history "
                             "expressions only")
        self._term = term if already_projected else _projection_of(term)

    @property
    def term(self) -> HistoryExpression:
        """The projected history expression ``H!``."""
        return self._term

    @property
    def lts(self) -> LTS[HistoryExpression, Label]:
        """The (finite) transition system of the contract.

        Served from the module-level LRU, shared across all structurally
        equal contracts."""
        return _lts_of(self._term)

    @property
    def states(self) -> frozenset[HistoryExpression]:
        """All reachable contract states."""
        return self.lts.states

    def ready_sets_of(self, state: HistoryExpression | None = None
                      ) -> frozenset[ReadySet]:
        """Ready sets of *state* (default: the initial state)."""
        return ready_sets(self._term if state is None else state)

    def outputs_from(self, state: HistoryExpression) -> frozenset[Send]:
        """Output actions enabled in *state*."""
        return frozenset(label for label in self.lts.labels_from(state)
                         if is_output(label))

    def inputs_from(self, state: HistoryExpression) -> frozenset[Receive]:
        """Input actions enabled in *state*."""
        return frozenset(label for label in self.lts.labels_from(state)
                         if is_input(label))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Contract):
            return NotImplemented
        return self._term == other._term

    def __hash__(self) -> int:
        return hash(("Contract", self._term))

    def __repr__(self) -> str:
        return f"Contract({self._term!r})"

    def __str__(self) -> str:
        from repro.lang.pretty import pretty
        return pretty(self._term)
