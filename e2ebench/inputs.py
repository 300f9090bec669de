"""Seeded request streams for the end-to-end benchmark.

Pure Python: nothing here imports the program under test.  Each
workload turns its seed into fixed inputs (built before set-up) and an
endless stream of plain request descriptions (tuples and module source
text).  The stream is a generator: each block is made just before its
first request and dropped once the next block starts, so the run's
memory holds what the program keeps, not the benchmark's inputs.  The
clock runs only inside requests, so making a block is never timed.
The program only ever receives what these descriptions turn into.

Every stream is a sequence of *blocks* with a fixed composition: the
sizes and kinds of the requests in a block follow its index, and the
seed picks the rest (salts, prices and blacklists, defect positions,
which earlier requests repeat) and the order within the block.  A run
stops at a block boundary, so it sees the same mix of request kinds
whatever the seed, which keeps the percentiles comparable from seed to
seed.

A request is ``(key, block, payload)``.  ``key`` identifies the input:
a request whose key already occurred earlier in the stream is *warm*
(it repeats that input verbatim), otherwise it is *cold*.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections.abc import Callable, Iterator
from pathlib import Path

Stream = Iterator[tuple]


def input_key(text: str) -> str:
    """A short, fixed-size key for an input, so the record of which
    inputs a run has seen stays small."""
    return hashlib.sha256(text.encode()).hexdigest()[:24]


# -- compliance_stream -------------------------------------------------------

#: (width, depth, fresh requests per block).  Every w·d ≤ 12 point of
#: the S1 grid but the two costly corners, which take turns: a block
#: holds one of :data:`WIDE_CORNERS`, the one at its index mod 2.
WIDE_GRID = ((2, 2, 3), (2, 3, 3), (3, 2, 3), (4, 2, 3),
             (2, 4, 2), (3, 3, 2))
WIDE_CORNERS = ((3, 4), (4, 3))

#: Short linear alternating chains per block, their lengths spread
#: evenly over 50-164 messages.  Warm repeats are drawn only from these:
#: a verbatim repeat of a chain of about 200 messages or more overflows
#: the recursion limit in structural term equality (see layers.json).
LINEAR_PER_BLOCK = 23
LINEAR_SHORTEST = 50
LINEAR_STEP = 5
#: One long chain per block, always cold, in 165-400 messages: the band
#: is cut into strata and block ``b`` draws from stratum ``5·b mod 8``,
#: so any eight consecutive blocks cover it evenly whatever the seed.
LONG_CHAIN = (165, 400, 8)


def compliance_stream(seed: int, _examples: Path) -> tuple[None, Stream]:
    """Client/server pairs to decide with ``check_compliance``.

    Payloads: ``("wide", w, d, salt, level)`` and
    ``("linear", n, salt, defect)``.  ``level`` is ``None`` for the
    matching server or the round (counted inside-out, as in the S1
    family) that sends one unhandled answer; ``defect`` is ``None`` or
    the odd message index at which the server offers one extra output.
    """
    return None, _compliance_requests(random.Random(seed))


def _compliance_requests(rng: random.Random) -> Stream:
    previous: dict[str, list[tuple]] = {}
    salt = 0
    for block_index in itertools.count():
        fresh: dict[str, list[tuple]] = {"small": [], "mid": [],
                                         "big": [], "linear": [],
                                         "long": []}
        corner = WIDE_CORNERS[block_index % len(WIDE_CORNERS)]
        for width, depth, count in (*WIDE_GRID, (*corner, 1)):
            for slot in range(count):
                salt += 1
                # The matching server, a defect in the deepest round and
                # a defect in a seeded other round take turns.
                kind = (block_index + slot) % 3
                level = (None if kind == 0 else 0 if kind == 1
                         else rng.randrange(1, depth))
                tier = ("big" if width * depth == 12 else
                        "mid" if width * depth >= 8 else "small")
                fresh[tier].append(("wide", width, depth, f"s{salt}_",
                                    level))
        lengths = [LINEAR_SHORTEST + LINEAR_STEP * slot
                   + rng.randrange(LINEAR_STEP)
                   for slot in range(LINEAR_PER_BLOCK)]
        low, high, strata = LONG_CHAIN
        stratum = 5 * block_index % strata
        lengths.append(low + int((stratum + rng.random())
                                 * (high - low) / strata))
        for slot, length in enumerate(lengths):
            salt += 1
            defect = rng.randrange(1, length, 2) if slot % 2 else None
            tier = "long" if slot == LINEAR_PER_BLOCK else "linear"
            fresh[tier].append(("linear", length, f"s{salt}_", defect))
        block = [item for group in fresh.values() for item in group]
        # About a quarter of the block repeats inputs of the previous
        # block (the first block repeats its own), at slots that follow
        # the block index so the warm mix is the same whatever the seed:
        # one wide pair of each small shape, one mid-sized pair and every
        # third short chain, the offset turning from block to block so
        # the warm chains cover every short length.  The costly corner
        # and the long chain stay cold: they are under 4% of the stream,
        # so the p95 latency falls among the many mid-sized requests.
        pool = previous or fresh
        block += (pool["small"][::3] + [pool["mid"][block_index % 7]]
                  + pool["linear"][block_index % 3::3])
        rng.shuffle(block)
        previous = fresh
        for payload in block:
            yield repr(payload), block_index, payload


# -- module_analysis / chaos_campaign: booking networks ----------------------

_CLIENT_PROTOCOL = "!Req . (?CoBo . !Pay + ?NoAv)"
_BROKER = ("?Req ;\n    open {rid} {{ !IdC . (?Bok + ?UnA) }} ;\n"
           "    (!CoBo . ?Pay ++ !NoAv)")


def booking_module(rng: random.Random, clients: int, brokers: int,
                   hotels: int, *, doomed: Callable[[int], bool],
                   with_del: Callable[[int], bool]) -> tuple[str, dict]:
    """A seeded booking network in the ``.sus`` syntax and its answer.

    Each client books through any broker under its own
    ``hotel(bl, p, t)`` policy; each broker opens one nested request to
    a hotel.  Hotel ``j`` with ``with_del(j)`` also offers ``!Del``, so it
    is not compliant with the brokers' request; a hotel whose events
    break a client's policy cannot serve that client.  Client ``i`` with
    ``doomed(i)`` blacklists every compliant hotel, so it has no valid
    plan.

    The returned answer maps each client to the set of hotels that can
    serve it, worked out from the construction alone: a client has a
    valid plan exactly when that set is non-empty, and any valid plan
    routes the nested request to one of those hotels.
    """
    hotel_specs = [(f"ls{index + 1}", index + 1, rng.randint(30, 100),
                    rng.randint(50, 100), with_del(index) and index > 0)
                   for index in range(hotels)]
    compliant = [spec for spec in hotel_specs if not spec[4]]

    lines = []
    answer: dict[str, set[str]] = {}
    for index in range(clients):
        name = f"lc{index + 1}"
        price = rng.randint(35, 95)
        rating = rng.randint(55, 100)
        if doomed(index):
            blacklist = sorted(spec[1] for spec in compliant)
        else:
            blacklist = sorted(rng.sample(
                [spec[1] for spec in hotel_specs],
                rng.randint(0, min(2, hotels - 1))))
        lines.append(f"policy phi{index + 1} = hotel(bl = "
                     f"{{{', '.join(map(str, blacklist))}}}, "
                     f"p = {price}, t = {rating})")
        lines.append(f"client {name} = open {index + 1} with "
                     f"phi{index + 1} {{ {_CLIENT_PROTOCOL} }}")
        answer[name] = {
            spec[0] for spec in compliant
            if _policy_allows(blacklist, price, rating, spec)}
    broker_rid = clients + 1
    for index in range(brokers):
        lines.append(f"service lbr{index + 1} =\n    "
                     + _BROKER.format(rid=broker_rid))
    for name, sgn, price, rating, has_del in hotel_specs:
        replies = "!Bok ++ !UnA" + (" ++ !Del" if has_del else "")
        lines.append(f"service {name} = @sgn({sgn}) ; @p({price}) ; "
                     f"@ta({rating}) ; ?IdC . ({replies})")
    return "\n".join(lines) + "\n", answer


def _policy_allows(blacklist, price, rating, hotel) -> bool:
    """The ``hotel(bl, p, t)`` usage policy on one hotel's events: a
    black-listed signature, or a price above ``p`` followed by a rating
    below ``t``, violates it."""
    _, sgn, hotel_price, hotel_rating, _ = hotel
    if sgn in blacklist:
        return False
    return not (hotel_price > price and hotel_rating < rating)


#: Generated modules per block, by tier: the (clients, brokers, hotels)
#: choices a tier cycles through and how many modules of the tier one
#: block holds.
MODULE_TIERS = (
    ([(c, 1, h) for c in (2, 3) for h in (4, 5, 6)], 16),
    ([(c, b, h) for c in (3, 4, 5) for b in (1, 2) for h in (6, 8, 10)], 5),
    ([(c, b, h) for c in (6, 7, 8) for b in (2, 3) for h in (12, 14, 16)], 1),
)
EXAMPLE_MODULES = ("hotel_booking", "resilient_booking", "broken_booking")


def module_analysis(seed: int, examples: Path) -> tuple[dict, Stream]:
    """Modules to parse, lint and analyse.

    The fixed inputs are the example modules' sources and their
    ``repro analyze --format json`` goldens, where one exists.  Payloads:
    ``("example", name)`` and ``("generated", source, answer)``.
    Each block analyses every example once (after the first block these
    are warm), 22 fresh generated modules (16 small, 5 medium, 1 large)
    and six verbatim repeats of small modules from the previous block.
    In a generated module a quarter of the clients are doomed and a
    fifth of the hotels offer ``!Del``.
    """
    golden = examples / "golden"
    fixed = {"sources": {name: (examples / f"{name}.sus").read_text()
                         for name in EXAMPLE_MODULES},
             "goldens": {name: (golden / f"{name}.sus.json").read_text()
                         for name in EXAMPLE_MODULES
                         if (golden / f"{name}.sus.json").exists()}}
    return fixed, _module_requests(random.Random(seed))


def _module_requests(rng: random.Random) -> Stream:
    previous: list[tuple] = []
    for block_index in itertools.count():
        fresh = []
        for shapes, count in MODULE_TIERS:
            for slot in range(count):
                clients, brokers, hotels = shapes[
                    (block_index * count + slot) % len(shapes)]
                turn = block_index + slot
                source, answer = booking_module(
                    rng, clients, brokers, hotels,
                    doomed=lambda i, t=turn: (i + t) % 4 == 0,
                    with_del=lambda j, t=turn: (j + t) % 5 == 2)
                fresh.append(("generated", source, answer))
        # The first sixteen generated modules of a block are the small
        # tier: every third of them repeats in the next block (the first
        # block repeats its own).  The one large module stays cold, so
        # the p95 latency falls among the medium ones.
        block = (fresh + [("example", name) for name in EXAMPLE_MODULES]
                 + (previous or fresh)[:16:3])
        rng.shuffle(block)
        previous = fresh
        for payload in block:
            yield input_key(payload[1]), block_index, payload


#: Trials per chaos campaign: fixed, so every request does the same
#: amount of supervised work for its module.
CHAOS_TRIALS = 6
#: (clients, hotels) of the generated networks parsed at set-up beside
#: the two examples.  Most are one-client, three-hotel networks, so the
#: median request falls inside that group rather than between groups.
CHAOS_SHAPES = ((1, 2), (1, 3), (1, 3), (1, 3), (1, 3), (1, 3), (1, 4),
                (2, 2), (2, 3), (2, 4))


def chaos_campaign(seed: int, examples: Path) -> tuple[dict, Stream]:
    """Chaos campaigns: payload ``(module name, campaign seed)``.

    The fixed inputs are the sources of both example modules and of ten
    generated networks of :data:`CHAOS_SHAPES`, each with two brokers
    and every hotel compliant and within every client's policy, so each
    request has at least two providers.  Each block runs every module
    once under a fresh campaign seed, then repeats four (module, seed)
    pairs of the previous block: one example and three one-client,
    three-hotel networks.
    """
    rng = random.Random(seed)
    modules = {name: (examples / f"{name}.sus").read_text()
               for name in ("resilient_booking", "hotel_booking")}
    for index, (clients, hotels) in enumerate(CHAOS_SHAPES):
        source, _answer = booking_module(rng, clients, 2, hotels,
                                         doomed=_never, with_del=_never)
        modules[f"net{index}"] = _permissive(source)
    typical = {f"net{index}" for index, shape in enumerate(CHAOS_SHAPES)
               if shape == (1, 3)}
    return ({"trials": CHAOS_TRIALS, "modules": modules},
            _chaos_requests(rng, list(modules), typical))


def _chaos_requests(rng: random.Random, names: list[str],
                    typical: set[str]) -> Stream:
    previous: list[tuple] = []
    for block_index in itertools.count():
        fresh = [(name, rng.randrange(2 ** 31)) for name in names]
        pool = previous or fresh
        block = (fresh + rng.sample(pool[:2], 1)
                 + rng.sample([p for p in pool if p[0] in typical], 3))
        rng.shuffle(block)
        previous = fresh
        for payload in block:
            yield repr(payload), block_index, payload


def _never(_index: int) -> bool:
    return False


def _permissive(source: str) -> str:
    """Relax every client policy so each generated hotel satisfies it:
    chaos needs a verified module with spare providers."""
    out = []
    for line in source.splitlines():
        if line.startswith("policy "):
            head = line.split("=", 1)[0]
            line = f"{head}= hotel(bl = {{}}, p = 100, t = 0)"
        out.append(line)
    return "\n".join(out) + "\n"


# -- registry_mixed ----------------------------------------------------------

#: Registry size built during set-up.
REGISTRY_SIZE = 2000
S4_CHANNELS = "abcdefgh"


def s4_contract(rng: random.Random, depth: int) -> tuple:
    """One contract of the seeded S4 family as a plain tree: the T1
    grammar plus guarded recursion over per-contract channel subsets of
    an eight-channel pool, so entries spread over many signature
    buckets.  Nodes: ``("eps",)``, ``("int"|"ext", ((ch, tree), ...))``,
    ``("mu", var, tree)``, ``("seq", tree, tree)``."""
    if depth == 0:
        return ("eps",)
    kind = rng.randrange(4)
    chans = rng.sample(S4_CHANNELS, rng.randint(1, 3))
    if kind == 0:
        return ("int", tuple((c, s4_contract(rng, depth - 1))
                             for c in chans))
    if kind == 1:
        return ("ext", tuple((c, s4_contract(rng, depth - 1))
                             for c in chans))
    if kind == 2:
        return ("mu", "h", ("int", ((chans[0],
                                     s4_contract(rng, depth - 1)),)))
    return ("seq", s4_contract(rng, depth - 1), s4_contract(rng, depth - 1))


def dual(tree: tuple) -> tuple:
    """The syntactic dual of an S4 tree: outputs and inputs swapped."""
    kind = tree[0]
    if kind == "eps":
        return tree
    if kind == "seq":
        return ("seq", dual(tree[1]), dual(tree[2]))
    if kind == "mu":
        return ("mu", tree[1], dual(tree[2]))
    flipped = "ext" if kind == "int" else "int"
    return (flipped, tuple((c, dual(sub)) for c, sub in tree[1]))


def registry_population(seed: int) -> list[tuple]:
    """The contracts registered during set-up."""
    rng = random.Random(seed)
    return [s4_contract(rng, rng.randint(1, 4)) for _ in range(REGISTRY_SIZE)]


def registry_mixed(seed: int, _examples: Path
                   ) -> tuple[list[tuple], Stream]:
    """The timed stream over a registry built from
    :func:`registry_population` with the same seed.

    Payloads: ``("add", name, tree)``, ``("compliant", tree)`` and
    ``("substitutable", tree)``.  Each block holds two adds of fresh
    contracts, three compliant queries with the dual of a member, three
    substitutable queries with a copy of a member, two queries (one of
    each kind) with fresh contracts, and two verbatim repeats of queries
    from the previous block.
    """
    population = registry_population(seed)
    return population, _registry_requests(random.Random(seed + 1),
                                          population)


def _registry_requests(rng: random.Random, population: list[tuple]
                       ) -> Stream:
    previous: list[tuple] = []
    added = 0
    for block_index in itertools.count():
        fresh = []
        for _ in range(3):
            fresh.append(("compliant", dual(rng.choice(population))))
            fresh.append(("substitutable", rng.choice(population)))
        fresh.append(("compliant", s4_contract(rng, rng.randint(1, 4))))
        fresh.append(("substitutable", s4_contract(rng, rng.randint(1, 4))))
        block = list(fresh)
        for _ in range(2):
            added += 1
            block.append(("add", f"new{added:05d}",
                          s4_contract(rng, rng.randint(1, 4))))
        block.extend(rng.sample(previous or fresh, 2))
        rng.shuffle(block)
        previous = fresh
        for payload in block:
            yield input_key(repr(payload)), block_index, payload


STREAMS = {
    "compliance_stream": compliance_stream,
    "module_analysis": module_analysis,
    "chaos_campaign": chaos_campaign,
    "registry_mixed": registry_mixed,
}
