"""What one request of each workload does, and how its answer is checked.

Each workload class has three parts:

* ``setup()`` builds the fixed state a caller would hold before its
  first request (counted in ``setup_s``);
* ``run(payload)`` is the timed request: public entry points only, with
  default options, the way a caller or the CLI calls them;
* ``check(key, payload, result)`` compares the result with an answer the
  code under test did not produce, and raises :class:`Mismatch` if they
  differ.  ``final_checks()`` runs the costlier oracles on a seeded
  sample once the timed loop is over.

Checks run with the clock stopped.  ``layer_counts(payload, result)``
reads the per-request counts the traced run reports from the returned
objects.

Requests call entry points through their modules (``lang.parse_module``),
never through a reference bound at set-up, so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

from repro.core.syntax import (EPSILON, Seq, external, internal, mu,
                               receive, send)


class Mismatch(Exception):
    """A request's result differs from its known answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def digest(text: str) -> str:
    """What a repeat is compared by: keeping digests rather than whole
    reports keeps the checks out of the run's peak memory."""
    return hashlib.sha256(text.encode()).hexdigest()


class Reservoir:
    """A uniform sample of *size* items from a stream of unknown length,
    drawn with a fixed seed so a run's sample follows from its inputs."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.items: list = []
        self.offered = 0
        self.rng = random.Random(size)

    def offer(self, item) -> None:
        self.offered += 1
        if len(self.items) < self.size:
            self.items.append(item)
            return
        slot = self.rng.randrange(self.offered)
        if slot < self.size:
            self.items[slot] = item


# -- compliance_stream -------------------------------------------------------

def wide_pair(width: int, depth: int, salt: str, level: int | None):
    """The S1 wide client and its matching server (``level is None``)
    or the server whose round *level* (counted inside-out) sends one
    extra, unhandled answer.  Subterms are shared between branches, as
    in the S1 family, so the terms are small DAGs with large
    unfoldings."""
    client = server = EPSILON
    for round_ in range(depth):
        answers = tuple((f"{salt}ans_{round_}_{i}",
                         send(f"{salt}fin_{round_}_{i}", client))
                        for i in range(width))
        client = internal(*((f"{salt}msg_{round_}_{i}", external(*answers))
                            for i in range(width)))
        replies = [(f"{salt}ans_{round_}_{i}",
                    receive(f"{salt}fin_{round_}_{i}", server))
                   for i in range(width)]
        if round_ == level:
            replies.append((f"{salt}surprise_{round_}", EPSILON))
        server = external(*((f"{salt}msg_{round_}_{i}", internal(*replies))
                            for i in range(width)))
    return client, server


def linear_pair(length: int, salt: str, defect: int | None):
    """An alternating chain of *length* messages (the client sends the
    even ones) and its dual server; at the odd index *defect* the server
    may also send an output the client never expects."""
    client = server = EPSILON
    for index in reversed(range(length)):
        channel = f"{salt}m{index}"
        if index % 2 == 0:
            client = send(channel, client)
            server = receive(channel, server)
        else:
            client = receive(channel, client)
            server = (internal((channel, server), (f"{salt}bad", EPSILON))
                      if index == defect else send(channel, server))
    return client, server


def expected_compliance(payload: tuple) -> tuple[bool, int | None]:
    """Verdict and shortest-trace length (in product states) fixed by
    construction.  A wide defect in round *level* is met after the three
    synchronisations (request, answer, acknowledgement) of each of the
    ``depth − 1 − level`` rounds above it plus the request of its own
    round; a linear defect at message *defect* after *defect*
    synchronisations.  The trace holds the initial pair as well."""
    if payload[0] == "wide":
        _, _, depth, _, level = payload
        if level is None:
            return True, None
        return False, 3 * (depth - 1 - level) + 2
    _, _, _, defect = payload
    if defect is None:
        return True, None
    return False, defect + 1


class ComplianceStream:
    name = "compliance_stream"

    def __init__(self, fixed) -> None:
        self.explored: dict[str, int] = {}

    def setup(self) -> None:
        import repro.core.compliance
        self.compliance = repro.core.compliance

    def run(self, payload: tuple):
        if payload[0] == "wide":
            client, server = wide_pair(*payload[1:])
        else:
            client, server = linear_pair(*payload[1:])
        return self.compliance.check_compliance(client, server)

    def check(self, key: str, payload: tuple, result) -> None:
        verdict, trace_length = expected_compliance(payload)
        expect(result.compliant == verdict,
               f"{payload}: verdict {result.compliant}, expected {verdict}")
        got = None if result.trace is None else len(result.trace)
        expect(got == trace_length,
               f"{payload}: trace of {got} states, expected {trace_length}")
        # A repeat must explore exactly what the first request explored.
        first = self.explored.setdefault(key, result.explored_states)
        expect(first == result.explored_states,
               f"{payload}: explored {result.explored_states} states, "
               f"{first} the first time")

    def final_checks(self) -> int:
        return 0

    def layer_counts(self, payload, result) -> dict:
        return {}


# -- module_analysis ---------------------------------------------------------

_HOTEL_IN_PLAN = re.compile(r"\[(ls\d+)\]")

#: Generated modules checked against the exhaustive explorer per run.
EXPLORER_SAMPLE = 2


def analysis_json(analysis) -> str:
    """``repro analyze --format json`` output for *analysis*."""
    return json.dumps(analysis.to_json(), indent=2, sort_keys=True) + "\n"


def exhaustive_plans(module) -> dict[str, set[str]]:
    """Each client's valid plans, by brute force: every enumerated plan
    run through the exhaustive network explorer."""
    from repro.analysis.planner import enumerate_plans
    from repro.network.config import Component, Configuration
    from repro.network.explorer import plan_is_valid_exhaustive
    valid: dict[str, set[str]] = {}
    repository = module.repository
    for name, term in module.clients.items():
        configuration = Configuration.of(Component.client(name, term))
        valid[name] = {
            str(plan) for plan in enumerate_plans(term, repository)
            if plan_is_valid_exhaustive(configuration, plan, repository)}
    return valid


class ModuleAnalysis:
    name = "module_analysis"

    def __init__(self, fixed) -> None:
        self.sources = fixed["sources"]
        self.goldens = fixed["goldens"]
        self.first_digest: dict[str, str] = {}
        # Examples without an analyze golden, and a seeded sample of
        # distinct generated modules, go to the exhaustive explorer.
        self.unpinned: dict[str, tuple] = {}
        self.sample = Reservoir(EXPLORER_SAMPLE)

    def setup(self) -> None:
        import repro.lang.module
        import repro.lint
        import repro.staticcheck
        self.lang = repro.lang.module
        self.lint = repro.lint
        self.staticcheck = repro.staticcheck

    def run(self, payload: tuple):
        if payload[0] == "example":
            source, path = self.sources[payload[1]], f"{payload[1]}.sus"
        else:
            source, path = payload[1], "generated.sus"
        module = self.lang.parse_module(source, path=path)
        diagnostics = self.lint.lint_module(module)
        return module, diagnostics, self.staticcheck.analyze_module(module)

    def check(self, key: str, payload: tuple, result) -> None:
        module, _diagnostics, analysis = result
        text = analysis_json(analysis)
        is_new = key not in self.first_digest
        first = self.first_digest.setdefault(key, digest(text))
        expect(is_new or digest(text) == first, f"module {key}: analysis "
               "differs from the first analysis of the same module")
        if payload[0] == "example":
            golden = self.goldens.get(payload[1])
            if golden is not None:
                expect(text == golden,
                       f"{payload[1]}: analysis differs from its golden")
            else:
                self.unpinned.setdefault(payload[1], (module, analysis))
            return
        answer = payload[2]
        plans = {report.client: report for report in analysis.plans}
        expect(set(plans) == set(answer), f"clients {sorted(plans)}, "
               f"expected {sorted(answer)}")
        for client, hotels in answer.items():
            report = plans[client]
            expect(report.valid == bool(hotels),
                   f"{client}: valid={report.valid}, expected "
                   f"{bool(hotels)} (serving hotels {sorted(hotels)})")
            if report.valid:
                chosen = _HOTEL_IN_PLAN.findall(report.plan)
                expect(len(chosen) == 1 and chosen[0] in hotels,
                       f"{client}: plan {report.plan} routes to a hotel "
                       f"outside {sorted(hotels)}")
        if is_new:
            self.sample.offer((module, analysis))

    def final_checks(self) -> int:
        checked = [*self.unpinned.items(),
                   *(("generated", item) for item in self.sample.items)]
        for label, (module, analysis) in checked:
            valid = exhaustive_plans(module)
            for report in analysis.plans:
                expect(report.valid == bool(valid[report.client]),
                       f"{label} {report.client}: valid={report.valid}, "
                       f"explorer finds {len(valid[report.client])} "
                       "valid plan(s)")
                if report.valid:
                    expect(report.plan in valid[report.client],
                           f"{label} {report.client}: plan {report.plan} "
                           "is not valid for the explorer")
        return len(checked)

    def layer_counts(self, payload, result) -> dict:
        _module, diagnostics, _analysis = result
        return {"lint.diagnostics": len(diagnostics)}


# -- chaos_campaign ----------------------------------------------------------

class ChaosCampaign:
    name = "chaos_campaign"

    def __init__(self, fixed) -> None:
        self.trials = fixed["trials"]
        self.sources = fixed["modules"]
        self.first_digest: dict[str, str] = {}

    def setup(self) -> None:
        import repro.lang.module
        import repro.resilience
        self.resilience = repro.resilience
        self.modules = {
            name: repro.lang.module.parse_module(source, path=f"{name}.sus")
            for name, source in self.sources.items()}

    def run(self, payload: tuple):
        name, seed = payload
        module = self.modules[name]
        return self.resilience.run_chaos(module.clients, module.repository,
                                         trials=self.trials, seed=seed,
                                         module=f"{name}.sus")

    def check(self, key: str, payload: tuple, result) -> None:
        expect(len(result.results) == self.trials,
               f"{payload}: {len(result.results)} trials, expected "
               f"{self.trials}")
        expect(result.invariant_holds, f"{payload}: chaos invariant broken")
        text = digest(result.to_json())
        first = self.first_digest.setdefault(key, text)
        expect(text == first,
               f"{payload}: report differs from the first run of the same "
               "(module, seed)")

    def final_checks(self) -> int:
        return 0

    def layer_counts(self, payload, result) -> dict:
        faulted = [trial for trial in result.results if trial.faults]
        return {
            "resilience.trials": len(result.results),
            "resilience.rollbacks": sum(t.rollbacks for t in result.results),
            "resilience.retries": sum(t.retries for t in result.results),
            "resilience.replans": sum(t.replans for t in result.results),
            "resilience.faulted_trials": len(faulted),
            "resilience.recovered_trials": sum(
                1 for t in faulted if t.status == "completed"),
        }


# -- registry_mixed ----------------------------------------------------------

def s4_term(tree: tuple):
    """The history expression of an S4 tree, through the public
    constructors."""
    kind = tree[0]
    if kind == "eps":
        return EPSILON
    if kind == "seq":
        return Seq(s4_term(tree[1]), s4_term(tree[2]))
    if kind == "mu":
        return mu(tree[1], s4_term(tree[2]))
    build = internal if kind == "int" else external
    return build(*((channel, s4_term(sub)) for channel, sub in tree[1]))


#: Queries per run checked against the all-pairs baselines.
EXHAUSTIVE_SAMPLE = 4


class RegistryMixed:
    name = "registry_mixed"

    def __init__(self, fixed) -> None:
        self.population = fixed
        self.added: list[str] = []
        self.first: dict[str, tuple] = {}
        self.sample = Reservoir(EXHAUSTIVE_SAMPLE)

    def setup(self) -> None:
        from repro.registry import ContractRegistry
        self.registry = ContractRegistry()
        for index, tree in enumerate(self.population):
            self.registry.add(f"svc{index:05d}", s4_term(tree))

    def run(self, payload: tuple):
        kind = payload[0]
        if kind == "add":
            return self.registry.add(payload[1], s4_term(payload[2]))
        if kind == "compliant":
            return self.registry.find_compliant(s4_term(payload[1]))
        return self.registry.find_substitutable(s4_term(payload[1]))

    def check(self, key: str, payload: tuple, result) -> None:
        kind = payload[0]
        if kind == "add":
            expect(result.name == payload[1] and payload[1] in self.registry,
                   f"add {payload[1]}: entry not registered")
            self.added.append(payload[1])
            return
        expect(result.total == len(self.registry),
               f"{kind} query saw {result.total} entries, registry holds "
               f"{len(self.registry)}")
        if kind == "substitutable" and payload[1] in self.population:
            # The subcontract preorder is reflexive: a copy of a member
            # is refined by that member.
            member = f"svc{self.population.index(payload[1]):05d}"
            expect(member in result.matches,
                   f"substitutable query with a copy of {member} misses it")
        # Queries read only: a repeat sees the entries added since the
        # first run, so it may gain matches among them but never lose one.
        lost = set(self.first.setdefault(key, result.matches))
        lost.difference_update(result.matches)
        expect(not lost, f"{kind} repeat lost matches {sorted(lost)}")
        self.sample.offer((kind, payload[1], result.matches,
                           len(self.added)))

    def final_checks(self) -> int:
        for kind, tree, matches, adds in self.sample.items:
            present = set(self.added[:adds])
            if kind == "compliant":
                expected = self.registry.exhaustive_compliant(s4_term(tree))
            else:
                expected = self.registry.exhaustive_substitutable(
                    s4_term(tree))
            expected = tuple(name for name in expected
                             if name.startswith("svc") or name in present)
            expect(tuple(matches) == expected,
                   f"{kind} query: indexed {len(matches)} match(es), "
                   f"all-pairs baseline {len(expected)}")
        return len(self.sample.items)

    def layer_counts(self, payload, result) -> dict:
        if payload[0] == "add":
            return {}
        return {"registry.queries": 1,
                "registry.pruning_ratio": result.pruning_ratio,
                "registry.product_checks": result.product_checks}


WORKLOADS = {cls.name: cls for cls in (ComplianceStream, ModuleAnalysis,
                                       ChaosCampaign, RegistryMixed)}
