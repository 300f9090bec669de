"""The layers the traced run times, and how its per-layer metrics are
formed.

Span names follow ``<package>.<function>`` inside ``repro``, so an
in-program tracer can later take over as the source without renaming a
metric.  Two wraps sit one level below the public name, because the
callers that matter reach the work there: ``canon`` and the registry
call the memoised ``repro.compiled.tables._compile`` and
``repro.canon.minimize._quotient`` directly, never ``compile_contract``
or ``minimize``.  Per-state hot functions (``step``, ``__hash__``) are
never wrapped.

Metric names and units are read from ``BENCHMARK.json``; a run that
forms a different set of metrics fails rather than report it.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracer import Target

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
#: End-to-end metric name → unit.
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
#: Per-layer metric name → unit.
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def _lts_states(lts, counts) -> None:
    counts["contracts.lts_states"] = (counts.get("contracts.lts_states", 0)
                                      + len(lts.transitions))


def _explored(search, counts) -> None:
    counts["contracts.explored_states"] = (
        counts.get("contracts.explored_states", 0) + search.explored)


def _validity_explored(certificate, counts) -> None:
    counts["staticcheck.validity_explored"] = (
        counts.get("staticcheck.validity_explored", 0)
        + certificate.explored)


def _plans(result, counts) -> None:
    counts["analysis.plans_valid"] = (counts.get("analysis.plans_valid", 0)
                                      + result.metrics["plans_valid"])
    counts["analysis.plans_analyzed"] = (
        counts.get("analysis.plans_analyzed", 0)
        + result.metrics["plans_analyzed"])


def _fresh(counts, key, obj) -> bool:
    """True the first time *obj* (a memoised result) is seen."""
    seen = counts.setdefault(key, set())
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    return True


def _table_bytes(compiled, counts) -> None:
    if _fresh(counts, "compiled.seen", compiled):
        counts["compiled.table_bytes"] = (
            counts.get("compiled.table_bytes", 0) + compiled.table_bytes())


def _quotient(quotient, counts) -> None:
    if _fresh(counts, "canon.seen", quotient):
        counts["canon.blocks"] = counts.get("canon.blocks", 0) + \
            quotient.n_blocks
        counts["canon.source_states"] = (counts.get("canon.source_states", 0)
                                         + quotient.n_source_states)


TARGETS = [
    Target("core.project", "repro.core.projection", "project"),
    Target("contracts.build_lts", "repro.contracts.lts", "build_lts",
           _lts_states),
    Target("contracts.search_product", "repro.contracts.product",
           "search_product", _explored),
    Target("lang.parse_module", "repro.lang.module", "parse_module"),
    Target("lint.lint_module", "repro.lint.engine", "lint_module"),
    Target("staticcheck.analyse_labels", "repro.staticcheck.labels",
           "analyse_labels"),
    Target("staticcheck.certify_validity", "repro.staticcheck.validity",
           "certify_validity", _validity_explored),
    Target("staticcheck.certify_compliance", "repro.staticcheck.compliance",
           "certify_compliance"),
    Target("staticcheck.explain_no_valid_plan", "repro.staticcheck.plans",
           "explain_no_valid_plan"),
    Target("analysis.find_valid_plans", "repro.analysis.planner",
           "find_valid_plans", _plans),
    Target("analysis.analyze_plan", "repro.analysis.planner",
           "analyze_plan"),
    Target("analysis.check_security", "repro.analysis.security",
           "check_security"),
    Target("analysis.verify_network", "repro.analysis.verification",
           "verify_network"),
    Target("network.network_transitions", "repro.network.semantics",
           "network_transitions"),
    Target("core.validity_monitor", "repro.core.validity",
           "ValidityMonitor.extend"),
    Target("core.is_valid", "repro.core.validity", "is_valid"),
    Target("resilience.supervisor_run", "repro.resilience.supervisor",
           "Supervisor.run"),
    Target("resilience.sample_fault_plan", "repro.resilience.faults",
           "sample_fault_plan"),
    Target("compiled.compile_contract", "repro.compiled.tables", "_compile",
           _table_bytes),
    Target("compiled.compiled_search", "repro.compiled.search",
           "compiled_search"),
    Target("canon.canonicalize", "repro.canon.fingerprint", "canonicalize"),
    Target("canon.minimize", "repro.canon.minimize", "_quotient", _quotient),
    Target("canon.subcontract_preorder", "repro.canon.preorder",
           "subcontract_preorder"),
    Target("registry.add", "repro.registry.core", "ContractRegistry.add"),
    Target("registry.find_compliant", "repro.registry.core",
           "ContractRegistry.find_compliant"),
    Target("registry.find_substitutable", "repro.registry.core",
           "ContractRegistry.find_substitutable"),
]

#: Span names whose call count per request is reported.
CALL_COUNTS = ("core.project", "contracts.build_lts", "analysis.analyze_plan",
               "network.network_transitions", "core.validity_monitor",
               "core.is_valid")

def _ratio(numerator: float, denominator: float) -> float:
    """A ratio, or 0 where the layer did no work in the run."""
    return numerator / denominator if denominator else 0.0


def _hit_ratio(before: dict, after: dict, name: str) -> float:
    hits = after[name]["hits"] - before[name]["hits"]
    misses = after[name]["misses"] - before[name]["misses"]
    return _ratio(hits, hits + misses)


def layer_metrics(self_times: dict[str, float], calls: dict[str, int],
                  counts: dict, requests: int, cache_before: dict,
                  cache_after: dict, overhead_ratio: float) -> dict:
    """Every per-layer metric of one traced run: times and counts per
    request, ratios over the whole run."""
    per_request = max(requests, 1)
    metrics = {f"{name}.self_ms": 1000.0 * seconds / per_request
               for name, seconds in self_times.items()}
    metrics.update({f"{name}.calls": calls[name] / per_request
                    for name in CALL_COUNTS})
    for name in ("contracts.lts_states", "contracts.explored_states",
                 "lint.diagnostics", "staticcheck.validity_explored",
                 "compiled.table_bytes"):
        metrics[name] = counts.get(name, 0) / per_request
    metrics["contracts.projection_hit_ratio"] = _hit_ratio(
        cache_before, cache_after, "contracts.projection")
    metrics["contracts.lts_hit_ratio"] = _hit_ratio(
        cache_before, cache_after, "contracts.lts")
    metrics["analysis.valid_plan_ratio"] = _ratio(
        counts.get("analysis.plans_valid", 0),
        counts.get("analysis.plans_analyzed", 0))
    trials = counts.get("resilience.trials", 0)
    for name in ("resilience.rollbacks", "resilience.retries",
                 "resilience.replans"):
        metrics[name] = _ratio(counts.get(name, 0), trials)
    metrics["resilience.recovered_ratio"] = _ratio(
        counts.get("resilience.recovered_trials", 0),
        counts.get("resilience.faulted_trials", 0))
    metrics["canon.quotient_ratio"] = _ratio(
        counts.get("canon.blocks", 0), counts.get("canon.source_states", 0))
    queries = counts.get("registry.queries", 0)
    metrics["registry.pruning_ratio"] = _ratio(
        counts.get("registry.pruning_ratio", 0), queries)
    metrics["registry.product_checks"] = _ratio(
        counts.get("registry.product_checks", 0), queries)
    metrics["trace.overhead_ratio"] = overhead_ratio
    if set(metrics) != set(UNITS):
        raise RuntimeError(f"layer metrics out of step with BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(UNITS))}")
    return metrics
