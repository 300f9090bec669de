"""Tests of the benchmark itself: the tracer, the known-answer checks and
the agreement between BENCHMARK.json and what the runs report.

    PYTHONPATH=src python3 -m pytest e2ebench/tests
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT, Target, Tracer  # noqa: E402

import repro  # noqa: E402
import repro.contracts.contract as contract_module  # noqa: E402
import repro.core.projection as projection  # noqa: E402
import repro.lint.context as lint_context  # noqa: E402
from repro.core.syntax import EPSILON, receive, send  # noqa: E402

PROJECT = Target("core.project", "repro.core.projection", "project")


def chain(length: int):
    term = EPSILON
    for index in range(length):
        term = (send if index % 2 else receive)(f"c{index}", term)
    return term


def test_tracer_restores_every_patched_reference():
    original = projection.project
    holders = (projection, contract_module, lint_context, repro)
    assert all(holder.project is original for holder in holders)
    with Tracer([PROJECT, *layers.TARGETS[1:]]):
        assert all(holder.project is not original for holder in holders)
        assert contract_module.project is projection.project
    assert all(holder.project is original for holder in holders)


def test_tracer_restores_on_error():
    original = projection.project
    with pytest.raises(RuntimeError):
        with Tracer([PROJECT]):
            raise RuntimeError("boom")
    assert projection.project is original


def test_tracer_restores_methods_and_memoised_functions():
    from repro.compiled import tables
    from repro.core.validity import ValidityMonitor
    extend = vars(ValidityMonitor)["extend"]
    compile_ = tables._compile
    with Tracer(layers.TARGETS):
        assert vars(ValidityMonitor)["extend"] is not extend
        # Memoised functions keep their cache controls.
        tables._compile.cache_info()
    assert vars(ValidityMonitor)["extend"] is extend
    assert tables._compile is compile_


def test_wrapped_call_returns_the_same_result():
    term = chain(30)
    expected = projection.project(term)
    with Tracer([PROJECT]) as tracer:
        with tracer.request(0):
            got = projection.project(term)
    assert got == expected


def test_recursive_calls_fold_into_one_span():
    term = chain(30)
    with Tracer([PROJECT]) as tracer:
        with tracer.request(0):
            projection.project(term)
            projection.project(term)
    _self_times, calls = tracer.self_times()
    # project recurses once per node; each top-level call is one span.
    assert calls["core.project"] == 2
    assert calls[ROOT] == 1


def test_self_times_sum_to_the_root_duration():
    from repro.core.compliance import check_compliance
    client, server = workloads.wide_pair(2, 3, "t_", None)
    with Tracer(layers.TARGETS) as tracer:
        with tracer.request(7):
            check_compliance(client, server)
    self_times, calls = tracer.self_times()
    assert calls["core.project"] >= 1 and calls["contracts.build_lts"] >= 1
    root = 0  # the request's span is opened first
    assert tracer.names[tracer.name_ids[root]] == ROOT
    duration = tracer.ends[root] - tracer.starts[root]
    assert math.isclose(sum(self_times.values()), duration, rel_tol=1e-9)
    assert all(value >= 0 for value in self_times.values())
    assert set(tracer.requests) == {7}


def test_spans_record_parent_and_request(tmp_path):
    from repro.core.compliance import check_compliance
    client, server = workloads.wide_pair(2, 2, "u_", 0)
    with Tracer(layers.TARGETS) as tracer:
        with tracer.request(3):
            check_compliance(client, server)
    path = tmp_path / "spans.jsonl.gz"
    tracer.dump(path)
    import gzip
    with gzip.open(path, "rt") as handle:
        spans = [json.loads(line) for line in handle]
    assert spans[0]["name"] == ROOT and spans[0]["parent"] == -1
    assert all(span["request"] == 3 for span in spans)
    assert all(0 <= span["parent"] < span["span"] for span in spans[1:])
    assert all(span["start"] <= span["end"] for span in spans)


def test_wrong_expected_verdict_fails_the_known_answer_check():
    stream = workloads.ComplianceStream(None)
    stream.setup()
    payload = ("wide", 2, 2, "k_", 0)
    result = stream.run(payload)
    stream.check(repr(payload), payload, result)
    wrong = ("wide", 2, 2, "k_", None)  # claims the matching server
    with pytest.raises(workloads.Mismatch):
        stream.check(repr(wrong), wrong, result)


def test_wrong_module_answer_fails_the_known_answer_check():
    fixed, stream = inputs.module_analysis(5, Path("examples"))
    analysis = workloads.ModuleAnalysis(fixed)
    analysis.setup()
    key, _block, payload = next(item for item in stream
                               if item[2][0] == "generated")
    result = analysis.run(payload)
    analysis.check(key, payload, result)
    flipped = {client: (set() if hotels else {"ls1"})
               for client, hotels in payload[2].items()}
    with pytest.raises(workloads.Mismatch):
        analysis.check(key, (payload[0], payload[1], flipped), result)


def blocks(stream, count: int) -> list[tuple]:
    """The requests of the first *count* blocks of *stream*."""
    return list(itertools.takewhile(lambda item: item[1] < count, stream))


def test_streams_are_reproducible_from_the_seed():
    for name, make in inputs.STREAMS.items():
        fixed, stream = make(3, Path("examples"))
        again, stream_again = make(3, Path("examples"))
        first = blocks(stream, 3)
        assert fixed == again and first == blocks(stream_again, 3), name
        assert first != blocks(make(4, Path("examples"))[1], 3), name


def test_warm_requests_repeat_only_short_chains():
    _fixed, stream = inputs.compliance_stream(2, Path("examples"))
    seen: set[str] = set()
    lengths = []
    for key, _block, payload in blocks(stream, 8):
        if payload[0] == "linear":
            lengths.append(payload[1])
            if key in seen:
                assert payload[1] < 180
        seen.add(key)
    # Cold chains still span the whole 50-400 range.
    assert min(lengths) < 60 and max(lengths) > 370


def test_benchmark_json_names_every_workload_and_layer_row():
    spec = layers.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(inputs.STREAMS)
    notes = json.loads((BENCH / "layers.json").read_text())
    assert set(notes["workloads"]) == set(inputs.STREAMS)
    described = {row["metric"] for row in notes["layer_table"]}
    assert described == set(layers.UNITS)


def test_requests_reach_the_wrapped_entry_points():
    fixed, stream = inputs.module_analysis(5, Path("examples"))
    analysis = workloads.ModuleAnalysis(fixed)
    analysis.setup()
    payload = next(stream)[2]
    with Tracer(layers.TARGETS) as tracer:
        with tracer.request(0):
            analysis.run(payload)
    _self_times, calls = tracer.self_times()
    assert calls["lang.parse_module"] == 1
    assert calls["lint.lint_module"] == 1
    assert calls["staticcheck.certify_validity"] >= 1
