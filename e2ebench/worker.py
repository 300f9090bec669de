"""One benchmark process: make the fixed inputs, set up, run, check.

Started by ``run.py`` in a fresh interpreter, from the root of a
checkout, with ``PYTHONPATH=src`` and a fixed ``PYTHONHASHSEED``::

    python3 e2ebench/worker.py --workload NAME --seed N --mode MODE
        --seconds S --spawned-at T [--requests K]

Modes: ``setup`` stops after set-up; ``timed`` runs the closed loop for
S seconds of request time; ``traced`` does the same with the span
tracer installed; ``replay`` runs exactly the first K requests, untraced
(the baseline of the tracer's overhead ratio).

The process prints one JSON object on its last line of standard output.
A result that differs from its known answer ends the process with exit
code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import inputs

#: A run keeps going past its time budget until it holds this many
#: requests, so at least ten lie beyond the p95 latency...
MIN_REQUESTS = 200
#: ...but never past this multiple of the budget.
MAX_OVERRUN = 3.0
#: ``peak_rss_mb`` covers set-up and the whole blocks that first reach
#: this many requests, so it measures the same work however fast the
#: program runs.
RSS_REQUESTS = 250


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced", "replay"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--requests", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    started = time.monotonic()
    fixed, stream = inputs.STREAMS[args.workload](args.seed,
                                                  Path("examples"))
    generation_s = time.monotonic() - started

    import workloads
    workload = workloads.WORKLOADS[args.workload](fixed)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at - generation_s
    from repro.observability import runtime
    if runtime.enabled():
        print("in-program telemetry is on; the benchmark measures with it "
              "off", file=sys.stderr)
        return 2
    out = {"setup_s": setup_s, "generation_s": generation_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        from repro.contracts.contract import contract_cache_stats
        import layers
        from tracer import Tracer
        tracer = Tracer(layers.TARGETS)
        cache_before = contract_cache_stats()
        # Each level of a wrapped recursive function (``project``) runs
        # through its wrapper too, which doubles the stack depth it uses.
        sys.setrecursionlimit(2 * sys.getrecursionlimit())

    try:
        if tracer is not None:
            with tracer:
                loop = closed_loop(workload, stream, args, tracer)
            cache_after = contract_cache_stats()
        else:
            loop = closed_loop(workload, stream, args, None)
        out["oracle_samples"] = workload.final_checks()
    except workloads.Mismatch as error:
        print(f"known-answer mismatch on {args.workload} seed {args.seed}: "
              f"{error}", file=sys.stderr)
        return 1
    out.update(loop)

    if tracer is not None:
        self_times, calls = tracer.self_times()
        out["layers"] = {"self_times": self_times, "calls": calls,
                         "counts": {name: value for name, value
                                    in tracer.counts.items()
                                    if not isinstance(value, set)},
                         "cache_before": cache_before,
                         "cache_after": cache_after,
                         "spans": len(tracer)}
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


def closed_loop(workload, stream, args, tracer) -> dict:
    """One client, one request at a time, until the request time reaches
    the budget; the run then ends at the next block boundary, so it
    holds whole blocks.  The clock runs only while a request runs:
    making the inputs and checking the answers happen between
    requests."""
    latencies: list[float] = []
    warm: list[bool] = []
    failures: list[str] = []
    seen: set[str] = set()
    busy = 0.0
    clock = time.perf_counter
    peak_rss_mb = rss_requests = None
    last_block = None
    for index, (key, block, payload) in enumerate(stream):
        boundary = index > 0 and block != last_block
        last_block = block
        if boundary and index >= RSS_REQUESTS and peak_rss_mb is None:
            peak_rss_mb, rss_requests = peak_rss(), index
        if args.mode == "replay":
            if index >= args.requests:
                break
        elif (busy >= args.seconds and boundary and index >= MIN_REQUESTS
              or busy >= args.seconds * MAX_OVERRUN):
            break
        warm.append(key in seen)
        seen.add(key)
        result = None
        with tracer.request(index) if tracer else contextlib.nullcontext():
            began = clock()
            try:
                result = workload.run(payload)
            except Exception:  # a failed request is counted, not fatal
                failures.append(traceback.format_exc(limit=3))
            elapsed = clock() - began
        busy += elapsed
        latencies.append(elapsed * 1000.0)
        if result is not None:
            workload.check(key, payload, result)
            if tracer is not None:
                for name, value in workload.layer_counts(payload,
                                                         result).items():
                    tracer.counts[name] = tracer.counts.get(name, 0) + value
    for failure in failures[:3]:
        print(failure, file=sys.stderr)
    return {"latencies_ms": latencies, "warm": warm,
            "failed": len(failures), "busy_s": busy,
            "peak_rss_mb": peak_rss_mb or peak_rss(),
            "rss_requests": rss_requests or len(latencies)}


def peak_rss() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
