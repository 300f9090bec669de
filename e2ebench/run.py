"""End-to-end benchmark of the verifier, measured from the caller's side.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload compliance_stream --seed 1 \\
        --seconds 10 --trace 0
    python3 e2ebench/run.py --all --seed 1 --seconds 10

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the Python version, core count, seeds and the sample
counts behind every percentile.  ``--all`` runs both kinds of run for
every workload and prints each metric by name and unit, one row per
workload.

Every workload run happens in fresh interpreters (``worker.py``) with
``PYTHONHASHSEED`` fixed.  Every request's result is checked against a
known answer outside the timed region; a mismatch ends the run with
exit code 1 and no result line.  See ``layers.json`` for why each
workload exists, what it loads and bypasses, and which end-to-end
metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402  (the benchmark's own modules sit beside it)
import layers  # noqa: E402

#: The hash seed every worker runs with.
HASH_SEED = "0"
#: Set-up-only processes per timed run: at least two, and up to seven
#: while they take under two seconds in all.  The first runs before the
#: timed process and the rest after it, so the samples span the run.
#: ``setup_s`` is the median over these and the timed process's own
#: set-up.
SETUP_RUNS = (2, 7, 2.0)
#: Wall-clock limit for one worker process, in seconds.
WORKER_TIMEOUT = 150

class WorkerError(RuntimeError):
    """A worker process failed; ``code`` is its exit status."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def spawn(workload: str, seed: int, mode: str, seconds: float,
          requests: int = 0, spans: Path | None = None) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("PYTHON", "REPRO_"))}
    env.update(PYTHONHASHSEED=HASH_SEED, PYTHONPATH="src")
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--seconds", str(seconds),
               "--requests", str(requests)]
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(command + ["--spawned-at", repr(spawned_at)],
                              env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT, check=False)
    except subprocess.TimeoutExpired as error:
        raise WorkerError(f"{workload} {mode} worker exceeded "
                          f"{WORKER_TIMEOUT} s", 3) from error
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker exited with "
                          f"{done.returncode}", done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict,
                                                                  list[str]]:
    fewest, most, budget = SETUP_RUNS
    setups = [spawn(workload, seed, "setup", seconds)["setup_s"]]
    run = spawn(workload, seed, "timed", seconds)
    while len(setups) < fewest or (len(setups) < most
                                   and sum(setups) < budget):
        setups.append(spawn(workload, seed, "setup", seconds)["setup_s"])
    setups.append(run["setup_s"])
    latencies = run["latencies_ms"]
    cold = [ms for ms, warm in zip(latencies, run["warm"]) if not warm]
    warm = [ms for ms, warm in zip(latencies, run["warm"]) if warm]
    attempted = len(latencies)
    beyond_p95 = attempted - math.ceil(0.95 * attempted)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": percentile(latencies, 0.95),
        "cold_p50_ms": statistics.median(cold),
        "warm_p50_ms": statistics.median(warm),
        "throughput_rps": (attempted - run["failed"]) / run["busy_s"],
        "success_ratio": (attempted - run["failed"]) / attempted,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = [
        f"requests: {attempted} ({len(cold)} cold, {len(warm)} warm), "
        f"failed: {run['failed']} (failed_ratio "
        f"{run['failed'] / attempted:.4f}), request time "
        f"{run['busy_s']:.2f} s",
        f"latency_p50_ms and latency_p95_ms over {attempted} samples "
        f"({beyond_p95} beyond p95); cold_p50_ms over {len(cold)}; "
        f"warm_p50_ms over {len(warm)}",
        f"setup_s: median of {len(setups)} set-ups "
        f"({', '.join(f'{s:.3f}' for s in setups)}); input generation "
        f"{run['generation_s']:.3f} s excluded",
        f"peak_rss_mb: over set-up and the first {run['rss_requests']} "
        f"requests (whole blocks)",
        f"known answers: every request checked; "
        f"{run['oracle_samples']} sampled against the exhaustive oracle",
    ]
    return {"attempted": attempted, "failed": run["failed"],
            "metrics": metrics}, notes


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict,
                                                                 list[str]]:
    out_dir = Path("e2ebench") / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"spans-{workload}.jsonl.gz"
    traced = spawn(workload, seed, "traced", seconds, spans=spans)
    latencies = traced["latencies_ms"]
    # The overhead baseline replays, untraced, the first requests that
    # took a quarter of the traced run (at least 50 of them).
    replayed = max(50, bisect.bisect(
        list(itertools.accumulate(latencies)), 250.0 * seconds))
    replayed = min(replayed, len(latencies))
    replay = spawn(workload, seed, "replay", seconds, requests=replayed)
    trace = traced["layers"]
    metrics = layers.layer_metrics(
        trace["self_times"], trace["calls"], trace["counts"],
        len(latencies), trace["cache_before"], trace["cache_after"],
        sum(latencies[:replayed]) / 1000.0 / replay["busy_s"])
    notes = [f"traced requests: {len(latencies)}, spans: {trace['spans']} "
             f"(written to {spans}); overhead over the first {replayed} "
             f"requests: {sum(latencies[:replayed]) / 1000.0:.2f} s "
             f"traced, {replay['busy_s']:.2f} s untraced"]
    return {"attempted": len(latencies), "failed": traced["failed"],
            "metrics": metrics}, notes


def header(workload: str, seed: int, trace: int) -> list[str]:
    return [f"workload: {workload}, seed: {seed}, trace: {trace}, "
            f"PYTHONHASHSEED: {HASH_SEED}",
            f"python: {platform.python_version()} "
            f"({platform.python_implementation()}), cores: {os.cpu_count()}"]


def measure(workload: str, seed: int, seconds: float, trace: int
            ) -> tuple[dict, list[str]]:
    run = per_layer if trace else end_to_end
    result, notes = run(workload, seed, seconds)
    units = layers.UNITS if trace else layers.END_TO_END
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"{sorted(set(result['metrics']) ^ set(units))}")
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    return ({"correct": True, **result}, header(workload, seed, trace)
            + notes)


def checkout_ready() -> bool:
    """The benchmark builds the program from the checkout it runs in."""
    return (Path("src/repro/__init__.py").is_file()
            and Path("examples/golden").is_dir())


def print_rows(rows: dict[str, dict]) -> None:
    """One row per workload, one column per metric."""
    heads = [f"{name} ({unit})" for name, unit in layers.END_TO_END.items()]
    print(f"{'workload':<18} " + " ".join(heads))
    for workload, result in rows.items():
        cells = [f"{result['metrics'][name]['value']:>{len(head)}.4f}"
                 for name, head in zip(layers.END_TO_END, heads)]
        print(f"{workload:<18} " + " ".join(cells))


def print_columns(columns: dict[str, dict]) -> None:
    """One row per per-layer metric, one column per workload."""
    width = max(len(name) for name in columns)
    print(f"{'metric (unit)':<50} "
          + " ".join(f"{name:>{width}}" for name in columns))
    for metric, unit in layers.UNITS.items():
        cells = [f"{result['metrics'][metric]['value']:>{width}.4f}"
                 for result in columns.values()]
        print(f"{f'{metric} ({unit})':<50} " + " ".join(cells))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(inputs.STREAMS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, traced and untraced, "
                             "and print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not checkout_ready():
        print("error: run from the root of a repro checkout "
              "(src/repro and examples/golden not found)", file=sys.stderr)
        return 2
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    try:
        if args.all:
            tables: dict[int, dict[str, dict]] = {0: {}, 1: {}}
            for workload in inputs.STREAMS:
                for trace in (0, 1):
                    result, notes = measure(workload, args.seed,
                                            args.seconds, trace)
                    print("\n".join(notes))
                    tables[trace][workload] = result
            print("\nend-to-end metrics (tracing off)")
            print_rows(tables[0])
            print("\nper-layer metrics (traced run)")
            print_columns(tables[1])
            return 0
        result, notes = measure(args.workload, args.seed, args.seconds,
                                args.trace)
    except WorkerError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.code
    print("\n".join(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
