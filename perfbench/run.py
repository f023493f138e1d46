#!/usr/bin/env python3
"""The repository benchmark: boxed jobs and Chirp clients, on both clocks.

One run measures one workload for one seed and prints every metric by
name, with its unit and sample count, then one JSON line:

    python3 perfbench/run.py --workload box_make --seed 1 --seconds 12 --trace 0

``--trace 0`` repeats rounds of set-up plus the seed's first
:data:`ROUND_JOBS` jobs, as many rounds as fit ``--seconds`` at the
recorded :data:`ROUND_SECONDS` (at least :data:`MIN_ROUNDS`), and
reports the end-to-end metrics.  ``--trace 1``
runs a fixed prefix of the seed's plan twice, untraced and then with
every layer's entry points wrapped, and reports the per-layer metrics;
its spans are written under ``.bench_out/``.  ``--self-test`` checks the
benchmark's own determinism.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

#: jobs in one round; every workload's round also has over 1,000 ops, so
#: job p90 and op p99 each have at least ten samples beyond them
ROUND_JOBS = 100
#: rounds in a timed run, at least; each job's and op's time is its best
#: over the rounds, and ``setup_s`` the median of the rounds' set-ups
MIN_ROUNDS = 3
#: wall seconds one round (set-up plus ROUND_JOBS jobs) took on the
#: machine the benchmark was tuned on, in its slow regime under sustained
#: load (see README.md).  A run makes ``round(seconds / ROUND_SECONDS)``
#: rounds, so the number of rounds -- the sample count of every best-of
#: -- depends on ``--seconds`` alone, never on how fast the code under
#: test runs.
ROUND_SECONDS = {"box_make": 4.4, "box_science": 2.3, "chirp_read": 4.4, "fed_write": 1.4}
#: jobs in the fixed plan prefix a traced run replays
TRACE_JOBS = {"box_make": 30, "box_science": 30, "chirp_read": 150, "fed_write": 100}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p99", "us"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("sim_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
)


def pin_config() -> list[str]:
    """Clear every ``REPRO_*`` knob so the program runs its defaults."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def load_program():
    """Import the program from ``src/`` next to the benchmark."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


def effective_config(cleared: list[str]) -> dict:
    from repro import config

    return {
        "cleared_env": cleared,
        "fault_rate": config.fault_rate(),
        "shards_env": config.shard_count(),
        "replicas_env": config.replica_count(),
        "snapshot_fixtures": config.snapshot_fixtures_enabled(),
        "read_cache_env": config.read_cache_enabled(),
        "coalesce": config.coalesce_enabled(),
        "quota": config.quota_spec(),
        "load": "closed loop, 1 process, 1 thread",
    }


def percentile(samples: list[int], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(samples: list, q: float) -> int:
    return len(samples) - math.ceil(q * len(samples))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def sim_consistent(result) -> bool:
    """The clock's per-category charges add up to its elapsed time."""
    return sum(result.sim_charges.values()) == result.sim_ns


def fresh_setup(wl):
    gc.collect()
    start = time.perf_counter()
    world = wl.setup()
    return world, time.perf_counter() - start


def round_count(name: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[name]))


def run_timed(wl, name: str, seconds: float) -> tuple[dict, dict, bool]:
    """Rounds of set-up plus the same ROUND_JOBS jobs, each round on a
    fresh world.  On a shared virtual machine the CPU's speed drifts
    with its neighbours' load, so a job's or op's time is the best of
    its rounds: every round replays identical work from an identical
    garbage-collector state, and the best is the least disturbed."""
    start = time.perf_counter()
    setups: list[float] = []
    rounds = []
    for _ in range(round_count(name, seconds)):
        world = None
        world, elapsed = fresh_setup(wl)
        setups.append(elapsed)
        gc.collect()
        rounds.append(wl.run(world, ROUND_JOBS))
    world = None
    print(f"  {len(rounds)} rounds in {time.perf_counter() - start:.1f} s")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = rounds[0]
    repeatable = all(
        len(r.op_ns) == len(first.op_ns)
        and len(r.job_ns) == len(first.job_ns)
        and r.sim_ns == first.sim_ns
        and r.sim_charges == first.sim_charges
        for r in rounds
    )
    op_ns = [min(times) for times in zip(*(r.op_ns for r in rounds))]
    job_ns = [min(times) for times in zip(*(r.job_ns for r in rounds))]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": first.ops / (sum(job_ns) / 1e9),
        "op_us_p50": statistics.median(op_ns) / 1e3,
        "op_us_p99": percentile(op_ns, 0.99) / 1e3,
        "job_ms_p50": statistics.median(job_ns) / 1e6,
        "job_ms_p90": percentile(job_ns, 0.90) / 1e6,
        "sim_us_per_op": first.sim_ns / first.ops / 1e3,
        "peak_rss_mb": rss_mb,
    }
    best = f"best of {len(rounds)} rounds"
    samples = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{first.ops} ops in {sum(job_ns) / 1e9:.3f} s of program time, {best}",
        "op_us_p50": f"n={len(op_ns)} ops, {best}",
        "op_us_p99": f"n={len(op_ns)} ops, {beyond(op_ns, 0.99)} beyond p99, {best}",
        "job_ms_p50": f"n={len(job_ns)} jobs, {best}",
        "job_ms_p90": f"n={len(job_ns)} jobs, {beyond(job_ns, 0.90)} beyond p90, {best}",
        "sim_us_per_op": f"{first.jobs} jobs, {first.ops} ops",
        "peak_rss_mb": "this process",
    }
    checks = {
        "every round did identical work (jobs, ops, simulated time)": repeatable,
        "the clock's charges sum to its elapsed time": all(sim_consistent(r) for r in rounds),
        "every op was timed": all(len(r.op_ns) == r.ops for r in rounds),
        "no session was opened in a timed phase": not any(
            r.counters.get("connections") for r in rounds
        ),
    }
    if first.child_ops:
        print(
            f"  make's compiler children made {first.child_ops / first.ops:.1%} of the syscalls;"
            f" {1 - sum(op_ns) / sum(job_ns):.1%} of job time was outside trapped syscalls"
            " (box set-up, process start and exit, scheduling)"
        )
    elif name.startswith("box_"):
        print(f"  {1 - sum(op_ns) / sum(job_ns):.1%} of job time was outside trapped syscalls")
    for label, ok in checks.items():
        print(f"  check: {label}: {ok}")
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    print_outcome(attempted, failed, sum(r.known_defects for r in rounds), first.unexpected)
    for name, unit in END_TO_END:
        print(f"  {name:<14} {values[name]:>14.4f} {unit:<4} ({samples[name]})")
    out = {name: metric(values[name], unit) for name, unit in END_TO_END}
    correct = all(checks.values()) and not any(r.unexpected for r in rounds)
    return out, {"attempted": attempted, "failed": failed}, correct


def print_outcome(attempted: int, failed: int, known: int, unexpected: list[str]) -> None:
    print(
        f"  error_rate     {failed / attempted:>14.6f}      ({failed} failed of {attempted} ops;"
        f" {known} from the known hard-link stale-stat defect)"
    )
    for message in unexpected:
        print(f"  ! {message}")


def run_traced(wl, name: str, seed: int) -> tuple[dict, dict, bool]:
    from tracer import LAYERS, Tracer
    from workloads import SIM_CATEGORIES

    jobs = TRACE_JOBS[name]
    # the untraced pass runs twice and the faster counts, so the first
    # pass's warm-up of the interpreter is not charged to the tracing
    plain = None
    for _ in range(2):
        world, _ = fresh_setup(wl)
        again = wl.run(world, jobs)
        world = None
        if plain is None or again.window_ns < plain.window_ns:
            plain = again
    world, _ = fresh_setup(wl)
    tracer = Tracer()
    with tracer.installed():
        traced = wl.run(world, jobs, tracer=tracer)
    report = tracer.report(traced.window_ns)
    report_problems = {label: n for label, n in report.problems.items() if n}
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    ops = traced.ops
    window = traced.window_ns
    overhead = window / plain.window_ns
    print(f"  traced prefix: {traced.jobs} jobs, {ops} ops; {len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}")
    print(f"  {'layer':<22}{'calls/op':>10}{'self us/op':>12}{'self share':>12}{'errors/op':>11}")
    values: dict[str, float] = {}
    for layer in LAYERS:
        totals = report.layers[layer]
        row = (totals.calls / ops, totals.self_ns / 1e3 / ops, totals.self_ns / window, totals.errors / ops)
        for kind, value in zip(("calls_per_op", "self_us_per_op", "self_share", "errors_per_op"), row):
            values[f"{layer}.{kind}"] = value
        print(f"  {layer:<22}{row[0]:>10.3f}{row[1]:>12.3f}{row[2]:>12.4f}{row[3]:>11.4f}")
    other_share = report.other_ns / window
    print(f"  {'other':<22}{'':>10}{report.other_ns / 1e3 / ops:>12.3f}{other_share:>12.4f}")
    reconciled = report.consistent()
    print(
        f"  traced wall {window} ns = layer self times {report.self_total_ns} ns"
        f" + other {report.other_ns} ns (by definition of other)"
    )
    print(
        "  check: every span is well nested and inside a timed window:"
        f" {reconciled} {report_problems or ''}"
    )
    print(f"  tracing overhead: traced wall / untraced wall = {overhead:.3f}")
    c = plain.counters
    lookups = c.get("cache_hits", 0) + c.get("cache_misses", 0)
    wire = c.get("wire_bytes", 0)
    counters = {
        "other.self_share": other_share,
        "trace.overhead_ratio": overhead,
        "core.pipeline.cache_hit_ratio": c["cache_hits"] / lookups if lookups else 0.0,
        "core.pipeline.cache_invalidations_per_op": c.get("cache_invalidations", 0) / ops,
        "chirp.server.ops_per_op": c.get("server_ops", 0) / ops,
        "net.network.bytes_per_op": wire / ops,
        "net.network.payload_ratio": c.get("user_bytes", 0) / wire if wire else 0.0,
        "chirp.federation.quorum_writes_per_op": c.get("quorum_writes", 0) / ops,
        "chirp.federation.failover_reads": c.get("failover_reads", 0),
        "chirp.client.retries": c.get("retries", 0),
    }
    for category in SIM_CATEGORIES:
        counters[f"sim.{category}_us_per_op"] = plain.sim_charges.get(category, 0) / 1e3 / plain.ops
    for key, value in counters.items():
        print(f"  {key:<44} {value:.4f}")
    values.update(counters)
    same_sim = plain.sim_ns == traced.sim_ns and plain.sim_charges == traced.sim_charges
    print(f"  check: the clock's charges sum to its elapsed time: {sim_consistent(plain)}")
    print(f"  check: the simulation is identical traced and untraced: {same_sim}")
    no_sessions = not plain.counters.get("connections") and not traced.counters.get("connections")
    print(f"  check: no session was opened in a timed phase: {no_sessions}")
    print_outcome(plain.ops, plain.failed, plain.known_defects, plain.unexpected)
    ok = reconciled and same_sim and no_sessions and sim_consistent(plain) and not plain.unexpected and not traced.unexpected
    units = dict(per_layer_metrics())
    out = {key: metric(value, units[key]) for key, value in values.items()}
    return out, {"attempted": plain.ops, "failed": plain.failed}, ok and list(out) == list(units)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    from tracer import LAYERS
    from workloads import SIM_CATEGORIES

    kinds = (("calls_per_op", "count"), ("self_us_per_op", "us"), ("self_share", "ratio"), ("errors_per_op", "count"))
    return [(f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in kinds] + [
        ("other.self_share", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("core.pipeline.cache_hit_ratio", "ratio"),
        ("core.pipeline.cache_invalidations_per_op", "count"),
        ("chirp.server.ops_per_op", "count"),
        ("net.network.bytes_per_op", "B"),
        ("net.network.payload_ratio", "ratio"),
        ("chirp.federation.quorum_writes_per_op", "count"),
        ("chirp.federation.failover_reads", "count"),
        ("chirp.client.retries", "count"),
    ] + [(f"sim.{category}_us_per_op", "us") for category in SIM_CATEGORIES]


def self_test() -> int:
    """Same seed, same op sequence, sim time and call counts; another
    seed, another op sequence; CDF tables survive a save/load."""
    workloads = load_program()
    from cdf import load_cdf, save_cdf, table
    from tracer import LAYERS, Tracer

    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        "BENCHMARK.json declares the end-to-end metrics run.py reports",
        [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END),
    )
    check(
        "BENCHMARK.json declares the per-layer metrics run.py reports",
        [(m["name"], m["unit"]) for m in declared["per_layer"]] == per_layer_metrics(),
    )
    check(
        "BENCHMARK.json declares the workloads run.py runs",
        tuple(w["name"] for w in declared["workloads"]) == workloads.WORKLOADS,
    )
    OUT_DIR.mkdir(exist_ok=True)
    for name in ("chirp_read_ops", "file_sizes"):
        path = OUT_DIR / f"selftest-{name}.json"
        save_cdf(path, table(name))
        check(f"table {name} round-trips through save_cdf/load_cdf", load_cdf(path) == table(name))
    jobs = {"box_make": 3, "box_science": 5, "chirp_read": 40, "fed_write": 15}
    for name in workloads.WORKLOADS:
        a = workloads.workload(name, 1).op_sequence(ROUND_JOBS)
        check(f"{name}: seed 1 gives the same op sequence twice", a == workloads.workload(name, 1).op_sequence(ROUND_JOBS))
        check(f"{name}: seed 2 gives another op sequence", a != workloads.workload(name, 2).op_sequence(ROUND_JOBS))
        runs = []
        for _ in range(2):
            wl = workloads.workload(name, 1)
            tracer = Tracer()
            world = wl.setup()
            with tracer.installed():
                result = wl.run(world, jobs[name], tracer=tracer)
            report = tracer.report(result.window_ns)
            check(f"{name}: every span is well nested", report.consistent())
            runs.append((
                result.sim_ns / result.ops,
                [report.layers[layer].calls / result.ops for layer in LAYERS],
            ))
        check(f"{name}: sim_us_per_op repeats exactly", runs[0][0] == runs[1][0])
        check(f"{name}: every calls_per_op repeats exactly", runs[0][1] == runs[1][1])
    print(f"self-test: {failures} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    cleared = pin_config()
    if args.self_test:
        return self_test()
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.workload(args.workload, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  config: {json.dumps(effective_config(cleared), sort_keys=True)}")
    if args.trace:
        metrics, counts, ok = run_traced(wl, args.workload, args.seed)
    else:
        metrics, counts, ok = run_timed(wl, args.workload, args.seconds)
    print(json.dumps({"correct": ok, **counts, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
