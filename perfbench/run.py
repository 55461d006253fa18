"""The repository benchmark: a replicated caller calling a replicated counter.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-window --seed 1 --seconds 50 --trace 0

Each workload deploys a 4x4 caller -> ``counter`` scenario through the
public ``repro.scenario`` API, again and again in rounds of a fixed
number of calls, until ``--seconds`` of rounds have run. Every round
checks every reply (see ``caller.check_replies``). ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs untraced rounds, then traced
rounds, and prints the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Everything a run saw is also written to
``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"


@dataclass(frozen=True)
class Workload:
    runtime: str
    window: int
    batching: str
    calls: int
    why: str


WORKLOADS = {
    "sim-window": Workload(
        "sim", 10, "tick", 100,
        "figure path: sim kernel, clbft, codec, crypto, tick batching; no event loop or IPC. "
        "Baseline: 909 kernel events/call (239 at window 1); 28 batches per round "
        "whatever its length",
    ),
    "asyncio-sync": Workload(
        "asyncio", 1, "off", 150,
        "one call at a time on one event loop, so clbft/perpetual/codec/crypto CPU sets "
        "latency; no sim kernel, batching or router. Baseline: ~6 ms CPU/call; "
        "process-window spends ~3.5x",
    ),
    # Not in BENCHMARK.json: the program fails the reply check on this
    # workload (a retransmitted request executes twice; see README.md).
    "process-window": Workload(
        "process", 10, "tick", 300,
        "8 worker processes plus the parent router on the host's cores: router hop, "
        "framing and batching",
    ),
}

#: METRICS counters that a sim round must repeat exactly for a fixed seed.
OP_COUNTS = (
    "encode_calls", "encode_cache_hits", "digest_calls", "digest_cache_hits",
    "mac_computations", "mac_verifications", "multicasts", "envelopes_sent",
    "events_processed", "batches_sent", "batch_messages", "retransmissions",
    "view_changes", "cache_evictions",
)

#: Calls in the untimed first round (imports, first-use caches).
WARMUP_CALLS = 40

#: End-to-end metrics: unit, which way is better, and the share of the
#: parent's median by which a change may worsen them.
END_TO_END = {
    "calls_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p99_ms": ("ms", "lower", 0.25),
    "cpu_ms_per_call": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

#: Per-layer metrics: unit and which way is better. Layers are ``repro``
#: packages; ``host`` is the substrate's node host (the sim kernel, or
#: the asyncio cluster's post path).
PER_LAYER = {
    "host.self_ms_per_call": ("ms", "lower"),
    "sim.events_per_call": ("count", "lower"),
    "sim.events_per_handler": ("ratio", "lower"),
    "sim.model_calls_per_s": ("calls/sim_sec", "higher"),
    "clbft.self_ms_per_call": ("ms", "lower"),
    "clbft.messages_per_call": ("count", "lower"),
    "clbft.requests_per_batch": ("ratio", "higher"),
    "clbft.view_changes": ("count", "lower"),
    "perpetual.self_ms_per_call": ("ms", "lower"),
    "perpetual.retransmissions_per_call": ("count", "lower"),
    "perpetual.cache_evictions_per_call": ("count", "lower"),
    "ws.self_ms_per_call": ("ms", "lower"),
    "transport.self_ms_per_call": ("ms", "lower"),
    "transport.envelopes_per_call": ("count", "lower"),
    "transport.multicasts_per_call": ("count", "lower"),
    "transport.batched_share": ("ratio", "higher"),
    "transport.batch_fill": ("ratio", "higher"),
    "crypto.self_ms_per_call": ("ms", "lower"),
    "crypto.macs_per_call": ("count", "lower"),
    "crypto.verifications_per_call": ("count", "lower"),
    "crypto.digests_per_call": ("count", "lower"),
    "crypto.digest_hit_ratio": ("ratio", "higher"),
    "codec.self_ms_per_call": ("ms", "lower"),
    "codec.encodes_per_call": ("count", "lower"),
    "codec.encode_hit_ratio": ("ratio", "higher"),
    "runtime.posts_per_call": ("count", "lower"),
    "process.parent_cpu_ms_per_call": ("ms", "lower"),
    "process.worker_cpu_share": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.spans_per_call": ("count", "lower"),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import the program from the checkout's ``src``; exit if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    try:
        import repro.scenario  # noqa: F401
        import caller  # registers the benchmark's caller app
    except ImportError as exc:
        fail(f"cannot import the program: {exc}")
    return caller


def build_spec(name: str, workload: Workload, calls: int, seed: int):
    from repro.scenario import ScenarioBuilder

    import caller

    return (
        ScenarioBuilder(f"perfbench-{name}")
        .seed(seed)
        .batching(workload.batching)
        .duration(600.0 if workload.runtime == "sim" else 30.0)
        .service("target", n=4, app="counter")
        .service(
            "caller", n=4, app=caller.APP_KIND,
            target="target", total_calls=calls, window=workload.window, seed=seed,
        )
        .build()
    )


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_deploy(spec, runtime: str):
    from repro.scenario import get_runtime

    rt = get_runtime(runtime)
    start = time.perf_counter()
    rt.deploy(spec)
    return rt, time.perf_counter() - start


def run_round(name: str, workload: Workload, calls: int, seed: int) -> dict:
    """Deploy, run ``calls`` calls, observe, shut down; return the record."""
    import caller

    spec = build_spec(name, workload, calls, seed)
    cpu0, child0 = time.process_time(), child_cpu_s()
    rt, setup_s = timed_deploy(spec, workload.runtime)
    try:
        start = time.perf_counter()
        rt.run()
        run_s = time.perf_counter() - start
        metrics = rt.metrics()
    finally:
        rt.shutdown()
    parent_cpu = time.process_time() - cpu0
    worker_cpu = child_cpu_s() - child0
    observed = metrics.services["caller"]
    app = observed.app
    failed, problems = caller.check_replies(
        app, calls, strictly_rising=workload.window == 1
    )
    completed = calls - failed
    wall_s = run_s if workload.runtime == "sim" else app.get("wall_us", 0) / 1e6
    model_s = (observed.last_completion_us - observed.first_issue_us) / 1e6
    return {
        "calls": calls,
        "failed": failed,
        "problems": problems,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calls_per_s": completed / wall_s if wall_s > 0 else 0.0,
        "model_calls_per_s": (
            completed / model_s if workload.runtime == "sim" and model_s > 0 else 0.0
        ),
        "parent_cpu_s": parent_cpu,
        "worker_cpu_s": worker_cpu,
        "latency_us": list(app.get("latency_us", [])),
        "counters": dict(metrics.counters),
        "view_changes": observed.view_changes,
    }


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb(workload: Workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.runtime == "process" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def faster_half(rounds: list[dict]) -> list[dict]:
    """The faster half of the rounds, by calls per second.

    The host is shared: another tenant can only slow a round down, and a
    slow spell can last for several rounds. The faster half estimates the
    program's own cost; a change that slows every round still shows.
    """
    ranked = sorted(rounds, key=lambda r: r["calls_per_s"], reverse=True)
    return ranked[: (len(ranked) + 1) // 2]


def end_to_end(rounds: list[dict], workload: Workload) -> dict:
    kept = faster_half(rounds)
    latencies = sorted(us for r in kept for us in r["latency_us"])
    cpu = [(r["parent_cpu_s"] + r["worker_cpu_s"]) * 1e3 / r["calls"] for r in kept]
    values = {
        "calls_per_s": statistics.median(r["calls_per_s"] for r in kept),
        "latency_p50_ms": percentile(latencies, 50) / 1e3,
        "latency_p99_ms": percentile(latencies, 99) / 1e3,
        "cpu_ms_per_call": statistics.median(cpu),
        "peak_rss_mb": peak_rss_mb(workload),
        # Every round deploys afresh (after the previous round's teardown),
        # so setup is sampled once per round, all rounds kept.
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced: list[dict], traced: list[dict], trace: dict) -> dict:
    """Per-layer metrics: counts from untraced rounds, self times from
    traced ones, and the tracing overhead between the two."""
    import spans

    totals = {k: sum(r["counters"].get(k, 0) for r in untraced) for k in OP_COUNTS}
    calls = sum(r["calls"] for r in untraced)
    traced_calls = sum(r["calls"] for r in traced)
    counts = trace["counts"]
    self_ms = {layer: ns / 1e6 / traced_calls for layer, ns in trace["self_ns"].items()}
    handlers = sum(counts[i] for i in spans.HANDLERS)
    traced_events = sum(r["counters"]["events_processed"] for r in traced)
    messages = totals["envelopes_sent"] - totals["batches_sent"] + totals["batch_messages"]
    parent_cpu = sum(r["parent_cpu_s"] for r in untraced)
    worker_cpu = sum(r["worker_cpu_s"] for r in untraced)
    values = {
        "host.self_ms_per_call": self_ms["sim"] + self_ms["runtime"],
        "sim.events_per_call": totals["events_processed"] / calls,
        "sim.events_per_handler": ratio(traced_events, handlers),
        "sim.model_calls_per_s": statistics.median(r["model_calls_per_s"] for r in untraced),
        "clbft.self_ms_per_call": self_ms["clbft"],
        "clbft.messages_per_call": counts[spans.CLBFT_ON_MESSAGE] / traced_calls,
        "clbft.requests_per_batch": ratio(trace["batched_requests"], trace["preprepares"]),
        "clbft.view_changes": float(sum(r["view_changes"] for r in untraced + traced)),
        "perpetual.self_ms_per_call": self_ms["perpetual"],
        "perpetual.retransmissions_per_call": totals["retransmissions"] / calls,
        "perpetual.cache_evictions_per_call": totals["cache_evictions"] / calls,
        "ws.self_ms_per_call": self_ms["ws"],
        "transport.self_ms_per_call": self_ms["transport"],
        "transport.envelopes_per_call": totals["envelopes_sent"] / calls,
        "transport.multicasts_per_call": totals["multicasts"] / calls,
        "transport.batched_share": ratio(totals["batch_messages"], messages),
        "transport.batch_fill": ratio(totals["batch_messages"], totals["batches_sent"]),
        "crypto.self_ms_per_call": self_ms["crypto"],
        "crypto.macs_per_call": totals["mac_computations"] / calls,
        "crypto.verifications_per_call": totals["mac_verifications"] / calls,
        "crypto.digests_per_call": totals["digest_calls"] / calls,
        "crypto.digest_hit_ratio": ratio(
            totals["digest_cache_hits"], totals["digest_calls"] + totals["digest_cache_hits"]
        ),
        "codec.self_ms_per_call": self_ms["codec"],
        "codec.encodes_per_call": totals["encode_calls"] / calls,
        "codec.encode_hit_ratio": ratio(
            totals["encode_cache_hits"], totals["encode_calls"] + totals["encode_cache_hits"]
        ),
        "runtime.posts_per_call": sum(counts[i] for i in spans.RUNTIME_POSTS) / traced_calls,
        "process.parent_cpu_ms_per_call": parent_cpu * 1e3 / calls,
        "process.worker_cpu_share": ratio(worker_cpu, parent_cpu + worker_cpu),
        "trace.overhead": ratio(
            statistics.median(r["calls_per_s"] for r in untraced),
            statistics.median(r["calls_per_s"] for r in traced),
        ),
        "trace.spans_per_call": sum(counts) / traced_calls,
    }
    return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    caller = import_program()
    caller.self_test()
    name, workload = args.workload, WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)

    # In-process substrates run on one thread. On a shared host the CPUs
    # differ in speed from minute to minute (other tenants' load on
    # sibling threads), so each round is pinned to the next CPU in turn:
    # every run samples every CPU alike instead of whichever one the
    # scheduler happened to settle on.
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))

    def one_round(calls: int) -> dict:
        cpu = None
        if workload.runtime != "process":
            cpu = next(cpus)
            os.sched_setaffinity(0, {cpu})
        gc.collect()
        started = time.perf_counter()
        record = dict(run_round(name, workload, calls, args.seed), cpu=cpu)
        print(
            f"perfbench: {name} round of {calls} calls: {record['calls_per_s']:.1f} calls/s, "
            f"{time.perf_counter() - started:.2f} s", file=sys.stderr,
        )
        return record

    def rounds_for(seconds: float, minimum: int) -> list[dict]:
        out: list[dict] = []
        deadline = time.perf_counter() + seconds
        while len(out) < minimum or time.perf_counter() < deadline:
            out.append(one_round(workload.calls))
        return out

    warmup = one_round(WARMUP_CALLS)

    traced: list[dict] = []
    summary = None
    if args.trace:
        untraced = rounds_for(args.seconds / 2, 2)
        tracer = TracedRounds(name, workload)
        traced = tracer.rounds(lambda: one_round(workload.calls), args.seconds / 2)
        summary = tracer.summary
        metrics = per_layer(untraced, traced, summary)
    else:
        untraced = rounds_for(args.seconds, 3)
        metrics = end_to_end(untraced, workload)

    timed = untraced + traced
    problems = [p for r in [warmup] + timed for p in r["problems"]]
    if workload.runtime == "sim":
        problems += op_count_mismatches(timed)
    attempted = sum(r["calls"] for r in [warmup] + timed)
    failed = sum(r["failed"] for r in [warmup] + timed)
    correct = not problems and failed == 0

    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed,
        "rounds": [dict(r, latency_us=len(r["latency_us"])) for r in timed],
        "latency_samples": sum(len(r["latency_us"]) for r in faster_half(untraced)),
        "trace_summary": summary, "metrics": metrics,
    }
    out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for metric, value in metrics.items():
        print(f"{name}  {metric:36s} {value['value']:14.6g} {value['unit']}")
    print(f"{name}  {'failed_share':36s} {failed / attempted:14.6g} ratio")
    print(f"{name}  {'latency_samples':36s} {record['latency_samples']:14d} count")
    for problem in problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def op_count_mismatches(rounds: list[dict]) -> list[str]:
    """The sim is deterministic: every round of one seed, traced or not,
    must repeat the first round's operation counts exactly."""
    first = {k: rounds[0]["counters"].get(k, 0) for k in OP_COUNTS}
    out = []
    for i, r in enumerate(rounds[1:], start=1):
        counts = {k: r["counters"].get(k, 0) for k in OP_COUNTS}
        if counts != first:
            diff = {k: (first[k], counts[k]) for k in OP_COUNTS if first[k] != counts[k]}
            out.append(f"round {i} op counts differ from round 0: {diff}")
    return out


class TracedRounds:
    """Rounds run with every layer entry point wrapped in a span.

    In-process substrates trace on the benchmark's own thread. On the
    process substrate each worker traces itself (the wrappers are
    installed before the workers fork) and writes its summary to a file
    when its event loop ends; the parent sums them.
    """

    def __init__(self, name: str, workload: Workload) -> None:
        import spans

        self.name = name
        self.workload = workload
        self.tracer = spans.TRACER
        self.summary: dict | None = None
        spans.install(self.tracer)
        if workload.runtime == "process":
            self._install_worker_hook()

    def _install_worker_hook(self) -> None:
        import repro.scenario.process as process

        original = process._worker_main
        tracer = self.tracer

        def traced_worker_main(spec_json, service, index, conn, address=None):
            tracer.reset()
            tracer.active = True
            try:
                original(spec_json, service, index, conn, address)
            finally:
                tracer.active = False
                path = RESULTS / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps(tracer.summary()))

        process._worker_main = traced_worker_main

    def rounds(self, one_round, seconds: float) -> list[dict]:
        import spans

        out: list[dict] = []
        parts: list[dict] = []
        deadline = time.perf_counter() + seconds
        while not out or time.perf_counter() < deadline:
            if self.workload.runtime == "process":
                for stale in RESULTS.glob("worker-*.json"):
                    stale.unlink()
                out.append(one_round())
                files = sorted(RESULTS.glob("worker-*.json"))
                if len(files) != 8:
                    raise RuntimeError(f"{len(files)} of 8 workers wrote a trace summary")
                parts += [json.loads(f.read_text()) for f in files]
                for f in files:
                    f.unlink()
                continue
            self.tracer.reset()
            self.tracer.active = True
            try:
                out.append(one_round())
            finally:
                self.tracer.active = False
            parts.append(self.tracer.summary())
        if self.workload.runtime != "process":
            self.tracer.dump(RESULTS / f"spans-{self.name}.jsonl.gz")
        self.summary = spans.merge(parts)
        return out


if __name__ == "__main__":
    sys.exit(main())
