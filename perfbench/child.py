"""One run of one workload, in a fresh interpreter.

Usage (normally started by ``run.py``, which sets PYTHONPATH to ``src``
and the BLAS/OpenMP thread counts to 1)::

    python3 perfbench/child.py --inputs FILE --cpu N [--spans FILE]

The child pins itself to CPU ``N``, imports the program, runs a fixed
noise probe, loads the generated inputs, and only then — after a
``gc.collect()`` with GC left on — starts the clock. It builds the
stack the way ``run_scenario`` does and times setup and run directly.
With ``--spans`` it first wraps the program's layer functions
(``spans.py``) and writes the recorded spans there. The last stdout line
is one JSON object with the run's metrics and output checks.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def noise_probe() -> float:
    """Median of nine timings of a fixed pure-Python + numpy computation.

    It tells machine drift from code drift; results are never normalised
    by it.
    """
    from monitor import reference_data, reference_once

    data = reference_data()
    return sorted(reference_once(data) for _ in range(9))[4]


def run(inputs: dict, span) -> dict:
    """Build the stack, feed it the inputs, and return timings + records."""
    import gc

    import numpy as np

    from repro.addressing.codec import PathCodec
    from repro.addressing.hierarchy import HierarchicalAddressing
    from repro.experiments.runner import make_scheduler
    from repro.scheduling.base import SchedulerContext
    from repro.simulator.network import Network
    from repro.topology import build_topology
    from repro.workloads import TraceEntry, TraceReplay
    from workloads import LINK_BPS

    w = inputs["workload"]
    entries = [TraceEntry(*a) for a in inputs["arrivals"]]
    link_events = [tuple(e) for e in inputs["link_events"]]
    scheduler_rng = np.random.default_rng([inputs["seed"], 2])
    gc.collect()
    cpu_start = time.process_time()
    start = time.perf_counter()
    with span("topology.build"):
        topology = build_topology("fattree", p=w["p"], link_bandwidth_bps=LINK_BPS)
    with span("addressing.build"):
        codec = PathCodec(HierarchicalAddressing(topology))
    with span("simulator.network.build"):
        network = Network(topology)
    with span("scheduling.attach"):
        scheduler = make_scheduler(w["scheduler"])
        scheduler.attach(SchedulerContext(network=network, codec=codec, rng=scheduler_rng))
    with span("workloads.wiring"):
        replay = TraceReplay(network.engine, topology, entries, sink=scheduler.place)
        for action, when, u, v in link_events:
            handler = network.fail_link if action == "fail" else network.restore_link
            network.engine.schedule_at(when, lambda h=handler, u=u, v=v: h(u, v))
        replay.start()
    setup_end = time.perf_counter()
    engine = network.engine
    with span("simulator.engine"):
        engine.run_until(w["duration_s"])
        deadline = w["duration_s"] + w["drain_limit_s"]
        while network.flows and engine.now < deadline:
            engine.run_until(min(engine.now + 5.0, deadline))
        records = list(network.records)
    end = time.perf_counter()
    return {
        "wall_s": end - start,
        "setup_s": setup_end - start,
        "run_s": end - setup_end,
        "host.cpu_s": time.process_time() - cpu_start,
        "events": engine.events_processed,
        "generated": replay.flows_replayed,
        "records": records,
    }


def check_and_summarise(inputs: dict, out: dict) -> dict:
    """Output metrics, the records digest, and any failed output checks."""
    import hashlib

    import numpy as np

    from workloads import LINK_BPS

    records = sorted(out.pop("records"), key=lambda r: r.flow_id)
    errors = []
    if out["generated"] != len(inputs["arrivals"]):
        errors.append(f"{out['generated']} flows fed, {len(inputs['arrivals'])} in the inputs")
    if len(records) != out["generated"]:
        errors.append(f"{len(records)} records for {out['generated']} generated flows")
    if len({r.flow_id for r in records}) != len(records):
        errors.append("duplicate flow ids in the records")
    # No flow can beat its serialization time at line rate.
    too_fast = [r.flow_id for r in records if r.fct < r.size_bytes * 8 / LINK_BPS * (1 - 1e-9)]
    if too_fast:
        errors.append(f"{len(too_fast)} flows finished faster than line rate, e.g. {too_fast[0]}")
    digest = hashlib.sha256()
    for r in records:
        digest.update(
            f"{r.flow_id},{r.start_time.hex()},{r.end_time.hex()},{r.path_switches};".encode()
        )
    completed = len(records) / max(out["generated"], 1)
    if completed < 1:
        errors.append(f"only {completed:.4f} of flows completed by the drain cap")
    fcts = np.array([r.fct for r in records]) if records else np.zeros(1)
    out.update(
        {
            "flows_completed_frac": completed,
            "fct_mean_s": float(fcts.mean()),
            # The highest percentile that keeps >= 10 flows beyond it on
            # the smallest workload (590 flows).
            "fct_p98_s": float(np.percentile(fcts, 98)),
            "digest": digest.hexdigest(),
            "errors": errors,
        }
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    import_start = time.perf_counter()
    import contextlib
    import json
    import resource

    import repro.experiments.runner  # noqa: F401  (loads every layer the run uses)
    import repro.workloads  # noqa: F401
    import_s = time.perf_counter() - import_start

    probe_s = noise_probe()
    with open(args.inputs) as handle:
        inputs = json.load(handle)
    recorder = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.spans:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
        span = recorder.span
    out = check_and_summarise(inputs, run(inputs, span))
    out["host.import_s"] = import_s
    out["host.noise_probe_s"] = probe_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        out["layers"] = recorder.summary()
        out["counters"] = recorder.counters
        recorder.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
