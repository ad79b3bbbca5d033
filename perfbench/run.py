"""The repo's benchmark: named DARD scenarios, each timed in fresh processes.

Run from the repository root::

    python3 perfbench/run.py --workload p32-dard-stride --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, round-robin
    python3 perfbench/run.py --workload all --trace 1  # plus one traced run each

For one set it generates the workload's inputs from ``--seed``, runs one
untimed warm-up pass per workload (the workload's p=4 version, which loads
and exercises the same code), then timed runs round-robin across the
workloads until ``--seconds`` per workload is spent (at least
``MIN_TIMED_RUNS`` each). Every run is a fresh single-threaded
interpreter pinned to one granted CPU (``child.py``), one at a time,
with its own hash seed. While it runs, ``monitor.py`` measures the
machine's speed on another granted CPU. End-to-end metrics are the
medians over the timed runs that share one speed regime
(``one_regime``). With ``--trace 1`` a traced run follows, and the
per-layer metrics come from it.

Every run's outputs are checked (``child.py``), and its records digest
must equal the other runs' of the set, the traced run's included. The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` ones with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_TIMED_RUNS = 3
#: Each invocation ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0
#: Room kept for the traced run, as a multiple of the slowest timed run.
TRACE_RESERVE = 1.6
#: Two timed runs whose machine speeds (``monitor.py``) differ by more
#: than this factor ran in different speed regimes of the machine. On the
#: shared 2-vCPU VM the benchmark was tuned on, the reference computation
#: takes about 20 ms when the machine is quiet and 27-36 ms when it is
#: busy, and the workloads run 1.6-2x slower when busy.
REGIME_RATIO = 1.25
#: Extra measuring time, as a share of ``--seconds``, that a set may take
#: to collect ``MIN_TIMED_RUNS`` timed runs in one speed regime.
REGIME_EXTENSION = 0.5


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    ):
        env[var] = "1"
    return env


class Harness:
    """Runs children one at a time and keeps every run's outcome."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.cpu = max(os.sched_getaffinity(0))
        #: The CPU the speed monitor runs on, if another one is granted.
        self.monitor_cpu = min(os.sched_getaffinity(0) - {self.cpu}, default=None)
        self.env = child_env()
        self.started = 0

    def start_monitor(self):
        if self.monitor_cpu is None:
            return None
        monitor = subprocess.Popen(
            [sys.executable, str(HERE / "monitor.py"), "--cpu", str(self.monitor_cpu)],
            env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        monitor.stdout.readline()  # "ready": it measures from here on
        return monitor

    @staticmethod
    def stop_monitor(monitor):
        """The monitor's median reference time, or None; always reaps it."""
        if monitor is None:
            return None
        try:
            out, _ = monitor.communicate(timeout=10)  # closing stdin stops it
            return json.loads(out.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError):
            monitor.kill()
            monitor.wait()
            return None

    def child(self, inputs: Path, spans_file: Path = None) -> dict:
        # Every child gets its own hash seed (1, 2, ...), so the digest
        # check across a set also checks that outcomes do not depend on
        # PYTHONHASHSEED, while a failing set stays reproducible.
        self.started += 1
        env = {**self.env, "PYTHONHASHSEED": str(self.started)}
        cmd = [sys.executable, str(HERE / "child.py"), "--inputs", str(inputs), "--cpu", str(self.cpu)]
        if spans_file is not None:
            cmd += ["--spans", str(spans_file)]
        monitor = self.start_monitor()
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired:
            return {"errors": ["timed out"], "duration": time.monotonic() - started}
        finally:
            speed = self.stop_monitor(monitor)
        duration = time.monotonic() - started
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"errors": [f"exit {proc.returncode}: " + " | ".join(tail)], "duration": duration}
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["duration"] = duration
        out["hash_seed"] = self.started
        out["machine_speed_s"] = speed
        return out


def judge(runs: list) -> tuple:
    """Mark failed runs; returns (reference digest, failed count).

    A run fails if it raised, if one of its own output checks failed
    (``errors``), or if its records digest differs from the one most runs
    of the set share (``set_errors``, recomputed on every call as the set
    grows).
    """
    digests = collections.Counter(r["digest"] for r in runs if "digest" in r)
    reference = digests.most_common(1)[0][0] if digests else None
    failed = 0
    for r in runs:
        r["set_errors"] = []
        if "digest" in r and r["digest"] != reference:
            r["set_errors"] = [f"digest {r['digest'][:12]} != set digest {reference[:12]}"]
        r["failed"] = bool(r["errors"] or r["set_errors"])
        failed += r["failed"]
    return reference, failed


def one_regime(runs: list) -> list:
    """The timed runs whose timings are used: of the runs that did not
    fail, the largest group whose machine speeds all lie within
    ``REGIME_RATIO`` of the group's fastest. Without a speed for every
    run (one CPU granted), that is every run that did not fail.
    """
    ok = [r for r in runs if not r["failed"]]
    if any(r.get("machine_speed_s") is None for r in ok):
        return ok
    ok.sort(key=lambda r: r["machine_speed_s"])
    best, low = [], 0
    for high in range(len(ok)):
        while ok[high]["machine_speed_s"] > REGIME_RATIO * ok[low]["machine_speed_s"]:
            low += 1
        if high + 1 - low > len(best):
            best = ok[low:high + 1]
    return best


def layer_metrics(traced: dict, untraced: list) -> dict:
    """Per-layer metrics of one traced run (see README.md for the mapping)."""
    layers = traced["layers"]
    counters = traced["counters"]
    out = {}
    for name, entry in layers.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}_s"] = entry["self_s"]
    for name, _ in spans.TARGETS:  # layers the run never entered
        out.setdefault(f"{name}.calls", 0)
        out.setdefault(f"{name}_s", 0.0)
    out["simulator.maxmin.demands"] = counters.get("simulator.maxmin.demands", 0)
    out["core.daemon.shifts"] = counters.get("core.daemon.shifts", 0)
    out["simulator.engine.events"] = traced["events"]
    registrations = out["core.registry.register.calls"]
    out["core.registry.intern_hit_ratio"] = (
        1 - out["core.monitor.index_pair_paths.calls"] / registrations if registrations else 0.0
    )
    rounds = out["core.daemon.round.calls"]
    out["core.daemon.shift_ratio"] = out["core.daemon.shifts"] / rounds if rounds else 0.0
    for key in ("host.import_s", "host.cpu_s", "host.noise_probe_s"):
        out[key] = statistics.median(r[key] for r in untraced)
    out["trace.overhead_s"] = traced["wall_s"] - statistics.median(r["wall_s"] for r in untraced)
    out["simulator.engine.self_s"] = out["simulator.engine_s"]
    out["trace.unattributed_frac"] = out["simulator.engine.self_s"] / traced["run_s"]
    return out


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    import numpy

    return {
        "cpus_granted": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def run_sets(names: list, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Warm up, then time round-robin across ``names``; returns per-workload results."""
    import workloads

    started = time.monotonic()
    harness = Harness(started + HARD_LIMIT_S * len(names))
    budget_end = started + seconds * len(names)
    extended_end = budget_end + REGIME_EXTENSION * seconds * len(names)
    OUT.mkdir(exist_ok=True)
    tag = "smoke-" if smoke else ""
    inputs, warm_inputs = {}, {}
    for name in names:
        inputs[name] = OUT / f"inputs-{tag}{name}-{seed}.json"
        workloads.write_inputs(workloads.lookup(name, smoke), seed, inputs[name])
        warm_inputs[name] = OUT / f"inputs-warmup-{name}-{seed}.json"
        workloads.write_inputs(workloads.lookup(name, smoke=True), seed, warm_inputs[name])
    results = {name: {"warmup": [], "timed": [], "traced": []} for name in names}
    for name in names:
        results[name]["warmup"].append(harness.child(warm_inputs[name]))
    slowest = {name: 0.0 for name in names}
    while True:
        for name in names:
            run = harness.child(inputs[name])
            results[name]["timed"].append(run)
            slowest[name] = max(slowest[name], run["duration"])
        rounds = len(results[names[0]]["timed"])
        if any("digest" not in results[n]["timed"][-1] for n in names):
            break  # a run crashed: more runs would only repeat it
        for name in names:
            judge(results[name]["timed"])
        # A set whose runs straddle a change of the machine's speed regime
        # keeps going, for up to REGIME_EXTENSION more, until enough runs
        # share one regime; only those runs are timed (see one_regime).
        settled = all(len(one_regime(results[n]["timed"])) >= MIN_TIMED_RUNS for n in names)
        end = budget_end if settled else extended_end
        next_round = sum(slowest.values()) * (1 + (TRACE_RESERVE if trace else 0))
        if rounds >= MIN_TIMED_RUNS and time.monotonic() + next_round > end:
            break
    if trace:
        for name in names:
            spans_file = OUT / f"spans-{tag}{name}-{seed}.json"
            results[name]["traced"].append(harness.child(inputs[name], spans_file))
    for name in names:
        r = results[name]
        r["digest"], _ = judge(r["timed"] + r["traced"])
        judge(r["warmup"])
    return results


def summarise(r: dict, trace: bool, catalogue: dict) -> dict:
    runs = r["warmup"] + r["timed"] + r["traced"]
    ok = one_regime(r["timed"])
    failed = sum(run["failed"] for run in runs)
    regime = {
        "timed": len(r["timed"]),
        "kept": len(ok),
        "machine_speed_s": (
            statistics.median(run["machine_speed_s"] for run in ok)
            if ok and all(run["machine_speed_s"] for run in ok) else None
        ),
        "settled": len(ok) >= MIN_TIMED_RUNS,
    }
    values = {}
    if ok:
        for key in ("wall_s", "setup_s", "run_s", "peak_rss_mb", "flows_completed_frac",
                    "fct_mean_s", "fct_p98_s"):
            values[key] = statistics.median(run[key] for run in ok)
        traced = [run for run in r["traced"] if not run["failed"]]
        if trace and traced:
            values.update(layer_metrics(traced[0], ok))
    wanted = catalogue["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    return {"attempted": len(runs), "failed": failed, "metrics": metrics, "missing": missing,
            "digest": r["digest"], "regime": regime, "runs": runs}


def report(name: str, s: dict, seed: int, env: dict) -> None:
    timed = [run for run in s["runs"] if "wall_s" in run]
    print(f"== {name}  seed {seed}: {s['attempted']} runs (warm-up, timed, traced), "
          f"failed {s['failed']}/{s['attempted']} ({s['failed'] / s['attempted']:.1%})")
    print(f"   records digest {s['digest']}")
    for run in s["runs"]:
        if run["failed"]:
            print(f"   FAILED run: {'; '.join(run['errors'] + run['set_errors'])}")
    g = s["regime"]
    speed = g["machine_speed_s"]
    regime = f"machine speed {speed * 1000:.1f} ms" if speed else "no machine speed: one CPU"
    unsettled = "" if g["settled"] else f"; UNSETTLED: fewer than {MIN_TIMED_RUNS} such runs"
    print(f"   timings from {g['kept']} of {g['timed']} timed runs, all in one speed regime "
          f"({regime}){unsettled}")
    for metric, m in s["metrics"].items():
        print(f"   {metric:40s} {m['value']:>14.6g} {m['unit']}")
    if s["missing"]:
        print(f"   no value for: {', '.join(s['missing'])}")
    probes = [run["host.noise_probe_s"] for run in timed]
    print(f"   env: cpus {env['cpus_granted']} (children pinned to {max(env['cpus_granted'])}), "
          f"python {env['python']}, numpy {env['numpy']}, commit {env['commit']}, "
          f"host.noise_probe_s {statistics.median(probes) if probes else float('nan'):.6f}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the p=4 versions")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources (src/repro) are not under {ROOT}", file=sys.stderr)
        return 2
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; one of {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else catalogue["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))

    env = environment()
    results = run_sets(names, args.seed, seconds, bool(args.trace), args.smoke)
    summaries = {n: summarise(results[n], bool(args.trace), catalogue) for n in names}
    OUT.mkdir(exist_ok=True)
    for name, s in summaries.items():
        report(name, s, args.seed, env)
        record = {"workload": name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
                  "environment": env, **s}
        tag = "smoke-" if args.smoke else ""
        (OUT / f"result-{tag}{name}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
    if any(s["missing"] for s in summaries.values()):
        print("error: some metrics have no value; see above", file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    if len(names) == 1:
        metrics = summaries[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, s in summaries.items() for k, v in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
