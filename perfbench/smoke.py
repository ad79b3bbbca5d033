"""Smoke test of the benchmark harness, on the p=4 versions of the workloads.

Run from the repository root (about half a minute)::

    python3 perfbench/smoke.py

It checks that ``run.py`` prints every metric ``BENCHMARK.json`` names,
with its unit, for every workload, untraced and traced, with no failed
run; that a tampered flow record trips the digest check; that timings
are taken only from runs in one speed regime of the machine; and that the
benchmark exits non-zero, printing no result, where the program's sources
are missing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_every_metric_printed(trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, result
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in catalogue["workloads"]]
    for metric in catalogue["per_layer" if trace else "end_to_end"]:
        for workload in names:
            assert result["metrics"][f"{workload}/{metric['name']}"]["unit"] == metric["unit"]
        printed = [
            line for line in lines
            if line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
        ]
        assert len(printed) == len(names), (metric, printed)
    assert sum("failed 0/" in line for line in lines) == len(names)


def check_tampered_record_fails() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import child
    import run
    import workloads

    inputs = workloads.generate_inputs(
        workloads.lookup("p16-dard-storm", smoke=True), workloads.DEFAULT_SEED
    )
    raw = child.run(inputs, lambda name: contextlib.nullcontext())
    records = raw.pop("records")
    first = records[0]
    # Still a plausible record (slower than line rate), so only the digest
    # can tell it from the honest runs.
    tampered = [dataclasses.replace(first, end_time=first.end_time + 1e-6)] + records[1:]
    runs = [
        child.check_and_summarise(inputs, dict(raw, records=list(recs)))
        for recs in (records, records, tampered)
    ]
    assert not any(r["errors"] for r in runs)
    _, failed = run.judge(runs)
    assert failed == 1 and runs[2]["failed"] and not runs[0]["failed"], runs
    assert "digest" in runs[2]["set_errors"][0] and not runs[2]["errors"]


def check_speed_regimes_kept_apart() -> None:
    sys.path[:0] = [str(HERE)]
    import run

    def timed(speed, failed=False):
        return {"failed": failed, "machine_speed_s": speed}

    busy = [timed(0.030), timed(0.033), timed(0.029), timed(0.031, failed=True)]
    quiet = [timed(0.020), timed(0.021)]
    kept = run.one_regime(quiet + busy)
    assert sorted(r["machine_speed_s"] for r in kept) == [0.029, 0.030, 0.033], kept
    unknown = [timed(0.030), timed(None), timed(0.020)]
    assert len(run.one_regime(unknown)) == 3


def check_fails_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p16-dard-storm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    check_every_metric_printed(trace=0)
    check_every_metric_printed(trace=1)
    check_tampered_record_fails()
    check_speed_regimes_kept_apart()
    check_fails_without_sources()
    print("perfbench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
