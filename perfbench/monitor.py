"""Machine speed monitor: the noise probe's reference computation, run on
another CPU for as long as one timed run lasts.

Usage (normally started by ``run.py`` next to each timed child)::

    python3 perfbench/monitor.py --cpu N

It pins itself to CPU ``N`` and times the reference computation about
five times a second (about 15% of that CPU) until its stdin is closed.
Then it prints the median time of one computation, or ``null`` if there
was no time for one. Both vCPUs of the VM the benchmark was tuned on
slow down together (their 5 s speed averages correlate at 0.87), so this
reads the speed the machine gave the timed run, averaged over the run.
A probe taken in the child just before its workload reads one moment
only, and varies as much within a speed regime as between regimes.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import sys
import time

#: Pause between two timed computations.
PAUSE_S = 0.2


def reference_data():
    import numpy as np

    return np.arange(400_000, dtype=np.float64)[::-1].copy()


def reference_once(data) -> float:
    """Seconds for one fixed pure-Python loop and numpy sort."""
    import numpy as np

    start = time.perf_counter()
    sum(i * i for i in range(300_000))
    np.sort(data)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    data = reference_data()
    print("ready", flush=True)
    times = []
    while True:
        times.append(reference_once(data))
        readable, _, _ = select.select([sys.stdin], [], [], PAUSE_S)
        if readable and not sys.stdin.read(1):
            break
    # The last computation may have outlasted the timed run; drop it.
    times = times[:-1]
    print(json.dumps(statistics.median(times) if times else None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
