"""Set-up probes, each run in a fresh interpreter; prints the seconds taken.

    python3 perfbench/probe.py <src-dir> <workload> <seed> <count>
        imports the package and its CLI and builds a run's job list
    python3 perfbench/probe.py
        imports numpy only: the reference that set-up time is divided by
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

if len(sys.argv) > 1:
    sys.path.insert(0, sys.argv[1])
    import radial_extremals.cli  # noqa: F401

    import jobs

    jobs.make_jobs(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
else:
    import numpy  # noqa: F401
print(repr(time.perf_counter() - _START))
