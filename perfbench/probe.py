"""Time one set-up in a fresh interpreter: import reassign, then the
workload's warm-up.  Prints the seconds taken.  Started by run.py; the
workload name is the only argument."""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t0 = perf_counter()
import reassign  # noqa: E402,F401  (timed)

t1 = perf_counter()
import workloads  # noqa: E402  (benchmark code, not timed)

t2 = perf_counter()
workloads.warm_up(sys.argv[1])
print(perf_counter() - t2 + t1 - t0)
