#!/usr/bin/env python3
"""Microseconds per mechanism core call, with no tracer and no sweep.

    PYTHONPATH=src python3 scripts/core_us.py

For each of the seven tags at n=4 and n=8, binds the core once, as a sweep
does (default options, identity priority, canonical partition), then times
it over 2,000 random profiles of each space, drawn from seed 1 as the
verifier's sampled checks draw theirs: "reduced" rows rank the own worker
last, "full" rows are uniform permutations.  Each cell is the best of 9
timed passes over the same profiles, divided by their count; the passes go
round every cell in turn, so a slow spell of the machine spreads over all
cells instead of landing on one.  Standard library only.
"""

import random
import sys
from time import perf_counter

from reassign.mechanisms import MECHANISMS
from reassign.model import MechanismId
from reassign.partition import canonical_partition
from reassign.verifier import _sample_orders

SEED = 1
SIZES = (4, 8)
SPACES = ("reduced", "full")
COUNT = 2000
REPEAT = 9


def seconds(core, batch):
    start = perf_counter()
    for orders in batch:
        core(orders)
    return perf_counter() - start


def main() -> int:
    columns = [(n, s) for n in SIZES for s in SPACES]
    batches = {}
    for n, s in columns:
        rng = random.Random(f"{SEED}-{n}-{s}")
        batches[n, s] = [_sample_orders(rng, n, s == "reduced") for _ in range(COUNT)]
    cores = {(tag, n): entry.bind(MechanismId(tag), n, tuple(range(1, n + 1)), canonical_partition(n))
             for tag, entry in MECHANISMS.items() for n in SIZES}
    best = {}
    for _ in range(REPEAT):
        for (tag, n), core in cores.items():
            for s in SPACES:
                t = seconds(core, batches[n, s])
                best[tag, n, s] = min(best.get((tag, n, s), t), t)
    print(f"{'tag':>6}" + "".join(f"{f'n={n} {s}':>14}" for n, s in columns))
    for tag in MECHANISMS:
        print(f"{tag:>6}" + "".join(f"{best[tag, n, s] / COUNT * 1e6:14.2f}" for n, s in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
