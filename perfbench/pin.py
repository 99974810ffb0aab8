#!/usr/bin/env python3
"""Write pins.json: the answers every benchmark operation must reproduce.

    python3 perfbench/pin.py

Runs each operation of every workload once at the default seed and records,
per check, its verdict, ``checked``, ``comparisons`` and the SHA-256 of its
witness JSON, and per CLI call its exit code and the SHA-256 of its
``--format json`` output with the ``elapsed_s`` lines removed.  The pins were
taken from the commit that introduced the benchmark; regenerate them only
when a change deliberately alters verdicts or output, and say so.
"""

import json
import sys

import run

run.load_reassign()
import workloads  # noqa: E402

ops = {}
for name in workloads.WORKLOADS:
    if name == "exhaustive-full-jobs2":
        continue  # same keys as exhaustive-full; run.py checks it against them
    for op in workloads.build(name, workloads.DEFAULT_SEED):
        ops[op.key], _ = workloads.summarize(op.run())
        print(op.key, ops[op.key], file=sys.stderr)
doc = {"default_seed": workloads.DEFAULT_SEED, "ops": ops}
(run.HERE / "pins.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
