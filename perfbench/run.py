#!/usr/bin/env python3
"""Time to verdict for reassign, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see workloads.py and METRICS.md) in this process, from a
single client in a closed loop: each operation starts when the previous one
has returned.  Every verdict, witness and exit code is checked against
pins.json, and every witness is replayed through ``revalidate_witness`` after
the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 first measures the
untraced loop for half the time, then runs whole passes with the layer
boundaries wrapped (tracer.py) and reports the per-layer metrics, per pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Provenance, the
per-operation failures and (traced) the span records go to
perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
P95_RANK = 0.95


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_reassign():
    if not (SRC / "reassign" / "__init__.py").is_file():
        fail(f"no reassign sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # problem paths in CLI operations are relative to the root
    import reassign

    if Path(reassign.__file__).resolve().parent != (SRC / "reassign").resolve():
        fail(f"imported reassign from {reassign.__file__}, not from {SRC}")


# -- measurement -------------------------------------------------------------------


def measure(ops, gate, *, seconds=None, min_ops=0, passes=None, tracer=None,
            between=None, shuffle=None):
    """Closed loop over ``ops``, one pass after another.

    Each pass runs every operation once, in list order or, given a seeded
    ``shuffle`` rng, in a fresh order.  Stops after ``passes`` whole passes,
    or once ``seconds`` have gone by and at least max(len(ops), min_ops)
    operations ran.  ``gate(k, result)`` and ``between(elapsed)`` are called
    outside the timed call.  Returns the latency samples per operation.
    """
    samples = [[] for _ in ops]
    limit = None if passes is None else passes * len(ops)
    floor = max(len(ops), min_ops)
    order = list(range(len(ops)))
    start = perf_counter()
    done = 0
    while True:
        if done % len(ops) == 0 and shuffle is not None:
            shuffle.shuffle(order)
        k = order[done % len(ops)]
        op = ops[k]
        t0 = perf_counter()
        try:
            raw = op.run() if tracer is None else tracer.op(op.key, op.run)
        except Exception as exc:  # a failed operation is counted, not fatal
            raw = exc
        samples[k].append(perf_counter() - t0)
        gate(k, raw)
        if between is not None:
            between(perf_counter() - start)
        done += 1
        if limit is not None:
            if done >= limit:
                break
        elif done >= floor and perf_counter() - start >= seconds:
            break
    return samples


def pass_seconds(samples):
    """One pass of the operation list: the sum of each operation's median."""
    return sum(statistics.median(s) for s in samples)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class SetupProbes:
    """Set-up time: import plus warm-up in a fresh interpreter, as probe.py
    times it.  The probes are spread over the timed loop, between operations,
    so that their median averages over the machine's slower swings in speed
    instead of sampling one moment."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.every = seconds / SETUP_PROBES
        self.samples = []

    def probe(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), self.workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        self.samples.append(float(proc.stdout.strip().splitlines()[-1]))

    def __call__(self, elapsed):
        while len(self.samples) < SETUP_PROBES and elapsed >= len(self.samples) * self.every:
            self.probe()

    def finish(self):
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return self.samples


# -- metrics -----------------------------------------------------------------------


def end_to_end(samples, setup):
    flat = [t for s in samples for t in s]
    return {
        "wall_s": (pass_seconds(samples), "s"),
        "op_s.p50": (statistics.median(flat), "s"),
        "op_s.p95": (nearest_rank(flat, P95_RANK), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, passes, untraced_wall, traced_samples):
    from tracer import HOOKS

    calls, total, self_s, counts = tracer.calls, tracer.total, tracer.self_s, tracer.counts
    out = {}

    def put(name, value, unit, *layers):
        gone = [f"{layer}: {tracer.missing[layer]}" for layer in layers if layer in tracer.missing]
        out[name] = (None, unit, "; ".join(gone)) if gone else (value, unit)

    def per_call(layer):
        return total[layer] / calls[layer] * 1e6 if calls[layer] else 0.0

    for tag in ("csd", "tsd", "sd", "cettc", "ttc", "bttc", "npb"):
        layer = "mechanisms." + tag
        put(layer + ".calls", calls[layer] / passes, "count", "mechanisms")
        put(layer + ".us_per_call", per_call(layer), "us", "mechanisms")

    table = "verifier.table"
    tabulated = counts[table + ".profiles"]
    put(table + ".s", total[table] / passes, "s", table)
    put(table + ".self_s", self_s[table] / passes, "s", table)
    put(table + ".profiles", tabulated / passes, "count", table)
    used = counts["verifier.scan.profiles"] / tabulated if tabulated else 0.0
    put(table + ".used_ratio", used, "ratio", table, "verifier.fanout")

    scans = ("verifier.scan.sp", "verifier.scan.ri", "verifier.scan.outcome")
    for scan in scans:
        put(scan + ".s", total[scan] / passes, "s", scan)
    put("verifier.scan.sp.comparisons", counts["verifier.scan.sp.comparisons"] / passes,
        "count", "verifier.fanout")
    put("verifier.scan.ri.comparisons", counts["verifier.scan.ri.comparisons"] / passes,
        "count", "verifier.fanout")
    put("verifier.scan.outcome.profiles", counts["verifier.scan.outcome.profiles"] / passes,
        "count", "verifier.fanout")
    put("verifier.scan.self_s", sum(self_s[s] for s in scans) / passes, "s", *scans)

    oracles = ("cee", "eap", "pareto", "cee_set")
    for name in oracles:
        layer = "verifier.oracles." + name
        put(layer + ".calls", calls[layer] / passes, "count", layer)
        put(layer + ".us_per_call", per_call(layer), "us", layer)
    put("verifier.oracles.s",
        sum(total["verifier.oracles." + o] for o in oracles) / passes, "s",
        *("verifier.oracles." + o for o in oracles))

    fan = "verifier.fanout"
    put(fan + ".s", total[fan] / passes, "s", fan)
    put(fan + ".chunks", counts[fan + ".chunks"] / passes, "count", fan + ".pool")
    put(fan + ".serial_share", serial_share(tracer.records), "ratio", fan, "verifier.check")

    put("verifier.check.self_s", self_s["verifier.check"] / passes, "s", "verifier.check")

    pfd = "model.problem_from_dict"
    put(pfd + ".calls", calls[pfd] / passes, "count", pfd)
    put(pfd + ".us_per_call", per_call(pfd), "us", pfd)
    put("partition.construct.s", total["partition.construct"] / passes, "s", "partition.construct")
    put("partition.construct.divisions", counts["partition.construct.divisions"] / passes,
        "count", "partition.construct")
    put("repro.s", total["repro"] / passes, "s", "repro")
    put("repro.checks", counts["repro.checks"] / passes, "count", "repro")
    put("cli.self_s", self_s["cli"] / passes, "s", "cli")

    traced_wall = pass_seconds(traced_samples)
    layers = {layer for layer, *_ in HOOKS} | {n for n in self_s if n.startswith("mechanisms.")}
    accounted = sum(v for n, v in self_s.items() if n in layers)
    op_time = sum(t for s in traced_samples for t in s)
    put("trace.overhead_ratio", traced_wall / untraced_wall, "ratio")
    put("trace.accounted_ratio", accounted / op_time, "ratio")
    return out


def serial_share(records):
    """(check span - fan-out span) / check span, over checks that fanned out;
    0 when nothing fanned out."""
    span_of = {sid: (parent, name, t1 - t0) for sid, parent, name, t0, t1 in records}
    check_s = fan_s = 0.0
    for parent, name, dur in span_of.values():
        if name == "verifier.fanout" and parent in span_of:
            fan_s += dur
            check_s += span_of[parent][2]
    return (check_s - fan_s) / check_s if check_s else 0.0


# -- provenance and output ---------------------------------------------------------


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def source_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "reassign").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_reassign()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; pick from {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    pins = json.loads((HERE / "pins.json").read_text())["ops"]
    min_ops = workloads.MIN_OPS.get(args.workload, 0)

    workloads.warm_up(args.workload)
    ops = workloads.build(args.workload, seed)

    gate = workloads.Gate(ops, pins)
    shuffle = random.Random(seed) if args.workload in workloads.SHUFFLED else None
    gc.collect()
    gc.freeze()  # the benchmark's own objects stay out of the timed collections

    tracer = None
    setup = []
    if args.trace:
        untraced = measure(
            ops, gate, seconds=args.seconds / 2, min_ops=min_ops, shuffle=shuffle
        )
        untraced_wall = pass_seconds(untraced)
        passes = max(1, round(args.seconds / 2 / untraced_wall))
        tracer = Tracer()
        tracer.install()
        try:
            samples = measure(ops, gate, passes=passes, tracer=tracer, shuffle=shuffle)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, passes, untraced_wall, samples)
    else:
        probes = SetupProbes(args.workload, args.seconds)
        samples = measure(
            ops, gate, seconds=args.seconds, min_ops=min_ops, between=probes, shuffle=shuffle
        )
        setup = probes.finish()
        metrics = end_to_end(samples, setup)

    gate.revalidate()
    attempted, failed, failures = gate.attempted, gate.failed, gate.failures()
    flat = [t for s in samples for t in s]
    provenance = {
        "workload": args.workload,
        "seed": seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "operations": len(ops),
        "operations_run": attempted,
        "latency_samples": len(flat),
        "samples_beyond_p95": len(flat) - math.ceil(P95_RANK * len(flat)),
        "samples_per_operation": [min(map(len, samples)), max(map(len, samples))],
        "operation_median_s": {op.key: statistics.median(s) for op, s in zip(ops, samples)},
        "setup_samples": setup,
        "ops_failed_ratio": failed / attempted,
    }
    result_metrics = {}
    for name, (value, unit, *why) in metrics.items():
        result_metrics[name] = {"value": value, "unit": unit}
        if why:
            result_metrics[name]["unmeasured"] = why[0]
    report = {"provenance": provenance, "failures": failures, "metrics": result_metrics}
    if tracer is not None:
        report["unmeasured_layers"] = tracer.missing
        report["layers"] = {
            name: {"calls": tracer.calls[name], "total_s": tracer.total[name],
                   "self_s": tracer.self_s[name]}
            for name in sorted(tracer.calls) if not name.startswith("op:")
        }
        report["spans"] = tracer.records
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n")

    print("provenance " + json.dumps(provenance))
    for key, reasons in failures.items():
        print(f"FAILED {key}: {'; '.join(reasons)}")
    for name, (value, unit, *why) in metrics.items():
        shown = f"unmeasured ({why[0]})" if why else f"{value:.6g}"
        print(f"{args.workload:24} {name:36} {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
