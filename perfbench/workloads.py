"""The benchmark's workloads: ordered operation lists, their warm-up, how
each operation's output is reduced to the fields pinned in pins.json, and the
gate that checks those fields.

One operation is one property check through the public API or one in-process
``reassign.cli.main(argv)`` call.  Every function of ``reassign`` is looked up
when the operation runs, not when it is built, so the tracer's wrappers apply.
"""

import functools
import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import reassign
import reassign.cli
import reassign.verifier

DEFAULT_SEED = 1
TAGS = ("csd", "tsd", "cettc", "bttc", "ttc", "npb", "sd")
PROBLEMS = (
    "bttc_base.json",
    "bttc_improved.json",
    "intro.json",
    "minimal_n2.json",
    "n3_base.json",
    "n3_improved.json",
)
REPRO_IDS = ("intro", "tables", "bttc", "npb", "n3")
CHECK_FNS = {
    "sp": "check_sp",
    "ri": "check_ri",
    "ce": "check_ce",
    "cee": "check_cee",
    "eap": "check_eap",
    "pareto": "check_pareto",
    "own-position": "check_own_position_invariance",
}

# The only exhaustive sweeps that do real work today: full space, n=4,
# 331,776 profiles each.  ttc ce and bttc ri fail at profiles 1 and 2.
FULL_SWEEPS = (("ttc", "sp"), ("ttc", "ri"), ("ttc", "pareto"), ("ttc", "ce"), ("bttc", "ri"))

# (tag, property, n, samples).  Counts give each holding check roughly a
# quarter second, except npb cee at about twice that: one clearly slowest
# operation keeps op_s.p95 on a single operation's samples instead of the
# boundary between two.  The failing checks stop at their first violation,
# which every seed tried reached within 40 samples.
SAMPLED = (
    ("tsd", "sp", 8, 2000),
    ("sd", "sp", 8, 2000),
    ("csd", "ri", 8, 2000),
    ("cettc", "sp", 7, 1000),
    ("csd", "eap", 8, 5000),
    ("npb", "cee", 8, 300),
    ("cettc", "cee", 8, 150),
    ("ttc", "pareto", 7, 300),
    ("csd", "own-position", 7, 1500),
    ("npb", "sp", 6, 2000),
    ("cettc", "ri", 7, 2000),
    ("bttc", "ri", 6, 2000),
)

# Per workload: sizes for the per-mechanism warm-up call, and the lazy caches
# (verifier attribute, arguments) its operations would otherwise fill.
WARMUP = {
    "exhaustive-full": ((4,), (("_space", 4, False), ("_perm_codes", 4))),
    "exhaustive-full-jobs2": ((4,), (("_space", 4, False), ("_perm_codes", 4))),
    "sampled-large": ((6, 7, 8), (("derangements", 8),)),
    "interactive": (
        (3, 4),
        (
            ("_space", 3, True), ("_space", 4, True),
            ("_perm_codes", 3), ("_perm_codes", 4),
            ("derangements", 3), ("derangements", 4),
        ),
    ),
}
WORKLOADS = tuple(WARMUP)

# Operations a run makes at least; one pass for workloads not listed.  The
# interactive list is short, and 200 calls give op_s.p95 ten samples beyond
# it.  A jobs=2 sweep needs both cores, so a stall on either one lands in
# its sample; two passes give each sweep a median of two.
MIN_OPS = {"interactive": 200, "exhaustive-full-jobs2": 2 * len(FULL_SWEEPS)}

# Workloads whose passes run in a fresh seeded order each time.  A short CLI
# call's latency depends on the call before it (memory the previous one
# freed, caches it warmed); a fixed order would make that a per-seed bias.
SHUFFLED = ("interactive",)


class Op:
    """One operation: a pin key, a zero-argument call, and whether the
    current seed pins every field (True) or the verdict alone (False)."""

    def __init__(self, key, run, exact=True):
        self.key = key
        self.run = run
        self.exact = exact


def warm_up(workload):
    sizes, caches = WARMUP[workload]
    for n in sizes:
        for tag in TAGS:
            reassign.check_ce(tag, n, reassign.Scope("sampled", n, count=1, seed=0))
    for name, *args in caches:
        fill = getattr(reassign.verifier, name, None)
        if fill is not None:  # a private cache that a refactor removed
            fill(*args)


# -- operations ------------------------------------------------------------------


def _check(prop, tag, n, scope, jobs):
    fn = getattr(reassign, CHECK_FNS[prop])
    return fn(tag, n, scope) if jobs is None else fn(tag, n, scope, jobs=jobs)


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = reassign.cli.main(list(argv))
    return code, out.getvalue()


def _exhaustive(jobs):
    return [
        Op(f"{tag} {prop} n=4 exhaustive", functools.partial(_check, prop, tag, 4, None, jobs))
        for tag, prop in FULL_SWEEPS
    ]


def _sampled(seed):
    ops = []
    for tag, prop, n, count in SAMPLED:
        key = f"{tag} {prop} n={n} sampled count={count}"
        scope_seed = random.Random(f"{seed}:{key}").randrange(2**31)
        scope = reassign.Scope("sampled", n, count=count, seed=scope_seed)
        ops.append(Op(key, functools.partial(_check, prop, tag, n, scope, None), seed == DEFAULT_SEED))
    return ops


def _interactive():
    certify = ["--certify", "ce", "--certify", "cee", "--certify", "eap", "--certify", "pareto"]
    argvs = [
        ["run", f"problems/{name}", "--mechanism", tag, *certify, "--format", "json"]
        for name in PROBLEMS
        for tag in TAGS
    ]
    argvs += [
        ["verify", "--mechanism", tag, "--property", prop, "--n", str(n), "--format", "json"]
        for n in (3, 4)
        for tag in ("csd", "tsd", "sd", "npb", "cettc")
        for prop in ("sp", "ri", "eap", "cee", "own-position")
    ]
    argvs.append(["repro", "all", "--format", "json"])
    argvs += [["repro", rid, "--format", "json"] for rid in REPRO_IDS]
    argvs.append(["partition", "--sizes", "30000,30000,40000", "--format", "json"])
    return [Op(" ".join(a), functools.partial(_cli, a)) for a in argvs]


def build(workload, seed):
    if workload == "exhaustive-full":
        return _exhaustive(1)
    if workload == "exhaustive-full-jobs2":
        return _exhaustive(2)
    if workload == "sampled-large":
        return _sampled(seed)
    if workload == "interactive":
        return _interactive()
    raise ValueError(f"unknown workload {workload!r}")


# -- what gets pinned ----------------------------------------------------------------

_ELAPSED = re.compile(r'\n *"elapsed_s": [^\n]*')


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def summarize(raw):
    """Reduce an operation's return value to (pinned fields, witnesses)."""
    if isinstance(raw, tuple):  # CLI call: (exit code, stdout)
        code, text = raw
        fields = {
            "exit": code,
            "output_sha256": hashlib.sha256(_ELAPSED.sub("", text).encode()).hexdigest(),
        }
        return fields, text
    wit = raw.witness
    fields = {
        "verdict": raw.verdict,
        "checked": raw.checked,
        "comparisons": raw.comparisons,
        "witness_sha256": None if wit is None else digest(wit),
    }
    return fields, wit


def witnesses_of(detail):
    """Witnesses carried by one operation's output, for revalidation."""
    if isinstance(detail, dict):
        return [detail]
    if isinstance(detail, str) and '"witness": {' in detail:
        return [json.loads(detail)["witness"]]
    return []


class Gate:
    """Checks each executed operation against its pin as it completes, and
    replays every distinct witness once the timed region is over.

    An execution fails on an exception or on a field that differs from its
    pin (every field when the op is exact, the verdict alone otherwise).
    Every execution of an op fails when one of its witnesses does not
    revalidate.
    """

    def __init__(self, ops, pins):
        self.ops = ops
        self.pins = pins
        self.runs = [0] * len(ops)
        self.bad = [0] * len(ops)
        self.first = {}  # op index -> output of its first execution
        self.reasons = {}  # op key -> set of reasons

    def _fail(self, k, reason, every_run=False):
        self.reasons.setdefault(self.ops[k].key, set()).add(reason)
        self.bad[k] = self.runs[k] if every_run else self.bad[k] + 1

    def __call__(self, k, raw):
        self.runs[k] += 1
        if isinstance(raw, Exception):
            self._fail(k, f"raised {raw!r}")
            return
        fields, detail = summarize(raw)
        self.first.setdefault(k, detail)
        op = self.ops[k]
        pin = self.pins.get(op.key)
        if pin is None:
            self._fail(k, "no pin")
            return
        wrong = [f for f in (fields if op.exact else ("verdict",)) if fields[f] != pin.get(f)]
        if wrong:
            self._fail(k, "differs from pin: " + ", ".join(wrong))

    def revalidate(self):
        for k, detail in self.first.items():
            for wit in witnesses_of(detail):
                try:
                    ok = reassign.revalidate_witness(wit)
                except Exception as exc:  # a witness that cannot replay is rejected
                    self._fail(k, f"revalidation raised {exc!r}", every_run=True)
                    continue
                if not ok:
                    self._fail(k, "witness rejected by revalidate_witness", every_run=True)

    @property
    def attempted(self):
        return sum(self.runs)

    @property
    def failed(self):
        return sum(self.bad)

    def failures(self):
        return {key: sorted(r) for key, r in self.reasons.items()}
