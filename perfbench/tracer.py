"""Layer spans recorded from outside the program.

The tracer wraps the functions at each layer boundary of ``reassign`` by
rebinding module attributes, and restores the originals afterwards.  Nothing
under ``src/`` knows it is being traced.  Every span is timed and folded into
per-layer aggregates (calls, total seconds, self seconds); spans of the coarse
layers are also kept as records (id, parent, name, start, end) so a run can be
written out and inspected.  The per-profile layers (mechanism cores, oracles,
problem parsing) are aggregated only: keeping a record per call would need
hundreds of megabytes on an n=4 sweep.

A boundary that no longer exists (a private helper renamed or moved) is not
an error: its layer is reported as unmeasured, with the reason.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (layer, module, attribute path, keep span records)
HOOKS = (
    ("verifier.check", "reassign.verifier", "check_sp", True),
    ("verifier.check", "reassign.verifier", "check_ri", True),
    ("verifier.check", "reassign.verifier", "check_ce", True),
    ("verifier.check", "reassign.verifier", "check_cee", True),
    ("verifier.check", "reassign.verifier", "check_eap", True),
    ("verifier.check", "reassign.verifier", "check_pareto", True),
    ("verifier.check", "reassign.verifier", "check_own_position_invariance", True),
    ("verifier.table", "reassign.verifier", "_outcome_table", True),
    ("verifier.scan.sp", "reassign.verifier", "_sp_scan", True),
    ("verifier.scan.ri", "reassign.verifier", "_ri_scan", True),
    ("verifier.scan.outcome", "reassign.verifier", "_outcome_scan", True),
    ("verifier.fanout", "reassign.verifier", "_run_ranged", True),
    ("verifier.fanout.pool", "reassign.verifier", "ProcessPoolExecutor", False),
    ("verifier.oracles.cee", "reassign.verifier", "is_ce_efficient", False),
    ("verifier.oracles.eap", "reassign.verifier", "eap_efficient", False),
    ("verifier.oracles.pareto", "reassign.verifier", "pareto_efficient", False),
    ("verifier.oracles.cee_set", "reassign.verifier", "cee_set", False),
    ("mechanisms", "reassign.verifier", "_Runner.__call__", False),
    ("model.problem_from_dict", "reassign.model", "problem_from_dict", False),
    ("partition.construct", "reassign.partition", "largest_first_construct", True),
    ("repro", "reassign.repro", "run_repro", True),
    ("repro", "reassign.repro", "all_repro_reports", True),
    ("cli", "reassign.cli", "main", True),
)

_SCAN_LAYER = {
    "_sp_scan": "verifier.scan.sp",
    "_ri_scan": "verifier.scan.ri",
    "_outcome_scan": "verifier.scan.outcome",
}


class Tracer:
    """Span stack, per-layer aggregates and counters, all in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.records = []  # (id, parent id, name, start, end)
        self.missing = {}  # layer -> reason
        self._child = [0.0]  # child seconds of each open span, root first
        self._ids = [0]  # record id of each open span, 0 = none
        self._active = defaultdict(int)  # open spans per layer
        self._next_id = 1
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def span(self, name, fn, args, kwargs, keep):
        """Run fn inside a span named ``name``; a span nested in one of the
        same layer (a check calling a check) is folded into the outer one."""
        if self._active[name]:
            return fn(*args, **kwargs)
        self._active[name] += 1
        sid = 0
        if keep:
            sid = self._next_id
            self._next_id += 1
        self._child.append(0.0)
        self._ids.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            dur = t1 - t0
            child = self._child.pop()
            self._ids.pop()
            self._child[-1] += dur
            self._active[name] -= 1
            self.calls[name] += 1
            self.total[name] += dur
            self.self_s[name] += dur - child
            if keep:
                self.records.append((sid, self._ids[-1], name, t0, t1))

    def op(self, label, fn):
        """Root span around one benchmark operation."""
        return self.span("op:" + label, fn, (), {}, True)

    # -- hooks ----------------------------------------------------------------

    def install(self):
        for layer, modname, attr, keep in HOOKS:
            mod = sys.modules.get(modname)
            owner, _, leaf = attr.rpartition(".")
            holder = mod
            for part in filter(None, owner.split(".")):
                holder = getattr(holder, part, None)
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.missing.setdefault(layer, f"{modname}.{attr} not found")
                continue
            if owner:  # a method: rebinding the class attribute is enough
                wrapper = self._wrap_runner(original)
                setattr(holder, leaf, wrapper)
                self._undo.append((holder, leaf, original, None))
            else:
                self._rebind(original, self._make_wrapper(layer, original, keep))

    def uninstall(self):
        for holder, key, original, kind in reversed(self._undo):
            if kind == "dict":
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    def _rebind(self, original, wrapper):
        """Point every reference to ``original`` held by a reassign module
        (module globals, re-exports and module-level dicts such as CHECKS)
        at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "reassign" or modname.startswith("reassign.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original, None))
                elif type(value) is dict:
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            value[dkey] = wrapper
                            self._undo.append((value, dkey, original, "dict"))

    def _make_wrapper(self, layer, fn, keep):
        if layer == "verifier.fanout.pool":
            return self._counting_pool(fn)
        after = {
            "verifier.table": self._after_table,
            "verifier.fanout": self._after_ranged,
            "partition.construct": self._after_construct,
            "repro": self._after_repro,
        }.get(layer)
        if after is not None:
            after = self._counter(layer, after)
        span = self.span

        if layer == "verifier.fanout":
            # jobs <= 1 runs the scan inline: no fan-out span, only counters.
            @functools.wraps(fn)
            def ranged(scan, size, jobs, *rest):
                if jobs > 1:
                    result = span(layer, fn, (scan, size, jobs, *rest), {}, keep)
                else:
                    result = fn(scan, size, jobs, *rest)
                after((scan, size, jobs), result)
                return result

            return ranged

        # functools.wraps keeps __module__/__qualname__, so a wrapped scan
        # still pickles by reference when the fan-out sends it to workers.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = span(layer, fn, args, kwargs, keep)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, layer, read):
        """Guard a counter callback: a boundary whose arguments or result
        changed shape marks its counters unmeasured instead of failing."""

        def guarded(args, result):
            try:
                read(args, result)
            except (TypeError, AttributeError, IndexError, KeyError) as exc:
                self.missing.setdefault(layer, f"counter unreadable: {exc!r}")

        return guarded

    def _wrap_runner(self, call):
        span = self.span

        @functools.wraps(call)
        def traced_call(runner, orders):
            tag = getattr(getattr(runner, "mid", None), "tag", "unknown")
            return span("mechanisms." + tag, call, (runner, orders), {}, False)

        return traced_call

    def _counting_pool(self, pool_cls):
        counts = self.counts

        class CountingPool(pool_cls):
            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                counts["verifier.fanout.chunks"] += len(iterables[0]) if iterables else 0
                return super().map(fn, *iterables, **kwargs)

        return CountingPool

    # -- counters read from boundary arguments and results ----------------------

    def _after_table(self, args, table):
        self.counts["verifier.table.profiles"] += len(table)

    def _after_ranged(self, args, result):
        scan = args[0]
        layer = _SCAN_LAYER.get(getattr(scan, "__name__", ""), "verifier.scan.other")
        scanned, comparisons = result[0], result[1]
        self.counts[layer + ".profiles"] += scanned
        self.counts[layer + ".comparisons"] += comparisons or 0
        self.counts["verifier.scan.profiles"] += scanned

    def _after_construct(self, args, partition):
        self.counts["partition.construct.divisions"] += sum(len(g) for g in args[0])

    def _after_repro(self, args, reports):
        if not isinstance(reports, (list, tuple)):
            reports = [reports]
        self.counts["repro.checks"] += sum(len(r.lines) for r in reports)
