#!/usr/bin/env python3
"""Milliseconds per outcome-table build, fill and widening and per sp and
ri fast-scan call, and core runs per fill, with no tracer and no sweep.

    PYTHONPATH=src python3 scripts/scan_ms.py

Builds three outcome tables as an exhaustive sweep does (default options,
identity priority, canonical partition): ``ttc`` and ``bttc`` over the
full n=4 space (331,776 profiles) and ``csd`` over the reduced n=5 space
(7,962,624 profiles).  The n=5 table comes straight from ``_ClassTable``
and ``_outcome_table``, which have no cap; the checks themselves still
refuse exhaustive sweeps above n=4.  Per table, the ``table`` cell times
one ``_outcome_table`` call on a fresh ``_ClassTable`` (the fill by
outcome boxes plus the widening to one byte per profile), the ``fill``
cell the fill alone on another fresh table, the ``widen`` cell the
widening alone of that filled table, and the ``sp`` and ``ri`` cells one
call of ``_sp_menu_scan`` or ``_ri_step_scan`` on the widened table.
``runs`` counts the core runs of one fill, outside the timed passes.  It
prints the best of 5 timed passes, and the passes go round every cell in
turn, so a slow spell of the machine spreads over all cells instead of
landing on one.  Standard library only.
"""

import sys
from time import perf_counter

from reassign.verifier import (
    _ClassTable,
    _outcome_table,
    _ri_step_scan,
    _Runner,
    _space,
    _sp_menu_scan,
    _widen,
    as_mechanism_id,
)

TABLES = (("ttc", 4), ("bttc", 4), ("csd", 5))
SCANS = (("sp", _sp_menu_scan), ("ri", _ri_step_scan))
REPEAT = 5


def table_of(tag, n):
    runner = _Runner(as_mechanism_id(tag), n)
    return _ClassTable(runner, _space(n, runner.reduced))


def timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return perf_counter() - start, out


def core_runs(tag, n):
    """The core runs one fill of a fresh table makes."""
    table, runs, call = table_of(tag, n), [], _Runner.__call__
    _Runner.__call__ = lambda self, orders: runs.append(orders) or call(self, orders)
    try:
        table.fill(0, len(table.codes))
    finally:
        _Runner.__call__ = call
    return len(runs)


def main() -> int:
    names = ["table", "fill", "widen"] + [name for name, _ in SCANS]
    spaces, best = {}, {}
    for _ in range(REPEAT):
        for tag, n in TABLES:
            t_table, codes = timed(_outcome_table, table_of(tag, n))
            table = table_of(tag, n)
            spaces[tag, n] = table.space
            t_fill, _ = timed(table.fill, 0, len(table.codes))
            t_widen, _ = timed(_widen, table.codes, table.cls)
            times = [t_table, t_fill, t_widen] + [timed(scan, table.space, codes)[0] for _, scan in SCANS]
            for name, t in zip(names, times):
                best[tag, n, name] = min(best.get((tag, n, name), t), t)
    print(f"{'table':>18}" + "".join(f"{f'{name} ms':>10}" for name in names) + f"{'runs':>8}")
    for (tag, n), space in spaces.items():
        label = f"{tag} {'reduced' if space.reduced else 'full'} n={n}"
        cells = "".join(f"{best[tag, n, name] * 1e3:10.2f}" for name in names)
        print(f"{label:>18}{cells}{core_runs(tag, n):8d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
