"""Reassignment mechanisms.

All mechanisms return assignments over divisions 1..n with the identity
owner map (division i brings worker i).  The partition-based mechanisms
(chain dictatorship, two-stage dictatorship) additionally guarantee complete
exchange: nobody ends up with their own worker, because choice sets never
contain the chooser's own worker.  The draft mechanism achieves the same
without a partition via its endgame rule; the backward top-trading variant
deliberately does not (divisions may keep their own worker).

Cores are plain functions over order tuples so that exhaustive sweeps can
skip dataclass construction.  Each takes its bound arguments first and the
orders last, and returns (mapping, steps): steps are (t, chooser, worker,
kind) tuples, or None for a mechanism that keeps no trace.  No core copies
a set per pick.  In the trading cores each division's pointer into its order
only moves forward, since a worker that has left never returns: ttc follows
one pointer path at a time and clears each cycle as it closes; cettc and
bttc, whose traces list events round by round, point every remaining
division each round and clear the cycles ``_cycles`` finds, smallest member
first.  The pool cores (csd, tsd, sd) keep a set of untaken workers per
disjoint group pool and scan the picker's order for the first one in it;
csd's and npb's fallbacks walk a pointer forward through the priority or
the draft, since nobody who has chosen chooses again.

The ``MECHANISMS`` registry, keyed by tag, is the one place that knows each
mechanism: how to bind its core to everything but the orders, whether it
needs a partition, whether it ignores where a division ranks its own worker,
and which part of each order its core reads.  ``run_traced`` and
``run_mechanism`` run any tag from it; the public ``run_*`` wrappers take a
Problem and return (Assignment, Trace) or Assignment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .model import (
    Assignment,
    FinalOrder,
    Infeasible,
    MalformedProblem,
    MechanismId,
    Problem,
    Trace,
    TraceStep,
    _check_permutation,
)
from .partition import canonical_partition


def effective_partition(problem: Problem):
    """The problem's partition, or the canonical one for its size."""
    if problem.partition is not None:
        return problem.partition
    return canonical_partition(problem.n)


def _group_tables(partition):
    """(group_of, pools): division -> group index, group index -> worker tuple."""
    group_of = {}
    for k, g in enumerate(partition.groups):
        for i in g.divisions:
            group_of[i] = k
    pools = tuple(g.workers for g in partition.groups)
    return group_of, pools


# -- serial dictatorships ---------------------------------------------------


def _sd_groups_core(order, group_of, pools, orders):
    free = list(map(set, pools))  # per group, the pool's workers not yet taken
    mapping = [0] * len(orders)
    for i in order:
        pool = free[group_of[i]]
        for w in orders[i - 1]:
            if w in pool:
                break
        pool.remove(w)  # raises if the scan found none: pools never run dry
        mapping[i - 1] = w
    return tuple(mapping), None


def run_sd_within_groups(problem: Problem, order) -> Assignment:
    """Serial dictatorship where each division picks from its own group pool.

    ``order`` is a FinalOrder or a sequence of divisions.  Outcomes depend
    only on the order restricted to each group, not on the interleaving.
    """
    seq = order.global_order if isinstance(order, FinalOrder) else tuple(order)
    return run_traced(MechanismId("sd", order=seq), problem)[0]


# -- chain dictatorship (single stage) --------------------------------------


def _csd_core(priority, group_of, pools, orders):
    n = len(orders)
    free = list(map(set, pools))
    chosen = [False] * (n + 1)
    top = 0  # priority[:top] have all chosen: a fallback only looks past it
    mapping = [0] * n
    steps = []
    chooser, kind = priority[0], "start"
    for t in range(1, n + 1):
        pool = free[group_of[chooser]]
        for w in orders[chooser - 1]:
            if w in pool:
                break
        pool.remove(w)
        mapping[chooser - 1] = w
        chosen[chooser] = True
        steps.append((t, chooser, w, kind))
        if t == n:
            break
        if not chosen[w]:  # owner of worker w is division w
            chooser, kind = w, "owner-call"
        else:
            while chosen[priority[top]]:
                top += 1
            chooser, kind = priority[top], "fallback"
    return tuple(mapping), steps


def run_csd(problem: Problem) -> tuple[Assignment, Trace]:
    """Chain dictatorship: each pick hands the turn to the owner of the taken
    worker; if that owner already chose, the turn falls back to the best
    remaining division in the priority order."""
    return run_traced("csd", problem)


# -- two-stage dictatorship --------------------------------------------------


def _tsd_core(priority, group_of, pools, orders):
    free = list(map(set, pools))
    noms = []
    final = []  # owner of worker w is division w
    for t, i in enumerate(priority, start=1):
        pool = free[group_of[i]]
        for w in orders[i - 1]:
            if w in pool:
                break
        pool.remove(w)
        noms.append((t, i, w, "nominate"))
        final.append(w)
    # Owners of nominated workers, in nomination order, become the final
    # priority; the assignment is a fresh groupwise dictatorship under it.
    return _sd_groups_core(final, group_of, pools, orders)[0], noms


def run_tsd(problem: Problem) -> tuple[Assignment, Trace]:
    """Two-stage dictatorship.

    Stage 1 walks the priority order; each division nominates its favorite
    still-unnominated worker in its pool.  Owners of nominated workers, in
    nomination order, form the final priority.  Stage 2 reruns the groupwise
    dictatorship from scratch under that final priority.  The trace records
    the stage-1 nominations.
    """
    return run_traced("tsd", problem)


def final_order(problem: Problem, mechanism: str) -> FinalOrder:
    """The division order a mechanism effectively runs its dictatorship in.

    For "csd" this is the realized chooser sequence; for "tsd" it is the
    owner sequence of stage-1 nominations.  Running run_sd_within_groups on
    the result reproduces the mechanism's assignment.
    """
    field = MECHANISMS[mechanism].final_order if mechanism in MECHANISMS else None
    if field is None:
        raise MalformedProblem(f"no final order for mechanism {mechanism!r}")
    _, trace = run_traced(mechanism, problem)
    seq = tuple(getattr(s, field) for s in trace.steps)
    return FinalOrder.from_global(seq, effective_partition(problem))


# -- top trading cycles, complete-exchange variant ---------------------------


def initial_derangement(n: int, mu0="cyclic", seed: int | None = None):
    """Resolve the starting endowment swap for the trading mechanism.

    "cyclic" shifts every worker by one; "random" draws uniformly among all
    derangements by rejection (requires a seed for reproducibility); an
    explicit sequence is validated.
    """
    if n < 2:
        raise Infeasible("complete exchange needs at least two divisions")
    if mu0 == "cyclic":
        return tuple(i % n + 1 for i in range(1, n + 1))
    if mu0 == "random":
        if seed is None:
            raise MalformedProblem("random initial swap needs a seed")
        rng = random.Random(seed)
        ids = list(range(1, n + 1))
        while True:
            rng.shuffle(ids)
            if all(w != i for i, w in enumerate(ids, start=1)):
                return tuple(ids)
    mu0 = tuple(mu0)
    if len(mu0) != n or set(mu0) != set(range(1, n + 1)):
        raise MalformedProblem(f"initial swap must be a permutation of 1..{n}")
    if any(w == i for i, w in enumerate(mu0, start=1)):
        raise MalformedProblem("initial swap must not fix any division's own worker")
    return mu0


def _cycles(succ, nodes):
    """Cycles of the functional graph ``succ`` (a list indexed by node)
    restricted to ``nodes`` (ascending), each cycle as a list starting at its
    smallest member, cycles sorted by that member."""
    seen = [0] * len(succ)  # the start of the walk that reached a node
    out = []
    for start in nodes:
        if seen[start]:
            continue
        v = start
        while not seen[v]:
            seen[v] = start
            v = succ[v]
        if seen[v] == start:  # this walk closed a fresh cycle through v
            cyc = [v]
            while succ[cyc[-1]] != v:
                cyc.append(succ[cyc[-1]])
            k = cyc.index(min(cyc))
            out.append(cyc[k:] + cyc[:k])
    out.sort()  # cycles are disjoint: their first members decide
    return out


def _cettc_core(mu0, orders):
    n = len(orders)
    holder = dict(zip(mu0, range(1, n + 1)))  # worker -> temporary owner
    gone = [False] * (n + 1)
    top = [0] * (n + 1)  # a pointer skips the own worker and workers whose holder left
    succ = [0] * (n + 1)
    mapping = [0] * (n + 1)  # the worker a division points at, final once it trades
    active = list(range(1, n + 1))
    events = []
    while active:
        for i in active:
            o = orders[i - 1]
            k = top[i]
            w = o[k]
            while w == i or gone[holder[w]]:
                k += 1
                w = o[k]
            top[i] = k
            mapping[i] = w
            succ[i] = holder[w]
        for cyc in _cycles(succ, active):
            for i in cyc:
                events.append((len(events) + 1, i, mapping[i], "cycle"))
                gone[i] = True
        active = [i for i in active if not gone[i]]
    return tuple(mapping[1:]), events


def run_cettc(problem: Problem, mu0="cyclic", seed: int | None = None) -> tuple[Assignment, Trace]:
    """Top trading cycles after a preference-independent full swap.

    Everyone first swaps to the initial derangement mu0, then trades: each
    division points at its best still-present worker other than its own
    original one, workers point at their temporary holders, and all cycles
    clear each round.  The own-worker exclusion keeps the final assignment a
    derangement regardless of preferences.
    """
    return run_traced(MechanismId("cettc", mu0=mu0, seed=seed), problem)


def _ttc_core(orders):
    # Path-following TTC: each division keeps a pointer into its own order
    # that only moves forward, past workers already gone (worker w leaves
    # with its owner, division w).  Follow pointers from a present division;
    # when the path closes on itself, that cycle trades and leaves, and the
    # walk resumes from the division just before it.  Which cycle clears
    # first does not change the outcome.
    n = len(orders)
    mapping = [0] * (n + 1)  # mapping[i]: division i's worker, 0 while present
    top = [0] * (n + 1)
    path = []
    for start in range(1, n + 1):
        if mapping[start]:
            continue
        path.append(start)
        while path:
            i = path[-1]
            o = orders[i - 1]
            k = top[i]
            while mapping[o[k]]:
                k += 1
            top[i] = k
            j = o[k]
            if j in path:
                c = path.index(j)
                for a in path[c:]:  # i takes j's worker, j the next one's, ...
                    mapping[i] = a
                    i = a
                del path[c:]
            else:
                path.append(j)
    return tuple(mapping[1:]), None


def run_ttc(problem: Problem) -> Assignment:
    """Classic top trading cycles from the identity endowment (divisions may
    keep their own worker)."""
    return run_traced("ttc", problem)[0]


# -- backward top trading cycles ---------------------------------------------


def _bttc_core(orders):
    n = len(orders)
    # Forward pass: point at the best other remaining division's worker
    # (self if alone); remove every cycle each step.
    gone = [False] * (n + 1)
    top = [0] * (n + 1)  # a pointer skips the own worker and removed divisions
    p = [0] * (n + 1)
    active = list(range(1, n + 1))
    stages = []  # per step, its cycles
    settled = []  # divisions in the order their cycles are removed
    while active:
        if len(active) == 1:
            p[active[0]] = active[0]
        else:
            for i in active:
                o = orders[i - 1]
                k = top[i]
                j = o[k]
                while j == i or gone[j]:
                    k += 1
                    j = o[k]
                top[i] = k
                p[i] = j
        cycs = _cycles(p, active)
        stages.append(cycs)
        for cyc in cycs:
            settled.extend(cyc)
            for i in cyc:
                gone[i] = True
        active = [i for i in active if not gone[i]]

    # Backward pass: a cycle unwinds (members keep their own workers) iff
    # every member prefers own to pointed worker and nobody settled in a
    # later step prefers any of this cycle's workers to what they got.
    mapping = [0] * (n + 1)
    envied = set()  # workers some division settled later ranks above its own outcome
    for cycs in reversed(stages):
        for cyc in cycs:
            stay = envied.isdisjoint(cyc) and all(orders[i - 1].index(i) < top[i] for i in cyc)
            for i in cyc:
                mapping[i] = i if stay else p[i]
        for cyc in cycs:
            for i in cyc:
                o = orders[i - 1]
                envied.update(o[: o.index(mapping[i])])
    events = [(t, i, mapping[i], "stay" if mapping[i] == i else "trade")
              for t, i in enumerate(settled, start=1)]
    return tuple(mapping[1:]), events


def run_bttc(problem: Problem) -> tuple[Assignment, Trace]:
    """Backward top trading cycles.

    Forward, divisions repeatedly point at their favorite worker among the
    other remaining divisions' own workers and all cycles are removed each
    step.  Backward from the last step, each cycle either unwinds to own
    workers or executes its trades; unwinding requires unanimous own-worker
    preference inside the cycle and no envy from divisions settled later.
    The output need not be a derangement.
    """
    return run_traced("bttc", problem)


# -- nomination draft ---------------------------------------------------------


def npb_draft_priority(problem: Problem) -> tuple[int, ...]:
    """Draft order: clubs sorted by votes received on their own player
    (descending), ties broken by the problem's priority."""
    return _npb_draft(problem.profile.orders, problem.priority)[1]


def _npb_draft(orders, priority):
    """(votes, draft): ``votes[i - 1]`` is club i's top player other than its
    own; the draft is the priority stably sorted by votes received, most
    first, so ties keep their priority order."""
    votes = [o[1] if o[0] == i else o[0] for i, o in enumerate(orders, start=1)]
    count = [0] * (len(orders) + 1)
    for w in votes:
        count[w] += 1
    return votes, tuple(sorted(priority, key=count.__getitem__, reverse=True))


def _npb_core(priority, orders):
    n = len(orders)
    if n < 3:
        raise Infeasible("the draft mechanism needs at least three clubs")
    votes, draft = _npb_draft(orders, priority)
    taken = [False] * (n + 1)  # players
    moved = [False] * (n + 1)  # clubs
    top = 0  # draft[:top] have all moved: a fallback only looks past it
    mapping = [0] * n
    steps = []
    chooser, kind = draft[0], "start"
    for t in range(1, n + 1):
        moved[chooser] = True
        if t == n - 1:
            # Endgame: take the other remaining club's player.  Chain
            # structure guarantees it is still on the board.
            w, kind = moved.index(False, 1), "last-two"
            assert not taken[w], "endgame player already taken"
        elif t == n:
            w = taken.index(False, 1)
            assert w != chooser, "last club left with its own player"
        else:
            w = votes[chooser - 1]
            if taken[w]:
                for w in orders[chooser - 1]:
                    if w != chooser and not taken[w]:
                        break
        mapping[chooser - 1] = w
        taken[w] = True
        steps.append((t, chooser, w, kind))
        if t == n:
            break
        if not moved[w]:  # club w still to move owns player w
            chooser, kind = w, "owner-call"
        else:
            while moved[draft[top]]:
                top += 1
            chooser, kind = draft[top], "fallback"
    return tuple(mapping), steps


def run_npb(problem: Problem) -> tuple[Assignment, Trace]:
    """Nomination draft.

    Each club's vote is the top player on its list other than its own; clubs
    are ordered by votes received on their player (priority breaks ties).
    The first club picks, then the owner of the picked player moves next
    (fallback: best unassigned club in draft order).  A club takes its voted
    player if still available, otherwise its favorite available player other
    than its own; when only two clubs remain, the mover must take the other
    remaining club's player, which forces a full exchange.
    """
    return run_traced("npb", problem)


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Mechanism:
    """The facts about one mechanism that the rest of the package reads.

    ``bind(mid, n, priority, partition)`` returns the core bound to
    everything but the orders: ``core(orders) -> (mapping, steps or None)``.
    ``partition``: the core picks from the pools of an assignment partition.
    ``reduced``: the outcome never depends on where a division ranks its own
    worker, so sweeps cover own-last profiles only.  ``options``: the
    MechanismId fields the binder reads.  ``final_order``: the trace field
    whose sequence is the order the mechanism runs its dictatorship in.
    ``reads(i, order, partition)``: the part of division i's order the core
    reads, as a key; two profiles whose orders have equal keys division by
    division get the same outcome, whatever the options and priority.  The
    classes of equal keys index a sweep's class table: the sweep runs the
    core on one representative order per class and fills that table by
    outcome boxes of class profiles.  None: the core may read all of every
    order, and every order is its own class.
    """

    bind: Callable
    partition: bool = False
    reduced: bool = False
    options: tuple[str, ...] = ()
    final_order: str | None = None
    reads: Callable | None = None


def _bind_pools(core):
    """Binder for a core that reads the priority and the partition's pools."""

    def bind(mid, n, priority, partition):
        return partial(core, priority, *_group_tables(partition))

    return bind


def _bind_cettc(mid, n, priority, partition):
    return partial(_cettc_core, initial_derangement(n, mid.mu0 or "cyclic", mid.seed))


def _bind_sd(mid, n, priority, partition):
    # Baseline: serial dictatorship within groups under a fixed exogenous
    # order (no endogenous order stage).
    order = tuple(mid.order) if mid.order else priority
    _check_permutation(order, n, "sd order")
    return partial(_sd_groups_core, order, *_group_tables(partition))


def _reads_pool(i, order, partition):
    # every pick is the first worker of division i's order still in a
    # subset of its pool
    pool = partition.choice_set(i)
    return tuple(w for w in order if w in pool)


def _reads_through_own(i, order, partition):
    # a division points at its own worker at the latest: that worker stays
    # present until the division itself trades
    return order[: order.index(i) + 1]


MECHANISMS = {
    "csd": Mechanism(_bind_pools(_csd_core), partition=True, reduced=True, final_order="chooser",
                     reads=_reads_pool),
    "tsd": Mechanism(_bind_pools(_tsd_core), partition=True, reduced=True, final_order="worker",
                     reads=_reads_pool),
    "cettc": Mechanism(_bind_cettc, reduced=True, options=("mu0", "seed")),
    "bttc": Mechanism(lambda *_: _bttc_core),
    "ttc": Mechanism(lambda *_: _ttc_core, reads=_reads_through_own),
    "npb": Mechanism(lambda mid, n, priority, _: partial(_npb_core, priority), reduced=True),
    "sd": Mechanism(_bind_sd, partition=True, reduced=True, options=("order",), reads=_reads_pool),
}

MECHANISM_TAGS = tuple(MECHANISMS)


def mechanism_entry(tag: str) -> Mechanism:
    """The registry entry for a tag; an unknown tag is malformed input."""
    try:
        return MECHANISMS[tag]
    except KeyError:
        raise MalformedProblem(f"unknown mechanism {tag!r}") from None


def run_traced(mechanism: MechanismId | str, problem: Problem):
    """Run a mechanism by id: (Assignment, Trace), or (Assignment, None) for
    a mechanism that keeps no trace."""
    mid = MechanismId(mechanism) if isinstance(mechanism, str) else mechanism
    entry = mechanism_entry(mid.tag)
    partition = effective_partition(problem) if entry.partition else problem.partition
    core = entry.bind(mid, problem.n, problem.priority, partition)
    mapping, steps = core(problem.profile.orders)
    trace = None if steps is None else Trace(tuple(TraceStep(*s) for s in steps))
    return Assignment(mapping), trace


def run_mechanism(mechanism: MechanismId | str, problem: Problem) -> Assignment:
    """Run a mechanism by id and return just the assignment."""
    return run_traced(mechanism, problem)[0]
