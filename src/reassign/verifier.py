"""Property verification by enumeration.

Checks strategyproofness (sp), respect of improvements (ri), complete
exchange (ce), efficiency among derangements (cee), efficiency among
partition-feasible assignments (eap), plain Pareto efficiency (pareto) and
own-position invariance for any mechanism, either exhaustively over a profile
space or on seeded samples.

Mechanisms whose registry entry is ``reduced`` (csd, tsd, cettc, npb, sd:
the outcome never depends on where a division ranks its own worker) are swept
over the reduced space of orders over the other workers, own worker appended
last; ttc and bttc, which do read own positions, are swept over full orders.
The flag is not established by check_own_position_invariance, which moves
one division's own worker at a time and so passes bttc; the test suite
backs it by comparing every full profile at n=3 with its own-last form.

Every check runs through one driver that resolves the scope, binds the
runner, applies the exhaustive cap and builds the report.  Every exhaustive
check reads the mechanism's outcomes from one class table (``_ClassTable``)
and, except sp and ri, through one block scan, ``_outcome_scan``: a block
is the profiles that share their first two orders, and a kernel chosen per
check reads the outcome codes of a run of blocks at a time, runs of 1, 1,
2, 4, ... blocks within one order of division 1.  A sweep's table,
kernel and fault function travel as its scans' arguments, never through a
module global, so one check may run inside another.  Every check runs in
the calling process whatever ``jobs`` is, and refuses ``jobs`` below 1.

The class table runs the mechanism once per box of profiles that must share
an outcome, not once per profile.  First, a registry entry's ``reads`` field
names the part of division i's order its core reads: the prefix through the
own worker for ttc, whose division never points past that worker because it
stays present until the division trades (Shapley and Scarf 1974), and the
order restricted to the division's group pool for csd, tsd and sd, whose
every pick is the first available worker of a subset of that pool.  Orders
with equal parts form a class, and the table holds one byte per profile of
class representatives, widened to one byte per profile by one slice copy
per order and run of the digits beside it (``_widen``).  Second, the table
is filled by outcome boxes: every profile that agrees with a run profile,
division by division, down to the worker its outcome gives that division
gets the same outcome, so one core run fills a whole box of class
profiles.  A run splits its entry by one divmod into a head, the classes
of divisions 1 and 2, and a tail, those of the rest, and reads the
representatives and box runs of each half from tuples the table builds
once.  Neither fold is assumed: the test suite compares the filled table
with one core run per profile on every space a sweep uses, the
own-position check's moved spaces among them, and checks both folds on
samples above.
The box fold is not a theorem for tsd: once a group holds three divisions
(n >= 6, past the sweeps' cap) a division's stage-1 nomination can lie past
the worker it receives and change the outcome.  Witnesses are built by
running the faulting profile itself, and a profile a kernel flags that its
direct runs clear stops the sweep with an error: a fold has failed.  Each
check does only the work its verdict reads:

* sp and ri are one deviation check: division i must not gain by its own
  misreport (sp) nor lose when the others raise its worker (ri).  A probe
  first runs the property's pairwise scan over the first ``radix`` base
  profiles, reading the class table entry by entry, so a violation near
  the start of the space is found without filling the whole table;
* otherwise the rest of the table is filled and widened into one byte per
  profile.  sp then applies the taxation principle: with the other
  divisions' reports fixed, every report of a division must receive the top
  of that division's menu, the workers its reports can reach.  ri tries
  single adjacent raises only: every improvement is a chain of them that
  leaves the subject's own order alone, so the subject loses by some
  improvement iff it loses by one step.  Both scans test all profiles of
  a digit, one byte lane each, per bytes or int operation: sp's menu masks
  fit a byte for n <= 8, ri's lanes (base rank with bit 0x80 set, minus
  raised rank) borrow across no lane while ranks stay below 128, and the
  table's permutation codes fit a byte only for n <= 5;
* ce, cee, eap, pareto and own-position fill no whole table and stop at
  their first faulting run of blocks, whose blocks' head entries only are
  filled and widened, each pair of head classes once a check.  The kernel
  of ce, cee, eap and pareto translates a run's codes to envy masks and
  peels all its envy graphs at once with int operations.  own-position
  sweeps own-last bases.  Moving division j+1's own worker to position q
  of each of its orders gives a moved space, indexed as the reduced
  space, so a base's moved profiles are the profiles at its own index in
  the n(n-1) moved spaces.  Its kernel reads them from one ordinary class
  table per moved space, filled by outcome boxes as the bases reach them.
  A moved space fixes every own worker's position, so no entry a moved
  profile reads comes from a run of a profile with an own worker
  elsewhere, its base among them: the check tests the invariance the folds
  would otherwise assume.  The check's fault function builds the witness
  from direct runs.

Sampled scopes draw from CPython's ``random.Random`` stream word for word,
so a seed gives the same profiles and deviations it gave when they were
drawn with ``shuffle`` and ``choice``, without those methods' two Python
calls per word: each step calls ``getrandbits`` with the rule of
``_randbelow``.  The sp deviation draws the words of the rows it does not
keep without building them, and the ri deviation builds only the raised
order it picks.  The test suite keeps the ``shuffle``/``choice`` draws as
twins and fails if a CPython release changes how they consume the stream.

A failure found by a fast scan is replayed through the pairwise scan up to
its base profile, so reports (verdict, checked, comparisons, witness) are
those of the pairwise scans, deterministic and minimal in enumeration order.

The three efficiency oracles ask one question over three classes of
assignments (all of them, derangements, partition-feasible ones) and answer
it with one graph search instead of enumerating the class: an assignment is
Pareto-dominated iff its envy graph, an edge i -> j when division i strictly
prefers j's worker to its own, has a cycle (Abraham, Cechlárová, Manlove and
Mehlhorn, "Pareto optimality in house allocation problems", ISAAC 2004).
Restricting the edges to trades the class allows gives each oracle, and
``cee_set`` keeps the derangements the cee oracle passes.  The graph is a
set of int bitmasks, one per division, and the cycle test peels them.  An
assignment outside its class has no such graph: eap refuses an infeasible
one outright, and cee asks of a non-derangement whether any derangement
dominates it, by the matching search that also builds the witness of a
failing cee check, the first dominating derangement; neither has a size
cap.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .mechanisms import mechanism_entry, run_mechanism
from .model import (
    Assignment,
    EnumerationBoundExceeded,
    MalformedProblem,
    MechanismId,
    PreferenceProfile,
    Problem,
    _check_permutation,
    _int_array,
    _is_int,
    all_full_orders,
    all_orders_excluding,
    is_derangement,
    partition_from_list,
    problem_from_dict,
    problem_to_dict,
)
from .partition import canonical_partition

_EXHAUSTIVE_MAX_N = 4
_CEE_SET_MAX_N = 9
_SCAN_MAX_N = 3


@dataclass(frozen=True)
class Scope:
    """What a check ran over: the whole space, or seeded samples."""

    kind: str  # "exhaustive" | "sampled"
    n: int
    count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("exhaustive", "sampled"):
            raise MalformedProblem(f"unknown scope kind {self.kind!r}")
        for name in ("n", "count", "seed"):
            value = getattr(self, name)
            if (value is not None or name == "n") and not _is_int(value):
                raise MalformedProblem(f"a scope's {name} must be an integer, got {value!r}")
        if self.kind == "sampled" and (self.count is None or self.seed is None):
            raise MalformedProblem("sampled scopes need count and seed")
        if self.kind == "sampled" and self.count < 1:
            raise MalformedProblem(f"sampled scopes need a count >= 1, got {self.count}")

    def to_dict(self):
        d = {"kind": self.kind, "n": self.n}
        if self.kind == "sampled":
            d["count"] = self.count
            d["seed"] = self.seed
        return d


@dataclass
class PropertyReport:
    """Outcome of one property check."""

    prop: str
    mechanism: str
    scope: Scope
    holds: bool
    checked: int
    comparisons: int | None
    witness: dict | None
    elapsed: float
    note: str = ""

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"

    def to_dict(self):
        return {
            "property": self.prop,
            "mechanism": self.mechanism,
            "scope": self.scope.to_dict(),
            "verdict": self.verdict,
            "checked": self.checked,
            "comparisons": self.comparisons,
            "witness": self.witness,
            "elapsed_s": round(self.elapsed, 3),
            "note": self.note,
        }


# -- efficiency oracles -------------------------------------------------------


@lru_cache(maxsize=None)
def derangements(n: int) -> tuple[tuple[int, ...], ...]:
    """All assignments without fixed points, lexicographically sorted."""
    if n > _CEE_SET_MAX_N:
        raise EnumerationBoundExceeded(f"derangement enumeration capped at n={_CEE_SET_MAX_N}")
    return tuple(
        p
        for p in itertools.permutations(range(1, n + 1))
        if all(w != i for i, w in enumerate(p, start=1))
    )


def _orders_of(profile) -> tuple[tuple[int, ...], ...]:
    if isinstance(profile, PreferenceProfile):
        return profile.orders
    if type(profile) is tuple and all(type(o) is tuple for o in profile):
        return profile
    return tuple(tuple(o) for o in profile)


def _mapping_of(assignment) -> tuple[int, ...]:
    if isinstance(assignment, Assignment):
        return assignment.mapping
    return tuple(assignment)


def _dominated(orders, m, allowed) -> bool:
    """True iff another assignment, each of whose pairs (division i, worker w)
    passes ``allowed(i, w)`` (every pair when ``allowed`` is None), is weakly
    better than ``m`` for every division.  Every pair of ``m`` must pass.

    Such an assignment is ``m`` with some divisions trading along the edges
    of its envy graph: an edge from i to j when i strictly prefers j's worker
    to its own and may take it.  The graph is one int per division, bit j of
    ``envy[i]`` set for the edge i -> j, and ``m`` is dominated iff it has a
    cycle.
    """
    bit = [0] * (len(m) + 1)  # bit[w]: the bit of the division holding worker w
    for j, w in enumerate(m):
        bit[w] = 1 << j
    envy = []
    for i, (o, own) in enumerate(zip(orders, m), start=1):
        mask = 0
        for w in o:
            if w == own:
                break
            if allowed is None or allowed(i, w):
                mask |= bit[w]
        envy.append(mask)
    live = sum(1 << i for i, e in enumerate(envy) if e)
    while live:  # peel divisions that envy nobody left; the rest hold a cycle
        keep = 0
        for i, e in enumerate(envy):
            if e & live and live >> i & 1:
                keep |= 1 << i
        if keep == live:
            return True
        live = keep
    return False


def _augment(envy, taker, s) -> bool:
    """Find division s a worker by breadth-first search along an alternating
    path, moving each division on it to the next worker; False if none."""
    via, back, queue = {}, {}, [s]
    for i in queue:
        for j in envy[i]:
            if j in via:
                continue
            via[j] = i
            if j not in taker:
                while j is not None:  # back to s, each division one worker on
                    taker[j] = via[j]
                    j = back.get(via[j])
                return True
            back[taker[j]] = j
            queue.append(taker[j])
    return False


def _first_dominating_derangement(orders, m):
    """The lexicographically first derangement that Pareto-dominates ``m``,
    or None.

    Divisions are fixed left to right, each to the smallest worker that is
    not its own, that it ranks weakly above its worker in ``m``, and that
    leaves the rest a perfect matching (``_augment``).  While the prefix
    still equals ``m``'s, the rest must also have a matching other than
    ``m``'s own: one that leaves out one of ``m``'s remaining pairs.
    """
    n = len(m)
    ok = [  # ok[i]: the workers division i+1 may take, smallest first
        sorted(w for w in o[: o.index(own) + 1] if w != i)
        for i, (o, own) in enumerate(zip(orders, m), start=1)
    ]

    def completes(prefix, banned=None):
        # the divisions after the prefix take the workers it left, one each
        adj = [[w for w in ok[i] if w not in prefix and (i, w) != banned] for i in range(n)]
        taker = {}
        return all(_augment(adj, taker, s) for s in range(len(prefix), n))

    prefix = []
    for i in range(n):
        same = tuple(prefix) == m[:i]
        for w in ok[i]:
            if w in prefix:
                continue
            trial = prefix + [w]
            if same and w == m[i]:
                fits = any(completes(trial, (k, m[k])) for k in range(i + 1, n))
            else:
                fits = completes(trial)
            if fits:
                prefix = trial
                break
        else:
            return None
    return tuple(prefix)


def is_ce_efficient(profile, mapping) -> bool:
    """True iff no derangement Pareto-dominates the given assignment."""
    orders, m = _orders_of(profile), _mapping_of(mapping)
    if not is_derangement(m):
        return _first_dominating_derangement(orders, m) is None
    return not _dominated(orders, m, operator.ne)


def cee_set(profile) -> list[tuple[int, ...]]:
    """All derangements not Pareto-dominated by another derangement, in
    lexicographic order: the derangements the cee cycle test passes."""
    orders = _orders_of(profile)
    n = len(orders)
    if n > _CEE_SET_MAX_N:
        raise EnumerationBoundExceeded(f"cee_set is capped at n={_CEE_SET_MAX_N}")
    return [d for d in derangements(n) if not _dominated(orders, d, operator.ne)]


def eap_feasible(partition, mapping) -> bool:
    """True iff every division's worker comes from its own group pool."""
    m = _mapping_of(mapping)
    return all(m[i - 1] in g.workers for g in partition.groups for i in g.divisions)


def eap_efficient(profile, partition, mapping) -> bool:
    """True iff the assignment is partition-feasible and no feasible
    assignment Pareto-dominates it."""
    m = _mapping_of(mapping)
    if not eap_feasible(partition, m):
        return False
    return not _dominated(_orders_of(profile), m, _pools(partition))


def _pools(partition):
    """The eap edge filter: division i may take worker w from its group pool."""
    pool = {i: g.workers for g in partition.groups for i in g.divisions}
    return lambda i, w: w in pool[i]


def pareto_efficient(profile, mapping) -> bool:
    """True iff no assignment at all Pareto-dominates this one."""
    return not _dominated(_orders_of(profile), _mapping_of(mapping), None)


# One oracle per property a single outcome can have, read by the sweeps and
# by ``run --certify``: oracle(profile, mapping, partition) -> bool, where the
# profile may also be a tuple of orders and only eap reads the partition.
# cee, eap and pareto are each one envy-cycle test (_dominated), so none of
# them has a size cap.
ORACLES = {
    "ce": lambda profile, m, partition: is_derangement(m),
    "cee": lambda profile, m, partition: is_ce_efficient(profile, m),
    "eap": lambda profile, m, partition: eap_efficient(profile, partition, m),
    "pareto": lambda profile, m, partition: pareto_efficient(profile, m),
}


# -- improvements -------------------------------------------------------------


def _raised_orders(order, i):
    """Orders obtained from ``order`` by moving worker i weakly up, keeping
    everyone else's relative positions.  Includes ``order`` itself (last)."""
    order = tuple(order)
    pos = order.index(i)
    rest = order[:pos] + order[pos + 1 :]
    return [rest[:q] + (i,) + rest[q:] for q in range(pos + 1)]


def is_improvement(base, improved, i: int) -> bool:
    """True iff ``improved`` raises worker i for the other divisions: division
    i's own order is unchanged, every other order keeps its relative order
    over workers other than i, and i moves weakly up in it."""
    b = _orders_of(base)
    c = _orders_of(improved)
    if len(b) != len(c) or b[i - 1] != c[i - 1]:
        return False
    for j in range(1, len(b) + 1):
        if j == i:
            continue
        ob, oc = b[j - 1], c[j - 1]
        if tuple(w for w in ob if w != i) != tuple(w for w in oc if w != i):
            return False
        if oc.index(i) > ob.index(i):
            return False
    return True


def enumerate_improvements(profile, i: int):
    """Yield every profile obtainable by weakly raising worker i in the other
    divisions' orders (division i's order fixed).  Includes the input."""
    orders = _orders_of(profile)
    wrap = isinstance(profile, PreferenceProfile)
    variants = [
        [orders[j - 1]] if j == i else _raised_orders(orders[j - 1], i)
        for j in range(1, len(orders) + 1)
    ]
    for combo in itertools.product(*variants):
        yield PreferenceProfile(combo) if wrap else combo


def certify_ri_violation(base, improved, i: int, outcome_base, outcome_improved) -> bool:
    """True iff ``improved`` is a valid improvement for i over ``base`` and i
    strictly loses by it: its base worker beats its improved worker in its
    own (unchanged) order."""
    if not is_improvement(base, improved, i):
        return False
    b = _orders_of(base)
    ob = _mapping_of(outcome_base)
    oi = _mapping_of(outcome_improved)
    order = b[i - 1]
    return order.index(ob[i - 1]) < order.index(oi[i - 1])


# -- profile spaces -----------------------------------------------------------


class _ProfileSpace:
    """Indexable space of profiles: per division a list of full orders.

    A moved space, ``moved`` = (j, q), is the reduced space with division
    j+1's own worker moved to position q of each of its orders.  Its order
    number d is the move of the reduced order number d, and the move keeps
    the orders sorted, so profile idx of a moved space is the reduced
    profile idx with that one move."""

    def __init__(self, n: int, reduced: bool, moved=None):
        self.n = n
        self.reduced = reduced
        if moved is not None:
            j, q = moved
            orders = list(_space(n, True).orders)
            orders[j] = tuple(o[:q] + o[-1:] + o[q:-1] for o in orders[j])
            self.orders = tuple(orders)
        elif reduced:
            self.orders = tuple(
                tuple(o + (i,) for o in all_orders_excluding(n, i))
                for i in range(1, n + 1)
            )
        else:
            full = tuple(all_full_orders(n))
            self.orders = tuple(full for _ in range(n))
        self.radix = len(self.orders[0])
        self.size = self.radix**n
        # pow[j]: weight of division j+1's digit; last digit varies fastest,
        # matching itertools.product enumeration order.
        self.pows = tuple(self.radix ** (n - 1 - j) for j in range(n))
        # the sweeps' unit: a block of profiles that share their first two orders
        self.block = self.radix ** max(0, n - 2)

    # read by the sp and ri scans only
    @cached_property
    def order_index(self):
        return tuple({o: k for k, o in enumerate(lst)} for lst in self.orders)

    @cached_property
    def rank_maps(self):
        return tuple(
            tuple({w: r for r, w in enumerate(o)} for o in lst) for lst in self.orders
        )

    def digits_of(self, idx: int):
        out = []
        for p in self.pows:
            out.append(idx // p)
            idx %= p
        return tuple(out)

    def profile_at(self, idx: int):
        return tuple(self.orders[j][d] for j, d in enumerate(self.digits_of(idx)))


@lru_cache(maxsize=None)
def _space(n: int, reduced: bool, moved=None) -> _ProfileSpace:
    return _ProfileSpace(n, reduced, moved)


@lru_cache(maxsize=None)
def _perm_codes(n: int):
    perms = tuple(itertools.permutations(range(1, n + 1)))
    return perms, {p: c for c, p in enumerate(perms)}


# -- mechanism runners --------------------------------------------------------


def as_mechanism_id(mechanism) -> MechanismId:
    if isinstance(mechanism, MechanismId):
        return mechanism
    if isinstance(mechanism, str):
        return MechanismId(mechanism)
    raise MalformedProblem(f"not a mechanism: {mechanism!r}")


class _Runner:
    """A mechanism's core bound to everything but the orders, for sweep
    speed; calling it returns the outcome."""

    def __init__(self, mid: MechanismId, n: int, partition=None, priority=None):
        entry = mechanism_entry(mid.tag)
        self.mid = mid
        self.n = n
        self.priority = tuple(priority) if priority else tuple(range(1, n + 1))
        if partition is None and entry.partition:
            partition = canonical_partition(n)
        self.partition = partition  # also read by eap checks on any mechanism
        self.in_problem = entry.partition  # witness problems carry the partition
        self.reduced = entry.reduced
        self.core = entry.bind(mid, n, self.priority, partition)

    def __call__(self, orders) -> tuple[int, ...]:
        return self.core(orders)[0]

    def label(self) -> str:
        return str(self.mid)

    def problem_dict(self, orders) -> dict:
        partition = self.partition if self.in_problem else None
        return problem_to_dict(Problem(PreferenceProfile(orders), self.priority, partition))


def _code_map(perms, f):
    """Byte translation table taking each permutation code c to f(perms[c])."""
    return bytes(map(f, perms)).ljust(256, b"\0")


def _digit_runs(space: _ProfileSpace, j: int, d: int, size=None):
    """(start, step, count) runs that together cover the profiles below
    ``size`` (the whole space by default) whose division j+1 reports its
    order number d, as few runs as possible."""
    p = space.pows[j]
    block = p * space.radix
    blocks = (size or space.size) // block
    if blocks <= p:
        return [(b * block + d * p, 1, p) for b in range(blocks)]
    return [(d * p + lo, block, blocks) for lo in range(p)]


def _gather(data, runs, shift=0):
    """The bytes of ``data`` at the profiles of ``runs``, each moved by
    ``shift``, joined in run order: one lane per profile."""
    return b"".join(data[s + shift : s + shift + step * count : step] for s, step, count in runs)


def _first_lane(flags, runs, best):
    """Smallest profile below ``best`` whose lane of ``flags``, laid out as
    ``_gather`` lays out ``runs``, is not zero; else ``best``."""
    off = 0
    for start, step, count in runs:
        k = count - len(flags[off : off + count].lstrip(b"\0"))
        best = min(best, start + k * step) if k < count else best
        off += count
    return best


@lru_cache(maxsize=None)
def _menu_tops(space: _ProfileSpace):
    """tops[j][a]: byte table from a menu mask (bit w-1 for worker w) to the
    bit of its top worker under division j+1's order number a."""

    def top(order):
        bits = [1 << (w - 1) for w in order]
        return bytes(next((b for b in bits if b & m), 0) for m in range(1 << space.n)).ljust(256, b"\0")

    return tuple(tuple(map(top, orders)) for orders in space.orders)


def _sp_menu_scan(space: _ProfileSpace, table) -> int | None:
    """Smallest base profile at which a division could gain by misreporting,
    or None.

    With the other divisions' digits fixed (a stem), a division's menu is the
    set of workers it receives over all its reports.  It cannot gain by a
    misreport iff each report receives the top of the menu under that report
    (the taxation principle).  Report a's column, gathered over a's digit
    runs, has one lane per stem of one-hot received workers: OR-ed as ints
    the columns give every stem's menu mask (a byte for n <= 8), and one
    bytes comparison per report, of its column with the masks translated
    to their tops, settles every stem of the division.
    """
    perms, _ = _perm_codes(space.n)
    size, lanes = space.size, space.size // space.radix
    best = size
    for j, tops in enumerate(_menu_tops(space)):
        received = table.translate(_code_map(perms, lambda m: 1 << (m[j] - 1)))
        runs = [_digit_runs(space, j, a) for a in range(space.radix)]
        menus = 0
        for r in runs:
            menus |= int.from_bytes(_gather(received, r), "big")
        menus = menus.to_bytes(lanes, "big")
        for r, top in zip(runs, tops):
            col, top = _gather(received, r), menus.translate(top)
            if col != top:
                miss = int.from_bytes(col, "big") ^ int.from_bytes(top, "big")
                best = _first_lane(miss.to_bytes(lanes, "big"), r, best)
    return best if best < size else None


def _ri_step_scan(space: _ProfileSpace, table) -> int | None:
    """Smallest base profile at which one adjacent raise of some worker i in
    another division's order leaves division i strictly worse off, or None.

    Every improvement for i is a chain of adjacent raises that never touches
    i's own order, so along the chain i's rank telescopes: i loses by some
    improvement iff it loses by a single step.  The smallest step base can
    come after the smallest pairwise base; callers rescan up to it.  i's
    ranks at a digit's bases and at their raised profiles are gathered into
    one lane each; with bit 0x80 set in every base lane, one int subtraction
    borrows across no lane (ranks are below 128) and clears a lane's high
    bit exactly where the raise left i worse off.
    """
    perms, _ = _perm_codes(space.n)
    n, size = space.n, space.size
    lanes = size // space.radix
    high = int.from_bytes(b"\x80" * lanes, "big")
    best = size
    for i in range(n):
        # rank, in division i+1's own order, of the worker it receives
        rank = bytearray(size)
        for d, rk in enumerate(space.rank_maps[i]):
            trans = _code_map(perms, lambda m, rk=rk: rk[m[i]])
            for start, step, count in _digit_runs(space, i, d):
                sl = slice(start, start + step * count, step)
                rank[sl] = table[sl].translate(trans)
        for j, col in enumerate(_pairwise_raises(space)[i]):
            for d, deltas in enumerate(col):
                if deltas:  # empty if worker i+1 is first already, or j is i itself
                    runs = _digit_runs(space, j, d)  # deltas[-1]: the adjacent raise
                    here = int.from_bytes(_gather(rank, runs), "big") | high
                    kept = here - int.from_bytes(_gather(rank, runs, deltas[-1]), "big") & high
                    if kept != high:
                        best = _first_lane((kept ^ high).to_bytes(lanes, "big"), runs, best)
    return best if best < size else None


# -- exhaustive sweep internals ----------------------------------------------


def _pairwise_scan(space: _ProfileSpace, table, lo, hi, deviants, beats):
    """Scan base profiles in [lo, hi) for a deviation that leaves its
    division worse off.  ``deviants(idx, digits, j)`` lists the profiles
    division j+1 deviates to from base idx, in order, and ``beats(deviant
    rank, base rank)`` is True on a violation, ranks taken in that
    division's order at the base.  Returns (profiles_scanned, comparisons,
    (base, division, deviant index) or None); stops at the first violation,
    which is minimal in (base index, division, deviant)."""
    perms, _ = _perm_codes(space.n)
    rank_maps = space.rank_maps
    comparisons = 0
    for idx in range(lo, hi):
        digits = space.digits_of(idx)
        out = perms[table[idx]]
        for j in range(space.n):  # division j+1
            rk = rank_maps[j][digits[j]]
            got = rk[out[j]]
            for other in deviants(idx, digits, j):
                comparisons += 1
                if beats(rk[perms[table[other]][j]], got):
                    return idx - lo + 1, comparisons, (idx, j + 1, other)
    return hi - lo, comparisons, None


def _sp_scan(space: _ProfileSpace, table, lo, hi):
    """The pairwise scan for a profitable misreport: a division deviates to
    each of its other reports, all else fixed."""
    pows, radix = space.pows, space.radix

    def misreports(idx, digits, j):
        stem = idx - digits[j] * pows[j]
        return [stem + alt * pows[j] for alt in range(radix) if alt != digits[j]]

    return _pairwise_scan(space, table, lo, hi, misreports, operator.lt)


def _ri_scan(space: _ProfileSpace, table, lo, hi):
    """The pairwise scan for an improvement that hurts its subject: the
    other divisions deviate to every combination of raises of the subject's
    worker, the identity left out."""
    raises = _pairwise_raises(space)

    def improvements(idx, digits, j):
        idxs = [idx]  # partial sums over the divisions' raise options
        for col, d in zip(raises[j], digits):
            if col[d]:
                idxs = [ix + delta for ix in idxs for delta in (0, *col[d])]
        return idxs[1:]

    return _pairwise_scan(space, table, lo, hi, improvements, operator.gt)


@lru_cache(maxsize=None)
def _order_classes(space: _ProfileSpace, tag: str, partition):
    """The classes of each division's orders that the mechanism cannot tell
    apart: orders whose registry ``reads`` keys are equal, or one class per
    order for a mechanism without that field.  Returns (cls, reps, boxes,
    weights).  cls[j][d] is the class of division j+1's order number d and
    reps[j][c] the first order of class c, so each reps[j] is sorted.

    The class table numbers class profiles as the space numbers profiles, by
    their class digits, and ``_widen`` turns its entries into one byte per
    profile through cls.  weights[j] is the table offset of one class of
    division j+1, the product of the later divisions' class counts.
    boxes[j][c][w] is the run (length, start, step) of table offsets of
    division j+1's digit over the classes whose representative agrees with
    reps[j][c] down to worker w: sorted representatives that share a prefix
    are consecutive.  boxes[j][c] is indexed by worker, so entry 0 is None.
    Each division's part comes from ``_division_classes``, so spaces that
    give a division the same orders share it."""
    parts, wt = [], 1
    for i in range(space.n, 0, -1):
        cls, reps, rows = _division_classes(i, space.orders[i - 1], tag, partition, wt)
        parts.append((cls, reps, rows, wt))
        wt *= len(reps)
    return tuple(zip(*reversed(parts)))


@lru_cache(maxsize=None)
def _division_classes(i, orders, tag, partition, wt):
    """Division i's (cls, reps, box rows) over ``orders`` for
    ``_order_classes``, one class weighing ``wt`` in a table entry."""
    reads = mechanism_entry(tag).reads
    keys = [o if reads is None else reads(i, o, partition) for o in orders]
    first = {}  # key -> the first order that has it
    for key, o in zip(keys, orders):
        first.setdefault(key, o)
    number = {key: c for c, key in enumerate(first)}
    reps = tuple(first.values())
    span = {}  # prefix -> (first class, last class + 1) that has it
    for c, r in enumerate(reps):
        for k in range(1, len(r) + 1):
            span[r[:k]] = (span.get(r[:k], (c,))[0], c + 1)
    rows = []
    for r in reps:
        row = [None] * (len(r) + 1)  # indexed by worker
        for k, w in enumerate(r):
            lo, hi = span[r[: k + 1]]
            row[w] = (hi - lo, lo * wt, wt)
        rows.append(tuple(row))
    return tuple(map(number.__getitem__, keys)), reps, tuple(rows)


class _ClassTable:
    """The outcome codes of a profile space, one byte per profile of the
    ``_order_classes`` representatives (0xFF when unfilled), filled by
    outcome boxes as they are read: ``table[idx]`` is profile idx's code.
    offsets[j][d] is the share of division j+1's order number d in an entry.

    An entry splits into a head, the class digits of divisions 1 and 2, and
    a tail, those of divisions 3..n: entry pos is hi * len(tail) + lo.
    head[hi] and tail[lo] are the representatives' orders, and head_boxes[hi]
    and tail_boxes[lo] their ``_order_classes`` box rows, so a core run costs
    one divmod to decode and one lookup per half for its boxes.  ``at``
    holds the head and tail entry offsets of a profile's order digits, split
    as blocks split the space: block b's head entry is at[0][b].

    A table serves one check (the own-position check keeps one more per
    moved space), which hands it to its scans as an argument, and holds
    what the check needs of it: the decode tables and offsets, built with
    the table, ``at``, built on first read, and in ``wide`` each block of
    head entries once widened."""

    def __init__(self, runner: _Runner, space: _ProfileSpace):
        self.runner, self.space = runner, space
        classes = _order_classes(space, runner.mid.tag, runner.partition)
        self.cls, self.reps, self.boxes, self.weights = classes
        self.offsets = [[c * wt for c in cs] for cs, wt in zip(self.cls, self.weights)]
        h = min(2, space.n)
        self.head, self.tail, self.head_boxes, self.tail_boxes = (
            tuple(itertools.product(*parts)) for parts in (
                self.reps[:h], self.reps[h:], self.boxes[:h], self.boxes[h:]
            )
        )
        self.codes = bytearray(b"\xff") * (len(self.head) * len(self.tail))
        self.wide = {}  # head entry -> its block, widened

    @cached_property
    def at(self):
        h = min(2, self.space.n)
        return tuple(
            tuple(map(sum, itertools.product(*parts))) for parts in (self.offsets[:h], self.offsets[h:])
        )

    def __getitem__(self, idx):
        heads, tails = self.at
        hi, lo = divmod(idx, self.space.block)
        e = heads[hi] + tails[lo]
        if self.codes[e] == 0xFF:
            self.fill(e, e + 1)
        return self.codes[e]

    def blocks(self, lo, hi):
        """The codes of blocks [lo, hi), blocks being the profiles that share
        their first two orders, all of one order of division 1: each block's
        head entries filled and widened once per table."""
        wide, width, starts = self.wide, len(self.tail), self.at[0][lo:hi]
        for start in starts:
            if start not in wide:
                self.fill(start, start + width)
                wide[start] = _widen(self.codes[start : start + width], self.cls[2:])
        return b"".join(map(wide.__getitem__, starts))

    def fill(self, pos, end):
        """Fill the unfilled entries in [pos, end).

        Let m be the outcome of a profile.  Every profile whose orders agree
        with it, division by division, down to the worker m gives that
        division gets m too: the equal-prefix case of Maskin monotonicity
        (Takamiya, "Coalition strategy-proofness and monotonicity in
        Shapley-Scarf housing markets", Math. Soc. Sci. 2001).  It is checked
        per mechanism, not derived, and tsd fails it once a group holds three
        divisions.  So the representatives of the first unfilled entry run
        the core once, and its code goes over the entry's whole box, a
        product of class runs (length, start, step) written as one strided
        slice along the longest run per entry of the others.  Boxes of one
        outcome are equal or disjoint, so a box that meets a filled entry
        meets another outcome: the fold fails for this mechanism, and the
        fill raises rather than let a sweep read a wrong table."""
        table, head, tail = self.codes, self.head, self.tail
        head_boxes, tail_boxes, width = self.head_boxes, self.tail_boxes, len(tail)
        code = _perm_codes(self.space.n)[1]
        while (pos := table.find(0xFF, pos, end)) >= 0:
            hi, lo = divmod(pos, width)
            m = self.runner(head[hi] + tail[lo])
            runs = list(map(tuple.__getitem__, head_boxes[hi] + tail_boxes[lo], m))
            length, start, step = long = max(runs)
            if length == 1:  # the box is the run's own entry
                table[pos] = code[m]
                continue
            runs.remove(long)  # equal runs hold the same offsets: either may go
            starts = [0]
            for k, first, st in runs:
                if k == 1:
                    start += first
                else:
                    starts = [s + t for s in starts for t in range(first, first + k * st, st)]
            span, blank, fill = length * step, b"\xff" * length, bytes((code[m],)) * length
            for s in starts:
                s += start
                run = slice(s, s + span, step)
                if table[run] != blank:
                    raise RuntimeError(
                        f"outcome-prefix fold fails for {self.runner.label()}: the box of "
                        f"profile {head[hi] + tail[lo]}, outcome {m}, meets another outcome"
                    )
                table[run] = fill


def _widen(data, classes):
    """A table over class digits widened to one over order digits.

    ``data`` numbers class profiles by their digits, as a space numbers
    profiles, with max(classes[j]) + 1 classes along axis j; classes[j][d] is
    the class of axis j's order number d.  Each axis in turn gets one slice
    copy per (order, run of the digits on either side of it), the side with
    fewer runs, and is skipped if its classes are its orders."""
    for j, cs in enumerate(classes):
        if cs == tuple(range(len(cs))):
            continue
        width, radix = max(cs) + 1, len(cs)
        after = math.prod(max(c) + 1 for c in classes[j + 1 :])
        before = len(data) // (width * after)
        wide = bytearray(before * radix * after)
        if before <= after:  # contiguous runs of the digits after axis j
            for a in range(before):
                src, dst = a * width * after, a * radix * after
                for d, c in enumerate(cs):
                    wide[dst + d * after : dst + (d + 1) * after] = data[src + c * after : src + (c + 1) * after]
        else:  # strided runs of the digits before it, one per digit after it
            for lo in range(after):
                for d, c in enumerate(cs):
                    wide[d * after + lo :: radix * after] = data[c * after + lo :: width * after]
        data = wide
    return data


def _outcome_table(table: _ClassTable) -> bytearray:
    """Fill a class table and widen it into one byte per profile of its
    space (there are fewer than 256 codes for n <= 5)."""
    table.fill(0, len(table.codes))
    return _widen(table.codes, table.cls)


def _outcome_scan(table: _ClassTable, first, fault, size):
    """Run the mechanism on blocks [0, size) of profiles, a block being the
    ``space.block`` consecutive profiles that share their first two orders,
    and hand the outcome codes of each run of blocks to the sweep's kernel:
    ``first(codes, b)`` returns the offset, in the run starting at block b,
    of its first faulting profile or None.

    Runs hold 1, 1, 2, 4, ... blocks, each as many as all before it, and
    end at the end of an order of division 1, so every block of a run
    shares that order.  The codes come from the sweep's class ``table``
    (``_ClassTable.blocks``), so a check that faults early pays for little
    of the table.  The scan stops at the first faulting run:
    ``fault(runner, orders, out)`` gives the witness from a run of the
    faulting profile itself, and the scan raises if it finds none there.
    Returns (profiles_run, None, (index, witness) or None)."""
    space, runner = table.space, table.runner
    per = space.pows[0] // space.block  # blocks per order of division 1
    b = 0
    while b < size:
        end = min(size, b + max(1, b), (b // per + 1) * per)
        k = first(table.blocks(b, end), b)
        if k is not None:
            idx = b * space.block + k
            orders = space.profile_at(idx)
            wit = fault(runner, orders, runner(orders))
            if wit is None:
                raise RuntimeError(
                    f"a fold fails for {runner.label()}: the sweep's kernel flags profile "
                    f"{orders}, which direct runs clear"
                )
            return idx + 1, None, (idx, wit)
        b = end
    return size * space.block, None, None


def _block_kernel(space: _ProfileSpace, outside, allowed):
    """The kernel of an outcome-class check, for ``_outcome_scan``.

    The class is ``outside``, a predicate on outcomes outside it (or None),
    and ``allowed``, the edge filter ``_dominated`` takes (False for no cycle
    test).  The code maps are built once here: whether an outcome lies
    outside, and per division j and order number d the envy mask of division
    j+1 (bit k set when it strictly prefers division k+1's worker to its own
    and may take it).  The returned ``first(codes, b)`` takes the outcome
    codes of a run of blocks from block b on, all of one order of division
    1, and translates them to one envy column per division: division 1's in
    one translation, division 2's block by block, and those of divisions 3
    on along their ``_digit_runs`` over the run.  It reads each column as an
    int, one byte per profile, and peels every profile's envy graph at once
    as ``_dominated`` peels one.  It returns the offset of the run's first
    profile that lies outside the class or keeps a cycle, or None.  Codes
    and masks fit a byte for n <= 5.  Its int masks and slices are kept for
    the latest run length only.
    """
    n, block = space.n, space.block
    perms, _ = _perm_codes(n)
    out_map = None if outside is None else _code_map(perms, outside)

    def mask(j, order, m):
        bits = 0
        for w in order[: order.index(m[j])]:
            if allowed is None or allowed(j + 1, w):
                bits |= 1 << m.index(w)
        return bits

    envy = [
        [_code_map(perms, lambda m, j=j, o=o: mask(j, o, m)) for o in orders]
        for j, orders in enumerate(space.orders)
    ] if allowed is not False else []
    @lru_cache(maxsize=1)
    def tables(size):
        # a run length's masks and the (code map, slice) pairs of divisions 3..
        ones = int.from_bytes(b"\1" * size, "little")
        inner = [
            [
                (trans, slice(a, a + step * count, step))
                for d, trans in enumerate(envy[j])
                for a, step, count in _digit_runs(space, j, d, size)
            ]
            for j in range(2, n)
        ]
        return 0x7F * ones, 0x80 * ones, ((1 << n) - 1) * ones, inner

    def first(codes, b):
        bad = 0 if out_map is None else int.from_bytes(codes.translate(out_map), "little")
        if envy:
            size = len(codes)
            low, high, everyone, inner = tables(size)
            head = space.digits_of(b * block)[:2]  # one digit at n=1
            cols = [codes.translate(envy[0][head[0]])]
            if n > 1:  # division 2's order number goes up by one a block
                cols.append(b"".join(
                    codes[k : k + block].translate(envy[1][head[1] + i])
                    for i, k in enumerate(range(0, size, block))
                ))
            for runs in inner:
                col = bytearray(size)
                for trans, sl in runs:
                    col[sl] = codes[sl].translate(trans)
                cols.append(col)
            cols = [int.from_bytes(c, "little") for c in cols]
            live = everyone
            while live:  # bit i of a byte: division i+1 is live at that profile
                keep = 0
                for i, e in enumerate(cols):
                    e &= live  # the edges into live divisions; where any is
                    # left, bit 7 of that byte moves down to bit i
                    keep |= (((e & low) + low | e) & high) >> (7 - i)
                if keep == live:
                    break
                live = keep
            bad |= live
        return ((bad & -bad).bit_length() - 1) >> 3 if bad else None

    return first


def _own_position_kernel(space: _ProfileSpace, runner: _Runner):
    """The kernel of the own-position check, for ``_outcome_scan`` over the
    reduced space.

    A base profile's moved profiles, one division's own worker moved to
    another position, are the profiles at the base's own index in the
    n(n-1) moved spaces ``_space(n, True, (j, q))``.  Each has its own class
    table, filled one unfilled entry at a time as a base reads it, base by
    base, then division by division and position by position.  A moved
    space fixes every own worker's position, so no box of its table holds a
    profile with an own worker elsewhere, its base among them: a moved
    profile's outcome comes from a run that ranks the own workers as it
    does, and the check does not assume the invariance it tests.  The
    returned ``first(codes, b)`` takes the codes of a run of blocks from
    block b on and gives the offset of the run's first base with a moved
    profile of another outcome, or None.
    """
    n, block = space.n, space.block
    tables = [_ClassTable(runner, _space(n, True, (j, q))) for j in range(n) for q in range(n - 1)]
    reads = [(*t.at, t.codes, t.fill) for t in tables]

    def first(codes, b):
        for k, code in enumerate(codes):
            hi, lo = divmod(b * block + k, block)
            for heads, tails, entries, fill in reads:
                e = heads[hi] + tails[lo]
                if entries[e] == 0xFF:
                    fill(e, e + 1)
                if entries[e] != code:
                    return k
        return None

    return first


def _run_ranged(scan, size, jobs, *args):
    """Run ``scan(*args, size)`` over units [0, size) in this process,
    whatever ``jobs``, and return its (scanned, comparisons, violation).
    perfbench/tracer.py wraps this boundary and reads ``jobs`` as its third
    argument."""
    return scan(*args, size)


def __getattr__(name):
    # Nothing in src/ uses ProcessPoolExecutor.  The name stays resolvable,
    # imported only when asked for, for perfbench/tracer.py, which wraps it,
    # until a benchmark change re-points the tracer (ROADMAP item 9).
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- public checks ------------------------------------------------------------


@lru_cache(maxsize=None)
def _shuffle_steps(size):
    """(s, k) per step of ``random.Random.shuffle`` on ``size`` items: item s
    swaps with item ``getrandbits(k)``, k = (s+1).bit_length(), drawn again
    while above s, as ``_randbelow(s + 1)`` draws it."""
    return tuple((s, (s + 1).bit_length()) for s in range(size - 1, 0, -1))


def _sample_row(rng, n, i, reduced):
    """Division i's order as ``rng.shuffle`` of its pool draws it."""
    row = [w for w in range(1, n + 1) if w != i] if reduced else list(range(1, n + 1))
    bits = rng.getrandbits
    for s, k in _shuffle_steps(len(row)):
        while (j := bits(k)) > s:
            pass
        row[s], row[j] = row[j], row[s]
    if reduced:
        row.append(i)
    return tuple(row)


def _skip_rows(rng, n, rows, reduced):
    """Draw the words of ``rows`` rows of ``_sample_row`` without building them."""
    bits = rng.getrandbits
    steps = _shuffle_steps(n - 1 if reduced else n)
    for _ in range(rows):
        for s, k in steps:
            while bits(k) > s:
                pass


def _sample_orders(rng, n, reduced):
    return tuple(_sample_row(rng, n, i, reduced) for i in range(1, n + 1))


def _sp_draw(rng, orders, i, reduced):
    """Division i's row of a fresh ``_sample_orders`` draw in place of its
    report; the words of the other rows are drawn and dropped."""
    n = len(orders)
    _skip_rows(rng, n, i - 1, reduced)
    row = _sample_row(rng, n, i, reduced)
    _skip_rows(rng, n, n - i, reduced)
    return orders[: i - 1] + (row,) + orders[i:]


def _ri_draw(rng, orders, i, reduced):
    """Every other row with worker i raised to a uniform position q at or
    above its own, q drawn as ``rng.choice(_raised_orders(o, i))`` draws it."""
    out = []
    for j, o in enumerate(orders, start=1):
        if j != i:
            pos = o.index(i)
            k = (pos + 1).bit_length()
            while (q := rng.getrandbits(k)) > pos:
                pass
            if q < pos:
                o = o[:q] + (i,) + o[q:pos] + o[pos + 1 :]
        out.append(o)
    return tuple(out)


def _check(prop, mechanism, n, scope, partition, priority, jobs, sampled, sweep):
    """The path every check runs through: test ``jobs``, ``n`` and the
    bound arguments, resolve the scope, test the size cap, bind the runner,
    run ``sampled(runner, scope)`` or ``sweep(runner)``, and report.  Both
    return (holds, checked, comparisons, witness).  ``jobs`` must be an int
    >= 1 and changes nothing: every check runs in the calling process."""
    t0 = time.perf_counter()
    for name, value in (("jobs", jobs), ("n", n)):
        if not _is_int(value):
            raise MalformedProblem(f"{name} must be an integer, got {value!r}")
    if jobs < 1:
        raise MalformedProblem(f"jobs must be >= 1, got {jobs}")
    if n < 1:
        raise MalformedProblem(f"checks need n >= 1 divisions, got {n}")
    if n > sys.maxsize:
        raise MalformedProblem(f"checks need n <= {sys.maxsize} divisions, got {n}")
    if priority is not None:
        _check_permutation(priority, n, "priority")
    if partition is not None and partition.n != n:
        raise MalformedProblem(f"the partition is of n={partition.n} divisions, not n={n}")
    mid = as_mechanism_id(mechanism)
    if scope is None:
        scope = Scope("exhaustive", n)
    elif scope.n != n:
        raise MalformedProblem("scope.n must match n")
    if scope.kind == "exhaustive" and n > _EXHAUSTIVE_MAX_N:
        raise EnumerationBoundExceeded(f"exhaustive sweeps are capped at n={_EXHAUSTIVE_MAX_N}")
    runner = _Runner(mid, n, partition, priority)
    result = sampled(runner, scope) if scope.kind == "sampled" else sweep(runner)
    return PropertyReport(prop, runner.label(), scope, *result, time.perf_counter() - t0)


def _deviation_check(prop, mechanism, n, scope, partition, priority, jobs, *,
                     draw, beats, word, show, scan, fast, exact, holding):
    """A check that division i ends up no worse off (by its own rank order)
    when the profile deviates for it.

    The property is data: ``draw(rng, orders, i, reduced)`` samples a
    deviant profile; ``beats(deviant rank, base rank)`` is True on a
    violation; the witness names the deviation ``word`` and shows it as
    ``show(runner, deviant, i)``.  When exhaustive, ``scan(space, table, lo,
    hi)`` is the pairwise scan over base profiles, ``fast(space, table)``
    the first failing base (``exact``) or a base at or after it, and
    ``holding(space)`` what the pairwise scan compares when nothing fails.
    The probe, the fill and the scans share one class table.
    """

    def witness(runner, orders, deviant, i, out, out2):
        return {
            "kind": prop,
            "mechanism": runner.mid.to_dict(),
            "division": i,
            "problem": runner.problem_dict(orders),
            **show(runner, deviant, i),
            "outcome": list(out),
            f"{word}_outcome": list(out2),
            "received": out[i - 1],
            f"{word}_received": out2[i - 1],
        }

    def sampled(runner, scope):
        rng = random.Random(scope.seed)
        comparisons = 0
        for k in range(scope.count):
            orders = _sample_orders(rng, n, runner.reduced)
            out = runner(orders)
            for i, order in enumerate(orders, start=1):
                deviant = draw(rng, orders, i, runner.reduced)
                if deviant == orders:
                    continue
                comparisons += 1
                out2 = runner(deviant)
                if beats(order.index(out2[i - 1]), order.index(out[i - 1])):
                    return False, k + 1, None, witness(runner, orders, deviant, i, out, out2)
        return True, scope.count, comparisons, None

    def sweep(runner):
        space = _space(n, runner.reduced)
        table = _ClassTable(runner, space)
        _, _, vio = scan(space, table, 0, space.radix)
        if vio is None:
            codes = _outcome_table(table)
            first = fast(space, codes)
            if first is None:
                return True, space.size, holding(space), None
            _, _, vio = scan(space, codes, first if exact else space.radix, first + 1)
        idx, i, other = vio
        orders, deviant = space.profile_at(idx), space.profile_at(other)
        return False, idx + 1, None, witness(
            runner, orders, deviant, i, runner(orders), runner(deviant)
        )

    return _check(prop, mechanism, n, scope, partition, priority, jobs, sampled, sweep)


def check_sp(mechanism, n, scope=None, *, partition=None, priority=None, jobs=1):
    """No division can gain by misreporting its order, all else fixed."""
    return _deviation_check(
        "sp", mechanism, n, scope, partition, priority, jobs,
        draw=_sp_draw,
        beats=operator.lt,
        word="misreport",
        show=lambda runner, deviant, i: {"misreport": list(deviant[i - 1])},
        scan=_sp_scan,
        fast=_sp_menu_scan,
        exact=True,
        holding=lambda space: space.size * space.n * (space.radix - 1),
    )


def check_ri(mechanism, n, scope=None, *, partition=None, priority=None, jobs=1):
    """A division never loses when other divisions rank its worker higher."""
    return _deviation_check(
        "ri", mechanism, n, scope, partition, priority, jobs,
        draw=_ri_draw,
        beats=operator.gt,
        word="improved",
        show=lambda runner, deviant, i: {"improved_problem": runner.problem_dict(deviant)},
        scan=_ri_scan,
        fast=_ri_step_scan,
        exact=False,
        # every combination of raises per (base, subject), the identity excluded
        holding=lambda space: sum(
            math.prod(sum(1 + len(r) for r in col) for col in per_div)
            for per_div in _pairwise_raises(space)
        ) - space.n * space.size,
    )


@lru_cache(maxsize=None)
def _pairwise_raises(space: _ProfileSpace):
    """raises[i-1][j][digit]: index deltas that weakly raise worker i in
    division j+1's order, identity excluded, the adjacent raise last.  The
    raised worker is never the row's owner, so an own-last row stays one."""
    raises = []
    for i in range(1, space.n + 1):
        per_div = []
        for j in range(space.n):
            col = []
            for digit, order in enumerate(space.orders[j]):
                if j == i - 1:
                    col.append(())
                    continue
                deltas = []
                for alt_order in _raised_orders(order, i):
                    alt = space.order_index[j][alt_order]
                    if alt != digit:
                        deltas.append((alt - digit) * space.pows[j])
                col.append(tuple(deltas))
            per_div.append(col)
        raises.append(per_div)
    return raises


def _profile_check(prop, fault, mechanism, n, scope, partition, priority, jobs, spaces=None):
    """A check of a property each profile has or lacks on its own.

    ``fault(runner, orders, out)`` returns a witness or None.  One loop
    serves every such property when sampled, and one sweep when exhaustive:
    ``_outcome_scan`` over the space's blocks through ``_run_ranged``, with
    the ``_block_kernel`` of the property's class for those in ``_CLASSES``
    and ``_own_position_kernel`` for own-position.  Both cover the
    mechanism's own space unless ``spaces`` gives (sampled reduced, swept
    reduced).
    """

    def sampled(runner, scope):
        reduced = runner.reduced if spaces is None else spaces[0]
        rng = random.Random(scope.seed)
        for k in range(scope.count):
            orders = _sample_orders(rng, n, reduced)
            wit = fault(runner, orders, runner(orders))
            if wit is not None:
                return False, k + 1, None, wit
        return True, scope.count, None, None

    def sweep(runner):
        space = _space(n, runner.reduced if spaces is None else spaces[1])
        if prop in _CLASSES:
            first = _block_kernel(space, *_CLASSES[prop](runner.partition))
        else:
            first = _own_position_kernel(space, runner)
        table = _ClassTable(runner, space)
        _, _, vio = _run_ranged(_outcome_scan, space.size // space.block, jobs, table, first, fault)
        if vio is None:
            return True, space.size, None, None
        return False, vio[0] + 1, None, vio[1]

    return _check(prop, mechanism, n, scope, partition, priority, jobs, sampled, sweep)


def _outcome_witness(prop, runner, orders, out, **extra):
    return {
        "kind": prop,
        "mechanism": runner.mid.to_dict(),
        "problem": runner.problem_dict(orders),
        "outcome": list(out),
        **extra,
    }


def _ce_fault(runner, orders, out):
    if ORACLES["ce"](orders, out, None):
        return None
    fixed = [i for i, w in enumerate(out, start=1) if w == i]
    return _outcome_witness("ce", runner, orders, out, fixed_points=fixed)


def _cee_fault(runner, orders, out):
    if ORACLES["ce"](orders, out, None) and ORACLES["cee"](orders, out, None):
        return None
    d = _first_dominating_derangement(orders, out)
    return _outcome_witness("cee", runner, orders, out, dominating=[] if d is None else [list(d)])


def _eap_fault(runner, orders, out):
    if ORACLES["eap"](orders, out, runner.partition):
        return None
    return _outcome_witness("eap", runner, orders, out, partition=runner.partition.to_list())


def _pareto_fault(runner, orders, out):
    if ORACLES["pareto"](orders, out, None):
        return None
    return _outcome_witness("pareto", runner, orders, out)


# The outcome class of each block-swept property, from the partition:
# (a predicate on outcomes outside the class or None, the edge filter
# _dominated takes or False for no cycle test).  Each agrees with its fault.
_CLASSES = {
    "ce": lambda partition: (lambda m: not is_derangement(m), False),
    "cee": lambda partition: (lambda m: not is_derangement(m), operator.ne),
    "eap": lambda partition: (lambda m: not eap_feasible(partition, m), _pools(partition)),
    "pareto": lambda partition: (None, None),
}


def _own_position_fault(runner, orders, out):
    n = len(orders)
    for i in range(1, n + 1):
        head = tuple(w for w in orders[i - 1] if w != i)
        for q in range(n):
            var = head[:q] + (i,) + head[q:]
            if var == orders[i - 1]:
                continue
            moved = orders[: i - 1] + (var,) + orders[i:]
            moved_out = runner(moved)
            if moved_out != out:
                return {
                    "kind": "own-position",
                    "mechanism": runner.mid.to_dict(),
                    "division": i,
                    "problem": runner.problem_dict(orders),
                    "moved_problem": runner.problem_dict(moved),
                    "outcome": list(out),
                    "moved_outcome": list(moved_out),
                }
    return None


def check_ce(mechanism, n, scope=None, *, partition=None, priority=None, jobs=1):
    """Every output is a derangement: nobody keeps their own worker."""
    return _profile_check("ce", _ce_fault, mechanism, n, scope, partition, priority, jobs)


def check_cee(mechanism, n, scope=None, *, partition=None, priority=None, jobs=1):
    """Every output is a derangement no other derangement Pareto-dominates."""
    return _profile_check("cee", _cee_fault, mechanism, n, scope, partition, priority, jobs)


def check_eap(mechanism, n, scope=None, *, partition=None, priority=None, jobs=1):
    """Every output is partition-feasible and efficient among feasibles."""
    if partition is None and _is_int(n):  # _check refuses any other n
        partition = canonical_partition(n)
    return _profile_check("eap", _eap_fault, mechanism, n, scope, partition, priority, jobs)


def check_pareto(mechanism, n, scope=None, *, partition=None, priority=None, jobs=1):
    """Every output is Pareto-efficient among all assignments."""
    return _profile_check("pareto", _pareto_fault, mechanism, n, scope, partition, priority, jobs)


def check_own_position_invariance(
    mechanism, n, scope=None, *, partition=None, priority=None, jobs=1
):
    """Moving one division's own worker around its own order never changes
    the outcome.

    Samples draw full profiles and run every moved profile directly.  The
    exhaustive sweep starts from own-last profiles and reads the outcomes of
    their moved profiles from the class tables of the moved spaces, one per
    division and own position (``_own_position_kernel``), so a moved
    profile's outcome comes from a run that ranks the own workers as it
    does, never from its base; the sweep relies on the ``reads`` and box
    folds within a moved space, which the test suite checks against direct
    runs at every n the sweep allows.  A faulting base's witness is built
    from direct runs.  Either way one division's own worker moves at a
    time, so a pass does not show that own-last sweeps equal full-space
    ones: ``bttc`` passes at n=3 and n=4, yet ((1,2,3),(2,1,3),(3,1,2))
    has another outcome than its own-last form ((2,3,1),(1,3,2),(1,2,3)).
    """
    return _profile_check(
        "own-position", _own_position_fault, mechanism, n, scope, partition, priority, jobs,
        spaces=(False, True),
    )


CHECKS = {
    "sp": check_sp,
    "ri": check_ri,
    "ce": check_ce,
    "cee": check_cee,
    "eap": check_eap,
    "pareto": check_pareto,
    "own-position": check_own_position_invariance,
}


# the fields a witness of each kind carries besides kind, mechanism, problem
# and outcome
_WITNESS_FIELDS = {
    "sp": ("division", "misreport", "misreport_outcome"),
    "ri": ("division", "improved_problem", "improved_outcome"),
    "ce": (),
    "cee": (),
    "eap": ("partition",),
    "pareto": (),
    "own-position": ("moved_problem",),
}


def revalidate_witness(witness: dict) -> bool:
    """Replay a witness through the public mechanism API and confirm it still
    exhibits the claimed violation.  Independent of the sweep fast paths.
    A witness that is not a dict, names no known kind or lacks a field its
    kind reads raises MalformedProblem before any run, and so does one
    whose field has the wrong shape when that field is read."""
    if not isinstance(witness, dict):
        raise MalformedProblem(f"a witness is a dict, got {type(witness).__name__}")
    kind = witness.get("kind")
    if not isinstance(kind, str) or kind not in _WITNESS_FIELDS:
        raise MalformedProblem(f"unknown witness kind {kind!r}")
    missing = [k for k in ("mechanism", "problem", "outcome", *_WITNESS_FIELDS[kind]) if k not in witness]
    if missing:
        raise MalformedProblem(f"the {kind} witness lacks {', '.join(missing)}")
    mid = MechanismId.from_dict(witness["mechanism"])
    problem = problem_from_dict(witness["problem"])

    def ints(key):
        return _int_array(witness[key], f"the witness's {key!r}")

    i = witness.get("division")
    if kind in ("sp", "ri") and not (_is_int(i) and 1 <= i <= problem.n):
        raise MalformedProblem(f"the witness's 'division' must be one of 1..{problem.n}, got {i!r}")
    out = run_mechanism(mid, problem)
    if out.mapping != ints("outcome"):
        return False
    if kind == "sp":
        lied = Problem(
            profile=problem.profile.with_order(i, ints("misreport")),
            priority=problem.priority,
            partition=problem.partition,
            names=problem.names,
        )
        out2 = run_mechanism(mid, lied)
        if out2.mapping != ints("misreport_outcome"):
            return False
        return problem.profile.prefers(i, out2.worker_of(i), out.worker_of(i))
    if kind == "ri":
        improved = problem_from_dict(witness["improved_problem"])
        out2 = run_mechanism(mid, improved)
        if out2.mapping != ints("improved_outcome"):
            return False
        return certify_ri_violation(problem.profile, improved.profile, i, out, out2)
    if kind == "ce":
        return not out.is_derangement()
    if kind == "cee":
        return not out.is_derangement() or not is_ce_efficient(problem.profile, out)
    if kind == "eap":
        return not eap_efficient(problem.profile, partition_from_list(witness["partition"]), out)
    if kind == "pareto":
        return not pareto_efficient(problem.profile, out)
    moved = problem_from_dict(witness["moved_problem"])  # own-position
    return run_mechanism(mid, moved).mapping != out.mapping


# -- universal selection scan -------------------------------------------------


@dataclass
class SelectionScanReport:
    """Result of scanning every single-valued selection from the efficient
    derangement sets for a respect-of-improvements violation."""

    n: int
    profiles: int
    rules: int
    violating_rules: int
    all_violate: bool
    sample_witness: dict | None = None

    def to_dict(self):
        return {
            "n": self.n,
            "profiles": self.profiles,
            "rules": self.rules,
            "violating_rules": self.violating_rules,
            "all_violate": self.all_violate,
            "sample_witness": self.sample_witness,
        }


def scan_ce_efficient_selections(n: int = 3, pinned=None) -> SelectionScanReport:
    """Check that no selection rule picking from the efficient derangement
    set at every profile can respect improvements.

    Profiles are enumerated own-last (a rule restricted to those profiles is
    still a rule, so a violation inside the subspace indicts every rule).
    Every combination of per-profile choices is tried against every
    improvement pair inside the subspace.  ``pinned`` maps profiles (tuples
    of orders) to the assignment every counted rule selects there.
    """
    if not _is_int(n) or n < 1:
        raise MalformedProblem(f"the selection scan needs an integer n >= 1, got {n!r}")
    if n > _SCAN_MAX_N:
        raise EnumerationBoundExceeded(f"selection scan is capped at n={_SCAN_MAX_N}")
    space = _space(n, reduced=True)
    profiles = list(itertools.product(*space.orders))
    pinned = pinned or {}
    sets = [[d for d in cee_set(p) if pinned.get(p, d) == d] for p in profiles]
    index = {p: k for k, p in enumerate(profiles)}

    # improvement pairs staying inside the own-last subspace
    pairs = [  # (base index, improved index, division)
        (k, index[combo], i)
        for k, orders in enumerate(profiles)
        for i in range(1, n + 1)
        for combo in enumerate_improvements(orders, i)
        if combo != orders
    ]

    rules = 0
    violating = 0
    sample = None
    for choice in itertools.product(*sets):
        rules += 1
        hit = None
        for kb, ki, i in pairs:
            base_out, imp_out = choice[kb], choice[ki]
            order = profiles[kb][i - 1]
            if order.index(imp_out[i - 1]) > order.index(base_out[i - 1]):
                hit = (kb, ki, i)
                break
        if hit is not None:
            violating += 1
            if sample is None:
                kb, ki, i = hit
                sample = {
                    "kind": "ri",
                    "division": i,
                    "problem": problem_to_dict(Problem(PreferenceProfile(profiles[kb]))),
                    "improved_problem": problem_to_dict(Problem(PreferenceProfile(profiles[ki]))),
                    "outcome": list(choice[kb]),
                    "improved_outcome": list(choice[ki]),
                }
    return SelectionScanReport(
        n=n,
        profiles=len(profiles),
        rules=rules,
        violating_rules=violating,
        all_violate=violating == rules,
        sample_witness=sample,
    )


# No mechanism can both select from the efficient derangement sets and
# respect improvements at n=3; this alias names the scan after the claim.
universal_impossibility_scan = scan_ce_efficient_selections
