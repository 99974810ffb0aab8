"""Core model: divisions, workers, preferences, assignments, partitions.

Conventions used across the package:

* Divisions and workers are the integers 1..n.  Division i initially holds
  worker i (the owner map is the identity), and an assignment maps divisions
  to workers.
* A preference order lists workers most-preferred first.
* ``mapping[i - 1]`` is the worker assigned to division i; tuples are used
  for anything hashable or frozen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class MalformedProblem(ValueError):
    """Structurally invalid input: bad lengths, non-permutations, bad types."""


class Infeasible(ValueError):
    """No valid assignment partition exists, or a supplied one is invalid."""


class EnumerationBoundExceeded(RuntimeError):
    """An exact enumeration was requested beyond its supported size."""


def _check_permutation(seq, n, what):
    if len(seq) != n or set(seq) != set(range(1, n + 1)):
        raise MalformedProblem(f"{what} must be a permutation of 1..{n}, got {seq!r}")


@dataclass(frozen=True)
class PreferenceProfile:
    """One strict order over all n workers per division.

    ``orders[i - 1]`` is division i's order, most-preferred first.  Every
    order ranks all n workers, including the division's own.
    """

    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.orders:
            raise MalformedProblem("profile must contain at least one order")
        orders = tuple(tuple(o) for o in self.orders)
        object.__setattr__(self, "orders", orders)
        n = len(orders)
        for i, order in enumerate(orders, start=1):
            _check_permutation(order, n, f"preference order of division {i}")

    @property
    def n(self) -> int:
        return len(self.orders)

    def order_of(self, i: int) -> tuple[int, ...]:
        return self.orders[i - 1]

    def rank(self, i: int, w: int) -> int:
        """0-based position of worker w in division i's order (0 = best)."""
        return self.orders[i - 1].index(w)

    def prefers(self, i: int, a: int, b: int) -> bool:
        order = self.orders[i - 1]
        return order.index(a) < order.index(b)

    def weakly_prefers(self, i: int, a: int, b: int) -> bool:
        order = self.orders[i - 1]
        return order.index(a) <= order.index(b)

    def top(self, i: int, pool) -> int:
        """Division i's most preferred worker among ``pool`` (must be nonempty)."""
        return min(pool, key=self.orders[i - 1].index)

    def with_order(self, i: int, order) -> "PreferenceProfile":
        """Copy of the profile with division i's order replaced."""
        orders = list(self.orders)
        orders[i - 1] = tuple(order)
        return PreferenceProfile(tuple(orders))


def complete_partial_profile(rows, n: int | None = None) -> PreferenceProfile:
    """Build a profile from rows that may omit the division's own worker.

    Each row is either a permutation of 1..n or a permutation of the other
    n-1 workers; in the short form the own worker is appended last.  The two
    forms may be mixed across rows.
    """
    rows = [tuple(r) for r in rows]
    if n is None:
        n = len(rows)
    if len(rows) != n:
        raise MalformedProblem(f"expected {n} preference rows, got {len(rows)}")
    orders = []
    for i, row in enumerate(rows, start=1):
        if len(row) == n - 1:
            if set(row) != set(range(1, n + 1)) - {i}:
                raise MalformedProblem(
                    f"short preference row of division {i} must list the other "
                    f"workers exactly once, got {row!r}"
                )
            row = row + (i,)
        orders.append(row)
    return PreferenceProfile(tuple(orders))


def prefers(profile: PreferenceProfile, i: int, a: int, b: int) -> bool:
    """True iff division i strictly prefers worker a to worker b."""
    return profile.prefers(i, a, b)


def weakly_prefers(profile: PreferenceProfile, i: int, a: int, b: int) -> bool:
    return profile.weakly_prefers(i, a, b)


@dataclass(frozen=True)
class Assignment:
    """A bijection from divisions to workers; ``mapping[i - 1]`` goes to i."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(self.mapping)
        object.__setattr__(self, "mapping", mapping)
        _check_permutation(mapping, len(mapping), "assignment")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def worker_of(self, i: int) -> int:
        return self.mapping[i - 1]

    def is_derangement(self) -> bool:
        return is_derangement(self.mapping)

    def items(self):
        """Pairs (division, worker) in division order."""
        return list(enumerate(self.mapping, start=1))


def is_derangement(mapping) -> bool:
    """True iff no division keeps its own worker."""
    if isinstance(mapping, Assignment):
        mapping = mapping.mapping
    return all(w != i for i, w in enumerate(mapping, start=1))


def pareto_dominates(profile: PreferenceProfile, a, b) -> bool:
    """True iff assignment a weakly improves on b for every division, strictly
    for at least one."""
    am = a.mapping if isinstance(a, Assignment) else tuple(a)
    bm = b.mapping if isinstance(b, Assignment) else tuple(b)
    strict = False
    for i in range(1, profile.n + 1):
        ra = profile.rank(i, am[i - 1])
        rb = profile.rank(i, bm[i - 1])
        if ra > rb:
            return False
        if ra < rb:
            strict = True
    return strict


@dataclass(frozen=True)
class PartitionGroup:
    """One block of an assignment partition: who chooses, and from which pool."""

    divisions: tuple[int, ...]
    workers: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "divisions", tuple(sorted(self.divisions)))
        object.__setattr__(self, "workers", tuple(sorted(self.workers)))


@dataclass(frozen=True)
class AssignmentPartition:
    """Blocks (N_k, X_k): divisions N_k choose only from workers X_k.

    Invariants checked on construction: the N_k partition the divisions, the
    X_k partition the same ground set viewed as workers, N_k and X_k are
    disjoint within each block (nobody can pick their own worker), and sizes
    match blockwise so every division gets exactly one worker.
    """

    groups: tuple[PartitionGroup, ...]

    def __post_init__(self):
        groups = tuple(
            g if isinstance(g, PartitionGroup) else PartitionGroup(*g)
            for g in self.groups
        )
        object.__setattr__(self, "groups", groups)
        if len(groups) < 2:
            raise Infeasible("an assignment partition needs at least two groups")
        index = {}  # division -> 0-based group
        for k, g in enumerate(groups):
            index.update(zip(g.divisions, itertools.repeat(k)))
        n = sum(len(g.divisions) for g in groups)
        ground = range(1, n + 1)
        if len(index) != n or not all(map(index.__contains__, ground)):
            raise Infeasible("division sets must partition 1..n")
        workers = set().union(*(g.workers for g in groups))
        if (sum(len(g.workers) for g in groups) != n or len(workers) != n
                or not workers.issuperset(ground)):
            raise Infeasible("worker sets must partition 1..n")
        for k, g in enumerate(groups):
            if len(g.divisions) != len(g.workers):
                raise Infeasible(
                    f"group {k + 1} has {len(g.divisions)} divisions "
                    f"but {len(g.workers)} workers"
                )
            if k in map(index.__getitem__, g.workers):
                overlap = sorted(set(g.divisions) & set(g.workers))
                raise Infeasible(f"group {k + 1} offers divisions their own workers: {overlap}")
        object.__setattr__(self, "_group_of", index)

    @property
    def n(self) -> int:
        return sum(len(g.divisions) for g in self.groups)

    @property
    def k(self) -> int:
        return len(self.groups)

    def group_index_of(self, i: int) -> int:
        """0-based index of the group whose divisions contain i."""
        return self._group_of[i]

    def choice_set(self, i: int) -> tuple[int, ...]:
        return self.groups[self._group_of[i]].workers

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g.divisions) for g in self.groups)

    def to_list(self) -> list[dict]:
        """JSON form: one {"divisions", "workers"} object per group."""
        return [{"divisions": list(g.divisions), "workers": list(g.workers)} for g in self.groups]


@dataclass(frozen=True)
class Problem:
    """A full instance: preferences, priority order, optional partition/names."""

    profile: PreferenceProfile
    priority: tuple[int, ...] = ()
    partition: AssignmentPartition | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.profile.n
        priority = tuple(self.priority) if self.priority else tuple(range(1, n + 1))
        _check_permutation(priority, n, "priority")
        object.__setattr__(self, "priority", priority)
        if self.partition is not None and self.partition.n != n:
            raise Infeasible(
                f"partition covers {self.partition.n} divisions, problem has {n}"
            )
        if self.names is not None:
            names = tuple(str(s) for s in self.names)
            if len(names) != n or len(set(names)) != n or not all(names):
                raise MalformedProblem("names must be n distinct nonempty strings")
            object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.profile.n

    def name_of(self, i: int) -> str:
        return self.names[i - 1] if self.names else str(i)


TRACE_KINDS = (
    "start",
    "owner-call",
    "fallback",
    "last-two",
    "nominate",
    "cycle",
    "stay",
    "trade",
)


@dataclass(frozen=True)
class TraceStep:
    """One event of a mechanism run.

    ``chooser`` is the acting division, ``worker`` the worker it touched
    (selected, nominated, or ended up with), ``kind`` the transition that put
    the division in the acting seat.
    """

    t: int
    chooser: int
    worker: int
    kind: str

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise MalformedProblem(f"unknown trace kind {self.kind!r}")


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        for t, step in enumerate(steps, start=1):
            if step.t != t:
                raise MalformedProblem("trace steps must be numbered 1..n in order")
        choosers = [s.chooser for s in steps]
        workers = [s.worker for s in steps]
        if len(set(choosers)) != len(choosers) or len(set(workers)) != len(workers):
            raise MalformedProblem("trace must touch each division and worker once")

    def kinds(self) -> tuple[str, ...]:
        return tuple(s.kind for s in self.steps)

    def choosers(self) -> tuple[int, ...]:
        return tuple(s.chooser for s in self.steps)

    def workers(self) -> tuple[int, ...]:
        return tuple(s.worker for s in self.steps)


@dataclass(frozen=True)
class FinalOrder:
    """A priority order over divisions together with its per-group restrictions."""

    global_order: tuple[int, ...]
    group_orders: tuple[tuple[int, ...], ...]

    @classmethod
    def from_global(cls, order, partition: AssignmentPartition) -> "FinalOrder":
        order = tuple(order)
        _check_permutation(order, partition.n, "final order")
        by_group = [[] for _ in partition.groups]
        for i in order:
            by_group[partition.group_index_of(i)].append(i)
        return cls(order, tuple(tuple(g) for g in by_group))


@dataclass(frozen=True)
class MechanismId:
    """Identifies a mechanism plus the options that pin down its behavior."""

    tag: str
    mu0: str | tuple[int, ...] | None = None
    order: tuple[int, ...] | None = None
    seed: int | None = None

    def __str__(self):
        opts = []
        if self.mu0 is not None:
            mu0 = self.mu0 if isinstance(self.mu0, str) else ",".join(map(str, self.mu0))
            opts.append(f"mu0={mu0}")
        if self.order is not None:
            opts.append("order=" + ",".join(map(str, self.order)))
        if self.seed is not None:
            opts.append(f"seed={self.seed}")
        return self.tag + (f"[{';'.join(opts)}]" if opts else "")

    def to_dict(self) -> dict:
        d: dict = {"tag": self.tag}
        if self.mu0 is not None:
            d["mu0"] = list(self.mu0) if not isinstance(self.mu0, str) else self.mu0
        if self.order is not None:
            d["order"] = list(self.order)
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @classmethod
    def from_dict(cls, d) -> "MechanismId":
        if not isinstance(d, dict) or not isinstance(d.get("tag"), str):
            raise MalformedProblem(f"a mechanism is an object with a string 'tag', got {d!r}")
        mu0, order, seed = d.get("mu0"), d.get("order"), d.get("seed")
        if seed is not None and not _is_int(seed):
            raise MalformedProblem(f"a mechanism's 'seed' must be an integer, got {seed!r}")
        return cls(
            d["tag"],
            mu0=mu0 if mu0 is None or isinstance(mu0, str) else _int_array(mu0, "'mu0'"),
            order=_int_array(order, "'order'") if order is not None else None,
            seed=seed,
        )


def problem_to_dict(problem: Problem) -> dict:
    """Plain-dict form of a problem, canonical key order, full orders."""
    d: dict = {
        "n": problem.n,
        "preferences": [list(o) for o in problem.profile.orders],
        "priority": list(problem.priority),
    }
    if problem.partition is not None:
        d["partition"] = problem.partition.to_list()
    if problem.names is not None:
        d["names"] = list(problem.names)
    return d


def _is_int(value) -> bool:
    """True for JSON integers; bools are ints to Python but not to JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_array(value, what) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not all(map(_is_int, value)):
        raise MalformedProblem(f"{what} must be an array of integers")
    return tuple(value)


def partition_from_list(raw) -> AssignmentPartition:
    """Build a partition from its JSON form, ``AssignmentPartition.to_list``'s."""
    if not isinstance(raw, list):
        raise MalformedProblem("'partition' must be an array of groups")
    groups = []
    for g in raw:
        if not isinstance(g, dict) or set(g) != {"divisions", "workers"}:
            raise MalformedProblem("each partition group needs exactly 'divisions' and 'workers'")
        groups.append(
            (
                _int_array(g["divisions"], "partition 'divisions'"),
                _int_array(g["workers"], "partition 'workers'"),
            )
        )
    return AssignmentPartition(tuple(groups))


def problem_from_dict(data) -> Problem:
    """Build a Problem from its dict form.

    ``preferences`` rows may be full orders or own-omitted short rows.
    ``priority``, ``partition`` and ``names`` are optional.
    """
    if not isinstance(data, dict):
        raise MalformedProblem("problem must be a JSON object")
    unknown = set(data) - {"n", "preferences", "priority", "partition", "names"}
    if unknown:
        raise MalformedProblem(f"unknown problem keys: {sorted(unknown)}")
    if "preferences" not in data:
        raise MalformedProblem("problem needs a 'preferences' array")
    prefs = data["preferences"]
    if not isinstance(prefs, list) or not all(isinstance(r, list) for r in prefs):
        raise MalformedProblem("'preferences' must be an array of arrays")
    n = data.get("n", len(prefs))
    if not _is_int(n) or n < 1:
        raise MalformedProblem("'n' must be a positive integer")
    for row in prefs:
        if not all(map(_is_int, row)):
            raise MalformedProblem("preference rows must contain integers")
    profile = complete_partial_profile(prefs, n)
    priority = data.get("priority")
    priority = () if priority is None else _int_array(priority, "'priority'")
    partition = None
    if data.get("partition") is not None:
        partition = partition_from_list(data["partition"])
    names = data.get("names")
    if names is not None and (
        not isinstance(names, list) or not all(isinstance(s, str) for s in names)
    ):
        raise MalformedProblem("'names' must be an array of strings")
    return Problem(
        profile=profile,
        priority=priority,
        partition=partition,
        names=tuple(names) if names is not None else None,
    )


def all_full_orders(n: int):
    """All strict orders over 1..n."""
    return list(itertools.permutations(range(1, n + 1)))


def all_orders_excluding(n: int, i: int):
    """All strict orders over the other workers, used with own-last completion."""
    rest = [w for w in range(1, n + 1) if w != i]
    return list(itertools.permutations(rest))
