"""Constructing assignment partitions.

Divisions come pre-grouped (think: clusters that may not trade internally).
A valid assignment partition hands each group a worker pool drawn entirely
from *other* groups, with pool sizes matching group sizes.  Such a partition
exists iff no group holds more than half of all divisions, and the
largest-first construction below builds one in linear time.
"""

from __future__ import annotations

import sys

from .model import AssignmentPartition, Infeasible, MalformedProblem


def _validated_groups(groups) -> list[list[int]]:
    groups = [list(g) for g in groups]
    if not groups:
        raise MalformedProblem("no division groups were given")
    if not all(groups):
        raise MalformedProblem("empty division groups are not allowed")
    n = sum(map(len, groups))
    members = set().union(*groups)
    if len(members) != n or not members.issuperset(range(1, n + 1)):
        raise MalformedProblem("division groups must partition 1..n")
    return groups


def partition_exists(sizes) -> bool:
    """Feasibility test on group sizes alone: 2 * max size <= total.

    A single group can never be served (its members would have to receive
    their own workers), so fewer than two groups is always infeasible.
    """
    sizes = list(sizes)
    if not sizes or any(s <= 0 for s in sizes):
        raise MalformedProblem("sizes must be positive integers")
    return len(sizes) >= 2 and 2 * max(sizes) <= sum(sizes)


def largest_first_construct(groups) -> AssignmentPartition:
    """Build an assignment partition for the given division groups.

    The largest group's workers, queued first, are spread across the other
    groups; the tail of the queue (never containing a group's own members,
    thanks to the size condition) backfills the largest group.  Groups keep
    their input order in the result.  Raises Infeasible when 2*max > n.
    """
    partition, _ = largest_first_construct_counted(groups)
    return partition


def largest_first_construct_counted(groups) -> tuple[AssignmentPartition, int]:
    """Same as largest_first_construct, returning an elementary step count."""
    groups = _validated_groups(groups)
    sizes = [len(g) for g in groups]
    if not partition_exists(sizes):
        raise Infeasible(
            f"no assignment partition for group sizes {tuple(sizes)}: "
            "one group holds more than half of all divisions"
        )
    steps = 0

    # Queue the largest group's members first (ties: lowest index group).
    big = max(range(len(groups)), key=lambda k: (sizes[k], -k))
    steps += len(groups)
    rest = [k for k in range(len(groups)) if k != big]
    queue: list[int] = []
    for k in [big] + rest:
        queue.extend(sorted(groups[k]))
    steps += len(queue)

    pools: list[list[int]] = [[] for _ in groups]
    front = 0
    for k in rest:
        take = sizes[k]
        pools[k] = queue[front : front + take]
        front += take
        steps += take
    pools[big] = queue[front:]
    steps += len(pools[big])

    partition = AssignmentPartition(
        tuple((tuple(g), tuple(p)) for g, p in zip(groups, pools))
    )
    return partition, steps


def blocks_from_sizes(sizes) -> list[list[int]]:
    """Consecutive division blocks 1..s1, s1+1..s1+s2, ... for given sizes."""
    sizes = list(sizes)
    if not sizes or any(s <= 0 for s in sizes):
        raise MalformedProblem("sizes must be positive integers")
    if sum(sizes) > sys.maxsize:
        raise MalformedProblem(f"sizes must sum to at most {sys.maxsize}")
    blocks = []
    nxt = 1
    for s in sizes:
        blocks.append(list(range(nxt, nxt + s)))
        nxt += s
    return blocks


def canonical_partition(n: int) -> AssignmentPartition:
    """Default partition used when a problem supplies none.

    Even n: two consecutive halves swap pools.  Odd n: a singleton plus two
    (n-1)/2 blocks, fed to the largest-first construction.  n = 1 admits no
    partition at all.
    """
    if n < 2:
        raise Infeasible(f"no assignment partition exists for n={n}")
    if n % 2 == 0:
        return largest_first_construct(blocks_from_sizes([n // 2, n // 2]))
    half = (n - 1) // 2
    return largest_first_construct(blocks_from_sizes([1, half, half]))
