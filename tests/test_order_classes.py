"""Sweeps run each mechanism once per class of orders it cannot tell apart.

A registry entry's ``reads`` field names the part of division i's order its
core reads.  The soundness twins here check that claim against the cores
themselves: every profile gets the outcome of its classes' representatives,
exhaustively at small n and on sampled profiles above.  The differential
guards check that the outcome table gathered from class sub-tables is the
table of one core run per profile, for any job count.
"""

import itertools
import multiprocessing
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from reassign import verifier
from reassign.mechanisms import MECHANISMS, _reads_through_own
from reassign.model import AssignmentPartition, Infeasible, MechanismId
from reassign.partition import blocks_from_sizes, largest_first_construct

ALL_TAGS = ("csd", "tsd", "cettc", "npb", "sd", "ttc", "bttc")
POOL_TAGS = ("csd", "tsd", "sd")


def all_assignment_partitions(n):
    """Every assignment partition of divisions 1..n, each once."""
    found = set()
    for labels in itertools.product(range(n), repeat=n):  # the group of each division
        if any(labels[k] > max(labels[:k], default=-1) + 1 for k in range(n)):
            continue  # each grouping once: groups numbered by their first division
        groups = [[i for i in range(1, n + 1) if labels[i - 1] == g] for g in range(max(labels) + 1)]
        for perm in itertools.permutations(range(1, n + 1)):
            spec = tuple((tuple(g), tuple(sorted(perm[i - 1] for i in g))) for g in groups)
            try:
                AssignmentPartition(spec)
            except Infeasible:
                continue
            found.add(spec)
    return [AssignmentPartition(spec) for spec in sorted(found)]


def test_all_assignment_partitions_counts():
    assert [len(all_assignment_partitions(n)) for n in (2, 3, 4)] == [1, 2, 24]


def class_mismatches(runner, space):
    """How many profiles of the space get another outcome than the profile
    of their orders' class representatives."""
    cls, reps, _, _ = verifier._order_classes(space, runner.mid.tag, runner.partition)
    reads = MECHANISMS[runner.mid.tag].reads
    for j, orders in enumerate(space.orders):
        keys = [reads(j + 1, o, runner.partition) for o in orders]
        # classes are exactly the orders of equal keys, each led by its first order
        assert [keys.index(k) for k in keys] == [orders.index(reps[j][c]) for c in cls[j]]
    rep_outcome = {}
    mismatches = 0
    for digits in itertools.product(*(range(len(o)) for o in space.orders)):
        rep = tuple(reps[j][cls[j][d]] for j, d in enumerate(digits))
        if rep not in rep_outcome:
            rep_outcome[rep] = runner(rep)
        mismatches += runner(tuple(space.orders[j][d] for j, d in enumerate(digits))) != rep_outcome[rep]
    return mismatches


@pytest.mark.parametrize("n", (2, 3, 4))
def test_ttc_reads_through_own_worker_full_space(n):
    runner = verifier._Runner(MechanismId("ttc"), n)
    space = verifier._space(n, False)
    assert class_mismatches(runner, space) == 0
    cls = verifier._order_classes(space, "ttc", None)[0]
    # at n=4 the 24 full orders fold into 16 classes per division
    assert [len(set(c)) for c in cls] == [{2: 2, 3: 5, 4: 16}[n]] * n


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("tag", POOL_TAGS)
def test_pool_mechanisms_read_their_pool_under_every_partition(tag, n):
    space = verifier._space(n, True)
    for partition in all_assignment_partitions(n):
        mids = [MechanismId(tag)]
        if tag == "sd":
            mids.append(MechanismId("sd", order=tuple(range(n, 0, -1))))
        for mid in mids:
            for priority in (None, tuple(range(n, 0, -1))):
                runner = verifier._Runner(mid, n, partition, priority)
                assert class_mismatches(runner, space) == 0


def same_class_twin(reads, i, order, partition, rng):
    """A random order of the same class: adjacent swaps that keep the
    ``reads`` key, so only the field decides what may move."""
    key = reads(i, order, partition)
    twin = list(order)
    for _ in range(3 * len(order) ** 2):
        k = rng.randrange(len(twin) - 1)
        twin[k], twin[k + 1] = twin[k + 1], twin[k]
        if reads(i, tuple(twin), partition) != key:
            twin[k], twin[k + 1] = twin[k + 1], twin[k]
    return tuple(twin)


def sampled_twin_mismatch(runner, rng):
    n = runner.n
    reads = MECHANISMS[runner.mid.tag].reads
    orders = tuple(tuple(rng.sample(range(1, n + 1), n)) for _ in range(n))
    twin = tuple(
        same_class_twin(reads, i, o, runner.partition, rng) for i, o in enumerate(orders, start=1)
    )
    return runner(orders) != runner(twin)


@settings(max_examples=200, deadline=None)
@given(st.integers(5, 7), st.randoms(use_true_random=False))
def test_ttc_reads_through_own_worker_sampled(n, rng):
    assert not sampled_twin_mismatch(verifier._Runner(MechanismId("ttc"), n), rng)


PARTITION_SIZES = {5: ([1, 2, 2], [1, 1, 1, 2], [1, 1, 1, 1, 1]), 6: ([3, 3], [1, 2, 3], [2, 2, 2])}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(POOL_TAGS), st.integers(5, 6), st.data(), st.randoms(use_true_random=False))
def test_pool_mechanisms_read_their_pool_sampled(tag, n, data, rng):
    sizes = data.draw(st.sampled_from(PARTITION_SIZES[n]))
    partition = largest_first_construct(blocks_from_sizes(sizes))
    priority = tuple(data.draw(st.permutations(range(1, n + 1))))
    mid = MechanismId(tag)
    if tag == "sd" and data.draw(st.booleans()):
        mid = MechanismId("sd", order=tuple(data.draw(st.permutations(range(1, n + 1)))))
    assert not sampled_twin_mismatch(verifier._Runner(mid, n, partition, priority), rng)


@pytest.mark.parametrize("tag", ("bttc", "cettc", "npb"))
def test_whole_order_mechanisms_read_past_their_own_worker(tag):
    # the ttc key would be unsound for these: some two full n=3 profiles
    # with equal prefixes through every own worker get different outcomes
    assert MECHANISMS[tag].reads is None
    runner = verifier._Runner(MechanismId(tag), 3)
    outcomes = defaultdict(set)
    for orders in itertools.product(verifier._space(3, False).orders[0], repeat=3):
        key = tuple(_reads_through_own(i, o, None) for i, o in enumerate(orders, start=1))
        outcomes[key].add(runner(orders))
    assert max(map(len, outcomes.values())) > 1


# -- the gathered table against one core run per profile ---------------------------


def reference_table(runner, space):
    code = verifier._perm_codes(space.n)[1]
    return bytes(code[runner(p)] for p in itertools.product(*space.orders))


def tables_for_any_jobs(runner, space, monkeypatch):
    tables = [bytes(verifier._outcome_table(runner, space, jobs)) for jobs in (1, 2)]
    with monkeypatch.context() as m:
        m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        tables.append(bytes(verifier._outcome_table(runner, space, 2)))
    verifier._SWEEP.clear()
    return tables


def runners(n):
    # bttc at full n=4 is left to the structural check below: one table
    # there is 331,776 runs of its slowest core, and four of them (the
    # reference and three job counts) would take most of a minute
    tags = ALL_TAGS if n < 4 else tuple(t for t in ALL_TAGS if t != "bttc")
    yield from (verifier._Runner(MechanismId(tag), n) for tag in tags)
    yield verifier._Runner(MechanismId("sd", order=tuple(range(n, 0, -1))), n)
    if n == 4:  # a partition other than the canonical one, as an eap check binds it
        partition = largest_first_construct(blocks_from_sizes([1, 1, 2]))
        for tag in ("csd", "tsd", "sd", "ttc", "cettc"):
            yield verifier._Runner(MechanismId(tag), n, partition)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_gathered_table_equals_one_run_per_profile(n, monkeypatch):
    for runner in runners(n):
        space = verifier._space(n, runner.reduced)
        try:
            expected = reference_table(runner, space)
        except Infeasible:  # npb needs three divisions
            continue
        assert tables_for_any_jobs(runner, space, monkeypatch) == [expected] * 3, runner.label()


@pytest.mark.parametrize("tag,reduced", [("bttc", False), ("cettc", True), ("npb", True)])
def test_whole_order_mechanisms_run_once_per_profile(tag, reduced):
    # without a reads field every order is its own class: no gather, no
    # sub-table kept, so the scan runs the core on each profile of a block
    space = verifier._space(4, reduced)
    cls, reps, index, folds = verifier._order_classes(space, tag, None)
    assert cls == (tuple(range(space.radix)),) * 4 and reps == space.orders
    assert index is None and not folds


def test_ttc_sp_runs_the_core_once_per_class_profile(monkeypatch):
    # 16 classes per division at full n=4: the sweep runs the core on 16**4
    # class profiles, besides the probe's pairwise scan over the first 24
    # base profiles and each one's 4 * 23 misreports
    calls = 0
    call = verifier._Runner.__call__

    def counted(self, orders):
        nonlocal calls
        calls += 1
        return call(self, orders)

    monkeypatch.setattr(verifier._Runner, "__call__", counted)
    report = verifier.check_sp("ttc", 4)
    assert report.holds and report.checked == 24**4
    assert calls <= 16**4 + 24 * (1 + 4 * 23)
