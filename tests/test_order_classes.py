"""Sweeps run each mechanism once per outcome box of class profiles.

A registry entry's ``reads`` field names the part of division i's order its
core reads, and the sweep's class table has one entry per profile of class
representatives.  The soundness twins here check that claim against the
cores themselves: every profile gets the outcome of its classes'
representatives, exhaustively at small n and on sampled profiles above.

The class table is filled by outcome boxes: every profile that agrees with
a run profile, division by division, down to the worker its outcome gives
that division gets that outcome too.  The twin of the fill is the table of
one core run per profile.  On a space where the two are equal the fold holds
exactly: every profile lies in the box of the representative that filled it,
so it gets that representative's outcome and shares its prefixes.  The
twins compare them on every space a sweep uses at n <= 4, and check the
fold on sampled boxes above.  A core that reads past its
received worker fails them.

The filled table is widened to one byte per profile by slice copies; its
twin is the gather of each block's profiles, one by one, through an index
of their class entries.
"""

import itertools
import math
import operator
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
    table = verifier._ClassTable(runner, space)
    cls, reps = table.cls, table.reps
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
    cls = verifier._ClassTable(runner, space).cls
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


def filled_table(runner, space):
    return verifier._outcome_table(verifier._ClassTable(runner, space))


def bound(mid, n):
    """The runner of ``mid`` at n, or None where it cannot be bound: at n=1
    there is no partition and no exchange, so only ttc and bttc run."""
    try:
        return verifier._Runner(mid, n)
    except Infeasible:
        return None


def runners(n):
    # bttc at full n=4 is left to the structural check below: one table
    # there is 331,776 runs of its slowest core
    tags = ALL_TAGS if n < 4 else tuple(t for t in ALL_TAGS if t != "bttc")
    mids = [MechanismId(tag) for tag in tags] + [MechanismId("sd", order=tuple(range(n, 0, -1)))]
    yield from filter(None, (bound(mid, n) for mid in mids))
    if n == 4:  # a partition other than the canonical one, as an eap check binds it
        partition = largest_first_construct(blocks_from_sizes([1, 1, 2]))
        for tag in ("csd", "tsd", "sd", "ttc", "cettc"):
            yield verifier._Runner(MechanismId(tag), n, partition)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_gathered_table_equals_one_run_per_profile(n):
    for runner in runners(n):
        space = verifier._space(n, runner.reduced)
        try:
            expected = reference_table(runner, space)
        except Infeasible:  # npb needs three divisions
            continue
        assert filled_table(runner, space) == expected, runner.label()


# -- the widened table against the gather it replaced -------------------------------


def twin_index(table):
    """The entry, counted from the first of a block's two head classes, of
    the block's k-th profile, or None when those entries are the block."""
    if all(c == tuple(range(table.space.radix)) for c in table.cls[2:]):
        return None
    return tuple(sum(map(operator.mul, c, table.weights[2:])) for c in itertools.product(*table.cls[2:]))


def twin_outcome_table(table):
    """Each block's codes in turn: its head entries filled, gathered through
    the index."""
    space, index = table.space, twin_index(table)
    gather = None if index is None else operator.itemgetter(*index)
    blocks = []
    for b in range(space.size // space.block):
        head = space.digits_of(b * space.block)[:2]  # one digit at n=1
        start = sum(map(list.__getitem__, table.offsets, head))
        end = start + table.weights[len(head) - 1]
        table.fill(start, end)
        sub = table.codes[start:end]
        blocks.append(bytes(sub) if gather is None else bytes(gather(sub)))
    return b"".join(blocks)


def random_runs(space, rng):
    """The blocks cut into consecutive runs of random lengths, none of which
    crosses the end of an order of division 1."""
    per = space.pows[0] // space.block
    for start in range(0, space.size // space.block, per):
        cuts = sorted(rng.sample(range(start + 1, start + per), rng.randint(0, per - 1)))
        yield from zip([start] + cuts, cuts + [start + per])


def assert_widened_as_twin(runner, space, rng):
    twin = twin_outcome_table(verifier._ClassTable(runner, space))
    assert filled_table(runner, space) == twin, (runner.label(), space.reduced)
    table, block = verifier._ClassTable(runner, space), space.block
    for lo, hi in random_runs(space, rng):
        assert table.blocks(lo, hi) == twin[lo * block : hi * block], (runner.label(), lo, hi)


def twin_runners(n):
    yield from runners(n)
    if n == 4:  # the twin needs no run per profile
        yield verifier._Runner(MechanismId("bttc"), n)
    yield from filter(None, [bound(MechanismId("cettc", mu0="random", seed=5), n)])


@pytest.mark.parametrize("n", (2, 3, 4))
def test_widened_table_and_runs_equal_the_gathered_twin(n):
    # every tag in both spaces, bttc at full n=4 among them: the whole
    # table, and runs of blocks read from a fresh table as a sweep reads them
    rng = random.Random(n)
    for runner in twin_runners(n):
        for reduced in (False, True):
            try:
                assert_widened_as_twin(runner, verifier._space(n, reduced), rng)
            except Infeasible:  # npb needs three divisions
                assert runner.mid.tag == "npb" and n < 3


@pytest.mark.parametrize("tag", POOL_TAGS)
def test_widened_reduced_n5_table_equals_the_gathered_twin(tag):
    # past the sweeps' cap: 7,962,624 profiles from a table of 16 runs
    assert_widened_as_twin(verifier._Runner(MechanismId(tag), 5), verifier._space(5, True), random.Random(5))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_widen_equals_an_itemgetter_gather(data):
    # random class maps onto every class, numbered in any order, so orders
    # of one class need not be adjacent and class numbers need not rise
    classes = []
    for _ in range(data.draw(st.integers(0, 4))):
        radix = data.draw(st.integers(1, 5))
        width = data.draw(st.integers(1, radix))
        extra = data.draw(st.lists(st.integers(0, width - 1), min_size=radix - width, max_size=radix - width))
        classes.append(tuple(data.draw(st.permutations(list(range(width)) + extra))))
    widths = [max(c) + 1 for c in classes]
    weights = [math.prod(widths[j + 1 :]) for j in range(len(classes))]
    src = data.draw(st.binary(min_size=math.prod(widths), max_size=math.prod(widths)))
    index = [sum(map(operator.mul, c, weights)) for c in itertools.product(*classes)]
    assert verifier._widen(bytearray(src), tuple(classes)) == bytes(map(src.__getitem__, index))


# -- the outcome-box fill against one core run per profile ---------------------------


def assert_fill_is_exact(runner, space):
    try:
        expected = reference_table(runner, space)
    except Infeasible:  # npb needs three divisions
        return
    assert filled_table(runner, space) == expected, (runner.label(), space.reduced)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_prefix_filled_table_equals_one_run_per_profile(tag, n):
    # each tag's own space, and the reduced space, which own-position sweeps
    # for every tag: at full n=4 that is ttc and bttc, bttc's direct table
    # being the slowest here (331,776 runs of its core)
    for reduced in sorted({MECHANISMS[tag].reduced, True}):
        assert_fill_is_exact(verifier._Runner(MechanismId(tag), n), verifier._space(n, reduced))


@pytest.mark.parametrize("tag", POOL_TAGS)
def test_prefix_fill_under_every_partition_and_priority(tag):
    # every pair for tsd, whose fold fails at larger n (see below); for csd
    # and sd every partition under the identity priority and every priority
    # under the canonical partition
    space = verifier._space(4, True)
    priorities = list(itertools.permutations(range(1, 5)))
    pairs = [(partition, None) for partition in all_assignment_partitions(4)]
    pairs += [(None, priority) for priority in priorities]
    if tag == "tsd":
        pairs = list(itertools.product(all_assignment_partitions(4), priorities))
    for partition, priority in pairs:
        assert_fill_is_exact(verifier._Runner(MechanismId(tag), 4, partition, priority), space)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_prefix_fill_under_mechanism_options(n):
    # every initial swap cettc can be given, so every seeded one too
    space = verifier._space(n, True)
    mids = [MechanismId("sd", order=tuple(range(n, 0, -1)))]
    mids += [MechanismId("cettc", mu0=mu0) for mu0 in verifier.derangements(n)]
    for mid in mids:
        assert_fill_is_exact(verifier._Runner(mid, n), space)


def box_twin(order, i, received, reduced, rng):
    """An order that keeps ``order`` down to the received worker and
    shuffles the rest, own worker still last on the reduced space."""
    k = order.index(received) + 1
    rest = [w for w in order[k:] if not (reduced and w == i)]
    rng.shuffle(rest)
    return order[:k] + tuple(rest) + ((i,) if reduced and k < len(order) else ())


# group sizes of the partitions the sampled fold check draws; a group of
# three divisions needs three other divisions' workers, so n >= 6
FOLD_SIZES = {
    5: ([1, 2, 2], [1, 1, 1, 2], [1, 1, 1, 1, 1]),
    6: ([3, 3], [1, 2, 3], [2, 2, 2], [1, 1, 2, 2]),
    7: ([1, 3, 3], [1, 2, 2, 2], [1, 1, 1, 2, 2]),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_TAGS), st.integers(5, 7), st.data(), st.randoms(use_true_random=False))
def test_outcome_box_shares_the_outcome_sampled(tag, n, data, rng):
    # tsd only where no group holds three divisions: see the next test
    reduced = MECHANISMS[tag].reduced or data.draw(st.booleans())
    priority = tuple(data.draw(st.permutations(range(1, n + 1))))
    sizes = [s for s in FOLD_SIZES[n] if tag != "tsd" or max(s) < 3]
    partition = largest_first_construct(blocks_from_sizes(data.draw(st.sampled_from(sizes))))
    mid = MechanismId(tag)
    if tag == "cettc" and data.draw(st.booleans()):
        mid = MechanismId("cettc", mu0="random", seed=data.draw(st.integers(0, 2**16)))
    runner = verifier._Runner(mid, n, partition, priority)
    orders = verifier._sample_orders(rng, n, reduced)
    m = runner(orders)
    for _ in range(10):
        twin = tuple(box_twin(o, i, m[i - 1], reduced, rng) for i, o in enumerate(orders, start=1))
        assert runner(twin) == m, (orders, twin)


def test_tsd_fold_fails_with_a_group_of_three():
    # T-SD's final priority is the owners of the stage-1 nominations, and a
    # division may nominate a worker past the one it receives.  With groups
    # of at most two divisions, as at every n a sweep allows, neither the
    # samples nor the exhaustive twins have found that to matter; with a
    # group of three it does.  Division 2 receives 5, its first worker, in
    # both profiles, but division 1 nominates 5 before it, so division 2
    # nominates whichever of 4 and 6 it ranks next; that worker's owner
    # takes its place in the final priority, and divisions 4 and 6 end up
    # with each other's workers.
    partition = largest_first_construct(blocks_from_sizes([3, 3]))
    runner = verifier._Runner(MechanismId("tsd"), 6, partition, (4, 5, 6, 1, 2, 3))
    orders = [(5, 2, 6, 4, 3, 1), (5, 1, 4, 6, 3, 2), (2, 4, 6, 1, 5, 3),
              (2, 3, 6, 5, 1, 4), (4, 2, 3, 1, 6, 5), (2, 3, 4, 1, 5, 6)]
    assert runner(tuple(orders)) == (6, 5, 4, 3, 2, 1)
    orders[1] = (5, 1, 6, 4, 3, 2)
    assert runner(tuple(orders)) == (6, 5, 4, 1, 2, 3)


def peeking_ttc(runner, past):
    """ttc, except that divisions 2 and 3 swap their workers when the worker
    division 1 ranks right after its own received one passes ``past``."""
    ttc = runner.core

    def core(orders):
        m, steps = ttc(orders)
        k = orders[0].index(m[0]) + 1
        if k < len(orders[0]) and past(orders[0][k], m[0]):
            m = (m[0], m[2], m[1]) + m[3:]
        return m, steps

    return core


@pytest.mark.parametrize("n", (3, 4))
def test_fill_fails_for_a_core_that_reads_past_the_received_worker(n, monkeypatch):
    # the fold is checked, not assumed: a core whose outcome depends on a
    # worker past the one a division receives trips the fill's conflict
    # guard or, where no two boxes meet, makes the twins differ
    space = verifier._space(n, False)
    raised = []
    for past in (operator.gt, operator.lt):
        runner = verifier._Runner(MechanismId("ttc"), n)
        monkeypatch.setattr(runner, "core", peeking_ttc(runner, past))
        try:
            table = filled_table(runner, space)
        except RuntimeError as e:
            assert "outcome-prefix fold fails for ttc" in str(e)
            raised.append(past)
        else:
            assert table != reference_table(runner, space)
    assert raised  # the guard itself can fire


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("past", (operator.gt, operator.lt), ids=("gt", "lt"))
def test_own_position_sweep_fails_where_the_kernel_and_direct_runs_disagree(past, n, jobs, monkeypatch):
    # the peeking ttc run on each profile's own-last form: moving an own
    # worker never changes a direct run, but the box fold fails, so the
    # kernel reads a moved outcome that differs from its base's.  The sweep
    # raises rather than report a fault that has no witness
    peeking = peeking_ttc(verifier._Runner(MechanismId("ttc"), n), past)

    def own_last_peeking(self, orders):
        return peeking(tuple(tuple(w for w in o if w != i) + (i,) for i, o in enumerate(orders, 1)))[0]

    monkeypatch.setattr(verifier._Runner, "__call__", own_last_peeking)
    with pytest.raises(RuntimeError, match="a fold fails for ttc: the sweep's kernel flags profile"):
        verifier.check_own_position_invariance("ttc", n, jobs=jobs)


def counting_runs(monkeypatch):
    """A list that collects the orders of every core run from now on."""
    runs = []
    call = verifier._Runner.__call__
    monkeypatch.setattr(verifier._Runner, "__call__", lambda self, orders: runs.append(orders) or call(self, orders))
    return runs


# without a reads field every order is its own class, and the fill still
# runs the core once per outcome box: (check, core runs measured at n=4)
WHOLE_ORDER_RUNS = {"bttc": ("sp", 4896), "cettc": ("sp", 273), "npb": ("pareto", 201)}


@pytest.mark.parametrize("tag,reduced", [("bttc", False), ("cettc", True), ("npb", True)])
def test_whole_order_mechanisms_run_once_per_outcome_box(tag, reduced, monkeypatch):
    space = verifier._space(4, reduced)
    table = verifier._ClassTable(verifier._Runner(MechanismId(tag), 4), space)
    assert table.cls == (tuple(range(space.radix)),) * 4 and table.reps == space.orders
    prop, most = WHOLE_ORDER_RUNS[tag]
    runs = counting_runs(monkeypatch)
    report = verifier.CHECKS[prop](tag, 4)
    assert report.holds and report.checked == space.size
    assert len(runs) <= most < space.size // 3


def test_ttc_sp_runs_the_core_once_per_class_profile(monkeypatch):
    # at most once per class profile, 16**4 at full n=4, and in fact once
    # per outcome box, 3,840 of them: the probe's pairwise scan over the
    # first 24 base profiles reads the same class table that is then
    # filled, so its runs each fill a box too
    runs = counting_runs(monkeypatch)
    report = verifier.check_sp("ttc", 4)
    assert report.holds and report.checked == 24**4
    assert len(runs) <= 3840 < 16**4


def test_ttc_pareto_runs_the_core_once_per_outcome_box(monkeypatch):
    runs = counting_runs(monkeypatch)
    report = verifier.check_pareto("ttc", 4)
    assert report.holds and report.checked == 24**4
    assert len(runs) == len(set(runs)) == 3840


def test_ttc_pareto_widens_each_pair_of_head_classes_once(monkeypatch):
    # the table keeps each widened block for the whole check, so a pair of
    # head classes that runs of blocks under several division-1 orders reach
    # is widened once: 16 x 16 pairs at full n=4
    calls = []
    widen = verifier._widen
    monkeypatch.setattr(verifier, "_widen", lambda data, classes: calls.append(classes) or widen(data, classes))
    report = verifier.check_pareto("ttc", 4)
    cls = verifier._ClassTable(verifier._Runner(MechanismId("ttc"), 4), verifier._space(4, False)).cls
    assert report.holds and len(calls) == len(set(itertools.product(*cls[:2]))) == 256


# -- the fill against the fill it replaced ------------------------------------------


def twin_fill(table, pos, end):
    """The fill as it was: each entry's class digits by one divmod per
    division, its representatives and box ranges looked up division by
    division, and the ranges other than the longest multiplied out."""
    codes, reps, boxes = table.codes, table.reps, table.boxes
    code = verifier._perm_codes(len(reps))[1]
    while (pos := codes.find(0xFF, pos, end)) >= 0:
        digits, rest = [], pos
        for wt in table.weights:
            d, rest = divmod(rest, wt)
            digits.append(d)
        orders = tuple(map(tuple.__getitem__, reps, digits))
        m = table.runner(orders)
        runs = [boxes[j][d][w] for j, (d, w) in enumerate(zip(digits, m))]
        ranges = [range(start, start + k * step, step) for k, start, step in runs]
        long = max(ranges, key=len)
        ranges.remove(long)  # equal ranges hold the same offsets: either may go
        starts = [long.start]
        for r in ranges:
            starts = [s + k for s in starts for k in r]
        blank, fill = b"\xff" * len(long), bytes((code[m],)) * len(long)
        for s in starts:
            run = slice(s, s + len(long) * long.step, long.step)
            if codes[run] != blank:
                raise RuntimeError(
                    f"outcome-prefix fold fails for {table.runner.label()}: the box of "
                    f"profile {orders}, outcome {m}, meets another outcome"
                )
            codes[run] = fill


def twin_entry(table, idx):
    """Profile idx's code as the table read it before: the entry as a sum of
    per-division offsets, filled alone by ``twin_fill`` when blank."""
    e = sum(map(list.__getitem__, table.offsets, table.space.digits_of(idx)))
    if table.codes[e] == 0xFF:
        twin_fill(table, e, e + 1)
    return table.codes[e]


def assert_fills_as_twin(runs, runner, space, picks=None):
    """Fill a fresh table by ``fill`` and another by ``twin_fill``: whole,
    or one entry at a time as profiles ``picks`` are read, in that order.
    The codes read, the tables and the core runs, in order, must agree."""
    out = []
    for fill, read in ((verifier._ClassTable.fill, verifier._ClassTable.__getitem__), (twin_fill, twin_entry)):
        table = verifier._ClassTable(runner, space)
        runs.clear()
        if picks is None:
            fill(table, 0, len(table.codes))
        got = None if picks is None else [read(table, idx) for idx in picks]
        out.append((got, bytes(table.codes), list(runs)))
    assert out[0] == out[1], (runner.label(), space.reduced, space.orders)
    assert out[0][2], "no core ran"


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_fill_runs_the_cores_and_writes_the_codes_of_its_twin(n, monkeypatch):
    # every twin runner in both spaces, bttc at full n=4 among them
    runs = counting_runs(monkeypatch)
    for runner in twin_runners(n):
        for reduced in (False, True):
            try:
                assert_fills_as_twin(runs, runner, verifier._space(n, reduced))
            except Infeasible:  # npb needs three divisions
                assert runner.mid.tag == "npb" and n < 3


def moved_spaces(n):
    """The own-position kernel's spaces, which keep every own worker apart:
    the reduced space with one division's own worker moved, in the order the
    kernel reads them."""
    return [verifier._space(n, True, (j, q)) for j in range(n) for q in range(n - 1)]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_own_apart_fill_runs_as_its_twin(n, monkeypatch):
    # the own-position kernel's tables, one per moved space, every tag
    runs = counting_runs(monkeypatch)
    for tag in ALL_TAGS:
        if tag == "npb" and n < 3:  # npb needs three divisions
            continue
        for space in moved_spaces(n):
            assert_fills_as_twin(runs, verifier._Runner(MechanismId(tag), n), space)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_one_entry_fills_in_random_order_run_as_the_twin(n, monkeypatch):
    # entries read one at a time at random profiles, as the sp and ri probe
    # and the own-position kernel read them: every profile at n <= 3, a
    # sample of 3,000 at n=4, in both spaces and every moved space
    runs, rng = counting_runs(monkeypatch), random.Random(n)
    for runner in twin_runners(n):
        for space in [verifier._space(n, False), verifier._space(n, True)] + moved_spaces(n):
            picks = list(range(space.size))
            rng.shuffle(picks)
            try:
                assert_fills_as_twin(runs, runner, space, picks[:3000])
            except Infeasible:  # npb needs three divisions
                assert runner.mid.tag == "npb" and n < 3


# -- the own-position kernel's moved-space tables against direct runs --------------


def moved_entry_mismatches(runner, n):
    """Fill the class table of every moved space entry by entry, as the
    kernel does, for every moved profile of every own-last base in turn, and
    count the moved profiles whose entry differs from their direct run.
    Each moved profile must be the profile at its base's index in its moved
    space.  Also drive the kernel over every block with each base's direct
    outcome, as a sweep does but past any fault, and count the blocks where
    it flags another base than the first whose direct moved outcomes differ
    from its own.  Returns (moved profiles read, mismatches)."""
    space = verifier._space(n, True)
    tables = {
        (j, q): verifier._ClassTable(runner, verifier._space(n, True, (j, q)))
        for j in range(n) for q in range(n - 1)
    }
    code = verifier._perm_codes(n)[1]
    direct = reference_table(runner, space)
    blocks = space.size // space.block
    first = verifier._own_position_kernel(space, runner)
    flags = [first(direct[b * space.block : (b + 1) * space.block], b) for b in range(blocks)]
    expected = [None] * blocks
    read = mismatches = 0
    for idx, orders in enumerate(itertools.product(*space.orders)):
        b, k = divmod(idx, space.block)
        for j, o in enumerate(orders):
            for q in range(n - 1):
                moved = orders[:j] + (o[:q] + o[-1:] + o[q:-1],) + orders[j + 1 :]
                assert tables[j, q].space.profile_at(idx) == moved
                c = code[runner(moved)]
                if c != direct[idx] and expected[b] is None:
                    expected[b] = k
                read += 1
                mismatches += tables[j, q][idx] != c
    return read, mismatches + sum(map(operator.ne, flags, expected))


def assert_moved_entries_are_exact(runner, n):
    try:
        read, mismatches = moved_entry_mismatches(runner, n)
    except Infeasible:  # npb needs three divisions
        return
    assert read and not mismatches, runner.label()


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_own_position_kernel_reads_direct_outcomes(tag, n):
    # every tag, npb included from n=3 on: every entry the kernel read for
    # a moved profile of an own-last base holds that profile's own outcome
    assert_moved_entries_are_exact(verifier._Runner(MechanismId(tag), n), n)


@pytest.mark.parametrize("tag", POOL_TAGS)
def test_own_position_kernel_under_every_partition_and_priority(tag):
    # every partition under the identity priority and every priority under
    # the canonical partition
    pairs = [(partition, None) for partition in all_assignment_partitions(4)]
    pairs += [(None, priority) for priority in itertools.permutations(range(1, 5))]
    for partition, priority in pairs:
        assert_moved_entries_are_exact(verifier._Runner(MechanismId(tag), 4, partition, priority), 4)


@pytest.mark.parametrize("n", (3, 4))
def test_own_position_kernel_under_mechanism_options(n):
    # sd under a reversed order, cettc under every initial swap
    mids = [MechanismId("sd", order=tuple(range(n, 0, -1)))]
    mids += [MechanismId("cettc", mu0=mu0) for mu0 in verifier.derangements(n)]
    for mid in mids:
        assert_moved_entries_are_exact(verifier._Runner(mid, n), n)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_moved_space_tables_equal_one_run_per_profile(tag):
    # every moved space's whole table at every n <= 4, 84 tables at n=4
    for n in (2, 3, 4):
        if tag == "npb" and n < 3:  # npb needs three divisions
            continue
        runner = verifier._Runner(MechanismId(tag), n)
        for space in moved_spaces(n):
            table = verifier._ClassTable(runner, space)
            table.fill(0, len(table.codes))
            assert 0xFF not in table.codes
            got = bytes(map(table.__getitem__, range(space.size)))
            assert got == reference_table(runner, space), (tag, space.orders)


def test_own_position_sweep_builds_no_full_space(monkeypatch):
    # the moved profiles are read from moved spaces, never from the full space
    built = []
    space = verifier._space
    monkeypatch.setattr(verifier, "_space", lambda *args: built.append(args) or space(*args))
    for tag in ALL_TAGS:
        verifier.check_own_position_invariance(tag, 4)
    assert built and all(args[1] for args in built)
