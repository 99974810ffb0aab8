import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from reassign.mechanisms import (
    MECHANISM_TAGS,
    _bttc_core,
    _cettc_core,
    _csd_core,
    _group_tables,
    _npb_core,
    _npb_draft,
    _sd_groups_core,
    _tsd_core,
    _ttc_core,
    final_order,
    initial_derangement,
    npb_draft_priority,
    run_bttc,
    run_cettc,
    run_csd,
    run_mechanism,
    run_npb,
    run_sd_within_groups,
    run_tsd,
    run_ttc,
)
from reassign.model import (
    Infeasible,
    MalformedProblem,
    MechanismId,
    Problem,
    all_orders_excluding,
    complete_partial_profile,
    problem_from_dict,
)
from reassign.partition import blocks_from_sizes, canonical_partition, largest_first_construct
from test_order_classes import all_assignment_partitions

CE_TAGS = ("csd", "tsd", "cettc", "npb", "sd")


def make_problem(rows, n=None, partition=None, priority=None):
    profile = complete_partial_profile(rows, n)
    kwargs = {}
    if partition is not None:
        kwargs["partition"] = partition
    if priority is not None:
        kwargs["priority"] = priority
    return Problem(profile=profile, **kwargs)


def reduced_profiles(n):
    spaces = [all_orders_excluding(n, i) for i in range(1, n + 1)]
    for rows in itertools.product(*spaces):
        yield complete_partial_profile(list(rows), n)


def full_profiles(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    for rows in itertools.product(perms, repeat=n):
        yield complete_partial_profile(list(rows), n)


def random_full_rows(rng, n):
    rows = []
    for _ in range(n):
        row = list(range(1, n + 1))
        rng.shuffle(row)
        rows.append(tuple(row))
    return rows


# -- chain dictatorship walkthrough -------------------------------------------


def chain_example():
    # two trios, everyone ranks workers 2,1,3,4,5,6
    rows = [(2, 1, 3, 4, 5, 6)] * 6
    return make_problem(rows, partition=canonical_partition(6))


def test_csd_walkthrough():
    assignment, trace = run_csd(chain_example())
    assert assignment.mapping == (4, 5, 6, 2, 1, 3)
    assert trace.choosers() == (1, 4, 2, 5, 3, 6)
    assert trace.workers() == (4, 2, 5, 1, 6, 3)
    assert trace.kinds() == (
        "start",
        "owner-call",
        "owner-call",
        "owner-call",
        "fallback",
        "owner-call",
    )


def test_tsd_walkthrough():
    assignment, trace = run_tsd(chain_example())
    assert trace.kinds() == ("nominate",) * 6
    assert list(zip(trace.choosers(), trace.workers())) == [
        (1, 4),
        (2, 5),
        (3, 6),
        (4, 2),
        (5, 1),
        (6, 3),
    ]
    # owners of nominated workers, in nomination order
    assert final_order(chain_example(), "tsd").global_order == (4, 5, 6, 2, 1, 3)
    assert assignment.mapping == (5, 4, 6, 2, 1, 3)


def test_final_order_reproduces_assignment():
    prob = chain_example()
    for tag, run in (("csd", run_csd), ("tsd", run_tsd)):
        fo = final_order(prob, tag)
        assert run_sd_within_groups(prob, fo.global_order) == run(prob)[0]
    with pytest.raises(MalformedProblem):
        final_order(prob, "npb")


# -- trading mechanisms ---------------------------------------------------------


def test_initial_derangement():
    assert initial_derangement(4) == (2, 3, 4, 1)
    assert initial_derangement(3, (2, 3, 1)) == (2, 3, 1)
    got = initial_derangement(6, "random", seed=11)
    assert got == initial_derangement(6, "random", seed=11)
    assert all(w != i for i, w in enumerate(got, start=1))
    with pytest.raises(MalformedProblem):
        initial_derangement(3, (1, 3, 2))  # fixed point
    with pytest.raises(MalformedProblem):
        initial_derangement(3, (2, 1))  # wrong length
    with pytest.raises(MalformedProblem):
        initial_derangement(3, "random")  # no seed
    with pytest.raises(Infeasible):
        initial_derangement(1)


def test_cettc_minimal_violation_pair():
    base = make_problem([(3, 2, 1), (1, 3, 2), (2, 1, 3)])
    improved = make_problem([(3, 2, 1), (1, 3, 2), (1, 2, 3)])
    a, trace = run_cettc(base)
    b, _ = run_cettc(improved)
    assert a.mapping == (3, 1, 2)
    assert b.mapping == (2, 3, 1)
    assert set(trace.kinds()) == {"cycle"}
    # worker 1 moved up in division 3's ranking, yet its owner lost: 3 -> 2
    assert base.profile.prefers(1, 3, 2)


def test_cettc_never_returns_own_worker_even_when_top():
    # everyone loves their own worker; the swap still trades them all away
    prob = make_problem([(1, 2, 3), (2, 3, 1), (3, 1, 2)])
    a, _ = run_cettc(prob)
    assert a.is_derangement()


def test_ttc_vs_bttc_divergence():
    base = make_problem([(1, 2, 3), (3, 1, 2), (2, 3, 1)])
    improved = make_problem([(1, 2, 3), (1, 3, 2), (2, 3, 1)])
    assert run_bttc(base)[0].mapping == (1, 3, 2)
    assert run_ttc(base).mapping == (1, 3, 2)
    assert run_bttc(improved)[0].mapping == (2, 1, 3)
    assert run_ttc(improved).mapping == (1, 3, 2)
    # division 1's worker rose in division 2's ranking, bttc demotes division 1
    assert base.profile.prefers(1, 1, 2)


def test_bttc_identity_outcome():
    prob = make_problem([(1, 2), (2, 1)])
    a, trace = run_bttc(prob)
    assert a.mapping == (1, 2)
    assert not a.is_derangement()
    assert set(trace.kinds()) == {"stay"}


def test_bttc_trade_outcome():
    prob = make_problem([(2, 1), (1, 2)])
    a, trace = run_bttc(prob)
    assert a.mapping == (2, 1)
    assert set(trace.kinds()) == {"trade"}


# -- nomination draft -----------------------------------------------------------


def npb_problem(rows):
    return make_problem(rows)


def test_npb_three_clubs_pair():
    high = npb_problem([(2, 3, 1), (1, 3, 2), (1, 2, 3)])
    low = npb_problem([(3, 2, 1), (1, 3, 2), (1, 2, 3)])
    assert npb_draft_priority(high) == (1, 2, 3)
    assert npb_draft_priority(low) == (1, 3, 2)
    a, trace = run_npb(high)
    assert a.mapping == (2, 3, 1)
    assert trace.kinds() == ("start", "last-two", "owner-call")
    b, _ = run_npb(low)
    assert b.mapping == (3, 1, 2)
    # worker 2 rose in club 1's ranking, yet club 2 fell from 1 to 3
    assert low.profile.prefers(2, 1, 3)


def test_npb_four_clubs_misreport_gain():
    truthful = npb_problem([(2, 1, 3, 4), (3, 1, 2, 4), (1, 2, 4, 3), (1, 2, 3, 4)])
    misreport = npb_problem([(2, 1, 3, 4), (3, 1, 2, 4), (2, 1, 4, 3), (1, 2, 3, 4)])
    assert npb_draft_priority(truthful) == (1, 2, 3, 4)
    assert npb_draft_priority(misreport) == (2, 1, 3, 4)
    assert run_npb(truthful)[0].mapping == (2, 3, 4, 1)
    assert run_npb(misreport)[0].mapping == (4, 3, 2, 1)
    # club 3 truly ranks 2 above 4, so the lie paid off
    assert truthful.profile.prefers(3, 2, 4)


def test_npb_needs_three_clubs():
    with pytest.raises(Infeasible):
        run_npb(make_problem([(2, 1), (1, 2)]))


def test_npb_last_two_rule():
    # whenever two clubs remain unassigned, each ends up with the other's player
    for profile in reduced_profiles(4):
        prob = Problem(profile=profile)
        _, trace = run_npb(prob)
        last_two = [s for s in trace.steps if s.kind == "last-two"]
        assert len(last_two) <= 1
        for s in last_two:
            assert s.worker != s.chooser


# -- dispatch -------------------------------------------------------------------


def test_run_mechanism_dispatch():
    prob = chain_example()
    assert run_mechanism("csd", prob).mapping == (4, 5, 6, 2, 1, 3)
    assert run_mechanism(MechanismId("tsd"), prob).mapping == (5, 4, 6, 2, 1, 3)
    assert run_mechanism("sd", prob) == run_sd_within_groups(prob, prob.priority)
    tilted = run_mechanism(MechanismId("sd", order=(6, 5, 4, 3, 2, 1)), prob)
    assert tilted == run_sd_within_groups(prob, (6, 5, 4, 3, 2, 1))
    assert run_mechanism(MechanismId("cettc", seed=3, mu0="random"), prob) == (
        run_cettc(prob, "random", 3)[0]
    )
    with pytest.raises(MalformedProblem):
        run_mechanism("nope", prob)


def test_mechanism_tags_cover_dispatch():
    prob = make_problem([(2, 3, 1), (3, 1, 2), (1, 2, 3)])
    for tag in MECHANISM_TAGS:
        assert run_mechanism(tag, prob).n == 3


# -- full-exchange guarantees ---------------------------------------------------


def test_derangement_exhaustive_n3_full_space():
    count = 0
    for profile in full_profiles(3):
        prob = Problem(profile=profile)
        for tag in CE_TAGS:
            assert run_mechanism(tag, prob).is_derangement(), (tag, profile.orders)
        count += 1
    assert count == 216


def test_derangement_exhaustive_n4_reduced():
    count = 0
    for profile in reduced_profiles(4):
        prob = Problem(profile=profile)
        for tag in CE_TAGS:
            assert run_mechanism(tag, prob).is_derangement(), (tag, profile.orders)
        count += 1
    assert count == 1296


@pytest.mark.parametrize("n", [5, 6, 12])
def test_derangement_sampled(n):
    rng = random.Random(20240817 + n)
    for _ in range(10**4 if n < 12 else 2000):
        prob = Problem(profile=complete_partial_profile(random_full_rows(rng, n)))
        for tag in CE_TAGS:
            assert run_mechanism(tag, prob).is_derangement()


def test_group_pools_respected():
    # each division's worker comes from its group's pool
    for n, partition in ((3, canonical_partition(3)), (4, canonical_partition(4))):
        for profile in reduced_profiles(n):
            prob = Problem(profile=profile, partition=partition)
            for tag in ("csd", "tsd", "sd"):
                a = run_mechanism(tag, prob)
                for i in range(1, n + 1):
                    assert a.worker_of(i) in partition.choice_set(i)


def test_uneven_partition_pools_respected():
    partition = largest_first_construct(blocks_from_sizes([1, 1, 2]))
    for profile in reduced_profiles(4):
        prob = Problem(profile=profile, partition=partition)
        for tag in ("csd", "tsd", "sd"):
            a = run_mechanism(tag, prob)
            for i in range(1, 5):
                assert a.worker_of(i) in partition.choice_set(i)


# -- dictatorship-form invariants ------------------------------------------------


def test_final_order_equivalence_exhaustive():
    for n in (3, 4):
        for profile in reduced_profiles(n):
            prob = Problem(profile=profile)
            for tag, run in (("csd", run_csd), ("tsd", run_tsd)):
                fo = final_order(prob, tag)
                assert run_sd_within_groups(prob, fo.global_order) == run(prob)[0]


def test_final_order_equivalence_sampled_n6():
    rng = random.Random(99)
    for _ in range(300):
        prob = Problem(profile=complete_partial_profile(random_full_rows(rng, 6)))
        for tag, run in (("csd", run_csd), ("tsd", run_tsd)):
            fo = final_order(prob, tag)
            assert run_sd_within_groups(prob, fo.global_order) == run(prob)[0]


def test_interleaving_invariance():
    # only the per-group relative order matters to the groupwise dictatorship
    rng = random.Random(7)
    part = canonical_partition(6)
    for _ in range(100):
        prob = Problem(
            profile=complete_partial_profile(random_full_rows(rng, 6)),
            partition=part,
        )
        order = list(range(1, 7))
        rng.shuffle(order)
        baseline = run_sd_within_groups(prob, order)
        by_group = [[i for i in order if i in g.divisions] for g in part.groups]
        for _ in range(5):
            merged, queues = [], [list(g) for g in by_group]
            while any(queues):
                k = rng.choice([j for j, q in enumerate(queues) if q])
                merged.append(queues[k].pop(0))
            assert run_sd_within_groups(prob, merged) == baseline


# -- predecessor preservation ----------------------------------------------------


def restricted(row, pool):
    return tuple(w for w in row if w in pool)


def conditions_hold(prob_a, prob_b, i, tag):
    """The three-part premise: a's within-group predecessors of i survive in
    b's order, in the same relative order, with identical preferences over
    the group pool."""
    part = prob_a.partition or canonical_partition(prob_a.n)
    k = part.group_index_of(i)
    pool = part.groups[k].workers
    ga = final_order(prob_a, tag).group_orders[k]
    gb = final_order(prob_b, tag).group_orders[k]
    pre_a = ga[: ga.index(i)]
    pre_b = gb[: gb.index(i)]
    if not set(pre_a) <= set(pre_b):
        return False
    if tuple(j for j in pre_b if j in set(pre_a)) != pre_a:
        return False
    return all(
        restricted(prob_a.profile.order_of(j), pool)
        == restricted(prob_b.profile.order_of(j), pool)
        for j in pre_a
    )


def outcome_weakly_better(prob_a, prob_b, i, tag):
    wa = run_mechanism(tag, prob_a).worker_of(i)
    wb = run_mechanism(tag, prob_b).worker_of(i)
    return prob_a.profile.weakly_prefers(i, wa, wb)


@pytest.mark.parametrize("tag", ["csd", "tsd"])
@pytest.mark.parametrize("sizes", [(2, 2), (1, 1, 2)])
def test_predecessor_preservation_exhaustive_n4(tag, sizes):
    """Bucketed exhaustive check over all reduced profiles at n=4.

    Groups have at most two members, so i's predecessor set is empty or a
    single j.  Profiles whose signature (predecessor, its pool-restricted
    row) matches pairwise satisfy the premise, so each profile's outcome for
    i must be weakly best, by its own row, within its bucket's outcome set.
    """
    part = largest_first_construct(blocks_from_sizes(list(sizes)))
    profiles = list(reduced_profiles(4))
    runs = {}
    for profile in profiles:
        prob = Problem(profile=profile, partition=part)
        fo = final_order(prob, tag)
        runs[profile] = (fo, run_mechanism(tag, prob))
    for i in range(1, 5):
        k = part.group_index_of(i)
        pool = part.groups[k].workers
        buckets = {}
        for profile in profiles:
            fo, assignment = runs[profile]
            gk = fo.group_orders[k]
            pre = gk[: gk.index(i)]
            sig = tuple((j, restricted(profile.order_of(j), pool)) for j in pre)
            buckets.setdefault(sig, []).append((profile, assignment.worker_of(i)))
        for sig, members in buckets.items():
            outcomes = {w for _, w in members}
            if not sig:
                # no predecessors: i picks first, so it must get its pool top
                for profile, w in members:
                    assert w == profile.top(i, pool)
            else:
                for profile, w in members:
                    assert all(
                        profile.weakly_prefers(i, w, other) for other in outcomes
                    ), (tag, sizes, i, sig, profile.orders)


@pytest.mark.parametrize("tag", ["csd", "tsd"])
def test_predecessor_preservation_sampled_n6(tag):
    # perturb random profiles and evaluate the premise honestly on realized
    # orders; whenever it holds the mover's outcome may not improve
    rng = random.Random(20240817)
    hits = 0
    for _ in range(250):
        rows = random_full_rows(rng, 6)
        prob_a = Problem(profile=complete_partial_profile(rows))
        mutated = [
            row if rng.random() < 0.6 else tuple(rng.sample(range(1, 7), 6))
            for row in rows
        ]
        prob_b = Problem(profile=complete_partial_profile(mutated))
        for i in range(1, 7):
            if conditions_hold(prob_a, prob_b, i, tag):
                hits += 1
                assert outcome_weakly_better(prob_a, prob_b, i, tag)
    assert hits > 100


# -- property-based spot checks ---------------------------------------------------


@st.composite
def reduced_problem(draw, n_min=3, n_max=5):
    n = draw(st.integers(n_min, n_max))
    rows = [draw(st.permutations([w for w in range(1, n + 1) if w != i])) for i in range(1, n + 1)]
    return Problem(profile=complete_partial_profile([tuple(r) for r in rows], n))


@settings(max_examples=120, deadline=None)
@given(reduced_problem())
def test_property_full_exchange(prob):
    for tag in CE_TAGS:
        a = run_mechanism(tag, prob)
        assert a.is_derangement()


@settings(max_examples=120, deadline=None)
@given(reduced_problem())
def test_property_pools_and_final_orders(prob):
    part = canonical_partition(prob.n)
    for tag, run in (("csd", run_csd), ("tsd", run_tsd)):
        a = run(prob)[0]
        fo = final_order(prob, tag)
        assert run_sd_within_groups(prob, fo.global_order) == a
        for i in range(1, prob.n + 1):
            assert a.worker_of(i) in part.choice_set(i)


# -- slow twins: the set-based helpers the cores once shared --------------------------


def twin_first_available(order, available):
    for w in order:
        if w in available:
            return w
    raise AssertionError("empty choice set")


def twin_cycles(succ, nodes):
    """Cycles of a functional graph restricted to ``nodes``, each cycle as a
    tuple starting at its smallest member, cycles sorted by that member."""
    nodes = set(nodes)
    on_cycle = set()
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        path = []
        pos = {}
        v = start
        while v not in pos and v not in seen:
            pos[v] = len(path)
            path.append(v)
            v = succ[v]
        if v in pos:  # fresh cycle closed
            on_cycle.update(path[pos[v] :])
        seen.update(path)
    out = []
    done = set()
    for v in sorted(on_cycle):
        if v in done:
            continue
        cyc = [v]
        w = succ[v]
        while w != v:
            cyc.append(w)
            w = succ[w]
        done.update(cyc)
        out.append(tuple(cyc))
    return out


# -- the ttc core against its round-based twin ---------------------------------------

def round_ttc_core(orders):
    """Slow twin of the path-following core: every round each remaining
    division points at its best remaining worker and every cycle clears."""
    n = len(orders)
    active = set(range(1, n + 1))
    mapping = [0] * n
    while active:
        point = {i: twin_first_available(orders[i - 1], active) for i in active}
        for cyc in twin_cycles(point, active):  # worker j's owner is division j
            for i in cyc:
                mapping[i - 1] = point[i]
            active.difference_update(cyc)
    return tuple(mapping), None


def test_ttc_core_matches_rounds_full_space_n3():
    perms = list(itertools.permutations(range(1, 4)))
    for orders in itertools.product(perms, repeat=3):
        assert _ttc_core(orders) == round_ttc_core(orders), orders


def test_ttc_core_matches_rounds_n4_stride():
    # every 31st of the 331,776 full n=4 profiles (31 is prime to 24)
    perms = list(itertools.permutations(range(1, 5)))
    for orders in itertools.islice(itertools.product(perms, repeat=4), 0, None, 31):
        assert _ttc_core(orders) == round_ttc_core(orders), orders


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10).flatmap(
    lambda n: st.tuples(*[st.permutations(list(range(1, n + 1))).map(tuple) for _ in range(n)])
))
def test_ttc_core_matches_rounds(orders):
    assert _ttc_core(orders) == round_ttc_core(orders)


# -- the pool cores against their set-rebuilding twins ---------------------------------


def twin_sd_groups_core(order, group_of, pools, orders):
    """Slow twin of the sd core: each pick rebuilds the pool minus the
    workers taken so far."""
    n = len(orders)
    taken = set()
    mapping = [0] * n
    for i in order:
        pool = pools[group_of[i]]
        w = twin_first_available(orders[i - 1], set(pool) - taken)
        mapping[i - 1] = w
        taken.add(w)
    return tuple(mapping), None


def twin_csd_core(priority, group_of, pools, orders):
    """Slow twin of the csd core: sets rebuilt per pick, and the fallback is
    the unchosen division first in the priority, found by min."""
    n = len(orders)
    pr_pos = {i: p for p, i in enumerate(priority)}
    taken = set()
    unchosen = set(range(1, n + 1))
    mapping = [0] * n
    steps = []
    chooser, kind = priority[0], "start"
    for t in range(1, n + 1):
        pool = set(pools[group_of[chooser]]) - taken
        w = twin_first_available(orders[chooser - 1], pool)
        mapping[chooser - 1] = w
        taken.add(w)
        unchosen.discard(chooser)
        steps.append((t, chooser, w, kind))
        if not unchosen:
            break
        if w in unchosen:  # owner of worker w is division w
            chooser, kind = w, "owner-call"
        else:
            chooser, kind = min(unchosen, key=pr_pos.__getitem__), "fallback"
    return tuple(mapping), steps


def twin_tsd_core(priority, group_of, pools, orders):
    """Slow twin of the tsd core, over the twin sd core."""
    available = set(range(1, len(orders) + 1))
    noms = []
    for t, i in enumerate(priority, start=1):
        pool = set(pools[group_of[i]]) & available
        w = twin_first_available(orders[i - 1], pool)
        available.discard(w)
        noms.append((t, i, w, "nominate"))
    final = tuple(s[2] for s in noms)
    return twin_sd_groups_core(final, group_of, pools, orders)[0], noms


POOL_CORES = ((_csd_core, twin_csd_core), (_tsd_core, twin_tsd_core), (_sd_groups_core, twin_sd_groups_core))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_pool_cores_match_twins_every_partition_and_priority(n):
    # every reduced profile meets every partition; at n=4 each priority runs
    # one seventh of the 1,296 profiles, a rotating seventh, to keep this fast
    partitions = all_assignment_partitions(n)
    profiles = [p.orders for p in reduced_profiles(n)]
    for partition in partitions:
        tables = _group_tables(partition)
        for k, priority in enumerate(itertools.permutations(range(1, n + 1))):
            for orders in profiles[k % 7 :: 7] if n == 4 else profiles:
                for core, twin in POOL_CORES:
                    assert core(priority, *tables, orders) == twin(priority, *tables, orders), (
                        core.__name__, partition, priority, orders,
                    )


@st.composite
def pool_core_case(draw):
    n = draw(st.integers(5, 9))
    sizes = []  # no group holds more than half of the divisions
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(n - sum(sizes), n // 2))))
    divisions = draw(st.permutations(range(1, n + 1)))
    cuts = list(itertools.accumulate(sizes))
    groups = [divisions[a:b] for a, b in zip([0] + cuts, cuts)]
    partition = largest_first_construct(groups)
    priority = tuple(draw(st.permutations(range(1, n + 1))))
    orders = tuple(tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(n))
    return partition, priority, orders


@settings(max_examples=300, deadline=None)
@given(pool_core_case())
def test_pool_cores_match_twins_sampled(case):
    # the priority doubles as the sd order; full orders, so own workers sit anywhere
    partition, priority, orders = case
    tables = _group_tables(partition)
    for core, twin in POOL_CORES:
        assert core(priority, *tables, orders) == twin(priority, *tables, orders)


# -- the traced trading and draft cores against their set-rebuilding twins ------------


def twin_cettc_core(mu0, orders):
    """Slow twin of the cettc core: each round rebuilds the set of present
    workers and, per division, that set minus its own worker."""
    n = len(orders)
    holder = {mu0[i - 1]: i for i in range(1, n + 1)}  # worker -> temp owner
    active = set(range(1, n + 1))
    mapping = [0] * n
    events = []
    while active:
        avail = {mu0[j - 1] for j in active}
        point = {}
        for i in active:
            point[i] = twin_first_available(orders[i - 1], avail - {i})
        succ = {i: holder[point[i]] for i in active}
        for cyc in twin_cycles(succ, active):
            for i in cyc:
                mapping[i - 1] = point[i]
                events.append((len(events) + 1, i, point[i], "cycle"))
            active.difference_update(cyc)
    return tuple(mapping), events


def twin_bttc_core(orders):
    """Slow twin of the bttc core: rank dicts, and each step a min over the
    other remaining divisions."""
    n = len(orders)
    ranks = tuple({w: r for r, w in enumerate(o)} for o in orders)

    def pref(i, a, b):
        return ranks[i - 1][a] < ranks[i - 1][b]

    active = set(range(1, n + 1))
    p = {}
    stages = []  # list of (step, [cycles...])
    step = 0
    while active:
        step += 1
        for i in active:
            others = active - {i}
            p[i] = min(others, key=ranks[i - 1].__getitem__) if others else i
        cycs = twin_cycles({i: p[i] for i in active}, active)
        stages.append((step, cycs))
        for cyc in cycs:
            active.difference_update(cyc)

    mapping = [0] * n
    decided = []
    labels = {}
    for step, cycs in reversed(stages):
        for cyc in cycs:
            stay = all(pref(i, i, p[i]) for i in cyc)
            if stay and decided:
                stay = all(pref(j, mapping[j - 1], x) for j in decided for x in cyc)
            for i in cyc:
                mapping[i - 1] = i if stay else p[i]
        for cyc in cycs:
            decided.extend(cyc)
            for i in cyc:
                labels[i] = "stay" if mapping[i - 1] == i else "trade"
    events = []
    for step, cycs in stages:
        for cyc in cycs:
            for i in cyc:
                events.append((len(events) + 1, i, mapping[i - 1], labels[i]))
    return tuple(mapping), events


def twin_npb_draft(orders, priority):
    """Slow twin of the draft order: sorted by (-votes received, priority
    position)."""
    n = len(orders)
    vote = {}
    for i in range(1, n + 1):
        vote[i] = next(w for w in orders[i - 1] if w != i)
    count = {i: 0 for i in range(1, n + 1)}
    for w in vote.values():
        count[w] += 1
    pr_pos = {i: p for p, i in enumerate(priority)}
    draft = sorted(range(1, n + 1), key=lambda i: (-count[i], pr_pos[i]))
    return tuple(draft)


def twin_npb_core(priority, orders):
    """Slow twin of the npb core: sets of available players and unassigned
    clubs, and the fallback found by min over draft positions."""
    n = len(orders)
    if n < 3:
        raise Infeasible("the draft mechanism needs at least three clubs")
    vote = {i: next(w for w in orders[i - 1] if w != i) for i in range(1, n + 1)}
    draft = twin_npb_draft(orders, priority)
    draft_pos = {i: p for p, i in enumerate(draft)}
    available = set(range(1, n + 1))
    unassigned = set(range(1, n + 1))
    mapping = [0] * n
    steps = []
    chooser, kind = draft[0], "start"
    for t in range(1, n + 1):
        if len(unassigned) == 2:
            other = (unassigned - {chooser}).pop()
            assert other in available, "endgame player already taken"
            w, kind = other, "last-two"
        elif len(unassigned) == 1:
            w = next(iter(available))
            assert w != chooser, "last club left with its own player"
        elif vote[chooser] in available:
            w = vote[chooser]
        else:
            w = twin_first_available(orders[chooser - 1], available - {chooser})
        mapping[chooser - 1] = w
        available.discard(w)
        unassigned.discard(chooser)
        steps.append((t, chooser, w, kind))
        if not unassigned:
            break
        if w in unassigned:
            chooser, kind = w, "owner-call"
        else:
            chooser, kind = min(unassigned, key=draft_pos.__getitem__), "fallback"
    return tuple(mapping), steps


def derangements(n):
    return [p for p in itertools.permutations(range(1, n + 1)) if all(w != i for i, w in enumerate(p, 1))]


def assert_traced_cores_match(orders, mu0s, priorities):
    assert _bttc_core(orders) == twin_bttc_core(orders), orders
    for mu0 in mu0s:
        assert _cettc_core(mu0, orders) == twin_cettc_core(mu0, orders), (mu0, orders)
    if len(orders) >= 3:  # the draft needs three clubs
        for priority in priorities:
            assert _npb_core(priority, orders) == twin_npb_core(priority, orders), (priority, orders)
            assert _npb_draft(orders, priority)[1] == twin_npb_draft(orders, priority), (priority, orders)


@pytest.mark.parametrize("n, space", [(2, full_profiles), (3, full_profiles), (4, reduced_profiles)])
def test_traced_cores_match_twins_every_mu0_and_priority(n, space):
    # every profile of the space under every derangement mu0 (9 at n=4) and
    # every priority
    mu0s = derangements(n)
    priorities = list(itertools.permutations(range(1, n + 1)))
    for profile in space(n):
        assert_traced_cores_match(profile.orders, mu0s, priorities)


@pytest.mark.parametrize("share", range(7))
def test_bttc_core_matches_twin_full_n4_share(share):
    # a seventh of every 31st full n=4 profile per case, rotating with the
    # case, so the seven cases cover every 31st profile (31 is prime to 24)
    perms = list(itertools.permutations(range(1, 5)))
    stride = itertools.islice(itertools.product(perms, repeat=4), 0, None, 31)
    for orders in itertools.islice(stride, share, None, 7):
        assert _bttc_core(orders) == twin_bttc_core(orders), orders


@st.composite
def traced_core_case(draw):
    n = draw(st.integers(5, 9))
    orders = tuple(tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(n))
    mu0 = tuple(draw(st.permutations(range(1, n + 1)).filter(
        lambda p: all(w != i for i, w in enumerate(p, 1)))))
    priority = tuple(draw(st.permutations(range(1, n + 1))))
    return orders, mu0, priority


@settings(max_examples=300, deadline=None)
@given(traced_core_case())
def test_traced_cores_match_twins_sampled(case):
    orders, mu0, priority = case
    assert_traced_cores_match(orders, [mu0], [priority])
