import functools
import itertools
import math
import mmap
import multiprocessing
import operator
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from reassign import verifier
from reassign.mechanisms import MECHANISM_TAGS, MECHANISMS, run_mechanism
from reassign.model import (
    EnumerationBoundExceeded,
    Infeasible,
    MalformedProblem,
    MechanismId,
    PreferenceProfile,
    Problem,
    all_orders_excluding,
    complete_partial_profile,
    pareto_dominates,
)
from reassign.partition import blocks_from_sizes, canonical_partition, largest_first_construct
from reassign.verifier import (
    CHECKS,
    ORACLES,
    Scope,
    cee_set,
    certify_ri_violation,
    check_ce,
    check_cee,
    check_eap,
    check_own_position_invariance,
    check_pareto,
    check_ri,
    check_sp,
    derangements,
    eap_efficient,
    eap_feasible,
    enumerate_improvements,
    is_ce_efficient,
    is_improvement,
    pareto_efficient,
    revalidate_witness,
    scan_ce_efficient_selections,
    universal_impossibility_scan,
)

REDUCED = ("csd", "tsd", "cettc", "npb", "sd")


def reduced_profiles(n):
    spaces = [all_orders_excluding(n, i) for i in range(1, n + 1)]
    for rows in itertools.product(*spaces):
        yield complete_partial_profile(list(rows), n)


def random_profile(rng, n):
    rows = []
    for _ in range(n):
        row = list(range(1, n + 1))
        rng.shuffle(row)
        rows.append(tuple(row))
    return PreferenceProfile(tuple(rows))


# -- efficiency oracles ---------------------------------------------------------


def test_derangements_n3():
    assert derangements(3) == ((2, 3, 1), (3, 1, 2))
    assert len(derangements(4)) == 9
    with pytest.raises(EnumerationBoundExceeded):
        derangements(10)


def test_cee_set_n2():
    p = complete_partial_profile([(2,), (1,)])
    assert cee_set(p) == [(2, 1)]


def test_cee_set_three_division_pair():
    base = complete_partial_profile([(2, 3), (3, 1), (1, 2)])
    improved = complete_partial_profile([(2, 3), (1, 3), (1, 2)])
    assert cee_set(base) == [(2, 3, 1)]
    assert cee_set(improved) == [(2, 3, 1), (3, 1, 2)]


def test_cee_set_matches_membership_filter_n3():
    # reference: each derangement against every other, by enumeration
    for n in (3, 4):
        for profile in reduced_profiles(n):
            direct = [d for d in derangements(n) if brute_ce_efficient(profile, d)]
            assert cee_set(profile) == direct


def test_cee_set_bound():
    rows = [tuple(w for w in range(1, 11) if w != i) for i in range(1, 11)]
    p = complete_partial_profile(rows, 10)
    with pytest.raises(EnumerationBoundExceeded):
        cee_set(p)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(*[st.permutations(list(range(1, n + 1))).map(tuple) for _ in range(n)])))
def test_cee_set_is_a_nonempty_antichain(orders):
    p = PreferenceProfile(orders)
    front = cee_set(p)
    assert front
    for m in front:
        assert all(w != i for i, w in enumerate(m, start=1))
    for a, b in itertools.combinations(front, 2):
        assert not pareto_dominates(p, a, b)
        assert not pareto_dominates(p, b, a)


def test_eap_equals_cee_for_two_divisions():
    part = canonical_partition(2)
    for rows in itertools.product([(1, 2), (2, 1)], repeat=2):
        p = PreferenceProfile(rows)
        eap = [m for m in itertools.permutations((1, 2)) if eap_feasible(part, m) and eap_efficient(p, part, m)]
        assert eap == cee_set(p)


# Slow twins of the efficiency oracles: each enumerates the assignments that
# could dominate, as differential references for the envy-graph test.


def brute_ce_efficient(profile, mapping):
    return not any(pareto_dominates(profile, d, mapping) for d in derangements(profile.n))


def brute_eap_efficient(profile, partition, mapping):
    # Feasible assignments factor into independent per-group bijections and
    # preferences do not interact across groups, so a dominating feasible
    # assignment exists iff some single group admits a within-group
    # reassignment that is weakly better for all its members and strictly
    # better for one.
    m = tuple(mapping)
    if not eap_feasible(partition, m):
        return False
    for g in partition.groups:
        divs = g.divisions
        cur = [profile.rank(i, m[i - 1]) for i in divs]
        for perm in itertools.permutations(g.workers):
            strict = False
            for i, w, c in zip(divs, perm, cur):
                r = profile.rank(i, w)
                if r > c:
                    break
                if r < c:
                    strict = True
            else:
                if strict:
                    return False
    return True


def brute_pareto_efficient(profile, mapping):
    perms = itertools.permutations(range(1, profile.n + 1))
    return not any(pareto_dominates(profile, p, mapping) for p in perms)


# group sizes of the partitions eap is checked under, one with a singleton
# group wherever n allows two shapes
PARTITION_SIZES = {
    2: ([1, 1],),
    3: ([1, 1, 1],),
    4: ([2, 2], [1, 1, 2]),
    5: ([1, 2, 2], [1, 1, 1, 2]),
    6: ([3, 3], [1, 2, 3]),
}


def oracle_pairs(name, n):
    """(fast oracle, slow twin) pairs over (profile, mapping)."""
    if name == "pareto":
        return [(pareto_efficient, brute_pareto_efficient)]
    if name == "cee":
        return [(is_ce_efficient, brute_ce_efficient)]
    pairs = []
    for sizes in PARTITION_SIZES[n]:
        part = largest_first_construct(blocks_from_sizes(sizes))
        pairs.append((
            lambda p, m, part=part: eap_efficient(p, part, m),
            lambda p, m, part=part: brute_eap_efficient(p, part, m),
        ))
    return pairs


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("name", ("pareto", "cee", "eap"))
def test_efficiency_oracle_matches_brute_force(name, n):
    # every assignment, derangement and partition-feasible or not, against
    # full profiles and own-last ones
    rng = random.Random(n)
    profiles = [random_profile(rng, n) for _ in range(12)]
    others = [[w for w in range(1, n + 1) if w != i] for i in range(1, n + 1)]
    profiles += [
        complete_partial_profile([rng.sample(row, n - 1) for row in others], n)
        for _ in range(12)
    ]
    for fast, brute in oracle_pairs(name, n):
        for p in profiles:
            for m in itertools.permutations(range(1, n + 1)):
                assert fast(p, m) == brute(p, m), (p.orders, m)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.permutations(list(range(1, n + 1))).map(tuple) for _ in range(n)]),
            st.permutations(list(range(1, n + 1))).map(tuple),
        )
    )
)
def test_efficiency_oracles_match_brute_force_sampled(case):
    orders, m = case
    p = PreferenceProfile(orders)
    for name in ("pareto", "cee", "eap"):
        for fast, brute in oracle_pairs(name, len(m)):
            assert fast(p, m) == brute(p, m)


def test_pareto_efficient_past_the_enumeration_bound():
    # a real verdict at n=8, checked against all 40,320 assignments
    rng = random.Random(5)
    p = random_profile(rng, 8)
    ttc = run_mechanism("ttc", Problem(profile=p))
    for m in (ttc.mapping, tuple(range(1, 9)), tuple(range(8, 0, -1))):
        assert pareto_efficient(p, m) == brute_pareto_efficient(p, m)
    assert pareto_efficient(p, ttc.mapping)


# Slow twin of the bitmask envy graph: the same test over envy lists and sets.


def list_dominated(orders, m, allowed):
    holder = dict(zip(m, range(len(m))))
    envy, stuck = [], set()
    for i, (o, own) in enumerate(zip(orders, m), start=1):
        envy.append([holder[w] for w in o[: o.index(own)] if allowed(i, w)])
        if not allowed(i, own):
            stuck.add(i - 1)
    if not stuck:
        live = {i for i, e in enumerate(envy) if e}
        while live:
            keep = {i for i in live if not live.isdisjoint(envy[i])}
            if keep == live:
                return True
            live = keep
        return False
    taker = {}
    for i, e in enumerate(envy):
        if i not in stuck:
            e.append(i)
            taker[i] = i
    return all(verifier._augment(envy, taker, s) for s in stuck)


# two partition shapes per size, for the eap pools past brute force's reach
LARGE_PARTITION_SIZES = {
    6: ([3, 3], [1, 2, 3]),
    7: ([2, 2, 3], [1, 3, 3]),
    8: ([4, 4], [2, 3, 3]),
    9: ([1, 4, 4], [3, 3, 3]),
}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(6, 9).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.permutations(list(range(1, n + 1))).map(tuple) for _ in range(n)]),
            st.permutations(list(range(1, n + 1))).map(tuple),
        )
    )
)
def test_bitmask_envy_graph_matches_lists(case):
    # all three forms of ``allowed``, on a random assignment and on the ttc
    # outcome (which no assignment dominates)
    orders, m = case
    n = len(m)
    ttc = run_mechanism("ttc", Problem(profile=PreferenceProfile(orders))).mapping
    forms = [(None, lambda i, w: True), (operator.ne, operator.ne)]
    for sizes in LARGE_PARTITION_SIZES[n]:
        part = largest_first_construct(blocks_from_sizes(sizes))
        pool = {i: g.workers for g in part.groups for i in g.divisions}
        eap = lambda i, w, pool=pool: w in pool[i]
        forms.append((eap, eap))
    for fast, slow in forms:
        for a in (m, ttc):
            assert verifier._dominated(orders, a, fast) == list_dominated(orders, a, slow)
    assert not verifier._dominated(orders, ttc, None)


# Slow twin of the cee witness: the first dominating derangement by
# enumerating all of them.


def enumerated_first_dominating(orders, m):
    profile = PreferenceProfile(orders)
    return next((d for d in derangements(len(m)) if pareto_dominates(profile, d, m)), None)


def test_first_dominating_derangement_matches_enumeration_n3():
    perms = list(itertools.permutations(range(1, 4)))
    for orders in itertools.product(perms, repeat=3):
        for m in perms:
            expected = enumerated_first_dominating(orders, m)
            assert verifier._first_dominating_derangement(orders, m) == expected, (orders, m)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.permutations(list(range(1, n + 1))).map(tuple) for _ in range(n)]),
            st.permutations(list(range(1, n + 1))).map(tuple),
        )
    )
)
def test_first_dominating_derangement_matches_enumeration(case):
    orders, m = case
    assert verifier._first_dominating_derangement(orders, m) == enumerated_first_dominating(orders, m)


def test_cee_witness_past_the_derangement_bound():
    # a failing cee check at n=10 gives a verdict, and its witness is the
    # lexicographically first derangement that dominates the outcome
    report = check_cee("csd", 10, Scope("sampled", 10, count=20, seed=1))
    assert not report.holds and revalidate_witness(report.witness)
    w = report.witness
    orders = tuple(map(tuple, w["problem"]["preferences"]))
    (d,) = w["dominating"]
    assert all(x != i for i, x in enumerate(d, start=1))
    assert pareto_dominates(PreferenceProfile(orders), d, w["outcome"])
    assert tuple(d) == verifier._first_dominating_derangement(orders, tuple(w["outcome"]))


# -- improvement relation --------------------------------------------------------


def test_is_improvement_basics():
    base = complete_partial_profile([(2, 3), (3, 1), (1, 2)])
    assert is_improvement(base, base, 1)
    lifted = base.with_order(2, (1, 3, 2))
    assert is_improvement(base, lifted, 1)
    assert not is_improvement(lifted, base, 1)  # lowering is not an improvement
    assert not is_improvement(base, base.with_order(1, (3, 2, 1)), 1)  # own row moved
    # swapping two other workers breaks their relative order
    shuffled = base.with_order(2, (3, 2, 1))
    assert not is_improvement(base, shuffled, 1)


def test_enumerate_improvements_matches_brute_filter_n3():
    perms = list(itertools.permutations((1, 2, 3)))
    space = [PreferenceProfile(rows) for rows in itertools.product(perms, repeat=3)]
    rng = random.Random(9)
    for base in rng.sample(space, 12):
        for i in (1, 2, 3):
            got = {p.orders for p in enumerate_improvements(base, i)}
            brute = {p.orders for p in space if is_improvement(base, p, i)}
            assert got == brute


def test_certify_ri_violation():
    base = complete_partial_profile([(1, 2, 3), (3, 1, 2), (2, 3, 1)])
    improved = complete_partial_profile([(1, 2, 3), (1, 3, 2), (2, 3, 1)])
    assert certify_ri_violation(base, improved, 1, (1, 3, 2), (2, 1, 3))
    # not a loss in the other direction
    assert not certify_ri_violation(base, improved, 1, (2, 1, 3), (1, 3, 2))
    # not an improvement pair for division 2
    assert not certify_ri_violation(base, improved, 2, (1, 3, 2), (2, 1, 3))


# -- property sweeps -------------------------------------------------------------


def test_dictatorship_properties_hold_n3():
    for tag in ("csd", "tsd", "sd"):
        for check in (check_sp, check_ri, check_eap):
            report = check(tag, 3)
            assert report.holds, (tag, check.__name__, report.witness)
            assert report.scope.kind == "exhaustive"
    assert check_sp("sd", 4).holds and check_ri("sd", 4).holds


def test_full_exchange_holds_n3():
    for tag in REDUCED:
        report = check_ce(tag, 3)
        assert report.holds and report.checked == 8


def test_report_shape():
    report = check_sp("csd", 3)
    d = report.to_dict()
    assert list(d) == [
        "property",
        "mechanism",
        "scope",
        "verdict",
        "checked",
        "comparisons",
        "witness",
        "elapsed_s",
        "note",
    ]
    assert d["verdict"] == "holds" and d["witness"] is None
    assert d["scope"] == {"kind": "exhaustive", "n": 3}


def test_trading_ri_minimal_witness():
    report = check_ri("cettc", 3)
    assert not report.holds
    w = report.witness
    assert w["kind"] == "ri" and w["division"] == 1
    assert w["problem"]["preferences"] == [[3, 2, 1], [1, 3, 2], [2, 1, 3]]
    assert w["improved_problem"]["preferences"] == [[3, 2, 1], [1, 3, 2], [1, 2, 3]]
    assert w["outcome"] == [3, 1, 2]
    assert w["improved_outcome"] == [2, 3, 1]
    assert revalidate_witness(w)


def test_trading_ri_witness_stable_across_jobs():
    solo = check_ri("cettc", 3, jobs=1)
    multi = check_ri("cettc", 3, jobs=2)
    assert solo.witness == multi.witness
    assert (solo.holds, solo.checked) == (multi.holds, multi.checked)


def test_draft_violations_revalidate():
    sp4 = check_sp("npb", 4)
    assert not sp4.holds and revalidate_witness(sp4.witness)
    ri3 = check_ri("npb", 3)
    assert not ri3.holds and revalidate_witness(ri3.witness)
    assert check_sp("npb", 3).holds
    assert check_cee("npb", 3).holds


def test_backward_trading_violations_revalidate():
    ce = check_ce("bttc", 3)
    assert not ce.holds and ce.witness["kind"] == "ce"
    assert revalidate_witness(ce.witness)
    ri = check_ri("bttc", 3)
    assert not ri.holds and revalidate_witness(ri.witness)


def test_trading_efficiency_holds_n3():
    assert check_cee("cettc", 3).holds
    assert check_eap("csd", 3).holds
    assert check_pareto_like_alias()


def check_pareto_like_alias():
    # classic ttc is pareto efficient on the unrestricted market
    return CHECKS["pareto"]("ttc", 3).holds


def test_sampled_scopes():
    report = check_sp("cettc", 5, Scope("sampled", 5, count=300, seed=1))
    assert report.holds and report.checked == 300
    assert check_sp("csd", 6, Scope("sampled", 6, count=200, seed=2)).holds
    assert check_ri("tsd", 6, Scope("sampled", 6, count=150, seed=3)).holds


# -- sampled draws against their random.Random twins --------------------------------


def twin_sample_orders(rng, n, reduced):
    """Slow twin of the sampled profile draw: ``rng.shuffle`` per row."""
    orders = []
    for i in range(1, n + 1):
        pool = [w for w in range(1, n + 1) if w != i] if reduced else list(range(1, n + 1))
        rng.shuffle(pool)
        if reduced:
            pool.append(i)
        orders.append(tuple(pool))
    return tuple(orders)


def twin_sp_draw(rng, orders, i, reduced):
    """Slow twin of the sp deviation: a whole fresh profile, one row kept."""
    return orders[: i - 1] + (twin_sample_orders(rng, len(orders), reduced)[i - 1],) + orders[i:]


def twin_ri_draw(rng, orders, i, reduced):
    """Slow twin of the ri deviation: ``rng.choice`` over every raise."""
    return tuple(
        o if j == i else rng.choice(verifier._raised_orders(o, i)) for j, o in enumerate(orders, 1)
    )


@pytest.mark.parametrize("reduced", (True, False))
@pytest.mark.parametrize("n", range(1, 10))
def test_draws_match_random_word_for_word(n, reduced):
    # fails if CPython changes how shuffle or _randbelow draw their words
    for seed in range(60):
        rng, twin = random.Random(seed), random.Random(seed)
        orders = verifier._sample_orders(rng, n, reduced)
        assert orders == twin_sample_orders(twin, n, reduced)
        assert rng.getstate() == twin.getstate()
        for i in range(1, n + 1):
            for draw, twin_draw in ((verifier._sp_draw, twin_sp_draw), (verifier._ri_draw, twin_ri_draw)):
                assert draw(rng, orders, i, reduced) == twin_draw(twin, orders, i, reduced)
                assert rng.getstate() == twin.getstate(), (seed, i, draw.__name__)


@pytest.mark.parametrize("tag", MECHANISM_TAGS)
def test_sampled_reports_match_twin_draws(tag, monkeypatch):
    def reports():
        out = []
        for n in (5, 6, 7, 8):
            scope = Scope("sampled", n, count=100, seed=n)
            for prop in sorted(CHECKS):
                report = CHECKS[prop](tag, n, scope).to_dict()
                report.pop("elapsed_s")
                out.append(report)
        return out

    fast = reports()
    monkeypatch.setattr(verifier, "_sample_orders", twin_sample_orders)
    monkeypatch.setattr(verifier, "_sp_draw", twin_sp_draw)
    monkeypatch.setattr(verifier, "_ri_draw", twin_ri_draw)
    assert fast == reports()


def test_trading_ri_after_three_is_empirical():
    report = check_ri("cettc", 4, Scope("sampled", 4, count=1500, seed=5))
    if not report.holds:
        assert revalidate_witness(report.witness)


def test_own_position_invariance_n3():
    for tag in REDUCED:
        assert check_own_position_invariance(tag, 3).holds


def test_scope_validation():
    with pytest.raises(MalformedProblem):
        Scope("sampled", 4)
    with pytest.raises(MalformedProblem):
        Scope("partial", 3)
    with pytest.raises(EnumerationBoundExceeded):
        check_sp("csd", 5)


def test_sampled_scope_rejects_a_negative_count():
    with pytest.raises(MalformedProblem, match="need a count >= 1"):
        Scope("sampled", 5, count=-1, seed=0)
    with pytest.raises(MalformedProblem, match="need a count >= 1"):
        Scope("sampled", 5, count=0, seed=0)


@pytest.mark.parametrize("prop", sorted(CHECKS))
@pytest.mark.parametrize("jobs", [0, -2])
def test_every_check_rejects_jobs_below_one(prop, jobs):
    # before any run, so even a sweep past the exhaustive cap is refused for jobs
    with pytest.raises(MalformedProblem, match="jobs must be >= 1"):
        CHECKS[prop]("csd", 9, jobs=jobs)


BAD_BOUND_ARGUMENTS = {
    "repeated priority": {"priority": (1, 1, 2)},
    "short priority": {"priority": (1, 2)},
    "priority past n": {"priority": (2, 3, 4)},
    "partition of n=4": {"partition": largest_first_construct(blocks_from_sizes([1, 1, 2]))},
    "fractional jobs": {"jobs": 1.5},
    "jobs as text": {"jobs": "2"},
    "jobs as a bool": {"jobs": True},
}


@pytest.mark.parametrize("prop", sorted(CHECKS))
@pytest.mark.parametrize("bad", sorted(BAD_BOUND_ARGUMENTS))
def test_every_check_refuses_malformed_bound_arguments(prop, bad, monkeypatch):
    # refused before any run, exhaustive or sampled; a repeated or short
    # priority used to be bound as given and report "holds", a partition of
    # another size to fail with a KeyError or a wrong verdict, and a
    # fractional jobs to reach the fork
    runs = []
    monkeypatch.setattr(verifier._Runner, "__call__", lambda self, orders: runs.append(orders))
    for tag in ("csd", "ttc"):
        for scope in (None, Scope("sampled", 3, count=5, seed=0)):
            with pytest.raises(MalformedProblem, match="priority|partition|jobs"):
                CHECKS[prop](tag, 3, scope, **BAD_BOUND_ARGUMENTS[bad])
    assert runs == []


def test_revalidate_witness_refuses_a_malformed_witness():
    witness = check_ce("ttc", 3).witness
    assert revalidate_witness(witness)
    for key in ("kind", "mechanism", "problem", "outcome"):
        with pytest.raises(MalformedProblem, match="lacks|kind"):
            revalidate_witness({k: v for k, v in witness.items() if k != key})
    ri = check_ri("npb", 3).witness
    assert revalidate_witness(ri)
    for key in ("division", "improved_problem", "improved_outcome"):
        with pytest.raises(MalformedProblem, match=f"the ri witness lacks {key}"):
            revalidate_witness({k: v for k, v in ri.items() if k != key})
    for bad in ({}, [], None, {"kind": ["sp"]}, {**witness, "kind": "strategyproof"}):
        with pytest.raises(MalformedProblem):
            revalidate_witness(bad)


def test_revalidate_witness_refuses_malformed_values():
    # each used to raise a bare AttributeError, KeyError, TypeError or
    # IndexError, or to read a division counted from the end
    ce = check_ce("ttc", 3).witness
    sp = check_sp("npb", 4).witness
    ri = check_ri("npb", 3).witness
    eap = check_eap("cettc", 3).witness
    for witness in (ce, sp, ri, eap):
        assert revalidate_witness(witness)
    bad = [
        {**ce, "mechanism": "csd"},
        {**ce, "mechanism": {}},
        {**ce, "mechanism": {"tag": 5}},
        {**ce, "mechanism": {"tag": "cettc", "mu0": [1.5, 3, 1]}},
        {**ce, "mechanism": {"tag": "cettc", "mu0": 5}},
        {**ce, "mechanism": {"tag": "cettc", "mu0": "random", "seed": "1"}},
        {**ce, "outcome": 5},
        {**ce, "outcome": [2.0, 3, 1]},
        *({**witness, "division": d} for witness in (sp, ri) for d in (0, 5, "1", True, None)),
        {**sp, "misreport": 5},
        {**sp, "misreport_outcome": 5},
        {**ri, "improved_outcome": 5},
        {**eap, "partition": 5},
        {**eap, "partition": [{"divisions": [1]}]},
    ]
    for witness in bad:
        with pytest.raises(MalformedProblem):
            revalidate_witness(witness)


@pytest.mark.parametrize("n", (3.0, "3", True, None))
@pytest.mark.parametrize("prop", sorted(CHECKS))
def test_every_check_refuses_a_size_that_is_not_an_integer(prop, n):
    # 3.0 and "3" used to raise TypeError, and True to run at n=1
    for tag in ("csd", "ttc"):
        with pytest.raises(MalformedProblem, match="n must be an integer"):
            CHECKS[prop](tag, n)


@pytest.mark.parametrize("field,value", [
    ("n", 3.0), ("n", "3"), ("count", 2.5), ("count", True), ("seed", 1.0), ("seed", "1"), ("seed", False),
])
def test_scope_refuses_fields_that_are_not_integers(field, value):
    # a fractional count used to raise TypeError in the sampling loop, and
    # count=True to draw one sample
    with pytest.raises(MalformedProblem, match=f"scope's {field} must be an integer"):
        Scope(**{"kind": "sampled", "n": 3, "count": 2, "seed": 1, field: value})
    assert Scope("exhaustive", 3).to_dict() == {"kind": "exhaustive", "n": 3}


@pytest.mark.parametrize("n", (0, -1, 2.0, "3", True))
def test_selection_scan_refuses_a_size_below_one_or_not_an_integer(n):
    # n=0 used to raise IndexError
    with pytest.raises(MalformedProblem, match="integer n >= 1"):
        scan_ce_efficient_selections(n)


def test_check_rejects_unknown_mechanism():
    with pytest.raises(MalformedProblem):
        check_sp("nope", 3)


def test_explicit_partition_and_priority_respected():
    part = largest_first_construct(blocks_from_sizes([1, 1, 2]))
    report = check_sp("csd", 4, partition=part, priority=(4, 3, 2, 1))
    assert report.holds


def test_seeded_swap_mechanism_checks():
    mid = MechanismId("cettc", mu0="random", seed=12)
    assert check_ce(mid, 3).holds
    report = check_ri(mid, 3)
    assert not report.holds and revalidate_witness(report.witness)


# -- selection scan ---------------------------------------------------------------


def test_selection_scan_all_rules_violate():
    report = scan_ce_efficient_selections(3)
    assert report.profiles == 8
    assert report.rules == 64
    assert report.violating_rules == 64
    assert report.all_violate
    d = report.to_dict()
    assert d["all_violate"] is True and d["rules"] == 64

    w = report.sample_witness
    base = complete_partial_profile(w["problem"]["preferences"])
    improved = complete_partial_profile(w["improved_problem"]["preferences"])
    assert certify_ri_violation(
        base, improved, w["division"], tuple(w["outcome"]), tuple(w["improved_outcome"])
    )
    assert tuple(w["outcome"]) in cee_set(base)
    assert tuple(w["improved_outcome"]) in cee_set(improved)


def test_selection_scan_pinned_choice():
    # the rules that keep (2,3,1) after the improvement all violate too;
    # pinning an assignment outside the profile's set leaves no rule
    improved = complete_partial_profile([(2, 3), (1, 3), (1, 2)]).orders
    report = scan_ce_efficient_selections(3, pinned={improved: (2, 3, 1)})
    assert (report.rules, report.violating_rules, report.all_violate) == (32, 32, True)
    w = report.sample_witness
    for key in ("problem", "improved_problem"):
        if tuple(map(tuple, w[key]["preferences"])) == improved:
            assert w["outcome" if key == "problem" else "improved_outcome"] == [2, 3, 1]
    assert scan_ce_efficient_selections(3, pinned={improved: (1, 2, 3)}).rules == 0


def test_selection_scan_bound_and_alias():
    assert universal_impossibility_scan is scan_ce_efficient_selections
    with pytest.raises(EnumerationBoundExceeded):
        scan_ce_efficient_selections(4)


# -- fast scans against their slow twins ----------------------------------------------

ALL_TAGS = ("csd", "tsd", "cettc", "npb", "sd", "ttc", "bttc")


def sweep_of(mechanism, n):
    runner = verifier._Runner(verifier.as_mechanism_id(mechanism), n)
    space = verifier._space(n, runner.reduced)
    return runner, space, verifier._outcome_table(verifier._ClassTable(runner, space))


def pairwise_scan(prop, space, table, lo=0, hi=None):
    """The pairwise sp or ri scan over a fully built table."""
    scan = verifier._sp_scan if prop == "sp" else verifier._ri_scan
    return scan(space, table, lo, space.size if hi is None else hi)


def pairwise_report(prop, mechanism, n):
    """(verdict, checked, comparisons, witness) as the pairwise scan finds them."""
    runner, space, table = sweep_of(mechanism, n)
    _, comparisons, vio = pairwise_scan(prop, space, table)
    if vio is None:
        return "holds", space.size, comparisons, None
    idx, i, other = vio  # base, division, deviant profile
    orders, deviant = space.profile_at(idx), space.profile_at(other)
    out, out2 = runner(orders), runner(deviant)
    if prop == "sp":
        word, shown = "misreport", {"misreport": list(deviant[i - 1])}
    else:
        word, shown = "improved", {"improved_problem": runner.problem_dict(deviant)}
    wit = {
        "kind": prop,
        "mechanism": runner.mid.to_dict(),
        "division": i,
        "problem": runner.problem_dict(orders),
        **shown,
        "outcome": list(out),
        f"{word}_outcome": list(out2),
        "received": out[i - 1],
        f"{word}_received": out2[i - 1],
    }
    return "fails", idx + 1, None, wit


def report_fields(report):
    return report.verdict, report.checked, report.comparisons, report.witness


@pytest.mark.parametrize(
    "tag,n", [(tag, 3) for tag in ALL_TAGS] + [(tag, 4) for tag in REDUCED]
)
@pytest.mark.parametrize("prop", ["sp", "ri"])
def test_fast_scans_match_pairwise_scans(prop, tag, n):
    check = check_sp if prop == "sp" else check_ri
    assert report_fields(check(tag, n)) == pairwise_report(prop, tag, n)


@pytest.mark.parametrize(
    "prop,tag,pairwise_base,fast_base",
    [("sp", "npb", 72, 72), ("ri", "npb", 72, 80), ("ri", "cettc", 147, 183)],
)
def test_witness_precedes_first_fast_hit(prop, tag, pairwise_base, fast_base):
    # single raises can first fail after a longer improvement does; the
    # report must still carry the pairwise scan's minimal witness
    _, space, table = sweep_of(tag, 4)
    fast = verifier._sp_menu_scan if prop == "sp" else verifier._ri_step_scan
    assert fast(space, table) == fast_base
    check = check_sp if prop == "sp" else check_ri
    report = check(tag, 4)
    assert report.checked == pairwise_base + 1
    assert report_fields(report) == pairwise_report(prop, tag, 4)
    assert revalidate_witness(report.witness)


@pytest.mark.parametrize("tag,n", [("ttc", 3), ("csd", 4)])
def test_fast_scans_match_pairwise_on_perturbed_tables(tag, n):
    # flip a few outcomes of a mechanism that holds both properties, so
    # violations land anywhere in the space, not just near its start
    _, space, table = sweep_of(tag, n)
    codes = len(verifier._perm_codes(n)[0])
    rng = random.Random(11)
    for _ in range(60):
        bent = bytearray(table)
        for _ in range(rng.randrange(1, 4)):
            bent[rng.randrange(space.size)] = rng.randrange(codes)
        vio = pairwise_scan("sp", space, bent)[2]
        assert verifier._sp_menu_scan(space, bent) == (None if vio is None else vio[0])

        vio = pairwise_scan("ri", space, bent)[2]
        step = verifier._ri_step_scan(space, bent)
        assert (vio is None) == (step is None)
        if step is not None:
            assert vio[0] <= step
            assert pairwise_scan("ri", space, bent, step, step + 1)[2] is not None


# -- word-parallel sp and ri scans against their per-stem twins ----------------------


def twin_sp_menu_scan(space, table):
    """Slow twin of ``_sp_menu_scan``: a menu frozenset and a top lookup per stem."""
    perms, _ = verifier._perm_codes(space.n)
    radix, size = space.radix, space.size
    best = size
    for j in range(space.n):
        p = space.pows[j]
        block = p * radix
        received = table.translate(verifier._code_map(perms, operator.itemgetter(j)))
        ranks = space.rank_maps[j]
        tops = {}  # menu -> top worker under each report, as bytes
        for stem in (b + lo for b in range(0, size, block) for lo in range(p)):
            if stem >= best:
                break
            col = received[stem : stem + block : p]
            menu = frozenset(col)
            top = tops.get(menu)
            if top is None:
                top = tops[menu] = bytes(min(menu, key=rk.__getitem__) for rk in ranks)
            if col != top:
                digit = next(a for a in range(radix) if col[a] != top[a])
                best = min(best, stem + digit * p)
    return best if best < size else None


def twin_ri_step_scan(space, table):
    """Slow twin of ``_ri_step_scan``: one adjacent raise tested run by run,
    profile by profile."""
    perms, _ = verifier._perm_codes(space.n)
    n, size = space.n, space.size
    best = size
    for i in range(n):
        rank = bytearray(size)
        for d, rk in enumerate(space.rank_maps[i]):
            trans = verifier._code_map(perms, lambda m, rk=rk: rk[m[i]])
            for start, step, count in verifier._digit_runs(space, i, d):
                sl = slice(start, start + step * count, step)
                rank[sl] = table[sl].translate(trans)
        for j, col in enumerate(verifier._pairwise_raises(space)[i]):
            for d, deltas in enumerate(col):
                if not deltas:
                    continue
                delta = deltas[-1]  # the adjacent raise
                for start, step, count in verifier._digit_runs(space, j, d):
                    if start >= best:
                        break
                    stop = start + step * count
                    here = rank[start:stop:step]
                    there = rank[start + delta : stop + delta : step]
                    if any(map(operator.lt, here, there)):
                        k = next(k for k, (a, b) in enumerate(zip(here, there)) if a < b)
                        best = min(best, start + k * step)
    return best if best < size else None


def scans_and_twins(space, table):
    """((sp, ri) from the word-parallel scans, (sp, ri) from their twins)."""
    return (
        (verifier._sp_menu_scan(space, table), verifier._ri_step_scan(space, table)),
        (twin_sp_menu_scan(space, table), twin_ri_step_scan(space, table)),
    )


@pytest.mark.parametrize(
    "tag,n", [(tag, n) for n in (2, 3, 4) for tag in ALL_TAGS if n > 2 or tag != "npb"]
)
def test_word_scans_match_twins_on_sweep_tables(tag, n):
    _, space, table = sweep_of(tag, n)
    fast, twin = scans_and_twins(space, table)
    assert fast == twin


def test_word_scans_match_twins_on_perturbed_full_table():
    # ttc holds sp and ri, so each hit comes from the bent entries; at full
    # n=4 divisions 2 and 3 split a digit into 24 runs, contiguous for
    # division 2 and strided for division 3, so the lowest hit must be
    # mapped back through the runs
    _, space, table = sweep_of("ttc", 4)
    rng = random.Random(22)
    hits = 0
    for _ in range(12):
        bent = bytearray(table)
        for _ in range(rng.randrange(1, 5)):
            bent[rng.randrange(space.size)] = rng.randrange(24)
        fast, twin = scans_and_twins(space, bent)
        assert fast == twin
        hits += sum(x is not None for x in fast)
    assert hits >= 12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_word_scans_match_twins_on_random_tables(data):
    # a constant table holds both properties; bent entries or, at n <= 3,
    # a table of random codes put hits anywhere in the space
    n = data.draw(st.integers(2, 4), label="n")
    space = verifier._space(n, data.draw(st.booleans(), label="reduced"))
    codes = st.integers(0, math.factorial(n) - 1)
    if n <= 3 and data.draw(st.booleans(), label="random"):
        table = bytes(data.draw(st.lists(codes, min_size=space.size, max_size=space.size)))
    else:
        table = bytearray([data.draw(codes, label="base")]) * space.size
        for idx, code in data.draw(st.lists(st.tuples(st.integers(0, space.size - 1), codes), max_size=6)):
            table[idx] = code
    fast, twin = scans_and_twins(space, table)
    assert fast == twin


def streamed_reference(prop, mechanism, n):
    """(checked, problem, outcome) of the first failing profile, read from a
    fully built table, or (size, None, None)."""
    runner, space, table = sweep_of(mechanism, n)
    perms = verifier._perm_codes(n)[0]
    for idx in range(space.size):
        orders, out = space.profile_at(idx), perms[table[idx]]
        if prop == "ce":
            ok = all(w != i for i, w in enumerate(out, 1))
        else:
            ok = pareto_efficient(orders, out)
        if not ok:
            return idx + 1, [list(o) for o in orders], list(out)
    return space.size, None, None


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("prop,tag", [("ce", "bttc"), ("pareto", "ttc"), ("pareto", "bttc")])
def test_streamed_outcome_checks_match_table(prop, tag, jobs):
    report = (check_ce if prop == "ce" else check_pareto)(tag, 3, jobs=jobs)
    checked, prefs, outcome = streamed_reference(prop, tag, 3)
    assert report.checked == checked
    assert report.holds == (prefs is None)
    if prefs is not None:
        assert report.witness["problem"]["preferences"] == prefs
        assert report.witness["outcome"] == outcome
        assert revalidate_witness(report.witness)


# Slow twin of the block scan: the sweep streamed profile by profile, the
# fault function run on each outcome in turn with no verifier scan.

OUTCOME_FAULTS = {
    "ce": verifier._ce_fault,
    "cee": verifier._cee_fault,
    "eap": verifier._eap_fault,
    "own-position": verifier._own_position_fault,
    "pareto": verifier._pareto_fault,
}


def streamed_sweep(prop, mechanism, n, partition=None, priority=None):
    """(verdict, checked, comparisons, witness) of an exhaustive outcome check
    streamed profile by profile."""
    if partition is None and prop == "eap":
        partition = canonical_partition(n)
    runner = verifier._Runner(verifier.as_mechanism_id(mechanism), n, partition, priority)
    # own-position sweeps own-last profiles for every mechanism
    space = verifier._space(n, runner.reduced or prop == "own-position")
    fault = OUTCOME_FAULTS[prop]
    for idx, orders in enumerate(itertools.product(*space.orders)):
        wit = fault(runner, orders, runner(orders))
        if wit is not None:
            return "fails", idx + 1, None, wit
    return "holds", space.size, None, None


def fields_or_error(run):
    try:
        return run()
    except Infeasible as exc:  # npb needs three divisions
        return repr(exc)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("prop", sorted(OUTCOME_FAULTS))
@pytest.mark.parametrize(
    "mid", [MechanismId(t) for t in ALL_TAGS] + [MechanismId("cettc", mu0="random", seed=5)], ids=str
)
def test_block_scan_matches_streamed_sweep(mid, prop, n, monkeypatch):
    assert_block_scan_matches_streamed_sweep(prop, mid, n, {}, monkeypatch)


def assert_block_scan_matches_streamed_sweep(prop, mid, n, bound, monkeypatch):
    """The block scan's report at jobs 1, jobs 2 and jobs 2 without fork
    equals the streamed sweep's; ``bound`` holds the partition and priority."""
    expected = fields_or_error(lambda: streamed_sweep(prop, mid, n, **bound))

    def block(jobs):
        return fields_or_error(lambda: report_fields(CHECKS[prop](mid, n, jobs=jobs, **bound)))

    assert block(1) == expected
    assert block(2) == expected

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    with monkeypatch.context() as m:
        m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        m.setattr(verifier, "ProcessPoolExecutor", no_pool)
        assert block(2) == expected


OWN_POSITION_BINDINGS = {
    "default": {},
    "partition-1-1-2": {"partition": largest_first_construct(blocks_from_sizes([1, 1, 2]))},
    "reversed-priority": {"priority": (4, 3, 2, 1)},
}
SD_ORDER = MechanismId("sd", order=(2, 4, 1, 3))


@pytest.mark.parametrize(
    "mid,binding",
    [(MechanismId(t), b) for t in ALL_TAGS for b in ("partition-1-1-2", "reversed-priority")]
    + [(SD_ORDER, b) for b in sorted(OWN_POSITION_BINDINGS)],
    ids=str,
)
def test_own_position_block_scan_matches_streamed_sweep(mid, binding, monkeypatch):
    # the own-position kernel reads a full-space table bound to the
    # partition, the priority and sd's order
    assert_block_scan_matches_streamed_sweep(
        "own-position", mid, 4, OWN_POSITION_BINDINGS[binding], monkeypatch
    )


@pytest.mark.parametrize("n", (2, 3, 4))
def test_own_position_sweep_moves_every_division(n, monkeypatch):
    # an outcome that changes only when division j ranks its own worker
    # first: the identity then, else a cyclic shift.  Each division's prefix
    # through the worker it receives shows whether that worker comes first,
    # so the box fold holds, and every own-last base fails by division j's
    # move of its own worker to the front, and by no other move
    shift = tuple(range(2, n + 1)) + (1,)
    for j in range(1, n + 1):
        monkeypatch.setattr(
            verifier._Runner, "__call__",
            lambda self, orders, j=j: tuple(range(1, n + 1)) if orders[j - 1][0] == j else shift,
        )
        report = check_own_position_invariance("cettc", n)
        assert (report.holds, report.checked, report.witness["division"]) == (False, 1, j)
        assert report.witness["moved_problem"]["preferences"][j - 1][0] == j


def peeking_call(past):
    """A ``_Runner.__call__`` that swaps the workers of divisions 2 and 3
    when the worker division 1 ranks right after the one it receives passes
    ``past``: an outcome that can read where division 1's own worker sits,
    past the worker it receives."""
    call = verifier._Runner.__call__

    def peeking(self, orders):
        m = call(self, orders)
        k = orders[0].index(m[0]) + 1
        if k < len(orders[0]) and past(orders[0][k], m[0]):
            m = (m[0], m[2], m[1]) + m[3:]
        return m

    return peeking


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize(
    "past",
    (operator.gt, operator.lt, lambda w, m: w == 1),
    ids=("larger", "smaller", "own-worker"),
)
@pytest.mark.parametrize("tag", ("csd", "tsd", "sd", "cettc", "npb", "bttc"))
def test_own_position_sweep_catches_a_core_that_reads_its_own_worker(tag, past, jobs, monkeypatch):
    # a move of the own worker that stays past the worker the division
    # receives keeps the base's outcome box, and a reads key may leave the
    # own worker out, yet such a move is tested: the first base fails, as
    # it does when every moved profile runs directly
    monkeypatch.setattr(verifier._Runner, "__call__", peeking_call(past))
    report = check_own_position_invariance(tag, 4, jobs=jobs)
    assert (report.holds, report.checked, report.witness["division"]) == (False, 1, 1)


# core runs of an own-position sweep at n=4 and jobs 1, as measured, against
# 1,296 bases times 13 runs (the base and its 12 moved profiles) = 16,848
# when each moved profile runs directly; ttc fails at its first base
OWN_POSITION_RUNS = {"csd": 208, "tsd": 208, "sd": 208, "cettc": 3549, "npb": 2613, "bttc": 2549, "ttc": 28}


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_own_position_sweep_reads_moved_profiles_from_the_table(tag, monkeypatch):
    runs = 0
    call = verifier._Runner.__call__

    def counted(self, orders):
        nonlocal runs
        runs += 1
        return call(self, orders)

    monkeypatch.setattr(verifier._Runner, "__call__", counted)
    report = check_own_position_invariance(tag, 4)
    assert report.holds == (tag != "ttc")
    assert runs <= OWN_POSITION_RUNS[tag]


def outcome_holds(prop, orders, m, partition):
    if prop == "cee":  # cee asks for a derangement first, as its fault does
        return ORACLES["ce"](orders, m, None) and ORACLES["cee"](orders, m, None)
    return ORACLES[prop](orders, m, partition)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_kernel_finds_the_first_failing_profile(data):
    # outcomes that hold up to a cut, random codes after it, in a run of
    # blocks of the full n=3 space or the reduced n=4 space, the run ending
    # by the end of division 1's order
    n, reduced = data.draw(st.sampled_from([(3, False), (4, True)]))
    prop = data.draw(st.sampled_from(sorted(verifier._CLASSES)))
    sizes = data.draw(st.sampled_from(PARTITION_SIZES[n]))
    partition = largest_first_construct(blocks_from_sizes(sizes))
    space = verifier._space(n, reduced)
    perms = verifier._perm_codes(n)[0]
    b = data.draw(st.integers(0, space.radix**2 - 1))
    size = data.draw(st.integers(1, space.radix - b % space.radix)) * space.block
    cut = data.draw(st.integers(0, size))
    profiles = [space.profile_at(b * space.block + k) for k in range(size)]
    codes = []
    for k, orders in enumerate(profiles):
        good = [c for c, m in enumerate(perms) if outcome_holds(prop, orders, m, partition)]
        pick = st.sampled_from(good) if k < cut and good else st.integers(0, len(perms) - 1)
        codes.append(data.draw(pick))
    first = verifier._block_kernel(space, *verifier._CLASSES[prop](partition))
    expected = next(
        (k for k, orders in enumerate(profiles)
         if not outcome_holds(prop, orders, perms[codes[k]], partition)),
        None,
    )
    assert first(bytes(codes), b) == expected


def test_block_scan_stops_at_the_first_failing_block(monkeypatch):
    # bttc pareto fails at profile 3,457 of the full n=4 space: the sweep may
    # run the probe, the blocks up to that profile and no further block
    calls = 0
    call = verifier._Runner.__call__

    def counted(self, orders):
        nonlocal calls
        calls += 1
        return call(self, orders)

    monkeypatch.setattr(verifier._Runner, "__call__", counted)
    report = check_pareto("bttc", 4)
    assert not report.holds and report.checked == 3457
    assert calls <= 3457 + 24**2 + 24


# sweeps that build a whole table: sp and ri hold for ttc, cettc's ri fails
# after its table is built
TABLE_SWEEPS = ((check_sp, "ttc"), (check_ri, "ttc"), (check_ri, "cettc"))


def test_fanout_without_fork_runs_serially(monkeypatch):
    sweeps = ((check_pareto, "bttc"),) + TABLE_SWEEPS
    forked = [check(tag, 3, jobs=2).to_dict() for check, tag in sweeps]

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(verifier, "ProcessPoolExecutor", no_pool)
    serial = [check(tag, 3, jobs=2).to_dict() for check, tag in sweeps]
    for report in forked + serial:
        report.pop("elapsed_s")
    assert serial == forked


# byte k set once the chunk starting at unit k has run, in any process
_RAN = mmap.mmap(-1, 17)


def _faulting_first_chunk(lowest, lo, hi):
    # a scan that keeps the fan-out's protocol, as _outcome_scan does: stop
    # past the lowest violation noted, note its own
    if lowest is not None and lowest.value < lo:
        return 0, None, None
    _RAN[lo] = 1
    if lo == 1:  # the first chunk past the parent's probe of unit 0
        lowest.value = lo
        return hi - lo, None, (lo, "hit")
    if lo > 1:
        time.sleep(0.3)
    return hi - lo, None, None


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_fanout_stops_at_the_first_violation():
    # 16 one-unit chunks on two workers: once the first chunk notes its
    # violation, only the chunk the other worker had already started runs;
    # the chunks handed out later stop at once, the rest are cancelled
    _RAN[:] = bytes(17)
    assert verifier._run_ranged(_faulting_first_chunk, 17, 2) == (2, None, (1, "hit"))
    assert _RAN[0] == _RAN[1] == 1
    assert sum(_RAN[2:]) <= 1
    assert verifier._bound_scan is None  # only the workers bound the scan


def test_outcome_scan_stops_past_the_lowest_violation(monkeypatch):
    # a forked scan whose next block lies past a violation another worker
    # noted runs no further block; blocks up to the violation still run,
    # each filling its head entries of the class table by outcome boxes.
    # Runs of 1, 1, 2, 4 blocks from block 2 would end at blocks 2, 3, 5
    # (the end of division 1's first order), 9: the violations at 4 and 8
    # cut a run short, the one at 9 ends one
    runner = verifier._Runner(MechanismId("bttc"), 3)
    space = verifier._space(3, False)
    calls = []
    monkeypatch.setattr(verifier._Runner, "__call__", lambda self, orders: calls.append(orders) or (1, 2, 3))
    for low, hi in ((4, 9), (8, 36), (9, 36)):
        calls.clear()
        lowest = multiprocessing.get_context().Value("q", low)
        table = verifier._ClassTable(runner, space)
        sweep = (table, lambda codes, b: None, None, lowest)
        assert verifier._outcome_scan(*sweep, low + 1, hi) == (0, None, None)
        assert calls == []
        assert verifier._outcome_scan(*sweep, 2, hi) == ((low - 1) * space.block, None, None)
        heads = {space.order_index[0][o[0]] * space.radix + space.order_index[1][o[1]] for o in calls}
        assert 2 in heads and heads <= set(range(2, low + 1))
        assert 0xFF not in table.codes[2 * space.block : (low + 1) * space.block]


class SerialPool:
    """A stand-in for ``ProcessPoolExecutor`` that records the workers asked
    for, runs the initializer and maps in the calling process."""

    workers = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.workers.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
@pytest.mark.parametrize("cpus", (None, 10**6))
def test_fanout_pool_has_no_more_workers_than_chunks_or_cpus(cpus, monkeypatch):
    # a fork pool starts all its workers at its first task, so a million
    # jobs must ask for no more workers than the 35 chunks of the blocks
    # past the first at full n=3, nor than this process's CPUs
    solo = check_pareto("ttc", 3).to_dict()
    if cpus is not None:
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(SerialPool, "workers", [])
    monkeypatch.setattr(verifier, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verifier, "_bound_scan", None)  # the pool binds it in this process
    many = check_pareto("ttc", 3, jobs=10**6).to_dict()
    assert SerialPool.workers == [min(35, verifier._usable_cpus())]
    assert multiprocessing.active_children() == []
    solo.pop("elapsed_s")
    many.pop("elapsed_s")
    assert many == solo


@pytest.mark.parametrize("check", (check_sp, check_ri))
@pytest.mark.parametrize("tag,n", [("ttc", 3), ("cettc", 4), ("npb", 4), ("csd", 4)])
def test_deviation_checks_start_no_pool_for_any_jobs(check, tag, n, monkeypatch):
    # sp and ri probe, fill and scan one class table in the calling process
    solo = check(tag, n, jobs=1).to_dict()

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", no_pool)
    multi = check(tag, n, jobs=2).to_dict()
    solo.pop("elapsed_s")
    multi.pop("elapsed_s")
    assert multi == solo


@pytest.mark.parametrize("outer,inner", [
    pytest.param((check_sp, "npb", 4), (check_pareto, "bttc", 3), id="sp-npb-4-around-pareto-bttc-3"),
    pytest.param((check_pareto, "bttc", 3), (check_sp, "npb", 4), id="pareto-bttc-3-around-sp-npb-4"),
    pytest.param((check_sp, "csd", 3), (check_ri, "cettc", 3), id="sp-csd-3-around-ri-cettc-3"),
    pytest.param((check_ri, "csd", 3), (check_own_position_invariance, "ttc", 3),
                 id="ri-csd-3-around-own-position-ttc-3"),
    pytest.param((check_ri, "cettc", 3), (check_sp, "csd", 3), id="ri-cettc-3-around-sp-csd-3"),
    pytest.param((check_cee, "npb", 3), (check_ri, "csd", 3), id="cee-npb-3-around-ri-csd-3"),
    pytest.param((functools.partial(check_pareto, jobs=2), "ttc", 3), (check_sp, "npb", 4),
                 id="forked-pareto-ttc-3-around-sp-npb-4"),
])
def test_a_check_inside_another_leaves_both_reports_intact(outer, inner, monkeypatch):
    # a sweep's state travels as arguments, so a check started from inside
    # another's first core run changes neither report
    def report(check, tag, n):
        fields = check(tag, n).to_dict()
        fields.pop("elapsed_s")
        return fields

    alone = report(*outer), report(*inner)
    nested = []
    call = verifier._Runner.__call__

    def first_run_nests(self, orders):
        monkeypatch.setattr(verifier._Runner, "__call__", call)  # nest once
        nested.append(report(*inner))
        return call(self, orders)

    monkeypatch.setattr(verifier._Runner, "__call__", first_run_nests)
    assert (report(*outer), *nested) == alone


def test_own_position_report_is_the_same_for_any_jobs():
    # own-position fails at its first profile for ttc and holds after a
    # fan-out for npb; the sp and ri sweeps ignore jobs
    sweeps = ((check_own_position_invariance, "ttc"), (check_own_position_invariance, "npb"))
    for check, tag in sweeps + TABLE_SWEEPS:
        solo = check(tag, 3, jobs=1).to_dict()
        multi = check(tag, 3, jobs=2).to_dict()
        solo.pop("elapsed_s")
        multi.pop("elapsed_s")
        assert multi == solo


# -- the mechanism registry -------------------------------------------------------------


@pytest.mark.parametrize("tag", MECHANISM_TAGS)
def test_runner_agrees_with_run_mechanism(tag):
    rng = random.Random(17)
    for n in range(3, 7):
        runner = verifier._Runner(MechanismId(tag), n)
        for _ in range(200):
            profile = random_profile(rng, n)
            assert runner(profile.orders) == run_mechanism(tag, Problem(profile=profile)).mapping


def own_last(orders):
    return tuple(tuple(w for w in o if w != i) + (i,) for i, o in enumerate(orders, start=1))


def outcome(tag, orders):
    return run_mechanism(tag, Problem(profile=PreferenceProfile(orders))).mapping


@pytest.mark.parametrize("tag", MECHANISM_TAGS)
def test_reduced_flag_means_full_space_invariance_n3(tag):
    # slow twin of every reduced sweep: a mechanism marked reduced gives each
    # full profile the outcome of its own-last form
    profiles = list(itertools.product(itertools.permutations(range(1, 4)), repeat=3))
    mismatches = sum(outcome(tag, p) != outcome(tag, own_last(p)) for p in profiles)
    assert len(profiles) == 216
    assert mismatches == {"ttc": 128, "bttc": 8}.get(tag, 0)
    assert MECHANISMS[tag].reduced == (mismatches == 0)


REDUCED_MECHANISMS = [MechanismId(tag) for tag in MECHANISM_TAGS if MECHANISMS[tag].reduced] + [
    MechanismId("cettc", mu0="random", seed=5),
    MechanismId("cettc", mu0=(3, 4, 1, 2)),
]


@pytest.mark.parametrize("mid", REDUCED_MECHANISMS, ids=str)
def test_own_position_invariance_n4_for_reduced_mechanisms(mid):
    report = check_own_position_invariance(mid, 4)
    assert report.holds
    assert report.checked == 6**4


def test_own_position_check_misses_joint_moves():
    # the check moves one own worker at a time, so it passes bttc, whose
    # outcome changes when two divisions move their own workers together
    assert check_own_position_invariance("bttc", 3).holds
    assert check_own_position_invariance("bttc", 4).holds
    orders = ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    assert outcome("bttc", orders) != outcome("bttc", own_last(orders))
