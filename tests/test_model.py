import json

import pytest
from hypothesis import given, settings, strategies as st

from reassign.model import (
    Assignment,
    AssignmentPartition,
    FinalOrder,
    Infeasible,
    MalformedProblem,
    MechanismId,
    PartitionGroup,
    PreferenceProfile,
    Problem,
    Trace,
    TraceStep,
    all_full_orders,
    all_orders_excluding,
    complete_partial_profile,
    is_derangement,
    pareto_dominates,
    prefers,
    problem_from_dict,
    problem_to_dict,
)
from reassign.partition import canonical_partition


def perm_strategy(n):
    return st.permutations(list(range(1, n + 1))).map(tuple)


def profile_strategy(n):
    return st.tuples(*[perm_strategy(n) for _ in range(n)]).map(PreferenceProfile)


# -- profiles -----------------------------------------------------------------


def test_profile_rank_and_prefers():
    p = PreferenceProfile(((2, 1, 3), (3, 1, 2), (1, 2, 3)))
    assert p.n == 3
    assert p.top(1, (1, 2, 3)) == 2
    assert p.top(1, (1, 3)) == 1
    assert p.rank(1, 2) == 0 and p.rank(1, 3) == 2
    assert p.prefers(2, 3, 1) and not p.prefers(2, 1, 3)
    assert p.weakly_prefers(2, 3, 3)
    assert prefers(p, 3, 1, 2)


def test_profile_validation():
    with pytest.raises(MalformedProblem):
        PreferenceProfile(((1, 1, 3), (1, 2, 3), (1, 2, 3)))
    with pytest.raises(MalformedProblem):
        PreferenceProfile(((1, 2), (1, 2, 3), (1, 2, 3)))
    with pytest.raises(MalformedProblem):
        PreferenceProfile(())


def test_with_order_replaces_one_row():
    p = PreferenceProfile(((1, 2, 3), (1, 2, 3), (1, 2, 3)))
    q = p.with_order(2, (3, 2, 1))
    assert q.orders == ((1, 2, 3), (3, 2, 1), (1, 2, 3))
    assert p.orders[1] == (1, 2, 3)  # original untouched


def test_complete_partial_profile_mixed_rows():
    p = complete_partial_profile([(2, 3), (1, 2, 3), (1, 2)])
    # short rows get the own worker appended last
    assert p.orders == ((2, 3, 1), (1, 2, 3), (1, 2, 3))


def test_complete_partial_profile_rejects_bad_short_row():
    with pytest.raises(MalformedProblem):
        complete_partial_profile([(1, 3), (1, 3), (1, 2)])  # row 1 lists itself


@given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), profile_strategy(n))))
def test_rank_is_inverse_of_order(args):
    n, p = args
    for i in range(1, n + 1):
        for pos, w in enumerate(p.order_of(i)):
            assert p.rank(i, w) == pos


# -- assignments ---------------------------------------------------------------


def test_assignment_basics():
    a = Assignment((2, 3, 1))
    assert a.worker_of(1) == 2
    assert list(a.items()) == [(1, 2), (2, 3), (3, 1)]
    assert a.is_derangement()
    assert not Assignment((1, 3, 2)).is_derangement()
    assert is_derangement((2, 1)) and not is_derangement((1, 2))
    with pytest.raises(MalformedProblem):
        Assignment((1, 1, 3))


def test_pareto_dominates_hand_case():
    p = PreferenceProfile(((2, 3, 1), (3, 1, 2), (1, 2, 3)))
    # (2,3,1) hands every division its top worker; (3,1,2) its second choice
    assert pareto_dominates(p, (2, 3, 1), (3, 1, 2))
    assert not pareto_dominates(p, (3, 1, 2), (2, 3, 1))
    assert not pareto_dominates(p, (2, 3, 1), (2, 3, 1))
    assert pareto_dominates(p, Assignment((2, 3, 1)), Assignment((3, 1, 2)))


# -- partitions ------------------------------------------------------------------


def test_partition_group_sorts_members():
    g = PartitionGroup((3, 1), (4, 2))
    assert g.divisions == (1, 3) and g.workers == (2, 4)


def test_partition_validation():
    ok = AssignmentPartition((PartitionGroup((1, 2), (3, 4)), PartitionGroup((3, 4), (1, 2))))
    assert ok.n == 4 and ok.k == 2
    assert ok.group_index_of(3) == 1
    assert ok.choice_set(1) == (3, 4)

    with pytest.raises(Infeasible):  # K=1 cannot separate
        AssignmentPartition((PartitionGroup((1, 2), (1, 2)),))
    with pytest.raises(Infeasible):  # own worker inside own group
        AssignmentPartition((PartitionGroup((1, 2), (2, 3)), PartitionGroup((3, 4), (1, 4))))
    with pytest.raises(Infeasible):  # balance broken
        AssignmentPartition((PartitionGroup((1, 2), (3,)), PartitionGroup((3, 4), (1, 2, 4))))
    with pytest.raises(Infeasible):  # workers not a partition
        AssignmentPartition((PartitionGroup((1, 2), (3, 3)), PartitionGroup((3, 4), (1, 2))))


def twin_partition_checks(groups):
    """The checks AssignmentPartition made before its linear passes, kept as
    a slow twin: a set per side and per group, and the index built per
    division.  Returns the group index or raises as they did."""
    groups = tuple(g if isinstance(g, PartitionGroup) else PartitionGroup(*g) for g in groups)
    if len(groups) < 2:
        raise Infeasible("an assignment partition needs at least two groups")
    divs = [i for g in groups for i in g.divisions]
    works = [w for g in groups for w in g.workers]
    n = len(divs)
    ground = set(range(1, n + 1))
    if len(set(divs)) != n or set(divs) != ground:
        raise Infeasible("division sets must partition 1..n")
    if len(works) != n or set(works) != ground:
        raise Infeasible("worker sets must partition 1..n")
    for k, g in enumerate(groups, start=1):
        if len(g.divisions) != len(g.workers):
            raise Infeasible(
                f"group {k} has {len(g.divisions)} divisions "
                f"but {len(g.workers)} workers"
            )
        overlap = set(g.divisions) & set(g.workers)
        if overlap:
            raise Infeasible(
                f"group {k} offers divisions their own workers: {sorted(overlap)}"
            )
    index = {}
    for k, g in enumerate(groups):
        for i in g.divisions:
            index[i] = k
    return index


@st.composite
def partition_candidates(draw):
    """Random splits of 1..n into division groups and equal-sized pools,
    then up to three faults: a member added (a duplicate or a gap past n),
    one dropped (a gap), or one moved to another group (a size mismatch).
    Own workers and single groups come from the draw itself."""
    n = draw(st.integers(0, 9))
    k = draw(st.integers(1, 4))
    divs = [[] for _ in range(k)]
    for i in range(1, n + 1):
        divs[draw(st.integers(0, k - 1))].append(i)
    order = draw(st.permutations(range(1, n + 1)))
    works, start = [], 0
    for d in divs:
        works.append(list(order[start : start + len(d)]))
        start += len(d)
    for _ in range(draw(st.integers(0, 3))):
        side = draw(st.sampled_from((divs, works)))
        j = draw(st.integers(0, k - 1))
        fault = draw(st.sampled_from(("add", "drop", "move")))
        if fault == "add":
            side[j].append(draw(st.integers(0, n + 1)))
        elif side[j]:
            member = side[j].pop(draw(st.integers(0, len(side[j]) - 1)))
            if fault == "move":
                side[draw(st.integers(0, k - 1))].append(member)
    groups = [(tuple(d), tuple(w)) for d, w in zip(divs, works)]
    if draw(st.booleans()):
        groups = [PartitionGroup(*g) for g in groups]
    return tuple(groups)


@settings(max_examples=1500, deadline=None)
@given(partition_candidates())
def test_partition_checks_match_their_twin(groups):
    try:
        index = twin_partition_checks(groups)
    except Infeasible as exc:
        with pytest.raises(Infeasible) as got:
            AssignmentPartition(groups)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    part = AssignmentPartition(groups)
    assert {i: part.group_index_of(i) for i in range(1, part.n + 1)} == index


def test_partition_checks_match_their_twin_at_scale():
    # the canonical partitions and a shuffled split of 1..3000
    import random

    rng = random.Random(7)
    cases = [canonical_partition(n).groups for n in (2, 3, 8, 999, 1000)]
    order = list(range(1, 3001))
    rng.shuffle(order)
    divs = [sorted(order[:1000]), sorted(order[1000:2200]), sorted(order[2200:])]
    pools = (divs[1][:1000], divs[2] + divs[0][:400], divs[0][400:] + divs[1][1000:])
    cases.append(tuple(zip(divs, pools)))
    for groups in cases:
        assert AssignmentPartition(groups)._group_of == twin_partition_checks(groups)


# -- problems ----------------------------------------------------------------------


def test_problem_defaults_and_names():
    p = Problem(profile=complete_partial_profile([(2,), (1,)]))
    assert p.priority == (1, 2)
    assert p.name_of(1) == "1"

    named = Problem(
        profile=complete_partial_profile([(2,), (1,)]),
        names=("left", "right"),
    )
    assert named.name_of(2) == "right"
    with pytest.raises(MalformedProblem):
        Problem(profile=complete_partial_profile([(2,), (1,)]), names=("dup", "dup"))
    with pytest.raises(MalformedProblem):
        Problem(profile=complete_partial_profile([(2,), (1,)]), priority=(1, 1))


def test_problem_partition_size_mismatch():
    with pytest.raises(Infeasible):
        Problem(
            profile=complete_partial_profile([(2,), (1,)]),
            partition=canonical_partition(4),
        )


# -- traces ---------------------------------------------------------------------


def test_trace_validation():
    ok = Trace((TraceStep(1, 1, 2, "start"), TraceStep(2, 2, 1, "owner-call")))
    assert ok.kinds() == ("start", "owner-call")
    assert ok.choosers() == (1, 2) and ok.workers() == (2, 1)
    with pytest.raises(MalformedProblem):  # step numbers must be 1..n
        Trace((TraceStep(1, 1, 2, "start"), TraceStep(3, 2, 1, "owner-call")))
    with pytest.raises(MalformedProblem):  # duplicate chooser
        Trace((TraceStep(1, 1, 2, "start"), TraceStep(2, 1, 3, "owner-call")))
    with pytest.raises(MalformedProblem):
        TraceStep(1, 1, 2, "no-such-kind")


def test_final_order_from_global():
    part = canonical_partition(4)
    f = FinalOrder.from_global((3, 1, 4, 2), part)
    assert f.global_order == (3, 1, 4, 2)
    assert f.group_orders == ((1, 2), (3, 4))


# -- serialization ----------------------------------------------------------------


def test_problem_dict_round_trip():
    prob = Problem(
        profile=complete_partial_profile([(2, 3), (3, 1), (1, 2)]),
        priority=(3, 1, 2),
        partition=canonical_partition(3),
        names=("x", "y", "z"),
    )
    d = problem_to_dict(prob)
    assert list(d) == ["n", "preferences", "priority", "partition", "names"]
    back = problem_from_dict(d)
    assert back == prob
    # dict is json-safe
    assert problem_from_dict(json.loads(json.dumps(d))) == prob


def test_problem_from_dict_validates():
    with pytest.raises(MalformedProblem):
        problem_from_dict({"n": 2, "preferences": [[2, 1], [1, 2]], "bogus": 1})
    with pytest.raises(MalformedProblem):
        problem_from_dict({"n": 2, "preferences": [[2, 2], [1, 2]]})
    with pytest.raises(MalformedProblem):
        problem_from_dict({"n": 2})
    # short rows accepted
    p = problem_from_dict({"n": 2, "preferences": [[2], [1]]})
    assert p.profile.orders == ((2, 1), (1, 2))


@given(st.integers(2, 5).flatmap(lambda n: profile_strategy(n)))
def test_round_trip_random_profiles(profile):
    prob = Problem(profile=profile)
    assert problem_from_dict(problem_to_dict(prob)) == prob


# Any JSON value, and problem-shaped objects whose fields hold any JSON value
# or near-miss arrays of small integers, for fuzzing the input boundary.
_small_ints = st.lists(st.integers(-1, 6), max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=20,
)
_field = json_values | _small_ints
problem_like = st.fixed_dictionaries(
    {"preferences": st.lists(_small_ints, max_size=6) | _field},
    optional={
        "n": st.integers(-1, 7) | _field,
        "priority": _small_ints | _field,
        "partition": st.lists(
            st.fixed_dictionaries({"divisions": _small_ints, "workers": _small_ints}) | _field,
            max_size=4,
        ) | _field,
        "names": st.lists(st.text(max_size=2), max_size=6) | _field,
        "extra": _field,
    },
)


@st.composite
def near_valid_problems(draw):
    """A problem that is valid or close to it: full orders, a permutation
    priority, a partition cut from two permutations, names, and at most one
    field replaced by any value."""
    n = draw(st.integers(1, 5))
    perm = st.permutations(list(range(1, n + 1)))
    d = {"n": n, "preferences": [draw(perm) for _ in range(n)]}
    if draw(st.booleans()):
        d["priority"] = draw(perm)
    if draw(st.booleans()):
        divisions, workers = draw(perm), draw(perm)
        cuts = [0, *sorted(draw(st.sets(st.integers(1, n), max_size=3))), n]
        d["partition"] = [
            {"divisions": divisions[a:b], "workers": workers[a:b]} for a, b in zip(cuts, cuts[1:])
        ]
    if draw(st.booleans()):
        d["names"] = draw(st.lists(st.text(max_size=2), min_size=n, max_size=n))
    if draw(st.booleans()):
        d[draw(st.sampled_from([*d, "extra"]))] = draw(_field)
    return d


any_problem_json = json_values | problem_like | near_valid_problems()


@settings(max_examples=400, deadline=None)
@given(any_problem_json)
def test_problem_from_dict_fuzz_raises_only_input_errors(data):
    try:
        problem = problem_from_dict(data)
    except (MalformedProblem, Infeasible):
        return
    assert problem_from_dict(problem_to_dict(problem)) == problem


# -- ids and enumerations -----------------------------------------------------------


def test_mechanism_id_str():
    assert str(MechanismId("csd")) == "csd"
    assert str(MechanismId("cettc", mu0="cyclic")) == "cettc[mu0=cyclic]"
    assert (
        str(MechanismId("cettc", mu0=(2, 3, 1), seed=7)) == "cettc[mu0=2,3,1;seed=7]"
    )
    assert str(MechanismId("sd", order=(2, 1))) == "sd[order=2,1]"


def test_order_enumerations():
    assert len(all_full_orders(3)) == 6
    assert all_orders_excluding(3, 2) == [(1, 3), (3, 1)]
