import itertools

import pytest
from hypothesis import given, settings, strategies as st

from reassign.model import Infeasible, MalformedProblem
from reassign.partition import (
    blocks_from_sizes,
    canonical_partition,
    largest_first_construct,
    largest_first_construct_counted,
    partition_exists,
)


def separation_feasible(sizes):
    """Independent oracle: bipartite matching of workers to group slots.

    Worker w may serve group k iff w's own division is not in group k.
    Groups are the consecutive blocks given by sizes.  Kuhn's augmenting
    paths over one slot per seat.
    """
    owner = {}
    start = 1
    for k, s in enumerate(sizes):
        for d in range(start, start + s):
            owner[d] = k
        start += s
    slots = [k for k, s in enumerate(sizes) for _ in range(s)]
    match = [None] * len(slots)

    def augment(w, used):
        for j, k in enumerate(slots):
            if owner[w] == k or j in used:
                continue
            used.add(j)
            if match[j] is None or augment(match[j], used):
                match[j] = w
                return True
        return False

    return all(augment(w, set()) for w in owner)


def compositions(n):
    for cuts in range(2 ** (n - 1)):
        sizes, run = [], 1
        for pos in range(n - 1):
            if cuts >> pos & 1:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        yield tuple(sizes)


# -- feasibility ---------------------------------------------------------------


def test_partition_exists_matches_matching_oracle_up_to_n8():
    for n in range(1, 9):
        for sizes in compositions(n):
            assert partition_exists(sizes) == separation_feasible(sizes), sizes


def test_partition_exists_rejects_bad_sizes():
    with pytest.raises(MalformedProblem):
        partition_exists([])
    with pytest.raises(MalformedProblem):
        partition_exists([2, 0])


def test_construct_raises_exactly_when_infeasible():
    for n in range(1, 9):
        for sizes in compositions(n):
            groups = blocks_from_sizes(sizes)
            if partition_exists(sizes):
                part = largest_first_construct(groups)
                assert part.sizes() == sizes
            else:
                with pytest.raises(Infeasible):
                    largest_first_construct(groups)


# -- construction -------------------------------------------------------------


def test_construct_valid_on_scrambled_groups():
    # group membership need not be consecutive
    part = largest_first_construct([[1, 4], [2, 6], [3, 5]])
    assert part.k == 3
    for g in part.groups:
        assert len(g.divisions) == len(g.workers)
        assert not set(g.divisions) & set(g.workers)


def test_largest_group_buffer():
    # every worker owned by the largest group ends up in some other group's pool
    groups = [[1, 2, 3, 4], [5, 6], [7, 8]]
    part = largest_first_construct(groups)
    big = max(part.groups, key=lambda g: len(g.divisions))
    assert set(big.divisions) == {1, 2, 3, 4}
    for w in (1, 2, 3, 4):
        k = next(j for j, g in enumerate(part.groups) if w in g.workers)
        assert part.groups[k] is not big


def test_canonical_partition_goldens():
    assert canonical_partition(2).sizes() == (1, 1)
    p2 = canonical_partition(2)
    assert p2.choice_set(1) == (2,) and p2.choice_set(2) == (1,)

    p3 = canonical_partition(3)
    got = [(g.divisions, g.workers) for g in p3.groups]
    assert got == [((1,), (3,)), ((2,), (1,)), ((3,), (2,))]

    p4 = canonical_partition(4)
    got = [(g.divisions, g.workers) for g in p4.groups]
    assert got == [((1, 2), (3, 4)), ((3, 4), (1, 2))]

    p5 = canonical_partition(5)
    assert p5.sizes() == (1, 2, 2)
    got = [(g.divisions, g.workers) for g in p5.groups]
    assert got == [((1,), (2,)), ((2, 3), (4, 5)), ((4, 5), (1, 3))]

    p6 = canonical_partition(6)
    got = [(g.divisions, g.workers) for g in p6.groups]
    assert got == [((1, 2, 3), (4, 5, 6)), ((4, 5, 6), (1, 2, 3))]


def test_canonical_partition_rejects_n1():
    with pytest.raises(Infeasible):
        canonical_partition(1)


def test_blocks_from_sizes():
    assert blocks_from_sizes([2, 3]) == [[1, 2], [3, 4, 5]]
    with pytest.raises(MalformedProblem):
        blocks_from_sizes([2, -1])
    with pytest.raises(MalformedProblem, match="sum to at most"):
        blocks_from_sizes([10**20, 1])  # past sys.maxsize: refused before any range is built


def twin_validated_groups(groups):
    """The division-group checks made before their linear passes (one flat
    list, two sets), kept as a slow twin."""
    groups = [list(g) for g in groups]
    if not groups:
        raise MalformedProblem("no division groups were given")
    if any(not g for g in groups):
        raise MalformedProblem("empty division groups are not allowed")
    flat = [i for g in groups for i in g]
    n = len(flat)
    if len(set(flat)) != n or set(flat) != set(range(1, n + 1)):
        raise MalformedProblem("division groups must partition 1..n")
    return groups


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(st.integers(0, 8), max_size=4), max_size=4))
def test_group_checks_match_their_twin(groups):
    try:
        expected = twin_validated_groups(groups)
    except MalformedProblem as exc:
        with pytest.raises(MalformedProblem) as got:
            largest_first_construct(groups)
        assert str(got.value) == str(exc)
        return
    try:
        partition = largest_first_construct(groups)
    except Infeasible:
        assert not partition_exists([len(g) for g in expected])
        return
    assert [list(g.divisions) for g in partition.groups] == [sorted(g) for g in expected]


def test_construct_names_a_missing_group_list():
    with pytest.raises(MalformedProblem, match="no division groups were given"):
        largest_first_construct([])


# -- scaling -------------------------------------------------------------------


def test_construction_steps_scale_linearly():
    def steps_for(n):
        sizes = [n // 4, n // 4, n - 2 * (n // 4)]
        _, steps = largest_first_construct_counted(blocks_from_sizes(sizes))
        return steps

    s3, s4, s5 = steps_for(10**3), steps_for(10**4), steps_for(10**5)
    r43 = (s4 / 10**4) / (s3 / 10**3)
    r54 = (s5 / 10**5) / (s4 / 10**4)
    assert 0.9 < r43 < 1.1 and 0.9 < r54 < 1.1


# -- property checks ----------------------------------------------------------


@settings(max_examples=200)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
def test_random_sizes_agree_with_oracle(sizes):
    assert partition_exists(sizes) == separation_feasible(tuple(sizes))


@settings(max_examples=100)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=5).filter(lambda s: 2 * max(s) <= sum(s)))
def test_random_feasible_sizes_construct_valid_partitions(sizes):
    part = largest_first_construct(blocks_from_sizes(sizes))
    assert part.sizes() == tuple(sizes)
    seen = list(itertools.chain.from_iterable(g.workers for g in part.groups))
    assert sorted(seen) == list(range(1, sum(sizes) + 1))
