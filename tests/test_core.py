import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers.core import (
    Ballot,
    OutcomeSet,
    Profile,
    ProfileError,
    UnrankedModel,
    borda_scores,
    default_names,
    first_place_counts,
    pairwise_matrix,
    remove_candidate,
    restrict_to_subset,
    top_k_counts,
)

from conftest import vote_splitting_profile
from oracles import _profile_without, naive_borda, naive_first_place, naive_margin, naive_top_k


# ---------------------------------------------------------------------------
# Profile construction


def test_build_merges_duplicate_ballot_types():
    p = Profile.build(3, "ABC", [((0, 1), 1), ((0, 1), 1), ((2,), 3)], 1)
    assert p.ballots == (Ballot(b"\x00\x01", 2), Ballot(b"\x02", 3))
    assert p.n == 5


def test_invalid_profiles_rejected():
    with pytest.raises(ProfileError):
        Profile.build(3, "ABC", [((0,), 1)], 3)  # k >= m
    with pytest.raises(ProfileError):
        Profile.build(3, "ABC", [], 1)  # no ballots


def test_at_most_256_candidates():
    ballots = [((255, 0), 1)]
    assert Profile.build(256, default_names(256), ballots, 2).m == 256
    match = "^at most 256 candidates fit a ballot, got m=257$"
    with pytest.raises(ProfileError, match=match):
        Profile.build(257, default_names(257), ballots, 2)
    # The shape is checked first, also when a ranking does not fit a byte.
    with pytest.raises(ProfileError, match=match):
        Profile.build(257, default_names(257), [((256,), 1)], 2)
    with pytest.raises(ProfileError, match=match):
        Profile(257, default_names(257), (Ballot((256,), 1),), 2)


# One invalid ballot each, after a valid one, with the message it must raise.
# Where a ballot breaks several invariants, the earlier check in this list wins.
INVALID_BALLOTS = [
    (((2,), 0), "ballot (2,) has non-positive weight 0"),
    (((2,), -3), "ballot (2,) has non-positive weight -3"),
    (((2, 2), 0), "ballot (2, 2) has non-positive weight 0"),
    (((), 1), "ballot length 0 out of range 1..3"),
    (((1, 2, 0, 1), 1), "ballot length 4 out of range 1..3"),
    (((2, 2), 1), "duplicate candidate in ballot (2, 2)"),
    (((5, 5), 1), "duplicate candidate in ballot (5, 5)"),
    (((3,), 1), "candidate index out of range in ballot (3,)"),
    (((1, -1), 1), "candidate index out of range in ballot (1, -1)"),
    (((1, 300), 1), "candidate index out of range in ballot (1, 300)"),
    (((0.5,), 1), "candidate index out of range in ballot (0.5,)"),
    (((1.0,), 1), "candidate index not an integer in ballot (1.0,)"),
    (((2,), 1.5), "ballot (2,) has weight 1.5, not an integer"),
    (((2,), 0.5), "ballot (2,) has weight 0.5, not an integer"),
    (((2,), 2.0), "ballot (2,) has weight 2.0, not an integer"),
    (((2, 2), "3"), "ballot (2, 2) has weight '3', not an integer"),
]


@pytest.mark.parametrize("ballot, message", INVALID_BALLOTS)
def test_invalid_ballot_messages(ballot, message):
    ranking, weight = ballot
    match = f"^{re.escape(message)}$"
    try:
        encoded = bytes(ranking)
    except (TypeError, ValueError):
        pass  # no bytes ranking holds it, so only build can be handed it
    else:
        with pytest.raises(ProfileError, match=match):
            Profile(3, ("A", "B", "C"), (Ballot(b"\x00", 1), Ballot(encoded, weight)), 1)
    with pytest.raises(ProfileError, match=match):
        Profile.build(3, "ABC", [((0,), 1), (ranking, weight)], 1)
    with pytest.raises(ProfileError, match=match):
        Profile.build(3, "ABC", [(ranking, weight), ((0,), 1)], 1)
    # Build checks its input as given: a merged weight cannot hide a bad one.
    with pytest.raises(ProfileError, match=match):
        Profile.build(3, "ABC", [((0,), 1), (ranking, weight), (ranking, 5)], 1)


def test_build_checks_its_input_as_given():
    # A merge would hide these weights: -1 + 3 and 0 + 3 are positive.
    for weight in (-1, 0):
        match = f"^ballot \\(0, 1\\) has non-positive weight {weight}$"
        with pytest.raises(ProfileError, match=match):
            Profile.build(3, "ABC", [((0, 1), weight), ((0, 1), 3)], 1)
    # Of several faulty ballots, the first in input order is named.
    with pytest.raises(ProfileError, match="^duplicate candidate in ballot \\(2, 2\\)$"):
        Profile.build(3, "ABC", [((2, 2), 1), ((0,), 0)], 1)
    ballots = [((0, 1), 1.5), ((1, 0), 1.4), ((2,), 1.2)]
    with pytest.raises(ProfileError, match="^ballot \\(0, 1\\) has weight 1.5, not an integer$"):
        Profile.build(3, "ABC", ballots, 1)


def test_build_stores_integer_weights_as_python_ints():
    ballots = [((0,), np.int64(2)), ((1,), np.uint64(2**63)), ((2,), True)]
    p = Profile.build(3, "ABC", ballots, 1)
    assert p.ballots == (Ballot(b"\x00", 2), Ballot(b"\x01", 2**63), Ballot(b"\x02", 1))
    assert all(type(weight) is int for _, weight in p.ballots)
    match = "^candidate index out of range in ballot \\(1, 300\\)$"
    with pytest.raises(ProfileError, match=match):  # walked past the numpy weight
        Profile.build(3, "ABC", [((0,), np.int64(2)), ((1, 300), 1)], 1)
    # The plain constructor takes canonical weights only.
    match = "^weights must be Python ints; use Profile.build to convert them$"
    for weight in (np.int64(2), True):
        with pytest.raises(ProfileError, match=match):
            Profile(3, ("A", "B", "C"), (Ballot(b"\x00", weight),), 1)


@pytest.mark.parametrize(
    "ballots",
    [
        (Ballot(b"\x01", 1), Ballot(b"\x00", 1)),  # unsorted
        (Ballot(b"\x00\x01", 1), Ballot(b"\x00", 1)),  # a prefix sorts first
        (Ballot(b"\x00", 1), Ballot(b"\x00", 2)),  # duplicate ballot type
    ],
)
def test_unsorted_or_duplicate_ballot_types(ballots):
    match = "^ballots must be sorted by ranking and deduplicated$"
    with pytest.raises(ProfileError, match=match):
        Profile(3, ("A", "B", "C"), ballots, 1)
    # Build merges and sorts the same input instead.
    built = Profile.build(3, "ABC", ballots, 1)
    assert built.ballots == tuple(sorted(_merged(ballots).items()))


def test_rankings_are_encoded_by_value():
    rows = [(2, 0), [2, 0], np.array([2, 0]), b"\x02\x00"]
    assert bytes(np.array([2, 0])) != b"\x02\x00"  # a buffer's raw bytes: never the ranking
    profiles = [Profile.build(3, "ABC", [(row, 4), ((1,), 1)], 1) for row in rows]
    assert all(p == profiles[0] for p in profiles)
    assert profiles[0].ballots == (Ballot(b"\x01", 1), Ballot(b"\x02\x00", 4))
    assert all(type(b.ranking) is bytes for p in profiles for b in p.ballots)


@pytest.mark.parametrize("ranking", [(0, 1), [0, 1], bytearray(b"\x00\x01")])
def test_plain_constructor_rejects_rankings_that_are_not_bytes(ranking):
    match = f"^ballot {re.escape(repr(ranking))} is not a bytes ranking; use Profile.build"
    with pytest.raises(ProfileError, match=match):
        Profile(3, ("A", "B", "C"), (Ballot(b"\x00", 1), Ballot(ranking, 1)), 1)


def _merged(ballots):
    merged = {}
    for ranking, weight in ballots:
        merged[ranking] = merged.get(ranking, 0) + weight
    return merged


# ---------------------------------------------------------------------------
# remove_candidate


def test_removal_preserves_order_of_rest():
    p = Profile.build(3, ("S", "W", "A"), [((0, 1, 2), 1)], 1)
    out = remove_candidate(p, 0)
    assert out.names == ("W", "A")
    assert out.ballots == (Ballot(b"\x00\x01", 1),)


def test_removal_on_vote_splitting_profile(table_profile):
    out = remove_candidate(table_profile, 2)  # drop S
    assert out.names == ("A", "W")
    assert out.ballots == (Ballot(b"\x00\x01", 100), Ballot(b"\x01\x00", 130))
    assert out.n == 230


def test_removal_drops_emptied_ballots():
    p = Profile.build(3, "ABC", [((0,), 7), ((1, 2), 5)], 1)
    out = remove_candidate(p, 0)
    assert out.n == 5
    assert out.m == 2
    only_a = Profile.build(3, "ABC", [((0,), 7)], 1)
    with pytest.raises(ProfileError, match="^removing 'A' leaves no ballots$"):
        remove_candidate(only_a, 0)


def test_removal_rejected_when_seats_would_not_fit():
    p = Profile.build(3, "ABC", [((0, 1, 2), 1)], 2)
    with pytest.raises(ProfileError):
        remove_candidate(p, 0)
    with pytest.raises(ProfileError):
        remove_candidate(p.with_seats(1), 5)


# ---------------------------------------------------------------------------
# restrict_to_subset


def test_restriction_matches_hand_deletion(table_profile):
    out = restrict_to_subset(table_profile, {0, 1}, 1)
    assert out.names == ("A", "W")
    assert out.ballots == (Ballot(b"\x00\x01", 100), Ballot(b"\x01\x00", 130))


def test_restriction_to_full_set_is_identity(table_profile):
    assert restrict_to_subset(table_profile, range(3), 1) == table_profile


def test_restriction_drops_ballots_outside_subset():
    p = Profile.build(4, "ABCD", [((0, 1), 2), ((2, 3), 3)], 1)
    out = restrict_to_subset(p, {0, 1}, 1)
    assert out.n == 2
    only_cd = Profile.build(4, "ABCD", [((2, 3), 3)], 1)
    with pytest.raises(ProfileError, match="^restriction leaves no ballots$"):
        restrict_to_subset(only_cd, {0, 1}, 1)


def test_restriction_validates_subset(table_profile):
    with pytest.raises(ProfileError):
        restrict_to_subset(table_profile, {0, 7}, 1)
    with pytest.raises(ProfileError):
        restrict_to_subset(table_profile, {0, 1}, 2)


# ---------------------------------------------------------------------------
# Scores


def test_first_place_counts(table_profile):
    assert first_place_counts(table_profile) == (100, 90, 40)


def test_top_k_counts_partial_ballots_count_only_ranked():
    p = Profile.build(4, "ABCD", [((0,), 5), ((1, 2, 3), 2)], 3)
    assert top_k_counts(p, 3) == (5, 2, 2, 2)


def test_top_1_equals_first_place(table_profile):
    assert top_k_counts(table_profile, 1) == first_place_counts(table_profile)


def test_borda_optimistic_vs_pessimistic():
    # m=4, one ballot [A, B]: unranked C, D get m-l-1 = 1 under OM, 0 under PM.
    p = Profile.build(4, "ABCD", [((0, 1), 1)], 1)
    assert borda_scores(p, UnrankedModel.OPTIMISTIC) == (3, 2, 1, 1)
    assert borda_scores(p, UnrankedModel.PESSIMISTIC) == (3, 2, 0, 0)


def test_borda_on_complete_profile(table_profile):
    om = borda_scores(table_profile, UnrankedModel.OPTIMISTIC)
    pm = borda_scores(table_profile, UnrankedModel.PESSIMISTIC)
    assert om == pm == (200, 320, 170)


def test_pairwise_margin(table_profile):
    margins = pairwise_matrix(table_profile)
    assert margins[1][0] == 30
    assert margins[1][2] == 150


def test_pairwise_unranked_semantics():
    # One ballot [A] with m=3: A beats both; B vs C is a tie of unranked.
    p = Profile.build(3, "ABC", [((0,), 4)], 1)
    margins = pairwise_matrix(p)
    assert margins[0][1] == 4
    assert margins[1][2] == 0


# ---------------------------------------------------------------------------
# Property tests

profiles = st.builds(
    lambda m, k, raw: Profile.build(
        m,
        default_names(m),
        [
            (tuple(dict.fromkeys(c % m for c in cands)), w)
            for cands, w in raw
        ],
        min(k, m - 1),
    ),
    st.integers(2, 6),
    st.integers(1, 5),
    st.lists(
        st.tuples(st.lists(st.integers(0, 5), min_size=1, max_size=6), st.integers(1, 5)),
        min_size=1,
        max_size=8,
    ),
)


@given(profiles)
def test_first_place_counts_sum_to_n(p):
    assert sum(first_place_counts(p)) == p.n


@given(profiles)
def test_first_place_and_top_1_counts_match_naive_oracle(p):
    expected = tuple(naive_first_place(p))
    assert first_place_counts(p) == top_k_counts(p, 1) == expected


@given(profiles)
def test_top_k_counts_match_naive_oracle_at_every_depth(p):
    for k in range(1, p.m + 2):
        assert top_k_counts(p, k) == tuple(naive_top_k(p, k))


@given(profiles)
def test_top_m_counts_equal_mentions(p):
    mentions = [0] * p.m
    for ranking, weight in p.ballots:
        for c in ranking:
            mentions[c] += weight
    assert list(top_k_counts(p, p.m)) == mentions


@given(profiles)
def test_optimistic_borda_dominates_pessimistic(p):
    om = borda_scores(p, UnrankedModel.OPTIMISTIC)
    pm = borda_scores(p, UnrankedModel.PESSIMISTIC)
    assert all(a >= b for a, b in zip(om, pm))
    if all(len(b.ranking) >= p.m - 1 for b in p.ballots):
        assert om == pm


@given(profiles)
def test_borda_matches_naive_oracle(p):
    for model in UnrankedModel:
        assert list(borda_scores(p, model)) == naive_borda(p, model)


@given(profiles)
@settings(max_examples=60)
def test_pairwise_matrix_antisymmetric_and_matches_oracle(p):
    matrix = pairwise_matrix(p)
    for a in range(p.m):
        assert matrix[a][a] == 0
        for b in range(p.m):
            if a != b:
                assert matrix[a][b] == -matrix[b][a]
                assert matrix[a][b] == naive_margin(p, a, b)


@given(profiles)
def test_removal_matches_by_name_oracle(p):
    for c in range(p.m):
        try:
            expected = _profile_without(p, c)
        except ProfileError:
            with pytest.raises(ProfileError):
                remove_candidate(p, c)
        else:
            assert remove_candidate(p, c) == expected


@given(profiles, st.data())
@settings(max_examples=60)
def test_removals_commute(p, data):
    if p.m - 2 <= p.k:
        return
    x = data.draw(st.integers(0, p.m - 1))
    y = data.draw(st.integers(0, p.m - 1).filter(lambda v: v != x))
    name_x, name_y = p.names[x], p.names[y]

    def remove_by_name(profile, name):
        return remove_candidate(profile, profile.names.index(name))

    try:
        one = remove_by_name(remove_by_name(p, name_x), name_y)
        two = remove_by_name(remove_by_name(p, name_y), name_x)
    except ProfileError:
        return  # all ballots vanished along one order; vacuous
    assert one == two


# ---------------------------------------------------------------------------
# Derived profiles skip ballot validation; they must still pass it.


def revalidated(p: Profile) -> Profile:
    """``p`` rebuilt through the fully validating constructor."""
    return Profile(m=p.m, names=p.names, ballots=p.ballots, k=p.k)


@given(profiles, st.data())
@settings(max_examples=80)
def test_derived_profiles_pass_full_validation(p, data):
    c = data.draw(st.integers(0, p.m - 1))
    try:
        reduced = remove_candidate(p, c)
    except ProfileError:
        pass
    else:
        assert revalidated(reduced) == reduced
    subset = data.draw(st.sets(st.integers(0, p.m - 1), min_size=2))
    k_new = data.draw(st.integers(1, len(subset) - 1))
    try:
        restricted = restrict_to_subset(p, subset, k_new)
    except ProfileError:
        pass
    else:
        assert revalidated(restricted) == restricted
    if p.m > 2:
        k = data.draw(st.integers(1, p.m - 1))
        assert revalidated(p.with_seats(k)) == p.with_seats(k)


@given(profiles, st.integers(-2, 8))
def test_with_seats_rejects_out_of_range_k(p, k):
    if 1 <= k < p.m:
        assert p.with_seats(k).k == k
    else:
        with pytest.raises(ProfileError):
            p.with_seats(k)


# ---------------------------------------------------------------------------
# Outcomes


def test_outcome_constructor_checks_its_invariant():
    with pytest.raises(ValueError, match="^outcome must contain at least one committee$"):
        OutcomeSet(frozenset())
    mixed = frozenset({frozenset({0}), frozenset({0, 1})})
    with pytest.raises(ValueError, match=re.escape("committees of mixed sizes: [1, 2]")):
        OutcomeSet(mixed)
    with pytest.raises(ValueError, match="mixed sizes"):
        OutcomeSet(committees=mixed, tie_flag=True)
    with pytest.raises(ValueError, match="mixed sizes"):
        OutcomeSet.single([0])._replace(committees=mixed)


def test_single_outcome_equals_the_checked_constructor():
    single = OutcomeSet.single([2, 0], tie_flag=True)
    checked = OutcomeSet(frozenset({frozenset({0, 2})}), True)
    assert single == checked and type(single) is type(checked) is OutcomeSet
    assert OutcomeSet.single((1,)) == OutcomeSet(committees=frozenset({frozenset({1})}))
    assert repr(single) == "OutcomeSet(committees=frozenset({frozenset({0, 2})}), tie_flag=True)"
    # A one-committee outcome's winners are that committee; a tie's, the union.
    assert single.winners is next(iter(single.committees))
    tied = OutcomeSet(frozenset({frozenset({0, 1}), frozenset({1, 3})}), True)
    assert tied.winners == frozenset({0, 1, 3})
