import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers.core import (
    Ballot,
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
from oracles import naive_borda, naive_margin


# ---------------------------------------------------------------------------
# Profile construction


def test_build_merges_duplicate_ballot_types():
    p = Profile.build(3, "ABC", [((0, 1), 1), ((0, 1), 1), ((2,), 3)], 1)
    assert p.ballots == (Ballot((0, 1), 2), Ballot((2,), 3))
    assert p.n == 5


def test_invalid_profiles_rejected():
    with pytest.raises(ProfileError):
        Profile.build(3, "ABC", [((0, 0), 1)], 1)  # duplicate candidate
    with pytest.raises(ProfileError):
        Profile.build(3, "ABC", [((3,), 1)], 1)  # index out of range
    with pytest.raises(ProfileError):
        Profile.build(3, "ABC", [((0,), 0)], 1)  # zero weight
    with pytest.raises(ProfileError):
        Profile.build(3, "ABC", [((0,), 1)], 3)  # k >= m
    with pytest.raises(ProfileError):
        Profile.build(3, "ABC", [], 1)  # no ballots


# ---------------------------------------------------------------------------
# remove_candidate


def test_removal_preserves_order_of_rest():
    p = Profile.build(3, ("S", "W", "A"), [((0, 1, 2), 1)], 1)
    out = remove_candidate(p, 0)
    assert out.names == ("W", "A")
    assert out.ballots == (Ballot((0, 1), 1),)


def test_removal_on_vote_splitting_profile(table_profile):
    out = remove_candidate(table_profile, 2)  # drop S
    assert out.names == ("A", "W")
    assert out.ballots == (Ballot((0, 1), 100), Ballot((1, 0), 130))
    assert out.n == 230


def test_removal_drops_emptied_ballots():
    p = Profile.build(3, "ABC", [((0,), 7), ((1, 2), 5)], 1)
    out = remove_candidate(p, 0)
    assert out.n == 5
    assert out.m == 2


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
    assert out.ballots == (Ballot((0, 1), 100), Ballot((1, 0), 130))


def test_restriction_to_full_set_is_identity(table_profile):
    assert restrict_to_subset(table_profile, range(3), 1) == table_profile


def test_restriction_drops_ballots_outside_subset():
    p = Profile.build(4, "ABCD", [((0, 1), 2), ((2, 3), 3)], 1)
    out = restrict_to_subset(p, {0, 1}, 1)
    assert out.n == 2


def test_restriction_validates_subset(table_profile):
    with pytest.raises(ProfileError):
        restrict_to_subset(table_profile, {0, 7}, 1)
    with pytest.raises(ProfileError):
        restrict_to_subset(table_profile, {0, 1}, 2)


# ---------------------------------------------------------------------------
# Scores


def test_first_place_counts(table_profile):
    assert first_place_counts(table_profile).values == (100, 90, 40)


def test_top_k_counts_partial_ballots_count_only_ranked():
    p = Profile.build(4, "ABCD", [((0,), 5), ((1, 2, 3), 2)], 3)
    assert top_k_counts(p, 3).values == (5, 2, 2, 2)


def test_top_1_equals_first_place(table_profile):
    assert top_k_counts(table_profile, 1).values == first_place_counts(table_profile).values


def test_borda_optimistic_vs_pessimistic():
    # m=4, one ballot [A, B]: unranked C, D get m-l-1 = 1 under OM, 0 under PM.
    p = Profile.build(4, "ABCD", [((0, 1), 1)], 1)
    assert borda_scores(p, UnrankedModel.OPTIMISTIC).values == (3, 2, 1, 1)
    assert borda_scores(p, UnrankedModel.PESSIMISTIC).values == (3, 2, 0, 0)


def test_borda_on_complete_profile(table_profile):
    om = borda_scores(table_profile, UnrankedModel.OPTIMISTIC)
    pm = borda_scores(table_profile, UnrankedModel.PESSIMISTIC)
    assert om.values == pm.values == (200, 320, 170)


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
    assert sum(first_place_counts(p).values) == p.n


@given(profiles)
def test_top_m_counts_equal_mentions(p):
    mentions = [0] * p.m
    for ranking, weight in p.ballots:
        for c in ranking:
            mentions[c] += weight
    assert list(top_k_counts(p, p.m).values) == mentions


@given(profiles)
def test_optimistic_borda_dominates_pessimistic(p):
    om = borda_scores(p, UnrankedModel.OPTIMISTIC).values
    pm = borda_scores(p, UnrankedModel.PESSIMISTIC).values
    assert all(a >= b for a, b in zip(om, pm))
    if all(len(b.ranking) >= p.m - 1 for b in p.ballots):
        assert om == pm


@given(profiles)
def test_borda_matches_naive_oracle(p):
    for model in UnrankedModel:
        assert list(borda_scores(p, model).values) == naive_borda(p, model)


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
