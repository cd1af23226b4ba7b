"""Counting with a candidate out against removing it.

``run_method(..., out=c)`` must equal ``remove_candidate`` followed by a
re-run, with the committees mapped back to the parent's indices: equal
committees and tie flags, and equal texts of every ``TieError``,
``SearchBudgetError`` and ``ProfileError``, under all three tie policies.
One property per family of rules, on small profiles with the size switch
open (so that they count as a ward does), then the ward itself at several
seat counts, and an m = 12 ward-size profile, above the table bound, on
which SRCV and top-k IRV exclude on piles.  Last, the pair-count,
positional-score and satisfaction identities the exclusions rest on,
against per-ballot oracles.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers import core, methods
from mwspoilers.core import (
    Profile,
    ProfileError,
    UnrankedModel,
    borda_scores,
    default_names,
    pairwise_matrix,
    remove_candidate,
    top_k_counts,
)
from mwspoilers.methods import SearchBudgetError, TieError, TiePolicy, run_method

from conftest import ranked_profiles
from oracles import _profile_without, naive_borda, naive_margin, naive_satisfaction

FAMILIES = {
    "full_value": ("topk_irv", "srcv", "topk_irv"),  # top-k IRV before and after SRCV's table
    "top_counts": ("sntv", "bloc"),
    "pair_counts": ("borda_om", "borda_pm", "mcc"),
    "points": ("cc_om", "cc_pm", "greedy_om", "greedy_pm"),
}
ERRORS = (TieError, SearchBudgetError, ProfileError)


def in_parent_ids(outcome, removed: int):
    committees = frozenset(
        frozenset(c + (c >= removed) for c in committee) for committee in outcome.committees
    )
    return committees, outcome.tie_flag


def by_exclusion(mid: str, p: Profile, tie: TiePolicy, c: int):
    try:
        outcome = run_method(mid, p, tie, out=c)
    except ERRORS as exc:
        return f"{type(exc).__name__}: {exc}"
    return outcome.committees, outcome.tie_flag


def by_removal(mid: str, p: Profile, tie: TiePolicy, c: int):
    try:
        return in_parent_ids(run_method(mid, remove_candidate(p, c), tie), c)
    except ERRORS as exc:
        return f"{type(exc).__name__}: {exc}"


def fresh(p: Profile) -> Profile:
    """An equal profile that holds no cached count."""
    return Profile.build(p.m, p.names, p.ballots, p.k)


def assert_exclusion_equals_removal(p: Profile, family: str) -> None:
    """For every rule of ``family``, policy and candidate of ``p``."""
    for mid, tie in itertools.product(FAMILIES[family], TiePolicy):
        for c in range(p.m):
            assert by_exclusion(mid, p, tie, c) == by_removal(mid, p, tie, c), (mid, tie, c)


@pytest.mark.parametrize("family", FAMILIES)
@given(p=ranked_profiles(), budget=st.sampled_from([methods._SEARCH_BUDGET, 3]))
@settings(max_examples=150, deadline=None)
def test_exclusion_equals_removal_on_small_profiles(family, p, budget):
    # With the size switch at one ballot type, every count runs as on a ward:
    # SRCV builds the table, the scores come from the array form.  A budget
    # of 3 makes the committee searches refuse, and exact CC scan.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_ARRAY_TALLY_TYPES", 1)
        patch.setattr(methods, "_SEARCH_BUDGET", budget)
        assert_exclusion_equals_removal(fresh(p), family)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [1, 4, 8])
def test_exclusion_equals_removal_on_a_ward(ward, family, k):
    p = fresh(ward.with_seats(k))
    assert core._array_sized(p)
    assert_exclusion_equals_removal(p, family)
    assert ("continuing_totals" in vars(p)) == (family == "full_value")


@pytest.fixture(scope="module")
def wide_ward() -> Profile:
    """A seeded m=12, k=3 partial-ballot election of about 1,000 ballot types."""
    m = 12
    rng = np.random.default_rng(20261021)
    ballots = [
        (tuple(rng.permutation(m)[: int(rng.integers(1, 6))].tolist()), int(rng.integers(1, 30)))
        for _ in range(1200)
    ]
    return Profile.build(m, default_names(m), ballots, 3)


@pytest.mark.parametrize("family", FAMILIES)
def test_exclusion_equals_removal_above_the_table_bound(wide_ward, family):
    p = fresh(wide_ward)
    assert core._array_sized(p) and p.m > methods._TABLE_CANDIDATES
    assert_exclusion_equals_removal(p, family)
    assert "continuing_totals" not in vars(p)  # SRCV and top-k IRV counted on piles


def test_stv_counts_whole_profiles_only(table_profile):
    with pytest.raises(ValueError, match="remove the candidate first"):
        run_method("stv", table_profile.with_seats(1), TiePolicy.ERROR, out=2)


@pytest.mark.parametrize(
    "out, match",
    [(3, "no candidate with index 3"), (-1, "no candidate with index -1")],
)
def test_an_unknown_candidate_out_is_a_profile_error(table_profile, out, match):
    with pytest.raises(ProfileError, match=match):
        run_method("sntv", table_profile, TiePolicy.ERROR, out=out)


# ---------------------------------------------------------------------------
# The identities


def naive_pair_counts(p: Profile) -> tuple[list[list[int]], list[list[int]]]:
    """``ahead[a][b]``: the ballots that rank a and not b before it;
    ``neither[a][b]``: those that rank neither, ballot by ballot."""
    ahead = [[0] * p.m for _ in range(p.m)]
    neither = [[0] * p.m for _ in range(p.m)]
    for ranking, weight in p.ballots:
        for a, b in itertools.product(range(p.m), repeat=2):
            if a in ranking and a != b and (b not in ranking or ranking.index(b) > ranking.index(a)):
                ahead[a][b] += weight
            if a not in ranking and b not in ranking and a != b:
                neither[a][b] += weight
    return ahead, neither


def in_parent_order(scores: tuple[int, ...], removed: int) -> list[int]:
    """A reduced profile's scores at the parent's indices, 0 at ``removed``."""
    return [*scores[:removed], 0, *scores[removed:]]


@given(ranked_profiles())
@settings(max_examples=200, deadline=None)
def test_pair_counts_give_the_margins_and_every_removal_s_scores(p):
    ahead, neither = p.pair_counts
    assert (ahead.tolist(), neither.tolist()) == naive_pair_counts(p)
    assert not ahead.flags.writeable and not neither.flags.writeable
    margins = tuple(map(tuple, (ahead - ahead.T).tolist()))
    assert margins == pairwise_matrix(p) == tuple(
        tuple(naive_margin(p, a, b) if a != b else 0 for b in range(p.m)) for a in range(p.m)
    )
    # Borda PM counts, per other candidate, the ballots ranking d and not it
    # before d; Borda OM also those ranking neither.
    assert ahead.sum(axis=1).tolist() == naive_borda(p, UnrankedModel.PESSIMISTIC)
    assert (ahead + neither).sum(axis=1).tolist() == naive_borda(p, UnrankedModel.OPTIMISTIC)
    if p.m < 3:
        return
    p = p.with_seats(1)
    for c in range(p.m):
        try:
            reduced = _profile_without(p, c)
        except ProfileError:  # every ballot ranks c alone
            continue
        for model in UnrankedModel:
            expected = in_parent_order(tuple(naive_borda(reduced, model)), c)
            assert list(borda_scores(p, model, c)) == expected, (model, c)
        for j in range(1, p.m + 2):
            expected = in_parent_order(top_k_counts(reduced, j), c)
            assert list(top_k_counts(p, j, c)) == expected, (j, c)


@given(ranked_profiles())
@settings(max_examples=200, deadline=None)
def test_the_cc_input_with_a_candidate_out_scores_every_committee_as_the_removal(p):
    if p.m < 3:
        return
    p = p.with_seats(1)
    for c, model in itertools.product(range(p.m), UnrankedModel):
        try:
            reduced = _profile_without(p, c)
        except ProfileError:  # every ballot ranks c alone
            continue
        points, weights, candidates = methods._cc_input(p, model, c)
        assert list(candidates) == [x for x in range(p.m) if x != c]
        for size in (1, 2):
            for columns in itertools.combinations(range(p.m - 1), size):
                got = int(points[:, list(columns)].max(axis=1) @ weights)
                assert got == naive_satisfaction(reduced, columns, model), (c, model, columns)


def test_score_identities_hold_on_a_ward_s_removals(ward):
    for c in range(ward.m):
        reduced = remove_candidate(ward, c)
        for model in UnrankedModel:
            assert list(borda_scores(ward, model, c)) == in_parent_order(
                borda_scores(reduced, model), c
            )
        for j in range(1, ward.m + 1):
            assert list(top_k_counts(ward, j, c)) == in_parent_order(top_k_counts(reduced, j), c)
