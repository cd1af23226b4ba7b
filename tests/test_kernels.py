"""The integer kernels (the array form and the position tally) against the
scalar oracles, and their guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers.core import (
    Profile,
    ProfileError,
    UnrankedModel,
    borda_scores,
    default_names,
    first_place_counts,
    pairwise_matrix,
    point_matrix,
    top_k_counts,
)
from mwspoilers.harness import run_corpus_audit
from mwspoilers.methods import (
    TiePolicy,
    _top_k_outcome,
    chamberlin_courant,
    committee_satisfaction,
    greedy_cc,
    mcc,
    run_method,
)
from mwspoilers.spoilers import weakness_flags

from conftest import outcome_or_tie
from oracles import (
    borda_scores_reference,
    cc_enumeration,
    greedy_cc_reference,
    naive_borda,
    naive_margin,
    naive_satisfaction,
    top_k_counts_reference,
)


@st.composite
def partial_profiles(draw, max_m=10, max_weight=10**6):
    """Partial-ballot elections; small weights come often, so ties do too."""
    m = draw(st.integers(2, max_m))
    k = draw(st.integers(1, m - 1))
    weight = st.one_of(st.integers(1, 3), st.integers(1, max_weight))
    ballot = st.tuples(st.permutations(range(m)), st.integers(1, m), weight)
    ballots = draw(st.lists(ballot, min_size=1, max_size=12))
    rankings = [(order[:length], w) for order, length, w in ballots]
    return Profile.build(m, default_names(m), rankings, k)


@given(partial_profiles(), st.sampled_from(UnrankedModel), st.sampled_from(TiePolicy))
@settings(max_examples=150, deadline=None)
def test_greedy_cc_matches_scalar_reference(p, model, tie):
    got = outcome_or_tie(greedy_cc, p, model, tie)
    assert got == outcome_or_tie(greedy_cc_reference, p, model, tie)


@given(partial_profiles(), st.sampled_from(UnrankedModel))
@settings(max_examples=100, deadline=None)
def test_chamberlin_courant_matches_enumeration(p, model):
    assert chamberlin_courant(p, model).committees == cc_enumeration(p, model)


@given(partial_profiles(), st.sampled_from(UnrankedModel), st.data())
@settings(max_examples=150, deadline=None)
def test_committee_satisfaction_matches_oracle(p, model, data):
    committee = data.draw(st.lists(st.integers(0, p.m - 1), min_size=1, max_size=p.m, unique=True))
    got = committee_satisfaction(p, committee, model)
    assert type(got) is int
    assert got == naive_satisfaction(p, committee, model)


@given(partial_profiles())
@settings(max_examples=150, deadline=None)
def test_pairwise_matrix_matches_naive_margins(p):
    matrix = pairwise_matrix(p)
    assert all(type(v) is int for row in matrix for v in row)
    assert matrix == tuple(
        tuple(naive_margin(p, a, b) if a != b else 0 for b in range(p.m)) for a in range(p.m)
    )


@given(partial_profiles(), st.sampled_from(UnrankedModel))
@settings(max_examples=150, deadline=None)
def test_point_matrix_column_sums_are_borda_scores(p, model):
    points = point_matrix(p, model)
    assert points.dtype == np.int64 and points.min() >= 0
    column_sums = (p.arrays.weights @ points).tolist()
    assert column_sums == list(borda_scores(p, model)) == naive_borda(p, model)


REFERENCE_SCORES = {
    "sntv": lambda p: top_k_counts_reference(p, 1),
    "bloc": lambda p: top_k_counts_reference(p, p.k),
    "borda_om": lambda p: borda_scores_reference(p, UnrankedModel.OPTIMISTIC),
    "borda_pm": lambda p: borda_scores_reference(p, UnrankedModel.PESSIMISTIC),
}


@given(partial_profiles(), st.sampled_from(TiePolicy))
@settings(max_examples=150)
def test_positional_scores_and_rules_match_the_former_scalar_loops(p, tie):
    for k in range(1, p.m + 2):
        assert top_k_counts(p, k) == top_k_counts_reference(p, k)
    for model in UnrankedModel:
        assert borda_scores(p, model) == borda_scores_reference(p, model)
    for mid, scores in REFERENCE_SCORES.items():
        expected = outcome_or_tie(_top_k_outcome, p, scores(p), tie)
        assert outcome_or_tie(run_method, mid, p, tie) == expected


def _score_queries(m: int):
    """Every positional score query, each as (label, function of a profile)."""
    queries = [("first", first_place_counts), ("weakness", weakness_flags)]
    queries += [(f"top{d}", lambda p, d=d: top_k_counts(p, d)) for d in range(1, m + 2)]
    queries += [(f"borda_{model.value}", lambda p, model=model: borda_scores(p, model))
                for model in UnrankedModel]
    queries += [(mid, lambda p, mid=mid: run_method(mid, p, TiePolicy.ALPHABETICAL))
                for mid in REFERENCE_SCORES]
    return queries


@given(partial_profiles(), st.data())
@settings(max_examples=100)
def test_score_queries_in_any_order_match_fresh_profiles(p, data):
    order = data.draw(st.permutations(_score_queries(p.m)))
    for label, query in order:
        fresh = Profile.build(p.m, p.names, p.ballots, p.k)
        assert query(p) == query(fresh), label


# ---------------------------------------------------------------------------
# Guards


def test_cached_arrays_are_read_only_and_built_once():
    p = Profile.build(3, "ABC", [((0, 2), 4), ((1,), 2)], 1)
    assert p.arrays is p.arrays
    positions, weights = p.arrays
    assert positions.tolist() == [[0, 3, 1], [3, 0, 3]]
    assert weights.tolist() == [4, 2]
    with pytest.raises(ValueError):
        positions[0, 0] = 2
    with pytest.raises(ValueError):
        weights += 1
    assert p.arrays.weights.tolist() == [4, 2]


def test_cached_tally_is_immutable_and_built_once():
    p = Profile.build(3, "ABC", [((0, 2), 4), ((1,), 2)], 1)
    assert p.tally is p.tally
    assert p.tally == ((4, 2, 0, 4, 2, 4, 4, 2, 4), 2, (0, 2, 0))
    with pytest.raises(TypeError):
        p.tally.top[0] = 5
    with pytest.raises(AttributeError):
        p.tally.unranked = 0
    with pytest.raises(AttributeError):
        p.tally = p.tally._replace(unranked=0)
    assert top_k_counts(p, 1) == (4, 2, 0)
    assert borda_scores(p, UnrankedModel.PESSIMISTIC) == (8, 4, 4)
    assert borda_scores(p, UnrankedModel.OPTIMISTIC) == (10, 4, 6)


@pytest.mark.parametrize("committee", [[], [-1], [0, 3]])
def test_committee_satisfaction_rejects_unknown_candidates(committee):
    p = Profile.build(3, "ABC", [((0, 2), 4), ((1,), 2)], 1)
    with pytest.raises(ProfileError):
        committee_satisfaction(p, committee, UnrankedModel.OPTIMISTIC)


def huge_profile() -> Profile:
    """n * m does not fit in int64, though every weight does."""
    return Profile.build(4, "ABCD", [((0, 1), 2**62), ((2, 3, 1), 1)], 2)


@pytest.mark.parametrize(
    "rule",
    [
        lambda p: chamberlin_courant(p, UnrankedModel.OPTIMISTIC),
        lambda p: chamberlin_courant(p, UnrankedModel.PESSIMISTIC),
        lambda p: greedy_cc(p, UnrankedModel.OPTIMISTIC, TiePolicy.ALPHABETICAL),
        lambda p: greedy_cc(p, UnrankedModel.PESSIMISTIC, TiePolicy.ALPHABETICAL),
        lambda p: mcc(p, TiePolicy.ALPHABETICAL),
    ],
    ids=["cc_om", "cc_pm", "greedy_om", "greedy_pm", "mcc"],
)
def test_int64_overflow_is_a_profile_error(rule):
    with pytest.raises(ProfileError, match="overflows"):
        rule(huge_profile())


def test_corpus_audit_counts_overflow_as_an_audit_error():
    array_rules = ["cc_om", "cc_pm", "greedy_om", "greedy_pm", "mcc"]
    result = run_corpus_audit([("huge", huge_profile())], [*array_rules, "sntv"])
    for mid in array_rules:
        tally = result.methods[mid].tally
        assert (tally.requested, tally.errors, tally.used) == (1, 1, 0)
    assert result.methods["sntv"].tally.errors == 0
    assert [(e, mid) for e, mid, _ in result.failures] == [("huge", mid) for mid in array_rules]
    assert all("ProfileError" in message for _, _, message in result.failures)
