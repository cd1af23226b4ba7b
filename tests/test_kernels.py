"""The integer array kernels against the scalar oracles, and their guards."""

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
    pairwise_matrix,
    point_matrix,
)
from mwspoilers.harness import run_corpus_audit
from mwspoilers.methods import (
    TiePolicy,
    chamberlin_courant,
    committee_satisfaction,
    greedy_cc,
    mcc,
)

from conftest import outcome_or_tie
from oracles import (
    cc_enumeration,
    greedy_cc_reference,
    naive_borda,
    naive_margin,
    naive_satisfaction,
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
    assert column_sums == list(borda_scores(p, model).values) == naive_borda(p, model)


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
