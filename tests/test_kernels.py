"""The integer kernels (the array form and the position tally) against the
scalar oracles, and their guards."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers import core, methods
from mwspoilers.core import (
    OutcomeSet,
    Profile,
    ProfileError,
    UnrankedModel,
    borda_scores,
    default_names,
    first_place_counts,
    pairwise_matrix,
    point_matrix,
    remove_candidate,
    top_k_counts,
)
from mwspoilers.harness import run_corpus_audit
from mwspoilers.methods import (
    SearchBudgetError,
    TiePolicy,
    _cc_scan,
    _cc_table,
    _top_k_outcome,
    chamberlin_courant,
    committee_satisfaction,
    greedy_cc,
    mcc,
    run_method,
)
from mwspoilers.spoilers import weakness_flags

from conftest import outcome_or_tie, ranked_profiles
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


def tallied(p: Profile, threshold: float) -> Profile:
    """A fresh copy of ``p``, its tally counted with the size switch at ``threshold``
    ballot types: at 1 every profile takes the array kernel, at infinity the loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_ARRAY_TALLY_TYPES", threshold)
        fresh = Profile.build(p.m, p.names, p.ballots, p.k)
        fresh.tally
    return fresh


def took_arrays(p: Profile) -> bool:
    return "arrays" in vars(p)  # the array kernel builds and caches the array form


# Weights this large fill int64: 12 ballots x m <= 10 stay just inside it.
@given(partial_profiles(max_weight=core._INT64_MAX // 120))
@settings(max_examples=200)
def test_array_tally_matches_the_loop_and_the_oracles(p):
    by_arrays, by_loop = tallied(p, 1), tallied(p, math.inf)
    assert took_arrays(by_arrays) and not took_arrays(by_loop)
    assert by_arrays.tally == by_loop.tally
    assert all(type(v) is int for v in (*by_arrays.tally.top, *by_arrays.tally.unranked_shares))
    for k in range(1, p.m + 2):
        assert top_k_counts(by_arrays, k) == top_k_counts_reference(p, k)
    for model in UnrankedModel:
        assert borda_scores(by_arrays, model) == borda_scores_reference(p, model)


def test_array_tally_matches_the_loop_on_a_ward_and_its_removals(ward):
    # The ward and each of its single-candidate removals, as an audit re-runs them.
    for p in [ward] + [remove_candidate(ward, c) for c in range(ward.m)]:
        fresh = Profile.build(p.m, p.names, p.ballots, p.k)
        assert fresh.tally == tallied(p, math.inf).tally
        assert took_arrays(fresh) == (len(p.ballots) >= core._ARRAY_TALLY_TYPES)
    assert took_arrays(fresh)  # the last removal is ward-sized too


def test_a_large_profile_that_overflows_int64_keeps_the_exact_loop():
    m = 8
    rankings = itertools.islice(itertools.permutations(range(m), 3), core._ARRAY_TALLY_TYPES)
    p = Profile.build(m, default_names(m), [(r, 2**62 if r[0] else 1) for r in rankings], 2)
    assert len(p.ballots) == core._ARRAY_TALLY_TYPES and p.n * m > core._INT64_MAX
    for mid, scores in REFERENCE_SCORES.items():
        assert run_method(mid, p, TiePolicy.LOWEST_INDEX) == _top_k_outcome(
            p, scores(p), TiePolicy.LOWEST_INDEX
        )
    assert not took_arrays(p)
    result = run_corpus_audit([("huge", p)], list(REFERENCE_SCORES), tie=TiePolicy.LOWEST_INDEX)
    assert result.failures == []
    assert all(result.methods[mid].used == 1 for mid in REFERENCE_SCORES)


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
        tally = result.methods[mid]
        assert (tally.requested, tally.errors, tally.used) == (1, 1, 0)
    assert result.methods["sntv"].errors == 0
    assert [(e, mid) for e, mid, _ in result.failures] == [("huge", mid) for mid in array_rules]
    assert all("ProfileError" in message for _, _, message in result.failures)


# ---------------------------------------------------------------------------
# Exact Chamberlin-Courant: the subset-sum table and the committee scan

CC_ENGINES = pytest.mark.parametrize("engine", [_cc_table, _cc_scan], ids=["table", "scan"])


def cc_oracle_outcome(p: Profile, model: UnrankedModel) -> OutcomeSet:
    committees = cc_enumeration(p, model)
    return OutcomeSet(committees=committees, tie_flag=len(committees) > 1)


@CC_ENGINES
@given(ranked_profiles(), st.sampled_from(UnrankedModel))
@settings(max_examples=300, deadline=None)
def test_cc_engines_match_enumeration(engine, p, model):
    assert engine(p, model) == cc_oracle_outcome(p, model)


@pytest.mark.parametrize("model", list(UnrankedModel))
def test_cc_engines_match_enumeration_on_a_ward(ward, model):
    # The ward and each of its single-candidate removals, as an audit re-runs them.
    for p in [ward] + [remove_candidate(ward, c) for c in range(ward.m)]:
        expected = cc_oracle_outcome(p, model)
        assert _cc_table(p, model) == _cc_scan(p, model) == expected


@CC_ENGINES
def test_cc_engines_return_every_tied_committee(engine):
    # One voter ranks A over B, one C over D: for one seat, A and C tie.
    p = Profile.build(4, "ABCD", [((0, 1), 1), ((2, 3), 1)], 1)
    for model in UnrankedModel:
        outcome = engine(p, model)
        assert outcome == OutcomeSet(frozenset({frozenset({0}), frozenset({2})}), tie_flag=True)
        assert outcome == cc_oracle_outcome(p, model)
    # Three equal blocs for two seats: any two of their favourites.
    p = Profile.build(6, "ABCDEF", [((0, 1), 2), ((2, 3), 2), ((4, 5), 2)], 2)
    for model in UnrankedModel:
        outcome = engine(p, model)
        assert len(outcome.committees) == 3 and outcome.tie_flag
        assert outcome == cc_oracle_outcome(p, model)


def spy_on_cc_engines(monkeypatch) -> list[str]:
    chosen: list[str] = []
    for name in ("_cc_table", "_cc_scan"):
        engine = getattr(methods, name)

        def spy(p, model, engine=engine, name=name):
            chosen.append(name)
            return engine(p, model)

        monkeypatch.setattr(methods, name, spy)
    return chosen


def pairs_profile(m: int, k: int) -> Profile:
    """m ballot types, each ranking one candidate over the next."""
    return Profile.build(m, default_names(m), [((c, (c + 1) % m), 1 + c % 3) for c in range(m)], k)


def test_cc_takes_the_table_whenever_it_fits_the_budget(ward, monkeypatch):
    chosen = spy_on_cc_engines(monkeypatch)
    for p, engine in [
        (ward, "_cc_table"),  # m=10, k=4
        (ward.with_seats(1), "_cc_table"),
        (Profile.build(10, ward.names, ward.ballots[:5], 1), "_cc_table"),  # few ballot types
        (pairs_profile(19, 1), "_cc_table"),  # 2**19 entries fit the budget
        (pairs_profile(20, 1), "_cc_scan"),  # 2**20 entries exceed it
        (pairs_profile(22, 2), "_cc_scan"),
    ]:
        chosen.clear()
        chamberlin_courant(p, UnrankedModel.OPTIMISTIC)
        assert chosen == [engine]
    monkeypatch.setattr(methods, "_SEARCH_BUDGET", 2**10 - 1)
    chosen.clear()
    chamberlin_courant(ward, UnrankedModel.OPTIMISTIC)
    assert chosen == ["_cc_scan"]


def test_cc_checks_the_budget_before_the_arrays_and_either_engine(monkeypatch):
    chosen = spy_on_cc_engines(monkeypatch)
    m = 40
    p = Profile.build(m, default_names(m), [((0, 1), 2**62), ((2,), 1)], 20)
    with pytest.raises(SearchBudgetError, match=r"^C\(40, 20\) = 137846528820 committees "
                       r"exceeds budget 1000000; use greedy_cc$"):
        chamberlin_courant(p, UnrankedModel.OPTIMISTIC)
    assert chosen == []


@pytest.mark.parametrize("model", list(UnrankedModel))
def test_int64_overflow_is_a_profile_error_in_either_cc_engine(model, monkeypatch):
    chosen = spy_on_cc_engines(monkeypatch)
    wide = Profile.build(22, default_names(22), [((0, 1), 2**62), ((2, 3, 1), 1)], 2)
    for p, engine in [(huge_profile(), "_cc_table"), (wide, "_cc_scan")]:
        chosen.clear()
        with pytest.raises(
            ProfileError, match=rf"^n=\d+ voters x m={p.m} candidates overflows 64-bit"
        ):
            chamberlin_courant(p, model)
        assert chosen == [engine]
