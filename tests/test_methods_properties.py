"""Invariants and oracle equivalences over randomized small elections."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers import core, methods
from mwspoilers.core import (
    Profile,
    pairwise_matrix,
    UnrankedModel,
    default_names,
    first_place_counts,
    remove_candidate,
)
from mwspoilers.methods import (
    METHODS,
    UNIT,
    TieError,
    TiePolicy,
    _first_preferences,
    chamberlin_courant,
    committee_satisfaction,
    condorcet_committee,
    greedy_cc,
    mcc,
    run_method,
    srcv,
    stv,
    top_k_irv,
)

from conftest import outcome_or_tie, random_profile, ranked_profiles
from oracles import (
    all_condorcet_committees,
    cc_enumeration,
    condorcet_committee_by_subsets,
    first_preferences_by_placing,
    mcc_by_subsets,
    naive_borda,
    sole_committee,
    srcv_by_removal,
    stv_by_parcels,
    stv_reference,
    top_k_irv_reference,
)


def seeded_profiles(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    return [random_profile(rng, **kwargs) for _ in range(count)]


# ---------------------------------------------------------------------------
# Anonymity and weight consistency


@pytest.mark.parametrize("mid", sorted(METHODS))
def test_rules_are_anonymous_and_weight_consistent(mid):
    for p in seeded_profiles(101, 40):
        try:
            base = run_method(mid, p, TiePolicy.ALPHABETICAL)
        except TieError:
            continue
        # Splitting every weight-w ballot into w weight-1 ballots changes nothing.
        split = Profile.build(
            p.m,
            p.names,
            [(b.ranking, 1) for b in p.ballots for _ in range(b.weight)],
            p.k,
        )
        again = run_method(mid, split, TiePolicy.ALPHABETICAL)
        assert again.committees == base.committees


# ---------------------------------------------------------------------------
# STV trace invariants


def test_stv_trace_invariants_on_random_profiles():
    for p in seeded_profiles(202, 150):
        try:
            outcome, trace = stv(p, TiePolicy.ALPHABETICAL)
        except Exception:
            continue
        committee = sole_committee(outcome)
        assert len(committee) == p.k
        assert len(trace.winners) == p.k
        first = first_place_counts(p)
        assert dict(trace.rounds[0].totals) == {
            c: first[c] * UNIT for c in range(p.m)
        }
        assert all(units >= 0 for rnd in trace.rounds for _, units in rnd.totals)
        # Displayed totals follow the official table convention (elected
        # candidates drop out at declaration), so the conserved quantity is
        # displayed + held-by-elected + exhausted: it starts at n and only
        # shrinks, by truncation dust and nothing else.
        declared_total: dict[int, int] = {}
        transferred: set[int] = set()
        budgets = []
        for rnd in trace.rounds:
            displayed = dict(rnd.totals)
            held = sum(
                trace.quota if c in transferred else declared_total[c]
                for c in declared_total
                if c not in displayed
            )
            budgets.append(sum(displayed.values()) + held + rnd.exhausted)
            for c, _surplus in rnd.elected:
                declared_total[c] = displayed[c]
            if rnd.transferred is not None:
                transferred.add(rnd.transferred)
        assert budgets[0] == p.n * UNIT
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))
        assert all(
            sum(units for _, units in rnd.totals) <= p.n * UNIT
            for rnd in trace.rounds
        )
        # Every winner either crossed the quota or survived to the forced fill.
        by_quota = {c for rnd in trace.rounds for c, _ in rnd.elected}
        auto = {c for rnd in trace.rounds for c in rnd.auto_elected}
        assert set(trace.winners) == by_quota | auto


def test_stv_engine_matches_paper_by_paper_reference():
    # The library engine keeps parcels of equal-valued papers on the pile
    # count; the reference walks every ballot paper individually. Winners,
    # stage counts, and every displayed total must agree exactly.
    small = seeded_profiles(1111, 200)
    # Heavier elections force interleaved surplus transfers and exclusions.
    rng = np.random.default_rng(1212)
    big = [
        random_profile(rng, max_m=8, max_types=25, max_weight=40)
        for _ in range(50)
    ]
    for p in small + big:
        outcome, trace = stv(p, TiePolicy.ALPHABETICAL)
        ref_winners, ref_stages = stv_reference(p, TiePolicy.ALPHABETICAL)
        assert list(trace.winners) == ref_winners
        assert [dict(r.totals) for r in trace.rounds] == ref_stages
        assert sole_committee(outcome) == frozenset(ref_winners)


def test_stv_complete_ballots_exhaust_only_after_m_minus_1_processed():
    for p in seeded_profiles(303, 120, complete=True):
        try:
            _, trace = stv(p, TiePolicy.ALPHABETICAL)
        except Exception:
            continue
        processed = 0  # candidates elected or excluded before each stage
        for rnd in trace.rounds:
            if rnd.exhausted > 0:
                assert processed >= p.m - 1
            processed += len(rnd.elected) + (rnd.eliminated is not None)


# ---------------------------------------------------------------------------
# Exhaustive-search equivalences


def test_cc_matches_independent_enumeration():
    for p in seeded_profiles(404, 120):
        for model in UnrankedModel:
            assert chamberlin_courant(p, model).committees == cc_enumeration(p, model)


def test_greedy_constant_factor_on_random_profiles():
    # Submodular greedy guarantee: at least (1 - 1/e) of the optimum.
    for p in seeded_profiles(505, 80):
        for model in UnrankedModel:
            try:
                greedy = greedy_cc(p, model, TiePolicy.ALPHABETICAL)
            except TieError:
                continue
            got = committee_satisfaction(p, sorted(sole_committee(greedy)), model)
            best = committee_satisfaction(
                p,
                sorted(next(iter(chamberlin_courant(p, model).committees))),
                model,
            )
            assert got <= best
            assert got >= (1 - 1 / np.e) * best - 1e-9


def test_condorcet_committee_finder_matches_all_subsets_verifier():
    for p in seeded_profiles(606, 150):
        for size in range(1, p.m + 1):
            verified = all_condorcet_committees(p, size)
            assert len(verified) <= 1  # unique per size when it exists
            found = condorcet_committee(p, size)
            if verified:
                assert found == verified[0]
            else:
                assert found is None or size == p.m


def test_mcc_returns_the_size_k_condorcet_committee_when_present():
    hits = 0
    for p in seeded_profiles(707, 200):
        verified = all_condorcet_committees(p, p.k)
        if not verified:
            continue
        hits += 1
        assert sole_committee(mcc(p, TiePolicy.ALPHABETICAL)) == verified[0]
    assert hits > 20  # the sample actually exercises the branch


# ---------------------------------------------------------------------------
# Top-k IRV


def test_top_k_irv_first_elimination_is_a_plurality_minimizer():
    # The first round removes a first-place-count minimizer, so under the
    # alphabetical policy that specific candidate can never win a seat.
    for p in seeded_profiles(808, 100):
        first = first_place_counts(p)
        argmin = [c for c, v in enumerate(first) if v == min(first)]
        first_out = min(argmin, key=lambda c: (p.names[c], c))
        outcome = top_k_irv(p, TiePolicy.ALPHABETICAL)
        assert first_out not in sole_committee(outcome)


def test_single_seat_greedy_is_the_borda_winner():
    from mwspoilers.methods import k_borda

    for p in seeded_profiles(1010, 80):
        p1 = p.with_seats(1)
        for model in UnrankedModel:
            scores = naive_borda(p1, model)
            if scores.count(max(scores)) > 1:
                continue  # seed tie: greedy resolves, k-Borda enumerates
            greedy = greedy_cc(p1, model, TiePolicy.ALPHABETICAL)
            scored = k_borda(p1, model, TiePolicy.ALPHABETICAL)
            assert greedy.committees == scored.committees


def test_top_k_irv_single_seat_agrees_with_stv():
    for p in seeded_profiles(909, 120):
        p1 = p.with_seats(1)
        try:
            irv = top_k_irv(p1, TiePolicy.ALPHABETICAL)
            runoff, _ = stv(p1, TiePolicy.ALPHABETICAL)
        except Exception:
            continue
        assert irv.committees == runoff.committees


# ---------------------------------------------------------------------------
# STV, SRCV and top-k IRV on the pile count


def pile_entries(p):
    """The entries each rule's count starts from: SRCV's and top-k IRV's ballots, STV's parcels."""
    return p.ballots, [(ranking, w * UNIT, w, UNIT) for ranking, w in p.ballots]


@given(ranked_profiles())
@settings(max_examples=400, deadline=None)
def test_first_preferences_are_the_piles_placing_each_ballot_builds(p):
    for entries in pile_entries(p):
        assert _first_preferences(p.m, entries) == first_preferences_by_placing(p.m, entries)


def test_first_preferences_of_256_candidates_end_with_the_last_candidate():
    rankings = [(255,), (255, 0), (255, 254, 3), (0, 255), (254,), (254, 255)]
    p = Profile.build(256, default_names(256), [(r, 2) for r in rankings], 3)
    for entries in pile_entries(p):
        assert _first_preferences(p.m, entries) == first_preferences_by_placing(p.m, entries)


def test_first_preferences_are_the_piles_placing_each_ballot_builds_on_a_ward(ward):
    for p in [ward] + [remove_candidate(ward, c) for c in range(ward.m)]:
        for entries in pile_entries(p):
            assert _first_preferences(p.m, entries) == first_preferences_by_placing(p.m, entries)


@given(ranked_profiles(), st.sampled_from(TiePolicy))
@settings(max_examples=400, deadline=None)
def test_stv_matches_its_former_parcel_count(p, tie):
    # The whole trace (every round's totals, surpluses, transfers,
    # eliminations and exhausted units) and the text of any refused tie.
    assert outcome_or_tie(stv, p, tie) == outcome_or_tie(stv_by_parcels, p, tie)


@given(ranked_profiles(), st.sampled_from(TiePolicy))
@settings(max_examples=400, deadline=None)
def test_srcv_and_top_k_irv_match_their_former_implementations(p, tie):
    assert outcome_or_tie(srcv, p, tie) == outcome_or_tie(srcv_by_removal, p, tie)
    assert outcome_or_tie(top_k_irv, p, tie) == outcome_or_tie(top_k_irv_reference, p, tie)


@pytest.mark.parametrize("tie", list(TiePolicy))
def test_srcv_and_top_k_irv_match_their_former_implementations_on_a_ward(ward, tie):
    # The ward and each of its single-candidate removals, as an audit re-runs them.
    for p in [ward] + [remove_candidate(ward, c) for c in range(ward.m)]:
        assert outcome_or_tie(stv, p, tie) == outcome_or_tie(stv_by_parcels, p, tie)
        assert outcome_or_tie(srcv, p, tie) == outcome_or_tie(srcv_by_removal, p, tie)
        assert outcome_or_tie(top_k_irv, p, tie) == outcome_or_tie(top_k_irv_reference, p, tie)


def spy_on_exclusions(monkeypatch) -> list[int]:
    """Record, for every pile handed on, how many candidates were still in.

    The size switch is shut, so that SRCV counts the ward on piles and
    builds no continuing-preference table; the tests count a fresh copy of
    the ward, which holds no table that another test's SRCV run left.
    """
    monkeypatch.setattr(core, "_ARRAY_TALLY_TYPES", math.inf)
    still_in: list[int] = []
    exclude = methods._exclude

    def spy(piles, totals, out, x):
        still_in.append(out.count(False))
        return exclude(piles, totals, out, x)

    monkeypatch.setattr(methods, "_exclude", spy)
    return still_in


@pytest.mark.parametrize("tie", [TiePolicy.ALPHABETICAL, TiePolicy.LOWEST_INDEX])
def test_top_k_irv_hands_on_no_pile_at_its_last_elimination(ward, tie, monkeypatch):
    still_in = spy_on_exclusions(monkeypatch)
    ward = Profile.build(ward.m, ward.names, ward.ballots, ward.k)
    for p in [ward] + [remove_candidate(ward, c) for c in range(ward.m)]:
        still_in.clear()
        top_k_irv(p, tie)
        assert still_in == list(range(p.m, p.k + 1, -1))  # m - k - 1 exclusions


@pytest.mark.parametrize("tie", [TiePolicy.ALPHABETICAL, TiePolicy.LOWEST_INDEX])
def test_srcv_seat_counts_hand_on_no_pile_between_the_last_two(ward, tie, monkeypatch):
    still_in = spy_on_exclusions(monkeypatch)
    ward = Profile.build(ward.m, ward.names, ward.ballots, ward.k)
    for p in [ward] + [remove_candidate(ward, c) for c in range(ward.m)]:
        still_in.clear()
        srcv(p, tie)
        assert still_in and min(still_in) > 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_stv_deterministic_across_calls(seed):
    rng = np.random.default_rng(seed)
    p = random_profile(rng)
    try:
        a = stv(p, TiePolicy.ALPHABETICAL)
        b = stv(p, TiePolicy.ALPHABETICAL)
    except TieError:
        return
    assert a[0].committees == b[0].committees
    assert a[1] == b[1]


# ---------------------------------------------------------------------------
# MCC by closure


@given(ranked_profiles(), st.sampled_from(TiePolicy))
@settings(max_examples=400, deadline=None)
def test_condorcet_closures_match_the_subset_search(p, tie):
    margins = pairwise_matrix(p)
    for size in range(1, p.m + 1):
        assert condorcet_committee(p, size) == condorcet_committee_by_subsets(margins, p.m, size)
    assert outcome_or_tie(mcc, p, tie) == outcome_or_tie(mcc_by_subsets, p, tie)


def test_mcc_is_polynomial_in_m():
    # Two reversed ballots tie every margin, the subset search's worst case:
    # it took 0.33 s at m=18, four times more per two candidates.
    m = 30
    p = Profile.build(m, default_names(m), [(range(m), 1), (range(m - 1, -1, -1), 1)], 15)
    start = time.perf_counter()
    outcome = mcc(p, TiePolicy.ALPHABETICAL)
    assert time.perf_counter() - start < 0.5
    assert len(sole_committee(outcome)) == 15 and outcome.tie_flag
    with pytest.raises(TieError, match="^margin-score tie at committee cut between C0, C1, "):
        mcc(p, TiePolicy.ERROR)
    assert condorcet_committee(p, 15) is None and condorcet_committee(p, m) == frozenset(range(m))
