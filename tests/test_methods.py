import pytest

from mwspoilers.core import OutcomeSet, Profile, UnrankedModel
from mwspoilers.methods import (
    METHODS,
    UNIT,
    SearchBudgetError,
    TieError,
    TiePolicy,
    bloc,
    chamberlin_courant,
    committee_satisfaction,
    condorcet_committee,
    droop_quota,
    greedy_cc,
    k_borda,
    mcc,
    run_method,
    sntv,
    srcv,
    stv,
    top_k_irv,
)

from conftest import vote_splitting_profile


def names_of(profile, committee):
    return sorted(profile.names[c] for c in committee)


def sole(profile, outcome):
    return names_of(profile, outcome.sole_committee())


# ---------------------------------------------------------------------------
# STV: hand-worked fixed-point counts


def test_quota():
    assert droop_quota(230, 1) == 116
    assert droop_quota(13419, 4) == 2684
    assert droop_quota(100, 2) == 34


def test_stv_single_winner_vote_splitting(table_profile):
    outcome, trace = stv(table_profile)
    assert sole(table_profile, outcome) == ["W"]
    assert trace.quota_votes == 116
    # S (40 first preferences) is excluded and W wins on the transfers.
    assert trace.rounds[0].eliminated == 2
    assert dict(trace.rounds[1].totals)[1] == 130 * UNIT


def test_stv_surplus_truncates_at_five_decimals():
    # 37 A>B ballots: A elected with surplus 3 of 37; the per-ballot transfer
    # value 3/37 = 0.08108108... truncates to 0.08108, so B receives
    # 37 * 0.08108 = 2.99996 votes, not 3.
    p = Profile.build(
        3, "ABC", [((0, 1), 37), ((1,), 33), ((2,), 30)], 2
    )
    outcome, trace = stv(p)
    assert sole(p, outcome) == ["A", "B"]
    assert trace.quota_votes == 34
    r1, r2 = trace.rounds
    assert dict(r1.totals) == {0: 37 * UNIT, 1: 33 * UNIT, 2: 30 * UNIT}
    assert r1.elected == ((0, 3 * UNIT),)
    assert r1.transferred == 0
    assert dict(r2.totals) == {1: 3_599_996, 2: 30 * UNIT}
    assert r2.elected == ((1, 199_996),)


def test_stv_exclusion_transfers_skip_elected_candidates():
    # D's ballots read D > A > B; A is already elected when D is excluded,
    # so they land on B at full value.
    p = Profile.build(
        4,
        "ABCD",
        [((0, 2, 1), 15), ((1,), 8), ((2,), 9), ((3, 0, 1), 7)],
        2,
    )
    outcome, trace = stv(p)
    assert sole(p, outcome) == ["A", "B"]
    assert trace.quota_votes == 14
    r1, r2, r3 = trace.rounds
    assert r1.elected == ((0, 1 * UNIT),)
    # A's surplus lands on C at 15 * 0.06666.
    assert dict(r2.totals) == {1: 800_000, 2: 999_990, 3: 700_000}
    assert r2.eliminated == 3
    assert dict(r3.totals) == {1: 1_500_000, 2: 999_990}
    assert r3.elected == ((1, 100_000),)


def test_stv_zero_surplus_exhaustion_and_auto_election():
    p = Profile.build(3, "ABC", [((0,), 4), ((1,), 3), ((2,), 2)], 2)
    outcome, trace = stv(p)
    assert sole(p, outcome) == ["A", "B"]
    r1, r2 = trace.rounds
    assert r1.elected == ((0, 0),)  # exactly at quota, no surplus to move
    assert r1.eliminated == 2
    assert r2.totals == ((1, 3 * UNIT),)
    assert r2.auto_elected == (1,)
    assert r2.exhausted == 2 * UNIT  # C's bullet ballots had nowhere to go


def test_stv_elimination_tie_policies():
    p = Profile.build(3, "ABC", [((0,), 2), ((1,), 2), ((2,), 2)], 1)
    with pytest.raises(TieError):
        stv(p, TiePolicy.ERROR)
    outcome, _ = stv(p, TiePolicy.ALPHABETICAL)
    assert sole(p, outcome) == ["C"]
    assert outcome.tie_flag


def test_stv_winner_count_and_order():
    p = vote_splitting_profile(2)
    outcome, trace = stv(p)
    assert sole(p, outcome) == ["A", "W"]
    assert len(trace.winners) == 2


def test_stv_all_seats_filled_in_round_one():
    # Two candidates over quota at once: both elected on first preferences,
    # largest total declared first, no transfers needed for winner identity.
    p = Profile.build(3, "ABC", [((0,), 12), ((1,), 12), ((2,), 6)], 2)
    outcome, trace = stv(p)
    assert sole(p, outcome) == ["A", "B"]
    assert len(trace.rounds) == 1
    assert trace.rounds[0].elected == ((0, 1 * UNIT), (1, 1 * UNIT))


# ---------------------------------------------------------------------------
# SNTV / Bloc / k-Borda


def test_sntv_vote_splitting(table_profile):
    assert sole(table_profile, sntv(table_profile)) == ["A"]
    k2 = vote_splitting_profile(2)
    assert sole(k2, sntv(k2)) == ["A", "W"]


def test_bloc_vote_splitting_top2():
    p = vote_splitting_profile(2)
    assert sole(p, bloc(p)) == ["S", "W"]


def test_bloc_counts_short_ballots_by_mention():
    # Ballots shorter than k still count one mention per ranked candidate.
    p = Profile.build(4, "ABCD", [((0, 1), 4), ((2,), 3)], 3)
    assert sole(p, bloc(p)) == ["A", "B", "C"]


def test_k_borda_vote_splitting(table_profile):
    for model in UnrankedModel:
        assert sole(table_profile, k_borda(table_profile, model)) == ["W"]


def test_k_borda_two_candidates_is_majority():
    p = Profile.build(2, "AB", [((0, 1), 3), ((1, 0), 5)], 1)
    for model in UnrankedModel:
        assert sole(p, k_borda(p, model)) == ["B"]


def test_interior_tie_is_not_a_tie():
    p = Profile.build(
        4, "ABCD", [((0,), 10), ((1,), 10), ((2,), 5), ((3,), 5)], 2
    )
    outcome = sntv(p, TiePolicy.ERROR)
    assert sole(p, outcome) == ["A", "B"]
    assert not outcome.tie_flag


def test_boundary_tie_policies():
    p = Profile.build(
        4, "ABCD", [((0,), 10), ((1,), 5), ((2,), 5), ((3,), 2)], 2
    )
    with pytest.raises(TieError):
        sntv(p, TiePolicy.ERROR)
    enumerated = sntv(p, TiePolicy.ALPHABETICAL)
    assert enumerated.committees == frozenset(
        [frozenset([0, 1]), frozenset([0, 2])]
    )
    assert enumerated.tie_flag
    resolved = sntv(p, TiePolicy.LOWEST_INDEX)
    assert resolved.sole_committee() == frozenset([0, 1])
    assert resolved.tie_flag


# ---------------------------------------------------------------------------
# SRCV


def test_srcv_vote_splitting_two_seats():
    p = vote_splitting_profile(2)
    assert sole(p, srcv(p)) == ["S", "W"]


def test_srcv_single_seat_equals_stv(table_profile):
    assert srcv(table_profile).committees == stv(table_profile)[0].committees


def test_srcv_majority_holder_takes_first_seat():
    p = Profile.build(3, "ABC", [((0, 1), 6), ((1,), 3), ((2,), 2)], 2)
    outcome = srcv(p)
    assert sole(p, outcome) == ["A", "B"]


def test_srcv_exhausted_ballots_leave_remaining_seats_to_the_tie_policy():
    # E and D take the first two seats; then every ballot ranks only past
    # winners, and C, B, A (indices 2, 3, 4) tie for the last two seats.
    p = Profile.build(5, "EDCBA", [((0, 1), 5), ((1, 0), 2)], 4)
    with pytest.raises(TieError) as exc:
        srcv(p)
    assert str(exc.value) == "all ballots exhausted; remaining seats tie between C, B, A"
    by_name = srcv(p, TiePolicy.ALPHABETICAL)
    assert sole(p, by_name) == ["A", "B", "D", "E"] and by_name.tie_flag
    by_index = srcv(p, TiePolicy.LOWEST_INDEX)
    assert by_index.sole_committee() == frozenset([0, 1, 2, 3]) and by_index.tie_flag


# ---------------------------------------------------------------------------
# Chamberlin-Courant


def test_cc_vote_splitting(table_profile):
    for model in UnrankedModel:
        assert sole(table_profile, chamberlin_courant(table_profile, model)) == ["W"]
    assert committee_satisfaction(table_profile, [1], UnrankedModel.OPTIMISTIC) == 320
    assert committee_satisfaction(table_profile, [0], UnrankedModel.OPTIMISTIC) == 200
    assert committee_satisfaction(table_profile, [2], UnrankedModel.OPTIMISTIC) == 170


def test_cc_refuses_oversized_searches():
    p = Profile.build(40, [f"C{i}" for i in range(40)], [((0, 1), 1)], 20)
    with pytest.raises(SearchBudgetError):
        chamberlin_courant(p, UnrankedModel.PESSIMISTIC)


def test_cc_unranked_committee_scoring():
    # Voter ranks only A (l=1, m=5): a committee without A earns m-l-1 = 3
    # under OM and nothing under PM.
    p = Profile.build(5, "ABCDE", [((0,), 1)], 2)
    assert committee_satisfaction(p, [1, 2], UnrankedModel.OPTIMISTIC) == 3
    assert committee_satisfaction(p, [1, 2], UnrankedModel.PESSIMISTIC) == 0


def test_greedy_seed_is_borda_winner(table_profile):
    for model in UnrankedModel:
        assert sole(table_profile, greedy_cc(table_profile, model)) == ["W"]


def test_greedy_vote_splitting_two_seats():
    p = vote_splitting_profile(2)
    for model in UnrankedModel:
        assert sole(p, greedy_cc(p, model)) == ["A", "W"]


def test_greedy_never_beats_exact_cc():
    p = vote_splitting_profile(2)
    for model in UnrankedModel:
        greedy_committee = next(iter(greedy_cc(p, model).committees))
        exact_committee = next(iter(chamberlin_courant(p, model).committees))
        assert committee_satisfaction(p, sorted(greedy_committee), model) <= (
            committee_satisfaction(p, sorted(exact_committee), model)
        )


# ---------------------------------------------------------------------------
# MCC


def test_mcc_with_condorcet_winner(table_profile):
    assert sole(table_profile, mcc(table_profile)) == ["W"]
    assert condorcet_committee(table_profile, 1) == frozenset([1])


def test_mcc_cycle_falls_back_to_full_set_and_scores():
    cycle = Profile.build(
        3, "ABC", [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1)], 1
    )
    assert condorcet_committee(cycle, 1) is None
    assert condorcet_committee(cycle, 2) is None
    with pytest.raises(TieError):
        mcc(cycle, TiePolicy.ERROR)  # all minimax scores equal
    outcome = mcc(cycle, TiePolicy.ALPHABETICAL)
    assert sole(cycle, outcome) == ["C"]
    assert outcome.tie_flag


def test_mcc_prunes_oversized_committee_by_min_margin():
    # A, B, C cycle (margins A>B: 1, B>C: 3, C>A: 5) and all crush D, so the
    # smallest Condorcet committee is {A, B, C}; A holds the worst internal
    # margin (-5) and is the one dropped.
    p = Profile.build(
        4,
        "ABCD",
        [((0, 1, 2, 3), 2), ((1, 2, 0, 3), 4), ((2, 0, 1, 3), 3)],
        2,
    )
    assert condorcet_committee(p, 2) is None
    assert condorcet_committee(p, 3) == frozenset([0, 1, 2])
    assert sole(p, mcc(p)) == ["B", "C"]


# ---------------------------------------------------------------------------
# Top-k IRV


def test_top_k_irv_vote_splitting():
    p = vote_splitting_profile(2)
    assert sole(p, top_k_irv(p)) == ["A", "W"]


def test_top_k_irv_k_equals_m_minus_1_drops_plurality_loser(table_profile):
    p = vote_splitting_profile(2)
    outcome = top_k_irv(p)
    assert 2 not in outcome.sole_committee()  # S is the plurality loser


def test_top_k_irv_single_seat_matches_stv(table_profile):
    assert top_k_irv(table_profile).committees == stv(table_profile)[0].committees


def test_top_k_irv_alphabetical_default_tie():
    p = Profile.build(3, "ABC", [((0, 2), 2), ((1, 2), 2), ((2,), 1)], 2)
    outcome = top_k_irv(p)  # C eliminated first; no further rounds needed
    assert sole(p, outcome) == ["A", "B"]
    tied = Profile.build(3, "ABC", [((0,), 2), ((1,), 2), ((2,), 2)], 2)
    assert sole(tied, top_k_irv(tied)) == ["B", "C"]  # A goes out by name
    with pytest.raises(TieError):
        top_k_irv(tied, TiePolicy.ERROR)


# ---------------------------------------------------------------------------
# Registry


def test_registry_covers_all_rules(table_profile):
    assert set(METHODS) == {
        "stv",
        "srcv",
        "sntv",
        "bloc",
        "borda_om",
        "borda_pm",
        "cc_om",
        "cc_pm",
        "greedy_om",
        "greedy_pm",
        "mcc",
        "topk_irv",
    }
    for mid in METHODS:
        outcome = run_method(mid, table_profile, TiePolicy.ALPHABETICAL)
        assert isinstance(outcome, OutcomeSet)
    with pytest.raises(KeyError):
        run_method("nope", table_profile, TiePolicy.ERROR)
