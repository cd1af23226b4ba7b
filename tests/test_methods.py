import re

import pytest

from mwspoilers.core import OutcomeSet, Profile, UnrankedModel, borda_scores, point_matrix
from mwspoilers.cultures import CultureSpec
from mwspoilers.harness import run_corpus_audit, run_simulation
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

from mwspoilers.spoilers import analyze_spoilers

from conftest import outcome_or_tie, vote_splitting_profile
from oracles import sole_committee


def names_of(profile, committee):
    return sorted(profile.names[c] for c in committee)


def sole(profile, outcome):
    return names_of(profile, sole_committee(outcome))


# ---------------------------------------------------------------------------
# STV: hand-worked fixed-point counts


def test_quota():
    assert droop_quota(230, 1) == 116
    assert droop_quota(13419, 4) == 2684
    assert droop_quota(100, 2) == 34


def test_stv_single_winner_vote_splitting(table_profile):
    outcome, trace = stv(table_profile)
    assert sole(table_profile, outcome) == ["W"]
    assert trace.quota == 116 * UNIT
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
    assert trace.quota == 34 * UNIT
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
    assert trace.quota == 14 * UNIT
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


def test_boundary_tie_enumeration_is_bounded(monkeypatch):
    # One bullet vote for C0: the other 39 candidates tie for 19 seats.
    m = 40
    p = Profile.build(m, [f"C{i}" for i in range(m)], [((0,), 1)], 20)
    message = "C(39, 19) = 68923264410 tied committees exceeds budget 1000000; use tie policy"
    with pytest.raises(SearchBudgetError, match=f"^{re.escape(message)} lowest_index$"):
        sntv(p, TiePolicy.ALPHABETICAL)
    assert len(sole_committee(sntv(p, TiePolicy.LOWEST_INDEX))) == 20
    # Five tied for two seats: C(5, 2) = 10 completions, listed at the budget, refused past it.
    small = Profile.build(6, "ABCDEF", [((0,), 1)], 3)
    monkeypatch.setattr("mwspoilers.methods._SEARCH_BUDGET", 10)
    assert len(sntv(small, TiePolicy.ALPHABETICAL).committees) == 10
    monkeypatch.setattr("mwspoilers.methods._SEARCH_BUDGET", 9)
    with pytest.raises(SearchBudgetError, match=r"^C\(5, 2\) = 10 tied committees exceeds"):
        sntv(small, TiePolicy.ALPHABETICAL)


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
    assert sole_committee(by_index) == frozenset([0, 1, 2, 3]) and by_index.tie_flag


def test_srcv_quota_is_a_majority_of_the_live_ballots():
    # A takes the first seat.  Of the 7 ballots left live, B's 5 reach the
    # quota of 4 before C and D, tied on 1, would face elimination; a quota
    # taken from all 17 ballots (9) would force that tie.
    p = Profile.build(4, "ABCD", [((0,), 10), ((1,), 5), ((2,), 1), ((3,), 1)], 2)
    outcome = srcv(p, TiePolicy.ERROR)
    assert sole(p, outcome) == ["A", "B"] and not outcome.tie_flag


def test_srcv_flags_a_broken_elimination_tie():
    # C and D tie for elimination in the first seat's runoff.
    p = Profile.build(4, "ABCD", [((0,), 4), ((1,), 3), ((2, 0), 1), ((3, 1), 1)], 2)
    with pytest.raises(TieError, match="^tie for elimination between C, D$"):
        srcv(p, TiePolicy.ERROR)
    outcome = srcv(p, TiePolicy.ALPHABETICAL)
    assert sole(p, outcome) == ["A", "B"] and outcome.tie_flag


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
    assert 2 not in sole_committee(outcome)  # S is the plurality loser


def test_top_k_irv_single_seat_matches_stv(table_profile):
    assert top_k_irv(table_profile).committees == stv(table_profile)[0].committees


def test_top_k_irv_alphabetical_default_tie():
    p = Profile.build(3, "ABC", [((0, 2), 2), ((1, 2), 2), ((2,), 1)], 2)
    outcome = top_k_irv(p)  # C eliminated first; no further rounds needed
    assert sole(p, outcome) == ["A", "B"]
    tied = Profile.build(3, "ABC", [((0,), 2), ((1,), 2), ((2,), 2)], 2)
    assert sole(tied, top_k_irv(tied)) == ["B", "C"]  # A goes out by name
    assert top_k_irv(tied).tie_flag and not outcome.tie_flag
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


# ---------------------------------------------------------------------------
# Every tie site, on its own hand-made profile


def reverse_named(m, k, *ballots):
    """A profile on candidates Z, Y, X, ...: index order runs against the alphabet.

    So ``lowest_index`` picks the first tied candidate in the roster and
    ``alphabetical`` the last.  Ballots are strings of names with a weight.
    """
    names = "ZYXWVU"[:m]
    return Profile.build(
        m, tuple(names), [(tuple(map(names.index, r)), w) for r, w in ballots], k
    )


STV_ELIMINATION = reverse_named(3, 1, ("Z", 3), ("YZ", 2), ("XY", 2))
STV_SURPLUS = reverse_named(4, 3, ("ZX", 10), ("YW", 10), ("X", 3), ("W", 2))
SCORE_BOUNDARY = reverse_named(4, 2, ("Z", 3), ("Y", 2), ("X", 2), ("W", 1))
BORDA_TIE = reverse_named(3, 1, ("ZYX", 1), ("YZX", 1))

# (site, method, profile, TieError text under ``error``, committees and tie
# flag under ``alphabetical``, then under ``lowest_index``).  Committees are
# strings of member names.
TIE_SITES = [
    ("stv-elimination", "stv", STV_ELIMINATION,
     "tie for elimination between Y, X", ({"Y"}, True), ({"Z"}, True)),
    ("stv-surplus-order", "stv", STV_SURPLUS,
     "tie in surplus transfer order between Z, Y", ({"ZYX"}, True), ({"ZYX"}, True)),
    ("srcv-elimination", "srcv", STV_ELIMINATION,
     "tie for elimination between Y, X", ({"Y"}, True), ({"Z"}, True)),
    ("srcv-leftover-seats", "srcv", reverse_named(4, 3, ("Z", 3), ("YZ", 1)),
     "all ballots exhausted; remaining seats tie between X, W",
     ({"ZYW"}, True), ({"ZYX"}, True)),
    ("topk-irv-elimination", "topk_irv",
     reverse_named(4, 2, ("Z", 4), ("W", 3), ("YW", 2), ("XY", 2)),
     "tie for elimination between Y, X", ({"ZY"}, True), ({"ZW"}, True)),
    ("sntv-boundary", "sntv", SCORE_BOUNDARY,
     "score tie at committee boundary between Y, X", ({"ZY", "ZX"}, True), ({"ZY"}, True)),
    ("bloc-boundary", "bloc", reverse_named(4, 2, ("ZY", 2), ("ZX", 2), ("W", 1)),
     "score tie at committee boundary between Y, X", ({"ZY", "ZX"}, True), ({"ZY"}, True)),
    ("borda-om-boundary", "borda_om", BORDA_TIE,
     "score tie at committee boundary between Z, Y", ({"Z", "Y"}, True), ({"Z"}, True)),
    ("borda-pm-boundary", "borda_pm", BORDA_TIE,
     "score tie at committee boundary between Z, Y", ({"Z", "Y"}, True), ({"Z"}, True)),
    ("greedy-om-seed", "greedy_om", BORDA_TIE,
     "tie for greedy seed between Z, Y", ({"Y"}, True), ({"Z"}, True)),
    ("greedy-pm-seed", "greedy_pm", BORDA_TIE,
     "tie for greedy seed between Z, Y", ({"Y"}, True), ({"Z"}, True)),
    ("greedy-extension", "greedy_om",
     reverse_named(3, 2, ("ZYX", 2), ("ZXY", 2), ("YZX", 1), ("XZY", 1)),
     "tie for greedy committee extension between Y, X", ({"ZX"}, True), ({"ZY"}, True)),
    ("mcc-cut", "mcc", reverse_named(4, 2, ("ZYXW", 1), ("YXZW", 1), ("XZYW", 1)),
     "margin-score tie at committee cut between Z, Y, X", ({"ZY"}, True), ({"YX"}, True)),
]  # fmt: skip


@pytest.mark.parametrize(
    "method_id, profile, text, alphabetical, lowest_index",
    [site[1:] for site in TIE_SITES],
    ids=[site[0] for site in TIE_SITES],
)
def test_every_tie_site_follows_the_policy(method_id, profile, text, alphabetical, lowest_index):
    with pytest.raises(TieError, match=f"^{re.escape(text)}$"):
        run_method(method_id, profile, TiePolicy.ERROR)
    for tie, (committees, flag) in [
        (TiePolicy.ALPHABETICAL, alphabetical),
        (TiePolicy.LOWEST_INDEX, lowest_index),
    ]:
        outcome = run_method(method_id, profile, tie)
        assert outcome.committees == {frozenset(profile.names.index(c) for c in names)
                                      for names in committees}
        assert outcome.tie_flag is flag


# Every function that reads a tie policy or an unranked model, called on an
# input where the value matters.  A member's string value reads as the member;
# any other value raises ``ValueError`` rather than acting as the last member.
PARTIAL = Profile.build(4, "ABCD", [((0,), 3), ((1, 2), 2), ((3, 2, 1), 1)], 2)
READERS = [
    ("choose", TiePolicy, lambda tie: outcome_or_tie(run_method, "stv", STV_ELIMINATION, tie)),
    ("top-k-outcome", TiePolicy,
     lambda tie: outcome_or_tie(run_method, "sntv", SCORE_BOUNDARY, tie)),
    ("run-simulation", TiePolicy,
     lambda tie: run_simulation(CultureSpec("ic", "complete", 4, 2, 51, seed=1), ["sntv"], 200,
                                tie=tie).methods["sntv"]),
    ("run-corpus-audit", TiePolicy,
     lambda tie: run_corpus_audit([("e", SCORE_BOUNDARY)], ["sntv"], tie=tie).methods["sntv"]),
    ("borda-scores", UnrankedModel, lambda model: borda_scores(PARTIAL, model)),
    ("point-matrix", UnrankedModel, lambda model: point_matrix(PARTIAL, model).tolist()),
]  # fmt: skip


@pytest.mark.parametrize("kind, read", [r[1:] for r in READERS], ids=[r[0] for r in READERS])
def test_policies_and_models_read_by_value_and_reject_the_rest(kind, read):
    results = [read(member) for member in kind]
    assert len(set(map(repr, results))) > 1  # the value matters on this input
    assert [read(member.value) for member in kind] == results
    for value in ("bogus", None):
        with pytest.raises(ValueError, match=f"is not a valid {kind.__name__}"):
            read(value)


# First preferences 4, 3, 2, 1: no rule meets a tie on it, under any policy.
TIE_FREE = Profile.build(4, "ABCD", [((0,), 4), ((1,), 3), ((2,), 2), ((3,), 1)], 2)


@pytest.mark.parametrize(
    "entry",
    [run_method, lambda method_id, p, tie: analyze_spoilers(p, method_id, tie)],
    ids=["run-method", "analyze-spoilers"],
)
@pytest.mark.parametrize("value", ["bogus", None])
def test_a_bad_tie_policy_is_rejected_where_no_tie_is_met(entry, value):
    with pytest.raises(ValueError) as expected:
        TiePolicy(value)
    for method_id in METHODS:
        entry(method_id, TIE_FREE, TiePolicy.ERROR)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            entry(method_id, TIE_FREE, value)


def test_stv_surplus_order_follows_the_policy():
    # Both surpluses pass on before anyone is excluded, so only the order differs.
    for tie, order in [(TiePolicy.ALPHABETICAL, [1, 0]), (TiePolicy.LOWEST_INDEX, [0, 1])]:
        _, trace = stv(STV_SURPLUS, tie)
        assert [r.transferred for r in trace.rounds if r.transferred is not None] == order
