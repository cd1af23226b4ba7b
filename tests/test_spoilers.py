import itertools
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers.core import OutcomeSet, Profile
from mwspoilers.methods import METHODS, TiePolicy, stv
from mwspoilers.spoilers import (
    CloneStats,
    StabilitySummary,
    _to_original_ids,
    adjacent_pair_weight,
    analyze_spoilers,
    clone_statistics,
    stability_summary,
    weakness_flags,
)

from conftest import random_profile, ranked_profiles, vote_splitting_profile
from oracles import (
    adjacent_pair_weight_by_scan,
    sole_committee,
    spoiler_verdicts_by_definition,
    verdicts_by_name,
)


def test_vote_splitting_spoilers_under_sntv(table_profile):
    report = analyze_spoilers(table_profile, "sntv")
    assert sole_committee(report.outcome) == frozenset([0])  # A wins
    verdicts = {v.candidate: v for v in report.verdicts}
    assert set(verdicts) == {1, 2}
    # Removing S hands the election to W; removing W hands it to S.
    assert verdicts[2].is_spoiler
    assert sole_committee(verdicts[2].alternate) == frozenset([1])
    assert verdicts[1].is_spoiler
    assert sole_committee(verdicts[1].alternate) == frozenset([2])
    assert stability_summary(report) == StabilitySummary(
        num_spoilers=2, num_alternate_sets=2, max_changed_candidates=1
    )


def test_spoiler_requires_outcome_change():
    # The lone non-winner S cannot change the forced two-seat committee.
    p = vote_splitting_profile(2)
    report = analyze_spoilers(p, "topk_irv", TiePolicy.ALPHABETICAL)
    assert sole_committee(report.outcome) == frozenset([0, 1])
    assert report.spoilers == ()


def test_winners_are_never_marked_spoilers():
    rng = np.random.default_rng(11)
    for _ in range(80):
        p = random_profile(rng)
        for mid in ("sntv", "stv", "borda_pm"):
            report = analyze_spoilers(p, mid, TiePolicy.ALPHABETICAL)
            if report.outcome is None:
                continue
            assert not (set(report.spoilers) & set(report.outcome.winners))


def test_m_equals_k_plus_1_has_no_spoilers():
    p = Profile.build(3, "ABC", [((0, 1, 2), 5), ((1, 0, 2), 4)], 2)
    report = analyze_spoilers(p, "sntv")
    assert report.spoilers == ()
    assert len(report.verdicts) == 1
    # The single non-winner's "alternate" is the forced remaining committee.
    assert sole_committee(report.verdicts[0].alternate) == frozenset([0, 1])


def test_base_tie_is_flagged_not_raised():
    p = Profile.build(3, "ABC", [((0,), 2), ((1,), 2), ((2,), 1)], 1)
    report = analyze_spoilers(p, "sntv", TiePolicy.ERROR)
    assert report.base_tie and report.has_tie
    assert report.outcome is None and report.verdicts == ()


def test_rerun_tie_is_flagged_per_candidate():
    # Base is clean (A on 4) but removing D lifts B into an exact tie with A.
    p = Profile.build(
        4, "ABCD", [((0,), 4), ((1,), 3), ((2,), 2), ((3, 1), 1)], 1
    )
    report = analyze_spoilers(p, "sntv", TiePolicy.ERROR)
    assert not report.base_tie
    verdicts = {v.candidate: v for v in report.verdicts}
    assert verdicts[3].tie_encountered and verdicts[3].alternate is None
    assert not verdicts[1].tie_encountered
    assert report.has_tie


def test_verdicts_match_definition_oracle_across_methods():
    rng = np.random.default_rng(22)
    for _ in range(60):
        p = random_profile(rng, max_m=5)
        for mid, tie in itertools.product(METHODS, TiePolicy):
            base_tie, expected = spoiler_verdicts_by_definition(p, mid, tie)
            report = analyze_spoilers(p, mid, tie)
            # Alternates compared by name pin the re-indexing to parent ids.
            assert verdicts_by_name(p, report) == (base_tie, expected), (mid, p)
            assert report.has_tie == (base_tie or any(t for _, t, _ in expected.values()))


def test_reindexed_outcome_equals_the_checked_constructor():
    reduced = OutcomeSet(frozenset({frozenset({0, 1}), frozenset({1, 2})}), True)
    for removed, expected in (
        (0, {frozenset({1, 2}), frozenset({2, 3})}),
        (1, {frozenset({0, 2}), frozenset({2, 3})}),
        (3, {frozenset({0, 1}), frozenset({1, 2})}),
    ):
        got = _to_original_ids(reduced, removed)
        assert got == OutcomeSet(frozenset(expected), True)
        assert type(got) is OutcomeSet
    assert _to_original_ids(OutcomeSet.single([254]), 0) == OutcomeSet.single([255])


def test_audit_records_pickle_and_hold_no_instance_dict(table_profile):
    report = analyze_spoilers(table_profile, "stv")
    _, trace = stv(table_profile)
    records = (
        report,
        report.outcome,
        report.verdicts[0],
        weakness_flags(table_profile),
        trace,
        trace.rounds[0],
    )
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
        assert not hasattr(record, "__dict__"), type(record)


def relabelled(p: Profile, perm: list[int]) -> Profile:
    """``p`` with candidate ``c`` renumbered ``perm[c]``, keeping its name."""
    names = [""] * p.m
    for c, name in enumerate(p.names):
        names[perm[c]] = name
    ballots = [(tuple(perm[c] for c in ranking), w) for ranking, w in p.ballots]
    return Profile.build(p.m, names, ballots, p.k)


def audit_relabelled(report, perm: list[int]):
    """A report's base outcome, alternates and spoilers with every index through ``perm``."""

    def outcome(o):
        if o is None:
            return None
        return frozenset(frozenset(perm[c] for c in com) for com in o.committees), o.tie_flag

    verdicts = {perm[v.candidate]: (v.is_spoiler, outcome(v.alternate)) for v in report.verdicts}
    return outcome(report.outcome), verdicts, frozenset(perm[c] for c in report.spoilers)


@given(ranked_profiles(), st.data())
@settings(max_examples=150, deadline=None)
def test_relabelling_candidates_relabels_every_audit(p, data):
    perm = data.draw(st.permutations(range(p.m)))
    q = relabelled(p, perm)
    identity = list(range(p.m))
    for mid in METHODS:
        got = audit_relabelled(analyze_spoilers(q, mid, TiePolicy.ERROR), identity)
        assert got == audit_relabelled(analyze_spoilers(p, mid, TiePolicy.ERROR), perm), mid


def test_top_k_irv_spoilers_are_never_plurality_losers():
    # A plurality loser goes out in round one, so their removal cannot change
    # anything downstream. Tie trials are excluded (a tied loser set can
    # leave one member alive).
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(150):
        p = random_profile(rng)
        report = analyze_spoilers(p, "topk_irv", TiePolicy.ERROR)
        if report.outcome is None or report.has_tie:
            continue
        checked += 1
        losers = weakness_flags(p).plurality_losers
        assert not (set(report.spoilers) & losers)
    assert checked > 50


def test_weakness_flags(table_profile):
    flags = weakness_flags(table_profile)
    assert flags.plurality_losers == frozenset([2])  # S on 40 first preferences
    assert flags.top_k_losers == frozenset([2])


def test_weakness_flags_all_tied():
    p = Profile.build(3, "ABC", [((0, 1), 2), ((1, 2), 2), ((2, 0), 2)], 1)
    flags = weakness_flags(p)
    assert flags.plurality_losers == frozenset([0, 1, 2])


# ---------------------------------------------------------------------------
# Clone similarity


def test_adjacent_pair_weight(table_profile):
    # A-S adjacent only on the 90 W>S>A ballots; W-S adjacent on all three types.
    assert adjacent_pair_weight(table_profile, 0, 2) == 90
    assert adjacent_pair_weight(table_profile, 1, 2) == 230
    assert adjacent_pair_weight(table_profile, 0, 1) == 140


def test_adjacency_requires_both_ranked_and_consecutive():
    p = Profile.build(3, "AXS", [((0, 2), 4), ((0, 1, 2), 3)], 1)
    assert adjacent_pair_weight(p, 0, 2) == 4  # [A, X, S] is not adjacent


@given(ranked_profiles())
@settings(max_examples=200, deadline=None)
def test_adjacent_pair_weight_matches_the_position_scan(p):
    for x in range(p.m):
        for y in range(p.m):
            assert adjacent_pair_weight(p, x, y) == adjacent_pair_weight_by_scan(p, x, y)


def test_clone_statistics_on_vote_splitting(table_profile):
    report = analyze_spoilers(table_profile, "sntv")
    stats = clone_statistics([(report, table_profile)])
    triples = {t.spoiler: t for t in stats.triples}
    # Spoiler S: A keeps the seat W would take; S sits next to W far more often.
    assert triples[2].retained == 0 and triples[2].would_be == 1
    assert triples[2].b_as == 90 and triples[2].b_ws == 230
    # Both spoilers here look like vote-splitting, not clone protection.
    assert stats.closer_to_would_be == 2
    assert stats.closer_to_retained == 0
    assert stats.ratio is None
    assert stats.skipped == 0 and stats.equal_similarity == 0


def test_clone_statistics_skips_multi_seat_swings():
    rng = np.random.default_rng(33)
    pairs = []
    for _ in range(120):
        p = random_profile(rng, max_m=5)
        pairs.append((analyze_spoilers(p, "bloc", TiePolicy.ALPHABETICAL), p))
    stats = clone_statistics(pairs)
    clean = stats.closer_to_retained + stats.closer_to_would_be + stats.equal_similarity
    total_spoilers = sum(len(r.spoilers) for r, _ in pairs)
    assert clean + stats.skipped == total_spoilers
    for t in stats.triples:
        assert len({t.retained, t.would_be, t.spoiler}) == 3
    # Folded one report at a time, as a corpus audit does, the aggregate is the same.
    assert stats.triples and stats.skipped
    assert sum((clone_statistics([pair]) for pair in pairs), CloneStats(0, ())) == stats
