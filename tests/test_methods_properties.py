"""Invariants and oracle equivalences over randomized small elections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers.core import Profile, UnrankedModel, default_names, first_place_counts
from mwspoilers.methods import (
    METHODS,
    UNIT,
    TieError,
    TiePolicy,
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

from conftest import outcome_or_tie, random_profile
from oracles import (
    all_condorcet_committees,
    cc_enumeration,
    naive_borda,
    srcv_by_removal,
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
        committee = outcome.sole_committee()
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
    # The library engine moves grouped parcels with position pointers; the
    # reference walks every ballot paper individually. Winners, stage counts,
    # and every displayed total must agree exactly.
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
        assert outcome.sole_committee() == frozenset(ref_winners)


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
            got = committee_satisfaction(p, sorted(greedy.sole_committee()), model)
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
        assert mcc(p, TiePolicy.ALPHABETICAL).sole_committee() == verified[0]
    assert hits > 20  # the sample actually exercises the branch


# ---------------------------------------------------------------------------
# Top-k IRV


def test_top_k_irv_first_elimination_is_a_plurality_minimizer():
    # The first round removes a first-place-count minimizer, so under the
    # alphabetical policy that specific candidate can never win a seat.
    for p in seeded_profiles(808, 100):
        argmin = first_place_counts(p).argmin_set()
        first_out = min(argmin, key=lambda c: (p.names[c], c))
        outcome = top_k_irv(p, TiePolicy.ALPHABETICAL)
        assert first_out not in outcome.sole_committee()


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
# SRCV and top-k IRV on the shared count


@st.composite
def ranked_profiles(draw):
    """Elections of m 2-8 on partial or complete ballots.

    Few, often short ballots make ties and exhausted ballots common.  Names
    run backwards half of the time, so that name order and index order
    disagree.
    """
    m = draw(st.integers(2, 8))
    k = draw(st.integers(1, m - 1))
    lengths = st.integers(1, m) if draw(st.booleans()) else st.just(m)
    ballot = st.tuples(st.permutations(range(m)), lengths, st.integers(1, 4))
    ballots = draw(st.lists(ballot, min_size=1, max_size=10))
    names = default_names(m)
    if draw(st.booleans()):
        names = names[::-1]
    return Profile.build(m, names, [(order[:n], w) for order, n, w in ballots], k)


@given(ranked_profiles(), st.sampled_from(TiePolicy))
@settings(max_examples=400, deadline=None)
def test_srcv_and_top_k_irv_match_their_former_implementations(p, tie):
    assert outcome_or_tie(srcv, p, tie) == outcome_or_tie(srcv_by_removal, p, tie)
    assert outcome_or_tie(top_k_irv, p, tie) == outcome_or_tie(top_k_irv_reference, p, tie)


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
