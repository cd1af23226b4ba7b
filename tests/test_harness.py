import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers import harness, spoilers
from mwspoilers.blt_io import emit_blt, emit_results_csv, parse_blt
from mwspoilers.core import Profile, default_names
from mwspoilers.cultures import MODELS, REGIMES, CultureSpec, sample_profile
from mwspoilers.harness import (
    MethodTally,
    method_rows,
    run_corpus_audit,
    run_simulation,
    stability_rows,
    clone_rows,
    wilson_interval,
)
from mwspoilers.methods import METHODS, Method, TiePolicy

from conftest import random_profile, vote_splitting_profile


# ---------------------------------------------------------------------------
# Wilson intervals


def test_wilson_reference_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038, abs=1e-3)
    assert hi == pytest.approx(0.5962, abs=1e-3)
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(0.2775, abs=1e-3)


def test_wilson_edge_cases():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and 0.6 < lo < 1.0
    lo, hi = wilson_interval(1, 1000)
    assert 0.0 <= lo < 0.001 < hi < 0.01


def test_tally_merge_is_fieldwise_addition():
    a = MethodTally(requested=5, used=4, spoiler=2)
    a.merge(MethodTally(requested=3, used=3, spoiler=1, multiple=1))
    assert (a.requested, a.used, a.spoiler, a.multiple) == (8, 7, 3, 1)


# ---------------------------------------------------------------------------
# run_simulation


def test_counts_are_consistent():
    spec = CultureSpec("ic", "complete", 4, 2, 101, seed=3)
    res = run_simulation(spec, ["sntv", "stv"], trials=300)
    for t in res.methods.values():
        assert t.requested == 300
        assert t.used + t.ties_discarded + t.errors == 300
        assert t.multiple <= t.spoiler <= t.used
        assert t.plurality_loser <= t.spoiler
        assert t.topk_loser <= t.spoiler
        assert 0.0 <= t.fraction("multiple") <= t.fraction("spoiler") <= 1.0


def test_single_trial_fractions_are_zero_or_one():
    spec = CultureSpec("iac", "complete", 4, 2, 101, seed=9)
    res = run_simulation(spec, ["sntv"], trials=1, tie=TiePolicy.LOWEST_INDEX)
    assert res.methods["sntv"].fraction("spoiler") in (0.0, 1.0)


def test_workers_do_not_change_results():
    spec = CultureSpec("spatial1d", "partial", 4, 2, 301, seed=11)
    serial = run_simulation(spec, ["sntv", "bloc", "stv"], trials=200, workers=1)
    parallel = run_simulation(spec, ["sntv", "bloc", "stv"], trials=200, workers=2)
    for mid in serial.methods:
        assert serial.methods[mid] == parallel.methods[mid]


def test_pool_starts_no_more_workers_than_blocks(monkeypatch):
    sizes = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records its size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    spec = CultureSpec("ic", "complete", 4, 2, 51, seed=3)
    serial = run_simulation(spec, ["sntv"], trials=3)
    # Three trials make three one-trial blocks, so four workers would leave one idle.
    pooled = run_simulation(spec, ["sntv"], trials=3, workers=4)
    assert sizes == [3]
    assert pooled.methods["sntv"] == serial.methods["sntv"]
    run_simulation(spec, ["sntv"], trials=40, workers=2)
    assert sizes == [3, 2]


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_are_rejected(workers):
    spec = CultureSpec("ic", "complete", 4, 2, 51, seed=3)
    with pytest.raises(ValueError, match="^workers must be at least 1$"):
        run_simulation(spec, ["sntv"], trials=3, workers=workers)


def test_lenient_policy_counts_flagged_ties():
    spec = CultureSpec("ic", "complete", 4, 2, 101, seed=5)
    res = run_simulation(spec, ["sntv"], trials=400, tie=TiePolicy.LOWEST_INDEX)
    t = res.methods["sntv"]
    assert t.used == 400
    assert t.ties_discarded == 0
    assert t.ties_flagged > 0  # n=101 makes exact ties common


def test_method_rows_shape():
    spec = CultureSpec("ic", "complete", 3, 1, 51, seed=1)
    res = run_simulation(spec, ["sntv"], trials=50)
    rows = method_rows(res.methods)
    assert rows[0]["method"] == "SNTV"
    assert set(rows[0]) >= {"spoiler", "multiple", "plurality_loser", "topk_loser"}


def test_full_method_slate_yields_one_row_per_method():
    from mwspoilers.blt_io import emit_results_csv
    from mwspoilers.harness import FRACTION_COLUMNS

    ten = ["stv", "srcv", "sntv", "bloc", "borda_om", "borda_pm",
           "cc_om", "cc_pm", "greedy_om", "greedy_pm"]
    spec = CultureSpec("ic", "complete", 4, 2, 101, seed=2)
    res = run_simulation(spec, ten, trials=20, tie=TiePolicy.LOWEST_INDEX)
    table = emit_results_csv(method_rows(res.methods), FRACTION_COLUMNS)
    lines = table.decode().splitlines()
    assert len(lines) == 11  # header + the ten rule rows
    assert [line.split(",")[0] for line in lines[1:]] == [
        "STV", "SRCV", "SNTV", "Bloc", "Borda (OM)", "Borda (PM)",
        "Cham-Cour (OM)", "Cham-Cour (PM)", "Greedy-CC (OM)", "Greedy-CC (PM)",
    ]


def test_zero_trials():
    spec = CultureSpec("ic", "complete", 3, 1, 51, seed=1)
    res = run_simulation(spec, ["sntv"], trials=0)
    assert res.methods["sntv"].fraction("spoiler") == 0.0


# ---------------------------------------------------------------------------
# run_corpus_audit


def spoiled_profile():
    # Top-2 plurality committee is {A, W}; removing S promotes D past W and
    # removing D promotes S past W, so both losers are spoilers.
    return Profile.build(
        4,
        default_names(4),
        [((0, 1, 2, 3), 100), ((1, 0, 2, 3), 90), ((2, 3, 0, 1), 40), ((3, 2, 1, 0), 65)],
        2,
    )


def corpus():
    # One election with spoilers, one without, plus two that the
    # m > k+1 / k > 1 filter must drop.
    clean = Profile.build(
        4,
        default_names(4),
        [((0, 1, 2, 3), 100), ((1, 0, 2, 3), 90), ((2, 3, 1, 0), 10), ((3, 2, 1, 0), 5)],
        2,
    )
    small = Profile.build(3, default_names(3), [((0, 1, 2), 9)], 2)  # m == k+1
    single = vote_splitting_profile(1)  # k == 1
    return [
        ("spoiled", spoiled_profile()),
        ("clean", clean),
        ("small", small),
        ("single-seat", single),
    ]


def test_corpus_filtering_and_details():
    result = run_corpus_audit(corpus(), ["sntv"], tie=TiePolicy.ALPHABETICAL)
    assert result.elections_used == 2
    assert result.elections_skipped == 2
    assert {d["election"] for d in result.details} == {"spoiled", "clean"}
    tally = result.methods["sntv"]
    assert tally.requested == 2
    assert tally.spoiler == 1 and tally.multiple == 1
    spoiled_row = next(d for d in result.details if d["election"] == "spoiled")
    assert spoiled_row["num_spoilers"] == 2
    assert spoiled_row["spoilers"] == "C;D"


def test_corpus_audit_keeps_detail_rows_only_when_asked():
    kept = run_corpus_audit(corpus(), ["sntv", "stv"], tie=TiePolicy.ALPHABETICAL)
    bare = run_corpus_audit(
        corpus(), ["sntv", "stv"], tie=TiePolicy.ALPHABETICAL, keep_details=False
    )
    assert len(kept.details) == 4 and bare.details == []
    assert replace(bare, details=kept.details) == kept


def test_corpus_k_override_filters_before_replacing():
    result = run_corpus_audit(corpus(), ["sntv"], k_override=3)
    # With k forced to 3, only m > 4 elections would survive: none here.
    assert result.elections_used == 0
    result = run_corpus_audit(corpus(), ["sntv"], k_override=2)
    # The k=1 election is upgraded to k=2 but fails m > k+1 (m=3); the two
    # m=4 elections survive.
    assert result.elections_used == 2
    assert all(d["k"] == 2 for d in result.details)


def test_corpus_k_override_reseats_a_surviving_election():
    ward = sample_profile(CultureSpec("ic", "partial", 6, 2, 41, seed=1), 0)
    reseated = run_corpus_audit([("w", ward)], list(METHODS), k_override=3)
    direct = run_corpus_audit([("w", ward.with_seats(3))], list(METHODS))
    assert reseated.elections_used == 1
    assert all(d["k"] == 3 for d in reseated.details)
    assert replace(reseated, k_override=None) == direct
    assert reseated.methods != run_corpus_audit([("w", ward)], list(METHODS)).methods


def test_corpus_stability_and_clone_tables():
    result = run_corpus_audit(corpus(), ["sntv", "stv"], tie=TiePolicy.ALPHABETICAL)
    srows = stability_rows(result)
    crows = clone_rows(result)
    assert {r["method"] for r in srows} == {"SNTV", "STV"}
    assert {r["method"] for r in crows} == {"SNTV", "STV"}
    sntv_stab = next(r for r in srows if r["method"] == "SNTV")
    assert sntv_stab["spoiler_elections"] >= 1


def test_corpus_empty_input():
    result = run_corpus_audit([], ["sntv"])
    assert result.elections_used == 0
    assert result.methods["sntv"].requested == 0
    assert result.methods["sntv"].fraction("spoiler") == 0.0


def test_corpus_round_trip_through_blt():
    p = spoiled_profile()
    blob = emit_blt(p, title="t")
    assert parse_blt(blob) == p
    result = run_corpus_audit([("x", parse_blt(blob))], ["sntv"])
    assert result.elections_used == 1
    assert result.methods["sntv"].spoiler == 1


def test_no_profile_outlives_its_corpus_audit():
    dead: set[int] = set()

    def elections():
        for i in range(6):
            if i >= 2:
                assert i - 2 in dead, f"election {i - 2} is still alive while {i} is audited"
            profile = sample_profile(CultureSpec("ic", "complete", 5, 2, 31, seed=i), 0)
            weakref.finalize(profile, dead.add, i)
            yield f"e{i}", profile

    result = run_corpus_audit(elections(), list(METHODS), tie=TiePolicy.ALPHABETICAL)
    assert result.elections_used == 6
    assert all(t.used == 6 for t in result.methods.values())


# ---------------------------------------------------------------------------
# Audit errors and shared removals


def test_programming_errors_propagate(monkeypatch):
    def broken(profile, tie, out):
        raise KeyError("bug")

    monkeypatch.setitem(METHODS, "sntv", Method("sntv", "SNTV", broken))
    spec = CultureSpec("ic", "complete", 4, 2, 51, seed=1)
    with pytest.raises(KeyError, match="bug"):
        run_simulation(spec, ["sntv"], trials=3)
    with pytest.raises(KeyError, match="bug"):
        run_corpus_audit(corpus(), ["sntv"])


def test_search_budget_errors_are_counted():
    # C(24, 12) committees exceed exact CC's search budget.
    spec = CultureSpec("spatial1d", "complete", 24, 12, 25, seed=4)
    res = run_simulation(spec, ["cc_om", "sntv"], trials=3, tie=TiePolicy.LOWEST_INDEX)
    assert res.methods["cc_om"].errors == 3
    assert res.methods["cc_om"].requested == 3
    assert res.methods["sntv"].errors == 0


def audit_without_sharing(monkeypatch):
    """Make the harness audit every rule with removals of its own."""
    from mwspoilers import harness
    from mwspoilers.spoilers import analyze_spoilers

    def unshared(profile, method_id, tie, removals):
        return analyze_spoilers(profile, method_id, tie)

    monkeypatch.setattr(harness, "analyze_spoilers", unshared)


@pytest.mark.parametrize("tie", [TiePolicy.ERROR, TiePolicy.LOWEST_INDEX])
def test_shared_removals_leave_campaign_tallies_unchanged(monkeypatch, tie):
    spec = CultureSpec("ic", "partial", 5, 3, 61, seed=8)
    shared = run_simulation(spec, list(METHODS), trials=40, tie=tie)
    audit_without_sharing(monkeypatch)
    assert run_simulation(spec, list(METHODS), trials=40, tie=tie) == shared


def test_shared_removals_leave_corpus_audit_unchanged(monkeypatch):
    rng = np.random.default_rng(23)
    elections = [("spoiled", spoiled_profile())]
    while len(elections) < 2:
        p = random_profile(rng, max_m=7, max_types=20)
        if p.k >= 2 and p.m > p.k + 1:
            elections.append(("random", p))
    shared = run_corpus_audit(elections, list(METHODS))
    audit_without_sharing(monkeypatch)
    unshared = run_corpus_audit(elections, list(METHODS))
    assert unshared == shared
    assert len(shared.details) == 2 * len(METHODS)


def spy_on_removals(monkeypatch) -> list[tuple[int, Profile]]:
    """Record every candidate the audit removes, with the reduced profile."""
    removed: list[tuple[int, Profile]] = []
    remove = spoilers.remove_candidate

    def spy(profile, c):
        removed.append((c, remove(profile, c)))
        return removed[-1][1]

    monkeypatch.setattr(spoilers, "remove_candidate", spy)
    return removed


# What a profile caches for the counts; a reduced profile that only STV reads builds none.
COUNT_CACHES = {"arrays", "_flat", "tally", "continuing_totals", "pair_counts"}


@pytest.mark.parametrize("tie", list(TiePolicy))
def test_a_ward_audit_removes_only_stv_s_non_winners(ward, monkeypatch, tie):
    removed = spy_on_removals(monkeypatch)
    p = Profile.build(ward.m, ward.names, ward.ballots, ward.k)
    audits = harness._audit(p, harness._new_tallies(list(METHODS)), tie)
    report, _ = audits["stv"]
    assert sorted(c for c, _ in removed) == [v.candidate for v in report.verdicts]
    assert len(report.verdicts) == p.m - p.k
    for _, reduced in removed:
        assert not COUNT_CACHES & set(vars(reduced))
    assert all(len(r.verdicts) == p.m - p.k for r, _ in audits.values() if not r.base_tie)


@pytest.mark.parametrize("tie", list(TiePolicy))
def test_a_ward_audit_by_exclusion_equals_the_audit_by_removal(ward, monkeypatch, tie):
    def audit():
        p = Profile.build(ward.m, ward.names, ward.ballots, ward.k)
        return harness._audit(p, harness._new_tallies(list(METHODS)), tie)

    excluded = audit()
    monkeypatch.setattr(spoilers, "_array_sized", lambda profile: False)  # every rule removes
    assert audit() == excluded


@pytest.mark.parametrize("tie", list(TiePolicy))
def test_a_campaign_audit_removes_each_non_winner_of_any_rule_once(monkeypatch, tie):
    removed = spy_on_removals(monkeypatch)
    spec = CultureSpec("ic", "partial", 5, 2, 61, seed=8)
    for trial in range(10):
        removed.clear()
        p = sample_profile(spec, trial)
        audits = harness._audit(p, harness._new_tallies(list(METHODS)), tie)
        judged = {v.candidate for report, _ in audits.values() for v in report.verdicts}
        assert sorted(c for c, _ in removed) == sorted(judged)


# ---------------------------------------------------------------------------
# Campaigns and corpus audits count alike


@st.composite
def unfiltered_specs(draw):
    """Culture specs whose profiles all pass the corpus filter (k >= 2, m > k + 1)."""
    m = draw(st.integers(4, 6))
    return CultureSpec(
        draw(st.sampled_from(MODELS)),
        draw(st.sampled_from(REGIMES)),
        m,
        draw(st.integers(2, m - 2)),
        draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=80, deadline=None)
@given(unfiltered_specs(), st.integers(1, 3), st.sampled_from(list(TiePolicy)))
def test_corpus_audit_tallies_equal_campaign_tallies(spec, trials, tie):
    campaign = run_simulation(spec, list(METHODS), trials=trials, tie=tie)
    elections = [(str(t), sample_profile(spec, t)) for t in range(trials)]
    audit = run_corpus_audit(elections, list(METHODS), tie=tie)
    assert audit.elections_skipped == 0
    for mid in METHODS:
        assert audit.methods[mid] == campaign.methods[mid]


def tie_then_spoiler_profile():
    # STV: removing B turns the committee over, removing A gives an exact tie.
    return Profile.build(
        4,
        default_names(4),
        [((0, 2, 3, 1), 1), ((2, 1, 0, 3), 4), ((2, 3, 1, 0), 3)],
        2,
    )


def test_error_policy_corpus_keeps_tie_rows_out_of_stability_and_clones():
    tied = ("tied", tie_then_spoiler_profile())
    spoiled = ("spoiled", spoiled_profile())
    result = run_corpus_audit([tied, spoiled], ["stv"], tie=TiePolicy.ERROR)
    alone = run_corpus_audit([spoiled], ["stv"], tie=TiePolicy.ERROR)
    tally = result.methods["stv"]
    assert (tally.requested, tally.used, tally.ties_discarded) == (2, 1, 1)
    detail = emit_results_csv(result.details, ()).decode().splitlines()
    assert "tied,stv,4,2,8,1,1,B,1,1" in detail
    assert stability_rows(result) == stability_rows(alone)
    assert result.clones == alone.clones
    # A deterministic policy counts the same election, so it does reach both.
    lenient = run_corpus_audit([tied, spoiled], ["stv"], tie=TiePolicy.ALPHABETICAL)
    assert stability_rows(lenient) != stability_rows(alone)
    assert lenient.clones != alone.clones
