"""Micro-benchmarks of the audit's hot functions, each checked against its oracle.

One seeded m=10, k=4 partial-ballot election of about 2,000 ballot types,
the size of a large ward (the ``ward`` fixture of ``conftest.py``).  Each
bench times five single calls (``benchmark.pedantic``).  Exact
Chamberlin-Courant runs its subset-sum table on the ward; the scan bench
gets a seeded m=22, k=2 election of 300 ballots, whose ``2**22`` table
would exceed the search budget, so it runs the committee scan.  The build
bench gets the ward's ballot types in shuffled order, so it merges and
sorts them as it does a parsed ballot file's.  The first call on a fresh
profile pays for building its cached array form, as the first rule run on
a reduced profile does in an audit.  The positional-score bench gets a
fresh profile every round, so each round also builds the position tally:
on the ward, from its array form (built in the round too), and on a 24-type
IC m=4 sample, the campaigns' profile size, by the loop over its ballots.
These two timings are the basis for the tally's size switch,
``core._ARRAY_TALLY_TYPES``.
The sampler benches draw one campaign trial (n=1001, as in the benchmark's
campaigns) 100 times, since a draw takes a fraction of a millisecond; the
first-preference bench places the ward and a 24-type IC m=4 sample, the
campaigns' profile size, 100 times each.  The campaign-audit bench audits
that sample as a campaign trial is audited (``harness._audit``: weakness
flags, shared removals, one spoiler analysis per rule) under the five rules
and the tie policy of the benchmark's IC campaign, 100 times a round, each
time on a fresh copy, so each audit also tallies its profile; it measures
the fixed costs per rule run that dominate such campaigns, the outcome and
report records included.  Outside the timed part it also checks, against
the definition oracle, the first trial of the sample's spec that has a
spoiler and a re-run winner above a removed candidate, since the sample's
own re-runs map every winner to itself.  Print the timings with
``pytest tests/test_microbench.py``; compare runs with pytest-benchmark's
``--benchmark-autosave`` and ``--benchmark-compare``.
"""

import random

import numpy as np
import pytest

from mwspoilers.blt_io import emit_blt, parse_blt
from mwspoilers.core import (
    _ARRAY_TALLY_TYPES,
    Profile,
    UnrankedModel,
    borda_scores,
    default_names,
    first_place_counts,
    pairwise_matrix,
    remove_candidate,
    restrict_to_subset,
    top_k_counts,
)
from mwspoilers.cultures import CultureSpec, sample_iac, sample_ic, sample_spatial1d
from mwspoilers.harness import _audit, _new_tallies
from mwspoilers.methods import (
    TiePolicy,
    _first_preferences,
    chamberlin_courant,
    greedy_cc,
    srcv,
    stv,
    top_k_irv,
)

from oracles import (
    _profile_without,
    borda_scores_reference,
    cc_enumeration,
    first_preferences_by_placing,
    greedy_cc_reference,
    naive_margin,
    parse_blt_by_lines,
    restricted_ranking,
    sample_in_draw_order,
    spatial1d_by_sorting,
    spoiler_verdicts_by_definition,
    srcv_by_removal,
    stv_by_parcels,
    top_k_counts_reference,
    top_k_irv_reference,
    verdicts_by_name,
)


def ic_sample() -> Profile:
    """A 24-type IC m=4 campaign trial, the benchmark campaigns' profile size."""
    return sample_ic(CultureSpec("ic", "complete", 4, 2, 1001, seed=5), 7)


def fresh(profile: Profile) -> Profile:
    """An equal profile without the cached array form or position tally."""
    return Profile.build(profile.m, profile.names, profile.ballots, profile.k)


def test_bench_chamberlin_courant(benchmark, ward):
    model = UnrankedModel.OPTIMISTIC
    args = (fresh(ward), model)
    outcome = benchmark.pedantic(chamberlin_courant, args=args, rounds=5, iterations=1)
    assert outcome.committees == cc_enumeration(ward, model)


def test_bench_chamberlin_courant_scan(benchmark):
    m = 22
    rng = np.random.default_rng(20240607)
    ballots = [
        (rng.permutation(m)[: int(rng.integers(1, m))].tolist(), int(rng.integers(1, 40)))
        for _ in range(300)
    ]
    wide = Profile.build(m, default_names(m), ballots, 2)
    model = UnrankedModel.PESSIMISTIC
    outcome = benchmark.pedantic(chamberlin_courant, args=(wide, model), rounds=5, iterations=1)
    assert outcome.committees == cc_enumeration(wide, model)


def test_bench_greedy_cc(benchmark, ward):
    model, tie = UnrankedModel.PESSIMISTIC, TiePolicy.ALPHABETICAL
    args = (fresh(ward), model, tie)
    outcome = benchmark.pedantic(greedy_cc, args=args, rounds=5, iterations=1)
    assert outcome == greedy_cc_reference(ward, model, tie)


def test_bench_pairwise_matrix(benchmark, ward):
    matrix = benchmark.pedantic(pairwise_matrix, args=(fresh(ward),), rounds=5, iterations=1)
    assert matrix == tuple(
        tuple(naive_margin(ward, a, b) if a != b else 0 for b in range(ward.m))
        for a in range(ward.m)
    )


def test_bench_remove_candidate(benchmark, ward):
    reduced = benchmark.pedantic(remove_candidate, args=(ward, 3), rounds=5, iterations=1)
    assert reduced == _profile_without(ward, 3)


def test_bench_restrict_to_subset(benchmark, ward):
    keep = (0, 2, 3, 5, 7, 9)
    args = (ward, keep, 3)
    restricted = benchmark.pedantic(restrict_to_subset, args=args, rounds=5, iterations=1)
    reduced = [(restricted_ranking(r, keep), w) for r, w in ward.ballots]
    names = [ward.names[c] for c in keep]
    assert restricted == Profile.build(len(keep), names, [b for b in reduced if b[0]], 3)


def test_bench_profile_build(benchmark, ward):
    shuffled = list(ward.ballots)
    random.Random(11).shuffle(shuffled)
    args = (ward.m, ward.names, shuffled, ward.k)
    built = benchmark.pedantic(Profile.build, args=args, rounds=5, iterations=1)
    assert built == Profile(ward.m, ward.names, tuple(sorted(shuffled)), ward.k)


def test_bench_parse_blt(benchmark, ward):
    data = emit_blt(ward, title="ward")
    parsed = benchmark.pedantic(parse_blt, args=(data,), rounds=5, iterations=1)
    assert parsed == parse_blt_by_lines(data).profile == ward


def test_bench_first_preferences(benchmark, ward):
    small = ic_sample()
    assert len(small.ballots) == 24

    def place():
        return [_first_preferences(p.m, p.ballots) for p in (ward, small) for _ in range(100)]

    placed = benchmark.pedantic(place, rounds=5, iterations=1)
    assert placed[0] == first_preferences_by_placing(ward.m, ward.ballots)
    assert placed[-1] == first_preferences_by_placing(small.m, small.ballots)


def test_bench_stv(benchmark, ward):
    tie = TiePolicy.ALPHABETICAL
    got = benchmark.pedantic(stv, args=(ward, tie), rounds=5, iterations=1)
    assert got == stv_by_parcels(ward, tie)


def test_bench_srcv(benchmark, ward):
    tie = TiePolicy.ALPHABETICAL
    outcome = benchmark.pedantic(srcv, args=(ward, tie), rounds=5, iterations=1)
    assert outcome == srcv_by_removal(ward, tie)


def test_bench_top_k_irv(benchmark, ward):
    tie = TiePolicy.ALPHABETICAL
    outcome = benchmark.pedantic(top_k_irv, args=(ward, tie), rounds=5, iterations=1)
    assert outcome == top_k_irv_reference(ward, tie)


@pytest.mark.parametrize("size", ["ward", "ic"])
def test_bench_positional_scores(benchmark, ward, size):
    # The ward takes the tally's array kernel, the 24-type sample its loop.
    p = ward if size == "ward" else ic_sample()
    assert (len(p.ballots) >= _ARRAY_TALLY_TYPES) == (size == "ward")

    def scores(p):  # SNTV, Bloc, Borda OM and Borda PM
        return (
            first_place_counts(p),
            top_k_counts(p, p.k),
            borda_scores(p, UnrankedModel.OPTIMISTIC),
            borda_scores(p, UnrankedModel.PESSIMISTIC),
        )

    setup = lambda: ((fresh(p),), {})
    got = benchmark.pedantic(scores, setup=setup, rounds=5, iterations=1)
    assert got == (
        top_k_counts_reference(p, 1),
        top_k_counts_reference(p, p.k),
        borda_scores_reference(p, UnrankedModel.OPTIMISTIC),
        borda_scores_reference(p, UnrankedModel.PESSIMISTIC),
    )


def test_bench_audit_campaign_sample(benchmark):
    p = ic_sample()
    methods = ("stv", "srcv", "sntv", "bloc", "borda_om")  # the IC campaign's
    tie = TiePolicy.LOWEST_INDEX
    tallies = _new_tallies(methods)

    def audit(profiles):
        return [_audit(q, tallies, tie) for q in profiles]

    setup = lambda: (([fresh(p) for _ in range(100)],), {})
    audits = benchmark.pedantic(audit, setup=setup, rounds=5, iterations=1)
    assert len(audits) == 100 and all(a == audits[0] for a in audits)
    for mid in methods:
        report, _ = audits[0][mid]
        assert verdicts_by_name(p, report) == spoiler_verdicts_by_definition(p, mid, tie), mid

    # The sample elects 0 and 1 under every rule and has no spoiler, so no
    # re-run winner changes index.  The first trial of its spec, by the oracle,
    # with a spoiler and a re-run electing the candidate just above the one
    # removed (whose reduced index is the removed one's) checks the re-indexing.
    spec = CultureSpec("ic", "complete", 4, 2, 1001, seed=5)
    for trial in range(100):
        q = sample_ic(spec, trial)
        expected = {mid: spoiler_verdicts_by_definition(q, mid, tie) for mid in methods}
        verdicts = [(c, v) for _, by_c in expected.values() for c, v in by_c.items()]
        if any(is_spoiler for _, (is_spoiler, _, _) in verdicts) and any(
            q.names[c + 1] in committee
            for c, (_, _, alternate) in verdicts
            if alternate and c + 1 < q.m
            for committee in alternate
        ):
            break
    else:
        pytest.fail("no trial with a spoiler and a re-run winner above a removed index")
    for mid, (report, _) in _audit(q, _new_tallies(methods), tie).items():
        assert verdicts_by_name(q, report) == expected[mid], (trial, mid)


def bench_sampler(benchmark, sampler, spec, oracle):
    got = benchmark.pedantic(sampler, args=(spec, 7), rounds=100, iterations=1)
    assert got == oracle(spec, 7)


def test_bench_sample_ic(benchmark):
    spec = CultureSpec("ic", "complete", 4, 2, 1001, seed=5)
    bench_sampler(benchmark, sample_ic, spec, sample_in_draw_order)


def test_bench_sample_iac(benchmark):
    spec = CultureSpec("iac", "complete", 5, 3, 1001, seed=5)
    bench_sampler(benchmark, sample_iac, spec, sample_in_draw_order)


def test_bench_sample_spatial1d(benchmark):
    spec = CultureSpec("spatial1d", "complete", 5, 3, 1001, seed=5)
    bench_sampler(benchmark, sample_spatial1d, spec, spatial1d_by_sorting)
