"""Micro-benchmarks of the audit's hot functions, each checked against its oracle.

One seeded m=10, k=4 partial-ballot election of about 2,000 ballot types,
the size of a large ward (the ``ward`` fixture of ``conftest.py``).  Each
bench times five single calls (``benchmark.pedantic``); the first call on a
fresh profile pays for building its cached array form, as the first rule run
on a reduced profile does in an audit.  The positional-score bench gets a
fresh profile every round, so each round also builds the position tally.
Print the timings with
``pytest tests/test_microbench.py``; compare runs with pytest-benchmark's
``--benchmark-autosave`` and ``--benchmark-compare``.
"""

from mwspoilers.core import (
    Profile,
    UnrankedModel,
    borda_scores,
    first_place_counts,
    pairwise_matrix,
    remove_candidate,
    top_k_counts,
)
from mwspoilers.methods import TiePolicy, chamberlin_courant, greedy_cc, srcv, stv, top_k_irv

from oracles import (
    _profile_without,
    borda_scores_reference,
    cc_enumeration,
    greedy_cc_reference,
    naive_margin,
    srcv_by_removal,
    stv_by_parcels,
    top_k_counts_reference,
    top_k_irv_reference,
)


def fresh(profile: Profile) -> Profile:
    """An equal profile without the cached array form or position tally."""
    return Profile.build(profile.m, profile.names, profile.ballots, profile.k)


def test_bench_chamberlin_courant(benchmark, ward):
    model = UnrankedModel.OPTIMISTIC
    args = (fresh(ward), model)
    outcome = benchmark.pedantic(chamberlin_courant, args=args, rounds=5, iterations=1)
    assert outcome.committees == cc_enumeration(ward, model)


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


def test_bench_positional_scores(benchmark, ward):
    def scores(p):  # SNTV, Bloc, Borda OM and Borda PM
        return (
            first_place_counts(p),
            top_k_counts(p, p.k),
            borda_scores(p, UnrankedModel.OPTIMISTIC),
            borda_scores(p, UnrankedModel.PESSIMISTIC),
        )

    setup = lambda: ((fresh(ward),), {})
    got = benchmark.pedantic(scores, setup=setup, rounds=5, iterations=1)
    assert got == (
        top_k_counts_reference(ward, 1),
        top_k_counts_reference(ward, ward.k),
        borda_scores_reference(ward, UnrankedModel.OPTIMISTIC),
        borda_scores_reference(ward, UnrankedModel.PESSIMISTIC),
    )
