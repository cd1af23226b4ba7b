"""Acceptance suite: one test per release criterion, one verdict line each.

Data-dependent criteria (the official Scottish count reproduction and the
corpus-level rates) skip when ``SCOT_ELEX_DIR`` is not set; see
``tests/scotdata.py``.  The full-scale 100,000-trial simulation check runs
when ``MWSPOILERS_FULL_ACCEPTANCE=1``; the default run uses the 10,000-trial
CI variant at its wider tolerance.
"""

import os
import time

import pytest

from mwspoilers.core import UnrankedModel
from mwspoilers.cultures import CultureSpec
from mwspoilers.extend import hamilton_apportion
from mwspoilers.harness import run_simulation
from mwspoilers.methods import (
    METHODS,
    UNIT,
    TiePolicy,
    chamberlin_courant,
    mcc,
    stv,
)
from mwspoilers.spoilers import analyze_spoilers
from mwspoilers.cli import main as cli_main

from conftest import random_profile, vote_splitting_profile
from oracles import (
    all_condorcet_committees,
    cc_enumeration,
    sole_committee,
    spoiler_verdicts_by_definition,
    verdicts_by_name,
)
import scotdata

import numpy as np


def report(name: str, detail: str = "ok") -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. Plurality vote-splitting oracle (exact)


def test_criterion_1_vote_splitting_pair():
    p = vote_splitting_profile(1)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        rep = analyze_spoilers(p, "sntv", TiePolicy.ERROR)
        best = min(best, time.perf_counter() - t0)
    assert sole_committee(rep.outcome) == frozenset([0])  # A wins
    verdicts = {v.candidate: v for v in rep.verdicts}
    assert verdicts[2].is_spoiler  # removing S elects W
    assert sole_committee(verdicts[2].alternate) == frozenset([1])
    assert verdicts[1].is_spoiler  # removing W elects S
    assert sole_committee(verdicts[1].alternate) == frozenset([2])
    assert best < 0.001, f"took {best * 1e6:.0f} us"
    report("1 vote-splitting oracle", f"{best * 1e6:.0f} us")


# ---------------------------------------------------------------------------
# 2. Official 2022 Edinburgh Ward 5 count (exact, data-dependent)

EDINBURGH_SURNAMES = [
    "Bandel", "Herring", "Holden", "Laird", "McNamara",
    "Mitchell", "Munro-Brian", "Nicolson", "Osler", "Wood",
]

# Published per-stage totals; None marks a blank cell (candidate already
# elected or excluded).
EDINBURGH_ROUNDS = {
    "Bandel": [1714, 1740.1, 1740.1, 1741.4, 1751.5, 1767.8, 2221.6, 2379.8, 2383.7, 2959.0],
    "Herring": [853, 863.1, 863.1, 867.1, 889.3, None, None, None, None, None],
    "Holden": [96, 97.4, 98.4, 109.4, None, None, None, None, None, None],
    "Laird": [53, 53.6, 53.6, None, None, None, None, None, None, None],
    "McNamara": [17, 17.3, None, None, None, None, None, None, None, None],
    "Mitchell": [1836, 1877.5, 1878.7, 1883.8, 1896.8, 2643.6, 2767.6, None, None, None],
    "Munro-Brian": [1684, 1713.0, 1715.0, 1721.0, 1736.2, 1755.3, None, None, None, None],
    "Nicolson": [2641, 2657.3, 2659.3, 2663.3, 2668.4, 2683.4, 2936.8, None, None, None],
    "Osler": [3117, None, None, None, None, None, None, None, None, None],
    "Wood": [1405, 1700.6, 1702.7, 1711.7, 1725.3, 1765.1, 2275.5, 2303.0, 2337.8, None],
}

HERRING_REMOVED_ROUNDS = {
    "Bandel": [1728, 1757.5, 1757.5, 1759.8, 1760.4, 1773.6, 2331.8, 2336.0, None],
    "Holden": [108, 110.0, 111.0, 124.0, 124.0, None, None, None, None],
    "Laird": [60, 60.8, 60.8, None, None, None, None, None, None],
    "McNamara": [18, 18.3, None, None, None, None, None, None, None],
    "Mitchell": [2530, 2585.3, 2586.5, 2595.6, 2595.7, 2635.8, 2768.4, None, None],
    "Munro-Brian": [1698, 1730.7, 1732.7, 1741.7, 1741.9, 1760.0, None, None, None],
    "Nicolson": [2654, 2672.1, 2674.1, 2678.1, None, None, None, None, None],
    "Osler": [3168, None, None, None, None, None, None, None, None],
    "Wood": [1418, 1754.0, 1757.2, 1767.2, 1767.2, 1783.9, 2344.7, 2382.5, 3342.3],
}


def check_round_table(profile, trace, expected):
    index = {}
    for surname in expected:
        hits = [c for c in range(profile.m) if surname.lower() in profile.names[c].lower()]
        assert len(hits) == 1, f"ambiguous surname {surname}"
        index[surname] = hits[0]
    num_rounds = max(len(v) for v in expected.values())
    assert len(trace.rounds) == num_rounds
    for surname, cells in expected.items():
        c = index[surname]
        for rnd, cell in zip(trace.rounds, cells):
            shown = dict(rnd.totals)
            if cell is None:
                assert c not in shown, f"{surname} should be out by round {rnd.number}"
            else:
                assert c in shown, f"{surname} missing at round {rnd.number}"
                votes = shown[c] / 100_000
                assert votes == pytest.approx(cell, abs=0.05), (
                    f"{surname} round {rnd.number}: {votes} != {cell}"
                )
    return index


def test_criterion_2_official_count_reproduction():
    profile = scotdata.find_by_candidates(EDINBURGH_SURNAMES, m=10, k=4)
    if profile is None:
        pytest.skip("Scottish ballot data not available (set SCOT_ELEX_DIR)")
    t0 = time.perf_counter()
    outcome, trace = stv(profile, TiePolicy.ALPHABETICAL)
    elapsed = time.perf_counter() - t0
    assert trace.quota == 2684 * UNIT
    index = check_round_table(profile, trace, EDINBURGH_ROUNDS)
    winners = sole_committee(outcome)
    assert winners == {index[s] for s in ("Bandel", "Mitchell", "Nicolson", "Osler")}
    assert elapsed < 1.0

    from mwspoilers.core import remove_candidate

    reduced = remove_candidate(profile, index["Herring"])
    outcome2, trace2 = stv(reduced, TiePolicy.ALPHABETICAL)
    assert trace2.quota == 2677 * UNIT
    check_round_table(reduced, trace2, HERRING_REMOVED_ROUNDS)
    winner_names = {reduced.names[c] for c in sole_committee(outcome2)}
    assert any("Wood" in name for name in winner_names)
    assert not any("Bandel" in name for name in winner_names)
    report("2 official count reproduction", f"{elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# 3. Proportional ballot extension example (exact)


def test_criterion_3_extension_rounding():
    assert hamilton_apportion([9 / 38 * 10, 12 / 38 * 10, 17 / 38 * 10], 10) == [2, 3, 5]

    from mwspoilers.core import Profile, default_names
    from mwspoilers.extend import extend_profile

    p = Profile.build(
        6,
        default_names(6),
        [((0, 1, 2), 10), ((0, 1, 2, 3), 9), ((0, 1, 2, 4), 12), ((0, 1, 2, 5), 17)],
        2,
    )
    out = extend_profile(p)
    weights = {b.ranking: b.weight for b in out.ballots}
    assert weights[b"\x00\x01\x02\x03"] - 9 == 2
    assert weights[b"\x00\x01\x02\x04"] - 12 == 3
    assert weights[b"\x00\x01\x02\x05"] - 17 == 5
    report("3 extension rounding")


# ---------------------------------------------------------------------------
# 4. Simulation reproduction (statistical)

SIMULATION_TARGETS = {
    "stv": 15.6,
    "srcv": 18.4,
    "sntv": 37.9,
    "bloc": 49.7,
    "borda_om": 21.2,
}


def run_ic_campaign(trials):
    spec = CultureSpec("ic", "complete", 4, 2, 1001, seed=20220505)
    return run_simulation(
        spec,
        list(SIMULATION_TARGETS),
        trials=trials,
        tie=TiePolicy.LOWEST_INDEX,
        workers=2,
    )


def test_criterion_4_simulation_reproduction_ci():
    result = run_ic_campaign(10_000)
    lines = []
    for mid, target in SIMULATION_TARGETS.items():
        got = 100 * result.methods[mid].fraction("spoiler")
        lines.append(f"{mid}={got:.1f} (published {target})")
        assert got == pytest.approx(target, abs=2.5), lines[-1]
    report("4 simulation reproduction @10k/±2.5", "; ".join(lines))


@pytest.mark.skipif(
    not os.environ.get("MWSPOILERS_FULL_ACCEPTANCE"),
    reason="full 100k-trial check; set MWSPOILERS_FULL_ACCEPTANCE=1",
)
def test_criterion_4_simulation_reproduction_full():
    result = run_ic_campaign(100_000)
    lines = []
    failures = []
    for mid, target in SIMULATION_TARGETS.items():
        got = 100 * result.methods[mid].fraction("spoiler")
        lines.append(f"{mid}={got:.2f} (published {target})")
        if abs(got - target) > 1.0:
            failures.append(lines[-1])
    print("[acceptance] 4 full-scale reproduction: " + "; ".join(lines))
    assert not failures, failures


# ---------------------------------------------------------------------------
# 5. Structural zero for Bloc under the 1D-spatial model (exact)


@pytest.mark.parametrize("m,k", [(4, 2), (5, 3)])
def test_criterion_5_spatial_bloc_structural_zero(m, k):
    trials = 100_000
    spec = CultureSpec("spatial1d", "complete", m, k, 1001, seed=2022)
    result = run_simulation(spec, ["bloc"], trials=trials, workers=2)
    tally = result.methods["bloc"]
    assert tally.spoiler == 0
    assert tally.used + tally.ties_discarded == trials
    report(
        f"5 spatial Bloc zero m={m} k={k}",
        f"{tally.used} clean trials, {tally.ties_discarded} tie trials",
    )


# ---------------------------------------------------------------------------
# 6. Brute-force equivalence on 1,000 random small elections


def test_criterion_6_bruteforce_equivalence():
    rng = np.random.default_rng(20230117)
    cc_checks = mcc_hits = verdict_checks = 0
    for _ in range(1000):
        p = random_profile(rng, max_m=6, max_types=10, max_weight=5)
        assert p.n <= 50
        for model in UnrankedModel:
            assert chamberlin_courant(p, model).committees == cc_enumeration(p, model)
            cc_checks += 1
        verified = all_condorcet_committees(p, p.k)
        if verified:
            assert sole_committee(mcc(p, TiePolicy.ALPHABETICAL)) == verified[0]
            mcc_hits += 1
        for mid in METHODS:
            _, expected = spoiler_verdicts_by_definition(p, mid, TiePolicy.ALPHABETICAL)
            _, got = verdicts_by_name(p, analyze_spoilers(p, mid, TiePolicy.ALPHABETICAL))
            assert got == expected, (mid, p)
            verdict_checks += 1
    assert mcc_hits > 50
    report(
        "6 brute-force equivalence",
        f"{cc_checks} CC, {mcc_hits} MCC, {verdict_checks} spoiler-report checks",
    )


# ---------------------------------------------------------------------------
# 7. Corpus-level spoiler rates (statistical, data-dependent)


def test_criterion_7_corpus_rates():
    elections, skipped = scotdata.load_corpus()
    if not elections:
        pytest.skip("Scottish ballot data not available (set SCOT_ELEX_DIR)")
    from mwspoilers.harness import run_corpus_audit

    result = run_corpus_audit(
        elections, ["stv", "srcv", "sntv", "mcc", "topk_irv"], tie=TiePolicy.ALPHABETICAL
    )
    rates = {mid: 100 * result.methods[mid].fraction("spoiler") for mid in ("stv", "srcv", "sntv")}
    assert rates["stv"] == pytest.approx(4.9, abs=0.3), rates
    assert rates["srcv"] == pytest.approx(2.8, abs=0.3), rates
    assert rates["sntv"] == pytest.approx(11.0, abs=0.3), rates
    stv_spoiler_elections = result.methods["stv"].spoiler
    assert abs(stv_spoiler_elections - 49) <= 2
    for mid in ("mcc", "topk_irv"):
        tally = result.methods[mid]
        assert abs(tally.spoiler - 4) <= 1, (mid, tally.spoiler)
        assert tally.multiple <= 1, (mid, tally.multiple)
    report(
        "7 corpus rates",
        f"{result.elections_used} elections, {len(skipped)} files skipped; "
        f"stv={rates['stv']:.1f}% "
        f"({stv_spoiler_elections} spoiler elections)",
    )


# ---------------------------------------------------------------------------
# 8. Determinism of the simulate command across worker counts


def test_criterion_8_simulate_byte_identical_across_workers(tmp_path):
    args = [
        "simulate",
        "--model", "ic",
        "--regime", "partial",
        "--m", "4",
        "--k", "2",
        "--voters", "301",
        "--trials", "400",
        "--seed", "77",
        "--methods", "stv", "sntv", "bloc",
        "--tie", "lowest_index",
    ]
    one = tmp_path / "w1.csv"
    two = tmp_path / "w2.csv"
    three = tmp_path / "w3.csv"
    assert cli_main(args + ["--workers", "1", "--out", str(one)]) == 0
    assert cli_main(args + ["--workers", "2", "--out", str(two)]) == 0
    assert cli_main(args + ["--workers", "3", "--out", str(three)]) == 0
    assert one.read_bytes() == two.read_bytes() == three.read_bytes()
    report("8 determinism across workers", f"{len(one.read_bytes())} bytes")
