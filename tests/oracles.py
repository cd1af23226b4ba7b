"""Independent brute-force oracles.

Deliberately naive re-implementations used only to cross-check the library:
they favor obvious correctness (explicit loops, ``.index`` scans, full
enumeration) over anything shared with the code under test.
"""

from __future__ import annotations

import itertools

import numpy as np

from mwspoilers.core import (
    OutcomeSet,
    Profile,
    ProfileError,
    UnrankedModel,
    default_names,
    remove_candidate,
)
from mwspoilers.cultures import CultureSpec, trial_rng
from mwspoilers.methods import TieError, TiePolicy, _break_tie, run_method, stv


def naive_first_place(profile: Profile) -> list[int]:
    counts = [0] * profile.m
    for ranking, weight in profile.ballots:
        counts[ranking[0]] += weight
    return counts


def naive_borda(profile: Profile, model: UnrankedModel) -> list[int]:
    m = profile.m
    scores = [0] * m
    for ranking, weight in profile.ballots:
        for c in range(m):
            if c in ranking:
                scores[c] += weight * (m - ranking.index(c) - 1)
            elif model is UnrankedModel.OPTIMISTIC:
                scores[c] += weight * (m - len(ranking) - 1)
    return scores


def naive_margin(profile: Profile, a: int, b: int) -> int:
    total = 0
    for ranking, weight in profile.ballots:
        pa = ranking.index(a) if a in ranking else None
        pb = ranking.index(b) if b in ranking else None
        if pa is None and pb is None:
            continue
        if pb is None or (pa is not None and pa < pb):
            total += weight
        else:
            total -= weight
    return total


def naive_satisfaction(profile: Profile, committee, model: UnrankedModel) -> int:
    """Total over voters of the points of their best-ranked committee member."""
    m = profile.m
    value = 0
    for ranking, weight in profile.ballots:
        ranks = [ranking.index(c) for c in committee if c in ranking]
        if ranks:
            points = m - 1 - min(ranks)
        elif model is UnrankedModel.OPTIMISTIC:
            points = m - len(ranking) - 1
        else:
            points = 0
        value += weight * points
    return value


def cc_enumeration(profile: Profile, model: UnrankedModel) -> frozenset[frozenset[int]]:
    """All committees maximizing total best-member satisfaction."""
    best_value: int | None = None
    best: list[frozenset[int]] = []
    for committee in itertools.combinations(range(profile.m), profile.k):
        value = naive_satisfaction(profile, committee, model)
        if best_value is None or value > best_value:
            best_value, best = value, [frozenset(committee)]
        elif value == best_value:
            best.append(frozenset(committee))
    return frozenset(best)


def greedy_cc_reference(
    profile: Profile, model: UnrankedModel, tie: TiePolicy
) -> OutcomeSet:
    """Greedy Chamberlin-Courant on per-ballot dicts of ranked-candidate points.

    The library's former scalar implementation: seed with the Borda winner,
    then add the candidate with the largest total gain over each ballot's
    best member so far.  Ties are broken, or raised, with the library's
    policy and messages.
    """
    m = profile.m
    tables = []  # per ballot type: ranked-candidate points, default points, weight
    for ranking, weight in profile.ballots:
        points = {c: m - pos - 1 for pos, c in enumerate(ranking)}
        if model is UnrankedModel.OPTIMISTIC and len(ranking) < m:
            default = m - len(ranking) - 1
        else:
            default = 0
        tables.append((points, default, weight))

    def pick(cands: list[int], what: str) -> int:
        if len(cands) == 1:
            return cands[0]
        if tie is TiePolicy.ERROR:
            names = ", ".join(profile.names[c] for c in sorted(cands))
            raise TieError(f"tie {what} between {names}")
        if tie is TiePolicy.ALPHABETICAL:
            return min(cands, key=lambda c: (profile.names[c], c))
        return min(cands)

    seed_scores = naive_borda(profile, model)
    seed_set = [c for c in range(m) if seed_scores[c] == max(seed_scores)]
    tie_used = len(seed_set) > 1
    committee = [pick(seed_set, "for greedy seed")]
    best = [max(points.get(committee[0], -1), default) for points, default, _ in tables]
    for _ in range(profile.k - 1):
        gains: dict[int, int] = {}
        for c in range(m):
            if c in committee:
                continue
            gain = 0
            for i, (points, _default, weight) in enumerate(tables):
                p = points.get(c)
                if p is not None and p > best[i]:
                    gain += weight * (p - best[i])
            gains[c] = gain
        top_gain = max(gains.values())
        tied = sorted(c for c, g in gains.items() if g == top_gain)
        if len(tied) > 1:
            tie_used = True
        chosen = pick(tied, "for greedy committee extension")
        committee.append(chosen)
        for i, (points, _default, _weight) in enumerate(tables):
            p = points.get(chosen)
            if p is not None and p > best[i]:
                best[i] = p
    return OutcomeSet.single(committee, tie_flag=tie_used)


def all_condorcet_committees(profile: Profile, size: int) -> list[frozenset[int]]:
    """Every size-``size`` subset whose members all beat all non-members."""
    out = []
    for subset in itertools.combinations(range(profile.m), size):
        inside = set(subset)
        outside = [c for c in range(profile.m) if c not in inside]
        if all(naive_margin(profile, a, b) > 0 for a in inside for b in outside):
            out.append(frozenset(subset))
    return out


def _committees_by_name(profile: Profile, outcome: OutcomeSet) -> frozenset[frozenset[str]]:
    return frozenset(
        frozenset(profile.names[c] for c in committee)
        for committee in outcome.committees
    )


def _profile_without(profile: Profile, removed: int) -> Profile:
    """Candidate removal done from scratch, by name."""
    names = [n for i, n in enumerate(profile.names) if i != removed]
    index = {name: i for i, name in enumerate(names)}
    ballots = []
    for ranking, weight in profile.ballots:
        kept = [index[profile.names[c]] for c in ranking if c != removed]
        if kept:
            ballots.append((tuple(kept), weight))
    return Profile.build(profile.m - 1, names, ballots, profile.k)


UNIT = 100_000


def stv_reference(profile: Profile, tie: TiePolicy):
    """A second STV count, written structurally unlike the library engine.

    Works on individual ballot papers (no parcel grouping, no position
    pointers): each paper is a dict carrying its ranking, its current value
    in 1e-5 units, and the candidate it currently sits with.  Same counting
    rules: fixed Droop quota, elect everyone at or above quota each stage,
    transfer the largest pending surplus first at per-paper value
    ``value * surplus // total`` (truncation), otherwise exclude the lowest
    continuing candidate at current value; transfers skip elected and
    excluded candidates.  Returns the winners in order of election and the
    per-stage totals of candidates still in play.
    """
    m, k = profile.m, profile.k
    quota = (profile.n // (k + 1) + 1) * UNIT
    papers = []
    for ranking, weight in profile.ballots:
        papers.extend(
            {"ranking": ranking, "value": UNIT, "seat": ranking[0]}
            for _ in range(weight)
        )
    status = {c: "hopeful" for c in range(m)}
    winners: list[int] = []
    surplus_of: dict[int, int] = {}
    total_of: dict[int, int] = {}
    stages: list[dict[int, int]] = []

    def tally() -> dict[int, int]:
        out = {c: 0 for c in range(m)}
        for paper in papers:
            if paper["seat"] is not None:
                out[paper["seat"]] += paper["value"]
        return out

    def reseat(paper) -> None:
        after = paper["ranking"].index(paper["seat"]) + 1
        for c in paper["ranking"][after:]:
            if status[c] == "hopeful":
                paper["seat"] = c
                return
        paper["seat"] = None

    def pick(cands, what):
        if len(cands) > 1 and tie is TiePolicy.ERROR:
            raise TieError(what)
        if tie is TiePolicy.ALPHABETICAL:
            return min(cands, key=lambda c: (profile.names[c], c))
        return min(cands)

    while True:
        counts = tally()
        in_play = [c for c in range(m) if status[c] == "hopeful"]
        stages.append({c: counts[c] for c in in_play})
        crossers = sorted(
            (c for c in in_play if counts[c] >= quota),
            key=lambda c: (-counts[c], c),
        )
        for c in crossers:
            status[c] = "elected"
            winners.append(c)
            if counts[c] > quota:
                surplus_of[c] = counts[c] - quota
                total_of[c] = counts[c]
        hopeful = [c for c in in_play if status[c] == "hopeful"]
        if len(winners) < k and len(hopeful) == k - len(winners):
            winners.extend(hopeful)
            for c in hopeful:
                status[c] = "elected"
        if len(winners) == k:
            return winners, stages
        if surplus_of:
            top = max(surplus_of.values())
            source = pick(
                [c for c, s in surplus_of.items() if s == top], "surplus order"
            )
            surplus, total = surplus_of.pop(source), total_of.pop(source)
            for paper in papers:
                if paper["seat"] == source:
                    paper["value"] = paper["value"] * surplus // total
                    reseat(paper)
        else:
            low = min(counts[c] for c in hopeful)
            out = pick([c for c in hopeful if counts[c] == low], "elimination")
            status[out] = "excluded"
            for paper in papers:
                if paper["seat"] == out:
                    reseat(paper)


_CONTINUING, _ELIMINATED = 0, 2


def srcv_by_removal(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> OutcomeSet:
    """SRCV as k single-seat STV counts on ever smaller profiles.

    The library's former implementation, kept as the reference for the
    shared count's excluded candidates.

    Each seat goes to the instant-runoff winner of the current ballots; the
    winner is then removed from all ballots before the next seat is filled.
    Should every remaining ballot rank only past winners, the leftover seats
    are a pure tie among unranked candidates and fall to the tie policy.
    """
    current = profile
    original = list(range(profile.m))
    seats: list[int] = []
    tie_used = False
    for seat in range(profile.k):
        outcome, _ = stv(current.with_seats(1), tie)
        tie_used = tie_used or outcome.tie_flag
        winner = next(iter(outcome.sole_committee()))
        seats.append(original[winner])
        if seat < profile.k - 1:
            try:
                current = remove_candidate(current.with_seats(1), winner)
            except ProfileError:
                leftovers = [original[i] for i in range(current.m) if i != winner]
                if tie is TiePolicy.ERROR:
                    names = ", ".join(profile.names[c] for c in leftovers)
                    raise TieError(
                        f"all ballots exhausted; remaining seats tie between {names}"
                    ) from None
                if tie is TiePolicy.ALPHABETICAL:
                    leftovers.sort(key=lambda c: (profile.names[c], c))
                seats.extend(leftovers[: profile.k - len(seats)])
                tie_used = True
                break
            del original[winner]
    return OutcomeSet.single(seats, tie_flag=tie_used)


def top_k_irv_reference(
    profile: Profile, tie: TiePolicy = TiePolicy.ALPHABETICAL
) -> OutcomeSet:
    """Top-k IRV on a parcel loop of its own, without a quota.

    The library's former implementation: eliminate plurality losers,
    transferring at full value, until k remain.
    """
    m, k = profile.m, profile.k
    status = [_CONTINUING] * m
    holdings: list[list[list]] = [[] for _ in range(m)]
    totals = [0] * m
    for ranking, weight in profile.ballots:
        holdings[ranking[0]].append([ranking, weight, 0])
        totals[ranking[0]] += weight
    remaining = m
    tie_used = False
    while remaining > k:
        continuing = [c for c in range(m) if status[c] == _CONTINUING]
        low = min(totals[c] for c in continuing)
        tied = [c for c in continuing if totals[c] == low]
        if len(tied) > 1:
            tie_used = True
        out = _break_tie(profile, tied, tie, "for elimination")
        status[out] = _ELIMINATED
        for ranking, weight, pos in holdings[out]:
            for j in range(pos + 1, len(ranking)):
                if status[ranking[j]] == _CONTINUING:
                    holdings[ranking[j]].append([ranking, weight, j])
                    totals[ranking[j]] += weight
                    break
        holdings[out] = []
        totals[out] = 0
        remaining -= 1
    winners = [c for c in range(m) if status[c] == _CONTINUING]
    return OutcomeSet.single(winners, tie_flag=tie_used)


def spoiler_verdicts_by_definition(
    profile: Profile, method_id: str, tie: TiePolicy
) -> dict[int, bool] | None:
    """The definition, applied literally: re-run after every removal.

    Returns candidate -> is_spoiler for every non-winner, or None when a tie
    anywhere makes the comparison moot.
    """
    try:
        base = run_method(method_id, profile, tie)
    except TieError:
        return None
    base_names = _committees_by_name(profile, base)
    winners = base.winners
    verdicts: dict[int, bool] = {}
    for c in range(profile.m):
        if c in winners:
            continue
        if profile.m == profile.k + 1:
            verdicts[c] = False
            continue
        reduced = _profile_without(profile, c)
        try:
            after = run_method(method_id, reduced, tie)
        except TieError:
            return None
        verdicts[c] = _committees_by_name(reduced, after) != base_names
    return verdicts


def spatial1d_by_sorting(spec: CultureSpec, trial: int = 0) -> Profile:
    """The 1D spatial sampler ranking every voter on their own.

    Same draws as :func:`mwspoilers.cultures.sample_spatial1d`, but each
    voter's distance ranking is sorted individually and identical ballots
    are merged with ``np.unique`` or a dict.
    """
    rng = trial_rng(spec, trial)
    m, n = spec.m, spec.n
    cands = rng.standard_normal(m)
    while len(np.unique(cands)) != m:
        cands = rng.standard_normal(m)
    midpoints = np.array(
        [(cands[i] + cands[j]) / 2.0 for i in range(m) for j in range(i + 1, m)]
    )
    voters = rng.standard_normal(n)
    collides = np.isin(voters, midpoints)
    while collides.any():
        voters[collides] = rng.standard_normal(int(collides.sum()))
        collides = np.isin(voters, midpoints)

    order = np.argsort(np.abs(voters[:, None] - cands[None, :]), axis=1)
    if spec.regime == "complete":
        rows, counts = np.unique(order[:, : m - 1], axis=0, return_counts=True)
        ballots = [
            (tuple(int(c) for c in row), int(cnt)) for row, cnt in zip(rows, counts)
        ]
    else:
        lengths = rng.integers(1, m, size=n)
        merged: dict[tuple[int, ...], int] = {}
        for row, length in zip(order, lengths):
            key = tuple(int(c) for c in row[:length])
            merged[key] = merged.get(key, 0) + 1
        ballots = list(merged.items())
    return Profile.build(m, default_names(m), ballots, spec.k)
