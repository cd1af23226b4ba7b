"""Independent brute-force oracles.

Deliberately naive re-implementations used only to cross-check the library:
they favor obvious correctness (explicit loops, ``.index`` scans, full
enumeration) over anything shared with the code under test.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from mwspoilers.blt_io import BltDocument, BltParseError
from mwspoilers.core import (
    OutcomeSet,
    Profile,
    ProfileError,
    UnrankedModel,
    default_names,
    pairwise_matrix,
    remove_candidate,
)
from mwspoilers.cultures import CultureSpec, trial_rng
from mwspoilers.methods import (
    StvRound,
    TabulationTrace,
    TieError,
    TiePolicy,
    _hand_on,
    droop_quota,
    run_method,
)
from mwspoilers.spoilers import SpoilerReport


def sole_committee(outcome: OutcomeSet) -> frozenset[int]:
    """The committee of an outcome that holds exactly one."""
    if len(outcome.committees) != 1:
        raise ValueError(f"outcome is a tie between several committees: {outcome}")
    (committee,) = outcome.committees
    return committee


def pick(profile: Profile, cands: list[int], tie: TiePolicy, what: str) -> int:
    """One of the exactly tied ``cands`` by ``tie``: the least name or index, or a TieError."""
    if len(cands) == 1:
        return cands[0]
    if tie is TiePolicy.ERROR:
        names = ", ".join(profile.names[c] for c in sorted(cands))
        raise TieError(f"tie {what} between {names}")
    if tie is TiePolicy.ALPHABETICAL:
        return min(cands, key=lambda c: (profile.names[c], c))
    return min(cands)


def naive_first_place(profile: Profile) -> list[int]:
    counts = [0] * profile.m
    for ranking, weight in profile.ballots:
        counts[ranking[0]] += weight
    return counts


def naive_top_k(profile: Profile, k: int) -> list[int]:
    counts = [0] * profile.m
    for ranking, weight in profile.ballots:
        for c in range(profile.m):
            if c in ranking and ranking.index(c) < k:
                counts[c] += weight
    return counts


def top_k_counts_reference(profile: Profile, k: int) -> tuple[int, ...]:
    """The library's former scalar top-k count: one pass over the ballots per query."""
    if k < 1:
        raise ProfileError(f"k must be positive, got {k}")
    values = [0] * profile.m
    for ranking, weight in profile.ballots:
        for c in ranking[:k]:
            values[c] += weight
    return tuple(values)


def borda_scores_reference(profile: Profile, model: UnrankedModel) -> tuple[int, ...]:
    """The library's former scalar Borda count: one pass over the ballots per query.

    It keeps one running total of optimistic unranked points and takes each
    ranked candidate's own ballot's share back off (on a complete ballot
    that share is -weight, and it cancels out).
    """
    m = profile.m
    optimistic = model is UnrankedModel.OPTIMISTIC
    values = [0] * m
    unranked = 0
    for ranking, weight in profile.ballots:
        missing = weight * (m - len(ranking) - 1) if optimistic else 0
        unranked += missing
        for pos, c in enumerate(ranking):
            values[c] += weight * (m - pos - 1) - missing
    return tuple(v + unranked for v in values)


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
    best member so far.  Ties go to :func:`pick`.
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

    seed_scores = naive_borda(profile, model)
    seed_set = [c for c in range(m) if seed_scores[c] == max(seed_scores)]
    tie_used = len(seed_set) > 1
    committee = [pick(profile, seed_set, tie, "for greedy seed")]
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
        chosen = pick(profile, tied, tie, "for greedy committee extension")
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


def condorcet_committee_by_subsets(
    margins: tuple[tuple[int, ...], ...], m: int, size: int
) -> frozenset[int] | None:
    """The library's former Condorcet committee search: every size-``size`` subset in turn."""
    if size == m:
        return frozenset(range(m))
    # need[a]: candidates a fails to beat; any committee containing a must
    # contain them all.
    need = [frozenset(b for b in range(m) if b != a and margins[a][b] <= 0) for a in range(m)]
    for combo in itertools.combinations(range(m), size):
        members = frozenset(combo)
        if all(need[a] <= members for a in combo):
            return members
    return None


def mcc_by_subsets(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> OutcomeSet:
    """The library's former MCC: subset search for each size from k up, then the cut."""
    m, k = profile.m, profile.k
    margins = pairwise_matrix(profile)
    committee = next(
        found
        for size in range(k, m + 1)
        if (found := condorcet_committee_by_subsets(margins, m, size)) is not None
    )
    if len(committee) == k:
        return OutcomeSet.single(committee, tie_flag=False)
    members = sorted(committee)
    score = {a: min(margins[a][b] for b in members if b != a) for a in members}
    ordered = sorted(members, key=lambda c: (-score[c], c))
    threshold = score[ordered[k - 1]]
    certain = [c for c in members if score[c] > threshold]
    tied = [c for c in members if score[c] == threshold]
    seats_left = k - len(certain)
    if seats_left == len(tied):
        return OutcomeSet.single(certain + tied, tie_flag=False)
    if tie is TiePolicy.ERROR:
        names = ", ".join(profile.names[c] for c in tied)
        raise TieError(f"margin-score tie at committee cut between {names}")
    if tie is TiePolicy.ALPHABETICAL:
        tied.sort(key=lambda c: (profile.names[c], c))
    return OutcomeSet.single(certain + tied[len(tied) - seats_left :], tie_flag=True)


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
            tied = [c for c, s in surplus_of.items() if s == top]
            source = pick(profile, tied, tie, "in surplus transfer order")
            surplus, total = surplus_of.pop(source), total_of.pop(source)
            for paper in papers:
                if paper["seat"] == source:
                    paper["value"] = paper["value"] * surplus // total
                    reseat(paper)
        else:
            low = min(counts[c] for c in hopeful)
            out = pick(profile, [c for c in hopeful if counts[c] == low], tie, "for elimination")
            status[out] = "excluded"
            for paper in papers:
                if paper["seat"] == out:
                    reseat(paper)


_CONTINUING, _ELECTED, _ELIMINATED = 0, 1, 2


def _parcel_count(
    profile: Profile, quota: int, tie: TiePolicy
) -> tuple[OutcomeSet, TabulationTrace]:
    """The parcel count behind :func:`stv_by_parcels`.

    Fills the k seats at a fixed ``quota`` (units).  Each stage: declare
    elected every continuing candidate at or above quota; stop once the seats
    are filled, or once the continuing candidates exactly fill the remaining
    seats (they are elected without reaching quota).  Otherwise transfer the
    largest untransferred surplus, or, when none is pending, exclude the
    lowest continuing candidate at full current value.  Transfers skip
    previously elected and excluded candidates; ballots with no continuing
    preference left are exhausted and their value leaves the count.
    """
    m, seats = profile.m, profile.k
    status = [_CONTINUING] * m
    # Parcels: [ranking, paper count, value per paper (units), holder position].
    holdings: list[list[list]] = [[] for _ in range(m)]
    totals = [0] * m
    for ranking, weight in profile.ballots:
        holdings[ranking[0]].append([ranking, weight, UNIT, 0])
        totals[ranking[0]] += weight * UNIT
    exhausted = 0
    pending: list[tuple[int, int]] = []  # (candidate, surplus units) awaiting transfer
    winners: list[int] = []
    rounds: list[StvRound] = []
    tie_used = False

    def next_continuing(ranking: tuple[int, ...], pos: int) -> int | None:
        for j in range(pos + 1, len(ranking)):
            if status[ranking[j]] == _CONTINUING:
                return j
        return None

    def move_parcels(source: int, surplus: int | None) -> None:
        """Transfer source's parcels; ``surplus`` None means full-value exclusion."""
        nonlocal exhausted
        parcels = holdings[source]
        holdings[source] = []
        source_total = totals[source]
        for parcel in parcels:
            ranking, count, value, pos = parcel
            if surplus is not None:
                value = value * surplus // source_total
                if value == 0:
                    continue
            j = next_continuing(ranking, pos)
            if j is None:
                exhausted += count * value
                continue
            target = ranking[j]
            holdings[target].append([ranking, count, value, j])
            totals[target] += count * value

    number = 0
    while True:
        number += 1
        in_play = [c for c in range(m) if status[c] == _CONTINUING]
        snapshot = tuple((c, totals[c]) for c in in_play)

        crossers = [c for c in in_play if totals[c] >= quota]
        crossers.sort(key=lambda c: (-totals[c], c))
        declared: list[tuple[int, int]] = []
        for c in crossers:
            status[c] = _ELECTED
            winners.append(c)
            surplus = totals[c] - quota
            declared.append((c, surplus))
            if surplus > 0:
                pending.append((c, surplus))

        continuing = [c for c in in_play if status[c] == _CONTINUING]
        auto: tuple[int, ...] = ()
        if len(winners) < seats and len(continuing) == seats - len(winners):
            auto = tuple(continuing)
            for c in auto:
                status[c] = _ELECTED
                winners.append(c)

        transferred: int | None = None
        eliminated: int | None = None
        if len(winners) < seats:
            if pending:
                top_surplus = max(s for _, s in pending)
                tied = [c for c, s in pending if s == top_surplus]
                if len(tied) > 1:
                    tie_used = True
                source = pick(profile, tied, tie, "in surplus transfer order")
                pending = [(c, s) for c, s in pending if c != source]
                transferred = source
            else:
                low = min(totals[c] for c in continuing)
                tied = [c for c in continuing if totals[c] == low]
                if len(tied) > 1:
                    tie_used = True
                eliminated = pick(profile, tied, tie, "for elimination")

        rounds.append(
            StvRound(
                number=number,
                totals=snapshot,
                elected=tuple(declared),
                auto_elected=auto,
                transferred=transferred,
                eliminated=eliminated,
                exhausted=exhausted,
            )
        )

        if len(winners) == seats:
            break
        if transferred is not None:
            move_parcels(transferred, totals[transferred] - quota)
            totals[transferred] = quota
        else:
            assert eliminated is not None
            status[eliminated] = _ELIMINATED
            move_parcels(eliminated, None)
            totals[eliminated] = 0

    trace = TabulationTrace(quota=quota, rounds=tuple(rounds), winners=tuple(winners))
    return OutcomeSet.single(winners, tie_flag=tie_used), trace


def stv_by_parcels(
    profile: Profile, tie: TiePolicy = TiePolicy.ERROR
) -> tuple[OutcomeSet, TabulationTrace]:
    """STV on a parcel count of its own, with a holder position per parcel.

    The library's former implementation, kept as the reference for STV on
    the pile count.  The parcel count (:func:`_parcel_count`) with the Droop
    quota, fixed from the initial ballot total: surpluses pass on at a
    truncated fraction of each paper's value, exclusions at full value.
    """
    return _parcel_count(profile, droop_quota(profile.n, profile.k) * UNIT, tie)


def srcv_by_removal(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> OutcomeSet:
    """SRCV as k single-seat STV counts on ever smaller profiles.

    The library's former implementation, kept as the reference for SRCV's
    single-seat runoffs on the pile count.  Its counts are the parcel count
    of :func:`stv_by_parcels`, so it shares no code with the pile count.

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
        outcome, _ = stv_by_parcels(current.with_seats(1), tie)
        tie_used = tie_used or outcome.tie_flag
        winner = next(iter(sole_committee(outcome)))
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

    The library's former implementation, kept as the reference for top-k
    IRV on the pile count: eliminate plurality losers, transferring at full
    value, until k remain.  Each parcel keeps its holder position, where the
    pile count scans a ranking from the front.
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
        out = pick(profile, tied, tie, "for elimination")
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


Verdict = tuple[bool, bool, frozenset[frozenset[str]] | None]


def spoiler_verdicts_by_definition(
    profile: Profile, method_id: str, tie: TiePolicy
) -> tuple[bool, dict[int, Verdict]]:
    """The definition, applied literally: re-run after every removal.

    Returns whether the base run tied, and for every non-winner whether it
    is a spoiler, whether its re-run tied, and the re-run's committees by
    candidate name (None when it tied unbreakably).  A tie the policy
    refuses to break counts as a tie: at the base, with no non-winners to
    judge; in a re-run, as no spoiler.
    """
    try:
        base = run_method(method_id, profile, tie)
    except TieError:
        return True, {}
    base_names = _committees_by_name(profile, base)
    winners = base.winners
    verdicts: dict[int, Verdict] = {}
    for c in range(profile.m):
        if c in winners:
            continue
        if profile.m == profile.k + 1:  # the rest is the only committee left
            rest = frozenset(name for name in profile.names if name != profile.names[c])
            verdicts[c] = (False, False, frozenset([rest]))
            continue
        reduced = _profile_without(profile, c)
        try:
            after = run_method(method_id, reduced, tie)
        except TieError:
            verdicts[c] = (False, True, None)
            continue
        after_names = _committees_by_name(reduced, after)
        verdicts[c] = (after_names != base_names, after.tie_flag, after_names)
    return base.tie_flag, verdicts


def verdicts_by_name(profile: Profile, report: SpoilerReport) -> tuple[bool, dict[int, Verdict]]:
    """A spoiler report in the form :func:`spoiler_verdicts_by_definition` returns."""
    return report.base_tie, {
        v.candidate: (
            v.is_spoiler,
            v.tie_encountered,
            None if v.alternate is None else _committees_by_name(profile, v.alternate),
        )
        for v in report.verdicts
    }


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


def draw_universe(regime: str, m: int) -> tuple[tuple[int, ...], ...]:
    """The ballot types IC and IAC draw over, enumerated as they always were.

    Complete: the m! full rankings, lexicographic.  Partial: the rankings of
    length 1..m-1, shortest first and lexicographic within a length.
    """
    if regime == "complete":
        return tuple(itertools.permutations(range(m)))
    return tuple(
        itertools.chain.from_iterable(itertools.permutations(range(m), n) for n in range(1, m))
    )


def profile_from_counts(
    spec: CultureSpec, universe: tuple[tuple[int, ...], ...], counts: np.ndarray
) -> Profile:
    """The samplers' former construction: draw-order ballots merged and sorted by build."""
    ballots = [(universe[i], int(c)) for i, c in enumerate(counts) if c > 0]
    return Profile.build(spec.m, default_names(spec.m), ballots, spec.k)


def sample_in_draw_order(spec: CultureSpec, trial: int = 0) -> Profile:
    """The IC and IAC samplers as they were: same draws, ballots handed to build in draw order."""
    rng = trial_rng(spec, trial)
    universe = draw_universe(spec.regime, spec.m)
    t = len(universe)
    if spec.model == "ic":
        counts = rng.multinomial(spec.n, np.full(t, 1.0 / t))
    else:
        bars = np.sort(rng.choice(spec.n + t - 1, size=t - 1, replace=False))
        counts = np.diff(np.concatenate(([-1], bars, [spec.n + t - 1]))) - 1
    return profile_from_counts(spec, universe, counts)


def restricted_ranking(ranking: tuple[int, ...], keep: tuple[int, ...]) -> tuple[int, ...]:
    """``ranking`` without the candidates outside the sorted ``keep``, re-indexed by name."""
    return tuple(keep.index(c) for c in ranking if c in keep)



def unquote_by_tokens(raw: str, line_no: int) -> str:
    """A quoted name read as tokens: an escaped quote or backslash, or any one character."""
    s = raw.strip()
    if len(s) < 2 or s[0] != '"' or s[-1] != '"':
        raise BltParseError(line_no, f"expected a quoted string, got {raw!r}")
    tokens = re.findall(r'\\["\\]|.', s[1:-1], re.S)
    if '"' in tokens:
        raise BltParseError(line_no, "unescaped quote inside a name")
    return "".join(token[-1] for token in tokens)


def parse_blt_by_lines(data: bytes | str) -> BltDocument:
    """The ``.blt`` parser as it was: every line walked and checked on its own.

    One change from its former self: a number must be ASCII decimal digits,
    where ``int()`` also took signs, underscores and other scripts' digits.
    """
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    lines = text.split("\n")
    pos = 0

    def next_line() -> tuple[str, int]:
        nonlocal pos
        if pos >= len(lines):
            raise BltParseError(len(lines), "unexpected end of file")
        raw = lines[pos].rstrip("\r").rstrip()
        pos += 1
        return raw, pos

    def integers(fields: list[str]) -> list[int] | None:
        if not all(f.isascii() and f.isdigit() for f in fields):
            return None
        try:
            return [int(f) for f in fields]
        except ValueError:
            return None

    header, line_no = next_line()
    numbers = integers(header.split())
    if numbers is None or len(numbers) != 2:
        raise BltParseError(line_no, f"header must be 'm k', got {header!r}")
    m, k = numbers
    if m < 2:
        raise BltParseError(line_no, f"need at least 2 candidates, got m={m}")
    if m > 256:
        raise BltParseError(line_no, f"at most 256 candidates supported, got m={m}")
    if not 1 <= k < m:
        raise BltParseError(line_no, f"seat count k={k} must satisfy 1 <= k < m={m}")

    ballot_lines: list[tuple[int, tuple[int, ...]]] = []
    while True:
        raw, line_no = next_line()
        if raw == "0":
            break
        numbers = integers(raw.split())
        if not numbers:
            raise BltParseError(line_no, f"expected a ballot line, got {raw!r}")
        if numbers[-1] != 0:
            raise BltParseError(line_no, "ballot line must end with 0")
        weight, ranking = numbers[0], tuple(numbers[1:-1])
        if weight <= 0:
            raise BltParseError(line_no, f"ballot weight must be positive, got {weight}")
        if not ranking:
            raise BltParseError(line_no, "ballot ranks no candidates")
        if any(not 1 <= i <= m for i in ranking):
            raise BltParseError(line_no, f"candidate index out of range 1..{m}")
        if len(set(ranking)) != len(ranking):
            raise BltParseError(line_no, "duplicate candidate on ballot")
        ballot_lines.append((weight, ranking))
    if not ballot_lines:
        raise BltParseError(line_no, "file contains no ballots")

    names = []
    for _ in range(m):
        raw, line_no = next_line()
        names.append(unquote_by_tokens(raw, line_no))
    raw, line_no = next_line()
    title = unquote_by_tokens(raw, line_no)
    zero_based = [(tuple(i - 1 for i in ranking), weight) for weight, ranking in ballot_lines]
    return BltDocument(Profile.build(m, names, zero_based, k), title)


def first_preferences_by_placing(m: int, entries) -> tuple[list[list], list[int], list[bool]]:
    """The pile count's former start: each entry placed on its first choice's pile in turn."""
    piles: list[list] = [[] for _ in range(m)]
    totals = [0] * m
    out = [False] * m
    _hand_on(entries, piles, totals, out)
    return piles, totals, out


def adjacent_pair_weight_by_scan(profile: Profile, x: int, y: int) -> int:
    """The clone statistics' former adjacency scan: both positions looked up per ballot."""
    total = 0
    for ranking, weight in profile.ballots:
        try:
            px, py = ranking.index(x), ranking.index(y)
        except ValueError:
            continue
        if abs(px - py) == 1:
            total += weight
    return total
