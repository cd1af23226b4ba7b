"""Multiwinner winner-selection rules.

Every rule maps a :class:`~mwspoilers.core.Profile` to an
:class:`~mwspoilers.core.OutcomeSet` of size-``k`` committees; :func:`stv`
additionally returns a :class:`TabulationTrace` with per-round totals.

STV follows the counting rules used for Scottish local government elections
(https://www.legislation.gov.uk/sdsi/2007/0110714245): Droop quota,
weighted-inclusive fractional surplus transfer, and all intermediate values
truncated to five decimal places.  Vote totals are therefore carried as exact
integer counts of 1e-5 vote units, never floats, which makes official round
tables reproducible digit for digit.

STV, SRCV and top-k IRV are one elimination count, :func:`_count`, run with
different quotas and seat counts: STV with the Droop quota; top-k IRV with a
quota no total can reach, so it only eliminates until k remain; SRCV once
per seat with one seat and the past winners excluded from the start.

Ties are resolved by a :class:`TiePolicy`.  The score-based rules (SNTV,
Bloc, k-Borda) treat a tie at the committee boundary differently: outside of
``error`` mode they enumerate every tied committee rather than picking one,
since a boundary tie genuinely means several winning sets.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

import numpy as np

from .core import (
    OutcomeSet,
    Profile,
    ProfileError,
    ScoreVector,
    UnrankedModel,
    borda_scores,
    first_place_counts,
    pairwise_matrix,
    point_matrix,
    remove_candidate,  # noqa: F401 -- unused; perfbench/tracer.py patches this name
    top_k_counts,
)

UNIT = 100_000  # integer vote units of 1e-5


class TiePolicy(str, enum.Enum):
    """What to do when a rule must choose among exactly tied candidates.

    ``ERROR`` raises :class:`TieError` (simulation campaigns discard such
    trials); ``ALPHABETICAL`` picks by candidate name; ``LOWEST_INDEX`` picks
    by roster index.  Either deterministic mode sets the outcome's tie flag.
    """

    ERROR = "error"
    ALPHABETICAL = "alphabetical"
    LOWEST_INDEX = "lowest_index"


class TieError(RuntimeError):
    """An exact tie that the selected policy refuses to break."""


class SearchBudgetError(RuntimeError):
    """Exhaustive committee search would exceed its budget; use greedy_cc."""


def droop_quota(n: int, k: int) -> int:
    """Votes required for election: floor(n / (k + 1)) + 1."""
    return n // (k + 1) + 1


def _break_tie(profile: Profile, cands: Sequence[int], tie: TiePolicy, what: str) -> int:
    """Pick one of ``cands`` (all exactly tied) according to the policy."""
    if len(cands) == 1:
        return cands[0]
    if tie is TiePolicy.ERROR:
        names = ", ".join(profile.names[c] for c in sorted(cands))
        raise TieError(f"tie {what} between {names}")
    if tie is TiePolicy.ALPHABETICAL:
        return min(cands, key=lambda c: (profile.names[c], c))
    return min(cands)


# ---------------------------------------------------------------------------
# STV


@dataclass(frozen=True)
class StvRound:
    """One counting stage: a totals snapshot plus what was decided on it.

    ``totals`` covers the candidates still in play when the stage opened
    (continuing candidates, including any declared elected at this stage);
    values are 1e-5 vote units.  Exactly one of ``transferred`` and
    ``eliminated`` is set unless the count ended at this stage.
    """

    number: int
    totals: tuple[tuple[int, int], ...]
    elected: tuple[tuple[int, int], ...]  # (candidate, surplus units) declared here
    auto_elected: tuple[int, ...]  # filled remaining seats without reaching quota
    transferred: int | None
    eliminated: int | None
    exhausted: int  # cumulative units held by ballots with no continuing preference

    def total_of(self, c: int) -> int:
        for cand, units in self.totals:
            if cand == c:
                return units
        raise KeyError(f"candidate {c} not in play at round {self.number}")


@dataclass(frozen=True)
class TabulationTrace:
    quota: int  # units
    rounds: tuple[StvRound, ...]
    winners: tuple[int, ...]  # in order of election

    @property
    def quota_votes(self) -> int:
        return self.quota // UNIT


_CONTINUING, _ELECTED, _ELIMINATED = 0, 1, 2


def _count(
    profile: Profile,
    seats: int,
    quota: int,
    tie: TiePolicy,
    excluded: frozenset[int] = frozenset(),
) -> tuple[OutcomeSet, TabulationTrace]:
    """The parcel count behind :func:`stv`, :func:`srcv` and :func:`top_k_irv`.

    Fills ``seats`` seats at a fixed ``quota`` (units).  Each stage: declare
    elected every continuing candidate at or above quota; stop once the seats
    are filled, or once the continuing candidates exactly fill the remaining
    seats (they are elected without reaching quota).  Otherwise transfer the
    largest untransferred surplus, or, when none is pending, exclude the
    lowest continuing candidate at full current value.  Transfers skip
    previously elected and excluded candidates; ballots with no continuing
    preference left are exhausted and their value leaves the count.

    Candidates in ``excluded`` are out before the first stage: ballots start
    with their first other preference, and ballots ranking nobody else never
    enter the count, exactly as if those candidates had been removed.
    """
    m = profile.m
    status = [_CONTINUING] * m
    for c in excluded:
        status[c] = _ELIMINATED
    # Parcels: [ranking, paper count, value per paper (units), holder position].
    holdings: list[list[list]] = [[] for _ in range(m)]
    totals = [0] * m
    for ranking, weight in profile.ballots:
        for j, c in enumerate(ranking):
            if status[c] == _CONTINUING:
                holdings[c].append([ranking, weight, UNIT, j])
                totals[c] += weight * UNIT
                break
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
                source = _break_tie(profile, tied, tie, "in surplus transfer order")
                pending = [(c, s) for c, s in pending if c != source]
                transferred = source
            else:
                low = min(totals[c] for c in continuing)
                tied = [c for c in continuing if totals[c] == low]
                if len(tied) > 1:
                    tie_used = True
                eliminated = _break_tie(profile, tied, tie, "for elimination")

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


def stv(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> tuple[OutcomeSet, TabulationTrace]:
    """Single transferable vote with fractional (weighted inclusive) transfers.

    The shared parcel count (:func:`_count`) with the Droop quota, fixed from
    the initial ballot total: surpluses pass on at a truncated fraction of
    each paper's value, exclusions at full value.
    """
    return _count(profile, profile.k, droop_quota(profile.n, profile.k) * UNIT, tie)


def srcv(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> OutcomeSet:
    """Sequential ranked-choice voting: k single-winner runoffs.

    Each seat goes to the instant-runoff winner of the ballots with the past
    winners excluded; the quota is the Droop quota of the ballots that still
    rank a continuing candidate.  A one-seat count transfers no surplus, so
    excluding the past winners counts exactly as removing them would.
    Should every remaining ballot rank only past winners, the leftover seats
    are a pure tie among unranked candidates and fall to the tie policy.
    """
    seats: list[int] = []
    tie_used = False
    while len(seats) < profile.k:
        excluded = frozenset(seats)
        live = sum(w for ranking, w in profile.ballots if not excluded.issuperset(ranking))
        if not live:
            leftovers = [c for c in range(profile.m) if c not in excluded]
            if tie is TiePolicy.ERROR:
                names = ", ".join(profile.names[c] for c in leftovers)
                raise TieError(f"all ballots exhausted; remaining seats tie between {names}")
            if tie is TiePolicy.ALPHABETICAL:
                leftovers.sort(key=lambda c: (profile.names[c], c))
            seats.extend(leftovers[: profile.k - len(seats)])
            return OutcomeSet.single(seats, tie_flag=True)
        outcome, trace = _count(profile, 1, droop_quota(live, 1) * UNIT, tie, excluded)
        tie_used = tie_used or outcome.tie_flag
        seats.append(trace.winners[0])
    return OutcomeSet.single(seats, tie_flag=tie_used)


def top_k_irv(profile: Profile, tie: TiePolicy = TiePolicy.ALPHABETICAL) -> OutcomeSet:
    """Eliminate plurality losers, transferring at full value, until k remain.

    The shared parcel count with a quota no total can reach, so every seat is
    filled when the continuing candidates exactly fill the seats.
    """
    return _count(profile, profile.k, profile.n * UNIT + 1, tie)[0]


# ---------------------------------------------------------------------------
# Score-based rules


def _top_k_outcome(profile: Profile, scores: ScoreVector, tie: TiePolicy) -> OutcomeSet:
    """Committees formed by the k best scores.

    A tie crossing the k-th place either raises (``error``), yields every
    completion of the certain winners from the tied group (``alphabetical``,
    because such an election genuinely has several winning sets), or is
    resolved to the single lowest-index completion (``lowest_index``, the
    fully resolute mode that large simulation campaigns need so that tied
    trials neither drop out nor multiply).
    """
    k = profile.k
    ordered = sorted(range(profile.m), key=lambda c: (-scores[c], c))
    threshold = scores[ordered[k - 1]]
    certain = [c for c in range(profile.m) if scores[c] > threshold]
    tied = [c for c in range(profile.m) if scores[c] == threshold]
    seats_left = k - len(certain)
    if seats_left == len(tied):
        return OutcomeSet.single(certain + tied, tie_flag=False)
    if tie is TiePolicy.ERROR:
        names = ", ".join(profile.names[c] for c in tied)
        raise TieError(f"score tie at committee boundary between {names}")
    if tie is TiePolicy.LOWEST_INDEX:
        return OutcomeSet.single(ordered[:k], tie_flag=True)
    committees = frozenset(
        frozenset(certain) | frozenset(combo)
        for combo in itertools.combinations(tied, seats_left)
    )
    return OutcomeSet(committees=committees, tie_flag=True)


def sntv(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> OutcomeSet:
    """Single non-transferable vote: top k by first-place votes."""
    return _top_k_outcome(profile, first_place_counts(profile), tie)


def bloc(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> OutcomeSet:
    """Bloc voting: top k by k-approval score (top-k mentions)."""
    return _top_k_outcome(profile, top_k_counts(profile, profile.k), tie)


def k_borda(
    profile: Profile, model: UnrankedModel, tie: TiePolicy = TiePolicy.ERROR
) -> OutcomeSet:
    """Top k by total Borda score under the given unranked-candidate model."""
    return _top_k_outcome(profile, borda_scores(profile, model), tie)


# ---------------------------------------------------------------------------
# Chamberlin-Courant


def committee_satisfaction(
    profile: Profile, committee: Sequence[int], model: UnrankedModel
) -> int:
    """Total satisfaction: each voter scores their best committee member.

    A voter ranking no committee member contributes the model's default for
    their ballot length.
    """
    if not committee or any(not 0 <= c < profile.m for c in committee):
        raise ProfileError(
            f"committee {list(committee)} must be non-empty, within 0..{profile.m - 1}"
        )
    _, weights = profile.arrays
    by_candidate = point_matrix(profile, model).T
    return int(by_candidate[list(committee)].max(axis=0) @ weights)


def chamberlin_courant(
    profile: Profile, model: UnrankedModel, budget: int = 1_000_000
) -> OutcomeSet:
    """Exact Chamberlin-Courant by exhaustive committee enumeration.

    Scans all C(m, k) committees in lexicographic order, streaming the
    maximum; every maximizing committee is returned, so an exact tie shows up
    as a multi-committee outcome.  Refuses profiles where C(m, k) exceeds the
    budget (the winner determination problem is NP-hard in general; fall back
    to :func:`greedy_cc`).
    """
    m, k = profile.m, profile.k
    if comb(m, k) > budget:
        raise SearchBudgetError(
            f"C({m}, {k}) = {comb(m, k)} committees exceeds budget {budget}; use greedy_cc"
        )
    _, weights = profile.arrays
    by_candidate = point_matrix(profile, model).T
    best_value = -1
    best: list[frozenset[int]] = []
    # A committee is a (k-1)-prefix plus a larger last member: one array op
    # scores every last member of a prefix.  Points are non-negative, so the
    # empty prefix (k = 1) has a best-member score of zero on every ballot.
    for prefix in itertools.combinations(range(m - 1), k - 1):
        start = prefix[-1] + 1 if prefix else 0
        prefix_max = by_candidate[list(prefix)].max(axis=0) if prefix else 0
        values = np.maximum(prefix_max, by_candidate[start:]) @ weights
        top = int(values.max())
        if top < best_value:
            continue
        if top > best_value:
            best_value, best = top, []
        last = np.flatnonzero(values == top) + start
        best.extend(frozenset((*prefix, j)) for j in last.tolist())
    return OutcomeSet(committees=frozenset(best), tie_flag=len(best) > 1)


def greedy_cc(
    profile: Profile, model: UnrankedModel, tie: TiePolicy = TiePolicy.ERROR
) -> OutcomeSet:
    """Greedy Chamberlin-Courant approximation.

    Seeds with the Borda winner, then repeatedly adds the candidate whose
    inclusion raises total satisfaction the most.  This is the marginal-gain
    greedy of Lu & Boutilier, "Budgeted Social Choice: From Consensus to
    Personalized Decision Making" (IJCAI 2011); satisfaction is monotone and
    submodular in the committee, so it reaches at least (1 - 1/e) of the
    optimum.  The Borda winner is the greedy first pick, since a singleton
    committee's satisfaction is its member's Borda score.
    """
    _, weights = profile.arrays
    by_candidate = point_matrix(profile, model).T
    seed_scores = by_candidate @ weights  # the Borda scores under ``model``
    seed_set = np.flatnonzero(seed_scores == seed_scores.max()).tolist()
    tie_used = len(seed_set) > 1
    seed = _break_tie(profile, seed_set, tie, "for greedy seed")
    committee = [seed]
    best = by_candidate[seed].copy()  # each ballot type's best member's points
    for _ in range(profile.k - 1):
        gains = np.maximum(by_candidate - best, 0) @ weights
        gains[committee] = -1  # members gain nothing; keep them out of the max
        tied = np.flatnonzero(gains == gains.max()).tolist()
        if len(tied) > 1:
            tie_used = True
        chosen = _break_tie(profile, tied, tie, "for greedy committee extension")
        committee.append(chosen)
        np.maximum(best, by_candidate[chosen], out=best)
    return OutcomeSet.single(committee, tie_flag=tie_used)


# ---------------------------------------------------------------------------
# Minimax Condorcet committee


def _condorcet_committee(
    margins: tuple[tuple[int, ...], ...], m: int, size: int
) -> frozenset[int] | None:
    if size == m:
        return frozenset(range(m))
    # need[a]: candidates a fails to beat; any committee containing a must
    # contain them all.
    need = [
        frozenset(b for b in range(m) if b != a and margins[a][b] <= 0)
        for a in range(m)
    ]
    for combo in itertools.combinations(range(m), size):
        members = frozenset(combo)
        if all(need[a] <= members for a in combo):
            return members
    return None


def condorcet_committee(profile: Profile, size: int) -> frozenset[int] | None:
    """The Condorcet committee of the given size, if one exists.

    A committee qualifies when each member strictly pairwise-beats every
    non-member.  Two distinct committees of one size would need candidates
    beating each other both ways, so the committee is unique per size.
    """
    return _condorcet_committee(pairwise_matrix(profile), profile.m, size)


def mcc(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> OutcomeSet:
    """Minimax Condorcet committee rule.

    Finds the smallest Condorcet committee of size at least k (the full
    candidate set always qualifies), then, if it is oversized, drops the
    members with the lowest minimum pairwise margin against the rest of the
    committee until k remain.
    """
    m, k = profile.m, profile.k
    margins = pairwise_matrix(profile)
    committee: frozenset[int] = frozenset(range(m))
    for size in range(k, m + 1):
        found = _condorcet_committee(margins, m, size)
        if found is not None:
            committee = found
            break
    if len(committee) == k:
        return OutcomeSet.single(committee, tie_flag=False)
    members = sorted(committee)
    score = {
        a: min(margins[a][b] for b in members if b != a) for a in members
    }
    ordered = sorted(members, key=lambda c: (-score[c], c))
    threshold = score[ordered[k - 1]]
    certain = [c for c in members if score[c] > threshold]
    tied = [c for c in members if score[c] == threshold]
    seats_left = k - len(certain)
    if seats_left != len(tied):
        if tie is TiePolicy.ERROR:
            names = ", ".join(profile.names[c] for c in tied)
            raise TieError(f"margin-score tie at committee cut between {names}")
        if tie is TiePolicy.ALPHABETICAL:
            tied.sort(key=lambda c: (profile.names[c], c))
        drop = len(tied) - seats_left
        tied = tied[drop:]
        return OutcomeSet.single(certain + tied, tie_flag=True)
    return OutcomeSet.single(certain + tied, tie_flag=False)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Method:
    id: str
    label: str
    run: Callable[[Profile, TiePolicy], OutcomeSet]


def _stv_outcome(profile: Profile, tie: TiePolicy) -> OutcomeSet:
    return stv(profile, tie)[0]


METHODS: dict[str, Method] = {
    method.id: method
    for method in (
        Method("stv", "STV", _stv_outcome),
        Method("srcv", "SRCV", srcv),
        Method("sntv", "SNTV", sntv),
        Method("bloc", "Bloc", bloc),
        Method(
            "borda_om",
            "Borda (OM)",
            lambda p, tie: k_borda(p, UnrankedModel.OPTIMISTIC, tie),
        ),
        Method(
            "borda_pm",
            "Borda (PM)",
            lambda p, tie: k_borda(p, UnrankedModel.PESSIMISTIC, tie),
        ),
        Method(
            "cc_om",
            "Cham-Cour (OM)",
            lambda p, tie: chamberlin_courant(p, UnrankedModel.OPTIMISTIC),
        ),
        Method(
            "cc_pm",
            "Cham-Cour (PM)",
            lambda p, tie: chamberlin_courant(p, UnrankedModel.PESSIMISTIC),
        ),
        Method(
            "greedy_om",
            "Greedy-CC (OM)",
            lambda p, tie: greedy_cc(p, UnrankedModel.OPTIMISTIC, tie),
        ),
        Method(
            "greedy_pm",
            "Greedy-CC (PM)",
            lambda p, tie: greedy_cc(p, UnrankedModel.PESSIMISTIC, tie),
        ),
        Method("mcc", "MCC", mcc),
        Method("topk_irv", "Top-k IRV", top_k_irv),
    )
}


def run_method(method_id: str, profile: Profile, tie: TiePolicy) -> OutcomeSet:
    try:
        method = METHODS[method_id]
    except KeyError:
        raise KeyError(
            f"unknown method {method_id!r}; known: {', '.join(sorted(METHODS))}"
        ) from None
    return method.run(profile, tie)
