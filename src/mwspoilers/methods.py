"""Multiwinner winner-selection rules.

Every rule maps a :class:`~mwspoilers.core.Profile` to an
:class:`~mwspoilers.core.OutcomeSet` of size-``k`` committees; :func:`stv`
additionally returns a :class:`TabulationTrace` with per-round totals.
Both records are ``NamedTuple``s.  A rule that picks one committee makes
its outcome with :meth:`~mwspoilers.core.OutcomeSet.single`, which needs no
check; one that returns every best committee (exact Chamberlin-Courant, a
boundary tie under ``alphabetical``) goes through the checked constructor.

STV follows the counting rules used for Scottish local government elections
(https://www.legislation.gov.uk/sdsi/2007/0110714245): Droop quota,
weighted-inclusive fractional surplus transfer, and all intermediate values
truncated to five decimal places.  Vote totals are therefore carried as exact
integer counts of 1e-5 vote units, never floats, which makes official round
tables reproducible digit for digit.

The ranked rules share one pile count: each ballot sits on the pile of
its first-ranked candidate still in, and taking a candidate out hands only
that pile on.  With every candidate still in, the piles are slices of the
profile's sorted ballots, which come grouped by first choice, so a count
starts without placing any ballot.  SRCV and top-k IRV only ever transfer
at full value, so their piles hold the profile's own ballot types.  STV's
piles hold parcels whose papers each carry a value, which a surplus
transfer truncates, and STV records an official round table.  Top-k IRV
eliminates until k candidates remain; SRCV runs one single-seat count per
seat, with the past winners out from the start.  Their shared runoff ends
at its last elimination: once one more candidate continues than there are
seats, it picks the loser and the rest win, without handing the loser's
pile on.

Exact Chamberlin-Courant has two engines, which find the same committees:
a table of ``2**m`` subset sums that scores every committee at once, and
a scan of the C(m, k) committees over every ballot type, which needs no
table and so serves elections too large for one.
:func:`chamberlin_courant` runs the table whenever it fits the search
budget.

The score-based rules (SNTV, Bloc, k-Borda) are committee scoring rules:
each takes the k best of one score per candidate.  They read their scores
(first-place, top-k and Borda counts) off the profile's cached position
tally, :attr:`~mwspoilers.core.Profile.tally`, so all of them, and the
spoiler audit's weakness flags, share one count of each profile.  A small
profile, such as a campaign's, is counted in a Python loop over its
ballots; one of ward size is counted in int64 from its cached array form,
which is faster there and which the array-based rules then reuse (see
:mod:`mwspoilers.core`).

Every choice among exactly tied candidates goes through :func:`_choose`
under a :class:`TiePolicy`.  The one exception is the score-based rules'
committee boundary under ``alphabetical``: they enumerate every tied
committee rather than picking one, since a boundary tie genuinely means
several winning sets.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    _MAX_CANDIDATES,
    OutcomeSet,
    Profile,
    ProfileError,
    UnrankedModel,
    _ranking,
    borda_scores,
    first_place_counts,
    pairwise_matrix,
    point_matrix,
    remove_candidate,  # noqa: F401 -- unused; perfbench/tracer.py patches this name
    top_k_counts,
)

UNIT = 100_000  # integer vote units of 1e-5

_value = itemgetter(1)  # the value a pile entry carries
# Where candidate c's pile ends in sorted rankings: the least ranking above
# every ranking that starts with c.  A ranking's indices are distinct, so
# b"\xff\xff" is above every ranking that starts with 255.
_PILE_ENDS = (*(bytes((c + 1,)) for c in range(_MAX_CANDIDATES - 1)), b"\xff\xff")


class TiePolicy(str, enum.Enum):
    """What to do when a rule must choose among exactly tied candidates.

    ``ERROR`` raises :class:`TieError` (simulation campaigns discard such
    trials); ``ALPHABETICAL`` picks by candidate name; ``LOWEST_INDEX`` picks
    by roster index.  The candidate picked is the one a step elects at a
    boundary (SNTV, Bloc and k-Borda under ``LOWEST_INDEX``, greedy CC,
    SRCV's leftover seats), the one whose surplus STV transfers first, and
    the one a step removes in an elimination (STV, SRCV, top-k IRV) or in
    MCC's cut.  Either deterministic mode sets the outcome's tie flag.
    Where a policy is read, a member's string value reads as the member and
    any other value raises ``ValueError``.
    """

    ERROR = "error"
    ALPHABETICAL = "alphabetical"
    LOWEST_INDEX = "lowest_index"


class TieError(RuntimeError):
    """An exact tie that the selected policy refuses to break."""


class SearchBudgetError(RuntimeError):
    """A rule would enumerate more committees than :data:`_SEARCH_BUDGET`."""


_SEARCH_BUDGET = 1_000_000  # most committees a rule will enumerate


def droop_quota(n: int, k: int) -> int:
    """Votes required for election: floor(n / (k + 1)) + 1."""
    return n // (k + 1) + 1


def _choose(
    profile: Profile, tied: list[int], count: int, tie: TiePolicy, what: str
) -> tuple[list[int], bool]:
    """Take ``count`` of the exactly tied candidates by the policy's order.

    Returns them, first ``count`` in policy order, and whether that was a
    choice; taking none or all of them is not, and returns them as given.
    A choice under ``error`` raises :class:`TieError` with the text
    ``"<what> between <names>"``, names in index order.
    """
    if not 0 < count < len(tied):
        return tied[:count], False
    tie = TiePolicy(tie)
    if tie is TiePolicy.ERROR:
        names = ", ".join(profile.names[c] for c in sorted(tied))
        raise TieError(f"{what} between {names}")
    if tie is TiePolicy.ALPHABETICAL:
        return sorted(tied, key=lambda c: (profile.names[c], c))[:count], True
    return sorted(tied)[:count], True


# ---------------------------------------------------------------------------
# Ranked rules: the pile count


class StvRound(NamedTuple):
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


class TabulationTrace(NamedTuple):
    quota: int  # units
    rounds: tuple[StvRound, ...]
    winners: tuple[int, ...]  # in order of election


def _hand_on(
    entries: Sequence[tuple], piles: list[list[tuple]], totals: list[int], out: list[bool]
) -> int:
    """Put each entry on the pile of its first-ranked candidate not out.

    An entry's element 0 is a ranking and element 1 the value it carries: a
    ballot type's weight in SRCV and top-k IRV, a parcel's units in STV.
    Entries ranking nobody still in are exhausted and leave the count;
    returns the value they take with them.
    """
    exhausted = 0
    for entry in entries:
        for c in entry[0]:
            if not out[c]:
                piles[c].append(entry)
                totals[c] += entry[1]
                break
        else:
            exhausted += entry[1]
    return exhausted


def _exclude(piles: list[list[tuple]], totals: list[int], out: list[bool], x: int) -> int:
    """Take ``x`` out of the count and hand its pile on as it stands.

    An entry sits with its first-ranked candidate still in, so everyone it
    ranks before ``x`` is already out: scanning its ranking from the front
    finds its next continuing preference.  Returns the value exhausted.
    """
    out[x] = True
    pile, piles[x], totals[x] = piles[x], [], 0
    return _hand_on(pile, piles, totals, out)


def _lowest(
    profile: Profile, continuing: list[int], totals: list[int], tie: TiePolicy
) -> tuple[list[int], bool]:
    """The continuing candidate to eliminate, alone in a list, and whether a tie was broken."""
    low = min(totals[c] for c in continuing)
    tied = [c for c in continuing if totals[c] == low]
    return _choose(profile, tied, 1, tie, "tie for elimination")


def _first_preferences(
    m: int, entries: Sequence[tuple]
) -> tuple[list[list[tuple]], list[int], list[bool]]:
    """Piles, totals and out flags with every candidate in.

    ``entries`` must be sorted by ranking, as a profile's ballots are, so
    the entries whose ranking starts with ``c`` form one slice: candidate
    ``c``'s pile, whose end is found by bisection.  Each total is a sum over
    its pile.
    """
    entries = list(entries)
    piles = []
    totals = []
    lo = 0
    for end in _PILE_ENDS[:m]:
        hi = bisect_left(entries, end, lo, key=_ranking)
        pile = entries[lo:hi]
        piles.append(pile)
        totals.append(sum(map(_value, pile)))
        lo = hi
    return piles, totals, [False] * m


def stv(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> tuple[OutcomeSet, TabulationTrace]:
    """Single transferable vote with fractional (weighted inclusive) transfers.

    The pile count with the Droop quota, fixed from the initial ballot
    total.  A pile entry is a parcel ``(ranking, units, papers, units per
    paper)``, and a candidate is out once elected or excluded.  Each stage:
    declare elected every continuing candidate at or above quota; stop once
    the seats are filled, or once the continuing candidates exactly fill the
    remaining seats (they are elected without reaching quota).  Otherwise
    transfer the largest untransferred surplus, re-valuing each paper to
    ``value * surplus // total`` and dropping parcels now worth nothing, or,
    when none is pending, exclude the lowest continuing candidate at full
    current value.  Ballots with no continuing preference left are exhausted
    and their value leaves the count.
    """
    m, seats = profile.m, profile.k
    quota = droop_quota(profile.n, seats) * UNIT
    piles, totals, out = _first_preferences(
        m, [(ranking, weight * UNIT, weight, UNIT) for ranking, weight in profile.ballots]
    )
    exhausted = 0
    pending: list[tuple[int, int]] = []  # (candidate, surplus units) awaiting transfer
    winners: list[int] = []
    rounds: list[StvRound] = []
    tie_used = False

    number = 0
    while True:
        number += 1
        in_play = [c for c in range(m) if not out[c]]
        snapshot = tuple((c, totals[c]) for c in in_play)

        crossers = [c for c in in_play if totals[c] >= quota]
        crossers.sort(key=lambda c: (-totals[c], c))
        declared: list[tuple[int, int]] = []
        for c in crossers:
            out[c] = True
            winners.append(c)
            surplus = totals[c] - quota
            declared.append((c, surplus))
            if surplus > 0:
                pending.append((c, surplus))

        continuing = [c for c in in_play if not out[c]]
        auto: tuple[int, ...] = ()
        if len(winners) < seats and len(continuing) == seats - len(winners):
            auto = tuple(continuing)
            for c in auto:
                out[c] = True
                winners.append(c)

        transferred: int | None = None
        eliminated: int | None = None
        if len(winners) < seats:
            if pending:
                top_surplus = max(s for _, s in pending)
                tied = [c for c, s in pending if s == top_surplus]
                (source,), broken = _choose(profile, tied, 1, tie, "tie in surplus transfer order")
                tie_used = tie_used or broken
                pending = [(c, s) for c, s in pending if c != source]
                transferred = source
            else:
                (eliminated,), tied_low = _lowest(profile, continuing, totals, tie)
                tie_used = tie_used or tied_low

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
            total = totals[transferred]
            surplus = total - quota
            parcels = []
            for ranking, _, papers, value in piles[transferred]:
                value = value * surplus // total
                if value:
                    parcels.append((ranking, papers * value, papers, value))
            piles[transferred], totals[transferred] = [], quota
            exhausted += _hand_on(parcels, piles, totals, out)
        else:
            assert eliminated is not None
            exhausted += _exclude(piles, totals, out, eliminated)

    trace = TabulationTrace(quota=quota, rounds=tuple(rounds), winners=tuple(winners))
    return OutcomeSet.single(winners, tie_flag=tie_used), trace


def _runoff(
    profile: Profile,
    piles: list[list[tuple]],
    totals: list[int],
    out: list[bool],
    seats: int,
    quota: int | None,
    tie: TiePolicy,
) -> tuple[list[int], bool]:
    """Eliminate plurality losers until the continuing candidates fill ``seats``.

    More than ``seats`` candidates must be continuing.  With a ``quota``
    (single-seat counts only), a candidate at or above it wins at once.
    Each elimination but the last hands the loser's pile on; the last one
    ends the count, since the other ``seats`` candidates win whatever their
    piles hold, so the piles are left as they stood before it.  Returns the
    winners in index order and whether an elimination tie had to be broken.
    """
    tie_used = False
    while True:
        continuing = [c for c in range(profile.m) if not out[c]]
        if quota is not None:
            leader = max(continuing, key=totals.__getitem__)
            if totals[leader] >= quota:
                return [leader], tie_used
        (loser,), tied = _lowest(profile, continuing, totals, tie)
        tie_used = tie_used or tied
        if len(continuing) == seats + 1:
            continuing.remove(loser)
            return continuing, tie_used
        _exclude(piles, totals, out, loser)


def srcv(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> OutcomeSet:
    """Sequential ranked-choice voting: k single-winner runoffs.

    Each seat goes to the instant-runoff winner of the ballots with the past
    winners out; the quota is the Droop quota of the ballots that still rank
    a continuing candidate.  A one-seat count transfers no surplus, so
    putting the past winners out counts exactly as removing them would.
    Should every remaining ballot rank only past winners, the leftover seats
    are a pure tie among unranked candidates and fall to the tie policy.
    """
    piles, totals, out = _first_preferences(profile.m, profile.ballots)  # the past winners out
    seats: list[int] = []
    tie_used = False
    while True:
        live = sum(totals)
        if not live:
            what = "all ballots exhausted; remaining seats tie"
            leftovers = [c for c in range(profile.m) if not out[c]]
            chosen, _ = _choose(profile, leftovers, profile.k - len(seats), tie, what)
            return OutcomeSet.single(seats + chosen, tie_flag=True)
        (winner,), tied = _runoff(
            profile,
            [pile.copy() for pile in piles],
            totals.copy(),
            out.copy(),
            1,
            droop_quota(live, 1),
            tie,
        )
        tie_used = tie_used or tied
        seats.append(winner)
        if len(seats) == profile.k:
            return OutcomeSet.single(seats, tie_flag=tie_used)
        _exclude(piles, totals, out, winner)


def top_k_irv(profile: Profile, tie: TiePolicy = TiePolicy.ALPHABETICAL) -> OutcomeSet:
    """Eliminate plurality losers, transferring at full value, until k remain."""
    piles, totals, out = _first_preferences(profile.m, profile.ballots)
    winners, tie_used = _runoff(profile, piles, totals, out, profile.k, None, tie)
    return OutcomeSet.single(winners, tie_flag=tie_used)


# ---------------------------------------------------------------------------
# Score-based rules


def _cut(scores: dict[int, int], k: int) -> tuple[list[int], list[int]]:
    """The candidates above the k-th best score and those at it, in ``scores`` order."""
    threshold = sorted(scores.values(), reverse=True)[k - 1]
    certain = [c for c, score in scores.items() if score > threshold]
    tied = [c for c, score in scores.items() if score == threshold]
    return certain, tied


def _top_k_outcome(profile: Profile, scores: tuple[int, ...], tie: TiePolicy) -> OutcomeSet:
    """Committees formed by the k best scores.

    A tie crossing the k-th place either raises (``error``), yields every
    completion of the certain winners from the tied group (``alphabetical``,
    because such an election genuinely has several winning sets), or is
    resolved to the single lowest-index completion (``lowest_index``, the
    fully resolute mode that large simulation campaigns need so that tied
    trials neither drop out nor multiply).  Listing more completions than
    the search budget raises :class:`SearchBudgetError`.
    """
    certain, tied = _cut(dict(enumerate(scores)), profile.k)
    seats_left = profile.k - len(certain)
    if seats_left < len(tied) and TiePolicy(tie) is TiePolicy.ALPHABETICAL:
        count = comb(len(tied), seats_left)
        if count > _SEARCH_BUDGET:
            raise SearchBudgetError(
                f"C({len(tied)}, {seats_left}) = {count} tied committees exceeds budget "
                f"{_SEARCH_BUDGET}; use tie policy lowest_index"
            )
        committees = frozenset(
            frozenset(certain) | frozenset(combo)
            for combo in itertools.combinations(tied, seats_left)
        )
        return OutcomeSet(committees=committees, tie_flag=True)
    chosen, tie_used = _choose(profile, tied, seats_left, tie, "score tie at committee boundary")
    return OutcomeSet.single(certain + chosen, tie_flag=tie_used)


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


def chamberlin_courant(profile: Profile, model: UnrankedModel) -> OutcomeSet:
    """Exact Chamberlin-Courant: every committee of greatest total satisfaction.

    Every maximizing committee is returned, so an exact tie shows up as a
    multi-committee outcome.  Refuses profiles where C(m, k) exceeds the
    budget (the winner determination problem is NP-hard in general; fall
    back to :func:`greedy_cc`).  Two engines find the same committees: the
    subset-sum table (:func:`_cc_table`) when its ``2**m`` entries fit the
    budget, which bounds its time and memory whatever k and the number of
    ballot types; the committee scan (:func:`_cc_scan`) otherwise, so any
    ``m`` whose C(m, k) fits the budget is still served.
    """
    m, k = profile.m, profile.k
    if comb(m, k) > _SEARCH_BUDGET:
        raise SearchBudgetError(
            f"C({m}, {k}) = {comb(m, k)} committees exceeds budget {_SEARCH_BUDGET}; "
            "use greedy_cc"
        )
    if 2**m <= _SEARCH_BUDGET:
        return _cc_table(profile, model)
    return _cc_scan(profile, model)


def _cc_table(profile: Profile, model: UnrankedModel) -> OutcomeSet:
    """Exact Chamberlin-Courant from one table of ``2**m`` subset sums.

    A voter's satisfaction with a committee, its best member's points, is
    the number of thresholds ``t = 1..m-1`` that some member's points reach.
    Candidate sets are bitmasks.  The table first holds, at each set, the
    weight of the (ballot type, threshold) pairs whose candidates with at
    least ``t`` points (:func:`point_matrix`, so under ``model``) form that
    set; one subset-sum (zeta) transform, as in Björklund, Husfeldt, Kaski
    and Koivisto, "Fourier meets Möbius: fast subset convolution" (STOC
    2007), turns that into the weight of the pairs whose set lies inside it.
    A committee reaches every threshold except those pairs inside its
    complement, so it scores ``W * (m - 1)`` less the entry at its
    complement, ``W`` being the total weight, and the best committees are
    those whose complement's entry is least.  Every entry is at most
    ``W * (m - 1)``, which the int64 check of :attr:`Profile.arrays` bounds.
    """
    m, k = profile.m, profile.k
    _, weights = profile.arrays
    types = len(weights)
    flat = point_matrix(profile, model).T  # a fresh array, one row per candidate
    flat *= types
    flat += np.arange(types)  # [c, i]: where c's points on ballot type i go
    # with_points[v * types + i]: the set of candidates with v points on
    # ballot type i.  Each pass adds one candidate's bit at distinct entries,
    # so the sum of the bits is the set.
    with_points = np.zeros(m * types, dtype=np.int64)
    for c, index in enumerate(flat):
        with_points[index] += 1 << c
    inside = np.zeros(1 << m, dtype=np.int64)
    reaching = np.zeros(types, dtype=np.int64)
    for row in with_points.reshape(m, types)[:0:-1]:  # m - 1 points down to 1
        reaching += row  # the set with at least that many points
        np.add.at(inside, reaching, weights)
    sizes = np.zeros(1 << m, dtype=np.int8)
    for bit in range(m):  # each set with ``bit`` adds in the set without it
        half = inside.reshape(-1, 2, 1 << bit)
        half[:, 1, :] += half[:, 0, :]
        sizes.reshape(-1, 2, 1 << bit)[:, 1, :] += 1
    committees = np.flatnonzero(sizes == k)
    missed = inside[((1 << m) - 1) ^ committees]
    best = committees[missed == missed.min()].tolist()
    return OutcomeSet(
        committees=frozenset(frozenset(c for c in range(m) if s >> c & 1) for s in best),
        tie_flag=len(best) > 1,
    )


def _cc_scan(profile: Profile, model: UnrankedModel) -> OutcomeSet:
    """Exact Chamberlin-Courant by scanning every committee over every ballot type.

    Scans all C(m, k) committees in lexicographic order, streaming the
    maximum, with no table of ``2**m`` entries, so it serves any ``m``
    whose C(m, k) fits the budget.
    """
    m, k = profile.m, profile.k
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
    committee, tie_used = _choose(profile, seed_set, 1, tie, "tie for greedy seed")
    best = by_candidate[committee[0]].copy()  # each ballot type's best member's points
    for _ in range(profile.k - 1):
        gains = np.maximum(by_candidate - best, 0) @ weights
        gains[committee] = -1  # members gain nothing; keep them out of the max
        tied = np.flatnonzero(gains == gains.max()).tolist()
        (chosen,), broken = _choose(profile, tied, 1, tie, "tie for greedy committee extension")
        tie_used = tie_used or broken
        committee.append(chosen)
        np.maximum(best, by_candidate[chosen], out=best)
    return OutcomeSet.single(committee, tie_flag=tie_used)


# ---------------------------------------------------------------------------
# Minimax Condorcet committee


def _condorcet_committees(margins: tuple[tuple[int, ...], ...], m: int) -> list[frozenset[int]]:
    """The Condorcet committees: each candidate's closure under ``need``, in candidate order.

    ``need[a]`` holds the candidates ``a`` fails to beat; a set is a
    Condorcet committee exactly when it is closed under ``need``.  Of any two
    candidates one is in the other's ``need``, so the closed sets form a
    chain, and each is the largest closure of its members.  The full
    candidate set is the largest closure.
    """
    need = [[b for b in range(m) if b != a and margins[a][b] <= 0] for a in range(m)]
    closures = []
    for a in range(m):
        members, stack = {a}, [a]
        while stack:
            for b in need[stack.pop()]:
                if b not in members:
                    members.add(b)
                    stack.append(b)
        closures.append(frozenset(members))
    return closures


def condorcet_committee(profile: Profile, size: int) -> frozenset[int] | None:
    """The Condorcet committee of the given size, if one exists.

    A committee qualifies when each member strictly pairwise-beats every
    non-member.  Two distinct committees of one size would need candidates
    beating each other both ways, so the committee is unique per size.
    """
    committees = _condorcet_committees(pairwise_matrix(profile), profile.m)
    return next((c for c in committees if len(c) == size), None)


def mcc(profile: Profile, tie: TiePolicy = TiePolicy.ERROR) -> OutcomeSet:
    """Minimax Condorcet committee rule.

    Finds the smallest Condorcet committee of size at least k (the full
    candidate set always qualifies), then, if it is oversized, drops the
    members with the lowest minimum pairwise margin against the rest of the
    committee until k remain.  The Condorcet committees are the closures of
    single candidates under "every candidate a member fails to beat is a
    member", so the search takes polynomial time in m.
    """
    m, k = profile.m, profile.k
    margins = pairwise_matrix(profile)
    committee = min((c for c in _condorcet_committees(margins, m) if len(c) >= k), key=len)
    if len(committee) == k:
        return OutcomeSet.single(committee, tie_flag=False)
    members = sorted(committee)
    score = {a: min(margins[a][b] for b in members if b != a) for a in members}
    certain, tied = _cut(score, k)
    drop = len(certain) + len(tied) - k
    dropped, tie_used = _choose(profile, tied, drop, tie, "margin-score tie at committee cut")
    kept = [c for c in tied if c not in dropped]
    return OutcomeSet.single(certain + kept, tie_flag=tie_used)


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


# The tie policies' values, which their members also hash and compare as.
_TIE_VALUES = frozenset(policy.value for policy in TiePolicy)


def run_method(method_id: str, profile: Profile, tie: TiePolicy) -> OutcomeSet:
    """Run a registered rule.  ``tie`` is checked on every call, so a value
    that is no policy fails even where the rule meets no tie."""
    if tie not in _TIE_VALUES:
        TiePolicy(tie)  # raises the enum's own ValueError, which names the value
    try:
        method = METHODS[method_id]
    except KeyError:
        raise KeyError(
            f"unknown method {method_id!r}; known: {', '.join(sorted(METHODS))}"
        ) from None
    return method.run(profile, tie)
