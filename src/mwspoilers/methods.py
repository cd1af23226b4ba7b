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
starts without placing any ballot.  STV's piles hold parcels whose papers
each carry a value, which a surplus transfer truncates, and STV records an
official round table.  SRCV and top-k IRV only ever transfer at full value,
so their totals depend only on the set of candidates out.  SRCV builds a
profile's :attr:`~mwspoilers.core.Profile.continuing_totals`, one row per
set, when the profile's counts run on its array form
(``core._array_sized``: a ward's, not a campaign sample's) and it has at
most ``_TABLE_CANDIDATES`` candidates, where the table was measured to
beat the piles; top-k IRV reads the table only when the profile already
holds it, as an audit's SRCV run leaves it.  Every other count runs on
piles of the profile's own ballot types, the reference.  Top-k IRV
eliminates until k candidates remain; SRCV runs one single-seat count
per seat, with the past winners out from the start.  Their shared runoff
makes every decision through :func:`_lowest` and :func:`_choose` on either
form, and ends at its last elimination: once one more candidate continues
than there are seats, it picks the loser and the rest win, without taking
the loser out.

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

A spoiler audit re-runs each rule with a candidate removed.  Every rule
but STV can also count the parent election with that candidate out
(:func:`run_method`'s ``out``), from the counts the parent holds, in the
parent's indices, and equal to the run on
:func:`~mwspoilers.core.remove_candidate` mapped back:

- SRCV and top-k IRV start their count with ``out`` out: its pile handed
  on, or the table's row for it.  The ballots that rank only ``out`` then
  leave the live weight, and so SRCV's quota, as the removal drops them.
- SNTV and Bloc: a candidate's top-``j`` count gains the ballots that rank
  ``out`` among their first ``j`` entries and it at place ``j + 1``.
- Both Bordas: a candidate loses the ballots that rank it and not ``out``
  before it, and under the optimistic model also those that rank neither
  and, once per other candidate, those that rank ``out`` alone
  (:attr:`~mwspoilers.core.Profile.pair_counts`).  MCC reads the margins
  without ``out``'s row and column.
- The Chamberlin-Courant rules read the removal's point matrix, taken from
  the parent's rank positions, with the ballots that rank ``out`` alone at
  weight 0 (:func:`_cc_input`).

Exclusion keeps every other candidate's index order and name, so each tie
policy picks, and each ``TieError`` names, as on the removal.

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
    _array_sized,
    _check_out,
    _points,
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


class _Piles:
    """A full-value count on piles of the profile's ballot types (see :func:`_hand_on`)."""

    __slots__ = ("piles", "totals", "out")

    def __init__(self, piles: list[list[tuple]], totals: list[int], out: list[bool]) -> None:
        self.piles, self.totals, self.out = piles, totals, out

    def copy(self) -> "_Piles":
        return _Piles([pile.copy() for pile in self.piles], self.totals.copy(), self.out.copy())

    def exclude(self, x: int) -> None:
        _exclude(self.piles, self.totals, self.out, x)


class _Lookups:
    """The same count read off :attr:`~mwspoilers.core.Profile.continuing_totals`:
    the totals are the table's row at the set of candidates out."""

    __slots__ = ("table", "gone", "totals", "out")

    def __init__(self, table: np.ndarray, gone: int, out: list[bool]) -> None:
        self.table, self.gone, self.out = table, gone, out
        self.totals = table[gone].tolist()

    def copy(self) -> "_Lookups":
        return _Lookups(self.table, self.gone, self.out.copy())

    def exclude(self, x: int) -> None:
        self.out[x] = True
        self.gone |= 1 << x
        self.totals = self.table[self.gone].tolist()


# The most candidates for which SRCV builds a profile's continuing-preference
# table.  Timed against the pile count, table build included, on fresh
# synthetic wards (perfbench.corpus.synthetic_profile) of 270 to 3,400 ballot
# types, m = 8 to 15 (BENCH_24.json, table_bound): up to m = 10 the table is
# at most a tenth slower near the 256-type size switch and about twice as
# fast from 1,000 types up; at m = 11 to 13 it is up to 2.9 times slower
# below 600 types; from m = 14 it is slower at every size timed.
_TABLE_CANDIDATES = 10


def _full_value_count(profile: Profile, build: bool) -> _Piles | _Lookups:
    """A count of ``profile`` with every candidate in, for the rules that
    transfer at full value.

    A profile that already holds its continuing-preference table reads it.
    With ``build``, so does one whose counts run on its array form
    (``core._array_sized``) and that has at most ``_TABLE_CANDIDATES``
    candidates, building the table.  Any other is counted on piles, the
    reference.
    """
    m = profile.m
    if "continuing_totals" in vars(profile) or (
        build and m <= _TABLE_CANDIDATES and _array_sized(profile)
    ):
        return _Lookups(profile.continuing_totals, 0, [False] * m)
    return _Piles(*_first_preferences(m, profile.ballots))


def _runoff(
    profile: Profile, count: _Piles | _Lookups, seats: int, quota: int | None, tie: TiePolicy
) -> tuple[list[int], bool]:
    """Eliminate plurality losers until the continuing candidates fill ``seats``.

    More than ``seats`` candidates must be continuing.  With a ``quota``
    (single-seat counts only), a candidate at or above it wins at once.
    Each elimination but the last takes the loser out of the count; the
    last one ends the count, since the other ``seats`` candidates win
    whatever they hold, so the count is left as it stood before it.
    Returns the winners in index order and whether an elimination tie had
    to be broken.
    """
    tie_used = False
    out = count.out
    while True:
        continuing = [c for c in range(profile.m) if not out[c]]
        totals = count.totals
        if quota is not None:
            leader = max(continuing, key=totals.__getitem__)
            if totals[leader] >= quota:
                return [leader], tie_used
        (loser,), tied = _lowest(profile, continuing, totals, tie)
        tie_used = tie_used or tied
        if len(continuing) == seats + 1:
            continuing.remove(loser)
            return continuing, tie_used
        count.exclude(loser)


def srcv(
    profile: Profile, tie: TiePolicy = TiePolicy.ERROR, out: int | None = None
) -> OutcomeSet:
    """Sequential ranked-choice voting: k single-winner runoffs.

    Each seat goes to the instant-runoff winner of the ballots with the past
    winners out; the quota is the Droop quota of the ballots that still rank
    a continuing candidate.  A one-seat count transfers no surplus, so
    putting the past winners out counts exactly as removing them would.
    Should every remaining ballot rank only past winners, the leftover seats
    are a pure tie among unranked candidates and fall to the tie policy.
    Every count transfers at full value, so a ward-size profile of at most
    ``_TABLE_CANDIDATES`` candidates reads each round's totals off its
    cached table, which it builds (:func:`_full_value_count`).  With
    ``out``, candidate ``out`` is out from the start, which counts as its
    removal would: its pile is handed on, or the count starts at the
    table's row for it, before the first round.
    """
    count = _full_value_count(profile, build=True)  # the past winners out
    if out is not None:
        count.exclude(out)
    seats: list[int] = []
    tie_used = False
    while True:
        live = sum(count.totals)
        if not live:
            what = "all ballots exhausted; remaining seats tie"
            leftovers = [c for c in range(profile.m) if not count.out[c]]
            chosen, _ = _choose(profile, leftovers, profile.k - len(seats), tie, what)
            return OutcomeSet.single(seats + chosen, tie_flag=True)
        # The last seat's runoff may spend the count: nothing reads it after.
        seat_count = count if len(seats) == profile.k - 1 else count.copy()
        (winner,), tied = _runoff(profile, seat_count, 1, droop_quota(live, 1), tie)
        tie_used = tie_used or tied
        seats.append(winner)
        if len(seats) == profile.k:
            return OutcomeSet.single(seats, tie_flag=tie_used)
        count.exclude(winner)


def top_k_irv(
    profile: Profile, tie: TiePolicy = TiePolicy.ALPHABETICAL, out: int | None = None
) -> OutcomeSet:
    """Eliminate plurality losers, transferring at full value, until k remain.

    A profile that holds its continuing-preference table, as SRCV leaves
    one, reads each round's totals off it (:func:`_full_value_count`).
    Top-k IRV does not build the table: it reads only ``m - k`` rows, too
    few to pay for the build, so alone it counts on piles.  With ``out``,
    candidate ``out`` is out from the start, as in :func:`srcv`.
    """
    count = _full_value_count(profile, build=False)
    if out is not None:
        count.exclude(out)
    winners, tie_used = _runoff(profile, count, profile.k, None, tie)
    return OutcomeSet.single(winners, tie_flag=tie_used)


# ---------------------------------------------------------------------------
# Score-based rules


def _cut(scores: dict[int, int], k: int) -> tuple[list[int], list[int]]:
    """The candidates above the k-th best score and those at it, in ``scores`` order."""
    threshold = sorted(scores.values(), reverse=True)[k - 1]
    certain = [c for c, score in scores.items() if score > threshold]
    tied = [c for c, score in scores.items() if score == threshold]
    return certain, tied


def _top_k_outcome(
    profile: Profile, scores: tuple[int, ...], tie: TiePolicy, out: int | None = None
) -> OutcomeSet:
    """Committees formed by the k best scores of the candidates other than ``out``.

    A tie crossing the k-th place either raises (``error``), yields every
    completion of the certain winners from the tied group (``alphabetical``,
    because such an election genuinely has several winning sets), or is
    resolved to the single lowest-index completion (``lowest_index``, the
    fully resolute mode that large simulation campaigns need so that tied
    trials neither drop out nor multiply).  Listing more completions than
    the search budget raises :class:`SearchBudgetError`.
    """
    scored = dict(enumerate(scores))
    if out is not None:
        del scored[out]
    certain, tied = _cut(scored, profile.k)
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


def sntv(
    profile: Profile, tie: TiePolicy = TiePolicy.ERROR, out: int | None = None
) -> OutcomeSet:
    """Single non-transferable vote: top k by first-place votes."""
    return _top_k_outcome(profile, first_place_counts(profile, out), tie, out)


def bloc(
    profile: Profile, tie: TiePolicy = TiePolicy.ERROR, out: int | None = None
) -> OutcomeSet:
    """Bloc voting: top k by k-approval score (top-k mentions)."""
    return _top_k_outcome(profile, top_k_counts(profile, profile.k, out), tie, out)


def k_borda(
    profile: Profile,
    model: UnrankedModel,
    tie: TiePolicy = TiePolicy.ERROR,
    out: int | None = None,
) -> OutcomeSet:
    """Top k by total Borda score under the given unranked-candidate model."""
    return _top_k_outcome(profile, borda_scores(profile, model, out), tie, out)


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


def _cc_input(
    profile: Profile, model: UnrankedModel, out: int | None
) -> tuple[np.ndarray, np.ndarray, Sequence[int]]:
    """What the satisfaction rules read: the point matrix under ``model``,
    the weights, and the candidate of each column.

    With ``out``, those of the election with candidate ``out`` removed,
    taken from this profile's arrays: ``out``'s column goes, the candidates
    that came after it on a ballot, or were left off it, move up one rank,
    and the ballots that ranked ``out`` alone weigh nothing.  Satisfaction
    sums over the ballots, so equal ballots need no merging.
    """
    positions, weights = profile.arrays
    if out is None:
        m = profile.m
        return _points(positions, m, model), weights, range(m)
    m = profile.m - 1
    candidates = [c for c in range(profile.m) if c != out]
    by_candidate = positions.T[candidates]
    by_candidate -= by_candidate >= positions.T[out]
    positions = by_candidate.T  # column-major, as the profile's own
    weights = np.where((positions == m).all(axis=1), 0, weights)
    return _points(positions, m, model), weights, candidates


def _committees(
    sets: list[int], candidates: Sequence[int], tie_flag: bool
) -> OutcomeSet:
    """The outcome whose committees are the bitmasks ``sets`` over the columns ``candidates``."""
    members = list(enumerate(candidates))
    committees = frozenset(frozenset(c for j, c in members if s >> j & 1) for s in sets)
    return OutcomeSet(committees=committees, tie_flag=tie_flag)


def chamberlin_courant(
    profile: Profile, model: UnrankedModel, out: int | None = None
) -> OutcomeSet:
    """Exact Chamberlin-Courant: every committee of greatest total satisfaction.

    Every maximizing committee is returned, so an exact tie shows up as a
    multi-committee outcome.  Refuses profiles where C(m, k) exceeds the
    budget (the winner determination problem is NP-hard in general; fall
    back to :func:`greedy_cc`).  Two engines find the same committees: the
    subset-sum table (:func:`_cc_table`) when its ``2**m`` entries fit the
    budget, which bounds its time and memory whatever k and the number of
    ballot types; the committee scan (:func:`_cc_scan`) otherwise, so any
    ``m`` whose C(m, k) fits the budget is still served.  With ``out``, the
    election with candidate ``out`` removed, from this profile's arrays
    (:func:`_cc_input`); its ``m - 1`` candidates set the budget and pick
    the engine, as they would on the removal.
    """
    m, k = profile.m - (out is not None), profile.k
    if comb(m, k) > _SEARCH_BUDGET:
        raise SearchBudgetError(
            f"C({m}, {k}) = {comb(m, k)} committees exceeds budget {_SEARCH_BUDGET}; "
            "use greedy_cc"
        )
    if 2**m <= _SEARCH_BUDGET:
        return _cc_table(profile, model, out)
    return _cc_scan(profile, model, out)


def _cc_table(profile: Profile, model: UnrankedModel, out: int | None = None) -> OutcomeSet:
    """Exact Chamberlin-Courant from one table of ``2**m`` subset sums.

    A voter's satisfaction with a committee, its best member's points, is
    the number of thresholds ``t = 1..m-1`` that some member's points reach.
    Candidate sets are bitmasks.  The table first holds, at each set, the
    weight of the (ballot type, threshold) pairs whose candidates with at
    least ``t`` points (:func:`_cc_input`, so under ``model``) form that
    set; one subset-sum (zeta) transform, as in Björklund, Husfeldt, Kaski
    and Koivisto, "Fourier meets Möbius: fast subset convolution" (STOC
    2007), turns that into the weight of the pairs whose set lies inside it.
    A committee reaches every threshold except those pairs inside its
    complement, so it scores ``W * (m - 1)`` less the entry at its
    complement, ``W`` being the total weight, and the best committees are
    those whose complement's entry is least.  Every entry is at most
    ``W * (m - 1)``, which the int64 check of :attr:`Profile.arrays` bounds.
    """
    points, weights, candidates = _cc_input(profile, model, out)
    types, m = points.shape
    k = profile.k
    flat = points.T  # a fresh array, one row per candidate
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
    return _committees(best, candidates, len(best) > 1)


def _cc_scan(profile: Profile, model: UnrankedModel, out: int | None = None) -> OutcomeSet:
    """Exact Chamberlin-Courant by scanning every committee over every ballot type.

    Scans all C(m, k) committees in lexicographic order, streaming the
    maximum, with no table of ``2**m`` entries, so it serves any ``m``
    whose C(m, k) fits the budget.
    """
    points, weights, candidates = _cc_input(profile, model, out)
    m, k = points.shape[1], profile.k
    by_candidate = points.T
    best_value = -1
    best: list[int] = []
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
        prefix_set = sum(1 << j for j in prefix)
        last = np.flatnonzero(values == top) + start
        best.extend(prefix_set | 1 << j for j in last.tolist())
    return _committees(best, candidates, len(best) > 1)


def greedy_cc(
    profile: Profile,
    model: UnrankedModel,
    tie: TiePolicy = TiePolicy.ERROR,
    out: int | None = None,
) -> OutcomeSet:
    """Greedy Chamberlin-Courant approximation.

    Seeds with the Borda winner, then repeatedly adds the candidate whose
    inclusion raises total satisfaction the most.  This is the marginal-gain
    greedy of Lu & Boutilier, "Budgeted Social Choice: From Consensus to
    Personalized Decision Making" (IJCAI 2011); satisfaction is monotone and
    submodular in the committee, so it reaches at least (1 - 1/e) of the
    optimum.  The Borda winner is the greedy first pick, since a singleton
    committee's satisfaction is its member's Borda score.  With ``out``, the
    election with candidate ``out`` removed (:func:`_cc_input`).
    """
    points, weights, candidates = _cc_input(profile, model, out)
    by_candidate = points.T
    column = {c: j for j, c in enumerate(candidates)}.__getitem__

    def pick(scores: np.ndarray, what: str) -> tuple[int, bool]:
        tied = [candidates[j] for j in np.flatnonzero(scores == scores.max()).tolist()]
        (chosen,), broken = _choose(profile, tied, 1, tie, what)
        return chosen, broken

    seed, tie_used = pick(by_candidate @ weights, "tie for greedy seed")  # the Borda scores
    committee = [seed]
    best = by_candidate[column(seed)].copy()  # each ballot type's best member's points
    for _ in range(profile.k - 1):
        gains = np.maximum(by_candidate - best, 0) @ weights
        gains[list(map(column, committee))] = -1  # members gain nothing; keep them out of the max
        chosen, broken = pick(gains, "tie for greedy committee extension")
        tie_used = tie_used or broken
        committee.append(chosen)
        np.maximum(best, by_candidate[column(chosen)], out=best)
    return OutcomeSet.single(committee, tie_flag=tie_used)


# ---------------------------------------------------------------------------
# Minimax Condorcet committee


def _condorcet_committees(
    margins: tuple[tuple[int, ...], ...], candidates: Sequence[int]
) -> list[frozenset[int]]:
    """The Condorcet committees among ``candidates``: each candidate's closure
    under ``need``, in candidate order.

    ``need[a]`` holds the candidates ``a`` fails to beat; a set is a
    Condorcet committee exactly when it is closed under ``need``.  Of any two
    candidates one is in the other's ``need``, so the closed sets form a
    chain, and each is the largest closure of its members.  The full
    candidate set is the largest closure.
    """
    need = {a: [b for b in candidates if b != a and margins[a][b] <= 0] for a in candidates}
    closures = []
    for a in candidates:
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
    committees = _condorcet_committees(pairwise_matrix(profile), range(profile.m))
    return next((c for c in committees if len(c) == size), None)


def mcc(
    profile: Profile, tie: TiePolicy = TiePolicy.ERROR, out: int | None = None
) -> OutcomeSet:
    """Minimax Condorcet committee rule.

    Finds the smallest Condorcet committee of size at least k (the full
    candidate set always qualifies), then, if it is oversized, drops the
    members with the lowest minimum pairwise margin against the rest of the
    committee until k remain.  The Condorcet committees are the closures of
    single candidates under "every candidate a member fails to beat is a
    member", so the search takes polynomial time in m.  With ``out``, the
    election with candidate ``out`` removed: a removal changes no other
    pair's margin, so the search runs on this profile's margins without
    ``out``'s row and column.
    """
    margins = pairwise_matrix(profile)
    candidates = [c for c in range(profile.m) if c != out]
    k = profile.k
    committees = _condorcet_committees(margins, candidates)
    committee = min((c for c in committees if len(c) >= k), key=len)
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
    """A registered rule: ``run(profile, tie, out)`` counts ``profile``, or,
    with a candidate index ``out``, the election with that candidate removed
    (see :func:`run_method`)."""

    id: str
    label: str
    run: Callable[[Profile, TiePolicy, int | None], OutcomeSet]


def _stv_outcome(profile: Profile, tie: TiePolicy, out: int | None) -> OutcomeSet:
    if out is not None:
        raise ValueError("stv counts whole profiles only; remove the candidate first")
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
            lambda p, tie, out: k_borda(p, UnrankedModel.OPTIMISTIC, tie, out),
        ),
        Method(
            "borda_pm",
            "Borda (PM)",
            lambda p, tie, out: k_borda(p, UnrankedModel.PESSIMISTIC, tie, out),
        ),
        Method(
            "cc_om",
            "Cham-Cour (OM)",
            lambda p, tie, out: chamberlin_courant(p, UnrankedModel.OPTIMISTIC, out),
        ),
        Method(
            "cc_pm",
            "Cham-Cour (PM)",
            lambda p, tie, out: chamberlin_courant(p, UnrankedModel.PESSIMISTIC, out),
        ),
        Method(
            "greedy_om",
            "Greedy-CC (OM)",
            lambda p, tie, out: greedy_cc(p, UnrankedModel.OPTIMISTIC, tie, out),
        ),
        Method(
            "greedy_pm",
            "Greedy-CC (PM)",
            lambda p, tie, out: greedy_cc(p, UnrankedModel.PESSIMISTIC, tie, out),
        ),
        Method("mcc", "MCC", mcc),
        Method("topk_irv", "Top-k IRV", top_k_irv),
    )
}


# The tie policies' values, which their members also hash and compare as.
_TIE_VALUES = frozenset(policy.value for policy in TiePolicy)


def run_method(
    method_id: str, profile: Profile, tie: TiePolicy, out: int | None = None
) -> OutcomeSet:
    """Run a registered rule.  ``tie`` is checked on every call, so a value
    that is no policy fails even where the rule meets no tie.

    With ``out``, the rule counts the election with candidate ``out``
    removed, and its committees are in ``profile``'s own indices: it equals
    ``remove_candidate(profile, out)`` followed by a run, with each
    committee mapped back to ``profile``'s indices, and raises the same
    :class:`~mwspoilers.core.ProfileError` where that removal would.
    Exclusion keeps every other candidate's index order and name, so every
    tie policy picks as it would on the removal, and its texts name the same
    candidates.  SRCV and top-k IRV start with ``out`` out; the scoring
    rules, MCC and the Chamberlin-Courant rules take the removal's counts
    from the cached tally, pairwise counts and array form (see
    :func:`~mwspoilers.core.top_k_counts`,
    :func:`~mwspoilers.core.borda_scores` and :func:`_cc_input`), so all
    but SRCV and top-k IRV need ``n * m`` within int64.  STV counts whole
    profiles only and raises ``ValueError`` with ``out``.
    """
    if tie not in _TIE_VALUES:
        TiePolicy(tie)  # raises the enum's own ValueError, which names the value
    try:
        method = METHODS[method_id]
    except KeyError:
        raise KeyError(
            f"unknown method {method_id!r}; known: {', '.join(sorted(METHODS))}"
        ) from None
    if out is not None:
        _check_out(profile, out)
    return method.run(profile, tie, out)
