"""Candidate-removal spoiler analysis.

A non-winning candidate is a spoiler when deleting them from the ballots
changes the set of winning committees.  :func:`analyze_spoilers` runs a rule
once on the full election and once per non-winner on the election with that
candidate deleted, recording a verdict for each.  Ties never raise from
here: a tie in the base run or a re-run is recorded on the report, and
callers decide whether such elections are dropped from aggregate statistics
(the convention for simulation campaigns) or merely flagged.

A re-run either excludes or removes (see :func:`analyze_spoilers` for
why).  On a ward-size profile every rule but STV counts the full profile
with the candidate out, from the counts it already holds; STV, and every
rule on a campaign-size profile, re-run on the reduced profile of
:func:`~mwspoilers.core.remove_candidate`.

Alternate outcomes are expressed in the original election's candidate
indices, so committees before and after a removal compare directly.  An
exclusion counts in those indices from the start.  A removal's outcome is
re-indexed: each reduced index maps through a cached tuple per removed
candidate, and the outcome is made without
:class:`~mwspoilers.core.OutcomeSet`'s check, which a one-to-one mapping of
a valid outcome cannot break.

The records an audit returns, :class:`WeaknessFlags`, :class:`SpoilerVerdict`
and :class:`SpoilerReport`, are ``NamedTuple``s that store what the audit
observed; everything else about them is a derived property.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, NamedTuple

from .core import (
    _MAX_CANDIDATES,
    OutcomeSet,
    Profile,
    _array_sized,
    _new_outcome,
    _ranking,
    _weight,
    first_place_counts,
    remove_candidate,
    top_k_counts,
)
from .methods import TieError, TiePolicy, run_method


class WeaknessFlags(NamedTuple):
    """The weakest candidates by two measures; sets because of exact ties."""

    plurality_losers: frozenset[int]
    top_k_losers: frozenset[int]


def _argmin_set(scores: tuple[int, ...]) -> frozenset[int]:
    bottom = min(scores)
    return frozenset(c for c, v in enumerate(scores) if v == bottom)


def weakness_flags(profile: Profile) -> WeaknessFlags:
    """Candidates with the fewest first-place votes / fewest top-k mentions."""
    return WeaknessFlags(
        plurality_losers=_argmin_set(first_place_counts(profile)),
        top_k_losers=_argmin_set(top_k_counts(profile, profile.k)),
    )


class SpoilerVerdict(NamedTuple):
    """Outcome of removing one non-winning candidate.

    ``alternate`` is None when the re-run hit an unbreakable tie; such
    verdicts carry no spoiler information and are flagged instead.
    """

    candidate: int
    is_spoiler: bool
    alternate: OutcomeSet | None

    @property
    def tie_encountered(self) -> bool:
        """True when the re-run tied, whether or not the policy broke the tie."""
        return self.alternate is None or self.alternate.tie_flag


class SpoilerReport(NamedTuple):
    """One rule's spoiler audit of one profile.

    Stores what the audit observed: the rule's ``method`` id, the base run's
    ``outcome`` (None when it tied unbreakably, and then no ``verdicts``)
    and one verdict per non-winner.  Every other attribute is derived from
    these three.
    """

    method: str
    outcome: OutcomeSet | None
    verdicts: tuple[SpoilerVerdict, ...]

    @property
    def base_tie(self) -> bool:
        """True when the base run tied, whether or not the policy broke the tie."""
        return self.outcome is None or self.outcome.tie_flag

    @property
    def spoilers(self) -> tuple[int, ...]:
        return tuple(v.candidate for v in self.verdicts if v.is_spoiler)

    @property
    def has_tie(self) -> bool:
        """True when the base run or any re-run involved a tie."""
        return self.base_tie or any(v.tie_encountered for v in self.verdicts)

    @property
    def alternate_committees(self) -> frozenset[frozenset[int]]:
        """Distinct winning committees reachable by removing some spoiler."""
        out: set[frozenset[int]] = set()
        for v in self.verdicts:
            if v.is_spoiler:
                out.update(v.alternate.committees)
        return frozenset(out)

    @property
    def max_changed_candidates(self) -> int:
        """Most seats any single spoiler's removal turns over.

        Distance between an alternate committee and the nearest original
        committee, maximized over all alternates; 0 when there are no
        spoilers.
        """
        return max(
            (
                min(len(alt ^ base) // 2 for base in self.outcome.committees)
                for alt in self.alternate_committees
            ),
            default=0,
        )


@lru_cache(maxsize=None)
def _parent_ids(removed: int) -> tuple[int, ...]:
    """The parent's index of each candidate of a profile with ``removed`` taken out."""
    return (*range(removed), *range(removed + 1, _MAX_CANDIDATES))


def _to_original_ids(outcome: OutcomeSet, removed: int) -> OutcomeSet:
    """Re-express committees of a reduced profile in the parent's indices.

    The mapping is one-to-one, so the committees stay distinct and of one
    size, and the outcome is built without the constructor's check.
    """
    parent = _parent_ids(removed).__getitem__
    committees = frozenset([frozenset(map(parent, committee)) for committee in outcome.committees])
    return _new_outcome((committees, outcome.tie_flag))


def analyze_spoilers(
    profile: Profile,
    method_id: str,
    tie: TiePolicy = TiePolicy.ERROR,
    removals: dict[int, Profile] | None = None,
) -> SpoilerReport:
    """Run a rule, then re-run it with each non-winner removed.

    Requires ``m > k``.  When ``m == k + 1`` the lone non-winner cannot be a
    spoiler (the remaining candidates form the only possible committee), so
    the verdict is computed without a re-run.

    A re-run counts the election with the non-winner removed in one of two
    ways, which give equal verdicts:

    - On a profile whose counts run on its array form
      (``core._array_sized``: a ward's, not a campaign sample's), every rule
      but STV counts ``profile`` itself with the candidate out
      (``run_method(..., out=c)``), from the tally, pairwise counts, array
      form and continuing-preference table it already holds, and in its own
      indices.  A reduced profile would build all of those again.
    - STV, and every rule on a smaller profile, re-runs on
      ``remove_candidate(profile, c)``, whose committees are mapped back to
      ``profile``'s indices.  STV counts whole profiles only and reads only
      the reduced profile's ballots, so on a ward that profile builds no
      count.  On a small profile the scoring rules share the reduced
      profile's one Python tally, which is cheaper there than the array
      form an exclusion reads; and a campaign that runs Bloc alone, such as
      the spatial Bloc benchmark, keeps its removals, which its traced
      passes count.

    ``removals`` maps a candidate to ``profile`` with that candidate removed.
    Missing entries are filled in, so audits of several rules on the same
    profile that pass the same dict remove each candidate only once.  The
    dict must only ever be used with this one profile.
    """
    if removals is None:
        removals = {}
    try:
        outcome = run_method(method_id, profile, tie)
    except TieError:
        return SpoilerReport(method=method_id, outcome=None, verdicts=())

    exclude = method_id != "stv" and _array_sized(profile)
    winners = outcome.winners
    verdicts: list[SpoilerVerdict] = []
    for c in range(profile.m):
        if c in winners:
            continue
        if profile.m == profile.k + 1:
            alternate = OutcomeSet.single(frozenset(range(profile.m)) - {c})
        else:
            try:
                if exclude:
                    alternate = run_method(method_id, profile, tie, out=c)
                else:
                    reduced = removals.get(c)
                    if reduced is None:
                        reduced = removals[c] = remove_candidate(profile, c)
                    alternate = _to_original_ids(run_method(method_id, reduced, tie), c)
            except TieError:
                alternate = None
        is_spoiler = alternate is not None and alternate.committees != outcome.committees
        verdicts.append(SpoilerVerdict(c, is_spoiler, alternate))
    return SpoilerReport(method=method_id, outcome=outcome, verdicts=tuple(verdicts))


@dataclass(frozen=True)
class StabilitySummary:
    num_spoilers: int
    num_alternate_sets: int
    max_changed_candidates: int


def stability_summary(report: SpoilerReport) -> StabilitySummary:
    """How much the winning set can move: spoilers, reachable sets, max turnover."""
    return StabilitySummary(
        num_spoilers=len(report.spoilers),
        num_alternate_sets=len(report.alternate_committees),
        max_changed_candidates=report.max_changed_candidates,
    )


# ---------------------------------------------------------------------------
# Clone similarity


@dataclass(frozen=True)
class CloneTriple:
    """A one-seat swap caused by a spoiler.

    ``retained`` (A) held a seat only while ``spoiler`` (S) was on the
    ballots; ``would_be`` (W) takes that seat once S is removed.  ``b_as``
    and ``b_ws`` count ballot weight on which the respective pair appears
    ranked consecutively.
    """

    retained: int
    would_be: int
    spoiler: int
    b_as: int
    b_ws: int


@dataclass(frozen=True)
class CloneStats:
    """Similarity direction of spoilers, aggregated over triples.

    Stores the ``triples`` of the clean one-seat swaps and the number of
    spoilers ``skipped`` because their committees changed by more than one
    seat or were tied; the counters and the ratio are derived from the
    triples.  ``closer_to_retained`` counts triples with B_AS > B_WS (the
    spoiler propped up the retained winner); ``closer_to_would_be`` counts
    B_AS < B_WS (classic vote-splitting); ``equal_similarity`` counts the
    exact equalities, which land in neither bucket.
    """

    skipped: int
    triples: tuple[CloneTriple, ...]

    @property
    def closer_to_retained(self) -> int:
        return sum(t.b_as > t.b_ws for t in self.triples)

    @property
    def closer_to_would_be(self) -> int:
        return sum(t.b_as < t.b_ws for t in self.triples)

    @property
    def equal_similarity(self) -> int:
        return sum(t.b_as == t.b_ws for t in self.triples)

    @property
    def ratio(self) -> float | None:
        """closer_to_would_be / closer_to_retained, or None when undefined."""
        retained = self.closer_to_retained
        if retained == 0:
            return None
        return self.closer_to_would_be / retained

    def __add__(self, other: "CloneStats") -> "CloneStats":
        """Both aggregates as one: skips summed, triples concatenated."""
        return CloneStats(self.skipped + other.skipped, self.triples + other.triples)


def adjacent_pair_weight(profile: Profile, x: int, y: int) -> int:
    """Weight of ballots ranking both x and y in consecutive positions.

    A ranking lists each candidate once, so x and y are adjacent on it
    exactly when it holds the two bytes ``xy`` or ``yx``.
    """
    pair = re.compile(re.escape(bytes((x, y))) + b"|" + re.escape(bytes((y, x))))
    adjacent = map(pair.search, map(_ranking, profile.ballots))
    return sum(compress(map(_weight, profile.ballots), adjacent))


def clone_statistics(pairs: Iterable[tuple[SpoilerReport, Profile]]) -> CloneStats:
    """Aggregate clone-similarity direction over many spoiler reports.

    Takes ``(report, profile)`` pairs, each report with the profile it was
    computed from.  Only clean one-seat swaps contribute: a unique original
    committee, a unique alternate committee, and a symmetric difference of
    exactly one seat.
    """
    skipped = 0
    triples: list[CloneTriple] = []
    for report, profile in pairs:
        for verdict in report.verdicts:
            if not verdict.is_spoiler:
                continue
            base, alt = report.outcome.committees, verdict.alternate.committees
            if len(base) != 1 or len(alt) != 1:
                skipped += 1
                continue
            (base,), (alt,) = base, alt
            if len(base ^ alt) != 2:
                skipped += 1
                continue
            (retained,), (would_be,) = base - alt, alt - base
            spoiler = verdict.candidate
            b_as = adjacent_pair_weight(profile, retained, spoiler)
            b_ws = adjacent_pair_weight(profile, would_be, spoiler)
            triples.append(CloneTriple(retained, would_be, spoiler, b_as, b_ws))
    return CloneStats(skipped, tuple(triples))
