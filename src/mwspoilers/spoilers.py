"""Candidate-removal spoiler analysis.

A non-winning candidate is a spoiler when deleting them from the ballots
changes the set of winning committees.  :func:`analyze_spoilers` runs a rule
once on the full election and once per non-winner on the reduced election,
recording a verdict for each.  Ties never raise from here: a tie in the base
run or a re-run is recorded on the report, and callers decide whether such
elections are dropped from aggregate statistics (the convention for
simulation campaigns) or merely flagged.

Alternate outcomes are expressed in the original election's candidate
indices, so committees before and after a removal compare directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import compress
from typing import Iterable

from .core import (
    OutcomeSet,
    Profile,
    _ranking,
    _weight,
    first_place_counts,
    remove_candidate,
    top_k_counts,
)
from .methods import TieError, TiePolicy, run_method


@dataclass(frozen=True)
class WeaknessFlags:
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


@dataclass(frozen=True)
class SpoilerVerdict:
    """Outcome of removing one non-winning candidate.

    ``alternate`` is None when the re-run hit an unbreakable tie; such
    verdicts carry no spoiler information and are flagged instead.
    """

    candidate: int
    is_spoiler: bool
    alternate: OutcomeSet | None
    tie_encountered: bool


@dataclass(frozen=True)
class SpoilerReport:
    method: str
    outcome: OutcomeSet | None  # None when the base run itself tied unbreakably
    base_tie: bool
    verdicts: tuple[SpoilerVerdict, ...]

    @cached_property
    def spoilers(self) -> tuple[int, ...]:
        return tuple(v.candidate for v in self.verdicts if v.is_spoiler)

    @cached_property
    def has_tie(self) -> bool:
        """True when the base run or any re-run involved a tie."""
        return self.base_tie or any(v.tie_encountered for v in self.verdicts)

    @cached_property
    def alternate_committees(self) -> frozenset[frozenset[int]]:
        """Distinct winning committees reachable by removing some spoiler."""
        out: set[frozenset[int]] = set()
        for v in self.verdicts:
            if v.is_spoiler and v.alternate is not None:
                out.update(v.alternate.committees)
        return frozenset(out)

    @cached_property
    def max_changed_candidates(self) -> int:
        """Most seats any single spoiler's removal turns over.

        Distance between an alternate committee and the nearest original
        committee, maximized over all alternates; 0 when there are no
        spoilers.
        """
        if self.outcome is None:
            return 0
        worst = 0
        for alt in self.alternate_committees:
            nearest = min(
                len(alt ^ base) // 2 for base in self.outcome.committees
            )
            worst = max(worst, nearest)
        return worst


def _to_original_ids(outcome: OutcomeSet, removed: int) -> OutcomeSet:
    """Re-express committees of a reduced profile in the parent's indices."""
    committees = frozenset(
        frozenset(c if c < removed else c + 1 for c in committee)
        for committee in outcome.committees
    )
    return OutcomeSet(committees=committees, tie_flag=outcome.tie_flag)


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
        return SpoilerReport(method=method_id, outcome=None, base_tie=True, verdicts=())

    winners = outcome.winners
    verdicts: list[SpoilerVerdict] = []
    for c in range(profile.m):
        if c in winners:
            continue
        if profile.m == profile.k + 1:
            rest = frozenset(range(profile.m)) - {c}
            verdicts.append(
                SpoilerVerdict(
                    candidate=c,
                    is_spoiler=False,
                    alternate=OutcomeSet.single(rest),
                    tie_encountered=False,
                )
            )
            continue
        reduced = removals.get(c)
        if reduced is None:
            reduced = removals[c] = remove_candidate(profile, c)
        try:
            alternate = _to_original_ids(run_method(method_id, reduced, tie), c)
        except TieError:
            verdicts.append(
                SpoilerVerdict(
                    candidate=c, is_spoiler=False, alternate=None, tie_encountered=True
                )
            )
            continue
        verdicts.append(
            SpoilerVerdict(
                candidate=c,
                is_spoiler=alternate.committees != outcome.committees,
                alternate=alternate,
                tie_encountered=alternate.tie_flag,
            )
        )
    return SpoilerReport(
        method=method_id,
        outcome=outcome,
        base_tie=outcome.tie_flag,
        verdicts=tuple(verdicts),
    )


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

    ``closer_to_retained`` counts triples with B_AS > B_WS (the spoiler
    propped up the retained winner); ``closer_to_would_be`` counts
    B_AS < B_WS (classic vote-splitting).  Exact equalities land in neither
    bucket.  Triples whose committees changed by more than one seat, or whose
    outcomes were tied, are skipped.
    """

    closer_to_retained: int
    closer_to_would_be: int
    equal_similarity: int
    skipped: int
    triples: tuple[CloneTriple, ...]

    @property
    def ratio(self) -> float | None:
        """closer_to_would_be / closer_to_retained, or None when undefined."""
        if self.closer_to_retained == 0:
            return None
        return self.closer_to_would_be / self.closer_to_retained

    def __add__(self, other: "CloneStats") -> "CloneStats":
        """Both aggregates as one: counters summed, triples concatenated."""
        values = {f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        return CloneStats(**values)


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
    greater = less = equal = skipped = 0
    triples: list[CloneTriple] = []
    for report, profile in pairs:
        if report.outcome is None or len(report.outcome.committees) != 1:
            skipped += sum(1 for v in report.verdicts if v.is_spoiler)
            continue
        base = report.outcome.sole_committee()
        for verdict in report.verdicts:
            if not verdict.is_spoiler:
                continue
            if verdict.alternate is None or len(verdict.alternate.committees) != 1:
                skipped += 1
                continue
            alt = verdict.alternate.sole_committee()
            if len(base ^ alt) != 2:
                skipped += 1
                continue
            retained = next(iter(base - alt))
            would_be = next(iter(alt - base))
            b_as = adjacent_pair_weight(profile, retained, verdict.candidate)
            b_ws = adjacent_pair_weight(profile, would_be, verdict.candidate)
            triples.append(
                CloneTriple(retained, would_be, verdict.candidate, b_as, b_ws)
            )
            if b_as > b_ws:
                greater += 1
            elif b_as < b_ws:
                less += 1
            else:
                equal += 1
    return CloneStats(
        closer_to_retained=greater,
        closer_to_would_be=less,
        equal_similarity=equal,
        skipped=skipped,
        triples=tuple(triples),
    )
