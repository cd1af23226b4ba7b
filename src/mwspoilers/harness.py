"""Experiment orchestration: Monte Carlo campaigns and corpus audits.

Both entry points aggregate per-election spoiler reports into the same
per-method counters: how often any spoiler appeared, multiple spoilers,
and spoilers who were plurality or top-k losers.  Corpus audits add winning-
set stability and clone-similarity aggregates plus a per-election detail
table.

Under the ``error`` tie policy, elections whose base run or any re-run hit
an exact tie are thrown out of the aggregates (and counted); under a
deterministic policy they are kept and merely counted as tie-flagged.  Every
estimated fraction carries a 95% Wilson interval.

Trials are deterministic functions of (culture spec, trial index), and the
aggregation is a sum of counters, so splitting trials across worker
processes cannot change any result.

An audit that raises one of :data:`AUDIT_ERRORS` (a removal that leaves no
ballots, a committee search over budget) is counted as an error for its
method; any other exception is a bug and propagates.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

from .core import Profile, ProfileError
from .cultures import CultureSpec, sample_profile
from .methods import METHODS, SearchBudgetError, TiePolicy
from .spoilers import (
    CloneStats,
    SpoilerReport,
    analyze_spoilers,
    clone_statistics,
    stability_summary,
    weakness_flags,
)


AUDIT_ERRORS = (ProfileError, SearchBudgetError)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) score interval for a binomial fraction."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class MethodTally:
    """Order-independent per-method counters; merging is field-wise addition."""

    requested: int = 0
    used: int = 0
    ties_discarded: int = 0
    ties_flagged: int = 0
    errors: int = 0
    spoiler: int = 0
    multiple: int = 0
    plurality_loser: int = 0
    topk_loser: int = 0

    def merge(self, other: "MethodTally") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass(frozen=True)
class MethodResult:
    """Final per-method statistics with Wilson intervals."""

    method: str
    label: str
    tally: MethodTally

    @property
    def trials_used(self) -> int:
        return self.tally.used

    def _fraction(self, successes: int) -> float:
        return successes / self.tally.used if self.tally.used else 0.0

    @property
    def p_spoiler(self) -> float:
        return self._fraction(self.tally.spoiler)

    @property
    def p_multiple(self) -> float:
        return self._fraction(self.tally.multiple)

    @property
    def p_plurality_loser(self) -> float:
        return self._fraction(self.tally.plurality_loser)

    @property
    def p_topk_loser(self) -> float:
        return self._fraction(self.tally.topk_loser)

    def interval(self, which: str) -> tuple[float, float]:
        return wilson_interval(getattr(self.tally, which), self.tally.used)


def _tally_report(tally: MethodTally, report: SpoilerReport, weak, tie: TiePolicy) -> bool:
    """Fold one report into the counters; returns True when it was used."""
    tally.requested += 1
    if report.has_tie:
        if tie is TiePolicy.ERROR:
            tally.ties_discarded += 1
            return False
        tally.ties_flagged += 1
    tally.used += 1
    spoilers = frozenset(report.spoilers)
    if spoilers:
        tally.spoiler += 1
        if len(spoilers) >= 2:
            tally.multiple += 1
        if spoilers & weak.plurality_losers:
            tally.plurality_loser += 1
        if spoilers & weak.top_k_losers:
            tally.topk_loser += 1
    return True


def _simulate_block(args: tuple) -> dict[str, MethodTally]:
    spec, method_ids, tie, start, stop = args
    tallies = {mid: MethodTally() for mid in method_ids}
    for trial in range(start, stop):
        profile = sample_profile(spec, trial)
        weak = weakness_flags(profile)
        removals: dict[int, Profile] = {}
        for mid in method_ids:
            tally = tallies[mid]
            try:
                report = analyze_spoilers(profile, mid, tie, removals)
            except AUDIT_ERRORS:
                tally.requested += 1
                tally.errors += 1
                continue
            _tally_report(tally, report, weak, tie)
    return tallies


@dataclass(frozen=True)
class SimulationResult:
    spec: CultureSpec
    trials: int
    tie: TiePolicy
    methods: dict[str, MethodResult]


def run_simulation(
    spec: CultureSpec,
    method_ids: Sequence[str],
    trials: int,
    tie: TiePolicy = TiePolicy.ERROR,
    workers: int = 1,
) -> SimulationResult:
    """Monte Carlo campaign: sample a profile per trial, audit every method.

    A trial counts toward the spoiler fraction when at least one spoiler is
    found, toward the multiple fraction at two or more, and toward a weak-
    spoiler fraction when some spoiler belongs to the respective argmin set.
    Under the ``error`` policy, trials with ties are discarded per method and
    reported; audit errors (:data:`AUDIT_ERRORS`) are counted, never fatal.
    """
    for mid in method_ids:
        if mid not in METHODS:
            raise KeyError(f"unknown method {mid!r}")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if workers <= 1 or trials == 0:
        tallies = _simulate_block((spec, tuple(method_ids), tie, 0, trials))
    else:
        chunk = max(1, -(-trials // (workers * 8)))
        blocks = [
            (spec, tuple(method_ids), tie, start, min(start + chunk, trials))
            for start in range(0, trials, chunk)
        ]
        tallies = {mid: MethodTally() for mid in method_ids}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_simulate_block, blocks):
                for mid, tally in result.items():
                    tallies[mid].merge(tally)
    methods = {
        mid: MethodResult(mid, METHODS[mid].label, tallies[mid]) for mid in method_ids
    }
    return SimulationResult(spec=spec, trials=trials, tie=tie, methods=methods)


@dataclass
class StabilityAggregate:
    """Winning-set stability counters over a corpus, per method."""

    spoiler_elections: int = 0
    multi_spoiler_elections: int = 0
    max_spoilers: int = 0
    multi_alt_set_elections: int = 0  # among multi-spoiler elections
    greatest_alt_sets: int = 0


# Detail-table statistics after the election's identity columns; a failed
# audit's row leaves them empty.
_DETAIL_STATS = ("tie", "num_spoilers", "spoilers", "num_alt_sets", "max_changed")


@dataclass(frozen=True)
class CorpusResult:
    tie: TiePolicy
    k_override: int | None
    elections_used: int
    elections_skipped: int
    methods: dict[str, MethodResult]
    stability: dict[str, StabilityAggregate]
    clones: dict[str, CloneStats]
    details: list[dict] = field(default_factory=list)
    # (election, method, "ErrorType: message") for each audit that raised
    failures: list[tuple[str, str, str]] = field(default_factory=list)


def run_corpus_audit(
    elections: Iterable[tuple[str, Profile]],
    method_ids: Sequence[str],
    k_override: int | None = None,
    tie: TiePolicy = TiePolicy.ALPHABETICAL,
) -> CorpusResult:
    """Audit a corpus of real elections for spoilers, method by method.

    Elections are kept when ``m > k + 1`` and ``k > 1`` (a seat override, if
    given, is applied before the filter).  Besides the simulation-style
    fractions this collects stability summaries, clone-similarity statistics,
    and one detail row per election and method.  A failed audit gets a detail
    row with empty statistics and an entry in ``failures``.
    """
    for mid in method_ids:
        if mid not in METHODS:
            raise KeyError(f"unknown method {mid!r}")
    tallies = {mid: MethodTally() for mid in method_ids}
    stability = {mid: StabilityAggregate() for mid in method_ids}
    clone_inputs: dict[str, tuple[list[SpoilerReport], list[Profile]]] = {
        mid: ([], []) for mid in method_ids
    }
    details: list[dict] = []
    failures: list[tuple[str, str, str]] = []
    used = skipped = 0

    for name, profile in elections:
        k_eff = k_override if k_override is not None else profile.k
        if k_eff < 2 or profile.m <= k_eff + 1:
            skipped += 1
            continue
        if k_eff != profile.k:
            profile = profile.with_seats(k_eff)
        used += 1
        weak = weakness_flags(profile)
        removals: dict[int, Profile] = {}
        for mid in method_ids:
            tally = tallies[mid]
            row = {
                "election": name,
                "method": mid,
                "m": profile.m,
                "k": profile.k,
                "n": profile.n,
            }
            try:
                report = analyze_spoilers(profile, mid, tie, removals)
            except AUDIT_ERRORS as exc:
                tally.requested += 1
                tally.errors += 1
                failures.append((name, mid, f"{type(exc).__name__}: {exc}"))
                details.append(dict(row, **dict.fromkeys(_DETAIL_STATS)))
                continue
            counted = _tally_report(tally, report, weak, tie)
            summary = stability_summary(report)
            if counted:
                s = stability[mid]
                if summary.num_spoilers >= 1:
                    s.spoiler_elections += 1
                if summary.num_spoilers >= 2:
                    s.multi_spoiler_elections += 1
                    if summary.num_alternate_sets > 1:
                        s.multi_alt_set_elections += 1
                s.max_spoilers = max(s.max_spoilers, summary.num_spoilers)
                s.greatest_alt_sets = max(s.greatest_alt_sets, summary.num_alternate_sets)
                clone_inputs[mid][0].append(report)
                clone_inputs[mid][1].append(profile)
            details.append(
                dict(
                    row,
                    tie=report.has_tie,
                    num_spoilers=summary.num_spoilers,
                    spoilers=";".join(profile.names[c] for c in report.spoilers),
                    num_alt_sets=summary.num_alternate_sets,
                    max_changed=summary.max_changed_candidates,
                )
            )

    methods = {
        mid: MethodResult(mid, METHODS[mid].label, tallies[mid]) for mid in method_ids
    }
    clones = {
        mid: clone_statistics(reports, profiles)
        for mid, (reports, profiles) in clone_inputs.items()
    }
    return CorpusResult(
        tie=tie,
        k_override=k_override,
        elections_used=used,
        elections_skipped=skipped,
        methods=methods,
        stability=stability,
        clones=clones,
        details=details,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Table shaping

_FRACTIONS = ("spoiler", "multiple", "plurality_loser", "topk_loser")

FRACTION_COLUMNS = tuple(
    name
    for field_name in _FRACTIONS
    for name in (field_name, f"{field_name}_lo", f"{field_name}_hi")
)


def method_rows(methods: dict[str, MethodResult]) -> list[dict]:
    """One row per method: each fraction with its Wilson interval, then counts."""
    rows = []
    for res in methods.values():
        row: dict = {"method": res.label}
        for name in _FRACTIONS:
            lo, hi = res.interval(name)
            row[name] = getattr(res, f"p_{name}")
            row[f"{name}_lo"] = lo
            row[f"{name}_hi"] = hi
        row.update(
            trials_used=res.tally.used,
            ties_discarded=res.tally.ties_discarded,
            ties_flagged=res.tally.ties_flagged,
            errors=res.tally.errors,
        )
        rows.append(row)
    return rows


def stability_rows(result: CorpusResult) -> list[dict]:
    rows = []
    for mid, agg in result.stability.items():
        rows.append(
            {
                "method": METHODS[mid].label,
                "spoiler_elections": agg.spoiler_elections,
                "multi_spoiler_elections": agg.multi_spoiler_elections,
                "greatest_num_spoilers": agg.max_spoilers,
                "multi_alt_set_elections": agg.multi_alt_set_elections,
                "greatest_num_alt_sets": agg.greatest_alt_sets,
            }
        )
    return rows


def clone_rows(result: CorpusResult) -> list[dict]:
    rows = []
    for mid, stats in result.clones.items():
        rows.append(
            {
                "method": METHODS[mid].label,
                "closer_to_retained": stats.closer_to_retained,
                "closer_to_would_be": stats.closer_to_would_be,
                "equal_similarity": stats.equal_similarity,
                "skipped": stats.skipped,
                "ratio": stats.ratio,
            }
        )
    return rows
