"""Experiment orchestration: Monte Carlo campaigns and corpus audits.

Both entry points audit each profile (a sampled trial or a real election)
with one step: weakness flags once, one dict of removed-candidate profiles
shared across rules, one spoiler analysis per rule, and each report folded
into the same per-method counters: how often any spoiler appeared, multiple
spoilers, and spoilers who were plurality or top-k losers.  On a campaign
sample every rule re-runs on the shared removals, so each candidate is
removed once per trial; on a ward-size election only STV does, and the
other rules count the election itself with the candidate out (see
:func:`~mwspoilers.spoilers.analyze_spoilers`).  Only corpus audits keep
more: the ``m > k + 1``, ``k > 1`` filter, winning-set stability
aggregates, clone-similarity statistics, a per-election detail table and
the failed audits' messages.

A result maps each rule id straight to its :class:`MethodTally`, which
gives every estimated fraction (:meth:`MethodTally.fraction`) and its 95%
Wilson interval (:meth:`MethodTally.interval`).  The stability table reads
its counts of spoiler and multiple-spoiler elections from the same tally.
Under the ``error`` tie policy, elections whose base run or any re-run hit
an exact tie are thrown out of the aggregates (and counted); under a
deterministic policy they are kept and merely counted as tie-flagged.

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
from dataclasses import asdict, dataclass, field, fields
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

    def fraction(self, name: str) -> float:
        """The share of used audits counted in ``name``; 0 when none was used."""
        return getattr(self, name) / self.used if self.used else 0.0

    def interval(self, name: str) -> tuple[float, float]:
        """The Wilson interval of :meth:`fraction`."""
        return wilson_interval(getattr(self, name), self.used)


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


def _new_tallies(method_ids: Sequence[str]) -> dict[str, MethodTally]:
    for mid in method_ids:
        if mid not in METHODS:
            raise KeyError(f"unknown method {mid!r}")
    return {mid: MethodTally() for mid in method_ids}


def _audit(
    profile: Profile, tallies: dict[str, MethodTally], tie: TiePolicy
) -> dict[str, tuple[SpoilerReport | str, bool]]:
    """Audit one profile under every rule in ``tallies`` and fold each report in.

    Per rule, returns the report (or ``"ErrorType: message"`` for an audit
    that raised one of :data:`AUDIT_ERRORS`) and whether it was counted.
    """
    weak = weakness_flags(profile)
    removals: dict[int, Profile] = {}
    audits: dict[str, tuple[SpoilerReport | str, bool]] = {}
    for mid, tally in tallies.items():
        try:
            report = analyze_spoilers(profile, mid, tie, removals)
        except AUDIT_ERRORS as exc:
            tally.requested += 1
            tally.errors += 1
            audits[mid] = (f"{type(exc).__name__}: {exc}", False)
            continue
        audits[mid] = (report, _tally_report(tally, report, weak, tie))
    return audits


def _simulate_block(args: tuple) -> dict[str, MethodTally]:
    spec, method_ids, tie, start, stop = args
    tallies = _new_tallies(method_ids)
    for trial in range(start, stop):
        _audit(sample_profile(spec, trial), tallies, tie)
    return tallies


@dataclass(frozen=True)
class SimulationResult:
    spec: CultureSpec
    trials: int
    tie: TiePolicy
    methods: dict[str, MethodTally]


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
    tie = TiePolicy(tie)
    tallies = _new_tallies(method_ids)
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1 or trials == 0:
        tallies = _simulate_block((spec, tuple(method_ids), tie, 0, trials))
    else:
        chunk = max(1, -(-trials // (workers * 8)))
        blocks = [
            (spec, tuple(method_ids), tie, start, min(start + chunk, trials))
            for start in range(0, trials, chunk)
        ]
        # A pool starts all its processes at once, so none is left without a block.
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            for result in pool.map(_simulate_block, blocks):
                for mid, tally in result.items():
                    tallies[mid].merge(tally)
    return SimulationResult(spec=spec, trials=trials, tie=tie, methods=tallies)


@dataclass
class StabilityAggregate:
    """Winning-set stability counters over a corpus, per method.

    The counts of spoiler and multiple-spoiler elections are the method's
    :attr:`MethodTally.spoiler` and :attr:`MethodTally.multiple`.
    """

    greatest_num_spoilers: int = 0
    multi_alt_set_elections: int = 0  # among multi-spoiler elections
    greatest_num_alt_sets: int = 0


# A failed audit's row leaves every column after ``n`` empty.
DETAIL_COLUMNS = (
    "election", "method", "m", "k", "n",
    "tie", "num_spoilers", "spoilers", "num_alt_sets", "max_changed",
)  # fmt: skip


@dataclass(frozen=True)
class CorpusResult:
    tie: TiePolicy
    k_override: int | None
    elections_used: int
    elections_skipped: int
    methods: dict[str, MethodTally]
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
    keep_details: bool = True,
) -> CorpusResult:
    """Audit a corpus of real elections for spoilers, method by method.

    Elections are kept when ``m > k + 1`` and ``k > 1`` (a seat override, if
    given, is applied before the filter).  Besides the simulation-style
    fractions this collects stability summaries, clone-similarity statistics,
    and, when ``keep_details`` is set, one detail row per election and
    method.  A failed audit gets a detail row with empty statistics and an
    entry in ``failures``.  Clone statistics are folded in as each audit
    finishes, so no profile outlives its audit.  Without detail rows the
    memory held still grows with the corpus, but only by the clone
    statistics' one :class:`~mwspoilers.spoilers.CloneTriple` per clean
    one-seat swap.
    """
    tie = TiePolicy(tie)
    tallies = _new_tallies(method_ids)
    stability = {mid: StabilityAggregate() for mid in tallies}
    clones = {mid: CloneStats(0, ()) for mid in tallies}
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
        for mid, (report, counted) in _audit(profile, tallies, tie).items():
            if keep_details:
                row = dict.fromkeys(DETAIL_COLUMNS)
                row.update(election=name, method=mid, m=profile.m, k=profile.k, n=profile.n)
                details.append(row)
            if isinstance(report, str):
                failures.append((name, mid, report))
                continue
            summary = stability_summary(report)
            if counted:
                s = stability[mid]
                if summary.num_spoilers >= 2 and summary.num_alternate_sets > 1:
                    s.multi_alt_set_elections += 1
                s.greatest_num_spoilers = max(s.greatest_num_spoilers, summary.num_spoilers)
                s.greatest_num_alt_sets = max(s.greatest_num_alt_sets, summary.num_alternate_sets)
                clones[mid] += clone_statistics([(report, profile)])
            if keep_details:
                row.update(
                    tie=report.has_tie,
                    num_spoilers=summary.num_spoilers,
                    spoilers=";".join(profile.names[c] for c in report.spoilers),
                    num_alt_sets=summary.num_alternate_sets,
                    max_changed=summary.max_changed_candidates,
                )

    return CorpusResult(
        tie=tie,
        k_override=k_override,
        elections_used=used,
        elections_skipped=skipped,
        methods=tallies,
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


def method_rows(methods: dict[str, MethodTally]) -> list[dict]:
    """One row per method: each fraction with its Wilson interval, then counts."""
    rows = []
    for mid, tally in methods.items():
        row: dict = {"method": METHODS[mid].label}
        for name in _FRACTIONS:
            lo, hi = tally.interval(name)
            row[name] = tally.fraction(name)
            row[f"{name}_lo"] = lo
            row[f"{name}_hi"] = hi
        row.update(
            trials_used=tally.used,
            ties_discarded=tally.ties_discarded,
            ties_flagged=tally.ties_flagged,
            errors=tally.errors,
        )
        rows.append(row)
    return rows


def stability_rows(result: CorpusResult) -> list[dict]:
    return [
        {
            "method": METHODS[mid].label,
            "spoiler_elections": result.methods[mid].spoiler,
            "multi_spoiler_elections": result.methods[mid].multiple,
            **asdict(agg),
        }
        for mid, agg in result.stability.items()
    ]


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
