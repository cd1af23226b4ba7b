"""Multiwinner ranked-choice voting rules, spoiler audits, and ballot cultures."""

from .core import (
    Ballot,
    OutcomeSet,
    Profile,
    ProfileError,
    ScoreVector,
    UnrankedModel,
    borda_scores,
    default_names,
    first_place_counts,
    pairwise_matrix,
    point_matrix,
    remove_candidate,
    restrict_to_subset,
    top_k_counts,
)
from .blt_io import BltParseError, emit_blt, emit_results_csv, parse_blt, parse_blt_document
from .cultures import CultureSpec, sample_iac, sample_ic, sample_profile, sample_spatial1d
from .extend import ExtensionConfig, extend_profile, hamilton_apportion
from .harness import (
    CorpusResult,
    MethodResult,
    SimulationResult,
    run_corpus_audit,
    run_simulation,
    wilson_interval,
)
from .methods import (
    METHODS,
    SearchBudgetError,
    TabulationTrace,
    TieError,
    TiePolicy,
    bloc,
    chamberlin_courant,
    committee_satisfaction,
    condorcet_committee,
    droop_quota,
    greedy_cc,
    k_borda,
    mcc,
    run_method,
    sntv,
    srcv,
    stv,
    top_k_irv,
)
from .spoilers import (
    CloneStats,
    CloneTriple,
    SpoilerReport,
    SpoilerVerdict,
    StabilitySummary,
    WeaknessFlags,
    analyze_spoilers,
    clone_statistics,
    stability_summary,
    weakness_flags,
)
from .subelections import SubElection, enumerate_subelections

__all__ = [name for name in dir() if not name.startswith("_")]
