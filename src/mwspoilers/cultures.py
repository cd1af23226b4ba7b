"""Random ballot cultures for Monte Carlo spoiler campaigns.

Three models, each in a complete-ballot and a partial-ballot regime:

* ``ic`` (impartial culture): every voter draws independently and uniformly,
  over the full rankings (complete) or over all strict partial rankings of
  length 1..m-1 (partial; length-m ballots are excluded because they carry
  the same information as length m-1).
* ``iac`` (impartial anonymous culture): a whole anonymous profile, i.e. a
  composition of n over the ballot-type universe, is drawn uniformly via the
  exact stars-and-bars bijection rather than by any float approximation.
* ``spatial1d``: candidates and voters take i.i.d. standard normal positions
  on the real line and voters rank candidates by distance.  Complete ballots
  are emitted at length m-1 (the last candidate is implied); in the partial
  regime each voter truncates to a uniform length in 1..m-1.

Determinism contract: every sampler is a pure function of (spec, trial).
Trial ``t`` uses the numpy stream seeded with the entropy pair
``(spec.seed, t)``, so any partition of trials across workers reproduces the
serial run bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Profile, default_names

MODELS = ("ic", "iac", "spatial1d")
REGIMES = ("complete", "partial")

# Ballot-type universes are enumerated explicitly, which is only sane for
# small m; the simulation campaigns use m in {4, 5}.
MAX_ENUMERATED_M = 8


@dataclass(frozen=True)
class CultureSpec:
    """One simulation setting: model x regime x (m, k, n) with a master seed."""

    model: str
    regime: str
    m: int
    k: int
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.m < 2:
            raise ValueError("need at least 2 candidates")
        if not 1 <= self.k < self.m:
            raise ValueError(f"k={self.k} must satisfy 1 <= k < m={self.m}")
        if self.n < 1:
            raise ValueError("need at least one voter")


def trial_rng(spec: CultureSpec, trial: int) -> np.random.Generator:
    """Independent per-trial stream: seeded with the pair (seed, trial)."""
    return np.random.default_rng([spec.seed, trial])


@lru_cache(maxsize=None)
def complete_universe(m: int) -> tuple[tuple[int, ...], ...]:
    """All m! full rankings, lexicographic."""
    if m > MAX_ENUMERATED_M:
        raise ValueError(f"refusing to enumerate {m}! rankings (m > {MAX_ENUMERATED_M})")
    return tuple(itertools.permutations(range(m)))


@lru_cache(maxsize=None)
def partial_universe(m: int) -> tuple[tuple[int, ...], ...]:
    """All strict partial rankings of length 1..m-1, shortest first."""
    if m > MAX_ENUMERATED_M:
        raise ValueError(f"partial ranking universe too large (m > {MAX_ENUMERATED_M})")
    out: list[tuple[int, ...]] = []
    for length in range(1, m):
        out.extend(itertools.permutations(range(m), length))
    return tuple(out)


def _universe(spec: CultureSpec) -> tuple[tuple[int, ...], ...]:
    if spec.regime == "complete":
        return complete_universe(spec.m)
    return partial_universe(spec.m)


def _profile_from_counts(
    spec: CultureSpec, universe: tuple[tuple[int, ...], ...], counts: np.ndarray
) -> Profile:
    ballots = [
        (universe[i], int(c)) for i, c in enumerate(counts) if c > 0
    ]
    return Profile.build(spec.m, default_names(spec.m), ballots, spec.k)


def sample_ic(spec: CultureSpec, trial: int = 0) -> Profile:
    """n i.i.d. uniform draws over the ballot-type universe."""
    rng = trial_rng(spec, trial)
    universe = _universe(spec)
    counts = rng.multinomial(spec.n, np.full(len(universe), 1.0 / len(universe)))
    return _profile_from_counts(spec, universe, counts)


def sample_iac(spec: CultureSpec, trial: int = 0) -> Profile:
    """A uniform anonymous profile over the ballot-type universe.

    Draws a uniform composition of n into T parts by choosing the T-1 bar
    positions among n + T - 1 slots without replacement, which hits every
    anonymous profile with equal probability.
    """
    rng = trial_rng(spec, trial)
    universe = _universe(spec)
    t = len(universe)
    bars = np.sort(rng.choice(spec.n + t - 1, size=t - 1, replace=False))
    counts = np.empty(t, dtype=np.int64)
    counts[0] = bars[0]
    counts[1:-1] = np.diff(bars) - 1
    counts[-1] = spec.n + t - 2 - bars[-1]
    return _profile_from_counts(spec, universe, counts)


def sample_spatial1d(spec: CultureSpec, trial: int = 0) -> Profile:
    """Preferences by distance along a line of standard normal positions.

    Draw order within the trial stream: candidate positions (redrawn whole
    while any coincide), voter positions (colliding voters redrawn while any
    voter sits exactly on a candidate-pair midpoint, where distances would
    tie), then per-voter ballot lengths in the partial regime.

    A voter's ranking depends only on which gap between consecutive sorted
    midpoints they fall in, so voters are counted per (gap, ballot length)
    bin and one voter per occupied bin is ranked: at most C(m, 2) + 1
    rankings instead of n.
    """
    rng = trial_rng(spec, trial)
    m, n = spec.m, spec.n
    cands = rng.standard_normal(m)
    while len(np.unique(cands)) != m:  # pragma: no cover - measure-zero event
        cands = rng.standard_normal(m)
    midpoints = np.array(
        [(cands[i] + cands[j]) / 2.0 for i in range(m) for j in range(i + 1, m)]
    )
    voters = rng.standard_normal(n)
    collides = np.isin(voters, midpoints)
    while collides.any():  # pragma: no cover - measure-zero event
        voters[collides] = rng.standard_normal(int(collides.sum()))
        collides = np.isin(voters, midpoints)

    gaps = np.searchsorted(np.sort(midpoints), voters)
    if spec.regime == "complete":
        lengths = m - 1
    else:
        lengths = rng.integers(1, m, size=n)
    counts = np.bincount(gaps * m + lengths)
    occupied = np.flatnonzero(counts)
    representative = np.empty(len(midpoints) + 1)
    representative[gaps] = voters
    gap_of, length_of = np.divmod(occupied, m)
    order = np.argsort(np.abs(representative[gap_of, None] - cands[None, :]), axis=1)
    ballots = [
        (tuple(row[:length]), count)
        for row, length, count in zip(
            order.tolist(), length_of.tolist(), counts[occupied].tolist()
        )
    ]
    return Profile.build(m, default_names(m), ballots, spec.k)


_SAMPLERS = {"ic": sample_ic, "iac": sample_iac, "spatial1d": sample_spatial1d}


def sample_profile(spec: CultureSpec, trial: int = 0) -> Profile:
    """Dispatch to the sampler named by the spec."""
    return _SAMPLERS[spec.model](spec, trial)
