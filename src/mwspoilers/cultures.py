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

Every sampler draws its counts in its own order, which the draws depend on
and which never changes (IC and IAC over :func:`complete_universe` or
:func:`partial_universe`, spatial per occupied gap between candidate-pair
midpoints), and hands its nonzero counts to :meth:`Profile.build` in that
order as ``bytes`` rankings; build validates, merges and sorts them.

Determinism contract: every sampler is a pure function of (spec, trial).
Trial ``t`` uses the numpy stream seeded with the entropy pair
``(spec.seed, t)``, so any partition of trials across workers reproduces the
serial run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, repeat

import numpy as np

from .core import _MAX_CANDIDATES, Profile, default_names

MODELS = ("ic", "iac", "spatial1d")
REGIMES = ("complete", "partial")

# IC and IAC enumerate their ballot types, which is only sane for small m;
# the simulation campaigns use m in {4, 5}.
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
        if self.m > _MAX_CANDIDATES:
            raise ValueError(f"at most {_MAX_CANDIDATES} candidates supported, got m={self.m}")
        if not 1 <= self.k < self.m:
            raise ValueError(f"k={self.k} must satisfy 1 <= k < m={self.m}")
        if self.n < 1:
            raise ValueError("need at least one voter")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.model != "spatial1d" and self.m > MAX_ENUMERATED_M:
            raise ValueError(
                f"model {self.model!r} enumerates ballot types, so needs m <= {MAX_ENUMERATED_M}"
            )


def trial_rng(spec: CultureSpec, trial: int) -> np.random.Generator:
    """Independent per-trial stream: seeded with the pair (seed, trial).

    The stream of ``default_rng([spec.seed, trial])``, whose seed sequence
    reads each number as its 32-bit words, least significant first: given
    those words as one uint32 array, it skips converting the list.
    """
    words = [*_uint32_words(spec.seed), *_uint32_words(trial)]
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as numpy's seed sequence reads it: 32-bit words,
    least significant first, and one zero word for 0."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


@lru_cache(maxsize=None)
def complete_universe(m: int) -> tuple[bytes, ...]:
    """All m! full rankings, lexicographic."""
    if m > MAX_ENUMERATED_M:
        raise ValueError(f"refusing to enumerate {m}! rankings (m > {MAX_ENUMERATED_M})")
    return tuple(map(bytes, permutations(range(m))))


@lru_cache(maxsize=None)
def partial_universe(m: int) -> tuple[bytes, ...]:
    """All strict partial rankings of length 1..m-1, shortest first, then lexicographic."""
    if m > MAX_ENUMERATED_M:
        raise ValueError(f"partial ranking universe too large (m > {MAX_ENUMERATED_M})")
    rankings = chain.from_iterable(permutations(range(m), n) for n in range(1, m))
    return tuple(map(bytes, rankings))


def _universe(regime: str, m: int) -> tuple[bytes, ...]:
    """The ballot types IC and IAC draw over, in draw order."""
    if regime == "complete":
        return complete_universe(m)
    return partial_universe(m)


def _from_counts(spec: CultureSpec, counts: np.ndarray) -> Profile:
    """The profile with ``counts[i]`` ballots of draw-universe type ``i``."""
    universe = _universe(spec.regime, spec.m)
    held = np.flatnonzero(counts)
    ballots = zip(map(universe.__getitem__, held.tolist()), counts[held].tolist())
    return Profile.build(spec.m, default_names(spec.m), ballots, spec.k)


def sample_ic(spec: CultureSpec, trial: int = 0) -> Profile:
    """n i.i.d. uniform draws over the ballot-type universe."""
    rng = trial_rng(spec, trial)
    universe = _universe(spec.regime, spec.m)
    counts = rng.multinomial(spec.n, np.full(len(universe), 1.0 / len(universe)))
    return _from_counts(spec, counts)


def sample_iac(spec: CultureSpec, trial: int = 0) -> Profile:
    """A uniform anonymous profile over the ballot-type universe.

    Draws a uniform composition of n into T parts by choosing the T-1 bar
    positions among n + T - 1 slots without replacement, which hits every
    anonymous profile with equal probability.
    """
    rng = trial_rng(spec, trial)
    universe = _universe(spec.regime, spec.m)
    t = len(universe)
    bars = np.sort(rng.choice(spec.n + t - 1, size=t - 1, replace=False))
    counts = np.empty(t, dtype=np.int64)
    counts[0] = bars[0]
    counts[1:-1] = np.diff(bars) - 1
    counts[-1] = spec.n + t - 2 - bars[-1]
    return _from_counts(spec, counts)


def sample_spatial1d(spec: CultureSpec, trial: int = 0) -> Profile:
    """Preferences by distance along a line of standard normal positions.

    Draw order within the trial stream: candidate positions (redrawn whole
    while any coincide), voter positions (colliding voters redrawn while any
    voter sits exactly on a candidate-pair midpoint, where distances would
    tie), then per-voter ballot lengths in the partial regime.

    A voter's ranking depends only on which gap between consecutive sorted
    midpoints they fall in, so voters are counted per gap (per gap and
    ballot length when partial) and one voter per occupied gap is ranked, by
    one argsort whose rows are cut as ``bytes``: at most C(m, 2) + 1
    rankings instead of n.
    """
    rng = trial_rng(spec, trial)
    m, n = spec.m, spec.n
    cands = rng.standard_normal(m)
    while len(set(cands.tolist())) != m:  # a measure-zero event; -0.0 == 0.0
        cands = rng.standard_normal(m)
    bounds = np.sort([(a + b) / 2.0 for a, b in combinations(cands.tolist(), 2)])
    voters = rng.standard_normal(n)
    # A voter on a midpoint is the first bound at or above them.
    gaps = np.searchsorted(bounds, voters)
    collides = bounds.take(gaps, mode="clip") == voters
    while hits := np.count_nonzero(collides):  # a measure-zero event
        voters[collides] = rng.standard_normal(hits)
        gaps = np.searchsorted(bounds, voters)
        collides = bounds.take(gaps, mode="clip") == voters
    representative = np.empty(len(bounds) + 1)
    representative[gaps] = voters
    if spec.regime == "complete":
        counts = np.bincount(gaps)
        occupied = gap_of = counts.nonzero()[0]
        cuts = repeat(slice(m - 1))
    else:
        counts = np.bincount(gaps * m + rng.integers(1, m, size=n))
        occupied = counts.nonzero()[0]
        gap_of, length_of = np.divmod(occupied, m)
        cuts = map(slice, length_of.tolist())
    order = np.abs(representative[gap_of, None] - cands).argsort()
    rows = order.astype(np.uint8).view(f"V{m}").ravel().tolist()  # one bytes per row
    ballots = zip(map(bytes.__getitem__, rows, cuts), counts[occupied].tolist())
    return Profile.build(m, default_names(m), ballots, spec.k)


_SAMPLERS = {"ic": sample_ic, "iac": sample_iac, "spatial1d": sample_spatial1d}


def sample_profile(spec: CultureSpec, trial: int = 0) -> Profile:
    """Dispatch to the sampler named by the spec."""
    return _SAMPLERS[spec.model](spec, trial)
