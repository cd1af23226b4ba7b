"""Election data model and ballot algebra.

A :class:`Profile` is the in-memory form of a multiwinner ranked election:
a candidate roster, a deduplicated multiset of weighted partial strict
rankings, and a seat count ``k``.  Candidates left off a ballot are treated
as tied for last place.  All rules in :mod:`mwspoilers.methods` consume this
type, and every operation here is a pure function, so profiles can be shared
freely across threads.

Candidates are dense integer indices ``0..m-1``; display names live in the
profile roster.  Removing or restricting candidates recompacts indices but
keeps the surviving names, so reports always print original names.

Ballots are validated once, where they enter the program: the plain
constructor and :meth:`Profile.build` (used by the ballot-file parser, ballot
extension and the samplers) check every ballot.  Profiles derived from a
valid profile (:func:`remove_candidate`, :func:`restrict_to_subset`,
:meth:`Profile.with_seats`) cannot break a ballot invariant, so they are made
by :meth:`Profile._derived`, which keeps only the O(1) shape checks.  This
matters on the audit hot path, which derives a profile per removed candidate.

The array-based rules (exact and greedy Chamberlin-Courant, committee
satisfaction, pairwise margins) read :attr:`Profile.arrays`: the rank
position of every candidate on every ballot type and the int64 weights,
built on first use and cached on the profile.  Both arrays are read-only, and
the lazy build is idempotent (two threads racing to build it compute equal
arrays), so profiles stay shareable.  All arithmetic on them is integer;
a profile whose ``n * m`` does not fit in int64 is rejected with
:class:`ProfileError` rather than summed with wraparound.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class ProfileError(ValueError):
    """Raised when ballot data violates a profile invariant."""


class UnrankedModel(str, enum.Enum):
    """How positional scores treat candidates missing from a partial ballot.

    ``OPTIMISTIC`` gives an unranked candidate ``m - l - 1`` points on a
    ballot of length ``l`` (tied just below the last ranked candidate);
    ``PESSIMISTIC`` gives zero points.  The two coincide on ballots ranking
    ``m`` or ``m - 1`` candidates.
    """

    OPTIMISTIC = "om"
    PESSIMISTIC = "pm"


class Ballot(NamedTuple):
    """One ballot type: a strict partial ranking with a positive multiplicity."""

    ranking: tuple[int, ...]
    weight: int


_INT64_MAX = int(np.iinfo(np.int64).max)


class BallotArrays(NamedTuple):
    """Array form of a profile's ballot types, row ``i`` for ``ballots[i]``.

    ``positions[i, c]`` is the 0-based rank of candidate ``c`` on ballot type
    ``i``, or ``m`` when the ballot leaves ``c`` unranked; ``weights[i]`` is
    the ballot type's multiplicity.  Both are read-only int64 arrays.
    ``positions`` is stored column-major, so ``positions.T`` (one contiguous
    row per candidate) is free; the kernels work on that view.
    """

    positions: np.ndarray
    weights: np.ndarray


def default_names(m: int) -> tuple[str, ...]:
    """Roster of placeholder names: letters for small m, C10, C11, ... beyond."""
    if m <= 26:
        return tuple(chr(ord("A") + i) for i in range(m))
    return tuple(f"C{i}" for i in range(m))


@dataclass(frozen=True)
class Profile:
    """An election: ``m`` candidates, weighted ballot types, ``k`` seats.

    Ballot types are stored deduplicated with integer weights and sorted by
    ranking; all rules here are anonymous, so this is purely a size/speed
    measure.  Use :meth:`build` to construct from raw ballots; the plain
    constructor requires already-canonical data.
    """

    m: int
    names: tuple[str, ...]
    ballots: tuple[Ballot, ...]
    k: int

    def __post_init__(self) -> None:
        self._check_shape()
        prev: tuple[int, ...] | None = None
        for ballot in self.ballots:
            ranking, weight = ballot
            if weight < 1:
                raise ProfileError(f"ballot {ranking} has non-positive weight {weight}")
            if not 1 <= len(ranking) <= self.m:
                raise ProfileError(f"ballot length {len(ranking)} out of range 1..{self.m}")
            if len(set(ranking)) != len(ranking):
                raise ProfileError(f"duplicate candidate in ballot {ranking}")
            if any(not 0 <= c < self.m for c in ranking):
                raise ProfileError(f"candidate index out of range in ballot {ranking}")
            if prev is not None and not prev < ranking:
                raise ProfileError("ballots must be sorted by ranking and deduplicated")
            prev = ranking

    def _check_shape(self) -> None:
        if self.m < 2:
            raise ProfileError(f"need at least 2 candidates, got m={self.m}")
        if len(self.names) != self.m:
            raise ProfileError(f"expected {self.m} names, got {len(self.names)}")
        if not 1 <= self.k < self.m:
            raise ProfileError(f"seat count k={self.k} must satisfy 1 <= k < m={self.m}")
        if not self.ballots:
            raise ProfileError("profile has no ballots")

    @classmethod
    def build(
        cls,
        m: int,
        names: Sequence[str],
        weighted_rankings: Iterable[tuple[Sequence[int], int]],
        k: int,
    ) -> "Profile":
        """Merge duplicate ballot types, sort, and validate."""
        return cls(m=m, names=tuple(names), ballots=_canonical(weighted_rankings), k=k)

    @classmethod
    def _derived(
        cls, m: int, names: tuple[str, ...], ballots: tuple[Ballot, ...], k: int
    ) -> "Profile":
        """A profile whose canonical ballots come from a valid profile.

        Checks only the shape (m, names, k, at least one ballot); the caller
        guarantees every ballot is a valid, sorted, deduplicated ranking.
        """
        profile = object.__new__(cls)
        for attr, value in (("m", m), ("names", names), ("ballots", ballots), ("k", k)):
            object.__setattr__(profile, attr, value)
        profile._check_shape()
        return profile

    @cached_property
    def n(self) -> int:
        """Total ballot weight (number of voters)."""
        return sum(b.weight for b in self.ballots)

    @cached_property
    def arrays(self) -> BallotArrays:
        """The ballot types as read-only int64 arrays, built once per profile.

        Raises :class:`ProfileError` when ``n * m`` exceeds the int64 range,
        which bounds every score, satisfaction total and pairwise count the
        array kernels compute.
        """
        m = self.m
        if self.n * m > _INT64_MAX:
            raise ProfileError(
                f"n={self.n} voters x m={m} candidates overflows 64-bit integer scores"
            )
        rankings, weights = zip(*self.ballots)
        lengths = np.fromiter(map(len, rankings), np.int64, len(rankings))
        ranked = np.fromiter(
            itertools.chain.from_iterable(rankings), np.int64, int(lengths.sum())
        )
        # One scatter for every (ballot type, ranked candidate) pair.
        starts = np.cumsum(lengths) - lengths
        rows = np.repeat(np.arange(len(rankings)), lengths)
        positions = np.full((len(rankings), m), m, dtype=np.int64, order="F")
        positions[rows, ranked] = np.arange(len(ranked)) - np.repeat(starts, lengths)
        weight_array = np.array(weights, dtype=np.int64)
        positions.flags.writeable = False
        weight_array.flags.writeable = False
        return BallotArrays(positions, weight_array)

    def with_seats(self, k: int) -> "Profile":
        """Same ballots, different seat count."""
        return Profile._derived(self.m, self.names, self.ballots, k)


def _canonical(
    weighted_rankings: Iterable[tuple[Sequence[int], int]],
) -> tuple[Ballot, ...]:
    """Merge duplicate ballot types and sort by ranking."""
    merged: dict[tuple[int, ...], int] = {}
    for ranking, weight in weighted_rankings:
        key = tuple(ranking)
        merged[key] = merged.get(key, 0) + weight
    return tuple(Ballot(r, w) for r, w in sorted(merged.items()))


@dataclass(frozen=True)
class ScoreVector:
    """Per-candidate scores."""

    values: tuple[int, ...]

    def __getitem__(self, c: int) -> int:
        return self.values[c]

    def __len__(self) -> int:
        return len(self.values)

    def argmin_set(self) -> frozenset[int]:
        bottom = min(self.values)
        return frozenset(c for c, v in enumerate(self.values) if v == bottom)


@dataclass(frozen=True)
class OutcomeSet:
    """The committees a rule declares winning.

    Usually a single committee; several under ties.  ``tie_flag`` is set when
    the set holds more than one committee or when a deterministic tie-break
    had to be invoked to produce a single one.
    """

    committees: frozenset[frozenset[int]]
    tie_flag: bool = False

    def __post_init__(self) -> None:
        if not self.committees:
            raise ValueError("outcome must contain at least one committee")
        sizes = {len(c) for c in self.committees}
        if len(sizes) != 1:
            raise ValueError(f"committees of mixed sizes: {sorted(sizes)}")

    @classmethod
    def single(cls, committee: Iterable[int], tie_flag: bool = False) -> "OutcomeSet":
        return cls(committees=frozenset([frozenset(committee)]), tie_flag=tie_flag)

    @property
    def winners(self) -> frozenset[int]:
        """Union of all winning committees."""
        out: frozenset[int] = frozenset()
        for committee in self.committees:
            out |= committee
        return out

    def sole_committee(self) -> frozenset[int]:
        if len(self.committees) != 1:
            raise ValueError("outcome is a tie between several committees")
        return next(iter(self.committees))

    def same_winning_sets(self, other: "OutcomeSet") -> bool:
        """Set-of-sets equality; tie flags are ignored."""
        return self.committees == other.committees


# ---------------------------------------------------------------------------
# Ballot algebra


def remove_candidate(profile: Profile, c: int) -> Profile:
    """Delete candidate ``c`` from the election.

    Every ballot drops ``c`` with the order of the remaining entries
    preserved; ballots left empty are discarded, so total weight may shrink.
    Indices above ``c`` shift down by one.  ``k`` is unchanged, so the result
    must still satisfy ``k < m - 1 + 1``; removal that would leave ``m <= k``
    is rejected as meaningless for this seat count.
    """
    if not 0 <= c < profile.m:
        raise ProfileError(f"no candidate with index {c}")
    if profile.m - 1 <= profile.k:
        raise ProfileError(
            f"removing a candidate from m={profile.m} would leave m <= k={profile.k}"
        )
    names = tuple(name for i, name in enumerate(profile.names) if i != c)
    remaining: list[tuple[tuple[int, ...], int]] = []
    for ranking, weight in profile.ballots:
        reduced = tuple(x if x < c else x - 1 for x in ranking if x != c)
        if reduced:
            remaining.append((reduced, weight))
    if not remaining:
        raise ProfileError(f"removing {profile.names[c]!r} leaves no ballots")
    return Profile._derived(profile.m - 1, names, _canonical(remaining), profile.k)


def restrict_to_subset(profile: Profile, subset: Iterable[int], k_new: int) -> Profile:
    """Keep only the candidates in ``subset`` and set the seat count to ``k_new``.

    Equivalent to removing the complement one candidate at a time.  Ballots
    ranking only excluded candidates are dropped.
    """
    keep = sorted(set(subset))
    if any(not 0 <= c < profile.m for c in keep):
        raise ProfileError("subset contains candidates outside the roster")
    if len(keep) < 2:
        raise ProfileError("subset must contain at least 2 candidates")
    if not 1 <= k_new < len(keep):
        raise ProfileError(f"k_new={k_new} must satisfy 1 <= k_new < {len(keep)}")
    new_index = {c: i for i, c in enumerate(keep)}
    names = tuple(profile.names[c] for c in keep)
    remaining: list[tuple[tuple[int, ...], int]] = []
    for ranking, weight in profile.ballots:
        reduced = tuple(new_index[x] for x in ranking if x in new_index)
        if reduced:
            remaining.append((reduced, weight))
    if not remaining:
        raise ProfileError("restriction leaves no ballots")
    return Profile._derived(len(keep), names, _canonical(remaining), k_new)


def first_place_counts(profile: Profile) -> ScoreVector:
    """Weight of ballots whose first choice is each candidate."""
    values = [0] * profile.m
    for ranking, weight in profile.ballots:
        values[ranking[0]] += weight
    return ScoreVector(tuple(values))


def top_k_counts(profile: Profile, k: int | None = None) -> ScoreVector:
    """Weight of ballots ranking each candidate among their top ``k`` entries.

    Partial ballots contribute only for the candidates they actually rank.
    Defaults to the profile's own seat count.
    """
    if k is None:
        k = profile.k
    if k < 1:
        raise ProfileError(f"k must be positive, got {k}")
    values = [0] * profile.m
    for ranking, weight in profile.ballots:
        for c in ranking[:k]:
            values[c] += weight
    return ScoreVector(tuple(values))


def borda_scores(profile: Profile, model: UnrankedModel) -> ScoreVector:
    """Positional scores: ``m - r`` points at rank ``r`` (1-based).

    A candidate missing from a ballot of length ``l`` earns ``m - l - 1``
    points under the optimistic model and zero under the pessimistic one.
    """
    m = profile.m
    optimistic = model is UnrankedModel.OPTIMISTIC
    values = [0] * m
    # Optimistic points every candidate gets, as if no ballot ranked anyone;
    # each ranked candidate's entry takes its own ballot's share back off (on
    # a complete ballot that share is -weight, and it cancels out).
    unranked = 0
    for ranking, weight in profile.ballots:
        missing = weight * (m - len(ranking) - 1) if optimistic else 0
        unranked += missing
        for pos, c in enumerate(ranking):
            values[c] += weight * (m - pos - 1) - missing
    return ScoreVector(tuple(v + unranked for v in values))


def point_matrix(profile: Profile, model: UnrankedModel) -> np.ndarray:
    """Ballot type x candidate int64 points under the unranked-candidate model.

    A candidate ranked at 0-based position ``pos`` gets ``m - 1 - pos``
    points; one left off a ballot of length ``l`` gets ``m - l - 1`` under
    the optimistic model and zero under the pessimistic one.  Every entry is
    non-negative and no unranked candidate outscores a ranked one, so a
    voter's satisfaction with a committee is the row maximum over its
    columns, and ``weights @ point_matrix`` is :func:`borda_scores`.  Like
    :attr:`Profile.arrays`, the result is column-major.
    """
    positions, _ = profile.arrays
    m = profile.m
    # Unranked candidates (position m) get -1 here, and ranked ones at least
    # m - l, so raising every entry to the model's floor fixes the unranked
    # entries alone.
    if model is UnrankedModel.OPTIMISTIC:
        floor = m - 1 - (positions < m).sum(axis=1, keepdims=True)
    else:
        floor = 0
    return np.maximum(m - 1 - positions, floor)


def pairwise_matrix(profile: Profile) -> tuple[tuple[int, ...], ...]:
    """Antisymmetric margin matrix: entry ``[a][b]`` is (a over b) - (b over a).

    A ranked candidate beats an unranked one; two unranked candidates are
    mutually tied and contribute to neither side.
    """
    positions, weights = profile.arrays
    by_candidate = positions.T
    # Row a: weight of ballots placing a strictly above each b (unranked is m).
    wins = np.array([(by_candidate[a] < by_candidate) @ weights for a in range(profile.m)])
    return tuple(map(tuple, (wins - wins.T).tolist()))
