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
:func:`remove_candidate` and :func:`restrict_to_subset` share one routine
that keeps a sorted set of candidates; removal keeps all but one.  Scores
are plain tuples indexed by candidate.

A ranking is ``bytes``, one byte per 0-based candidate index in order of
preference, so a profile has at most 256 candidates (``m <= 256`` is checked
with the shape).  Bytes sort exactly as the rankings they encode (prefixes
first), so one canonicalizer, :func:`_canonical`, merges and sorts ballot
types for both :meth:`Profile.build` and restriction.  Restriction
re-indexes and drops candidates with one ``bytes.translate`` per ballot
type, in C.

The positional scores (first-place, top-k and Borda counts) all come from
one :attr:`Profile.tally`, built in exact integers on the first score query
and cached on the profile: for every depth ``d``, the weight of ballots
ranking each candidate among their first ``d`` entries, plus the optimistic
model's points for unranked candidates.  A candidate at rank ``r`` lies
within depths ``r..m``, so its Borda score is the sum of its top-``d``
counts over ``d = 1..m-1``.  The tally has two kernels, chosen by size.  A
profile of fewer than ``_ARRAY_TALLY_TYPES`` ballot types (an m=4 campaign
sample has at most 24) is tallied in one Python pass over its ballots, the
reference kernel: on 24 types numpy's per-call overhead makes the array
kernel three times slower.  A larger one (a ward's parsed or reduced
profile) is tallied from :attr:`Profile.arrays` in int64: on a 2,000-type
ward, twice as fast as the loop when it builds the arrays too and nine
times once they are built, and the arrays it builds serve the array-based
rules that follow.  A large profile whose ``n * m`` overflows int64 keeps
the loop.  :func:`_array_sized` is that size switch, and the one place it
is decided: SRCV takes it too, to build a profile's
:attr:`Profile.continuing_totals`.

That table, built in int64 from the ballot types on first use and
cached, holds the totals of every count that transfers at full value: its
row at a set of candidates out holds, for each candidate, the weight of
the ballots whose first candidate outside the set it is.  It takes
``2**m * m`` entries, so its readers build it only for the candidate
counts where it was measured to beat their own loop.

The pairwise counts, :attr:`Profile.pair_counts`, are two cached ``m x m``
int64 arrays built from the array form: for each ordered pair, the weight
of the ballots that rank the first and not the second before it, and of
those that rank neither.  They give the margin matrix
(:func:`pairwise_matrix`) and each candidate's Borda scores, and, because
removing a candidate changes no other pair's order and drops only the
ballots that rank it alone, the Borda scores of every single-candidate
removal too.  :func:`top_k_counts` and :func:`borda_scores` take the
removed candidate as ``out`` and return those scores in this profile's
indices, so that an audit's re-runs need no reduced profile
(:func:`mwspoilers.methods.run_method`).

Ballots are validated once, where they enter the program: the plain
constructor and :meth:`Profile.build` (used by the ballot-file parser, ballot
extension and the samplers) check every ballot, ``build`` on its input as
given, so that no merge can hide a bad weight.  The checks run as C-level
passes (integer and positive weights, lengths, repeated and out-of-range
indices); only input that fails them is walked ballot by ballot to name the
first fault.  Profiles derived from a valid profile (:func:`remove_candidate`,
:func:`restrict_to_subset`, :meth:`Profile.with_seats`) cannot break a ballot
invariant, so :meth:`Profile._derived` makes them without a ballot check.
This matters on the audit hot path, which derives a profile per removed
candidate for STV, and for every rule on a campaign sample.

The array-based rules (exact and greedy Chamberlin-Courant, committee
satisfaction, pairwise margins) read :attr:`Profile.arrays`: the rank
position of every candidate on every ballot type and the int64 weights,
built from the rankings on first use and cached on the profile.  The rules
that score committees by satisfaction read the points of
:func:`point_matrix`, derived from them (or from a removal's positions)
by ``_points``, which alone applies the unranked-candidate model.  The
arrays, the pairwise counts and the continuing-preference table are
read-only, the tally is made of tuples, and the lazy builds are idempotent
(two threads racing to build one compute equal values), so profiles stay
shareable.  All
arithmetic on the arrays is integer; a profile whose ``n * m`` does not
fit in int64 is rejected with :class:`ProfileError` rather than summed
with wraparound, and ``n * m`` bounds every total those rules compute, a
satisfaction table entry included.

The records returned by every rule run and audit (:class:`OutcomeSet` here,
the spoiler records of :mod:`mwspoilers.spoilers`, the STV round table of
:mod:`mwspoilers.methods`) are ``NamedTuple``s, as :class:`Ballot` is:
immutable, picklable, without an instance ``__dict__``, and cheap to make,
since an audit of a campaign trial makes dozens.  :class:`OutcomeSet`'s
constructor checks its invariant (at least one committee, all of one
size); :meth:`OutcomeSet.single` and the audit's re-indexing make outcomes
that meet it by construction, so they skip the check, as
:meth:`Profile._derived` skips the ballot check.
"""

from __future__ import annotations

import enum
import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class ProfileError(ValueError):
    """Raised when ballot data violates a profile invariant."""


class UnrankedModel(str, enum.Enum):
    """How positional scores treat candidates missing from a partial ballot.

    ``OPTIMISTIC`` gives an unranked candidate ``m - l - 1`` points on a
    ballot of length ``l`` (tied just below the last ranked candidate);
    ``PESSIMISTIC`` gives zero points.  The two coincide on ballots ranking
    ``m`` or ``m - 1`` candidates.  Where a model is read, a member's string
    value reads as the member and any other value raises ``ValueError``.
    """

    OPTIMISTIC = "om"
    PESSIMISTIC = "pm"


class Ballot(NamedTuple):
    """One ballot type: a strict partial ranking with a positive multiplicity.

    ``ranking`` is ``bytes``, one byte per 0-based candidate index, most
    preferred first: ``b"\\x02\\x00"`` ranks candidate 2 over candidate 0.
    """

    ranking: bytes
    weight: int


# Ballots made without the NamedTuple's Python-level __new__: the same tuples, in C.
_new_ballot = partial(tuple.__new__, Ballot)
_ranking = operator.itemgetter(0)
_weight = operator.itemgetter(1)

# A ranking stores each candidate index in one byte.
_MAX_CANDIDATES = 256
_INDEX_BYTES = bytes(range(_MAX_CANDIDATES))

_INT64_MAX = int(np.iinfo(np.int64).max)

# The fewest ballot types that Profile.tally counts from the array form.  With
# the arrays still to build, the array kernel overtook the loop at about 110
# types for m=10, 160 for m=6 and above 192 for m=5; 256 clears all three.
_ARRAY_TALLY_TYPES = 256


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


class PositionTally(NamedTuple):
    """Every positional score of a profile, counted once (see :attr:`Profile.tally`).

    ``top`` holds ``m`` rows of ``m`` entries, flattened: entry
    ``(d - 1) * m + c`` is the weight of ballots ranking candidate ``c``
    among their first ``d`` entries.  A ballot of length ``l < m - 1`` gives
    each candidate it leaves unranked ``m - l - 1`` optimistic points;
    ``unranked`` is what a candidate ranked on no ballot would get, and
    ``unranked_shares[c]`` the part of it from the ballots that do rank
    ``c``, so candidate ``c`` gets ``unranked - unranked_shares[c]``.
    """

    top: tuple[int, ...]
    unranked: int
    unranked_shares: tuple[int, ...]


class PairCounts(NamedTuple):
    """Every pairwise count of a profile, counted once (see :attr:`Profile.pair_counts`).

    Read-only ``m x m`` int64 arrays, zero on the diagonal.  ``ahead[a, b]``
    is the weight of the ballots that rank ``a`` and do not rank ``b``
    before it; ``neither[a, b]`` the weight of the ballots that rank neither.
    A row of ``ahead`` sums to the candidate's pessimistic Borda score, and
    one of ``ahead + neither`` to its optimistic one.
    """

    ahead: np.ndarray
    neither: np.ndarray


@lru_cache(maxsize=None)
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
    constructor requires already-canonical data: ``bytes`` rankings and
    ``int`` weights, sorted and deduplicated.
    """

    m: int
    names: tuple[str, ...]
    ballots: tuple[Ballot, ...]
    k: int

    def __post_init__(self) -> None:
        _check_shape(self.m, self.names, self.ballots, self.k)
        rankings = tuple(map(_ranking, self.ballots))
        for ranking in rankings:
            if type(ranking) is not bytes:
                raise ProfileError(
                    f"ballot {ranking!r} is not a bytes ranking; use Profile.build to encode it"
                )
        weights = tuple(map(_weight, self.ballots))
        _check_ballots(self.m, rankings, weights)
        if not {int}.issuperset(map(type, weights)):  # exact, where numpy integers wrap
            raise ProfileError("weights must be Python ints; use Profile.build to convert them")
        if not all(map(operator.lt, rankings, rankings[1:])):
            raise ProfileError("ballots must be sorted by ranking and deduplicated")

    @classmethod
    def build(
        cls,
        m: int,
        names: Sequence[str],
        weighted_rankings: Iterable[tuple[Sequence[int], int]],
        k: int,
    ) -> "Profile":
        """Validate the ballots as given, then encode, merge and sort them.

        A ranking may be any sequence of candidate indices; it is encoded by
        value, so a numpy row gives the same ballot as a tuple.  A weight may
        be any integer type; it is stored as a Python ``int``.
        """
        rankings, weights = tuple(zip(*weighted_rankings)) or ((), ())
        names = tuple(names)
        _check_shape(m, names, rankings, k)
        try:
            # Never bytes(r) on a buffer: a numpy row would give its raw bytes.
            rankings = [r if type(r) is bytes else bytes(tuple(r)) for r in rankings]
        except (TypeError, ValueError):
            pass  # an invalid ranking, which the check names
        weights = _check_ballots(m, rankings, weights)
        return cls._derived(m, names, _canonical(rankings, weights), k)

    @classmethod
    def _derived(
        cls, m: int, names: tuple[str, ...], ballots: tuple[Ballot, ...], k: int
    ) -> "Profile":
        """A profile made without a check.

        The caller guarantees the shape (m, names, k, at least one ballot)
        and that every ballot is a valid, sorted, deduplicated ranking.
        """
        profile = object.__new__(cls)
        for attr, value in (("m", m), ("names", names), ("ballots", ballots), ("k", k)):
            object.__setattr__(profile, attr, value)
        return profile

    @cached_property
    def n(self) -> int:
        """Total ballot weight (number of voters)."""
        return sum(map(_weight, self.ballots))

    @cached_property
    def arrays(self) -> BallotArrays:
        """The ballot types as read-only int64 arrays, built once per profile.

        Raises :class:`ProfileError` when ``n * m`` exceeds the int64 range,
        which bounds every score, satisfaction total and pairwise count the
        array kernels compute.
        """
        m = self.m
        lengths, ranked, weights = self._flat
        types = len(lengths)
        # One scatter for every (ballot type, ranked candidate) pair.
        starts = np.cumsum(lengths) - lengths
        rows = np.repeat(np.arange(types), lengths)
        positions = np.full((types, m), m, dtype=np.int64, order="F")
        positions[rows, ranked] = np.arange(len(ranked)) - np.repeat(starts, lengths)
        positions.flags.writeable = False
        return BallotArrays(positions, weights)

    @cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What :attr:`arrays` and :attr:`continuing_totals` are built from,
        read-only and built once per profile: each ballot type's length and
        weight in int64, and the rankings joined end to end, one uint8 per
        entry.

        Raises :class:`ProfileError` when ``n * m`` exceeds the int64 range.
        """
        if self.n * self.m > _INT64_MAX:
            raise ProfileError(
                f"n={self.n} voters x m={self.m} candidates overflows 64-bit integer scores"
            )
        rankings = tuple(map(_ranking, self.ballots))
        types = len(rankings)
        lengths = np.fromiter(map(len, rankings), np.int64, types)
        ranked = np.frombuffer(b"".join(rankings), np.uint8)  # read-only: a view of bytes
        weights = np.fromiter(map(_weight, self.ballots), np.int64, types)
        lengths.flags.writeable = weights.flags.writeable = False
        return lengths, ranked, weights

    @cached_property
    def continuing_totals(self) -> np.ndarray:
        """The totals of every count that transfers at full value, built once
        per profile: a read-only int64 array of ``2**m`` rows of ``m``.

        Entry ``[X, c]``, for a bitmask ``X`` of candidates out, is the weight
        of the ballots whose first candidate outside ``X`` is ``c`` (zero for
        ``c`` in ``X``): row ``X`` is what the piles hold once the candidates
        in ``X`` are out.  Each ranked entry puts its ballot's weight at the
        set ranked before it and its candidate; one subset-sum (zeta) pass per
        candidate then adds each set's row into the set with that candidate
        out too, except the candidate's own column.  No entry exceeds ``n``,
        and the build shares the int64 check of :attr:`arrays`.  The table
        takes ``2**m * m`` int64 entries, so its callers check that it pays.
        """
        m = self.m
        lengths, entries, weights = self._flat
        ranked = entries.astype(np.int64)
        # The set ranked before each entry on its ballot: a running sum of the
        # entries' bits, less the sum where its ballot starts.
        bits = np.left_shift(1, ranked)
        before = np.cumsum(bits) - bits
        before -= np.repeat(before[np.cumsum(lengths) - lengths], lengths)
        # Flat index and weights, as in _array_tally.
        table = np.zeros((1 << m) * m, np.int64)
        np.add.at(table, before * m + ranked, np.repeat(weights, lengths))
        table = table.reshape(1 << m, m)
        for c in range(m):  # the zeta transform of methods._cc_table, column c kept at zero
            with_c = table.reshape(-1, 2, 1 << c, m)[:, 1]
            with_c += table.reshape(-1, 2, 1 << c, m)[:, 0]
            with_c[..., c] = 0
        table.flags.writeable = False
        return table

    @cached_property
    def tally(self) -> PositionTally:
        """The positional score counts, built once per profile (exact integers).

        A profile that :func:`_array_sized` admits is counted from
        :attr:`arrays`, building and caching them; any other is counted by
        the loop below, the reference.
        """
        m = self.m
        if _array_sized(self):
            return _array_tally(m, *self.arrays)
        size = m * m
        # Rank-position rows first, each summed into the row below at the end.
        top = [0] * size
        shares = [0] * m
        unranked = 0
        short = m - 1
        for ranking, weight in self.ballots:
            row = 0
            if len(ranking) < short:
                share = weight * (short - len(ranking))
                unranked += share
                for c in ranking:
                    top[row + c] += weight
                    shares[c] += share
                    row += m
            else:
                for c in ranking:
                    top[row + c] += weight
                    row += m
        for i in range(m, size):
            top[i] += top[i - m]
        return PositionTally(tuple(top), unranked, tuple(shares))

    @cached_property
    def pair_counts(self) -> PairCounts:
        """The pairwise counts, built once per profile from :attr:`arrays`.

        ``ahead - ahead.T`` is the margin matrix.  ``ahead`` and ``neither``
        also give the Borda scores of the election with a candidate removed
        (:func:`borda_scores`): one removal changes no other pair's order
        and drops only the ballots that rank nothing else.
        """
        positions, weights = self.arrays
        by_candidate = positions.T
        # Row a: weight of ballots placing a strictly above each b (unranked is m).
        ahead = np.array([(by_candidate[a] < by_candidate) @ weights for a in range(self.m)])
        unranked = by_candidate == self.m
        neither = (unranked * weights) @ unranked.T
        np.fill_diagonal(neither, 0)
        ahead.flags.writeable = neither.flags.writeable = False
        return PairCounts(ahead, neither)

    def with_seats(self, k: int) -> "Profile":
        """Same ballots, different seat count."""
        _check_shape(self.m, self.names, self.ballots, k)
        return Profile._derived(self.m, self.names, self.ballots, k)


def _array_sized(profile: Profile) -> bool:
    """Whether counts of ``profile`` run on its array form: at least
    ``_ARRAY_TALLY_TYPES`` ballot types, and ``n * m`` within int64."""
    return len(profile.ballots) >= _ARRAY_TALLY_TYPES and profile.n * profile.m <= _INT64_MAX


def _array_tally(m: int, positions: np.ndarray, weights: np.ndarray) -> PositionTally:
    """:attr:`Profile.tally` from the array form, in int64.

    Exact when ``n * m`` fits int64: no count exceeds ``n``, and no share
    of optimistic points exceeds ``n * (m - 2)``.
    """
    # Each ballot type's weight added into its (rank, candidate) cells; row m
    # collects the unranked candidates and is dropped.  Index and weights are
    # both flat: numpy 2.4's add.at adds wrong values when weights are
    # broadcast against a 2-D index.
    cells = np.zeros((m + 1) * m, np.int64)
    np.add.at(cells, (positions * m + np.arange(m)).ravel(), np.repeat(weights, m))
    top = cells[: m * m].reshape(m, m).cumsum(axis=0)
    ranked = positions < m
    shares = weights * np.maximum(m - 1 - ranked.sum(axis=1), 0)
    return PositionTally(
        tuple(top.ravel().tolist()), int(shares.sum()), tuple((shares @ ranked).tolist())
    )


def _check_shape(m: int, names: tuple[str, ...], ballots: Sequence[object], k: int) -> None:
    if m < 2:
        raise ProfileError(f"need at least 2 candidates, got m={m}")
    if m > _MAX_CANDIDATES:
        raise ProfileError(f"at most {_MAX_CANDIDATES} candidates fit a ballot, got m={m}")
    if len(names) != m:
        raise ProfileError(f"expected {m} names, got {len(names)}")
    if not 1 <= k < m:
        raise ProfileError(f"seat count k={k} must satisfy 1 <= k < m={m}")
    if not ballots:
        raise ProfileError("profile has no ballots")


def _check_ballots(m: int, rankings: Sequence[bytes], weights: Sequence[int]) -> Sequence[int]:
    """Raise :class:`ProfileError` naming the first invalid ballot, if any;
    return the weights as Python ints.

    The checks run as C-level passes over the ``bytes`` rankings and the
    weights; only failing input, rankings that did not encode, or weights of
    another integer type (numpy's) are walked ballot by ballot.  Order is the
    caller's to check.
    """
    try:
        joined = b"".join(rankings)
    except TypeError:  # rankings that did not encode, handed on by build
        joined = None
    if (
        joined is not None
        and {int}.issuperset(map(type, weights))
        and min(weights) >= 1
        and b"" not in rankings
        and not joined.translate(None, _INDEX_BYTES[:m])  # all indices below m
        and sum(map(len, map(set, rankings))) == len(joined)  # none repeated in a ballot
    ):
        return weights
    candidates = frozenset(range(m))
    for ranking, weight in zip(rankings, weights):
        ranking = tuple(ranking)
        try:
            operator.index(weight)
        except TypeError:
            raise ProfileError(f"ballot {ranking} has weight {weight!r}, not an integer") from None
        if weight < 1:
            raise ProfileError(f"ballot {ranking} has non-positive weight {weight}")
        if not 1 <= len(ranking) <= m:
            raise ProfileError(f"ballot length {len(ranking)} out of range 1..{m}")
        ranked = set(ranking)
        if len(ranked) != len(ranking):
            raise ProfileError(f"duplicate candidate in ballot {ranking}")
        if not ranked <= candidates:
            raise ProfileError(f"candidate index out of range in ballot {ranking}")
        try:
            bytes(ranking)
        except (TypeError, ValueError):
            raise ProfileError(f"candidate index not an integer in ballot {ranking}") from None
    return list(map(operator.index, weights))


def _canonical(rankings: Iterable[bytes], weights: Iterable[int]) -> tuple[Ballot, ...]:
    """Merge ballot types with equal rankings and sort them.

    Bytes compare as their rankings do for indices 0..255, prefixes first, so
    sorted rankings are the canonical ballot order.
    """
    merged: dict[bytes, int] = {}
    for ranking, weight in zip(rankings, weights):
        merged[ranking] = merged.get(ranking, 0) + weight
    ordered = sorted(merged)
    return tuple(map(_new_ballot, zip(ordered, map(merged.__getitem__, ordered))))


class _Outcome(NamedTuple):
    committees: frozenset[frozenset[int]]
    tie_flag: bool = False


class OutcomeSet(_Outcome):
    """The committees a rule declares winning.

    Usually a single committee; several under ties.  ``tie_flag`` is set when
    the set holds more than one committee or when a deterministic tie-break
    had to be invoked to produce a single one.  :attr:`winners` is the one
    committee itself when there is one, and the union of all otherwise.

    The constructor checks the invariant: at least one committee, all of one
    size.  :meth:`single` and the spoiler audit's re-indexing skip the check
    (``_new_outcome``): their outcomes meet it by construction.
    """

    __slots__ = ()

    def __new__(
        cls, committees: frozenset[frozenset[int]], tie_flag: bool = False
    ) -> "OutcomeSet":
        if not committees:
            raise ValueError("outcome must contain at least one committee")
        sizes = {len(c) for c in committees}
        if len(sizes) != 1:
            raise ValueError(f"committees of mixed sizes: {sorted(sizes)}")
        return tuple.__new__(cls, (committees, tie_flag))

    @classmethod
    def _make(cls, iterable: Iterable) -> "OutcomeSet":
        """Checked, so that ``_replace`` cannot break the invariant."""
        return cls(*iterable)

    @classmethod
    def single(cls, committee: Iterable[int], tie_flag: bool = False) -> "OutcomeSet":
        return _new_outcome((frozenset([frozenset(committee)]), tie_flag))

    @property
    def winners(self) -> frozenset[int]:
        """Union of all winning committees; the committee itself when there is one."""
        committees = self.committees
        if len(committees) == 1:
            (committee,) = committees
            return committee
        return frozenset().union(*committees)


# An outcome made without the constructor's check, for committees that meet it
# by construction: the same tuple, in C.
_new_outcome = partial(tuple.__new__, OutcomeSet)


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
    message = _check_removal(profile, c)
    keep = [x for x in range(profile.m) if x != c]
    return _restricted(profile, keep, profile.k, message)


def _check_removal(profile: Profile, c: int) -> str:
    """Raise :func:`remove_candidate`'s errors that come before its ballot
    count; return the text it raises when no ballot is left."""
    if not 0 <= c < profile.m:
        raise ProfileError(f"no candidate with index {c}")
    if profile.m - 1 <= profile.k:
        raise ProfileError(
            f"removing a candidate from m={profile.m} would leave m <= k={profile.k}"
        )
    return f"removing {profile.names[c]!r} leaves no ballots"


def _check_out(profile: Profile, c: int) -> None:
    """Raise the :class:`ProfileError` that ``remove_candidate(profile, c)``
    would raise, if any, without removing."""
    message = _check_removal(profile, c)
    if _alone_weight(profile, c) == profile.n:
        raise ProfileError(message)


def _alone_weight(profile: Profile, c: int) -> int:
    """The weight of the ballots that rank ``c`` alone, which its removal drops."""
    alone = _INDEX_BYTES[c : c + 1]
    ballots = profile.ballots
    i = bisect_left(ballots, alone, key=_ranking)
    return ballots[i].weight if i < len(ballots) and ballots[i].ranking == alone else 0


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
    return _restricted(profile, keep, k_new, "restriction leaves no ballots")


def _restricted(profile: Profile, keep: list[int], k: int, empty_message: str) -> Profile:
    """The election on the sorted, in-range candidates ``keep``, re-indexed densely.

    Ballots ranking none of ``keep`` are dropped; if none remain, raises
    :class:`ProfileError` with ``empty_message``.

    Each ranking is re-indexed with the dropped candidates deleted in one
    ``bytes.translate`` call, and :func:`_canonical` merges and sorts the
    reduced rankings.  The callers check ``keep`` and ``k``: the shape holds.
    """
    names = tuple(profile.names[c] for c in keep)
    new_index = bytearray(_MAX_CANDIDATES)
    for i, c in enumerate(keep):
        new_index[c] = i
    dropped = bytes(set(range(profile.m)).difference(keep))
    repeat = itertools.repeat
    rankings = map(_ranking, profile.ballots)
    reduced = map(bytes.translate, rankings, repeat(new_index), repeat(dropped))
    ballots = _canonical(reduced, map(_weight, profile.ballots))
    if not ballots[0].ranking:  # the empty ranking sorts first: it ranked only dropped candidates
        ballots = ballots[1:]
    if not ballots:
        raise ProfileError(empty_message)
    return Profile._derived(len(keep), names, ballots, k)


def first_place_counts(profile: Profile, out: int | None = None) -> tuple[int, ...]:
    """Weight of ballots whose first choice is each candidate (see :func:`top_k_counts`)."""
    return top_k_counts(profile, 1, out)


def top_k_counts(profile: Profile, k: int, out: int | None = None) -> tuple[int, ...]:
    """Weight of ballots ranking each candidate among their top ``k`` entries.

    Partial ballots contribute only for the candidates they actually rank;
    any ``k >= m`` counts every mention.  Read off :attr:`Profile.tally`.

    With ``out``, the counts of the election with candidate ``out`` removed,
    in this profile's indices (``out``'s own entry is 0), read off the
    tally and :attr:`Profile.arrays`: at depth ``j = min(k, m - 1)``, a
    candidate also gains the ballots that rank ``out`` among their first
    ``j`` entries and it at place ``j + 1``, since ``out``'s removal moves
    it up into the top ``j``.
    """
    if k < 1:
        raise ProfileError(f"k must be positive, got {k}")
    m = profile.m
    if out is None:
        depth = min(k, m)
        return profile.tally.top[(depth - 1) * m : depth * m]
    depth = min(k, m - 1)
    positions, weights = profile.arrays
    before = positions[:, out] < depth
    counts = weights[before] @ (positions[before] == depth)  # depth < m: ranked entries only
    counts += profile.tally.top[(depth - 1) * m : depth * m]
    counts[out] = 0
    return tuple(counts.tolist())


def borda_scores(
    profile: Profile, model: UnrankedModel, out: int | None = None
) -> tuple[int, ...]:
    """Positional scores: ``m - r`` points at rank ``r`` (1-based).

    A candidate missing from a ballot of length ``l`` earns ``m - l - 1``
    points under the optimistic model and zero under the pessimistic one.
    From :attr:`Profile.tally`: the pessimistic score is the sum of the
    candidate's top-``d`` counts for ``d = 1..m-1``; the optimistic one adds
    the unranked total less the share of the ballots ranking the candidate.

    With ``out``, the scores of the election with candidate ``out`` removed,
    in this profile's indices (``out``'s own entry is 0).  A candidate
    ``d``'s pessimistic score counts, for each other candidate ``e``, the
    ballots that rank ``d`` and not ``e`` before it; the optimistic one adds
    the ballots that rank neither (:attr:`Profile.pair_counts`).  So the
    removal takes ``ahead[d, out]`` from ``d``'s pessimistic score, and also
    ``neither[d, out]`` and, for each of the ``m - 2`` others, the ballots
    that rank ``out`` alone from its optimistic one.
    """
    m = profile.m
    top, unranked, shares = profile.tally
    pessimistic = tuple([sum(top[c : (m - 1) * m : m]) for c in range(m)])
    optimistic = UnrankedModel(model) is UnrankedModel.OPTIMISTIC
    scores = pessimistic
    if optimistic:
        scores = tuple([s + unranked - own for s, own in zip(pessimistic, shares)])
    if out is None:
        return scores
    ahead, neither = profile.pair_counts
    lost = ahead[:, out]
    if optimistic:
        lost = lost + neither[:, out] + (m - 2) * _alone_weight(profile, out)
    scores = scores - lost
    scores[out] = 0
    return tuple(scores.tolist())


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
    return _points(profile.arrays.positions, profile.m, model)


def _points(positions: np.ndarray, m: int, model: UnrankedModel) -> np.ndarray:
    """:func:`point_matrix` of the rank positions of ``m`` candidates (``m`` for unranked)."""
    # Unranked candidates (position m) get -1 here, and ranked ones at least
    # m - l, so raising every entry to the model's floor fixes the unranked
    # entries alone.
    points = m - 1 - positions
    if UnrankedModel(model) is UnrankedModel.OPTIMISTIC:
        floor = m - 1 - (positions < m).sum(axis=1, keepdims=True)
    else:
        floor = 0
    return np.maximum(points, floor, out=points)


def pairwise_matrix(profile: Profile) -> tuple[tuple[int, ...], ...]:
    """Antisymmetric margin matrix: entry ``[a][b]`` is (a over b) - (b over a).

    A ranked candidate beats an unranked one; two unranked candidates are
    mutually tied and contribute to neither side.  Read off
    :attr:`Profile.pair_counts`.
    """
    ahead, _ = profile.pair_counts
    return tuple(map(tuple, (ahead - ahead.T).tolist()))
