"""Bytes rankings and the byte path of removal and restriction.

A ballot's ranking is its key: ``bytes``, one byte per candidate index.
Removal and restriction re-index the rankings with ``bytes.translate`` and
merge and sort them.  The tests here hold that path to rankings restricted
one at a time by name (``oracles.restricted_ranking``), encoded with
``bytes(...)`` and merged and sorted, and check that every profile, built,
sampled or derived, holds ``bytes`` rankings.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers.blt_io import emit_blt, parse_blt
from mwspoilers.core import (
    Ballot,
    Profile,
    ProfileError,
    default_names,
    remove_candidate,
    restrict_to_subset,
)
from mwspoilers.cultures import CultureSpec, sample_profile
from mwspoilers.extend import extend_profile

from oracles import restricted_ranking


def assert_keys(profile: Profile) -> None:
    assert all(type(ranking) is bytes for ranking, _ in profile.ballots)


def restricted_by_oracle(profile: Profile, keep: tuple[int, ...], k: int) -> Profile | None:
    """The election on the sorted original candidates ``keep``; None if no ballot is left."""
    merged: dict[bytes, int] = {}
    for ranking, weight in profile.ballots:
        reduced = bytes(restricted_ranking(ranking, keep))
        if reduced:
            merged[reduced] = merged.get(reduced, 0) + weight
    if not merged:
        return None
    ballots = tuple(sorted(merged.items()))
    return Profile(len(keep), tuple(profile.names[c] for c in keep), ballots, k)


@st.composite
def profiles(draw, max_m: int = 12):
    m = draw(st.integers(2, max_m))
    ranking = st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)
    ballots = draw(st.lists(st.tuples(ranking, st.integers(1, 9)), min_size=1, max_size=25))
    return Profile.build(m, default_names(m), ballots, draw(st.integers(1, m - 1)))


@given(profiles(), st.data())
@settings(max_examples=200)
def test_chains_of_removal_restriction_and_seats_match_the_oracle(p, data):
    assert_keys(p)
    keep = tuple(range(p.m))  # original indices of the current candidates
    current = p
    for _ in range(data.draw(st.integers(1, 4))):
        step = data.draw(st.sampled_from(["remove", "restrict", "seats"]))
        if step == "remove":
            if current.m - 1 <= current.k:
                continue
            c = data.draw(st.integers(0, current.m - 1))
            keep, k = keep[:c] + keep[c + 1 :], current.k
            operation = lambda q: remove_candidate(q, c)  # noqa: E731
        elif step == "restrict":
            subset = sorted(data.draw(st.sets(st.integers(0, current.m - 1), min_size=2)))
            keep, k = tuple(keep[i] for i in subset), data.draw(st.integers(1, len(subset) - 1))
            operation = lambda q: restrict_to_subset(q, subset, k)  # noqa: E731
        else:
            k = data.draw(st.integers(1, current.m - 1))
            operation = lambda q: q.with_seats(k)  # noqa: E731
        expected = restricted_by_oracle(p, keep, k)
        if expected is None:
            with pytest.raises(ProfileError, match="leaves no ballots$"):
                operation(current)
            return
        current = operation(current)
        assert current == expected
        assert_keys(current)


def test_ward_removals_match_the_oracle(ward):
    assert_keys(ward)
    for c in range(ward.m):
        reduced = remove_candidate(ward, c)
        assert reduced == restricted_by_oracle(ward, tuple(x for x in range(ward.m) if x != c), 4)
        assert_keys(reduced)


def test_256_candidates():
    m = 256
    ballots = [((255, 0, 128), 2), ((0,), 3), ((7, 255), 1), ((255,), 4), ((128, 255), 5)]
    p = Profile.build(m, default_names(m), ballots, 3)
    assert_keys(p)
    assert p.ballots[-1].ranking == b"\xff\x00\x80"
    for c in (0, 128, 254, 255):
        reduced = remove_candidate(p, c)
        assert reduced == restricted_by_oracle(p, tuple(x for x in range(m) if x != c), 3)
        assert_keys(reduced)
    subset = (0, 7, 128, 255)
    restricted = restrict_to_subset(p, subset, 2)
    assert restricted.ballots == (
        Ballot(b"\x00", 3),
        Ballot(b"\x01\x03", 1),
        Ballot(b"\x02\x03", 5),
        Ballot(b"\x03", 4),
        Ballot(b"\x03\x00\x02", 2),
    )
    assert_keys(restricted)
    assert_keys(restricted.with_seats(1))


@pytest.mark.parametrize("m", range(2, 7))
def test_restriction_of_every_ranking_matches_the_oracle(m):
    # Every strict ranking of length 1..m once, so each kept set meets every reduction.
    rankings = [r for n in range(1, m + 1) for r in itertools.permutations(range(m), n)]
    p = Profile.build(m, default_names(m), [(r, 1 + i % 3) for i, r in enumerate(rankings)], 1)
    for size in range(2, m + 1):
        for keep in itertools.combinations(range(m), size):
            restricted = restrict_to_subset(p, keep, 1)
            assert restricted == restricted_by_oracle(p, keep, 1)
            assert_keys(restricted)
    if m > 2:  # removal must leave more than k = 1 candidates
        for c in range(m):
            removed = remove_candidate(p, c)
            assert removed == restricted_by_oracle(p, tuple(x for x in range(m) if x != c), 1)
            assert_keys(removed)


@pytest.mark.parametrize("model", ["ic", "iac", "spatial1d"])
@pytest.mark.parametrize("regime", ["complete", "partial"])
def test_sampled_profiles_and_their_derivations_store_their_keys(model, regime):
    p = sample_profile(CultureSpec(model, regime, 5, 2, 40, seed=3), 0)
    derived = [remove_candidate(p, c) for c in range(p.m)] + [restrict_to_subset(p, [0, 2, 4], 1)]
    for result in [p, *derived, p.with_seats(3)]:
        assert_keys(result)
        fresh = Profile(result.m, result.names, result.ballots, result.k)
        for got, expected in zip(result.arrays, fresh.arrays):
            assert (got == expected).all()


def test_parsed_and_extended_profiles_hold_bytes_rankings(ward):
    parsed = parse_blt(emit_blt(ward))
    assert parsed == ward
    assert_keys(parsed)
    extended = extend_profile(parsed, stop_ratio=0.01)
    assert extended != parsed
    assert_keys(extended)
