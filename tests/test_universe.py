"""The sorted ballot universe U(m) and the index-projection path.

Sampled profiles carry the U(m) position of each ballot type, and removal
and restriction project those positions instead of re-sorting tuples.  The
differential tests here hold that path to the former construction: every
sampled profile equals the one the draw-order oracle builds, and every
removal and restriction equals the tuple path on an index-free copy, error
texts included.
"""

import functools
import itertools
import math
import subprocess
import sys

import pytest

from mwspoilers.blt_io import emit_blt, parse_blt
from mwspoilers.core import (
    MAX_ENUMERATED_M,
    Profile,
    ProfileError,
    _projection,
    ranking_universe,
    remove_candidate,
    restrict_to_subset,
)
from mwspoilers.cultures import (
    CultureSpec,
    complete_universe,
    partial_universe,
    sample_profile,
)
from mwspoilers.extend import ExtensionConfig, extend_profile

from oracles import (
    draw_universe,
    index_free,
    restricted_ranking,
    sample_in_draw_order,
    spatial1d_by_sorting,
)


@functools.lru_cache(maxsize=None)
def universe_positions(m: int) -> dict[tuple[int, ...], int]:
    return {ranking: i for i, ranking in enumerate(ranking_universe(m))}


def positions(profile: Profile) -> tuple[int, ...]:
    """Each ballot type's U(m) position."""
    position = universe_positions(profile.m)
    return tuple(position[ranking] for ranking, _ in profile.ballots)


@pytest.mark.parametrize("m", range(1, MAX_ENUMERATED_M + 1))
def test_universe_is_every_ranking_once_in_lexicographic_order(m):
    universe = ranking_universe(m)
    assert list(universe) == sorted(set(universe))
    assert len(universe) == sum(math.perm(m, n) for n in range(1, m + 1))
    assert all(len(set(r)) == len(r) and set(r) <= set(range(m)) for r in universe)


def test_universe_refuses_large_m():
    with pytest.raises(ValueError):
        ranking_universe(MAX_ENUMERATED_M + 1)


@pytest.mark.parametrize("m", range(2, MAX_ENUMERATED_M + 1))
def test_draw_universes_keep_their_order(m):
    assert complete_universe(m) == draw_universe("complete", m)
    assert partial_universe(m) == draw_universe("partial", m)


@pytest.mark.parametrize("m", range(2, 7))
def test_projection_tables_match_restricted_rankings(m):
    universe = ranking_universe(m)
    for size in range(1, m + 1):
        for keep in itertools.combinations(range(m), size):
            position = universe_positions(size)
            expected = [position.get(restricted_ranking(r, keep), -1) for r in universe]
            assert list(_projection(m, keep)) == expected


def test_nothing_is_enumerated_at_import():
    probe = (
        "import mwspoilers\n"
        "from mwspoilers import core, cultures\n"
        "caches = (core.ranking_universe, core._ranking_positions, core._universe_tree,\n"
        "          core._projection, cultures._emission,\n"
        "          cultures.complete_universe, cultures.partial_universe)\n"
        "print(sum(f.cache_info().currsize for f in caches))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out == "0\n"


# ---------------------------------------------------------------------------
# Which profiles carry an index


def test_index_is_private_and_kept_by_with_seats():
    p = sample_profile(CultureSpec("ic", "complete", 4, 2, 50, seed=1), 0)
    free = index_free(p)
    assert p._universe_index == positions(p)
    assert free._universe_index is None
    assert p == free and hash(p) == hash(free) and repr(p) == repr(free)
    assert p.with_seats(1)._universe_index == p._universe_index
    assert remove_candidate(p, 0)._universe_index is not None
    assert remove_candidate(free, 0)._universe_index is None


def test_parsed_and_extended_profiles_carry_no_index():
    p = sample_profile(CultureSpec("ic", "partial", 4, 2, 50, seed=1), 0)
    parsed = parse_blt(emit_blt(p, title="t"))
    assert parsed == p and parsed._universe_index is None
    extended = extend_profile(p, ExtensionConfig())
    assert extended._universe_index is None


def test_spatial_profiles_beyond_the_universe_carry_no_index():
    m = MAX_ENUMERATED_M + 1
    p = sample_profile(CultureSpec("spatial1d", "complete", m, 2, 50, seed=1), 0)
    assert p._universe_index is None
    assert remove_candidate(p, 0)._universe_index is None


# ---------------------------------------------------------------------------
# Differential tests against the former construction and the tuple path

TRIALS = 1000
VOTERS = (1, 2, 3, 5, 8, 21, 55)  # n for trial t is VOTERS[t % len(VOTERS)]
LARGE_VOTERS = (1, 2, 3, 6)  # at m = 8 and 9, where each profile has hundreds of subsets

CASES = [
    (model, regime, m)
    for model in ("ic", "iac", "spatial1d")
    for regime in ("complete", "partial")
    for m in (3, 4, 5)
] + [("spatial1d", "partial", m) for m in (8, 9)]  # partial ballots take every length


def sampled_cases(model, regime, m):
    """(sampled profile, oracle profile) for each trial of one case."""
    voters = VOTERS if m <= 5 else LARGE_VOTERS
    specs = [CultureSpec(model, regime, m, 1, n, seed=100 * m + n) for n in voters]
    oracle = spatial1d_by_sorting if model == "spatial1d" else sample_in_draw_order
    for trial in range(TRIALS):
        spec = specs[trial % len(specs)]
        yield sample_profile(spec, trial), oracle(spec, trial)


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except ProfileError as exc:
        return f"ProfileError: {exc}"


@pytest.mark.parametrize("model, regime, m", CASES)
def test_indexed_path_matches_former_construction_and_tuple_path(model, regime, m):
    sampled = []
    for profile, expected in sampled_cases(model, regime, m):
        assert profile == expected
        if m <= MAX_ENUMERATED_M:
            assert profile._universe_index == positions(profile)
        else:
            assert profile._universe_index is None
        sampled.append(profile)
    free = [index_free(p) for p in sampled]

    # Beyond the universe both sides take the tuple path, so only removals
    # and the restrictions back to t >= m - 2 candidates are run there.
    smallest = 2 if m <= MAX_ENUMERATED_M else m - 2
    operations = [(remove_candidate, c) for c in range(m)]
    operations += [
        (restrict_to_subset, keep, 1)
        for size in range(smallest, m + 1)
        for keep in itertools.combinations(range(m), size)
    ]
    emptied = 0
    for fn, *args in operations:  # one projection table at a time
        got = [result_or_error(fn, p, *args) for p in sampled]
        assert got == [result_or_error(fn, p, *args) for p in free]
        for result in got:
            if isinstance(result, str):
                emptied += 1
            elif m > MAX_ENUMERATED_M:
                assert result._universe_index is None
            else:
                assert result._universe_index == positions(result)
    if regime == "partial":
        assert emptied > 0  # the "leaves no ballots" texts were compared too
