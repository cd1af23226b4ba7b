import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from mwspoilers.core import Profile, default_names
from mwspoilers.methods import TieError


def vote_splitting_profile(k: int = 1) -> Profile:
    """The textbook plurality vote-splitting election.

    100 voters A>W>S, 90 voters W>S>A, 40 voters S>W>A.  A wins on first
    preferences only because W and S divide the rest.
    """
    return Profile.build(
        3,
        ("A", "W", "S"),
        [((0, 1, 2), 100), ((1, 2, 0), 90), ((2, 1, 0), 40)],
        k,
    )


def random_profile(
    rng: np.random.Generator,
    max_m: int = 6,
    max_weight: int = 6,
    max_types: int = 12,
    complete: bool = False,
) -> Profile:
    """Small random election for oracle comparisons."""
    m = int(rng.integers(3, max_m + 1))
    k = int(rng.integers(1, m))
    num_types = int(rng.integers(1, max_types + 1))
    ballots = []
    for _ in range(num_types):
        length = m if complete else int(rng.integers(1, m + 1))
        ranking = tuple(int(c) for c in rng.permutation(m)[:length])
        ballots.append((ranking, int(rng.integers(1, max_weight + 1))))
    return Profile.build(m, default_names(m), ballots, k)


@st.composite
def ranked_profiles(draw):
    """Elections of m 2-8 on partial or complete ballots.

    Few, often short ballots make ties and exhausted ballots common.  Names
    run backwards half of the time, so that name order and index order
    disagree.
    """
    m = draw(st.integers(2, 8))
    k = draw(st.integers(1, m - 1))
    lengths = st.integers(1, m) if draw(st.booleans()) else st.just(m)
    ballot = st.tuples(st.permutations(range(m)), lengths, st.integers(1, 4))
    ballots = draw(st.lists(ballot, min_size=1, max_size=10))
    names = default_names(m)
    if draw(st.booleans()):
        names = names[::-1]
    return Profile.build(m, names, [(order[:n], w) for order, n, w in ballots], k)


def outcome_or_tie(rule, *args):
    """The rule's outcome, or the text of the ``TieError`` it raised."""
    try:
        return rule(*args)
    except TieError as exc:
        return f"TieError: {exc}"


@pytest.fixture
def table_profile() -> Profile:
    return vote_splitting_profile()


@pytest.fixture(scope="module")
def ward() -> Profile:
    """A seeded m=10, k=4 partial-ballot election of about 2,000 ballot types."""
    m = 10
    rng = np.random.default_rng(20240607)
    ballots = []
    for _ in range(2600):
        length = int(rng.integers(1, m))
        ballots.append((tuple(rng.permutation(m)[:length].tolist()), int(rng.integers(1, 40))))
    profile = Profile.build(m, default_names(m), ballots, 4)
    assert 1900 <= len(profile.ballots) <= 2100
    return profile
