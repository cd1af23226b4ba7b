import sys
from pathlib import Path

import numpy as np
import pytest

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


def outcome_or_tie(rule, *args):
    """The rule's outcome, or the text of the ``TieError`` it raised."""
    try:
        return rule(*args)
    except TieError as exc:
        return f"TieError: {exc}"


@pytest.fixture
def table_profile() -> Profile:
    return vote_splitting_profile()
