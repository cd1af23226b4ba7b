"""Seeded synthetic ``.blt`` corpus shaped like a Scottish ward archive.

Each election is a noisy two-dimensional spatial model: candidates and
voters take standard normal positions in the plane, a voter's utility for a
candidate is minus their distance plus Gumbel noise, and the ballot ranks
candidates by utility, truncated to a geometric length.  That gives few,
large profiles with many distinct truncated ballot types, which the
library's own cultures cannot produce (they enumerate ballot universes only
up to m = 8, and ``spatial1d`` yields at most C(m, 2) + 1 orders).

The election shapes are fixed and only the ballots depend on the seed, so
the work per corpus varies little from seed to seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mwspoilers import Profile, emit_blt

# (m, k, n): candidates, seats and voters per election, in file order.
SHAPES = ((6, 3, 2500), (7, 4, 3000), (8, 3, 3000), (9, 4, 4000), (10, 4, 5000))
SMOKE_SHAPES = ((6, 3, 300), (7, 3, 400))

NOISE = 0.6  # Gumbel scale relative to the unit spread of positions
STOP_P = 0.25  # chance of ending the ballot after each ranked candidate


@dataclass(frozen=True)
class ElectionShape:
    """What one generated file holds; printed with every run."""

    file: str
    m: int
    k: int
    n: int
    ballot_types: int
    bytes: int


def synthetic_profile(seed: int, index: int, m: int, k: int, n: int) -> Profile:
    """Election ``index`` of the corpus for ``seed``; a pure function of its arguments."""
    rng = np.random.default_rng([seed, index])
    cands = rng.standard_normal((m, 2))
    voters = rng.standard_normal((n, 2))
    dist = np.linalg.norm(voters[:, None, :] - cands[None, :, :], axis=2)
    utility = NOISE * rng.gumbel(size=(n, m)) - dist
    order = np.argsort(-utility, axis=1)
    lengths = np.minimum(rng.geometric(STOP_P, size=n), m)
    ballots = Counter(tuple(row[:length].tolist()) for row, length in zip(order, lengths))
    names = [f"Candidate {chr(ord('A') + c)}" for c in range(m)]
    return Profile.build(m, names, ballots.items(), k)


def write_corpus(directory: Path, seed: int, shapes=SHAPES) -> list[ElectionShape]:
    """Write one ``.blt`` file per shape, each in a directory of its own.

    ``file`` in the returned shapes is the path relative to ``directory``.
    """
    written = []
    for index, (m, k, n) in enumerate(shapes):
        profile = synthetic_profile(seed, index, m, k, n)
        data = emit_blt(profile, title=f"Synthetic ward {index + 1} (seed {seed})")
        name = f"ward{index + 1:02d}"
        (directory / name).mkdir(parents=True)
        (directory / name / f"{name}.blt").write_bytes(data)
        written.append(ElectionShape(f"{name}/{name}.blt", m, k, n, len(profile.ballots), len(data)))
    return written
