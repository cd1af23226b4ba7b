"""The samplers' draw universes and their emission through ``Profile.build``.

IC and IAC draw over :func:`complete_universe` or :func:`partial_universe`,
whose order the draws depend on, and hand their nonzero counts to
``Profile.build`` in draw order as ``bytes`` rankings; the spatial sampler
counts voters per bin and hands build one ranking per occupied bin.  The
tests here pin the draw order to the oracle's enumeration, check that each
draw universe holds every ranking of its lengths once and that build puts
the emission in canonical order, check that nothing is enumerated at import,
and hold every sampler to its former construction
(``oracles.sample_in_draw_order`` and ``spatial1d_by_sorting``).
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from mwspoilers.cultures import (
    MAX_ENUMERATED_M,
    CultureSpec,
    _from_counts,
    complete_universe,
    partial_universe,
    sample_profile,
)

from oracles import draw_universe, sample_in_draw_order, spatial1d_by_sorting


@pytest.mark.parametrize("m", range(2, MAX_ENUMERATED_M + 1))
def test_draw_universes_keep_their_order(m):
    assert complete_universe(m) == tuple(map(bytes, draw_universe("complete", m)))
    assert partial_universe(m) == tuple(map(bytes, draw_universe("partial", m)))


@pytest.mark.parametrize("m", range(1, MAX_ENUMERATED_M + 1))
def test_draw_universes_hold_every_ranking_once(m):
    for universe, lengths in (
        (complete_universe(m), [m]),
        (partial_universe(m), range(1, m)),
    ):
        assert all(type(r) is bytes for r in universe)
        assert len(set(universe)) == len(universe) == sum(math.perm(m, n) for n in lengths)
        assert all(len(set(r)) == len(r) and set(r) <= set(range(m)) for r in universe)
        assert {len(r) for r in universe} == set(lengths)


@pytest.mark.parametrize("universe", [complete_universe, partial_universe])
def test_draw_universes_refuse_large_m(universe):
    with pytest.raises(ValueError, match=f"m > {MAX_ENUMERATED_M}"):
        universe(MAX_ENUMERATED_M + 1)


@pytest.mark.parametrize("regime", ["complete", "partial"])
@pytest.mark.parametrize("m", range(2, 7))
def test_emission_is_the_draw_universe_in_canonical_order(regime, m):
    universe = draw_universe(regime, m)
    counts = np.arange(1, len(universe) + 1)  # every type held, each weight telling its index
    p = _from_counts(CultureSpec("ic", regime, m, 1, int(counts.sum())), counts)
    by_ranking = sorted(zip(map(bytes, universe), counts.tolist()))
    assert p.ballots == tuple(by_ranking)


def test_nothing_is_enumerated_at_import():
    probe = (
        "import mwspoilers\n"
        "from mwspoilers import cultures\n"
        "caches = (cultures.complete_universe, cultures.partial_universe)\n"
        "print(sum(f.cache_info().currsize for f in caches))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out == "0\n"


# ---------------------------------------------------------------------------
# Differential tests against the former construction

TRIALS = 1000
VOTERS = (1, 2, 3, 5, 8, 21, 55)  # n for trial t is VOTERS[t % len(VOTERS)]

CASES = [
    (model, regime, m)
    for model in ("ic", "iac", "spatial1d")
    for regime in ("complete", "partial")
    for m in (3, 4, 5)
] + [("spatial1d", "partial", m) for m in (8, 9)]  # partial ballots take every length


@pytest.mark.parametrize("model, regime, m", CASES)
def test_samplers_match_their_former_construction(model, regime, m):
    specs = [CultureSpec(model, regime, m, 1, n, seed=100 * m + n) for n in VOTERS]
    oracle = spatial1d_by_sorting if model == "spatial1d" else sample_in_draw_order
    for trial in range(TRIALS):
        spec = specs[trial % len(specs)]
        assert sample_profile(spec, trial) == oracle(spec, trial)
