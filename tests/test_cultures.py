import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mwspoilers.core import Profile
from mwspoilers.cultures import (
    CultureSpec,
    complete_universe,
    partial_universe,
    sample_iac,
    sample_ic,
    sample_profile,
    sample_spatial1d,
    trial_rng,
)

from oracles import spatial1d_by_sorting


def spec(model, regime, m=4, k=2, n=1001, seed=7):
    return CultureSpec(model=model, regime=regime, m=m, k=k, n=n, seed=seed)


def test_universe_sizes():
    assert len(complete_universe(4)) == 24
    assert len(partial_universe(3)) == 9  # 3 singles + 6 pairs
    assert len(partial_universe(5)) == 205  # 5 + 20 + 60 + 120
    with pytest.raises(ValueError):
        partial_universe(9)


def test_partial_universe_excludes_full_rankings():
    assert all(1 <= len(r) <= 3 for r in partial_universe(4))
    assert all(len(set(r)) == len(r) for r in partial_universe(4))


def test_spec_validation():
    with pytest.raises(ValueError):
        CultureSpec("urn", "complete", 4, 2, 10)
    with pytest.raises(ValueError):
        CultureSpec("ic", "half", 4, 2, 10)
    with pytest.raises(ValueError):
        CultureSpec("ic", "complete", 4, 4, 10)
    with pytest.raises(ValueError, match="enumerates"):
        CultureSpec("iac", "partial", 9, 2, 10)
    CultureSpec("spatial1d", "partial", 9, 2, 10)  # ranks voters, enumerates nothing
    CultureSpec("spatial1d", "partial", 256, 2, 10)
    with pytest.raises(ValueError, match="^at most 256 candidates supported, got m=257$"):
        CultureSpec("spatial1d", "partial", 257, 2, 10)


@pytest.mark.parametrize("model", ["ic", "iac", "spatial1d"])
@pytest.mark.parametrize("regime", ["complete", "partial"])
def test_samplers_are_deterministic_in_spec_and_trial(model, regime):
    s = spec(model, regime)
    a = sample_profile(s, trial=3)
    b = sample_profile(s, trial=3)
    c = sample_profile(s, trial=4)
    assert a == b
    assert a != c  # astronomically unlikely to collide
    assert a.n == s.n and a.m == s.m and a.k == s.k


def test_ic_complete_ballots_are_full_rankings():
    p = sample_ic(spec("ic", "complete"), 0)
    assert all(len(b.ranking) == 4 for b in p.ballots)


def test_ic_partial_never_emits_full_rankings():
    for trial in range(5):
        p = sample_ic(spec("ic", "partial", m=4), trial)
        assert all(1 <= len(b.ranking) <= 3 for b in p.ballots)


def test_ic_complete_uniformity_chi_square():
    # 10^6 ballots over the 24 rankings of 4 candidates.
    p = sample_ic(spec("ic", "complete", n=1_000_000), 0)
    counts = {b.ranking: b.weight for b in p.ballots}
    observed = [counts.get(r, 0) for r in complete_universe(4)]
    assert stats.chisquare(observed).pvalue > 0.001


def test_iac_two_candidate_compositions_equally_likely():
    # n=2, m=2 complete: the anonymous profiles (2,0), (1,1), (0,2) each 1/3.
    s = spec("iac", "complete", m=2, k=1, n=2)
    seen = {(2, 0): 0, (1, 1): 0, (0, 2): 0}
    draws = 3000
    for trial in range(draws):
        p = sample_iac(s, trial)
        counts = {b.ranking: b.weight for b in p.ballots}
        seen[(counts.get(b"\x00\x01", 0), counts.get(b"\x01\x00", 0))] += 1
    for count in seen.values():
        assert abs(count - draws / 3) < 110  # ~4 sigma


def test_iac_marginal_mean_is_n_over_t():
    # Mean count of a fixed ballot type over many profiles approaches n/T.
    s = spec("iac", "partial", m=3, k=1, n=90)
    t = len(partial_universe(3))
    target = next(iter(partial_universe(3)))
    draws = 4000
    total = 0
    for trial in range(draws):
        p = sample_iac(s, trial)
        total += sum(b.weight for b in p.ballots if b.ranking == target)
    mean = total / draws
    # Composition counts have sd ~ sqrt(2) * n/T here; allow 4 sigma of the mean.
    assert abs(mean - s.n / t) < 4 * np.sqrt(2) * (s.n / t) / np.sqrt(draws)


def test_spatial_complete_emits_length_m_minus_1():
    p = sample_spatial1d(spec("spatial1d", "complete", m=5, k=2, n=300), 1)
    assert all(len(b.ranking) == 4 for b in p.ballots)


def test_spatial_partial_lengths_in_range():
    p = sample_spatial1d(spec("spatial1d", "partial", m=5, k=2, n=300), 1)
    lengths = {len(b.ranking) for b in p.ballots}
    assert lengths <= {1, 2, 3, 4}


def test_spatial_ballots_are_single_peaked():
    # Reconstruct the candidate axis from the documented stream layout:
    # candidate positions are the first m draws of the trial's generator.
    for trial in range(6):
        s = spec("spatial1d", "complete", m=5, k=2, n=200)
        axis = np.argsort(trial_rng(s, trial).standard_normal(s.m))
        place = {int(c): i for i, c in enumerate(axis)}
        p = sample_spatial1d(s, trial)
        for ranking, _ in p.ballots:
            # Every prefix of a distance ranking occupies consecutive seats
            # on the axis.
            spots = []
            for c in ranking:
                spots.append(place[c])
                assert max(spots) - min(spots) == len(spots) - 1


def test_spatial_leftmost_voter_ranks_left_to_right():
    # A voter far to the left of every candidate ranks them in axis order.
    s = spec("spatial1d", "complete", m=4, k=2, n=50)
    rng = trial_rng(s, 2)
    cands = rng.standard_normal(s.m)
    axis = list(np.argsort(cands))
    p = sample_spatial1d(s, 2)
    leftmost_type = tuple(axis[: s.m - 1])
    # That ballot type is admissible; if any sampled voter sits left of all
    # candidates it must appear. Check consistency instead of presence.
    for ranking, _ in p.ballots:
        if ranking[0] == axis[0]:
            prefix_places = [axis.index(c) for c in ranking]
            assert prefix_places == sorted(prefix_places)
    assert len(leftmost_type) == s.m - 1


def test_different_seeds_differ():
    a = sample_profile(spec("ic", "complete", seed=1), 0)
    b = sample_profile(spec("ic", "complete", seed=2), 0)
    assert a != b


@pytest.mark.parametrize("model", ["ic", "iac", "spatial1d"])
@pytest.mark.parametrize("regime", ["complete", "partial"])
@pytest.mark.parametrize("m", range(2, 9))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_sampled_profiles_pass_full_validation(model, regime, m, data):
    k = data.draw(st.integers(1, m - 1))
    n = data.draw(st.integers(1, 300))
    s = spec(model, regime, m=m, k=k, n=n, seed=data.draw(st.integers(0, 2**32)))
    p = sample_profile(s, data.draw(st.integers(0, 1000)))
    assert all(type(ranking) is bytes for ranking, _ in p.ballots)
    validated = Profile(m=p.m, names=p.names, ballots=p.ballots, k=p.k)
    assert validated == p


@pytest.mark.parametrize("regime", ["complete", "partial"])
@pytest.mark.parametrize("m", range(3, 9))
def test_spatial_interval_sampler_matches_per_voter_sort(regime, m):
    for n in (1, 7, 1001):
        s = spec("spatial1d", regime, m=m, k=1, n=n, seed=31 * m + n)
        for trial in range(60):
            assert sample_spatial1d(s, trial) == spatial1d_by_sorting(s, trial)


class ScriptedNormals:
    """Stands in for a trial's generator: hands out fixed normal draws in order."""

    def __init__(self, *draws):
        self.draws = [np.array(d, dtype=float) for d in draws]
        self.calls = 0

    def standard_normal(self, size):
        out = self.draws[self.calls]
        assert len(out) == size
        self.calls += 1
        return out.copy()


def test_spatial_voters_on_a_midpoint_are_redrawn(monkeypatch):
    # Candidates 0, 1, 3 have midpoints 0.5, 1.5 and 2.0.  The first voter
    # draw hits the lowest and the highest midpoint exactly; the next draw
    # replaces those two voters and no others, in order.
    draws = ([0.0, 1.0, 3.0], [0.5, -1.0, 2.0, 5.0], [0.7, 2.5])
    s = spec("spatial1d", "complete", m=3, k=1, n=4)
    monkeypatch.setattr("mwspoilers.cultures.trial_rng", lambda spec, t: ScriptedNormals(*draws))
    monkeypatch.setattr("oracles.trial_rng", lambda spec, t: ScriptedNormals(*draws))
    sampled = sample_spatial1d(s)
    assert sampled == spatial1d_by_sorting(s)
    # Voters end at 0.7, -1.0, 2.5, 5.0: nearest-first orders of the top two.
    assert sampled.ballots == ((b"\x00\x01", 1), (b"\x01\x00", 1), (b"\x02\x01", 2))
