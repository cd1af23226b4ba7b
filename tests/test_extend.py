import numpy as np
import pytest

from mwspoilers.core import Profile, default_names
from mwspoilers.extend import extend_profile, hamilton_apportion

from conftest import random_profile


# ---------------------------------------------------------------------------
# Hamilton apportionment


def test_hamilton_continuation_example():
    assert hamilton_apportion([2.368, 3.158, 4.474], 10) == [2, 3, 5]


def test_hamilton_integer_quotas_pass_through():
    assert hamilton_apportion([1.0, 2.0, 3.0], 6) == [1, 2, 3]


def test_hamilton_half_half_tie_goes_to_lower_index():
    assert hamilton_apportion([0.5, 0.5], 1) == [1, 0]


def test_hamilton_remainder_tie_prefers_larger_quota():
    assert hamilton_apportion([2.5, 0.5], 3) == [3, 0]


def test_hamilton_validates_input():
    with pytest.raises(ValueError):
        hamilton_apportion([-0.1, 1.1], 1)
    with pytest.raises(ValueError):
        hamilton_apportion([0.4, 0.4], 1)


def test_hamilton_output_brackets_quotas():
    rng = np.random.default_rng(5)
    for _ in range(200):
        parts = int(rng.integers(1, 8))
        total = int(rng.integers(0, 30))
        cuts = np.sort(rng.uniform(0, total, size=parts - 1))
        quotas = np.diff(np.concatenate([[0.0], cuts, [float(total)]]))
        out = hamilton_apportion(list(quotas), total)
        assert sum(out) == total
        for q, s in zip(quotas, out):
            assert int(np.floor(q)) <= s <= int(np.ceil(q))


# ---------------------------------------------------------------------------
# extend_profile


def seat_profile(ballots, m=6, k=2):
    return Profile.build(m, default_names(m), ballots, k)


def test_extension_follows_observed_continuations():
    # 10 short A>B>C ballots against 38 longer ones splitting 9/12/17 on the
    # fourth choice: the shares round to 2, 3, 5.
    p = seat_profile(
        [
            ((0, 1, 2), 10),
            ((0, 1, 2, 3), 9),
            ((0, 1, 2, 4), 12),
            ((0, 1, 2, 5), 17),
        ]
    )
    out = extend_profile(p)
    weights = {b.ranking: b.weight for b in out.ballots}
    assert weights[b"\x00\x01\x02\x03"] == 9 + 2
    assert weights[b"\x00\x01\x02\x04"] == 12 + 3
    assert weights[b"\x00\x01\x02\x05"] == 17 + 5
    assert b"\x00\x01\x02" not in weights
    assert out.n == p.n


def test_prefix_without_continuations_is_left_alone():
    p = seat_profile([((0, 1), 5), ((2, 3, 4), 40)], m=5)
    out = extend_profile(p)
    assert {b.ranking for b in out.ballots} >= {b"\x00\x01"}


def test_already_complete_profile_is_identity():
    p = seat_profile([((0, 1, 2, 3, 4, 5), 3), ((5, 4, 3, 2, 1, 0), 2)])
    assert extend_profile(p) == p


def test_length_m_minus_1_counts_as_complete():
    p = seat_profile([((0, 1), 1), ((1, 0), 9)], m=3, k=1)
    assert extend_profile(p) == p


def test_stop_ratio_blocks_thin_evidence():
    # One long ballot against 100 short ones is under the 10% threshold, so
    # the short ballots stay short; with the threshold dropped they extend.
    p = seat_profile([((0, 1), 100), ((0, 1, 2), 1)], m=4)
    assert extend_profile(p) == p
    out = extend_profile(p, stop_ratio=0.005)
    assert {b.ranking for b in out.ballots} == {b"\x00\x01\x02"}
    assert out.n == 101


def test_extension_iterates_passes():
    p = seat_profile([((0,), 4), ((0, 1, 2, 3), 2)], m=4)
    out = extend_profile(p)
    # Bullet votes ride the observed chain up to length m-1, which already
    # determines a complete ranking and is not extended further.
    assert {b.ranking for b in out.ballots} == {b"\x00\x01\x02", b"\x00\x01\x02\x03"}
    assert out.n == 6


def test_extension_preserves_weight_and_prefixes():
    rng = np.random.default_rng(17)
    for _ in range(60):
        p = random_profile(rng, max_m=5)
        out = extend_profile(p)
        assert out.n == p.n
        assert out.m == p.m and out.k == p.k
        # Each extended type must trace back to an original prefix.
        originals = sorted(
            (b.ranking for b in p.ballots), key=len, reverse=True
        )
        for ranking, _ in out.ballots:
            assert any(
                ranking[: len(o)] == o or o[: len(ranking)] == ranking
                for o in originals
            )


def test_extension_never_shortens():
    rng = np.random.default_rng(18)
    for _ in range(40):
        p = random_profile(rng, max_m=5)
        out = extend_profile(p)
        shortest_before = min(len(b.ranking) for b in p.ballots)
        shortest_after = min(len(b.ranking) for b in out.ballots)
        assert shortest_after >= shortest_before


def test_config_validation():
    p = seat_profile([((0, 1), 1)], m=3, k=1)
    with pytest.raises(ValueError, match=r"^stop_ratio must be in \(0, 1\], got 0.0$"):
        extend_profile(p, stop_ratio=0.0)
    with pytest.raises(ValueError, match=r"^stop_ratio must be in \(0, 1\], got 1.5$"):
        extend_profile(p, stop_ratio=1.5)
