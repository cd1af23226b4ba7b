"""Proportional lengthening of partial ballots.

Real preference data is heavily truncated, which skews any comparison with
complete-ballot simulations.  :func:`extend_profile` fills ballots in from
the voters who said more: ballots of length ``j`` are extended to length
``j + 1`` in proportion to the next choices observed among longer ballots
sharing the same prefix, with the fractional shares integerized by Hamilton
(largest-remainder) apportionment so total ballot weight is conserved
exactly.

Passes run over ascending lengths.  A pass is skipped when the evidence is
thin: when the weight of ballots longer than ``j`` is below ``stop_ratio``
(an argument of :func:`extend_profile`, default 10%) of the weight at
length ``j``.  Within a pass all prefixes use the statistics frozen at the
start of the pass, so the result does not depend on prefix enumeration
order.  Ballots of length ``m - 1`` already determine a full ranking and
are never extended.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Sequence

from .core import Profile


def hamilton_apportion(quotas: Sequence[float | Fraction], total: int) -> list[int]:
    """Round fractional quotas to integers summing exactly to ``total``.

    Everyone gets their floor; the leftover seats go to the largest
    fractional remainders, ties broken by larger quota and then lower index.
    The quotas must already sum to ``total`` (tolerance 1e-9).
    """
    if any(q < 0 for q in quotas):
        raise ValueError("quotas must be non-negative")
    if abs(float(sum(quotas)) - total) > 1e-9:
        raise ValueError(f"quotas sum to {float(sum(quotas))}, expected {total}")
    floors = [floor(q) for q in quotas]
    remainders = [q - f for q, f in zip(quotas, floors)]
    leftover = total - sum(floors)
    order = sorted(
        range(len(quotas)), key=lambda i: (-remainders[i], -quotas[i], i)
    )
    out = list(floors)
    for i in order[:leftover]:
        out[i] += 1
    return out


def extend_profile(profile: Profile, stop_ratio: float = 0.10) -> Profile:
    """Extend partial ballots toward complete rankings; weight is conserved.

    ``stop_ratio``, in (0, 1], is the stopping rule of the module docstring.
    Prefixes with no observed continuation are left alone, so the operation
    only ever appends to a ballot and never invents preferences no longer
    ballot exhibits.
    """
    if not 0 < stop_ratio <= 1:
        raise ValueError(f"stop_ratio must be in (0, 1], got {stop_ratio}")
    state: dict[bytes, int] = {r: w for r, w in profile.ballots}

    for length in range(1, profile.m - 1):
        weight_at = sum(w for r, w in state.items() if len(r) == length)
        weight_longer = sum(w for r, w in state.items() if len(r) >= length + 1)
        if weight_at == 0:
            continue
        if weight_longer < stop_ratio * weight_at:
            continue

        # Continuation statistics frozen before any ballot of this pass moves.
        continuations: dict[bytes, dict[int, int]] = {}
        for ranking, weight in state.items():
            if len(ranking) >= length + 1:
                nxt = continuations.setdefault(ranking[:length], {})
                nxt[ranking[length]] = nxt.get(ranking[length], 0) + weight

        next_state: dict[bytes, int] = {}

        def put(ranking: bytes, weight: int) -> None:
            next_state[ranking] = next_state.get(ranking, 0) + weight

        for ranking, weight in state.items():
            if len(ranking) != length:
                put(ranking, weight)
                continue
            observed = continuations.get(ranking)
            if not observed:
                put(ranking, weight)
                continue
            followers = sorted(observed)
            pool = sum(observed[c] for c in followers)
            quotas = [Fraction(weight * observed[c], pool) for c in followers]
            shares = hamilton_apportion(quotas, weight)
            for c, share in zip(followers, shares):
                if share:
                    put(ranking + bytes((c,)), share)
        state = next_state

    return Profile.build(
        profile.m, profile.names, state.items(), profile.k
    )
