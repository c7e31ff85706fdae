"""Seeded stream of weight vectors for the `query` workload.

This module imports only `random` and `fractions`, so the inputs never
depend on the package under test.  Each alpha is N distinct numerators k/D,
sorted, with an integral sum.  The denominator D sets how many walls pass
through alpha: D = 2N gives dense vectors with hundreds of alpha-partitions,
D = 60 gives tens, and the prime D = 997 gives generic vectors with almost
none.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Sequence

DENSE, MEDIUM, GENERIC = "dense", "medium", "generic"

# One stratified round of 20 queries.  Every round holds exactly this mix, in
# this order, so the latency quantiles and the cache contents of a run depend
# on the seed only through the numerators.  The mix leans on N <= 12 and keeps a 20% tail at
# N = 13-14.  It is laid out so that each quantile falls inside one class of
# similar latencies rather than on a gap between classes (pure-kernel
# latencies in brackets):
#   8 light queries (10-25 ms); the p50 class, N = 12 generic (about 30 ms),
#   4 of them; 5 between 30 ms and 300 ms; the p90 class, N = 14 medium
#   (about 750 ms), 3 of them, as the top 15%.
# N = 14 dense queries (about 3 s each) are left out: one of them would be
# more than half the time of a round.
ROUND: tuple[tuple[int, str], ...] = (
    (9, GENERIC), (9, GENERIC), (10, GENERIC), (10, GENERIC),
    (11, GENERIC), (11, GENERIC), (9, MEDIUM), (9, MEDIUM),
    (12, GENERIC), (12, GENERIC), (12, GENERIC), (12, GENERIC),
    (9, DENSE), (13, GENERIC), (10, DENSE), (11, DENSE), (12, DENSE),
    (14, MEDIUM), (14, MEDIUM), (14, MEDIUM),
)


def denominator(n: int, kind: str) -> int:
    return {DENSE: 2 * n, MEDIUM: 60, GENERIC: 997}[kind]


def weight_vector(rng: random.Random, n: int, d: int) -> tuple[Fraction, ...]:
    """N distinct fractions k/d in (0, 1), sorted, summing to an integer."""
    while True:
        ks = rng.sample(range(1, d), n - 1)
        last = -sum(ks) % d
        if last and last not in ks:
            return tuple(Fraction(k, d) for k in sorted(ks + [last]))


def alpha_text(entries: Sequence[Fraction]) -> str:
    return ",".join(str(a) for a in entries)


def rounds(
    seed: int, mix: Sequence[tuple[int, str]] = ROUND
) -> Iterator[list[str]]:
    """Endless rounds of distinct alpha strings, one per (N, kind) of mix."""
    rng = random.Random(seed)
    seen: set[str] = set()
    while True:
        batch = []
        for n, kind in mix:
            while True:
                text = alpha_text(weight_vector(rng, n, denominator(n, kind)))
                if text not in seen:
                    break
            seen.add(text)
            batch.append(text)
        yield batch
