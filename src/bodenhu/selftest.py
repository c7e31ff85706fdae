"""Property suites for the exact formulas, runnable from the CLI.

Each suite checks one identity or inequality of the Delta pairing, either on
random samples drawn from a seeded generator or by exhausting a small range.
The suites re-derive every quantity through the public functions, so a
regression in any formula surfaces as a counterexample with concrete inputs.

Covered: antisymmetry and bilinearity of the pairing, the parity of
Delta(m, m') against r*r' for disjoint supports, the triple bound
Delta(m,m')/rr' + Delta(m',m'')/r'r'' + Delta(m'',m)/r''r <= 1, the strict
third-of-rank-product bound when no pairwise slope difference equals 1/3,
vanishing of Delta on rank-2 block pairs of realisable partitions, the
degree-minus-one disjunction for triples with a rank-2 third block, the
morphism-degree upper bound, and the rotation identity that powers the
criterion scan.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ModuliContext,
    MultiplicityVector,
    WeightVector,
    deg_alpha,
    delta,
    delta_seq,
    hom_degree,
)
from .partitions import (
    OrderedPartition,
    Partition,
    feasible_partitions,
    iter_partition_shapes,
)
from .smallness import rotation_deltas

__all__ = [
    "SuiteResult",
    "random_mult_vector",
    "random_weight_vector",
    "run_all",
]

_MAX_RECORDED = 8


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one suite: trial count and the failures found (if any)."""

    name: str
    trials: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class _Recorder:
    """Collects failure messages, keeping only the first few verbatim."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.trials = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.trials += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < _MAX_RECORDED:
                self.messages.append(message)

    def result(self) -> SuiteResult:
        messages = list(self.messages)
        if self.failed > len(messages):
            messages.append(f"... {self.failed - len(messages)} more")
        return SuiteResult(self.name, self.trials, tuple(messages))


def random_mult_vector(
    rng: random.Random, n: int, max_mult: int = 3, degree_span: int = 5
) -> MultiplicityVector:
    """A vector with n slots, entries in [0, max_mult], not all zero."""
    while True:
        mults = tuple(rng.randint(0, max_mult) for _ in range(n))
        if any(mults):
            break
    return MultiplicityVector(rng.randint(-degree_span, degree_span), mults)


def random_weight_vector(rng: random.Random, n: int, s: int) -> WeightVector:
    """A random interior point of W(n, s), exact sum by construction.

    Starts from the balanced strictly increasing vector with mean s/n, then
    adds a zero-sum integer direction scaled below the step size, so order,
    interior position, and the exact sum all survive.
    """
    step = Fraction(min(Fraction(s, n), 1 - Fraction(s, n)), 2 * n)
    base = [Fraction(s, n) + (2 * i - n - 1) * step for i in range(1, n + 1)]
    tweaks = [rng.randint(-8, 8) for _ in range(n)]
    mean = Fraction(sum(tweaks), n)
    scale = step / 32
    return WeightVector(
        tuple(b + (t - mean) * scale for b, t in zip(base, tweaks))
    )


def _suite_delta_algebra(rng: random.Random, trials: int) -> SuiteResult:
    """Delta is alternating and additive in each argument."""
    rec = _Recorder("delta-algebra")
    for _ in range(trials):
        n = rng.randint(2, 8)
        m = random_mult_vector(rng, n)
        m2 = random_mult_vector(rng, n)
        m3 = random_mult_vector(rng, n)
        rec.check(delta(m, m) == 0, f"delta({m}, {m}) != 0")
        rec.check(
            delta(m, m2) == -delta(m2, m),
            f"antisymmetry fails for {m}, {m2}",
        )
        rec.check(
            delta(m + m2, m3) == delta(m, m3) + delta(m2, m3),
            f"left additivity fails for {m}, {m2}, {m3}",
        )
        rec.check(
            delta(m, m2 + m3) == delta(m, m2) + delta(m, m3),
            f"right additivity fails for {m}, {m2}, {m3}",
        )
    return rec.result()


def _disjoint_mask_pairs(n: int):
    full = (1 << n) - 1
    for mask in range(1, full + 1):
        rest = full ^ mask
        sub = rest
        while sub:
            yield mask, sub
            sub = (sub - 1) & rest


def _suite_parity(max_n: int, degrees: range) -> SuiteResult:
    """delta(m, m') has the parity of r*r' when no slot is shared."""
    rec = _Recorder("disjoint-parity")
    for n in range(2, max_n + 1):
        for mask, mask2 in _disjoint_mask_pairs(n):
            for d in degrees:
                for d2 in degrees:
                    m = MultiplicityVector.from_mask(n, d, mask)
                    m2 = MultiplicityVector.from_mask(n, d2, mask2)
                    rec.check(
                        (delta(m, m2) - m.r * m2.r) % 2 == 0,
                        f"parity fails for {m}, {m2}",
                    )
    return rec.result()


def _triple_bound_value(
    m: MultiplicityVector, m2: MultiplicityVector, m3: MultiplicityVector
) -> Fraction:
    return (
        Fraction(delta(m, m2), m.r * m2.r)
        + Fraction(delta(m2, m3), m2.r * m3.r)
        + Fraction(delta(m3, m), m3.r * m.r)
    )


def _suite_triple_bound(rng: random.Random, trials: int) -> SuiteResult:
    """The cyclic sum of rank-normalised Delta values never exceeds 1."""
    rec = _Recorder("triple-bound")
    for n in (2, 3):
        vectors = [
            MultiplicityVector.from_mask(n, d, mask)
            for mask in range(1, 1 << n)
            for d in (-2, -1)
        ]
        for m, m2, m3 in itertools.product(vectors, repeat=3):
            rec.check(
                _triple_bound_value(m, m2, m3) <= 1,
                f"triple bound fails for {m}, {m2}, {m3}",
            )
    for _ in range(trials):
        n = rng.randint(2, 7)
        m = random_mult_vector(rng, n)
        m2 = random_mult_vector(rng, n)
        m3 = random_mult_vector(rng, n)
        rec.check(
            _triple_bound_value(m, m2, m3) <= 1,
            f"triple bound fails for {m}, {m2}, {m3}",
        )
    return rec.result()


def _suite_slope_bound(rng: random.Random, trials: int) -> SuiteResult:
    """Some Delta drops below a third of the rank product off the 1/3 locus.

    Applies whenever no cyclic slope difference equals 1/3, where the slope
    of a vector is its degree over its rank.
    """
    rec = _Recorder("slope-third-bound")
    done = 0
    while done < trials:
        n = rng.randint(2, 7)
        m = random_mult_vector(rng, n)
        m2 = random_mult_vector(rng, n)
        m3 = random_mult_vector(rng, n)
        slopes = [Fraction(v.d_check, v.r) for v in (m, m2, m3)]
        diffs = {
            slopes[0] - slopes[1],
            slopes[1] - slopes[2],
            slopes[2] - slopes[0],
        }
        if Fraction(1, 3) in diffs:
            continue
        done += 1
        rec.check(
            delta(m, m2) < Fraction(m.r * m2.r, 3)
            or delta(m2, m3) < Fraction(m2.r * m3.r, 3)
            or delta(m3, m) < Fraction(m3.r * m.r, 3),
            f"third bound fails for {m}, {m2}, {m3}",
        )
    return rec.result()


def _realisable_partitions(
    max_n: int,
) -> dict[tuple[int, int], list[Partition]]:
    """(N, s) -> realisable partitions of length >= 2, for 4 <= N <= max_n.

    Keys and partitions follow the feasible_partitions order, so the length
    >= 3 entries of a list are that (N, s)'s length >= 3 stream.
    """
    return {
        (n, s): [p for p, _ in feasible_partitions(ModuliContext(n, s), 2)]
        for n in range(4, max_n + 1)
        for s in range(1, n)
    }


def _suite_rank_two_vanishing(
    realisable: dict[tuple[int, int], list[Partition]]
) -> SuiteResult:
    """Rank-2 block pairs of any realisable partition pair to zero."""
    rec = _Recorder("rank-two-vanishing")
    for (n, s), partitions in realisable.items():
        for partition in partitions:
            pairs = [b for b in partition.blocks if b.r == 2]
            for a, b in itertools.combinations(pairs, 2):
                rec.check(
                    delta(a, b) == 0,
                    f"nonzero delta for rank-2 pair {a}, {b} (n={n}, s={s})",
                )
    return rec.result()


def _suite_rank_two_degree_one(
    realisable: dict[tuple[int, int], list[Partition]]
) -> SuiteResult:
    """The disjunction for degree -1 triples whose third block has rank 2.

    For blocks m, m2, m3 of one realisable partition with N >= 6 and s >= 3,
    all of degree -1 and with m3 of rank 2: delta(m, m2) <= (r-4)(r'-2) - 2,
    or delta(m2, m3) <= 0, or delta(m3, m) <= 0.
    """
    rec = _Recorder("rank-two-degree-one")
    for (n, s), partitions in realisable.items():
        if n < 6 or s < 3:
            continue
        for partition in partitions:
            if len(partition) < 3:
                continue
            ones = [b for b in partition.blocks if b.d_check == -1]
            for m, m2, m3 in itertools.permutations(ones, 3):
                if m3.r != 2:
                    continue
                rec.check(
                    delta(m, m2) <= (m.r - 4) * (m2.r - 2) - 2
                    or delta(m2, m3) <= 0
                    or delta(m3, m) <= 0,
                    f"disjunction fails for {m}, {m2}, {m3} (n={n}, s={s})",
                )
    return rec.result()


def _suite_hom_estimate(rng: random.Random, trials: int) -> SuiteResult:
    """hom_degree(m, m') <= r * deg(m') - r' * deg(m) at every weight vector."""
    rec = _Recorder("hom-estimate")
    for _ in range(trials):
        n = rng.randint(2, 8)
        s = rng.randint(1, n - 1)
        alpha = random_weight_vector(rng, n, s)
        m = random_mult_vector(rng, n)
        m2 = random_mult_vector(rng, n)
        bound = m.r * deg_alpha(m2, alpha) - m2.r * deg_alpha(m, alpha)
        rec.check(
            hom_degree(m, m2) <= bound,
            f"estimate fails for {m}, {m2} at {alpha}",
        )
    return rec.result()


def _random_partition(
    rng: random.Random, shapes_by_n: dict[int, list[tuple[int, ...]]]
) -> tuple[Partition, int]:
    """A random partition with valid degrees; returns it with its weight sum."""
    while True:
        n = rng.randint(4, 9)
        shapes = shapes_by_n.setdefault(
            n, list(iter_partition_shapes(n, min_len=2))
        )
        masks = shapes[rng.randrange(len(shapes))]
        length = len(masks)
        if 2 * length > n and length > n - length:
            continue
        s = rng.randint(length, n - length)
        extra = [0] * length
        capacity = [mask.bit_count() - 2 for mask in masks]
        for _ in range(s - length):
            open_blocks = [i for i in range(length) if extra[i] < capacity[i]]
            i = open_blocks[rng.randrange(len(open_blocks))]
            extra[i] += 1
        blocks = tuple(
            MultiplicityVector.from_mask(n, -1 - e, mask)
            for mask, e in zip(masks, extra)
        )
        return Partition(blocks), s


def _suite_rotation_identity(rng: random.Random, trials: int) -> SuiteResult:
    """Rotated delta_seq values equal the head value minus twice prefix sums.

    The prefix sums run over delta(block, one-vector) in sequence order; this
    identity is what lets the scanner evaluate all rotations in linear time.
    Each value of rotation_deltas is also compared with delta_seq of that
    rotation, so the suite checks the identity on delta_seq itself.
    """
    rec = _Recorder("rotation-identity")
    shapes_by_n: dict[int, list[tuple[int, ...]]] = {}
    for _ in range(trials):
        partition, s = _random_partition(rng, shapes_by_n)
        one = MultiplicityVector(-s, (1,) * partition.n)
        order = list(range(len(partition)))
        rng.shuffle(order)
        op = OrderedPartition(tuple(partition.blocks[i] for i in order))
        rots = rotation_deltas(op)
        prefix = 0
        ok = True
        for l, block in enumerate(op.seq):
            if rots[l] != rots[0] - 2 * prefix or rots[l] != delta_seq(
                op.rotation(l).seq
            ):
                ok = False
                break
            prefix += delta(block, one)
        rec.check(ok, f"rotation identity fails for {op}")
    return rec.result()


def run_all(seed: int = 0, trials: int = 2000) -> list[SuiteResult]:
    """Run every suite with one seeded generator; deterministic per seed."""
    rng = random.Random(seed)
    realisable = _realisable_partitions(max_n=8)
    return [
        _suite_delta_algebra(rng, trials),
        _suite_parity(max_n=6, degrees=range(-5, 0)),
        _suite_triple_bound(rng, trials),
        _suite_slope_bound(rng, trials),
        _suite_rank_two_vanishing(realisable),
        _suite_rank_two_degree_one(realisable),
        _suite_hom_estimate(rng, trials // 2),
        _suite_rotation_identity(rng, max(trials // 4, 100)),
    ]
