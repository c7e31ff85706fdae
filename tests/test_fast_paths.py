"""Integer fast paths against slow, independent Fraction references.

The weight-space primitives run on integers over one common denominator, the
integral subsets come from a meet-in-the-middle search, and the rotation
values from a pairing matrix of support-mask popcounts.  The references
below are the direct definitions: Fraction subset sums with a denominator
test, a 2^N scan, a floor per support, core.delta per pair and delta_seq of
every rotation.  Every return must match exactly, including the first wall
or binding summand and the partition order.
"""

import itertools
import random
from fractions import Fraction
from math import floor, lcm

from hypothesis import given, settings, strategies as st

from bodenhu import (
    MODES,
    MultiplicityVector,
    OrderedPartition,
    Partition,
    Wall,
    WeightVector,
    alpha_partitions,
    delta,
    delta_seq,
    find_generic_near,
    is_generic,
    is_near,
    perturbation_direction,
    rotation_deltas,
    subset_sums,
)
from bodenhu import smallness
from bodenhu._kernel import pure
from bodenhu.smallness import (
    ordering_representatives,
    rated_orderings,
    violates_margin,
)
from bodenhu.weightspace import _half_sums, _integral_masks
from conftest import (
    KINDS,
    admissible_shapes,
    denominator,
    seeded_blocks,
    weight_vector,
)

def ref_subset_sums(entries):
    n = len(entries)
    sums = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + entries[low.bit_length() - 1]
    return sums


def ref_is_generic(alpha):
    n = alpha.n
    sums = ref_subset_sums(alpha.entries)
    for mask in range(1, 1 << n, 2):
        r = mask.bit_count()
        if not 2 <= r <= n - 2:
            continue
        t = sums[mask]
        if t.denominator == 1:
            return False, Wall(MultiplicityVector.from_mask(n, -int(t), mask))
    return True, None


def ref_is_near(alpha, beta):
    n = alpha.n
    sums_a = ref_subset_sums(alpha.entries)
    sums_b = ref_subset_sums(beta.entries)
    for mask in range(1, (1 << n) - 1):
        d_star = -(floor(sums_a[mask]) + 1)
        if d_star + sums_b[mask] >= 0:
            return False, MultiplicityVector.from_mask(n, d_star, mask)
    return True, None


def ref_alpha_partitions(alpha, min_len):
    n = alpha.n
    sums = ref_subset_sums(alpha.entries)
    integral = [mask for mask in range(1, 1 << n) if sums[mask].denominator == 1]
    return [
        Partition(
            tuple(
                MultiplicityVector.from_mask(n, -int(sums[mask]), mask)
                for mask in masks
            )
        )
        for masks in admissible_shapes(n, min_len, integral)
    ]


def ref_integral_masks(alpha):
    denom, sums = subset_sums(alpha.entries)
    return [m for m in range(1 << alpha.n) if sums[m] % denom == 0]


def _common_denominator(alpha):
    return lcm(*(e.denominator for e in alpha.entries))


@st.composite
def alphas(draw, min_n=3, max_n=10):
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(KINDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return weight_vector(rng, n, denominator(n, kind))


class TestWeightSpaceOracles:
    @given(alphas())
    @settings(max_examples=120, deadline=None)
    def test_is_generic(self, alpha):
        assert is_generic(alpha) == ref_is_generic(alpha)

    @given(alphas(), alphas())
    @settings(max_examples=120, deadline=None)
    def test_is_near_between_draws(self, alpha, other):
        if (alpha.n, alpha.s) != (other.n, other.s):
            return
        assert is_near(alpha, other) == ref_is_near(alpha, other)
        assert is_near(other, alpha) == ref_is_near(other, alpha)

    @given(alphas(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_alpha_partitions(self, alpha):
        for min_len in (1, 3):
            assert alpha_partitions(alpha, min_len) == ref_alpha_partitions(
                alpha, min_len
            )

    @given(alphas(min_n=2, max_n=12))
    @settings(max_examples=120, deadline=None)
    def test_integral_masks(self, alpha):
        masks = _integral_masks(*_half_sums(alpha.entries))
        assert list(masks) == ref_integral_masks(alpha)

    def test_pure_alpha_shapes(self):
        # the pure kernel's recursion over the admissible blocks against the
        # canonical order of the partitions into them
        for n, masks, _ in seeded_blocks():
            for min_len in (1, 3):
                expected = admissible_shapes(n, min_len, masks)
                assert pure.alpha_shapes(n, masks, min_len) == expected

    def test_alpha_partitions_at_13_and_14(self):
        rng = random.Random(1314)
        for n in (13, 14):
            for kind in KINDS:
                alpha = weight_vector(rng, n, denominator(n, kind))
                assert alpha_partitions(alpha) == ref_alpha_partitions(alpha, 1)

    @given(alphas(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_generic_near_points(self, alpha):
        beta = find_generic_near(alpha)
        assert is_generic(beta) == ref_is_generic(beta)
        assert is_near(alpha, beta) == ref_is_near(alpha, beta)
        assert is_near(beta, alpha) == ref_is_near(beta, alpha)


def _window(alpha, beta):
    """(D, width): is_near(alpha, beta) tests only the masks whose scaled
    alpha sum lies in [D - width, D - 1] modulo D."""
    denom = _common_denominator(alpha)
    up = sum(max(b - a, 0) for a, b in zip(alpha.entries, beta.entries))
    return denom, floor(up * denom)


def _is_interior(entries):
    return 0 < entries[0] and entries[-1] < 1 and all(
        a < b for a, b in zip(entries, entries[1:])
    )


class TestNearWindow:
    """is_near's residue window at its edges, against the 2^N reference."""

    def test_beta_equal_to_alpha(self):
        rng = random.Random(5)
        for n in range(3, 13):
            for kind in KINDS:
                alpha = weight_vector(rng, n, denominator(n, kind))
                assert _window(alpha, alpha)[1] == 0
                assert is_near(alpha, alpha) == ref_is_near(alpha, alpha)

    def test_window_covering_every_residue(self):
        # alpha bunched near 0 and 1, beta evenly spaced: the same (N, s),
        # and up = sum max(0, beta_i - alpha_i) >= 1 both ways
        covered = 0
        for n in (8, 10, 12):
            low = [Fraction(k, 100) for k in range(1, n // 2 + 1)]
            alpha = WeightVector(tuple(low + [1 - x for x in reversed(low)]))
            beta = WeightVector(tuple(Fraction(k, n + 1) for k in range(1, n + 1)))
            for a, b in ((alpha, beta), (beta, alpha)):
                denom, width = _window(a, b)
                assert width >= denom
                assert is_near(a, b) == ref_is_near(a, b)
                covered += 1
        assert covered == 6

    def test_binding_mask_at_the_window_edge(self):
        # beta moves alpha_i up and alpha_j down by w/D, so up = w/D and
        # width = w exactly; a mask holding i but not j whose scaled sum has
        # residue D - w then gains exactly enough to reach the next integer
        rng = random.Random(77)
        edge = 0
        for n in range(4, 9):
            for kind in KINDS:
                alpha = weight_vector(rng, n, denominator(n, kind))
                denom = _common_denominator(alpha)
                sums = ref_subset_sums(alpha.entries)
                for i, j in itertools.permutations(range(n), 2):
                    for w in (1, 2, 3):
                        entries = list(alpha.entries)
                        entries[i] += Fraction(w, denom)
                        entries[j] -= Fraction(w, denom)
                        if not _is_interior(entries):
                            continue
                        beta = WeightVector(tuple(entries))
                        assert _window(alpha, beta) == (denom, w)
                        expected = ref_is_near(alpha, beta)
                        assert is_near(alpha, beta) == expected
                        ok, m = expected
                        if not ok:
                            residue = int(sums[m.support_mask] * denom) % denom
                            edge += residue == denom - w
        assert edge >= 100

    def test_large_denominator_points(self):
        checked = 0
        for alpha, beta in TestLargeDenominators().points():
            if _common_denominator(beta) <= 2**64:
                continue
            for a, b in ((alpha, beta), (beta, alpha), (beta, beta)):
                assert is_near(a, b) == ref_is_near(a, b)
            checked += 1
        assert checked == 18


def _perturbed(alpha, k, theta=None):
    """alpha + eps*v (+ delta*w(theta)), the candidate form of find_generic_near.

    eps = 1/(4 N maxden 2^k) with v the perturbation direction; the optional
    zero-sum Vandermonde tweak w(theta) is scaled to move by at most eps.
    """
    n = alpha.n
    max_den = max(e.denominator for e in alpha.entries)
    eps = Fraction(1, 4 * n * max_den * 2**k)
    v = perturbation_direction(alpha)
    entries = [a + eps * x for a, x in zip(alpha.entries, v)]
    if theta is not None:
        powers = [Fraction(theta) ** (i + 1) for i in range(n)]
        mean = sum(powers) / n
        w = [p - mean for p in powers]
        step = eps / max(abs(x) for x in w)
        entries = [e + step * x for e, x in zip(entries, w)]
    return WeightVector(tuple(entries))


class TestLargeDenominators:
    """Points whose common denominators exceed 2^64.

    find_generic_near returns points with 10- to 42-bit denominators for
    N <= 13, so the candidates it tries are built here with smaller steps:
    the first-stage direction alone (which may stay on walls) and with a
    Vandermonde tweak.
    """

    def points(self):
        rng = random.Random(20)
        for n in (8, 10):
            for kind in KINDS:
                alpha = weight_vector(rng, n, denominator(n, kind))
                yield alpha, find_generic_near(alpha)
                for k, theta in ((70, None), (70, 2), (70, 97)):
                    yield alpha, _perturbed(alpha, k, theta)

    def test_perturbed_denominators_exceed_64_bits(self):
        big = [
            _common_denominator(beta) > 2**64 for _, beta in self.points()
        ]
        assert big.count(True) == 18

    def test_primitives_match_references(self):
        for alpha, beta in self.points():
            assert is_generic(alpha) == ref_is_generic(alpha)
            assert is_generic(beta) == ref_is_generic(beta)
            assert is_near(alpha, beta) == ref_is_near(alpha, beta)
            assert is_near(beta, alpha) == ref_is_near(beta, alpha)
            assert alpha_partitions(beta) == ref_alpha_partitions(beta, 1)

    def test_integral_masks_match_references(self):
        big = [
            beta
            for _, beta in self.points()
            if _common_denominator(beta) > 2**64
        ]
        assert len(big) == 18
        for beta in big:
            masks = _integral_masks(*_half_sums(beta.entries))
            assert list(masks) == ref_integral_masks(beta)


@st.composite
def ordered_partitions(draw):
    """A random partition into blocks of size >= 2 with valid degrees."""
    n = draw(st.integers(4, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    slots = list(range(1, n + 1))
    rng.shuffle(slots)
    sizes = []
    left = n
    while left:
        size = left if left < 4 else rng.randint(2, min(4, left - 2))
        sizes.append(size)
        left -= size
    blocks = []
    for size in sizes:
        support, slots = slots[:size], slots[size:]
        d_check = rng.randint(-(size - 1), -1)
        blocks.append(MultiplicityVector.from_support(n, d_check, support))
    return tuple(blocks)


class TestRotationOracle:
    @given(ordered_partitions())
    @settings(max_examples=60, deadline=None)
    def test_every_ordering_matches_delta_seq(self, blocks):
        for order in itertools.permutations(blocks):
            seq = tuple(order)
            expected = tuple(
                delta_seq(seq[l:] + seq[:l]) for l in range(len(seq))
            )
            assert rotation_deltas(OrderedPartition(seq)) == expected

    def test_long_sequence_is_rated_alone(self, monkeypatch):
        # nine blocks over 20 slots: the sequence itself is rated, not all
        # 8! orderings of its blocks
        def every_ordering(*args):
            raise AssertionError("rotation_deltas rated every ordering")

        monkeypatch.setattr(smallness, "rate_orders", every_ordering)
        rng = random.Random(9)
        slots = rng.sample(range(1, 21), 20)
        seq = []
        for size in (2, 3, 2, 2, 2, 3, 2, 2, 2):
            support, slots = slots[:size], slots[size:]
            d_check = rng.randint(-(size - 1), -1)
            seq.append(MultiplicityVector.from_support(20, d_check, support))
        seq = tuple(seq)
        expected = tuple(delta_seq(seq[l:] + seq[:l]) for l in range(9))
        assert rotation_deltas(OrderedPartition(seq)) == expected


def _disjoint_pairs(n):
    """Every ordered pair of disjoint nonempty support masks over n slots."""
    for labels in itertools.product(range(3), repeat=n):
        a = sum(1 << i for i, x in enumerate(labels) if x == 1)
        b = sum(1 << i for i, x in enumerate(labels) if x == 2)
        if a and b:
            yield a, b


class TestPairingOracle:
    def test_pair_delta_matches_delta_exhaustively(self):
        checked = 0
        for n in range(2, 8):
            for a, b in _disjoint_pairs(n):
                for da, db in itertools.product((-2, -1, 0, 1), repeat=2):
                    expected = delta(
                        MultiplicityVector.from_mask(n, da, a),
                        MultiplicityVector.from_mask(n, db, b),
                    )
                    pair, _ = pure._pairing([a, b], [da, db])
                    assert pair[0][1] == expected
                    checked += 1
        assert checked == 16 * sum(3**n - 2 * 2**n + 1 for n in range(2, 8))

    def test_pure_rate_orders_match_delta_seq(self):
        rated = 0
        for n, masks, degree in seeded_blocks():
            for shape in pure.alpha_shapes(n, masks, 2):
                blocks = [
                    MultiplicityVector.from_mask(n, degree[mask], mask)
                    for mask in shape
                ]
                degs = [degree[mask] for mask in shape]
                for mode in MODES:
                    orderings, first = pure.rate_orders(
                        shape, degs, mode == "semismall"
                    )
                    orders = [
                        (0,) + perm
                        for perm in itertools.permutations(range(1, len(shape)))
                    ]
                    assert [o["order"] for o in orderings] == list(map(list, orders))
                    flags = []
                    for rated_order, order in zip(orderings, orders):
                        seq = [blocks[i] for i in order]
                        rots = [
                            delta_seq(seq[l:] + seq[:l]) for l in range(len(seq))
                        ]
                        assert rated_order["rotation_deltas"] == rots
                        assert rated_order["violates"] == violates_margin(
                            tuple(rots), mode
                        )
                        flags.append(rated_order["violates"])
                    assert first == (flags.index(True) if True in flags else -1)
                    rated += len(orderings)
        assert rated == 2 * 11430

    def test_rated_orderings_match_delta_seq(self):
        rng = random.Random(412)
        rated = 0
        draws = itertools.product(range(4, 13), ("dense", "medium"), range(3))
        for n, kind, _ in draws:
            alpha = weight_vector(rng, n, denominator(n, kind))
            for partition in alpha_partitions(alpha, 2):
                reps = list(ordering_representatives(partition))
                for mode in MODES:
                    triples = list(rated_orderings(partition, mode))
                    assert [op for op, _, _ in triples] == reps
                    for op, rots, violates in triples:
                        seq = op.seq
                        assert rots == tuple(
                            delta_seq(seq[l:] + seq[:l])
                            for l in range(len(seq))
                        )
                        assert violates == violates_margin(rots, mode)
                        rated += 1
        assert rated > 5000
