"""Integer fast paths against slow, independent Fraction references.

The weight-space primitives run on integers over one common denominator,
the admissible blocks come from the kernel's meet-in-the-middle search, and
the rotation values from a pairing matrix of support-mask popcounts.  The references
below are the direct definitions: Fraction subset sums with a denominator
test, a 2^N scan, a floor per support, core.delta per pair and delta_seq of
every rotation.  Every return must match exactly, including the first wall
or binding summand and the partition order.
"""

import itertools
import random
from fractions import Fraction
from math import floor, lcm

import pytest
from hypothesis import given, settings, strategies as st

from bodenhu import (
    MODES,
    ModuliContext,
    MultiplicityVector,
    OrderedPartition,
    Partition,
    Wall,
    WeightVector,
    alpha_partitions,
    deg_alpha,
    delta,
    delta_seq,
    feasible_partitions,
    fiber_component_dim,
    find_generic_near,
    h1_dim,
    is_generic,
    is_near,
    perturbation_direction,
    rotation_deltas,
    subset_sums,
)
from bodenhu import _kernel
from bodenhu._kernel import pure
from bodenhu.partitions import _stable_rotation
from bodenhu.smallness import ordering_representatives, violates_margin
from conftest import (
    KINDS,
    PURE_RUN_UNNAMED,
    admissible_shapes,
    denominator,
    ref_admissible,
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


def ref_find_generic_near(alpha):
    """find_generic_near with Fraction candidates and the 2^N references."""
    if ref_is_generic(alpha)[0]:
        return alpha
    n = alpha.n
    v = perturbation_direction(alpha)
    max_den = max(e.denominator for e in alpha.entries)
    base = alpha
    if any(v):
        eps = Fraction(1, 4 * n * max_den)
        while True:
            cand = [a + eps * x for a, x in zip(alpha.entries, v)]
            if _is_interior(cand):
                cand = WeightVector(tuple(cand))
                if ref_is_near(alpha, cand)[0]:
                    base = cand
                    break
            eps /= 2
    for theta in (2, 3, 5, 7, 11, 13):
        powers = [Fraction(theta) ** (i + 1) for i in range(n)]
        mean = sum(powers) / n
        w = [p - mean for p in powers]
        step = Fraction(1, 4 * n * max_den) / max(abs(x) for x in w)
        for _ in range(80):
            cand = [b + step * x for b, x in zip(base.entries, w)]
            if _is_interior(cand):
                beta = WeightVector(tuple(cand))
                if (
                    ref_is_generic(beta)[0]
                    and ref_is_near(base, beta)[0]
                    and ref_is_near(alpha, beta)[0]
                ):
                    return beta
            step /= 2
    raise AssertionError("reference search left its theta range")


def ref_stable_rotation(seq, beta):
    """The rotation after the unique maximum of the Fraction deg_beta of the
    proper prefixes, the empty prefix (degree 0) included."""
    degrees = [Fraction(0)]
    for block in seq.seq[:-1]:
        degrees.append(degrees[-1] + deg_alpha(block, beta))
    best = max(degrees)
    assert degrees.count(best) == 1
    return degrees.index(best)


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
        # the admissible blocks are the integral masks but the empty one
        # (no single entry is integral), each with its degree, in order
        assert [0, *alpha.admissible] == ref_integral_masks(alpha)
        assert list(alpha.admissible.items()) == list(
            ref_admissible(alpha).items()
        )

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


class TestScaledIntegerConsumers:
    """The consumers of WeightVector's scaled integers and cached tables
    against Fraction definitions."""

    def test_stable_rotation_matches_fraction_prefix_degrees(self):
        rng = random.Random(914)
        checked = 0
        for n in range(9, 15):
            for kind in KINDS:
                alpha = weight_vector(rng, n, denominator(n, kind))
                beta = find_generic_near(alpha)
                partitions = [p for p in alpha_partitions(alpha, 2) if len(p) <= 5]
                for partition in partitions[:20]:
                    for rep in ordering_representatives(partition):
                        for l in range(len(rep)):
                            seq = rep.rotation(l)
                            expected = ref_stable_rotation(seq, beta)
                            assert _stable_rotation(seq, beta) == expected
                            checked += 1
        assert checked > 1000

    def test_fiber_component_dim_matches_h1_dim(self):
        checked = 0
        for partition, _ in feasible_partitions(ModuliContext(9, 4)):
            for rep in ordering_representatives(partition):
                blocks = rep.seq
                for g in (2, 3):
                    expected = 1 - len(blocks) + sum(
                        h1_dim(later, earlier, g)
                        for i, earlier in enumerate(blocks)
                        for later in blocks[i + 1 :]
                    )
                    assert fiber_component_dim(rep, g) == expected
                    checked += 1
        assert checked > 1000

    def test_cached_verdicts_match_references(self):
        # twice on one instance (the second call reads its tables), then on
        # equal fresh instances
        rng = random.Random(1717)
        for n in range(3, 11):
            for kind in KINDS:
                alpha = weight_vector(rng, n, denominator(n, kind))
                beta = find_generic_near(alpha)
                for a, b in ((alpha, beta), (beta, alpha)):
                    generic, near = ref_is_generic(a), ref_is_near(a, b)
                    for _ in range(2):
                        assert is_generic(a) == generic
                        assert is_near(a, b) == near
                    fresh_a = WeightVector(a.entries)
                    fresh_b = WeightVector(b.entries)
                    assert is_generic(fresh_a) == generic
                    assert is_near(fresh_a, fresh_b) == near

    def test_find_generic_near_matches_fraction_candidates(self):
        rng = random.Random(2024)
        moved = 0
        for n in range(3, 11):
            for kind in KINDS:
                for _ in range(2):
                    alpha = weight_vector(rng, n, denominator(n, kind))
                    beta = find_generic_near(alpha)
                    assert beta == ref_find_generic_near(alpha)
                    moved += beta != alpha
        assert moved > 20


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

    @given(alphas(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_beta_within_one_residue(self, alpha, data):
        # beta moves mass t from slot j to slot i, up = t: below 1/D the
        # window is empty (width 0) and alpha has no binding mask; at 1/D
        # and past it the window opens
        n = alpha.n
        i, j = data.draw(
            st.permutations(range(n)).map(lambda order: order[:2])
        )
        denom = _common_denominator(alpha)
        t = data.draw(
            st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(99, 100),
                             Fraction(1), Fraction(3, 2)])
        ) / denom
        entries = list(alpha.entries)
        entries[i] += t
        entries[j] -= t
        if not _is_interior(entries):
            return
        beta = WeightVector(tuple(entries))
        assert _window(alpha, beta) == (denom, floor(t * denom))
        if t < Fraction(1, denom):
            assert ref_is_near(alpha, beta) == (True, None)
        assert is_near(alpha, beta) == ref_is_near(alpha, beta)
        assert is_near(beta, alpha) == ref_is_near(beta, alpha)

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

    def big_points(self):
        big = [
            beta
            for _, beta in self.points()
            if _common_denominator(beta) > 2**64
        ]
        assert len(big) == 18
        return big

    def test_integral_masks_match_references(self):
        for beta in self.big_points():
            assert [0, *beta.admissible] == ref_integral_masks(beta)
            assert list(beta.admissible.items()) == list(
                ref_admissible(beta).items()
            )

    def test_compiled_admissible_reruns_on_pure(self, compiled_kernel):
        # past 64 bits the compiled admissible refuses, and the binding
        # hands the call to pure.py
        bound = _kernel.entries(compiled_kernel)["admissible"]
        for beta in self.big_points():
            args = (beta.n, beta.nums, beta.denom)
            with pytest.raises(OverflowError):
                compiled_kernel.admissible(*args)
            assert list(bound(*args).items()) == list(
                pure.admissible(*args).items()
            )


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

        monkeypatch.setattr(_kernel, "rate_orders", every_ordering)
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
                for mode in MODES:
                    (orderings,), first = pure.rate_orders(
                        n, [shape], degree, mode == "semismall"
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
                    assert first == (
                        (0, flags.index(True)) if True in flags else None
                    )
                    rated += len(orderings)
        assert rated == 2 * 11430

    @PURE_RUN_UNNAMED
    def test_rated_orderings_match_delta_seq(self, twin):
        # each partition as a listing of one shape, as check_criterion
        # rates it, through the twin's rate_orders
        rng = random.Random(412)
        rated = 0
        draws = itertools.product(range(4, 13), ("dense", "medium"), range(3))
        for n, kind, _ in draws:
            alpha = weight_vector(rng, n, denominator(n, kind))
            for partition in alpha_partitions(alpha, 2):
                blocks = partition.blocks
                masks = [b.support_mask for b in blocks]
                degree = {b.support_mask: b.d_check for b in blocks}
                reps = list(ordering_representatives(partition))
                for mode in MODES:
                    (orderings,), first = _kernel.rate_orders(
                        n, [masks], degree, mode == "semismall"
                    )
                    assert [
                        tuple(map(blocks.__getitem__, o["order"]))
                        for o in orderings
                    ] == [op.seq for op in reps]
                    flags = []
                    for op, rated_order in zip(reps, orderings):
                        seq = op.seq
                        rots = tuple(rated_order["rotation_deltas"])
                        assert rots == tuple(
                            delta_seq(seq[l:] + seq[:l])
                            for l in range(len(seq))
                        )
                        assert rated_order["violates"] == violates_margin(
                            rots, mode
                        )
                        flags.append(rated_order["violates"])
                        rated += 1
                    assert first == (
                        (0, flags.index(True)) if True in flags else None
                    )
        assert rated > 5000
