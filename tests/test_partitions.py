"""Partition enumeration, alpha-partitions, and stable rotations."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from bodenhu import (
    ModuliContext,
    MultiplicityVector,
    NotGenericError,
    OrderedPartition,
    Partition,
    WeightVector,
    alpha_partitions,
    deg_alpha,
    feasible_partitions,
    find_generic_near,
    is_alpha_stable_seq,
    iter_partition_shapes,
    stable_rotation,
)
from bodenhu import _kernel
from bodenhu._kernel import pure
from bodenhu.partitions import _alpha_shapes
from conftest import (
    COMPILED_RUN_UNNAMED,
    KINDS,
    admissible_shapes,
    assert_public_rebuild,
    denominator,
    realisable_candidates,
    seeded_alphas,
    weight_vector,
)

# Counts of set partitions of n slots into blocks of size >= 2, n = 2..11.
SHAPE_COUNTS = (1, 1, 4, 11, 41, 162, 715, 3425, 17722, 98253)


def brute_force_shapes(n):
    """Set partitions with no singleton block, via restricted growth strings."""
    out = set()

    def rec(i, assign, kmax):
        if i == n:
            masks = {}
            for slot, b in enumerate(assign):
                masks[b] = masks.get(b, 0) | 1 << slot
            if all(m.bit_count() >= 2 for m in masks.values()):
                out.add(frozenset(masks.values()))
            return
        for b in range(kmax + 1):
            assign.append(b)
            rec(i + 1, assign, max(kmax, b + 1))
            assign.pop()

    rec(0, [], 0)
    return out


class TestShapeEnumeration:
    def test_counts(self):
        for n, expected in zip(range(2, 12), SHAPE_COUNTS):
            assert sum(1 for _ in iter_partition_shapes(n)) == expected

    def test_matches_brute_force(self):
        for n in range(2, 8):
            streamed = [frozenset(ms) for ms in iter_partition_shapes(n)]
            assert len(streamed) == len(set(streamed))
            assert set(streamed) == brute_force_shapes(n)

    def test_shapes_are_well_formed(self):
        for n in range(2, 8):
            for masks in iter_partition_shapes(n):
                assert list(masks) == sorted(masks)
                covered = 0
                for mask in masks:
                    assert mask.bit_count() >= 2
                    assert not covered & mask
                    covered |= mask
                assert covered == (1 << n) - 1

    def test_order_is_lexicographic_by_lowest_slot(self):
        # the canonical order that admissible_shapes, the oracle of the
        # kernels' alpha_shapes, spells out
        for n in range(0, 10):
            for min_len in (1, 3):
                assert list(iter_partition_shapes(n, min_len)) == (
                    admissible_shapes(n, min_len, range(1, 1 << n))
                )

    def test_min_len_only_prunes(self):
        for n in range(2, 9):
            for min_len in (2, 3):
                pruned = list(iter_partition_shapes(n, min_len))
                assert pruned == [
                    ms
                    for ms in iter_partition_shapes(n)
                    if len(ms) >= min_len
                ]


class TestPartitionTypes:
    def test_blocks_are_canonically_sorted(self, triple94):
        scrambled = (triple94[2], triple94[0], triple94[1])
        partition = Partition(scrambled)
        assert [b.support for b in partition.blocks] == [
            (3, 4, 5), (6, 7, 8), (1, 2, 9),
        ]
        assert partition.n == 9
        assert partition.s == 4
        assert len(partition) == 3

    def test_rank_one_block_rejected(self):
        with pytest.raises(ValueError):
            Partition(
                (
                    MultiplicityVector.from_support(3, -1, (1, 2)),
                    MultiplicityVector.from_support(3, -1, (3,)),
                )
            )

    def test_degree_range_enforced(self):
        with pytest.raises(ValueError):
            Partition((MultiplicityVector.from_support(2, -2, (1, 2)),))
        with pytest.raises(ValueError):
            Partition((MultiplicityVector.from_support(2, 0, (1, 2)),))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Partition(
                (
                    MultiplicityVector.from_support(4, -1, (1, 2, 3)),
                    MultiplicityVector.from_support(4, -1, (3, 4)),
                )
            )

    def test_cover_required(self):
        with pytest.raises(ValueError):
            Partition((MultiplicityVector.from_support(4, -1, (1, 2)),))

    def test_ordered_partition_keeps_its_order(self, triple94):
        op = OrderedPartition(triple94)
        assert op.seq == triple94
        assert op.partition == Partition(triple94)
        assert op.rotation(1).seq == triple94[1:] + triple94[:1]
        assert op.rotation(3) == op
        assert len(op.rotations()) == 3


class TestAlphaPartitions:
    def test_reference_point_has_five(self, alpha94, triple94):
        parts = alpha_partitions(alpha94)
        assert len(parts) == 5

        def blocks(p):
            return [(b.support, b.d_check) for b in p.blocks]

        assert blocks(parts[0]) == [
            ((3, 4, 5), -1), ((6, 7, 8), -2), ((1, 2, 9), -1),
        ]
        assert blocks(parts[1]) == [
            ((3, 4, 5, 6, 7, 8), -3), ((1, 2, 9), -1),
        ]
        assert blocks(parts[2]) == [
            ((6, 7, 8), -2), ((1, 2, 3, 4, 5, 9), -2),
        ]
        assert blocks(parts[3]) == [
            ((3, 4, 5), -1), ((1, 2, 6, 7, 8, 9), -3),
        ]
        assert blocks(parts[4]) == [((1, 2, 3, 4, 5, 6, 7, 8, 9), -4)]

    def test_min_len_three_keeps_only_the_triple(self, alpha94, triple94):
        assert alpha_partitions(alpha94, min_len=3) == [Partition(triple94)]

    def test_generic_point_has_only_the_full_block(self):
        alpha = WeightVector(
            tuple(Fraction(x) for x in ("1/7", "2/7", "4/7"))
        )
        parts = alpha_partitions(alpha)
        assert len(parts) == 1
        assert len(parts[0]) == 1
        assert parts[0].blocks[0].support == (1, 2, 3)

    def test_degrees_are_exact_at_alpha(self, alpha94):
        for partition in alpha_partitions(alpha94):
            for block in partition.blocks:
                assert deg_alpha(block, alpha94) == 0

    def test_degrees_cover_exactly_the_used_masks(self):
        # _alpha_shapes takes its degrees over the admissible masks; with
        # min_len 1 every one of them is used by some shape
        rng = random.Random(914)
        for n in range(9, 15):
            for kind in KINDS:
                alpha = weight_vector(rng, n, denominator(n, kind))
                shapes, degree = _alpha_shapes(alpha, 1)
                assert set(degree) == set().union(*shapes)
                for mask, d in degree.items():
                    assert deg_alpha(
                        MultiplicityVector.from_mask(n, d, mask), alpha
                    ) == 0


class TestEnumeratedObjectsAreValid:
    """Enumerators skip validation; the public constructors must agree."""

    @pytest.mark.parametrize("kind", ["dense", "medium"])
    def test_alpha_partitions(self, kind):
        found = 0
        for alpha in seeded_alphas(7, kind):
            shared = {}
            for partition in alpha_partitions(alpha):
                assert_public_rebuild(partition)
                for block in partition.blocks:
                    assert shared.setdefault(block.support, block) is block
                found += 1
        assert found > 100

    def test_feasible_partitions(self):
        for n in range(2, 9):
            for s in range(1, n):
                for partition, _ in feasible_partitions(ModuliContext(n, s)):
                    assert_public_rebuild(partition)


@COMPILED_RUN_UNNAMED
@pytest.mark.usefixtures("twin")
class TestFeasiblePartitions:
    def test_reference_triple_is_realisable(self, triple94):
        target = Partition(triple94)
        for partition, witness in feasible_partitions(
            ModuliContext(9, 4), min_len=3
        ):
            if partition == target:
                alpha = WeightVector(witness)
                assert alpha.s == 4
                for block in partition.blocks:
                    assert deg_alpha(block, alpha) == 0
                break
        else:
            pytest.fail("reference triple not found")

    def test_witnesses_realise_their_partition(self):
        for n in range(4, 7):
            for s in range(1, n):
                for partition, witness in feasible_partitions(
                    ModuliContext(n, s)
                ):
                    alpha = WeightVector(witness)
                    assert alpha.s == s
                    assert partition.s == s
                    for block in partition.blocks:
                        assert deg_alpha(block, alpha) == 0

    def test_stream_is_deterministic(self):
        ctx = ModuliContext(6, 3)
        first = list(feasible_partitions(ctx))
        second = list(feasible_partitions(ctx))
        assert first == second
        assert len(first) == len({p for p, _ in first})

    @pytest.mark.parametrize("min_len", [1, 3])
    def test_one_object_per_block_and_entry(self, min_len):
        """Within one call each (mask, degree) has one checked-equal block
        and each distinct witness value one Fraction; the stream equals the
        one built from the kernel's rows with a fresh block per partition
        and a fresh Fraction per entry."""
        for n in range(2, 9):
            for s in range(1, n):
                blocks, entries, rows = _kernel.realise_shapes(n, s, min_len)
                got = list(feasible_partitions(ModuliContext(n, s), min_len))
                assert len(got) == len(rows)
                shared_blocks, shared_values = {}, {}
                for partition, witness in got:
                    for block in partition.blocks:
                        checked = MultiplicityVector.from_mask(
                            n, block.d_check, block.support_mask
                        )
                        assert block == checked
                        assert block.r == checked.r
                        key = (block.support_mask, block.d_check)
                        assert shared_blocks.setdefault(key, block) is block
                    assert len(witness) == n
                    for entry in witness:
                        assert type(entry) is Fraction
                        assert shared_values.setdefault(entry, entry) is entry
                assert len(shared_blocks) == len(blocks)
                assert len(shared_values) == len(entries)
                fresh = [
                    (
                        Partition(
                            tuple(
                                MultiplicityVector.from_mask(n, d, mask)
                                for mask, d in map(blocks.__getitem__, block_ix)
                            )
                        ),
                        tuple(Fraction(*entries[i]) for i in entry_ix),
                    )
                    for block_ix, entry_ix in rows
                ]
                assert got == fresh


@lru_cache(maxsize=None)
def realised_stream(n, s):
    """feasible_partitions(ModuliContext(n, s)) as pure.realise decides it
    candidate by candidate, built through the public constructors."""
    return [
        (
            Partition(tuple(
                MultiplicityVector.from_mask(n, d, mask)
                for mask, d in zip(masks, degs)
            )),
            tuple(Fraction(x, den) for x in nums),
        )
        for masks, degs, nums, den in realisable_candidates(pure.realise, n, s)
    ]


def test_feasible_partitions_agree_on_both_twins(twin):
    # each twin's stream equals the one realise gives candidate by
    # candidate, so the pure and compiled streams are equal
    for n in range(2, 9):
        for s in range(1, n):
            got = list(feasible_partitions(ModuliContext(n, s)))
            assert got == realised_stream(n, s), (n, s)


class TestStability:
    def test_stability_matches_partial_sum_scan(self, alpha94, triple94):
        beta = find_generic_near(alpha94)
        op = OrderedPartition(triple94)
        for rotated in op.rotations():
            partials = []
            acc = None
            for block in rotated.seq[:-1]:
                acc = block if acc is None else acc + block
                partials.append(deg_alpha(acc, beta))
            assert is_alpha_stable_seq(rotated, beta) == all(
                d < 0 for d in partials
            )

    def test_blocks_on_walls_are_never_stable(self, alpha94, triple94):
        # Every proper leading partial sum has degree exactly 0 at alpha94,
        # so no rotation is stable there.
        op = OrderedPartition(triple94)
        for rotated in op.rotations():
            assert not is_alpha_stable_seq(rotated, alpha94)

    def test_total_degree_must_vanish(self, triple94):
        alpha = WeightVector(
            tuple(Fraction(1, 3) + Fraction(2 * i - 10, 30) for i in range(1, 10))
        )
        assert alpha.s == 3
        with pytest.raises(ValueError):
            is_alpha_stable_seq(OrderedPartition(triple94), alpha)

    def test_stable_rotation_is_the_unique_stable_one(self, alpha94, triple94):
        beta = find_generic_near(alpha94)
        op = OrderedPartition(triple94)
        stable = {
            l
            for l in range(len(op))
            if is_alpha_stable_seq(op.rotation(l), beta)
        }
        assert stable == {stable_rotation(op, beta)}

    def test_stable_rotation_rejects_nongeneric(self, alpha94, triple94):
        with pytest.raises(NotGenericError):
            stable_rotation(OrderedPartition(triple94), alpha94)
